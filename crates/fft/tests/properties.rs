//! Property-based tests for the FFT kernel: the algebraic identities the
//! paper's Algorithm 1/2 rely on must hold for arbitrary inputs.
//!
//! Ported from `proptest` onto the in-house `ffdl_rng::prop` harness:
//! cases are generated from per-case seeds and replayable via
//! `FFDL_PROP_REPLAY` (see `crates/rng/src/prop.rs`).

use ffdl_fft::{
    circular_convolve, circular_convolve_direct, circular_correlate, circular_correlate_direct,
    dft, fft, ifft, irfft, rfft, Complex, Complex64, Direction, FftPlanner,
};
use ffdl_rng::prop::{check, moderate_f64, vec_of};
use ffdl_rng::{prop_assert, prop_assert_eq, SmallRng};

fn complex_vec(rng: &mut SmallRng, max_len: usize) -> Vec<Complex64> {
    vec_of(rng, 1..=max_len, |r| {
        Complex::new(moderate_f64(r), moderate_f64(r))
    })
}

fn real_vec(rng: &mut SmallRng, max_len: usize) -> Vec<f64> {
    vec_of(rng, 1..=max_len, moderate_f64)
}

fn max_norm(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm()).fold(0.0, f64::max).max(1.0)
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(1.0, f64::max)
}

/// ifft(fft(x)) == x for any length (radix-2 and Bluestein paths).
#[test]
fn fft_roundtrip() {
    check(
        "fft_roundtrip",
        64,
        |rng| complex_vec(rng, 200),
        |x| {
            let back = ifft(&fft(x));
            let scale = max_norm(x);
            for (a, b) in back.iter().zip(x) {
                prop_assert!(
                    (*a - *b).norm() < 1e-8 * scale * x.len() as f64,
                    "{a:?} vs {b:?}"
                );
            }
            Ok(())
        },
    );
}

/// The fast transform agrees with the O(n²) DFT definition.
#[test]
fn fft_matches_dft() {
    check(
        "fft_matches_dft",
        64,
        |rng| complex_vec(rng, 96),
        |x| {
            let fast = fft(x);
            let slow = dft(x, Direction::Forward);
            let scale = max_norm(x) * x.len() as f64;
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((*a - *b).norm() < 1e-8 * scale, "{a:?} vs {b:?}");
            }
            Ok(())
        },
    );
}

/// FFT is linear: FFT(αx + y) == α·FFT(x) + FFT(y).
#[test]
fn fft_linearity() {
    check(
        "fft_linearity",
        64,
        |rng| (complex_vec(rng, 64), moderate_f64(rng)),
        |(x, alpha)| {
            // Build y of the same length from x deterministically.
            let y: Vec<Complex64> = x.iter().map(|z| z.conj().scale(0.5)).collect();
            let combo: Vec<Complex64> =
                x.iter().zip(&y).map(|(&a, &b)| a.scale(*alpha) + b).collect();
            let lhs = fft(&combo);
            let fx = fft(x);
            let fy = fft(&y);
            let scale = max_norm(x) * (alpha.abs() + 1.0) * x.len() as f64;
            for ((l, a), b) in lhs.iter().zip(&fx).zip(&fy) {
                prop_assert!(
                    (*l - (a.scale(*alpha) + *b)).norm() < 1e-8 * scale,
                    "lhs {l:?}"
                );
            }
            Ok(())
        },
    );
}

/// Parseval: energy is conserved (with the 1/n convention on inverse).
#[test]
fn parseval() {
    check(
        "parseval",
        64,
        |rng| complex_vec(rng, 128),
        |x| {
            let n = x.len() as f64;
            let spec = fft(x);
            let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            prop_assert!((te - fe).abs() < 1e-6 * (te.abs() + 1.0) * n, "{te} vs {fe}");
            Ok(())
        },
    );
}

/// Convolution theorem: FFT convolution equals the direct definition.
#[test]
fn convolution_theorem() {
    check(
        "convolution_theorem",
        64,
        |rng| {
            let a = real_vec(rng, 100);
            let b: Vec<f64> = (0..a.len()).map(|_| moderate_f64(rng)).collect();
            (a, b)
        },
        |(a, b)| {
            let fast = circular_convolve(a, b);
            let slow = circular_convolve_direct(a, b);
            let scale = max_abs(a) * max_abs(b) * a.len() as f64;
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * scale, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Correlation via FFT equals the direct definition.
#[test]
fn correlation_matches_direct() {
    check(
        "correlation_matches_direct",
        64,
        |rng| {
            let a = real_vec(rng, 80);
            let b: Vec<f64> = (0..a.len()).map(|_| moderate_f64(rng)).collect();
            (a, b)
        },
        |(a, b)| {
            let fast = circular_correlate(a, b);
            let slow = circular_correlate_direct(a, b);
            let scale = max_abs(a) * max_abs(b) * a.len() as f64;
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * scale, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Real FFT round-trips through the half spectrum.
#[test]
fn rfft_roundtrip() {
    check(
        "rfft_roundtrip",
        64,
        |rng| real_vec(rng, 150),
        |x| {
            let spec = rfft(x);
            prop_assert_eq!(spec.len(), x.len() / 2 + 1);
            let back = irfft(&spec, x.len());
            let scale = max_abs(x) * x.len() as f64;
            for (a, b) in back.iter().zip(x) {
                prop_assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b}");
            }
            Ok(())
        },
    );
}

/// The half spectrum agrees with the full complex transform.
#[test]
fn rfft_matches_fft() {
    check(
        "rfft_matches_fft",
        64,
        |rng| real_vec(rng, 100),
        |x| {
            let half = rfft(x);
            let full = fft(&x.iter().map(|&v| Complex::from_real(v)).collect::<Vec<_>>());
            let scale = max_abs(x) * x.len() as f64;
            for (k, h) in half.iter().enumerate() {
                prop_assert!((*h - full[k]).norm() < 1e-8 * scale, "bin {k}");
            }
            Ok(())
        },
    );
}

/// Time shift ↔ phase rotation: FFT(rot₁(x))[k] = FFT(x)[k]·e^{-2πik/n}.
#[test]
fn shift_theorem() {
    check(
        "shift_theorem",
        64,
        |rng| complex_vec(rng, 64),
        |x| {
            let n = x.len();
            let mut rotated = x.clone();
            rotated.rotate_right(1);
            let fx = fft(x);
            let fr = fft(&rotated);
            let scale = max_norm(x) * n as f64;
            for k in 0..n {
                let phase = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
                prop_assert!((fr[k] - fx[k] * phase).norm() < 1e-8 * scale, "bin {k}");
            }
            Ok(())
        },
    );
}

#[test]
fn planner_is_reusable_across_sizes() {
    let mut planner = FftPlanner::<f64>::new();
    for n in [2usize, 3, 8, 12, 16, 121] {
        let x: Vec<Complex64> = (0..n).map(|k| Complex::from_real(k as f64)).collect();
        let mut buf = x.clone();
        planner.plan_forward(n).process(&mut buf).unwrap();
        planner.plan_inverse(n).process(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }
    assert_eq!(planner.cached_plans(), 12);
}
