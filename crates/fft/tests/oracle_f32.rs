//! The `f32` oracle: the transforms the inference path actually runs,
//! against the naive DFT evaluated in `f64`, at every supported size.
//!
//! `properties.rs` checks the algebra in `f64`; this file bounds the
//! rounding error of the `f32` kernels. Errors are relative L2,
//! `‖fast − exact‖₂ / ‖exact‖₂`, on signals uniform in `[-1, 1]`, with one
//! stated bound per size class (`f32` epsilon is 1.2e-7):
//!
//! | class                                             | bound  | worst seen |
//! |---------------------------------------------------|--------|------------|
//! | power-of-two kernel: `Radix2`, `RealFft` with a power-of-two half | 2.0e-7 | 1.2e-7 |
//! | `RealFft`, even `n`, Bluestein half               | 6.0e-7 | 4.2e-7     |
//! | full Bluestein: `Bluestein::process`, `RealFft` with odd `n` | 7.0e-7 | 4.8e-7 |
//!
//! A round trip is two transforms and is held to 1.5× the bound. The
//! kernel this one replaced (strided radix-2, twiddles from `f32`
//! `sin`/`cos`) reaches 2.2e-7 … 2.6e-7 on the same power-of-two cases
//! from `n = 1024` up (`Radix2` from 512), so the power-of-two bound is
//! one it does not meet: the speed was not bought with accuracy.

use ffdl_fft::{
    dft, dft_real, Bluestein, Complex, Complex32, Complex64, Direction, Fft, Fft2d, Radix2, RealFft,
};
use ffdl_rng::prop::{check, vec_of};
use ffdl_rng::{prop_assert, Rng, SmallRng};

const POW2_BOUND: f64 = 2.0e-7;
const EVEN_CHIRP_BOUND: f64 = 6.0e-7;
const CHIRP_BOUND: f64 = 7.0e-7;

/// The replaced kernel's error on `RealFft::<f32>::new(1024)`, measured
/// with this file at the parent commit; the bound on its successor may
/// not be looser.
const REPLACED_KERNEL_POW2: f64 = 2.2e-7;
const _: () = assert!(POW2_BOUND <= REPLACED_KERNEL_POW2);

/// Every length from 1 to 260 — all three `RealFft` paths many times
/// over — and three large powers of two.
fn sizes() -> impl Iterator<Item = usize> {
    (1..=260).chain([512, 1024, 2048])
}

fn cases(n: usize) -> u32 {
    if n <= 260 {
        4
    } else {
        2
    }
}

fn real_signal(rng: &mut SmallRng, n: usize) -> Vec<f32> {
    vec_of(rng, n..=n, |r| r.gen_range(-1.0f32..1.0))
}

fn complex_signal(rng: &mut SmallRng, n: usize) -> Vec<Complex32> {
    vec_of(rng, n..=n, |r| {
        Complex::new(r.gen_range(-1.0f32..1.0), r.gen_range(-1.0f32..1.0))
    })
}

fn widen(x: &[Complex32]) -> Vec<Complex64> {
    x.iter()
        .map(|z| Complex::new(z.re as f64, z.im as f64))
        .collect()
}

/// `‖got − want‖₂ / ‖want‖₂`.
fn relative_l2(got: &[Complex64], want: &[Complex64]) -> f64 {
    assert_eq!(got.len(), want.len());
    let num: f64 = got.iter().zip(want).map(|(g, w)| (*g - *w).norm_sqr()).sum();
    let den: f64 = want.iter().map(|w| w.norm_sqr()).sum();
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

fn real_fft_bound(n: usize) -> f64 {
    if n % 2 == 1 {
        CHIRP_BOUND
    } else if (n / 2).is_power_of_two() {
        POW2_BOUND
    } else {
        EVEN_CHIRP_BOUND
    }
}

/// `RealFft::<f32>::forward` against `dft_real` in `f64`, the round trip
/// against the input, and the `_into` variants (on buffers left dirty by
/// the previous size) bit for bit against the allocating ones.
#[test]
fn real_fft_matches_the_f64_dft_at_every_size() {
    let dirty = std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new()));
    for n in sizes() {
        let plan = RealFft::<f32>::new(n);
        let bound = real_fft_bound(n);
        check(
            &format!("real_fft_f32_oracle_{n}"),
            cases(n),
            |rng| real_signal(rng, n),
            |x| {
                let exact: Vec<f64> = x.iter().map(|&v| v as f64).collect();
                let want = dft_real(&exact);
                let spectrum = plan.forward(x).unwrap();
                let err = relative_l2(&widen(&spectrum), &want[..=n / 2]);
                prop_assert!(err <= bound, "n={n}: forward error {err:.3e} > {bound:.1e}");

                let back = plan.inverse(&spectrum).unwrap();
                let as_complex =
                    |v: &[f64]| v.iter().map(|&r| Complex::from_real(r)).collect::<Vec<_>>();
                let back64: Vec<f64> = back.iter().map(|&v| v as f64).collect();
                let err = relative_l2(&as_complex(&back64), &as_complex(&exact));
                // Two transforms, and their errors do not cancel.
                prop_assert!(
                    err <= 1.5 * bound,
                    "n={n}: round-trip error {err:.3e} > {:.1e}",
                    1.5 * bound
                );

                let (scratch, spec, signal) = &mut *dirty.borrow_mut();
                plan.forward_into(x, scratch, spec).unwrap();
                prop_assert!(
                    spec.len() == spectrum.len()
                        && spec.iter().zip(&spectrum).all(|(a, b)| {
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
                        }),
                    "n={n}: forward_into differs from forward"
                );
                plan.inverse_into(spec, scratch, signal).unwrap();
                prop_assert!(
                    signal.len() == back.len()
                        && signal.iter().zip(&back).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "n={n}: inverse_into differs from inverse"
                );
                Ok(())
            },
        );
    }
}

/// `plan.process` in `f32` against `dft` in `f64`, both directions.
fn check_complex_plan(
    name: &str,
    n: usize,
    bound: f64,
    build: impl Fn(Direction) -> Box<dyn Fft<f32>>,
) {
    for direction in [Direction::Forward, Direction::Inverse] {
        let plan = build(direction);
        check(
            &format!("{name}_f32_oracle_{n}_{direction:?}"),
            cases(n),
            |rng| complex_signal(rng, n),
            |x| {
                let want = dft(&widen(x), direction);
                let mut got = x.clone();
                plan.process(&mut got).unwrap();
                let err = relative_l2(&widen(&got), &want);
                prop_assert!(
                    err <= bound,
                    "{name} n={n} {direction:?}: error {err:.3e} > {bound:.1e}"
                );
                Ok(())
            },
        );
    }
}

#[test]
fn radix2_matches_the_f64_dft_at_every_power_of_two() {
    for n in sizes().filter(|n| n.is_power_of_two()) {
        check_complex_plan("radix2", n, POW2_BOUND, |d| Box::new(Radix2::new(n, d)));
    }
}

#[test]
fn bluestein_matches_the_f64_dft_at_every_size() {
    for n in sizes() {
        check_complex_plan("bluestein", n, CHIRP_BOUND, |d| Box::new(Bluestein::new(n, d)));
    }
}

/// `Fft2d` on rectangular shapes (power-of-two, chirp and mixed sides)
/// against the row–column DFT in `f64`.
#[test]
fn fft2d_matches_the_f64_dft_on_rectangles() {
    for (rows, cols) in [(4, 8), (8, 32), (16, 6), (3, 5), (1, 64), (12, 1)] {
        let plan = Fft2d::<f32>::new(rows, cols);
        let pow2 = rows.is_power_of_two() && cols.is_power_of_two();
        // One transform per axis.
        let bound = 1.5 * if pow2 { POW2_BOUND } else { CHIRP_BOUND };
        check(
            &format!("fft2d_f32_oracle_{rows}x{cols}"),
            4,
            |rng| complex_signal(rng, rows * cols),
            |x| {
                let mut want = widen(x);
                for row in want.chunks_exact_mut(cols) {
                    row.copy_from_slice(&dft(row, Direction::Forward));
                }
                for c in 0..cols {
                    let column: Vec<_> = (0..rows).map(|r| want[r * cols + c]).collect();
                    for (r, v) in dft(&column, Direction::Forward).into_iter().enumerate() {
                        want[r * cols + c] = v;
                    }
                }
                let mut got = x.clone();
                plan.forward(&mut got).unwrap();
                let err = relative_l2(&widen(&got), &want);
                prop_assert!(err <= bound, "{rows}x{cols}: error {err:.3e} > {bound:.1e}");

                plan.inverse(&mut got).unwrap();
                let err = relative_l2(&widen(&got), &widen(x));
                prop_assert!(
                    err <= 1.5 * bound,
                    "{rows}x{cols}: round-trip error {err:.3e} > {:.1e}",
                    1.5 * bound
                );
                Ok(())
            },
        );
    }
}
