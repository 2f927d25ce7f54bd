//! Circular convolution and correlation — the paper's core computational
//! identity (Eqn. 3): `C·x = IFFT( FFT(w) ∘ FFT(x) )` for a circulant `C`
//! defined by `w`.
//!
//! Each operation is provided twice: a direct `O(n²)` reference and the
//! `O(n log n)` FFT path — statements of the identity for tests and
//! examples; the layers run it on half spectra through
//! [`RealFft`](crate::RealFft).

use crate::complex::{Complex, FftFloat};
use crate::plan::{fft_real, ifft};

/// Direct `O(n²)` circular convolution: `out[i] = Σ_j a[j]·b[(i−j) mod n]`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn circular_convolve_direct<T: FftFloat>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular convolution requires equal lengths");
    let n = a.len();
    let mut out = vec![T::ZERO; n];
    for (i, out_i) in out.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (j, &aj) in a.iter().enumerate() {
            let idx = (i + n - j % n) % n;
            acc += aj * b[idx];
        }
        *out_i = acc;
    }
    out
}

/// Direct `O(n²)` circular correlation: `out[i] = Σ_j a[j]·b[(j−i) mod n]`.
///
/// Circular correlation is the adjoint of circular convolution; it shows up
/// in the backward pass of circulant layers (Algorithm 2).
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn circular_correlate_direct<T: FftFloat>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular correlation requires equal lengths");
    let n = a.len();
    let mut out = vec![T::ZERO; n];
    for (i, out_i) in out.iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for (j, &aj) in a.iter().enumerate() {
            let idx = (j + n - i % n) % n;
            acc += aj * b[idx];
        }
        *out_i = acc;
    }
    out
}

/// FFT-based circular convolution of two equal-length real signals.
///
/// This is the "FFT → component-wise multiplication → IFFT" procedure of
/// Fig. 2.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn circular_convolve<T: FftFloat>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular convolution requires equal lengths");
    through_spectra(a, b, |x, y| x * y)
}

/// FFT-based circular correlation `out[i] = Σ_j a[j]·b[(j−i) mod n]` of two
/// equal-length real signals, computed as `IFFT( FFT(a) ∘ conj(FFT(b)) )`.
///
/// With this convention, `corr` is the adjoint that appears in
/// Algorithm 2: for `y = w ⊛ x` and upstream gradient `g`,
/// `∂L/∂w = corr(g, x)` and `∂L/∂x = corr(g, w)`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn circular_correlate<T: FftFloat>(a: &[T], b: &[T]) -> Vec<T> {
    assert_eq!(a.len(), b.len(), "circular correlation requires equal lengths");
    through_spectra(a, b, |x, y| x * y.conj())
}

/// `IFFT( FFT(a) ∘ FFT(b) )` under the given component-wise product.
fn through_spectra<T: FftFloat>(
    a: &[T],
    b: &[T],
    product: impl Fn(Complex<T>, Complex<T>) -> Complex<T>,
) -> Vec<T> {
    let (fa, fb) = (fft_real(a), fft_real(b));
    let prod: Vec<Complex<T>> = fa.iter().zip(&fb).map(|(&x, &y)| product(x, y)).collect();
    ifft(&prod).into_iter().map(|v| v.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|k| (k as f64 * seed).sin() + 0.1 * k as f64)
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fft_convolution_matches_direct() {
        for n in [1usize, 2, 3, 4, 7, 8, 15, 16, 33, 64, 121] {
            let a = signal(n, 0.7);
            let b = signal(n, 1.3);
            assert_close(
                &circular_convolve(&a, &b),
                &circular_convolve_direct(&a, &b),
                1e-7 * (n as f64).max(1.0),
            );
        }
    }

    #[test]
    fn fft_correlation_matches_direct() {
        for n in [1usize, 2, 5, 8, 16, 31, 64] {
            let a = signal(n, 0.9);
            let b = signal(n, 0.4);
            assert_close(
                &circular_correlate(&a, &b),
                &circular_correlate_direct(&a, &b),
                1e-7 * (n as f64).max(1.0),
            );
        }
    }

    #[test]
    fn convolution_is_commutative() {
        let a = signal(16, 0.5);
        let b = signal(16, 2.1);
        assert_close(
            &circular_convolve(&a, &b),
            &circular_convolve(&b, &a),
            1e-9,
        );
    }

    #[test]
    fn identity_kernel() {
        let x = signal(8, 0.8);
        let mut delta = vec![0.0; 8];
        delta[0] = 1.0;
        assert_close(&circular_convolve(&delta, &x), &x, 1e-10);
        // corr(x, δ)[i] = Σ_j x[j]·δ[(j−i) mod n] = x[i].
        assert_close(&circular_correlate_direct(&x, &delta), &x, 1e-12);
    }

    #[test]
    fn shift_kernel_rotates() {
        // Convolving with δ shifted by 1 rotates the signal by 1.
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut delta1 = [0.0; 4];
        delta1[1] = 1.0;
        let y = circular_convolve(&delta1, &x);
        assert_close(&y, &[4.0, 1.0, 2.0, 3.0], 1e-10);
    }

    #[test]
    fn correlation_is_convolution_adjoint() {
        // <a ⊛ x, y> == <x, corr(y, a)> — the identity behind Algorithm 2.
        let n = 12;
        let a = signal(n, 0.6);
        let x = signal(n, 1.9);
        let y = signal(n, 0.2);
        let conv = circular_convolve_direct(&a, &x);
        let corr = circular_correlate_direct(&y, &a);
        let lhs: f64 = conv.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&corr).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert!(circular_convolve::<f64>(&[], &[]).is_empty());
        assert!(circular_correlate::<f64>(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_one_shot_panics() {
        let _ = circular_convolve(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn f32_convolution() {
        let a: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let b: Vec<f32> = vec![0.5, 0.0, -0.5, 1.0];
        let fast = circular_convolve(&a, &b);
        let direct = circular_convolve_direct(&a, &b);
        for (x, y) in fast.iter().zip(&direct) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}
