//! Bluestein's chirp-z algorithm: FFT of *arbitrary* length in
//! `O(n log n)`, built on top of the power-of-two kernel.
//!
//! Block-circulant layers zero-pad to the block size, but the block size
//! itself need not be a power of two (e.g. the 121-neuron input layer of
//! the paper's MNIST Arch. 2). Bluestein keeps the `O(n log n)` guarantee
//! for those sizes.
//!
//! The identity `jk = (j² + k² − (k−j)²) / 2` turns the DFT into a
//! convolution with a quadratic-phase "chirp", which is evaluated as a
//! circular convolution at the next power of two ≥ `2n − 1`.

use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use crate::plan::{Direction, Fft, Radix2};

/// Bluestein chirp-z FFT plan for an arbitrary length.
///
/// The inner convolution needs [`Bluestein::conv_len`] elements of working
/// space: [`Fft::process`] allocates them per call, [`Fft::process_with`]
/// takes them from the caller (as [`RealFft`](crate::RealFft) does, so a
/// warm real transform allocates nothing at any length).
pub struct Bluestein<T> {
    len: usize,
    direction: Direction,
    /// Chirp `c[j] = e^{sign·πi·j²/n}` for `j < n`.
    chirp: Vec<Complex<T>>,
    /// Forward FFT of the zero-padded conjugate-chirp kernel, length `m`.
    kernel_spectrum: Vec<Complex<T>>,
    /// Inner convolution length (power of two ≥ 2n−1).
    conv_len: usize,
    inner_forward: Radix2<T>,
    inner_inverse: Radix2<T>,
}

impl<T: FftFloat> Bluestein<T> {
    /// Builds a Bluestein plan for the given length and direction.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize, direction: Direction) -> Self {
        assert!(len > 0, "cannot build a zero-length Bluestein plan");
        let sign: T = direction.sign();
        let pi = T::PI;
        let two_n = 2 * len;

        // c[j] = e^{sign·πi·j²/n}; reduce j² modulo 2n (the phase period)
        // to keep the float angle well-conditioned.
        let chirp: Vec<Complex<T>> = (0..len)
            .map(|j| {
                let q = (j * j) % two_n;
                Complex::cis(sign * pi * T::from_usize(q) / T::from_usize(len))
            })
            .collect();

        let conv_len = (2 * len - 1).next_power_of_two();
        let inner_forward = Radix2::new(conv_len, Direction::Forward);
        let inner_inverse = Radix2::new(conv_len, Direction::Inverse);

        // Kernel b[j] = conj(c[j]) placed symmetrically: b[0..n] and
        // b[m−j] = b[j] (the convolution index k−j spans −(n−1)..n−1).
        let mut kernel = vec![Complex::zero(); conv_len];
        for j in 0..len {
            let v = chirp[j].conj();
            kernel[j] = v;
            if j != 0 {
                kernel[conv_len - j] = v;
            }
        }
        inner_forward
            .process(&mut kernel)
            .expect("kernel length matches inner plan");

        Self {
            len,
            direction,
            chirp,
            kernel_spectrum: kernel,
            conv_len,
            inner_forward,
            inner_inverse,
        }
    }

    /// Inner (power-of-two) convolution length — exposed for tests and for
    /// op-count models of non-power-of-two transforms.
    pub fn conv_len(&self) -> usize {
        self.conv_len
    }
}

impl<T: FftFloat> Fft<T> for Bluestein<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn process(&self, buf: &mut [Complex<T>]) -> Result<(), FftError> {
        self.process_with(buf, &mut vec![Complex::zero(); self.conv_len])
    }

    fn scratch_len(&self) -> usize {
        self.conv_len
    }

    fn process_with(
        &self,
        buf: &mut [Complex<T>],
        scratch: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        if buf.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: buf.len(),
            });
        }

        // a[j] = x[j]·c[j], zero-padded to the convolution length.
        let a = &mut scratch[..self.conv_len];
        let (head, tail) = a.split_at_mut(self.len);
        for ((a, &x), &c) in head.iter_mut().zip(buf.iter()).zip(&self.chirp) {
            *a = x * c;
        }
        tail.fill(Complex::zero());

        self.inner_forward.process(a)?;
        for (v, &k) in a.iter_mut().zip(&self.kernel_spectrum) {
            *v *= k;
        }
        self.inner_inverse.process(a)?;

        // X[k] = c[k] · conv[k]; inverse transforms additionally scale by 1/n.
        match self.direction {
            Direction::Forward => {
                for (k, out) in buf.iter_mut().enumerate() {
                    *out = self.chirp[k] * a[k];
                }
            }
            Direction::Inverse => {
                let inv_n = T::ONE / T::from_usize(self.len);
                for (k, out) in buf.iter_mut().enumerate() {
                    *out = (self.chirp[k] * a[k]).scale(inv_n);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| Complex64::new((k as f64 * 0.71).sin(), (k as f64 * 0.29).cos() - 0.4))
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).norm() < tol, "index {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn matches_dft_for_awkward_sizes() {
        for n in [2usize, 3, 5, 6, 7, 9, 10, 11, 12, 13, 15, 17, 21, 25, 31, 33, 100, 121] {
            let x = signal(n);
            let mut buf = x.clone();
            Bluestein::new(n, Direction::Forward)
                .process(&mut buf)
                .unwrap();
            let reference = dft(&x, Direction::Forward);
            assert_close(&buf, &reference, 1e-7 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn inverse_matches_dft() {
        for n in [3usize, 7, 11, 121] {
            let x = signal(n);
            let mut buf = x.clone();
            Bluestein::new(n, Direction::Inverse)
                .process(&mut buf)
                .unwrap();
            let reference = dft(&x, Direction::Inverse);
            assert_close(&buf, &reference, 1e-8);
        }
    }

    #[test]
    fn roundtrip() {
        let n = 45;
        let x = signal(n);
        let mut buf = x.clone();
        Bluestein::new(n, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        Bluestein::new(n, Direction::Inverse)
            .process(&mut buf)
            .unwrap();
        assert_close(&buf, &x, 1e-9);
    }

    #[test]
    fn length_one() {
        let x = vec![Complex64::new(4.0, 2.0)];
        let mut buf = x.clone();
        Bluestein::new(1, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        assert_close(&buf, &x, 1e-12);
    }

    #[test]
    fn works_on_powers_of_two_as_well() {
        let n = 16;
        let x = signal(n);
        let mut buf = x.clone();
        Bluestein::new(n, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        let reference = dft(&x, Direction::Forward);
        assert_close(&buf, &reference, 1e-9);
    }

    #[test]
    fn process_with_on_dirty_scratch_is_process() {
        // Caller-owned working space may hold anything (here: the last
        // call's leftovers, then NaNs) and be longer than asked for.
        for (n, direction) in [(11usize, Direction::Forward), (45, Direction::Inverse)] {
            let plan = Bluestein::new(n, direction);
            let mut expected = signal(n);
            plan.process(&mut expected).unwrap();
            assert_eq!(plan.scratch_len(), plan.conv_len());
            let mut scratch = vec![Complex64::new(f64::NAN, f64::NAN); plan.scratch_len() + 3];
            for _ in 0..2 {
                let mut buf = signal(n);
                plan.process_with(&mut buf, &mut scratch).unwrap();
                assert_eq!(buf, expected, "n={n}");
            }
        }
    }

    #[test]
    fn conv_len_is_pow2_and_large_enough() {
        let plan = Bluestein::<f64>::new(121, Direction::Forward);
        assert!(plan.conv_len().is_power_of_two());
        assert!(plan.conv_len() >= 2 * 121 - 1);
    }

    #[test]
    fn rejects_wrong_length() {
        let plan = Bluestein::<f64>::new(5, Direction::Forward);
        let mut buf = vec![Complex64::zero(); 6];
        assert!(matches!(
            plan.process(&mut buf),
            Err(FftError::LengthMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn rejects_zero_length() {
        let _ = Bluestein::<f64>::new(0, Direction::Forward);
    }
}
