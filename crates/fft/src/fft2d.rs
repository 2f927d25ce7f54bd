//! Two-dimensional FFTs (row–column decomposition).
//!
//! Used by the FFT-convolution baseline (LeCun et al. [11] in the paper's
//! numbering) that the paper positions itself against: 2-D FFT
//! convolution *accelerates* CONV layers but does not *compress* them,
//! whereas the block-circulant method does both (§I).

use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use crate::plan::{Direction, Fft, FftPlanner};
use std::sync::Arc;

/// A planned 2-D FFT of fixed `rows × cols` size.
///
/// Transforms are separable: FFT every row, then every column. Both
/// dimension plans come from one planner, so repeated same-size images
/// (the CONV-layer pattern) share twiddles.
///
/// # Examples
///
/// ```
/// use ffdl_fft::{Complex, Fft2d};
///
/// let plan = Fft2d::<f64>::new(4, 4);
/// let mut img: Vec<_> = (0..16).map(|k| Complex::from_real(k as f64)).collect();
/// let original = img.clone();
/// plan.forward(&mut img)?;
/// plan.inverse(&mut img)?;
/// for (a, b) in img.iter().zip(&original) {
///     assert!((*a - *b).norm() < 1e-10);
/// }
/// # Ok::<(), ffdl_fft::FftError>(())
/// ```
pub struct Fft2d<T> {
    rows: usize,
    cols: usize,
    row_forward: Arc<dyn Fft<T>>,
    row_inverse: Arc<dyn Fft<T>>,
    col_forward: Arc<dyn Fft<T>>,
    col_inverse: Arc<dyn Fft<T>>,
}

impl<T> Clone for Fft2d<T> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            row_forward: Arc::clone(&self.row_forward),
            row_inverse: Arc::clone(&self.row_inverse),
            col_forward: Arc::clone(&self.col_forward),
            col_inverse: Arc::clone(&self.col_inverse),
        }
    }
}

impl<T: FftFloat> Fft2d<T> {
    /// Builds a plan for `rows × cols` images.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "2-D FFT dimensions must be positive");
        let mut planner = FftPlanner::new();
        Self {
            rows,
            cols,
            row_forward: planner.plan(cols, Direction::Forward),
            row_inverse: planner.plan(cols, Direction::Inverse),
            col_forward: planner.plan(rows, Direction::Forward),
            col_inverse: planner.plan(rows, Direction::Inverse),
        }
    }

    /// Image height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Image width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of elements a buffer must have.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Always `false` (dimensions are validated positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check(&self, buf: &[Complex<T>]) -> Result<(), FftError> {
        if buf.len() != self.len() {
            return Err(FftError::LengthMismatch {
                expected: self.len(),
                actual: buf.len(),
            });
        }
        Ok(())
    }

    fn transform(
        &self,
        buf: &mut [Complex<T>],
        row_plan: &Arc<dyn Fft<T>>,
        col_plan: &Arc<dyn Fft<T>>,
    ) -> Result<(), FftError> {
        // Rows in place.
        for r in 0..self.rows {
            row_plan.process(&mut buf[r * self.cols..(r + 1) * self.cols])?;
        }
        // Columns via a scratch vector.
        let mut column = vec![Complex::zero(); self.rows];
        for c in 0..self.cols {
            for r in 0..self.rows {
                column[r] = buf[r * self.cols + c];
            }
            col_plan.process(&mut column)?;
            for r in 0..self.rows {
                buf[r * self.cols + c] = column[r];
            }
        }
        Ok(())
    }

    /// Forward 2-D transform, in place (row-major buffer).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `buf.len() != rows·cols`.
    pub fn forward(&self, buf: &mut [Complex<T>]) -> Result<(), FftError> {
        self.check(buf)?;
        self.transform(buf, &self.row_forward, &self.col_forward)
    }

    /// Inverse 2-D transform, in place (includes the `1/(rows·cols)`
    /// scaling via the 1-D inverse plans).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `buf.len() != rows·cols`.
    pub fn inverse(&self, buf: &mut [Complex<T>]) -> Result<(), FftError> {
        self.check(buf)?;
        self.transform(buf, &self.row_inverse, &self.col_inverse)
    }

    /// Forward transform of a real image into a complex buffer.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] on a wrong-size input.
    pub fn forward_real(&self, img: &[T]) -> Result<Vec<Complex<T>>, FftError> {
        if img.len() != self.len() {
            return Err(FftError::LengthMismatch {
                expected: self.len(),
                actual: img.len(),
            });
        }
        let mut buf: Vec<Complex<T>> = img.iter().map(|&v| Complex::from_real(v)).collect();
        self.forward(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dft::dft;

    /// The 2-D convolution theorem on one plan: `IFFT2(FFT2(a) ∘ FFT2(b))`.
    fn circular_convolve2d(a: &[f64], b: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let plan = Fft2d::new(rows, cols);
        let (fa, fb) = (plan.forward_real(a).unwrap(), plan.forward_real(b).unwrap());
        let mut prod: Vec<Complex64> = fa.iter().zip(&fb).map(|(&x, &y)| x * y).collect();
        plan.inverse(&mut prod).unwrap();
        prod.into_iter().map(|v| v.re).collect()
    }

    fn image(rows: usize, cols: usize) -> Vec<Complex64> {
        (0..rows * cols)
            .map(|k| Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
            .collect()
    }

    /// Reference 2-D DFT: direct double sum via two 1-D DFT passes on the
    /// naive kernel.
    fn dft2d_reference(img: &[Complex64], rows: usize, cols: usize) -> Vec<Complex64> {
        // Rows first.
        let mut tmp = vec![Complex64::zero(); rows * cols];
        for r in 0..rows {
            let row = dft(&img[r * cols..(r + 1) * cols], Direction::Forward);
            tmp[r * cols..(r + 1) * cols].copy_from_slice(&row);
        }
        let mut out = tmp.clone();
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| tmp[r * cols + c]).collect();
            let t = dft(&col, Direction::Forward);
            for r in 0..rows {
                out[r * cols + c] = t[r];
            }
        }
        out
    }

    #[test]
    fn matches_reference_various_sizes() {
        for (rows, cols) in [(2usize, 2usize), (4, 4), (3, 5), (8, 4), (7, 7)] {
            let img = image(rows, cols);
            let mut buf = img.clone();
            Fft2d::new(rows, cols).forward(&mut buf).unwrap();
            let reference = dft2d_reference(&img, rows, cols);
            for (a, b) in buf.iter().zip(&reference) {
                assert!((*a - *b).norm() < 1e-8, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn roundtrip() {
        let (rows, cols) = (8, 16);
        let img = image(rows, cols);
        let mut buf = img.clone();
        let plan = Fft2d::new(rows, cols);
        plan.forward(&mut buf).unwrap();
        plan.inverse(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&img) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn impulse_has_flat_2d_spectrum() {
        let (rows, cols) = (4, 6);
        let mut img = vec![Complex64::zero(); rows * cols];
        img[0] = Complex64::one();
        Fft2d::new(rows, cols).forward(&mut img).unwrap();
        for v in img {
            assert!((v - Complex64::one()).norm() < 1e-10);
        }
    }

    #[test]
    fn convolution_2d_identity_and_shift() {
        let (rows, cols) = (4, 4);
        let x: Vec<f64> = (0..16).map(|k| k as f64).collect();
        let mut delta = vec![0.0; 16];
        delta[0] = 1.0;
        let y = circular_convolve2d(&delta, &x, rows, cols);
        for (a, b) in y.iter().zip(&x) {
            assert!((a - b).abs() < 1e-9);
        }
        // Shift kernel: δ at (1, 1) rotates the image by one in each axis.
        let mut shift = vec![0.0; 16];
        shift[cols + 1] = 1.0;
        let y = circular_convolve2d(&shift, &x, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let src = ((r + rows - 1) % rows) * cols + ((c + cols - 1) % cols);
                assert!((y[r * cols + c] - x[src]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn convolution_2d_matches_direct_sum() {
        let (rows, cols) = (5, 4);
        let a: Vec<f64> = (0..20).map(|k| (k as f64 * 0.7).sin()).collect();
        let b: Vec<f64> = (0..20).map(|k| (k as f64 * 1.3).cos()).collect();
        let fast = circular_convolve2d(&a, &b, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                let mut acc = 0.0;
                for i in 0..rows {
                    for j in 0..cols {
                        acc += a[i * cols + j]
                            * b[((r + rows - i) % rows) * cols + (c + cols - j) % cols];
                    }
                }
                assert!(
                    (fast[r * cols + c] - acc).abs() < 1e-8,
                    "({r},{c}): {} vs {acc}",
                    fast[r * cols + c]
                );
            }
        }
    }

    #[test]
    fn validates_sizes() {
        let plan = Fft2d::<f64>::new(4, 4);
        let mut small = vec![Complex64::zero(); 8];
        assert!(plan.forward(&mut small).is_err());
        assert!(plan.inverse(&mut small).is_err());
        assert!(plan.forward_real(&[0.0; 8]).is_err());
        assert_eq!(plan.rows(), 4);
        assert_eq!(plan.cols(), 4);
        assert_eq!(plan.len(), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Fft2d::<f64>::new(0, 4);
    }
}
