//! # ffdl-fft — the FFT computing kernel
//!
//! From-scratch Fast Fourier Transform library underpinning the
//! block-circulant deep-learning stack of *"FFT-Based Deep Learning
//! Deployment in Embedded Systems"* (Lin et al., DATE 2018).
//!
//! The paper's entire contribution rests on one identity: multiplying by a
//! circulant matrix is a circular convolution, which the FFT evaluates in
//! `O(n log n)` instead of `O(n²)` (Eqn. 3, Fig. 2). This crate provides
//! that kernel:
//!
//! - [`Complex`] numbers generic over `f32`/`f64` ([`FftFloat`]),
//! - the power-of-two Cooley–Tukey transform ([`Radix2`], Fig. 1): a
//!   bit-reversal, then radix-4 passes over per-pass twiddle tables,
//! - [`Bluestein`]'s chirp-z transform for arbitrary lengths, on top of it,
//! - real-input transforms ([`RealFft`]) that compute only the
//!   non-redundant half spectrum and run the same passes with the
//!   permutation and the scaling folded into their pack steps,
//! - circular convolution/correlation ([`circular_convolve`],
//!   [`circular_correlate`]) with direct `O(n²)` references for testing,
//! - a plan cache ([`FftPlanner`]) so hot loops never recompute twiddles,
//! - a naive [`dft`] as the ground-truth reference.
//!
//! # Examples
//!
//! The convolution theorem in action — the procedure of Fig. 2:
//!
//! ```
//! use ffdl_fft::{circular_convolve, circular_convolve_direct};
//!
//! let w = [0.5f64, -0.25, 0.0, 0.75];
//! let x = [1.0, 2.0, 3.0, 4.0];
//! let fast = circular_convolve(&w, &x);
//! let slow = circular_convolve_direct(&w, &x);
//! for (a, b) in fast.iter().zip(&slow) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bluestein;
mod complex;
mod convolution;
mod dft;
mod error;
mod fft2d;
mod plan;
mod real;

pub use bluestein::Bluestein;
pub use fft2d::Fft2d;
pub use complex::{Complex, Complex32, Complex64, FftFloat};
pub use convolution::{
    circular_convolve, circular_convolve_direct, circular_correlate, circular_correlate_direct,
};
pub use dft::{dft, dft_real};
pub use error::FftError;
pub use plan::{fft, fft_real, ifft, Direction, Fft, FftPlanner, Radix2};
pub use real::{irfft, rfft, RealFft};
