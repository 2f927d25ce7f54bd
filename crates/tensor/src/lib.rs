//! # ffdl-tensor — dense tensor substrate
//!
//! Minimal row-major `f32` tensor library serving as the numerical
//! substrate for the block-circulant deep-learning stack (reproduction of
//! Lin et al., *FFT-Based Deep Learning Deployment in Embedded Systems*,
//! DATE 2018).
//!
//! Provides:
//!
//! - [`Tensor`]: arbitrary-rank dense storage with shape-checked ops,
//! - dense [`Tensor::matmul`] / [`Tensor::matvec`] — the `O(n²)` baselines
//!   the paper's FFT kernel is compared against,
//! - [`im2col`] / [`col2im`]: the Fig. 3 convolution-as-matmul lowering,
//!   and [`Tensor::taps_matmul_into`], the same product without building it,
//! - [`bilinear_resize`]: the MNIST 28×28 → 16×16 / 11×11 preprocessing,
//! - [`Init`]: weight initializers (Glorot, He, …).
//!
//! # Examples
//!
//! ```
//! use ffdl_tensor::{ConvGeometry, Tensor, im2col, filters_to_matrix};
//!
//! // Convolution as matrix multiplication (Fig. 3 of the paper):
//! let image = Tensor::from_fn(&[3, 8, 8], |i| i as f32 * 0.01);
//! let filters = Tensor::from_fn(&[4, 3, 3, 3], |i| ((i % 5) as f32) - 2.0);
//! let x = im2col(&image, ConvGeometry::valid(3))?;   // [(8-3+1)², 3·3·3]
//! let f = filters_to_matrix(&filters)?;              // [3·3·3, 4]
//! let y = x.matmul(&f)?;                             // [36, 4]
//! assert_eq!(y.shape(), &[36, 4]);
//! # Ok::<(), ffdl_tensor::TensorError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod image;
mod init;
mod ops;
mod tensor;

pub use error::TensorError;
pub use image::{
    bilinear_resize, col2im, conv2d_direct, filters_to_matrix, im2col, im2col_into,
    matrix_to_filters, ConvGeometry,
};
pub use init::Init;
pub use tensor::Tensor;
