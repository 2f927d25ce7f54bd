//! # ffdl-core — block-circulant FFT-based DNN layers
//!
//! The primary contribution of *"FFT-Based Deep Learning Deployment in
//! Embedded Systems"* (Lin et al., DATE 2018), §IV: weight matrices are
//! constrained to be **block-circulant**, so storage drops from `O(n²)`
//! to `O(n)` and every matrix–vector product becomes the
//! *"FFT → component-wise multiplication → IFFT"* kernel, `O(n log n)` —
//! simultaneous compression and acceleration, for both inference
//! (Algorithm 1) and training (Algorithm 2).
//!
//! - [`BlockCirculantMatrix`] — the structured-matrix algebra: FFT-based
//!   batched products, gradients, dense expansion, and least-squares
//!   projection of a pretrained dense matrix onto the circulant structure.
//! - [`CirculantDense`] — the FC layer (§IV-A), a drop-in replacement for
//!   `ffdl_nn::Dense` implementing the `Layer` trait.
//! - [`CirculantConv2d`] — the CONV layer (§IV-B, Eqn. 6): the Fig. 3
//!   lowering's product, read from a spectral image of the input (one
//!   transform a pixel) when the block divides the channel count, and
//!   from the im2col rows otherwise.
//! - [`SpectralDense`] — inference-only frozen layer that stores
//!   `FFT(wᵢ)` instead of weights, as the paper ships to devices.
//! - [`QuantizedSpectralDense`] — the same frozen layer with the spectra
//!   in narrow fixed point (8 or 16 bits, one scale per output block),
//!   served without dequantizing the weight tensor.
//! - [`CirculantGru`] — block-circulant recurrent cell (the E-RNN
//!   direction): six circulant matrices per step, stateful streaming
//!   serving via `ffdl-stream`.
//! - [`register_circulant_layers`] — plugs the above into the
//!   `ffdl_nn::LayerRegistry` model format.
//!
//! # Examples
//!
//! Compression accounting for the paper's MNIST Arch. 1 hidden layer:
//!
//! ```
//! use ffdl_core::CirculantDense;
//! use ffdl_rng::SeedableRng;
//!
//! let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(0);
//! let layer = CirculantDense::new(256, 128, 64, &mut rng)?;
//! // 256·128 = 32768 dense weights stored as 4·2 blocks of 64 values.
//! assert_eq!(layer.matrix().param_count(), 512);
//! assert_eq!(layer.matrix().compression_ratio(), 64.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod circulant;
mod conv_layer;
mod dense_layer;
mod error;
mod inference;
mod quant;
mod recurrent;
mod spectral;

pub use circulant::{BlockCirculantMatrix, ForwardCache};
pub use conv_layer::{circulant_conv2d_from_config, CirculantConv2d};
pub use dense_layer::{circulant_dense_from_config, CirculantDense};
pub use error::CirculantError;
pub use inference::{spectral_dense_from_config, SpectralDense};
pub use quant::{quantized_spectral_dense_from_config, QuantBits, QuantizedSpectralDense};
pub use recurrent::{circulant_gru_from_config, CirculantGru, GruScratch};
pub use spectral::{CirculantScratch, SpectralKernel, Spectrum};

use ffdl_nn::LayerRegistry;

/// Registers the block-circulant layer types (`circulant_dense`,
/// `circulant_conv2d`, `spectral_dense`, `quantized_spectral_dense`,
/// `circulant_gru`) with a model-format registry.
///
/// # Examples
///
/// ```
/// use ffdl_nn::LayerRegistry;
///
/// let mut registry = LayerRegistry::with_builtin_layers();
/// ffdl_core::register_circulant_layers(&mut registry);
/// assert!(registry.builder("circulant_dense").is_some());
/// ```
pub fn register_circulant_layers(registry: &mut LayerRegistry) {
    registry.register("circulant_dense", circulant_dense_from_config);
    registry.register("circulant_conv2d", circulant_conv2d_from_config);
    registry.register("spectral_dense", spectral_dense_from_config);
    registry.register("quantized_spectral_dense", quantized_spectral_dense_from_config);
    registry.register("circulant_gru", circulant_gru_from_config);
}

/// A registry with both the built-in `ffdl-nn` layers and the circulant
/// layers registered — the one-stop loader for this project's models.
pub fn full_registry() -> LayerRegistry {
    let mut r = LayerRegistry::with_builtin_layers();
    register_circulant_layers(&mut r);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_registry_has_all_tags() {
        let r = full_registry();
        for tag in [
            "dense",
            "conv2d",
            "relu",
            "softmax",
            "flatten",
            "maxpool2d",
            "circulant_dense",
            "circulant_conv2d",
            "spectral_dense",
            "quantized_spectral_dense",
            "circulant_gru",
        ] {
            assert!(r.builder(tag).is_some(), "missing {tag}");
        }
        // The §I FFT-convolution baseline is a bench fixture, not a model.
        assert!(r.builder("fft_conv2d").is_none());
    }
}
