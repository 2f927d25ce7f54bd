//! # ffdl-nn — trainable DNN stack
//!
//! The neural-network substrate for the reproduction of *"FFT-Based Deep
//! Learning Deployment in Embedded Systems"* (Lin et al., DATE 2018):
//! the dense baselines the paper compares against, the training loop, and
//! the model format consumed by the deployment pipeline.
//!
//! - Layers: [`Dense`], [`Conv2d`] (the Fig. 3 product, its im2col rows
//!   read as taps of a pixel-major image), [`Relu`] / [`Sigmoid`] /
//!   [`Tanh`], [`MaxPool2d`], [`Flatten`], [`Softmax`].
//! - [`ConvShape`]: the one shape and driver under every CONV layer —
//!   this crate's `Conv2d` and `ffdl-core`'s block-circulant one — which
//!   stages each sample pixel-major once; the layers differ only in their
//!   product.
//! - Loss: [`SoftmaxCrossEntropy`].
//! - Optimizer: [`Sgd`] with momentum (the paper trains with lr 0.001,
//!   momentum 0.9).
//! - Container: [`Network`] with forward/backward, mini-batch training,
//!   accuracy evaluation, parameter/compression accounting and per-layer
//!   [`OpCost`] aggregation for the embedded platform model.
//! - Model format: [`save_network`] / [`load_network`] with a
//!   [`LayerRegistry`] so downstream crates (the block-circulant layers of
//!   `ffdl-core`) can register their own layer types.
//!
//! # Examples
//!
//! Train a small classifier and round-trip it through the model format:
//!
//! ```
//! use ffdl_nn::{
//!     load_network, save_network, Dense, LayerRegistry, Network, Relu, Sgd,
//!     SoftmaxCrossEntropy,
//! };
//! use ffdl_tensor::Tensor;
//! use ffdl_rng::SeedableRng;
//!
//! let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(0);
//! let mut net = Network::new();
//! net.push(Dense::new(2, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, &mut rng));
//!
//! let x = Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2])?;
//! let mut opt = Sgd::with_momentum(0.01, 0.9);
//! net.train_batch(&x, &[0, 1], &SoftmaxCrossEntropy::new(), &mut opt)?;
//!
//! let mut file = Vec::new();
//! save_network(&net, &mut file)?;
//! let _restored = load_network(&file[..], &LayerRegistry::with_builtin_layers())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod conv;
mod dense;
mod error;
mod flatten;
mod layer;
mod loss;
mod metrics;
mod network;
mod optimizer;
mod pool;
mod scratch;
mod serialize;
mod softmax;
pub mod wire;

pub use activation::{Relu, Sigmoid, Tanh};
pub use conv::{conv2d_from_config, Conv2d, ConvShape};
pub use dense::{dense_from_config, Dense};
pub use error::NnError;
pub use flatten::{flatten_from_config, Flatten};
pub use layer::{Layer, OpCost, ParamRef};
pub use loss::SoftmaxCrossEntropy;
pub use metrics::ConfusionMatrix;
pub use network::Network;
pub use optimizer::Sgd;
pub use pool::{maxpool2d_from_config, MaxPool2d};
pub use scratch::Scratch;
pub use serialize::{
    clone_network, copy_layer, load_network, save_network, LayerBuilder, LayerRegistry,
};
pub use softmax::{argmax_row, softmax_from_config, softmax_rows, Softmax};
