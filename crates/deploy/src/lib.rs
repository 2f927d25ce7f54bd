//! # ffdl-deploy — the Fig. 4 deployment pipeline
//!
//! Rust counterpart of the paper's Android software implementation (§V),
//! with the same four high-level modules:
//!
//! 1. **Architecture parser** ([`parse_architecture`]) — constructs the
//!    network from a text description,
//! 2. **Parameters parser** ([`read_parameters_into`] /
//!    [`write_parameters`]) — loads trained weights and biases,
//! 3. **Inputs parser** ([`parse_inputs`]) — loads test features and
//!    labels,
//! 4. **Inference engine** ([`InferenceEngine`]) — predicts labels, and
//!    reports the per-image core runtime of Tables II/III (host-measured
//!    and platform-model-projected).
//!
//! # Examples
//!
//! End-to-end: describe → build → save → reload → predict.
//!
//! ```
//! use ffdl_deploy::{parse_architecture, read_parameters_into, write_parameters, InferenceEngine};
//! use ffdl_tensor::Tensor;
//!
//! let arch = "input 16\ncirculant_fc 8 block=4\nrelu\nfc 2\nsoftmax\n";
//! let trained = parse_architecture(arch, 42)?.network;
//!
//! let mut weights = Vec::new();
//! write_parameters(&trained, &mut weights)?;
//!
//! let mut deployed = parse_architecture(arch, 0)?.network;
//! read_parameters_into(&mut deployed, &weights[..])?;
//!
//! let mut engine = InferenceEngine::new(deployed);
//! let predictions = engine.predict(&Tensor::zeros(&[1, 16]))?;
//! assert_eq!(predictions.len(), 1);
//! # Ok::<(), ffdl_deploy::DeployError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod engine;
mod error;
mod inputs;
mod params;

pub use arch::{parse_architecture, ParsedNetwork, Shape};
pub use engine::{
    check_finite, predictions_from_output, EvaluationReport, InferenceEngine, Prediction,
};
pub use error::{DeployError, NonFiniteStage};
pub use inputs::{format_inputs, parse_inputs, ParsedInputs};
pub use params::{read_parameters_into, write_parameters};
