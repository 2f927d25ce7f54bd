//! # ffdl-quant — fixed-point quantized spectral inference
//!
//! Network-level quantization of the frozen deployment form: takes a
//! trained (or already frozen) block-circulant model and rewrites every
//! spectral FC layer onto
//! [`QuantizedSpectralDense`] — i16
//! (or int8) weight spectra with one symmetric scale per output
//! block, served **without per-batch dequantization of the weight
//! tensor**. All other layers pass through untouched (structural clone
//! when available, wire round-trip otherwise), so the quantized network
//! is a drop-in replacement: same input/output contract, same registry
//! tags, publishable to `ffdl-registry` as a new generation and
//! hot-swappable against its f32 parent in `ffdl-serve`.
//!
//! The crate also carries the measurement helpers the mixed-precision
//! story is judged by:
//!
//! - [`model_bytes`] — exact wire-format size (a quantized model is a
//!   version-3 file whose levels travel as narrow integers),
//! - [`top1_agreement`] — fraction of identical argmax decisions between
//!   two networks on an eval batch (the serve-path health criterion),
//! - [`argmax_labels`] — the shared label extraction.
//!
//! ```
//! use ffdl_core::{CirculantDense, QuantBits};
//! use ffdl_nn::{Network, Relu};
//! use ffdl_rng::SeedableRng;
//! use ffdl_tensor::Tensor;
//!
//! let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(7);
//! let mut net = Network::new();
//! net.push(CirculantDense::new(16, 8, 4, &mut rng)?);
//! net.push(Relu::new());
//!
//! let mut q = ffdl_quant::quantize_network(&net, QuantBits::Sixteen)?;
//! let x = Tensor::from_fn(&[4, 16], |i| (i as f32 * 0.3).sin());
//! let agreement = ffdl_quant::top1_agreement(&mut net, &mut q, &x)?;
//! assert!(agreement > 0.99);
//! assert!(ffdl_quant::model_bytes(&q)? < ffdl_quant::model_bytes(&net)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ffdl_core::{
    full_registry, CirculantDense, QuantBits, QuantizedSpectralDense, SpectralDense,
};
use ffdl_nn::{argmax_row, copy_layer, save_network, Network, NnError, Scratch};
use ffdl_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Errors reported by the network quantizer.
#[derive(Debug)]
pub enum QuantError {
    /// A layer could neither be quantized nor passed through.
    UnsupportedLayer {
        /// Position of the layer in the network.
        index: usize,
        /// The layer's type tag.
        tag: String,
    },
    /// The layer is already quantized — re-quantizing stored levels
    /// would silently compound rounding error.
    AlreadyQuantized {
        /// Position of the layer in the network.
        index: usize,
    },
    /// An underlying model-format operation failed.
    Nn(NnError),
    /// Publishing a ladder rung to the registry failed.
    Registry(ffdl_registry::RegistryError),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedLayer { index, tag } => {
                write!(f, "layer {index} ({tag}) cannot be quantized or passed through")
            }
            QuantError::AlreadyQuantized { index } => {
                write!(f, "layer {index} is already quantized; quantize the f32 parent instead")
            }
            QuantError::Nn(e) => write!(f, "model operation failed: {e}"),
            QuantError::Registry(e) => write!(f, "ladder publish failed: {e}"),
        }
    }
}

impl Error for QuantError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QuantError::Nn(e) => Some(e),
            QuantError::Registry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for QuantError {
    fn from(e: NnError) -> Self {
        QuantError::Nn(e)
    }
}

impl From<ffdl_registry::RegistryError> for QuantError {
    fn from(e: ffdl_registry::RegistryError) -> Self {
        QuantError::Registry(e)
    }
}

/// Quantizes every spectral FC layer of `network` to `bits` fixed point,
/// passing all other layers through unchanged.
///
/// Spectral layers are recognized through
/// [`Layer::as_any`](ffdl_nn::Layer::as_any):
/// [`CirculantDense`] is frozen-and-quantized from its weight matrix,
/// [`SpectralDense`] is re-quantized from its stored spectra. Everything
/// else passes through via its structural clone (or, for foreign layer
/// types, a wire round-trip through the full registry).
///
/// # Errors
///
/// [`QuantError::AlreadyQuantized`] when the input already contains a
/// quantized layer, [`QuantError::UnsupportedLayer`] when a pass-through
/// layer is unknown to the registry.
pub fn quantize_network(network: &Network, bits: QuantBits) -> Result<Network, QuantError> {
    let registry = full_registry();
    let mut out = Network::new();
    for (index, layer) in network.layers().iter().enumerate() {
        if let Some(any) = layer.as_any() {
            if any.downcast_ref::<QuantizedSpectralDense>().is_some() {
                return Err(QuantError::AlreadyQuantized { index });
            }
            if let Some(cd) = any.downcast_ref::<CirculantDense>() {
                out.push(QuantizedSpectralDense::from_matrix(
                    cd.matrix(),
                    cd.bias().clone(),
                    bits,
                ));
                continue;
            }
            if let Some(sd) = any.downcast_ref::<SpectralDense>() {
                out.push(QuantizedSpectralDense::from_spectral(sd, bits));
                continue;
            }
        }
        let copied = copy_layer(layer.as_ref(), &registry).map_err(|e| match e {
            NnError::UnknownLayerTag(tag) => QuantError::UnsupportedLayer { index, tag },
            e => QuantError::Nn(e),
        })?;
        out.push_boxed(copied);
    }
    Ok(out)
}

/// Exact wire-format size of `network` in bytes — what the registry
/// stores and the hot-swap path ships. Quantized models serialize as
/// version-3 files with narrow integer levels, so this is the number the
/// "i16 ≤ 55% of f32" guard is judged on.
///
/// # Errors
///
/// Propagates serialization failures as [`NnError`].
pub fn model_bytes(network: &Network) -> Result<usize, NnError> {
    let mut buf = Vec::new();
    save_network(network, &mut buf)?;
    Ok(buf.len())
}

/// Per-row labels of a `[batch, classes]` logits/probabilities tensor
/// under [`argmax_row`], the rule the deploy engine serves by (ties
/// resolve to the last maximum).
pub fn argmax_labels(outputs: &Tensor) -> Vec<usize> {
    outputs
        .as_slice()
        .chunks_exact(outputs.cols())
        .map(argmax_row)
        .collect()
}

/// Fraction of eval rows on which `a` and `b` pick the same top-1 class
/// — the acceptance criterion for serving a quantized generation in
/// place of its f32 parent. Both run the inference pass, as served.
///
/// # Errors
///
/// Propagates forward-pass failures from either network.
pub fn top1_agreement(a: &mut Network, b: &mut Network, inputs: &Tensor) -> Result<f32, NnError> {
    let mut scratch = Scratch::new();
    let ya = a.forward_infer(inputs, &mut scratch)?;
    let la = argmax_labels(&ya);
    scratch.recycle(ya);
    let lb = argmax_labels(&b.forward_infer(inputs, &mut scratch)?);
    debug_assert_eq!(la.len(), lb.len());
    let agree = la.iter().zip(&lb).filter(|(x, y)| x == y).count();
    Ok(agree as f32 / la.len().max(1) as f32)
}

/// The conventional label for a ladder rung: `"f32"` for the unquantized
/// parent, else the [`QuantBits`] precision (`"int16"`, `"int8"`).
pub fn rung_label(bits: Option<QuantBits>) -> &'static str {
    match bits {
        None => "f32",
        Some(QuantBits::Sixteen) => "int16",
        Some(QuantBits::Eight) => "int8",
    }
}

/// Publishes a **degradation ladder** for `network` under one registry
/// name: one generation per requested rung, in order (`None` = the f32
/// network as given, `Some(bits)` = a [`quantize_network`] variant).
/// Returns `(label, registry_generation)` per rung — the manifest a
/// brownout controller needs to swap a tenant between precisions at
/// runtime (`ffdl-sched` wires these into `ffdl_brownout::Ladder`).
///
/// Publishing all rungs up front is what makes the later swaps O(1) and
/// infallible-at-degrade-time: under overload is exactly when a
/// quantize-and-serialize round trip cannot be afforded.
///
/// # Errors
///
/// [`QuantError::Registry`] when a publish fails (the ladder may be
/// partially published), plus any [`quantize_network`] error for a
/// quantized rung.
pub fn publish_ladder(
    store: &ffdl_registry::ModelStore,
    name: &str,
    network: &Network,
    arch: &str,
    rungs: &[Option<QuantBits>],
) -> Result<Vec<(String, u64)>, QuantError> {
    let mut out = Vec::with_capacity(rungs.len());
    for &bits in rungs {
        let label = rung_label(bits);
        let version = match bits {
            None => store.publish(name, network, arch)?,
            Some(bits) => {
                let quantized = quantize_network(network, bits)?;
                store.publish(name, &quantized, arch)?
            }
        };
        out.push((label.to_string(), version.generation));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_nn::{Dense, Relu, Softmax};
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    fn sample_net() -> Network {
        let mut rng = rng();
        let mut net = Network::new();
        net.push(CirculantDense::new(32, 16, 8, &mut rng).unwrap());
        net.push(Relu::new());
        net.push(Dense::new(16, 4, &mut rng));
        net.push(Softmax::new());
        net
    }

    fn eval_batch(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 11 + 3) % 37) as f32 * 0.06 - 1.0)
    }

    #[test]
    fn quantize_replaces_spectral_layers_only() {
        let net = sample_net();
        let q = quantize_network(&net, QuantBits::Sixteen).unwrap();
        let tags: Vec<_> = q.layers().iter().map(|l| l.type_tag()).collect();
        assert_eq!(
            tags,
            ["quantized_spectral_dense", "relu", "dense", "softmax"]
        );
    }

    #[test]
    fn agreement_and_bytes_for_i16() {
        let mut net = sample_net();
        let mut q = quantize_network(&net, QuantBits::Sixteen).unwrap();
        let x = eval_batch(64, 32);
        let agreement = top1_agreement(&mut net, &mut q, &x).unwrap();
        assert!(agreement >= 0.99, "i16 agreement {agreement}");

        let f32_bytes = model_bytes(&net).unwrap();
        let q_bytes = model_bytes(&q).unwrap();
        assert!(
            (q_bytes as f64) < 0.90 * f32_bytes as f64,
            "quantized {q_bytes} vs f32 {f32_bytes}"
        );
    }

    #[test]
    fn frozen_spectral_input_quantizes_too() {
        let mut rng = rng();
        let cd = CirculantDense::new(24, 12, 6, &mut rng).unwrap();
        let mut frozen = Network::new();
        frozen.push(SpectralDense::from_matrix(cd.matrix(), cd.bias().clone()));
        let mut q = quantize_network(&frozen, QuantBits::Sixteen).unwrap();
        assert_eq!(q.layers()[0].type_tag(), "quantized_spectral_dense");

        let x = eval_batch(8, 24);
        let mut frozen = frozen;
        let y_f = frozen.forward(&x).unwrap();
        let y_q = q.forward(&x).unwrap();
        let scale = 1.0 + y_f.max_abs();
        for (a, b) in y_q.as_slice().iter().zip(y_f.as_slice()) {
            assert!((a - b).abs() < 2e-3 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn double_quantization_is_rejected() {
        let net = sample_net();
        let q = quantize_network(&net, QuantBits::Eight).unwrap();
        assert!(matches!(
            quantize_network(&q, QuantBits::Eight),
            Err(QuantError::AlreadyQuantized { index: 0 })
        ));
    }

    #[test]
    fn argmax_matches_manual() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.5, 0.2], &[2, 3]).unwrap();
        assert_eq!(argmax_labels(&t), vec![1, 1]);
    }

    /// The agreement figure is computed under the rule the engines
    /// serve by: on an all-tie output (zero-weight dense + softmax)
    /// `argmax_labels`, `Network::predict` and `InferenceEngine` name
    /// the same class. (They disagreed, `[0, 0]` vs `[2, 2]`, while
    /// `argmax_labels` kept a first-maximum rule of its own.)
    #[test]
    fn ties_resolve_as_the_engine_serves_them() {
        let mut net = Network::new();
        net.push(Dense::with_params(Tensor::zeros(&[4, 3]), Tensor::zeros(&[3])).unwrap());
        net.push(Softmax::new());
        let x = eval_batch(2, 4);
        let labels = argmax_labels(&net.forward(&x).unwrap());
        assert_eq!(labels, net.predict(&x).unwrap());
        let served = ffdl_deploy::InferenceEngine::new(net).predict(&x).unwrap();
        assert_eq!(labels, served.iter().map(|p| p.label).collect::<Vec<_>>());
        assert_eq!(labels, [2, 2]);
    }

    #[test]
    fn publish_ladder_names_rungs_and_loads_back() {
        use ffdl_core::full_registry;

        let dir = std::env::temp_dir().join(format!(
            "ffdl-quant-ladder-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let store = ffdl_registry::ModelStore::open(&dir).unwrap();
        let net = sample_net();
        let rungs = publish_ladder(
            &store,
            "ladder-model",
            &net,
            "test-arch",
            &[None, Some(QuantBits::Sixteen), Some(QuantBits::Eight)],
        )
        .unwrap();
        let labels: Vec<&str> = rungs.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["f32", "int16", "int8"]);
        let gens: Vec<u64> = rungs.iter().map(|(_, g)| *g).collect();
        assert_eq!(gens, [1, 2, 3], "one generation per rung, in order");

        // Every rung loads back; quantized rungs are smaller on the
        // wire and agree with the parent's decisions; each precision is
        // deterministic (bit-identical to quantizing offline).
        let registry = full_registry();
        let x = eval_batch(32, 32);
        let mut parent = ffdl_nn::clone_network(&net, &registry).unwrap();
        for (label, generation) in &rungs {
            let (mut loaded, version) =
                store.load("ladder-model", Some(*generation), &registry).unwrap();
            assert_eq!(version.generation, *generation);
            let agreement = top1_agreement(&mut parent, &mut loaded, &x).unwrap();
            assert!(agreement >= 0.95, "{label}: agreement {agreement}");
            if *label != "f32" {
                assert!(
                    model_bytes(&loaded).unwrap() < model_bytes(&net).unwrap(),
                    "{label} must be smaller than f32 on the wire"
                );
            }
        }
        let mut offline = quantize_network(&net, QuantBits::Eight).unwrap();
        let (mut int8, _) = store.load("ladder-model", Some(3), &registry).unwrap();
        let ya = int8.forward(&x).unwrap();
        let yb = offline.forward(&x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice(), "published rung is bit-identical");
        std::fs::remove_dir_all(&dir).ok();
    }
}
