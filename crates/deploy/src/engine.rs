//! The inference engine — Fig. 4's fourth module ("performs inference for
//! predicting labels"): runs predictions, reports per-image core runtime
//! (the quantity of Tables II/III) and projects it onto the modelled
//! embedded platforms.
//!
//! [`InferenceEngine::predict`] and [`InferenceEngine::predict_batch`]
//! are one path: after input screening they run the network's inference
//! loop ([`Network::forward_infer`]) on the engine-owned [`Scratch`] and
//! differ only in whether samples are stacked first. Neither leaves a
//! backward cache in the network. What surrounds the layer walk — the
//! input screen [`check_finite`] and the tensor → [`Prediction`] tail
//! [`predictions_from_output`] — is written once here and shared with
//! `ffdl-stream`'s per-session stepper.

use crate::error::{DeployError, NonFiniteStage};
use ffdl_nn::{argmax_row, softmax_rows, Network, NnError, Scratch};
use ffdl_platform::{measure_inference_us, RuntimeModel, Timing};
use ffdl_tensor::Tensor;

/// A single prediction: the argmax class and the class probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class index.
    pub label: usize,
    /// Softmax probabilities per class.
    pub probabilities: Vec<f32>,
}

fn bad_input(message: String) -> DeployError {
    DeployError::Nn(NnError::BadInput {
        layer: "inference_engine".into(),
        message,
    })
}

/// Rejects non-finite values before they enter the FFT kernels (where a
/// single NaN contaminates every output of the block) — `offset` shifts
/// reported indices for batched multi-sample scans.
///
/// # Errors
///
/// [`DeployError::NonFinite`] naming `stage` and the first bad index.
pub fn check_finite(values: &[f32], stage: NonFiniteStage, offset: usize) -> Result<(), DeployError> {
    match values.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(DeployError::NonFinite {
            stage,
            index: offset + index,
        }),
        None => Ok(()),
    }
}

/// The tensor → [`Prediction`] tail of every engine: deterministic NaN
/// injection (when a fault campaign is armed), the logits health scan
/// when `check_logits` is on, softmax when `network` does not end in a
/// softmax layer, then one prediction per `[batch, classes]` row with
/// the label chosen by [`argmax_row`].
///
/// # Errors
///
/// [`DeployError::NonFinite`] with [`NonFiniteStage::Logits`] from the
/// scan; a typed [`DeployError::Nn`] when `out` is not rank 2.
pub fn predictions_from_output(
    network: &Network,
    out: &mut Tensor,
    check_logits: bool,
) -> Result<Vec<Prediction>, DeployError> {
    if ffdl_fault::enabled() {
        ffdl_fault::poison(out.as_mut_slice());
    }
    if check_logits {
        check_finite(out.as_slice(), NonFiniteStage::Logits, 0)?;
    }
    if out.ndim() != 2 {
        return Err(bad_input(format!(
            "expected [batch, classes] output, got {:?}",
            out.shape()
        )));
    }
    let ends_with_softmax = network
        .layers()
        .last()
        .is_some_and(|l| l.type_tag() == "softmax");
    let owned;
    let probs = if ends_with_softmax {
        &*out
    } else {
        owned = softmax_rows(out)?;
        &owned
    };
    Ok((0..probs.rows())
        .map(|r| Prediction {
            label: argmax_row(probs.row(r)),
            probabilities: probs.row(r).to_vec(),
        })
        .collect())
}

/// Result of a timed evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// Number of samples evaluated.
    pub samples: usize,
    /// Classification accuracy in `[0, 1]`, when labels were provided.
    pub accuracy: Option<f32>,
    /// Host wall-clock core runtime per image.
    pub host_timing: Timing,
    /// Model-projected per-image runtimes, one per supplied
    /// [`RuntimeModel`], in the same order.
    pub projected_us: Vec<f64>,
}

/// Inference engine wrapping a loaded network.
///
/// Owns a per-engine [`Scratch`] buffer pool: every prediction runs
/// through the allocation-reusing inference path, so steady-state
/// serving does not heap-allocate per request once the pool is warm.
pub struct InferenceEngine {
    network: Network,
    check_logits: bool,
    scratch: Scratch,
}

impl InferenceEngine {
    /// Wraps a (typically parameter-loaded) network.
    pub fn new(network: Network) -> Self {
        Self {
            network,
            check_logits: false,
            scratch: Scratch::new(),
        }
    }

    /// Enables or disables the opt-in logits finiteness check: when on,
    /// `predict*` scans the network's raw output and returns
    /// [`DeployError::NonFinite`] with [`NonFiniteStage::Logits`] if any
    /// NaN/Inf is found — the signal the serving layer uses to declare a
    /// model generation unhealthy. Inputs are always checked regardless
    /// of this flag (a bad request must not masquerade as a bad model).
    pub fn set_finite_check(&mut self, enabled: bool) {
        self.check_logits = enabled;
    }

    /// Whether the opt-in logits finiteness check is enabled.
    pub fn finite_check(&self) -> bool {
        self.check_logits
    }

    /// Borrow the underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access (e.g. for continued training).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Consumes the engine, returning the network.
    pub fn into_network(self) -> Network {
        self.network
    }

    /// Predicts classes and probabilities for a `[batch, …]` input.
    ///
    /// If the network does not end in a softmax layer, probabilities are
    /// derived by applying softmax to the final logits.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DeployError`] for an empty batch, rejects
    /// non-finite inputs with [`DeployError::NonFinite`] before they
    /// reach the FFT kernels, and propagates forward-pass errors (e.g.
    /// mismatched input width).
    pub fn predict(&mut self, inputs: &Tensor) -> Result<Vec<Prediction>, DeployError> {
        if inputs.ndim() == 0 || inputs.shape()[0] == 0 {
            return Err(bad_input(format!(
                "empty input batch (shape {:?})",
                inputs.shape()
            )));
        }
        check_finite(inputs.as_slice(), NonFiniteStage::Input, 0)?;
        self.predict_with(|network, scratch| network.forward_infer(inputs, scratch))
    }

    /// Everything after input screening, for both entry points: the
    /// inference pass `forward` on the engine's scratch pool, then the
    /// shared tail.
    fn predict_with(
        &mut self,
        forward: impl FnOnce(&mut Network, &mut Scratch) -> Result<Tensor, NnError>,
    ) -> Result<Vec<Prediction>, DeployError> {
        let span = ffdl_telemetry::span("ffdl.deploy.predict_ns");
        let mut out = forward(&mut self.network, &mut self.scratch)?;
        let preds = predictions_from_output(&self.network, &mut out, self.check_logits);
        self.scratch.recycle(out);
        let preds = preds?;
        drop(span);
        ffdl_telemetry::count("ffdl.deploy.predictions", preds.len() as u64);
        Ok(preds)
    }

    /// Predicts classes for a coalesced batch of per-sample tensors: the
    /// samples are stacked and run through **one** inference pass
    /// ([`Network::forward_batch_with`]), so per-call costs are amortized
    /// across the whole batch. Entry `r` of the
    /// result corresponds to `samples[r]` and is bit-identical to
    /// [`InferenceEngine::predict`] on that sample alone.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DeployError`] for an empty sample list,
    /// non-finite sample values (index is flat across the concatenated
    /// samples), or mismatched sample shapes; propagates forward-pass
    /// errors.
    pub fn predict_batch(&mut self, samples: &[&Tensor]) -> Result<Vec<Prediction>, DeployError> {
        if samples.is_empty() {
            return Err(bad_input("empty input batch (no samples)".into()));
        }
        let mut offset = 0;
        for sample in samples {
            check_finite(sample.as_slice(), NonFiniteStage::Input, offset)?;
            offset += sample.len();
        }
        self.predict_with(|network, scratch| network.forward_batch_with(samples, scratch))
    }

    /// Runs a full timed evaluation: accuracy (when labels are given),
    /// host per-image core runtime, and per-platform projections.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors and label-count mismatches.
    pub fn evaluate(
        &mut self,
        inputs: &Tensor,
        labels: Option<&[usize]>,
        models: &[RuntimeModel],
        warmup: usize,
        reps: usize,
    ) -> Result<EvaluationReport, DeployError> {
        let preds = self.predict(inputs)?;
        let accuracy = match labels {
            Some(l) => {
                if l.len() != preds.len() {
                    return Err(DeployError::ParamsMismatch(format!(
                        "{} labels for {} predictions",
                        l.len(),
                        preds.len()
                    )));
                }
                let correct = preds.iter().zip(l).filter(|(p, &y)| p.label == y).count();
                Some(correct as f32 / preds.len().max(1) as f32)
            }
            None => None,
        };
        let host_timing = measure_inference_us(&mut self.network, inputs, warmup, reps)?;
        // Op costs reflect the forward pass run just above.
        let projected_us = models
            .iter()
            .map(|m| m.estimate_network_us(&self.network))
            .collect();
        Ok(EvaluationReport {
            samples: preds.len(),
            accuracy,
            host_timing,
            projected_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::parse_architecture;
    use ffdl_platform::{Implementation, PowerState, HONOR_6X, NEXUS_5};

    const ARCH: &str = "\
input 8
circulant_fc 8 block=4
relu
fc 3
softmax
";

    fn engine() -> InferenceEngine {
        InferenceEngine::new(parse_architecture(ARCH, 5).unwrap().network)
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut e = engine();
        let x = Tensor::from_fn(&[4, 8], |i| (i as f32 * 0.3).sin());
        let preds = e.predict(&x).unwrap();
        assert_eq!(preds.len(), 4);
        for p in &preds {
            assert!(p.label < 3);
            let s: f32 = p.probabilities.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert_eq!(
                p.label,
                p.probabilities
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
            );
        }
    }

    #[test]
    fn softmax_applied_when_absent() {
        let arch = "input 8\nfc 3\n";
        let mut e = InferenceEngine::new(parse_architecture(arch, 1).unwrap().network);
        let x = Tensor::from_fn(&[2, 8], |i| i as f32 * 0.1);
        let preds = e.predict(&x).unwrap();
        for p in preds {
            let s: f32 = p.probabilities.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn evaluation_reports_accuracy_and_timings() {
        let mut e = engine();
        let x = Tensor::from_fn(&[6, 8], |i| ((i * 7) % 13) as f32 * 0.2);
        let preds = e.predict(&x).unwrap();
        let labels: Vec<usize> = preds.iter().map(|p| p.label).collect();
        let models = [
            RuntimeModel::new(NEXUS_5, Implementation::Cpp, PowerState::PluggedIn),
            RuntimeModel::new(HONOR_6X, Implementation::Java, PowerState::PluggedIn),
        ];
        let report = e.evaluate(&x, Some(&labels), &models, 1, 3).unwrap();
        assert_eq!(report.samples, 6);
        assert_eq!(report.accuracy, Some(1.0)); // self-consistent labels
        assert!(report.host_timing.mean_us > 0.0);
        assert_eq!(report.projected_us.len(), 2);
        assert!(report.projected_us.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn evaluation_without_labels() {
        let mut e = engine();
        let x = Tensor::zeros(&[2, 8]);
        let report = e.evaluate(&x, None, &[], 0, 1).unwrap();
        assert_eq!(report.accuracy, None);
        assert!(report.projected_us.is_empty());
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let mut e = engine();
        let x = Tensor::zeros(&[2, 8]);
        assert!(e.evaluate(&x, Some(&[0]), &[], 0, 1).is_err());
    }

    #[test]
    fn predict_batch_matches_predict_rows() {
        let mut e = engine();
        let samples: Vec<Tensor> = (0..5)
            .map(|s| Tensor::from_fn(&[8], |i| ((s * 8 + i) as f32 * 0.17).sin()))
            .collect();
        let refs: Vec<&Tensor> = samples.iter().collect();
        let batched = e.predict_batch(&refs).unwrap();
        for (s, expect) in samples.iter().zip(&batched) {
            let single = e.predict(&s.reshape(&[1, 8]).unwrap()).unwrap();
            assert_eq!(&single[0], expect);
        }
    }

    #[test]
    fn empty_batch_is_typed_error() {
        let mut e = engine();
        assert!(matches!(
            e.predict(&Tensor::zeros(&[0, 8])),
            Err(DeployError::Nn(_))
        ));
        assert!(matches!(e.predict_batch(&[]), Err(DeployError::Nn(_))));
    }

    #[test]
    fn predict_emits_telemetry_when_enabled() {
        let mut e = engine();
        let predictions = || {
            ffdl_telemetry::global()
                .snapshot()
                .counter("ffdl.deploy.predictions")
                .unwrap_or(0)
        };
        let spans = || {
            ffdl_telemetry::global()
                .snapshot()
                .histogram("ffdl.deploy.predict_ns")
                .map(|h| h.count())
                .unwrap_or(0)
        };
        let (p0, s0) = (predictions(), spans());
        ffdl_telemetry::set_enabled(true);
        let x = Tensor::from_fn(&[4, 8], |i| (i as f32 * 0.3).sin());
        let _ = e.predict(&x).unwrap();
        ffdl_telemetry::set_enabled(false);
        // Monotone global counters: concurrent tests can only add.
        assert!(predictions() >= p0 + 4);
        assert!(spans() > s0);
    }

    #[test]
    fn non_finite_inputs_rejected_before_forward() {
        let mut e = engine();
        let mut x = Tensor::zeros(&[2, 8]);
        x.as_mut_slice()[11] = f32::NAN;
        match e.predict(&x) {
            Err(DeployError::NonFinite { stage, index }) => {
                assert_eq!(stage, crate::NonFiniteStage::Input);
                assert_eq!(index, 11);
            }
            other => panic!("expected NonFinite input error, got {other:?}"),
        }
        let mut inf = Tensor::zeros(&[1, 8]);
        inf.as_mut_slice()[3] = f32::INFINITY;
        assert!(matches!(
            e.predict(&inf),
            Err(DeployError::NonFinite {
                stage: crate::NonFiniteStage::Input,
                index: 3
            })
        ));
    }

    #[test]
    fn non_finite_batch_sample_reports_flat_index() {
        let mut e = engine();
        let good = Tensor::zeros(&[8]);
        let mut bad = Tensor::zeros(&[8]);
        bad.as_mut_slice()[2] = f32::NAN;
        // Second sample poisoned: flat index is 8 (first sample) + 2.
        match e.predict_batch(&[&good, &bad]) {
            Err(DeployError::NonFinite { stage, index }) => {
                assert_eq!(stage, crate::NonFiniteStage::Input);
                assert_eq!(index, 10);
            }
            other => panic!("expected NonFinite input error, got {other:?}"),
        }
    }

    /// A network whose parameters are all NaN: every forward pass
    /// produces non-finite logits.
    fn unhealthy_engine() -> InferenceEngine {
        let mut net = parse_architecture("input 8\nfc 3\n", 7).unwrap().network;
        for layer in net.layers_mut() {
            let nan_params: Vec<Tensor> = layer
                .param_tensors()
                .iter()
                .map(|t| Tensor::from_fn(t.shape(), |_| f32::NAN))
                .collect();
            layer.load_params(&nan_params).unwrap();
        }
        InferenceEngine::new(net)
    }

    #[test]
    fn logits_check_is_opt_in() {
        let x = Tensor::zeros(&[2, 8]);
        // Off by default: NaN logits flow through (legacy behaviour).
        let mut e = unhealthy_engine();
        assert!(!e.finite_check());
        assert!(e.predict(&x).is_ok());
        // Opted in: typed Logits error.
        e.set_finite_check(true);
        assert!(e.finite_check());
        assert!(matches!(
            e.predict(&x),
            Err(DeployError::NonFinite {
                stage: crate::NonFiniteStage::Logits,
                ..
            })
        ));
        let s = Tensor::zeros(&[8]);
        assert!(matches!(
            e.predict_batch(&[&s]),
            Err(DeployError::NonFinite {
                stage: crate::NonFiniteStage::Logits,
                ..
            })
        ));
        // A healthy model passes the same check.
        let mut healthy = engine();
        healthy.set_finite_check(true);
        assert!(healthy.predict(&x).is_ok());
    }

    #[test]
    fn accessors() {
        let mut e = engine();
        assert_eq!(e.network().len(), 4);
        let _ = e.network_mut();
        let net = e.into_network();
        assert_eq!(net.len(), 4);
    }
}
