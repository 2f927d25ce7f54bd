//! The per-worker session stepper.
//!
//! A [`StreamEngine`] owns one clone of the network plus all the scratch
//! a step needs; the **hidden state lives outside the engine**, in a
//! [`SessionHidden`] owned by the caller, so one engine serves every
//! session stuck to its worker. This is the streaming determinism
//! contract in one place: the worker hot path and the test-side replay
//! both go through [`StreamEngine::step`], so a session stepped
//! one-token-at-a-time across many requests is **bit-identical** to
//! replaying the same tokens single-threaded.

use ffdl_core::{CirculantGru, GruScratch};
use ffdl_deploy::{check_finite, predictions_from_output, DeployError, NonFiniteStage, Prediction};
use ffdl_nn::{Network, Scratch};
use ffdl_tensor::Tensor;

/// The recurrent state of one session: one hidden vector per
/// `circulant_gru` layer, in network order. Opaque on purpose — only
/// [`StreamEngine::step`] reads or writes it, which is what keeps the
/// stepped and replayed paths identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionHidden {
    states: Vec<Vec<f32>>,
}

impl SessionHidden {
    /// Total hidden elements (over all recurrent layers).
    pub fn len(&self) -> usize {
        self.states.iter().map(Vec::len).sum()
    }

    /// `true` when the network has no recurrent layers at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A single-threaded stepper over one network clone.
///
/// `check_finite` mirrors [`ffdl_serve::HealthConfig`]: with it on,
/// every step scans its input and its logits, and a NaN/Inf turns into
/// a typed [`DeployError::NonFinite`] instead of a garbage prediction
/// (or worse, a silently-corrupted hidden state carried into every
/// later step of the session).
pub struct StreamEngine {
    net: Network,
    /// Hidden width of each `circulant_gru` layer, in network order.
    gru_dims: Vec<usize>,
    scratch: Scratch,
    gru_scratch: GruScratch,
    check_finite: bool,
}

/// `layer.as_any()` downcast to the recurrent cell, when this layer is
/// one.
fn as_gru(layer: &dyn ffdl_nn::Layer) -> Option<&CirculantGru> {
    layer.as_any().and_then(|a| a.downcast_ref::<CirculantGru>())
}

impl StreamEngine {
    /// Wraps a network clone. The engine takes ownership: workers build
    /// theirs from [`ffdl_nn::clone_network`] of the shared model slot.
    pub fn new(net: Network, check_finite: bool) -> Self {
        let gru_dims = net
            .layers()
            .iter()
            .filter_map(|l| as_gru(l.as_ref()).map(CirculantGru::hidden))
            .collect();
        Self {
            net,
            gru_dims,
            scratch: Scratch::new(),
            gru_scratch: GruScratch::new(),
            check_finite,
        }
    }

    /// Number of recurrent layers in the wrapped network.
    pub fn recurrent_layers(&self) -> usize {
        self.gru_dims.len()
    }

    /// A zeroed hidden state for a new session on this network — also
    /// the state a session deterministically resets to when a hot-swap
    /// replaces the model under it (the reset-on-swap policy).
    pub fn fresh_state(&self) -> SessionHidden {
        SessionHidden {
            states: self.gru_dims.iter().map(|&d| vec![0.0f32; d]).collect(),
        }
    }

    /// Advances one session by one token: runs `features` (shape `[d]`
    /// or `[1, d]`) through the network, carrying `hidden` through every
    /// recurrent layer in place, and returns the prediction for this
    /// step.
    ///
    /// # Errors
    ///
    /// [`DeployError::NonFinite`] when `check_finite` is on and the
    /// input or the logits contain NaN/Inf (the armed `ffdl-fault`
    /// injector can poison the logits here, exactly like the batch
    /// engine); [`DeployError::Nn`] when a shape does not fit the
    /// network or `hidden` came from a different architecture.
    pub fn step(
        &mut self,
        hidden: &mut SessionHidden,
        features: &Tensor,
    ) -> Result<Prediction, DeployError> {
        if hidden.states.len() != self.gru_dims.len() {
            return Err(DeployError::Nn(ffdl_nn::NnError::BadInput {
                layer: "stream".into(),
                message: format!(
                    "session state has {} recurrent layers, network has {}",
                    hidden.states.len(),
                    self.gru_dims.len()
                ),
            }));
        }
        if self.check_finite {
            check_finite(features.as_slice(), NonFiniteStage::Input, 0)?;
        }
        let mut cur = self.scratch.take(&[1, features.as_slice().len()]);
        cur.as_mut_slice().copy_from_slice(features.as_slice());
        let mut gru_idx = 0usize;
        for layer in self.net.layers_mut() {
            let next = if let Some(gru) = as_gru(layer.as_ref()) {
                let h = &mut hidden.states[gru_idx];
                gru_idx += 1;
                gru.step(cur.row(0), h, &mut self.gru_scratch).map(|()| {
                    let mut out = self.scratch.take(&[1, h.len()]);
                    out.as_mut_slice().copy_from_slice(h);
                    out
                })
            } else {
                layer.forward_infer(&cur, &mut self.scratch)
            };
            self.scratch.recycle(cur);
            cur = next?;
        }
        // The batch engine's tail. Its fault-injection point corrupts the
        // step's output *after* the hidden state advanced — which is
        // exactly why a faulted session must be quarantined, not retried.
        let prediction = predictions_from_output(&self.net, &mut cur, self.check_finite);
        self.scratch.recycle(cur);
        Ok(prediction?.pop().expect("one row in, one prediction out"))
    }

    /// Replays a whole session single-threaded from a fresh zero state —
    /// the reference the serving path is judged against. Same code path
    /// as the worker hot loop ([`Self::step`] per token), so the outputs
    /// are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// The first [`Self::step`] failure, verbatim.
    pub fn replay(&mut self, tokens: &[Tensor]) -> Result<Vec<Prediction>, DeployError> {
        let mut hidden = self.fresh_state();
        tokens
            .iter()
            .map(|t| self.step(&mut hidden, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_deploy::parse_architecture;

    const ARCH: &str = "input 8\ncirculant_gru 16 block=4\nfc 4\nsoftmax\n";

    fn token(step: usize) -> Tensor {
        Tensor::from_fn(&[8], |i| ((step * 8 + i) as f32 * 0.13).sin())
    }

    fn engine() -> StreamEngine {
        let net = parse_architecture(ARCH, 11).expect("arch").network;
        StreamEngine::new(net, false)
    }

    #[test]
    fn stepping_equals_replay_bitwise() {
        let tokens: Vec<Tensor> = (0..12).map(token).collect();
        let mut a = engine();
        let mut hidden = a.fresh_state();
        let stepped: Vec<Prediction> = tokens
            .iter()
            .map(|t| a.step(&mut hidden, t).expect("step"))
            .collect();
        let replayed = engine().replay(&tokens).expect("replay");
        for (s, r) in stepped.iter().zip(&replayed) {
            assert_eq!(s.label, r.label);
            assert_eq!(s.probabilities, r.probabilities);
        }
    }

    #[test]
    fn state_carries_across_steps() {
        let mut e = engine();
        let mut hidden = e.fresh_state();
        assert_eq!(e.recurrent_layers(), 1);
        assert_eq!(hidden.len(), 16);
        assert!(!hidden.is_empty());
        let first = e.step(&mut hidden, &token(0)).expect("step");
        let second = e.step(&mut hidden, &token(0)).expect("step");
        // Same token, advanced state: the distribution must move.
        assert_ne!(first.probabilities, second.probabilities);
        // Fresh state reproduces the first step exactly.
        let mut h2 = e.fresh_state();
        let again = e.step(&mut h2, &token(0)).expect("step");
        assert_eq!(first.probabilities, again.probabilities);
    }

    #[test]
    fn finite_check_rejects_bad_input_and_state_mismatch() {
        let net = parse_architecture(ARCH, 11).expect("arch").network;
        let mut e = StreamEngine::new(net, true);
        let mut hidden = e.fresh_state();
        let bad = Tensor::from_fn(&[8], |i| if i == 3 { f32::NAN } else { 0.0 });
        assert!(matches!(
            e.step(&mut hidden, &bad),
            Err(DeployError::NonFinite {
                stage: NonFiniteStage::Input,
                index: 3
            })
        ));
        // A state built for a different architecture is a typed error.
        let mut foreign = SessionHidden { states: vec![] };
        assert!(e.step(&mut foreign, &token(0)).is_err());
    }

    #[test]
    fn non_softmax_tail_is_normalized() {
        let net = parse_architecture("input 8\ncirculant_gru 8 block=4\nfc 3\n", 5)
            .expect("arch")
            .network;
        let mut e = StreamEngine::new(net, false);
        let mut hidden = e.fresh_state();
        let p = e.step(&mut hidden, &token(1)).expect("step");
        let sum: f32 = p.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "softmax applied: {sum}");
        assert!(p.label < 3);
    }
}
