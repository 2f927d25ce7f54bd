//! The [`Layer`] abstraction shared by the dense baselines of this crate
//! and the block-circulant FFT layers of `ffdl-core`.

use crate::error::NnError;
use crate::scratch::Scratch;
use ffdl_tensor::Tensor;

/// A mutable view of one trainable parameter and its gradient.
///
/// Returned by [`Layer::parameters`]; the optimizer walks these pairs in a
/// stable order, so per-parameter state (momentum velocity) can be indexed
/// positionally.
pub struct ParamRef<'a> {
    /// Human-readable parameter name (diagnostics).
    pub name: &'static str,
    /// The parameter tensor.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the most recent backward pass.
    pub grad: &'a mut Tensor,
}

/// Arithmetic/memory cost of one *single-sample* forward pass through a
/// layer — the quantity the embedded platform model (Table I–III) converts
/// into µs/image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCost {
    /// Real multiplications.
    pub mults: u64,
    /// Real additions/subtractions.
    pub adds: u64,
    /// Nonlinearity evaluations (ReLU/softmax terms).
    pub nonlin: u64,
    /// Parameter values streamed from memory (model storage traffic).
    pub param_reads: u64,
    /// Activation values read + written.
    pub act_traffic: u64,
}

impl OpCost {
    /// Component-wise sum of two costs.
    pub fn combine(self, other: OpCost) -> OpCost {
        OpCost {
            mults: self.mults + other.mults,
            adds: self.adds + other.adds,
            nonlin: self.nonlin + other.nonlin,
            param_reads: self.param_reads + other.param_reads,
            act_traffic: self.act_traffic + other.act_traffic,
        }
    }

    /// Total floating-point operations (mults + adds + nonlinearities).
    pub fn flops(self) -> u64 {
        self.mults + self.adds + self.nonlin
    }
}

/// A differentiable network layer.
///
/// Layers own their parameters and write their forward arithmetic
/// **once**, in [`forward_with`](Layer::forward_with): the training and
/// inference passes are that one body with `keep` on and off. Inputs
/// and outputs are batched: the first dimension is the batch size.
///
/// The `Send + Sync` bound exists so a frozen network can be shared
/// across serving threads behind an `Arc` — all mutation goes through
/// `&mut self`, so `Sync` asks only that layers avoid un-synchronized
/// interior mutability.
pub trait Layer: Send + Sync {
    /// Stable identifier used by the model format and architecture parser
    /// (e.g. `"dense"`, `"relu"`, `"circulant_dense"`).
    fn type_tag(&self) -> &'static str;

    /// The forward pass: the layer output for a batch, with the output
    /// and every intermediate buffer drawn from `scratch`. `keep` says a
    /// backward pass follows (Algorithm 2 is Algorithm 1 plus "keep
    /// `FFT(x)`"): with it the layer records what `backward` needs;
    /// without it nothing is recorded and a warm `scratch` makes the
    /// call allocation-free. It must not change any output value.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input shape is incompatible.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError>;

    /// Training pass: [`forward_with`](Layer::forward_with), keeping, on
    /// a throw-away buffer pool (same errors).
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.forward_with(input, &mut Scratch::new(), true)
    }

    /// Propagates the loss gradient, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when no forward pass has kept
    /// its record, or [`NnError::BadInput`] on a gradient of the wrong
    /// shape.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// Inference pass: [`forward_with`](Layer::forward_with), keeping
    /// nothing, on the caller's buffer pool (same errors).
    fn forward_infer(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, NnError> {
        self.forward_with(input, scratch, false)
    }

    /// Structural clone that **shares** frozen parameter buffers with
    /// `self` (copy-on-write tensors make the shared state safe: any
    /// later write detaches a private copy) and starts with empty
    /// forward caches, so the clone can serve on another thread.
    ///
    /// Returns `None` when the layer does not support structural
    /// cloning; [`clone_network`](crate::clone_network) then falls back
    /// to a wire-format round trip through the layer registry. Built-in
    /// layers all return `Some`, which is what makes whole-network
    /// clones for serving O(layers) pointer bumps.
    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        None
    }

    /// Trainable parameters with their gradients, in a stable order.
    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }

    /// Number of *stored* parameter values.
    fn param_count(&self) -> usize {
        0
    }

    /// Number of parameters an uncompressed (dense) layer of the same
    /// logical shape would store. For dense layers this equals
    /// [`Layer::param_count`]; block-circulant layers report the full
    /// `m·n` so compression ratios can be derived.
    fn logical_param_count(&self) -> usize {
        self.param_count()
    }

    /// Single-sample forward cost for the platform model.
    fn op_cost(&self) -> OpCost {
        OpCost::default()
    }

    /// Layer-specific configuration blob for the model format.
    fn config_bytes(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Read-only parameter tensors, in the same order as
    /// [`Layer::parameters`] (used by the model writer).
    fn param_tensors(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Replaces the layer's parameters (used by the model loader).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ModelFormat`] when the count or shapes do not
    /// match this layer's parameters.
    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if !params.is_empty() {
            return Err(NnError::ModelFormat(format!(
                "layer {} takes no parameters, got {}",
                self.type_tag(),
                params.len()
            )));
        }
        Ok(())
    }

    /// The layer's fixed-point quantization sidecar, if it has one.
    ///
    /// Returning `Some` opts the layer into the version-3 model format:
    /// the writer emits the payload in the v3 quantization header
    /// (narrow integer levels + `f32` block scales) instead of forcing
    /// it through 4-byte `f32` tensors. `f32` layers keep the default
    /// `None` and their models stay version 2, byte-identical to before.
    fn quant_payload(&self) -> Option<crate::wire::QuantPayload> {
        None
    }

    /// Installs a quantization sidecar read from a v3 model file
    /// (inverse of [`Layer::quant_payload`], called after
    /// [`Layer::load_params`]).
    ///
    /// # Errors
    ///
    /// The default returns [`NnError::ModelFormat`]: a quantization
    /// entry targeting a layer that never emits one means the file and
    /// the registry disagree about the layer type.
    fn load_quant_payload(&mut self, payload: &crate::wire::QuantPayload) -> Result<(), NnError> {
        let _ = payload;
        Err(NnError::ModelFormat(format!(
            "layer {} does not accept a quantization payload",
            self.type_tag()
        )))
    }

    /// Concrete-type escape hatch: layers that want downstream crates to
    /// reach their full API (e.g. the quantizer pulling a circulant
    /// layer's weight matrix) return `Some(self)`; the default `None`
    /// keeps trait objects opaque.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Validates that an incoming batch tensor has the expected trailing
/// feature dimensions, producing a consistent error message.
pub(crate) fn check_features(
    layer: &str,
    input: &Tensor,
    expected_rank: usize,
    expected_tail: &[usize],
) -> Result<(), NnError> {
    if input.ndim() != expected_rank {
        return Err(NnError::BadInput {
            layer: layer.to_string(),
            message: format!(
                "expected rank-{expected_rank} batch input, got shape {:?}",
                input.shape()
            ),
        });
    }
    let tail = &input.shape()[1..];
    if tail != expected_tail {
        return Err(NnError::BadInput {
            layer: layer.to_string(),
            message: format!(
                "expected per-sample shape {expected_tail:?}, got {:?}",
                tail
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cost_combines_and_sums() {
        let a = OpCost {
            mults: 1,
            adds: 2,
            nonlin: 3,
            param_reads: 4,
            act_traffic: 5,
        };
        let b = OpCost {
            mults: 10,
            adds: 20,
            nonlin: 30,
            param_reads: 40,
            act_traffic: 50,
        };
        let c = a.combine(b);
        assert_eq!(c.mults, 11);
        assert_eq!(c.act_traffic, 55);
        assert_eq!(c.flops(), 11 + 22 + 33);
        assert_eq!(OpCost::default().flops(), 0);
    }

    #[test]
    fn check_features_messages() {
        let t = Tensor::zeros(&[4, 3]);
        assert!(check_features("dense", &t, 2, &[3]).is_ok());
        let err = check_features("dense", &t, 3, &[3, 1]).unwrap_err();
        assert!(err.to_string().contains("rank-3"));
        let err = check_features("dense", &t, 2, &[5]).unwrap_err();
        assert!(err.to_string().contains("[5]"));
    }
}
