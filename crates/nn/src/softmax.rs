//! Softmax output layer (the paper's classification head) and the
//! combined softmax + cross-entropy loss used for training.

use crate::error::NnError;
use crate::layer::{Layer, OpCost};
use crate::scratch::Scratch;
use ffdl_tensor::Tensor;

/// Numerically-stable row-wise softmax of a `[batch, classes]` tensor
/// (the [`Softmax`] layer's pass, keeping nothing).
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor, NnError> {
    Softmax::new().forward_with(logits, &mut Scratch::new(), false)
}

/// Index of the largest value of one output row — the workspace's one
/// prediction rule, shared by [`Network::predict`](crate::Network::predict),
/// the deploy and stream engines and the quantizer's agreement figure.
/// Ties resolve to the **last** maximum; an empty row yields 0.
pub fn argmax_row(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

/// Softmax as a network layer — used at inference time so the deployment
/// engine emits probabilities, matching the paper's "softmax layer ... of
/// 10 neurons representing the ten possible predictions".
///
/// During training, prefer feeding raw logits to
/// [`SoftmaxCrossEntropy`](crate::SoftmaxCrossEntropy), whose combined
/// gradient is simpler and better conditioned.
#[derive(Debug, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
    last_classes: usize,
}

impl Softmax {
    /// Creates a softmax layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Softmax {
    fn type_tag(&self) -> &'static str {
        "softmax"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        if input.ndim() != 2 {
            return Err(NnError::BadInput {
                layer: "softmax".into(),
                message: format!("expected [batch, classes], got {:?}", input.shape()),
            });
        }
        let mut out = scratch.take(input.shape());
        out.as_mut_slice().copy_from_slice(input.as_slice());
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        self.last_classes = out.cols();
        if keep {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            cached_output: None,
            last_classes: self.last_classes,
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("softmax".into()))?;
        if grad_output.shape() != y.shape() {
            return Err(NnError::BadInput {
                layer: "softmax".into(),
                message: format!(
                    "gradient shape {:?} does not match output {:?}",
                    grad_output.shape(),
                    y.shape()
                ),
            });
        }
        // dL/dx_i = y_i · (g_i − Σ_j g_j y_j) per row (softmax Jacobian).
        let mut grad_in = Tensor::zeros(y.shape());
        for r in 0..y.rows() {
            let yr = y.row(r);
            let gr = grad_output.row(r);
            let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
            for (o, (&yi, &gi)) in grad_in.row_mut(r).iter_mut().zip(yr.iter().zip(gr)) {
                *o = yi * (gi - dot);
            }
        }
        Ok(grad_in)
    }

    fn op_cost(&self) -> OpCost {
        let n = self.last_classes as u64;
        OpCost {
            nonlin: 2 * n, // exp + normalize
            adds: n,
            act_traffic: 2 * n,
            ..OpCost::default()
        }
    }
}

/// Reconstructs a [`Softmax`] (it has no config).
///
/// # Errors
///
/// Never fails; the signature matches the layer-registry convention.
pub fn softmax_from_config(_config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    Ok(Box::new(Softmax::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn is_shift_invariant_and_stable() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = Tensor::from_vec(vec![1001.0, 1002.0, 1003.0], &[1, 3]).unwrap();
        let pa = softmax_rows(&a).unwrap();
        let pb = softmax_rows(&b).unwrap();
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn monotone_in_logits() {
        let logits = Tensor::from_vec(vec![0.0, 1.0, -2.0], &[1, 3]).unwrap();
        let p = softmax_rows(&logits).unwrap();
        assert!(p.as_slice()[1] > p.as_slice()[0]);
        assert!(p.as_slice()[0] > p.as_slice()[2]);
    }

    #[test]
    fn layer_backward_jacobian_check() {
        let mut layer = Softmax::new();
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.9, 0.1], &[1, 4]).unwrap();
        let _y = layer.forward(&x).unwrap();
        // Loss = Σ c_i y_i with arbitrary coefficients.
        let coeff = Tensor::from_vec(vec![0.3, -1.0, 2.0, 0.5], &[1, 4]).unwrap();
        let gi = layer.backward(&coeff).unwrap();
        let eps = 1e-3f32;
        let loss = |layer: &mut Softmax, x: &Tensor| {
            let y = layer.forward(x).unwrap();
            y.as_slice()
                .iter()
                .zip(coeff.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            assert!(
                (num - gi.as_slice()[i]).abs() < 1e-3,
                "d[{i}]: {num} vs {}",
                gi.as_slice()[i]
            );
        }
    }

    #[test]
    fn validates_inputs() {
        assert!(softmax_rows(&Tensor::zeros(&[3])).is_err());
        let mut layer = Softmax::new();
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::NoForwardCache(_))
        ));
        let _ = layer.forward(&Tensor::zeros(&[1, 3])).unwrap();
        assert!(layer.backward(&Tensor::zeros(&[1, 4])).is_err());
    }

    #[test]
    fn from_config_and_cost() {
        let l = softmax_from_config(&[]).unwrap();
        assert_eq!(l.type_tag(), "softmax");
        let mut layer = Softmax::new();
        let _ = layer.forward(&Tensor::zeros(&[2, 10])).unwrap();
        assert_eq!(layer.op_cost().nonlin, 20);
    }
}
