//! The training loss.

use crate::error::NnError;
use crate::softmax::softmax_rows;
use ffdl_tensor::Tensor;

/// Combined softmax + cross-entropy loss over integer class labels.
///
/// Takes raw logits `[batch, classes]`; returns the mean loss and the
/// gradient with respect to the logits, `(softmax(x) − onehot(y)) / batch`.
/// Fusing the two avoids the ill-conditioned softmax Jacobian.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Computes `(mean loss, dL/dlogits)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `logits` is not
    /// `[batch, classes]`, the label count differs from the batch size, or
    /// a label is out of range.
    pub fn compute(&self, logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor), NnError> {
        if logits.ndim() != 2 {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".into(),
                message: format!("expected [batch, classes], got {:?}", logits.shape()),
            });
        }
        let (batch, classes) = (logits.rows(), logits.cols());
        if labels.len() != batch {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".into(),
                message: format!("{} labels for batch of {batch}", labels.len()),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".into(),
                message: format!("label {bad} out of range for {classes} classes"),
            });
        }
        if batch == 0 {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".into(),
                message: "empty batch".into(),
            });
        }

        let probs = softmax_rows(logits)?;
        let mut loss = 0.0f32;
        let mut grad = probs.clone();
        let inv_batch = 1.0 / batch as f32;
        for (r, &label) in labels.iter().enumerate() {
            let p = probs.at(&[r, label]).max(1e-12);
            loss -= p.ln();
            let row = grad.row_mut(r);
            row[label] -= 1.0;
            for v in row.iter_mut() {
                *v *= inv_batch;
            }
        }
        Ok((loss * inv_batch, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]).unwrap();
        let (loss, _) = SoftmaxCrossEntropy::new().compute(&logits, &[0]).unwrap();
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn uniform_prediction_loss_is_ln_classes() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = SoftmaxCrossEntropy::new()
            .compute(&logits, &[0, 3, 5, 9])
            .unwrap();
        assert!((loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_is_probs_minus_onehot() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5], &[1, 3]).unwrap();
        let (_, grad) = SoftmaxCrossEntropy::new().compute(&logits, &[1]).unwrap();
        let probs = softmax_rows(&logits).unwrap();
        assert!((grad.as_slice()[0] - probs.as_slice()[0]).abs() < 1e-6);
        assert!((grad.as_slice()[1] - (probs.as_slice()[1] - 1.0)).abs() < 1e-6);
        // Gradient rows sum to ~0.
        let s: f32 = grad.as_slice().iter().sum();
        assert!(s.abs() < 1e-6);
    }

    #[test]
    fn gradient_check_cross_entropy() {
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.0, 0.5, -0.1], &[2, 3]).unwrap();
        let labels = [2usize, 0];
        let loss_fn = SoftmaxCrossEntropy::new();
        let (_, grad) = loss_fn.compute(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let num = (loss_fn.compute(&lp, &labels).unwrap().0
                - loss_fn.compute(&lm, &labels).unwrap().0)
                / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[i]).abs() < 1e-3,
                "d[{i}]: {num} vs {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn validates_labels_and_shapes() {
        let ce = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[2, 3]);
        assert!(ce.compute(&logits, &[0]).is_err()); // wrong count
        assert!(ce.compute(&logits, &[0, 3]).is_err()); // out of range
        assert!(ce.compute(&Tensor::zeros(&[3]), &[0]).is_err()); // rank
        assert!(ce.compute(&Tensor::zeros(&[0, 3]), &[]).is_err()); // empty
    }
}
