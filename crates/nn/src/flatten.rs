//! Flatten layer bridging CONV feature maps and FC layers.

use crate::error::NnError;
use crate::layer::Layer;
use crate::scratch::Scratch;
use ffdl_tensor::Tensor;

/// Reshapes `[batch, d₁, d₂, …]` to `[batch, d₁·d₂·…]`, remembering the
/// original shape for the backward pass.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn type_tag(&self) -> &'static str {
        "flatten"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        if input.ndim() < 2 {
            return Err(NnError::BadInput {
                layer: "flatten".into(),
                message: format!("expected batched input, got shape {:?}", input.shape()),
            });
        }
        let batch = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        // Copy into a scratch buffer instead of the zero-copy reshape:
        // a reshape alias would pin the recycled input buffer (shared
        // Arc) and allocate a fresh shape vector per request.
        let mut out = scratch.take(&[batch, rest]);
        out.as_mut_slice().copy_from_slice(input.as_slice());
        if keep {
            self.cached_shape = Some(input.shape().to_vec());
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self { cached_shape: None }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("flatten".into()))?;
        if grad_output.len() != shape.iter().product::<usize>() {
            return Err(NnError::BadInput {
                layer: "flatten".into(),
                message: format!(
                    "gradient with {} elements cannot reshape to {shape:?}",
                    grad_output.len()
                ),
            });
        }
        Ok(grad_output.reshape(shape)?)
    }
}

/// Reconstructs a [`Flatten`] (it has no config).
///
/// # Errors
///
/// Never fails; the signature matches the layer-registry convention.
pub fn flatten_from_config(_config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    Ok(Box::new(Flatten::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_and_restores() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 60]);
        let g = f.backward(&y).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.as_slice(), x.as_slice());
    }

    #[test]
    fn already_flat_is_identity() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[4, 7], |i| i as f32);
        let y = f.forward(&x).unwrap();
        assert_eq!(y.shape(), &[4, 7]);
    }

    #[test]
    fn rejects_rank1_and_premature_backward() {
        let mut f = Flatten::new();
        assert!(f.forward(&Tensor::zeros(&[4])).is_err());
        assert!(matches!(
            f.backward(&Tensor::zeros(&[4, 1])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn backward_validates_element_count() {
        let mut f = Flatten::new();
        let _ = f.forward(&Tensor::zeros(&[2, 3, 3])).unwrap();
        assert!(f.backward(&Tensor::zeros(&[2, 10])).is_err());
    }

    #[test]
    fn from_config() {
        assert_eq!(flatten_from_config(&[]).unwrap().type_tag(), "flatten");
    }
}
