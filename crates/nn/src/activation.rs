//! Elementwise activation layers: ReLU (the paper's stated choice),
//! plus sigmoid and tanh for completeness.

use crate::error::NnError;
use crate::layer::{Layer, OpCost};
use crate::scratch::Scratch;
use ffdl_tensor::Tensor;

macro_rules! activation_layer {
    (
        $(#[$meta:meta])*
        $name:ident, $tag:literal, $fwd:expr, $grad_from_in_out:expr
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            cached: Option<(Tensor, Tensor)>, // (input, output)
            last_size: usize,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self::default()
            }
        }

        impl Layer for $name {
            fn type_tag(&self) -> &'static str {
                $tag
            }

            fn forward_with(
                &mut self,
                input: &Tensor,
                scratch: &mut Scratch,
                keep: bool,
            ) -> Result<Tensor, NnError> {
                let fwd: fn(f32) -> f32 = $fwd;
                let mut out = scratch.take(input.shape());
                for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
                    *o = fwd(v);
                }
                self.last_size = if input.ndim() > 0 {
                    input.len() / input.shape()[0].max(1)
                } else {
                    0
                };
                if keep {
                    self.cached = Some((input.clone(), out.clone()));
                }
                Ok(out)
            }

            fn clone_layer(&self) -> Option<Box<dyn Layer>> {
                Some(Box::new(Self {
                    cached: None,
                    last_size: self.last_size,
                }))
            }

            fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
                let (input, output) = self
                    .cached
                    .as_ref()
                    .ok_or_else(|| NnError::NoForwardCache($tag.into()))?;
                if grad_output.shape() != input.shape() {
                    return Err(NnError::BadInput {
                        layer: $tag.into(),
                        message: format!(
                            "gradient shape {:?} does not match activation shape {:?}",
                            grad_output.shape(),
                            input.shape()
                        ),
                    });
                }
                let local: fn(f32, f32) -> f32 = $grad_from_in_out;
                let grad_local = input.zip_map(output, local)?;
                Ok(grad_output.mul(&grad_local)?)
            }

            fn op_cost(&self) -> OpCost {
                OpCost {
                    nonlin: self.last_size as u64,
                    act_traffic: 2 * self.last_size as u64,
                    ..OpCost::default()
                }
            }
        }
    };
}

activation_layer!(
    /// Rectified Linear Unit: `ψ(x) = max(0, x)` — "the most widely
    /// utilized activation function in DNNs" (§III-A).
    Relu,
    "relu",
    |x| x.max(0.0),
    |x, _y| if x > 0.0 { 1.0 } else { 0.0 }
);

activation_layer!(
    /// Logistic sigmoid `ψ(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    "sigmoid",
    |x| 1.0 / (1.0 + (-x).exp()),
    |_x, y| y * (1.0 - y)
);

activation_layer!(
    /// Hyperbolic tangent.
    Tanh,
    "tanh",
    |x| x.tanh(),
    |_x, y| 1.0 - y * y
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[2, 2]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[1, 2]).unwrap();
        let _ = l.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![5.0, 7.0], &[1, 2]).unwrap();
        let gi = l.backward(&g).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn sigmoid_midpoint_and_gradient() {
        let mut l = Sigmoid::new();
        let x = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        let y = l.forward(&x).unwrap();
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        let g = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        let gi = l.backward(&g).unwrap();
        assert!((gi.as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_check() {
        let mut l = Tanh::new();
        let x = Tensor::from_vec(vec![0.3, -0.8, 1.2], &[1, 3]).unwrap();
        let y = l.forward(&x).unwrap();
        // loss = sum(y), dL/dy = 1 → gi = 1 - tanh².
        let ones = Tensor::ones(&[1, 3]);
        let gi = l.backward(&ones).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num =
                (l.forward(&xp).unwrap().sum() - l.forward(&xm).unwrap().sum()) / (2.0 * eps);
            assert!((num - gi.as_slice()[i]).abs() < 1e-2);
        }
        let _ = y;
    }

    #[test]
    fn backward_requires_forward() {
        let mut l = Relu::new();
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 1])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn backward_shape_checked() {
        let mut l = Relu::new();
        let _ = l.forward(&Tensor::zeros(&[2, 3])).unwrap();
        assert!(l.backward(&Tensor::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn op_cost_after_forward() {
        let mut l = Relu::new();
        let _ = l.forward(&Tensor::zeros(&[4, 10])).unwrap();
        assert_eq!(l.op_cost().nonlin, 10);
    }

    #[test]
    fn tags_are_stable() {
        assert_eq!(Relu::new().type_tag(), "relu");
        assert_eq!(Sigmoid::new().type_tag(), "sigmoid");
        assert_eq!(Tanh::new().type_tag(), "tanh");
    }

    #[test]
    fn activations_have_no_parameters() {
        let mut l = Relu::new();
        assert!(l.parameters().is_empty());
        assert_eq!(l.param_count(), 0);
        assert!(l.load_params(&[]).is_ok());
        assert!(l.load_params(&[Tensor::zeros(&[1])]).is_err());
    }

    #[test]
    fn works_on_rank4_batches() {
        let mut l = Relu::new();
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32 - 40.0);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), x.shape());
        assert!(y.as_slice().iter().all(|&v| v >= 0.0));
    }
}
