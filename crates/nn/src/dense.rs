//! The dense (uncompressed) fully-connected layer — the `O(n²)` baseline
//! of §III-A: `y = ψ(Wᵀx + θ)` with an explicit `m×n` weight matrix.
//! (Activations are separate layers; this computes the affine part.)

use crate::error::NnError;
use crate::layer::{check_features, Layer, OpCost, ParamRef};
use crate::scratch::Scratch;
use crate::wire;
use ffdl_tensor::{Init, Tensor};
use ffdl_rng::Rng;

/// A fully-connected affine layer: input `[batch, in_dim]` →
/// output `[batch, out_dim]`, computing `y = x·W + b` with
/// `W ∈ ℝ^{in×out}`.
///
/// # Examples
///
/// ```
/// use ffdl_nn::{Dense, Layer};
/// use ffdl_tensor::Tensor;
/// use ffdl_rng::SeedableRng;
///
/// let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(1);
/// let mut layer = Dense::new(4, 2, &mut rng);
/// let x = Tensor::zeros(&[3, 4]);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), &[3, 2]);
/// # Ok::<(), ffdl_nn::NnError>(())
/// ```
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Tensor,      // [in, out]
    bias: Tensor,        // [out]
    weight_grad: Tensor, // [in, out]
    bias_grad: Tensor,   // [out]
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero biases.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let weight = Init::XavierUniform.sample(&[in_dim, out_dim], in_dim, out_dim, rng);
        Self::with_params(weight, Tensor::zeros(&[out_dim]))
            .expect("shapes are consistent by construction")
    }

    /// Creates a dense layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `weight` is not rank 2 or `bias`
    /// does not match the output dimension.
    pub fn with_params(weight: Tensor, bias: Tensor) -> Result<Self, NnError> {
        if weight.ndim() != 2 {
            return Err(NnError::BadInput {
                layer: "dense".into(),
                message: format!("weight must be rank 2, got {:?}", weight.shape()),
            });
        }
        let (in_dim, out_dim) = (weight.rows(), weight.cols());
        if bias.shape() != [out_dim] {
            return Err(NnError::BadInput {
                layer: "dense".into(),
                message: format!(
                    "bias shape {:?} does not match output dim {out_dim}",
                    bias.shape()
                ),
            });
        }
        Ok(Self {
            in_dim,
            out_dim,
            weight_grad: Tensor::zeros(&[in_dim, out_dim]),
            bias_grad: Tensor::zeros(&[out_dim]),
            weight,
            bias,
            cached_input: None,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight matrix (`[in, out]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector (`[out]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Dense {
    fn type_tag(&self) -> &'static str {
        "dense"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        check_features("dense", input, 2, &[self.in_dim])?;
        let mut out = scratch.take(&[input.rows(), self.out_dim]);
        input.matmul_into(&self.weight, &mut out)?;
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(self.bias.as_slice()) {
                *o += b;
            }
        }
        if keep {
            self.cached_input = Some(input.clone());
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            weight_grad: self.weight_grad.clone(),
            bias_grad: self.bias_grad.clone(),
            cached_input: None,
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("dense".into()))?;
        check_features("dense", grad_output, 2, &[self.out_dim])?;
        if grad_output.rows() != input.rows() {
            return Err(NnError::BadInput {
                layer: "dense".into(),
                message: format!(
                    "gradient batch {} does not match cached input batch {}",
                    grad_output.rows(),
                    input.rows()
                ),
            });
        }
        // dW = xᵀ·g, db = Σ_batch g, dx = g·Wᵀ.
        self.weight_grad = input.transpose()?.matmul(grad_output)?;
        self.bias_grad = grad_output.sum_rows()?;
        let grad_input = grad_output.matmul(&self.weight.transpose()?)?;
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "weight",
                value: &mut self.weight,
                grad: &mut self.weight_grad,
            },
            ParamRef {
                name: "bias",
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn op_cost(&self) -> OpCost {
        let mn = (self.in_dim * self.out_dim) as u64;
        OpCost {
            mults: mn,
            adds: mn, // MAC accumulate + bias
            nonlin: 0,
            param_reads: mn + self.out_dim as u64,
            act_traffic: (self.in_dim + self.out_dim) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::write_u32(&mut buf, self.in_dim as u32).expect("vec write is infallible");
        wire::write_u32(&mut buf, self.out_dim as u32).expect("vec write is infallible");
        buf
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2
            || params[0].shape() != [self.in_dim, self.out_dim]
            || params[1].shape() != [self.out_dim]
        {
            return Err(NnError::ModelFormat(format!(
                "dense({}, {}) cannot load parameters with shapes {:?}",
                self.in_dim,
                self.out_dim,
                params.iter().map(|t| t.shape().to_vec()).collect::<Vec<_>>()
            )));
        }
        self.weight = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }
}

/// Reconstructs a [`Dense`] from its config blob (model-format loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let in_dim = wire::read_u32(&mut config)? as usize;
    let out_dim = wire::read_u32(&mut config)? as usize;
    let layer = Dense::with_params(Tensor::zeros(&[in_dim, out_dim]), Tensor::zeros(&[out_dim]))?;
    Ok(Box::new(layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn forward_known_values() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        let b = Tensor::from_slice(&[0.5, -0.5]);
        let mut layer = Dense::with_params(w, b).unwrap();
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]).unwrap();
        let y = layer.forward(&x).unwrap();
        // y = [1·1 + 0·3 + (−1)·5 + 0.5, 1·2 + 0·4 + (−1)·6 − 0.5]
        assert_eq!(y.as_slice(), &[-3.5, -4.5]);
    }

    #[test]
    fn forward_batched() {
        let mut layer = Dense::new(4, 3, &mut rng());
        let x = Tensor::from_fn(&[5, 4], |i| i as f32 * 0.1);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        // Row independence: forwarding a single row gives the same result.
        let row0 = Tensor::from_vec(x.row(0).to_vec(), &[1, 4]).unwrap();
        let y0 = layer.forward(&row0).unwrap();
        for (a, b) in y0.as_slice().iter().zip(y.row(0)) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut layer = Dense::new(4, 3, &mut rng());
        assert!(layer.forward(&Tensor::zeros(&[2, 5])).is_err());
        assert!(layer.forward(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut layer = Dense::new(2, 2, &mut rng());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Finite-difference check of dW, db, dx on a small layer.
        let mut layer = Dense::new(3, 2, &mut rng());
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2, 0.5, -0.4], &[2, 3]).unwrap();
        // Loss = sum(y²)/2 → dL/dy = y.
        let y = layer.forward(&x).unwrap();
        let grad_in = layer.backward(&y).unwrap();

        let eps = 1e-3f32;
        let loss = |layer: &mut Dense, x: &Tensor| -> f32 {
            let y = layer.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        // dL/dx numeric:
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = grad_in.as_slice()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "dx[{i}]: {num} vs {ana}");
        }

        // Restore cache for parameter grads, then perturb weights.
        let y = layer.forward(&x).unwrap();
        let _ = layer.backward(&y).unwrap();
        let analytic_wg = layer.weight_grad.clone();
        let analytic_bg = layer.bias_grad.clone();
        for i in 0..analytic_wg.len() {
            let orig = layer.weight.as_slice()[i];
            layer.weight.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.weight.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.weight.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = analytic_wg.as_slice()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "dW[{i}]: {num} vs {ana}");
        }
        for i in 0..analytic_bg.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = analytic_bg.as_slice()[i];
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "db[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn parameters_and_counts() {
        let mut layer = Dense::new(10, 4, &mut rng());
        assert_eq!(layer.param_count(), 44);
        assert_eq!(layer.logical_param_count(), 44);
        let params = layer.parameters();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, "weight");
        assert_eq!(params[0].value.shape(), &[10, 4]);
    }

    #[test]
    fn op_cost_scales_with_size() {
        let layer = Dense::new(100, 50, &mut rng());
        let c = layer.op_cost();
        assert_eq!(c.mults, 5000);
        assert!(c.param_reads >= 5000);
    }

    #[test]
    fn config_roundtrip() {
        let layer = Dense::new(7, 3, &mut rng());
        let cfg = layer.config_bytes();
        let rebuilt = dense_from_config(&cfg).unwrap();
        assert_eq!(rebuilt.type_tag(), "dense");
        assert_eq!(rebuilt.param_count(), layer.param_count());
    }

    #[test]
    fn load_params_validates() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let good = vec![Tensor::zeros(&[3, 2]), Tensor::zeros(&[2])];
        assert!(layer.load_params(&good).is_ok());
        let bad = vec![Tensor::zeros(&[2, 3]), Tensor::zeros(&[2])];
        assert!(layer.load_params(&bad).is_err());
        assert!(layer.load_params(&[]).is_err());
    }

    #[test]
    fn with_params_validates() {
        assert!(Dense::with_params(Tensor::zeros(&[4]), Tensor::zeros(&[4])).is_err());
        assert!(Dense::with_params(Tensor::zeros(&[4, 2]), Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn gradient_batch_mismatch_detected() {
        let mut layer = Dense::new(3, 2, &mut rng());
        let _ = layer.forward(&Tensor::zeros(&[2, 3])).unwrap();
        assert!(layer.backward(&Tensor::zeros(&[5, 2])).is_err());
    }
}
