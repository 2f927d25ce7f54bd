//! The block-circulant fully-connected layer — Algorithm 1 (inference)
//! and Algorithm 2 (training) of the paper, §IV-A. Its input screen,
//! config words and op count are its matrix's block grid's
//! (`circulant::BlockGrid`); its arithmetic is the matrix's.

use crate::circulant::{BlockCirculantMatrix, BlockGrid, ForwardCache};
use crate::error::CirculantError;
use crate::spectral::CirculantScratch;
use ffdl_nn::{Layer, NnError, OpCost, ParamRef, Scratch};
use ffdl_rng::Rng;
use ffdl_tensor::Tensor;

impl From<CirculantError> for NnError {
    fn from(e: CirculantError) -> Self {
        NnError::BadInput {
            layer: "circulant".into(),
            message: e.to_string(),
        }
    }
}

/// Fully-connected layer whose weight matrix is block-circulant:
/// input `[batch, in_dim]` → output `[batch, out_dim]` via the
/// "FFT → component-wise multiplication → IFFT" kernel.
///
/// Storage is `O(m·n/b)` and per-sample compute is `O((m+n)·log b · n/b)`
/// instead of the dense layer's `O(m·n)` — the simultaneous compression
/// and acceleration that distinguishes the paper from FFT-only CONV
/// acceleration (LeCun et al. \[11\]).
///
/// # Examples
///
/// ```
/// use ffdl_core::CirculantDense;
/// use ffdl_nn::Layer;
/// use ffdl_tensor::Tensor;
/// use ffdl_rng::SeedableRng;
///
/// let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(0);
/// // The paper's MNIST Arch. 1 hidden layer: 256 → 128, block 64.
/// let mut layer = CirculantDense::new(256, 128, 64, &mut rng)?;
/// assert_eq!(layer.param_count(), 4 * 2 * 64 + 128); // weights + bias
/// assert_eq!(layer.logical_param_count(), 256 * 128 + 128);
/// let y = layer.forward(&Tensor::zeros(&[1, 256]))?;
/// assert_eq!(y.shape(), &[1, 128]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CirculantDense {
    matrix: BlockCirculantMatrix,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cache: Option<ForwardCache>,
    /// Complex-valued FFT scratch. Per-layer (not in the shared
    /// [`Scratch`] pool, which holds real tensors only) and never cloned:
    /// each worker's layer clone warms its own.
    infer_scratch: CirculantScratch,
}

impl CirculantDense {
    /// Creates a layer with Xavier-scaled circulant blocks and zero bias.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when a dimension or the block size is
    /// zero.
    pub fn new<R: Rng>(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        let matrix = BlockCirculantMatrix::random(in_dim, out_dim, block, rng)?;
        Ok(Self::from_matrix(matrix, Tensor::zeros(&[out_dim])))
    }

    /// Wraps an existing matrix and bias.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != matrix.out_dim()`.
    pub fn from_matrix(matrix: BlockCirculantMatrix, bias: Tensor) -> Self {
        assert_eq!(
            bias.len(),
            matrix.out_dim(),
            "bias length must equal the output dimension"
        );
        let wg = Tensor::zeros(matrix.weights().shape());
        let bg = Tensor::zeros(&[matrix.out_dim()]);
        Self {
            matrix,
            bias,
            weight_grad: wg,
            bias_grad: bg,
            cache: None,
            infer_scratch: CirculantScratch::new(),
        }
    }

    /// The underlying block-circulant matrix.
    pub fn matrix(&self) -> &BlockCirculantMatrix {
        &self.matrix
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.matrix.in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.matrix.out_dim()
    }

    /// Block size `b` (the compression knob).
    pub fn block(&self) -> usize {
        self.matrix.block()
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Storage compression ratio of the weight matrix alone.
    pub fn compression_ratio(&self) -> f32 {
        self.matrix.compression_ratio()
    }
}

impl Layer for CirculantDense {
    fn type_tag(&self) -> &'static str {
        "circulant_dense"
    }

    /// Algorithm 1 with the output drawn from `scratch`. With `keep` the
    /// input spectra it computed are retained for
    /// [`backward`](Layer::backward) (Algorithm 2); without it nothing is
    /// left behind.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        self.matrix.grid().check_input("circulant_dense", input)?;
        let mut y = scratch.take(&[input.rows(), self.matrix.out_dim()]);
        let bias = self.bias.as_slice();
        let x_hat = self
            .matrix
            .rows_product(input, &mut self.infer_scratch, &mut y, |_, k, v| v + bias[k]);
        if keep {
            self.cache = Some(ForwardCache { x_hat: x_hat.to_vec(), rows: input.rows() });
        }
        Ok(y)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            matrix: self.matrix.clone(),
            bias: self.bias.clone(),
            weight_grad: self.weight_grad.clone(),
            bias_grad: self.bias_grad.clone(),
            cache: None,
            infer_scratch: CirculantScratch::new(),
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("circulant_dense".into()))?;
        let (grad_x, grad_w) = self.matrix.backward_batch(cache, grad_output)?;
        self.weight_grad = grad_w;
        self.bias_grad = grad_output.sum_rows()?;
        Ok(grad_x)
    }

    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "circulant_weights",
                value: self.matrix.weights_mut(),
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
        self.matrix.param_count() + self.bias.len()
    }

    fn logical_param_count(&self) -> usize {
        self.matrix.logical_param_count() + self.bias.len()
    }

    /// Algorithm 1 on precomputed spectra plus re-transforming the weights
    /// each pass, which the frozen [`SpectralDense`](crate::SpectralDense)
    /// skips.
    fn op_cost(&self) -> OpCost {
        let g = self.matrix.grid();
        g.row_cost(g.row_mults() + g.weight_mults(), self.param_count() as u64)
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.matrix.grid().config_bytes(&[])
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![self.matrix.weights(), &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2
            || params[0].shape() != self.matrix.weights().shape()
            || params[1].shape() != [self.matrix.out_dim()]
        {
            return Err(NnError::ModelFormat(
                "circulant_dense parameter shapes do not match".into(),
            ));
        }
        *self.matrix.weights_mut() = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Reconstructs a [`CirculantDense`] from its config blob (model loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn circulant_dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let grid = BlockGrid::read_config(&mut config)?;
    let bias = Tensor::zeros(&[grid.out_dim]);
    Ok(Box::new(CirculantDense::from_matrix(
        BlockCirculantMatrix::from_grid(grid),
        bias,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_nn::Dense;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(17)
    }

    fn input(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 11 + 5) % 23) as f32 * 0.08 - 0.8)
    }

    #[test]
    fn equivalent_to_dense_layer_with_expanded_matrix() {
        // The layer must behave exactly like a Dense layer whose weight is
        // the expanded circulant matrix — forward AND backward.
        let (in_dim, out_dim, b) = (10usize, 6usize, 4usize);
        let mut circ = CirculantDense::new(in_dim, out_dim, b, &mut rng()).unwrap();
        let dense_w = circ.matrix().to_dense();
        let mut dense = Dense::with_params(dense_w, circ.bias().clone()).unwrap();

        let x = input(3, in_dim);
        let y_c = circ.forward(&x).unwrap();
        let y_d = dense.forward(&x).unwrap();
        for (a, v) in y_c.as_slice().iter().zip(y_d.as_slice()) {
            assert!((a - v).abs() < 1e-3, "forward: {a} vs {v}");
        }

        let g = y_c.clone();
        let gx_c = circ.backward(&g).unwrap();
        let gx_d = dense.backward(&g).unwrap();
        for (a, v) in gx_c.as_slice().iter().zip(gx_d.as_slice()) {
            assert!((a - v).abs() < 1e-3, "grad x: {a} vs {v}");
        }
    }

    #[test]
    fn weight_gradient_check() {
        let mut layer = CirculantDense::new(6, 4, 2, &mut rng()).unwrap();
        let x = input(2, 6);
        let y = layer.forward(&x).unwrap();
        let _ = layer.backward(&y).unwrap();
        let wg = layer.weight_grad.clone();
        let bg = layer.bias_grad.clone();

        let eps = 1e-2f32;
        let loss = |layer: &mut CirculantDense, x: &Tensor| -> f32 {
            let y = layer.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for i in 0..wg.len() {
            let orig = layer.matrix.weights().as_slice()[i];
            layer.matrix.weights_mut().as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.matrix.weights_mut().as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.matrix.weights_mut().as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = wg.as_slice()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dw[{i}]: {num} vs {ana}"
            );
        }
        for i in 0..bg.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = bg.as_slice()[i];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "db[{i}]");
        }
    }

    #[test]
    fn paper_arch1_dimensions() {
        // 256 → 128 with block 64: 4×2 grid → 512 weights + 128 bias.
        let layer = CirculantDense::new(256, 128, 64, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 512 + 128);
        assert_eq!(layer.logical_param_count(), 256 * 128 + 128);
        assert!((layer.compression_ratio() - 64.0).abs() < 1e-6);
    }

    #[test]
    fn paper_arch2_dimensions_with_padding() {
        // 121 → 64 with block 64: input pads to 128 → 2×1 grid.
        let layer = CirculantDense::new(121, 64, 64, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 2 * 64 + 64);
        let mut layer = layer;
        let y = layer.forward(&input(2, 121)).unwrap();
        assert_eq!(y.shape(), &[2, 64]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut layer = CirculantDense::new(4, 4, 2, &mut rng()).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 4])),
            Err(NnError::NoForwardCache(_))
        ));
    }

    #[test]
    fn parameters_exposed_for_optimizer() {
        let mut layer = CirculantDense::new(8, 8, 4, &mut rng()).unwrap();
        let params = layer.parameters();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].value.shape(), &[2, 2, 4]);
        assert_eq!(params[1].value.shape(), &[8]);
    }

    #[test]
    fn op_cost_beats_dense_for_large_blocks() {
        let circ = CirculantDense::new(1024, 1024, 256, &mut rng()).unwrap();
        let dense_macs = 1024u64 * 1024;
        assert!(
            circ.op_cost().mults < dense_macs / 4,
            "FFT path should be far cheaper: {} vs {dense_macs}",
            circ.op_cost().mults
        );
    }

    #[test]
    fn config_roundtrip_preserves_behaviour() {
        let mut layer = CirculantDense::new(10, 6, 4, &mut rng()).unwrap();
        let mut rebuilt = circulant_dense_from_config(&layer.config_bytes()).unwrap();
        let params: Vec<Tensor> = layer.param_tensors().into_iter().cloned().collect();
        rebuilt.load_params(&params).unwrap();
        let x = input(2, 10);
        let y1 = layer.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        for (a, v) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - v).abs() < 1e-6);
        }
        assert!(rebuilt.load_params(&[Tensor::zeros(&[1])]).is_err());
    }

    #[test]
    fn constructor_validates() {
        assert!(CirculantDense::new(0, 4, 2, &mut rng()).is_err());
        assert!(circulant_dense_from_config(&[0u8; 12]).is_err());
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn from_matrix_checks_bias() {
        let m = BlockCirculantMatrix::zeros(4, 4, 2).unwrap();
        let _ = CirculantDense::from_matrix(m, Tensor::zeros(&[5]));
    }
}
