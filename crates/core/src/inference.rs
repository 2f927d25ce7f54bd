//! Inference-only spectral layer: stores `FFT(wᵢ)` instead of the weight
//! matrix, exactly as §IV-A prescribes for deployment ("we can simply keep
//! the FFT result FFT(wᵢ) ... instead of the whole matrix W").
//!
//! This is what the deployment pipeline ships to the embedded target: the
//! forward pass skips the weight-side FFTs entirely, leaving one FFT per
//! input block, the spectral MACs, and one IFFT per output block — the
//! shared Algorithm 1 routine (`SpectralKernel::product`) on the
//! stored spectra with a `+ bias` epilogue. There is nothing to record
//! for a backward pass, so `forward` and `forward_infer` are one route.
//!
//! The layer holds the block grid of the matrix it froze
//! (`circulant::BlockGrid`): its input screen, config words, op count and
//! the `[kb_out, kb_in, bins]` shape of its store are the grid's, and its
//! config builder starts from zero spectra of that shape, transforming
//! nothing.

use crate::circulant::{BlockCirculantMatrix, BlockGrid};
use crate::spectral::{CirculantScratch, Spectrum};
use ffdl_fft::Complex32;
use ffdl_nn::{Layer, NnError, OpCost, Scratch};
use ffdl_tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Frozen block-circulant FC layer holding precomputed weight spectra.
///
/// Created from a trained [`CirculantDense`](crate::CirculantDense) (via
/// its matrix) with [`SpectralDense::from_matrix`]. Training is not
/// supported: `backward` returns an error, and the layer exposes no
/// parameters to the optimizer.
pub struct SpectralDense {
    pub(crate) grid: BlockGrid,
    /// `spectra[out_block][in_block]`, each of length `b/2 + 1`.
    /// Reference-counted: worker clones share one table.
    spectra: Arc<Vec<Vec<Spectrum>>>,
    /// [`spectra_tensor`](Self::spectra_tensor), built on the first
    /// [`Layer::param_tensors`] call (a served layer never pays for it)
    /// and dropped by `load_params`.
    wire_spectra: OnceLock<Tensor>,
    bias: Tensor,
    /// Per-layer FFT scratch for the inference path (never cloned).
    infer_scratch: CirculantScratch,
}

impl SpectralDense {
    /// Freezes a block-circulant matrix and bias into spectral form.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != matrix.out_dim()`.
    pub fn from_matrix(matrix: &BlockCirculantMatrix, bias: Tensor) -> Self {
        Self::new(matrix.grid().clone(), matrix.shared_weight_spectra(), bias)
    }

    fn new(grid: BlockGrid, spectra: Arc<Vec<Vec<Spectrum>>>, bias: Tensor) -> Self {
        assert_eq!(
            bias.len(),
            grid.out_dim,
            "bias length must equal the output dimension"
        );
        let (wire_spectra, infer_scratch) = (OnceLock::new(), CirculantScratch::new());
        Self {
            grid,
            spectra,
            wire_spectra,
            bias,
            infer_scratch,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.grid.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.grid.out_dim
    }

    /// Block size.
    pub fn block(&self) -> usize {
        self.grid.block
    }

    /// Stored spectral coefficients (complex values across all blocks).
    pub fn stored_complex_values(&self) -> usize {
        self.grid.spectra_shape().iter().product()
    }

    /// The frozen weight spectra, `spectra[out_block][in_block]` — what
    /// the quantizer consumes when re-quantizing an already-frozen layer.
    pub fn spectra(&self) -> &[Vec<Spectrum>] {
        &self.spectra
    }

    /// Serializes the spectra to a `[out_blocks, in_blocks, 2·bins]`
    /// tensor (re/im interleaved) — the on-disk form of "store FFT(w)".
    pub fn spectra_tensor(&self) -> Tensor {
        let data = self
            .spectra
            .iter()
            .flatten()
            .flatten()
            .flat_map(|c| [c.re, c.im])
            .collect();
        let [kb_out, kb_in, bins] = self.grid.spectra_shape();
        Tensor::from_vec(data, &[kb_out, kb_in, 2 * bins]).expect("size by construction")
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for SpectralDense {
    fn type_tag(&self) -> &'static str {
        "spectral_dense"
    }

    /// A frozen layer has no backward pass, so there is nothing to keep.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        _keep: bool,
    ) -> Result<Tensor, NnError> {
        self.grid.check_input("spectral_dense", input)?;
        let mut out = scratch.take(&[input.rows(), self.grid.out_dim]);
        let bias = self.bias.as_slice();
        let sc = &mut self.infer_scratch;
        self.grid
            .rows_product(&self.spectra[..], input, sc, &mut out, |_, k, v| {
                v + bias[k]
            });
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        let spectra = Arc::clone(&self.spectra);
        Some(Box::new(Self::new(
            self.grid.clone(),
            spectra,
            self.bias.clone(),
        )))
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor, NnError> {
        Err(NnError::BadInput {
            layer: "spectral_dense".into(),
            message: "inference-only layer does not support backward; train with \
                      CirculantDense and freeze afterwards"
                .into(),
        })
    }

    fn param_count(&self) -> usize {
        // Two reals per stored complex bin, plus bias.
        2 * self.stored_complex_values() + self.grid.out_dim
    }

    fn logical_param_count(&self) -> usize {
        self.grid.in_dim * self.grid.out_dim + self.grid.out_dim
    }

    /// No weight-side transforms: Algorithm 1 on the stored spectra.
    fn op_cost(&self) -> OpCost {
        self.grid
            .row_cost(self.grid.row_mults(), self.param_count() as u64)
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.grid.config_bytes(&[])
    }

    /// `[spectra, bias]`, exactly what `load_params` parses: the wire
    /// form of "store FFT(w)".
    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![self.wire_spectra.get_or_init(|| self.spectra_tensor()), &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2 {
            return Err(NnError::ModelFormat(
                "spectral_dense expects [spectra, bias]".into(),
            ));
        }
        let [kb_out, kb_in, bins] = self.grid.spectra_shape();
        if params[0].shape() != [kb_out, kb_in, 2 * bins]
            || params[1].shape() != [self.grid.out_dim]
        {
            return Err(NnError::ModelFormat(
                "spectral_dense parameter shapes do not match".into(),
            ));
        }
        let mut blocks = params[0].as_slice().chunks_exact(2 * bins).map(|block| {
            block
                .chunks_exact(2)
                .map(|c| Complex32::new(c[0], c[1]))
                .collect()
        });
        let spectra = (0..kb_out)
            .map(|_| blocks.by_ref().take(kb_in).collect())
            .collect();
        *self = Self::new(self.grid.clone(), Arc::new(spectra), params[1].clone());
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Reconstructs an (empty) [`SpectralDense`] from its config blob: zero
/// spectra of the grid's shape, straight from the config words.
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn spectral_dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let grid = BlockGrid::read_config(&mut config)?;
    let [kb_out, kb_in, bins] = grid.spectra_shape();
    let spectra = vec![vec![vec![Complex32::zero(); bins]; kb_in]; kb_out];
    let bias = Tensor::zeros(&[grid.out_dim]);
    Ok(Box::new(SpectralDense::new(grid, Arc::new(spectra), bias)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_layer::CirculantDense;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(23)
    }

    fn input(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 13 + 1) % 29) as f32 * 0.05 - 0.7)
    }

    #[test]
    fn frozen_layer_matches_training_layer() {
        let mut trained = CirculantDense::new(12, 8, 4, &mut rng()).unwrap();
        let mut frozen = SpectralDense::from_matrix(trained.matrix(), trained.bias().clone());
        let x = input(3, 12);
        let y_train = trained.forward(&x).unwrap();
        let y_frozen = frozen.forward(&x).unwrap();
        for (a, v) in y_train.as_slice().iter().zip(y_frozen.as_slice()) {
            assert!((a - v).abs() < 1e-4, "{a} vs {v}");
        }
    }

    #[test]
    fn backward_is_rejected() {
        let m = BlockCirculantMatrix::zeros(4, 4, 2).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.backward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(layer.parameters().is_empty());
    }

    #[test]
    fn storage_accounting() {
        let m = BlockCirculantMatrix::zeros(128, 128, 64).unwrap();
        let layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[128]));
        assert_eq!(layer.stored_complex_values(), 2 * 2 * 33);
        // Still dramatically below the dense 128·128.
        assert!(layer.param_count() < layer.logical_param_count() / 10);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = BlockCirculantMatrix::random(10, 6, 4, &mut rng()).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::from_fn(&[6], |i| i as f32 * 0.1));
        let mut rebuilt = spectral_dense_from_config(&layer.config_bytes()).unwrap();
        let params: Vec<Tensor> = layer.param_tensors().into_iter().cloned().collect();
        assert_eq!(params, [layer.spectra_tensor(), layer.bias().clone()]);
        rebuilt.load_params(&params).unwrap();
        let x = input(2, 10);
        let y1 = layer.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        for (a, v) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - v).abs() < 1e-5);
        }
    }

    #[test]
    fn load_params_validates() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.load_params(&[]).is_err());
        assert!(layer
            .load_params(&[Tensor::zeros(&[1, 1, 1]), Tensor::zeros(&[4])])
            .is_err());
    }

    #[test]
    fn forward_validates_input() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.forward(&Tensor::zeros(&[2, 7])).is_err());
    }

    #[test]
    fn spectral_op_cost_cheaper_than_training_layer() {
        let mut r = rng();
        let trained = CirculantDense::new(512, 512, 64, &mut r).unwrap();
        let frozen = SpectralDense::from_matrix(trained.matrix(), trained.bias().clone());
        assert!(frozen.op_cost().mults < trained.op_cost().mults);
    }
}
