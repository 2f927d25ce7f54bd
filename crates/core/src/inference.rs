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

use crate::circulant::BlockCirculantMatrix;
use crate::dense_layer::check_batch_input;
use crate::spectral::{CirculantScratch, SpectralKernel, Spectrum};
use ffdl_nn::{wire, Layer, NnError, OpCost, Scratch};
use ffdl_tensor::Tensor;
use std::sync::{Arc, OnceLock};

/// Frozen block-circulant FC layer holding precomputed weight spectra.
///
/// Created from a trained [`CirculantDense`](crate::CirculantDense) (via
/// its matrix) with [`SpectralDense::from_matrix`]. Training is not
/// supported: `backward` returns an error, and the layer exposes no
/// parameters to the optimizer.
pub struct SpectralDense {
    in_dim: usize,
    out_dim: usize,
    block: usize,
    kb_in: usize,
    kb_out: usize,
    /// `spectra[out_block][in_block]`, each of length `b/2 + 1`.
    /// Reference-counted: worker clones share one table.
    spectra: Arc<Vec<Vec<Spectrum>>>,
    /// [`spectra_tensor`](Self::spectra_tensor), built on the first
    /// [`Layer::param_tensors`] call (a served layer never pays for it)
    /// and dropped by `load_params`.
    wire_spectra: OnceLock<Tensor>,
    bias: Tensor,
    kernel: SpectralKernel,
    /// Per-layer FFT scratch for the inference path (never cloned).
    infer_scratch: CirculantScratch,
}

impl SpectralDense {
    /// Freezes a block-circulant matrix and bias into spectral form.
    pub fn from_matrix(matrix: &BlockCirculantMatrix, bias: Tensor) -> Self {
        assert_eq!(
            bias.len(),
            matrix.out_dim(),
            "bias length must equal the output dimension"
        );
        Self {
            in_dim: matrix.in_dim(),
            out_dim: matrix.out_dim(),
            block: matrix.block(),
            kb_in: matrix.in_blocks(),
            kb_out: matrix.out_blocks(),
            spectra: matrix.shared_weight_spectra(),
            wire_spectra: OnceLock::new(),
            bias,
            kernel: SpectralKernel::new(matrix.block()),
            infer_scratch: CirculantScratch::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Stored spectral coefficients (complex values across all blocks).
    pub fn stored_complex_values(&self) -> usize {
        self.kb_in * self.kb_out * (self.block / 2 + 1)
    }

    /// The frozen weight spectra, `spectra[out_block][in_block]` — what
    /// the quantizer consumes when re-quantizing an already-frozen layer.
    pub fn spectra(&self) -> &[Vec<Spectrum>] {
        &self.spectra
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
        check_batch_input("spectral_dense", input, self.in_dim)?;
        let mut out = scratch.take(&[input.rows(), self.out_dim]);
        let bias = self.bias.as_slice();
        self.kernel.rows_product(
            &self.spectra[..],
            (input.as_slice(), self.in_dim),
            (out.as_mut_slice(), self.out_dim),
            &mut self.infer_scratch,
            |_, k, v| v + bias[k],
        );
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            block: self.block,
            kb_in: self.kb_in,
            kb_out: self.kb_out,
            spectra: Arc::clone(&self.spectra),
            wire_spectra: OnceLock::new(),
            bias: self.bias.clone(),
            kernel: self.kernel.clone(),
            infer_scratch: CirculantScratch::new(),
        }))
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
        2 * self.stored_complex_values() + self.out_dim
    }

    fn logical_param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn op_cost(&self) -> OpCost {
        // No weight-side FFTs: input FFTs + spectral MACs + output IFFTs.
        let b = self.block as u64;
        let bins = (self.block / 2 + 1) as u64;
        let kb_in = self.kb_in as u64;
        let kb_out = self.kb_out as u64;
        let log_b = (64 - b.leading_zeros() as u64).max(1);
        let fft_mults = b * log_b;
        let mults = (kb_in + kb_out) * fft_mults + kb_in * kb_out * bins * 4;
        OpCost {
            mults,
            adds: mults + self.out_dim as u64,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_dim + self.out_dim) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for v in [self.in_dim, self.out_dim, self.block] {
            wire::write_u32(&mut buf, v as u32).expect("vec write is infallible");
        }
        buf
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
        let bins = self.block / 2 + 1;
        if params[0].shape() != [self.kb_out, self.kb_in, 2 * bins]
            || params[1].shape() != [self.out_dim]
        {
            return Err(NnError::ModelFormat(
                "spectral_dense parameter shapes do not match".into(),
            ));
        }
        let flat = params[0].as_slice();
        let mut spectra = Vec::with_capacity(self.kb_out);
        for i in 0..self.kb_out {
            let mut row = Vec::with_capacity(self.kb_in);
            for j in 0..self.kb_in {
                let base = (i * self.kb_in + j) * 2 * bins;
                let spec: Spectrum = (0..bins)
                    .map(|k| ffdl_fft::Complex32::new(flat[base + 2 * k], flat[base + 2 * k + 1]))
                    .collect();
                row.push(spec);
            }
            spectra.push(row);
        }
        self.spectra = Arc::new(spectra);
        self.wire_spectra = OnceLock::new();
        self.bias = params[1].clone();
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl SpectralDense {
    /// Serializes the spectra to a `[out_blocks, in_blocks, 2·bins]`
    /// tensor (re/im interleaved) — the on-disk form of "store FFT(w)".
    pub fn spectra_tensor(&self) -> Tensor {
        let bins = self.block / 2 + 1;
        let mut data = Vec::with_capacity(self.kb_out * self.kb_in * 2 * bins);
        for row in self.spectra.iter() {
            for spec in row {
                for c in spec {
                    data.push(c.re);
                    data.push(c.im);
                }
            }
        }
        Tensor::from_vec(data, &[self.kb_out, self.kb_in, 2 * bins])
            .expect("size by construction")
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

/// Reconstructs an (empty) [`SpectralDense`] from its config blob.
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn spectral_dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let in_dim = wire::read_u32(&mut config)? as usize;
    let out_dim = wire::read_u32(&mut config)? as usize;
    let block = wire::read_u32(&mut config)? as usize;
    let matrix = BlockCirculantMatrix::zeros(in_dim, out_dim, block)
        .map_err(|e| NnError::ModelFormat(e.to_string()))?;
    Ok(Box::new(SpectralDense::from_matrix(
        &matrix,
        Tensor::zeros(&[out_dim]),
    )))
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
