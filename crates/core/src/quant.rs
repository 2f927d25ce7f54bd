//! Fixed-point quantization of the spectral deployment form — composing
//! the paper's block-circulant compression with the *weight precision
//! reduction* line of related work it cites (§II: fixed-point
//! implementations [14], ultra-low-precision weights [15], [16]).
//!
//! The stored `FFT(wᵢ)` spectra are quantized to narrow signed fixed
//! point (8 or 16 effective bits) with one symmetric scale per **output
//! block**: `value = level · scale[out_block]`; the bias vector gets one
//! more symmetric scale of its own (reconstructed once at load time,
//! never per batch). Inference never
//! dequantizes the weight tensor — the forward pass is the shared
//! Algorithm 1 routine (`SpectralKernel::product`) reading integer
//! levels ([`SpectralKernel::mul_accumulate_levels`]): pure level-valued
//! products accumulate across all input blocks, and the epilogue applies
//! the block scale exactly once per output value (the IFFT is linear, so
//! scaling the time-domain block equals scaling the accumulator). On
//! top of the block-circulant `n²/b` reduction this shrinks model bytes
//! by a further 2–4×, and the narrower weight reads roughly halve the
//! layer's memory traffic.
//!
//! The layer is built from a [`SpectralDense`] and keeps its block grid
//! (`circulant::BlockGrid`: input screen, config words plus the bits word,
//! op count, store shape); its config builder starts from the all-zero
//! levels of that shape, quantizing nothing. On disk the levels and scales
//! travel through the version-3 model
//! format's quantization header (`ffdl_nn::wire::QuantPayload`) — 2
//! bytes per level for int16 and 1 for int8, never widened to
//! `f32` tensors — so a quantized model is a first-class registry
//! citizen: publishable, checksummed, hot-swappable against its f32
//! parent.
//!
//! [`SpectralKernel::mul_accumulate_levels`]: crate::SpectralKernel::mul_accumulate_levels

use crate::circulant::{BlockCirculantMatrix, BlockGrid};
use crate::inference::SpectralDense;
use crate::spectral::{CirculantScratch, LevelGrid};
use ffdl_nn::wire::{QuantPayload, QUANT_SCHEME_SYMMETRIC};
use ffdl_nn::{Layer, NnError, OpCost, Scratch};
use ffdl_tensor::Tensor;
use std::sync::Arc;

/// Quantization width for spectral coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantBits {
    /// 8-bit signed fixed point (4× smaller than `f32`).
    Eight,
    /// 16-bit signed fixed point (2× smaller than `f32`).
    Sixteen,
}

impl QuantBits {
    /// Largest representable level magnitude.
    pub fn max_level(self) -> f32 {
        match self {
            QuantBits::Eight => i8::MAX as f32,
            QuantBits::Sixteen => i16::MAX as f32,
        }
    }

    /// Bytes per real scalar on the wire.
    pub fn bytes_per_value(self) -> usize {
        match self {
            QuantBits::Eight => 1,
            QuantBits::Sixteen => 2,
        }
    }

    /// Effective bits (the wire-format `bits` field).
    pub fn bits(self) -> u32 {
        match self {
            QuantBits::Eight => 8,
            QuantBits::Sixteen => 16,
        }
    }

    /// Inverse of [`QuantBits::bits`].
    pub fn from_bits(bits: u32) -> Option<Self> {
        match bits {
            8 => Some(QuantBits::Eight),
            16 => Some(QuantBits::Sixteen),
            _ => None,
        }
    }
}

impl std::fmt::Display for QuantBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantBits::Eight => write!(f, "int8"),
            QuantBits::Sixteen => write!(f, "int16"),
        }
    }
}

/// The one symmetric quantizer: appends the levels of a group of values
/// sharing one scale to `levels` and returns that scale —
/// `max|v| / max_level` (1.0 for an all-zero group), each level
/// `round(v / scale)` clamped to the width.
fn quantize_group(
    values: impl Iterator<Item = f32> + Clone,
    bits: QuantBits,
    levels: &mut Vec<i16>,
) -> f32 {
    let max_level = bits.max_level();
    let max_abs = values.clone().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = if max_abs > 0.0 { max_abs / max_level } else { 1.0 };
    levels.extend(values.map(|v| (v / scale).round().clamp(-max_level, max_level) as i16));
    scale
}

/// Inference-only block-circulant FC layer with fixed-point spectra,
/// served **without dequantizing the weight tensor**.
///
/// Geometry and math mirror [`SpectralDense`](crate::SpectralDense); the
/// stored `FFT(w)` coefficients are integer levels (one symmetric scale
/// per output block row), the spectral MACs run levels × `f32` input
/// spectra via [`SpectralKernel::mul_accumulate_levels`], and the block
/// scale is applied once per output value after the IFFT. The forward
/// pass reuses the same [`CirculantScratch`] workspace, so steady-state
/// serving stays allocation-free.
///
/// [`SpectralKernel::mul_accumulate_levels`]: crate::SpectralKernel::mul_accumulate_levels
pub struct QuantizedSpectralDense {
    grid: BlockGrid,
    /// Interleaved re/im levels, `[(i·kb_in + j)·2·bins ..]` per block.
    /// Reference-counted: worker clones share one table.
    levels: Arc<Vec<i16>>,
    /// One symmetric scale per output block row (length `kb_out`).
    scales: Arc<Vec<f32>>,
    /// Quantized bias levels (`value = level · bias_scale`).
    bias_levels: Arc<Vec<i16>>,
    /// Symmetric scale for the bias vector.
    bias_scale: f32,
    /// Dequantized bias, reconstructed once (at construction or model
    /// load) — the forward pass reads plain `f32` values.
    bias: Tensor,
    bits: QuantBits,
    /// Per-layer FFT scratch for the inference path (never cloned).
    infer_scratch: CirculantScratch,
}

impl QuantizedSpectralDense {
    /// Quantizes a trained block-circulant matrix for deployment: its
    /// [`SpectralDense`] form, quantized.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != matrix.out_dim()`.
    pub fn from_matrix(matrix: &BlockCirculantMatrix, bias: Tensor, bits: QuantBits) -> Self {
        Self::from_spectral(&SpectralDense::from_matrix(matrix, bias), bits)
    }

    /// Quantizes a frozen layer's spectra and bias — one scale per output
    /// block row, one more for the bias — on the frozen layer's grid.
    pub fn from_spectral(frozen: &SpectralDense, bits: QuantBits) -> Self {
        // One scale per output block row, levels flattened
        // `[out_block][in_block][2·bins]`; one more scale for the bias.
        let mut levels = Vec::new();
        let scales = frozen
            .spectra()
            .iter()
            .map(|row| {
                let values = row.iter().flatten().flat_map(|c| [c.re, c.im]);
                quantize_group(values, bits, &mut levels)
            })
            .collect();
        let mut bias_levels = Vec::with_capacity(frozen.out_dim());
        let bias = frozen.bias().as_slice().iter().copied();
        let bias_scale = quantize_group(bias, bits, &mut bias_levels);
        Self::new(
            frozen.grid.clone(),
            bits,
            (levels, scales),
            (bias_levels, bias_scale),
        )
    }

    /// Levels `[out_block][in_block][2·bins]` with their row scales, and
    /// the bias levels with theirs; the bias is dequantized here, once.
    fn new(
        grid: BlockGrid,
        bits: QuantBits,
        (levels, scales): (Vec<i16>, Vec<f32>),
        (bias_levels, bias_scale): (Vec<i16>, f32),
    ) -> Self {
        let bias = Tensor::from_fn(&[bias_levels.len()], |i| bias_levels[i] as f32 * bias_scale);
        Self {
            grid,
            levels: Arc::new(levels),
            scales: Arc::new(scales),
            bias_levels: Arc::new(bias_levels),
            bias_scale,
            bias,
            bits,
            infer_scratch: CirculantScratch::new(),
        }
    }

    /// Quantization width.
    pub fn bits(&self) -> QuantBits {
        self.bits
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

    /// The (dequantized) bias vector the forward pass adds.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The bias scale (`bias = level · bias_scale`).
    pub fn bias_scale(&self) -> f32 {
        self.bias_scale
    }

    /// Per-output-block symmetric scales (length `out_blocks`).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Flattened interleaved re/im levels (`[out_block][in_block][2·bins]`).
    pub fn levels(&self) -> &[i16] {
        &self.levels
    }

    /// Worst-case absolute weight reconstruction error for one output
    /// block row: half an LSB of that row's scale.
    pub fn max_error(&self, out_block: usize) -> f32 {
        self.scales[out_block] * 0.5
    }

    /// Total model bytes for this layer's weights (narrow weight + bias
    /// levels plus the `f32` scales).
    pub fn storage_bytes(&self) -> usize {
        (self.levels.len() + self.bias_levels.len()) * self.bits.bytes_per_value()
            + (self.scales.len() + 1) * 4
    }

    /// Bytes an unquantized [`SpectralDense`](crate::SpectralDense) would
    /// use for the same geometry.
    pub fn float_storage_bytes(&self) -> usize {
        self.grid.spectra_shape().iter().product::<usize>() * 2 * 4 + self.bias.len() * 4
    }

    /// Bytes the dense `f32` matrix would use.
    pub fn dense_storage_bytes(&self) -> usize {
        (self.grid.in_dim * self.grid.out_dim + self.grid.out_dim) * 4
    }
}

impl Layer for QuantizedSpectralDense {
    fn type_tag(&self) -> &'static str {
        "quantized_spectral_dense"
    }

    /// A frozen layer has no backward pass, so there is nothing to keep.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        _keep: bool,
    ) -> Result<Tensor, NnError> {
        self.grid.check_input("quantized_spectral_dense", input)?;
        let mut out = scratch.take(&[input.rows(), self.grid.out_dim]);
        let (scales, bias) = (&self.scales[..], self.bias.as_slice());
        // Pure level-valued products accumulate over all input blocks;
        // the block scale is applied once per output value, after the
        // IFFT (which is linear).
        let levels = LevelGrid {
            levels: &self.levels,
            kb_in: self.grid.kb_in,
        };
        let sc = &mut self.infer_scratch;
        self.grid
            .rows_product(&levels, input, sc, &mut out, |i, k, v| {
                v * scales[i] + bias[k]
            });
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            grid: self.grid.clone(),
            levels: Arc::clone(&self.levels),
            scales: Arc::clone(&self.scales),
            bias_levels: Arc::clone(&self.bias_levels),
            bias: self.bias.clone(),
            infer_scratch: CirculantScratch::new(),
            ..*self
        }))
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor, NnError> {
        Err(NnError::BadInput {
            layer: "quantized_spectral_dense".into(),
            message: "inference-only layer does not support backward; train with \
                      CirculantDense, freeze, then quantize"
                .into(),
        })
    }

    fn param_count(&self) -> usize {
        // Stored values: weight + bias levels, plus the scales.
        self.levels.len() + self.bias_levels.len() + self.scales.len() + 1
    }

    fn logical_param_count(&self) -> usize {
        self.grid.in_dim * self.grid.out_dim + self.grid.out_dim
    }

    /// [`SpectralDense`]'s arithmetic plus one scale multiply per output
    /// value; parameter reads are the narrow bytes, in `f32` words.
    fn op_cost(&self) -> OpCost {
        let mults = self.grid.row_mults() + (self.grid.kb_out * self.grid.block) as u64;
        self.grid
            .row_cost(mults, (self.storage_bytes() / 4).max(1) as u64)
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.grid.config_bytes(&[self.bits.bits()])
    }

    // No f32 parameter tensors: weights *and* bias travel as narrow
    // levels through the v3 quantization header (the trait's default
    // `param_tensors`/`load_params` — empty/none — apply).

    fn quant_payload(&self) -> Option<QuantPayload> {
        // Layout: `scales = [row scales…, bias scale]`,
        // `levels = [weight levels…, bias levels…]`.
        let mut scales = (*self.scales).clone();
        scales.push(self.bias_scale);
        let mut levels = (*self.levels).clone();
        levels.extend_from_slice(&self.bias_levels);
        Some(QuantPayload {
            scheme: QUANT_SCHEME_SYMMETRIC,
            bits: self.bits.bits(),
            scales,
            levels,
        })
    }

    fn load_quant_payload(&mut self, payload: &QuantPayload) -> Result<(), NnError> {
        if payload.scheme != QUANT_SCHEME_SYMMETRIC {
            return Err(NnError::ModelFormat(format!(
                "quantized_spectral_dense: unknown scheme {}",
                payload.scheme
            )));
        }
        if payload.bits != self.bits.bits() {
            return Err(NnError::ModelFormat(format!(
                "quantized_spectral_dense: header says {} bits, config says {}",
                payload.bits,
                self.bits.bits()
            )));
        }
        let kb_out = self.grid.kb_out;
        let want_weight_levels = 2 * self.grid.spectra_shape().iter().product::<usize>();
        let want_levels = want_weight_levels + self.grid.out_dim;
        if payload.scales.len() != kb_out + 1 || payload.levels.len() != want_levels {
            return Err(NnError::ModelFormat(format!(
                "quantized_spectral_dense: payload sizes {}/{} do not match geometry {}/{}",
                payload.scales.len(),
                payload.levels.len(),
                kb_out + 1,
                want_levels
            )));
        }
        let (weight_levels, bias_levels) = payload.levels.split_at(want_weight_levels);
        let (row_scales, bias_scale) = payload.scales.split_at(kb_out);
        let weights = (weight_levels.to_vec(), row_scales.to_vec());
        let bias = (bias_levels.to_vec(), bias_scale[0]);
        *self = Self::new(self.grid.clone(), self.bits, weights, bias);
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Reconstructs an (empty) [`QuantizedSpectralDense`] from its config
/// blob (`in_dim, out_dim, block, bits`); levels and scales arrive
/// afterwards via [`Layer::load_quant_payload`].
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn quantized_spectral_dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let grid = BlockGrid::read_config(&mut config)?;
    let bits_raw = ffdl_nn::wire::read_u32(&mut config)?;
    let bits = QuantBits::from_bits(bits_raw).ok_or_else(|| {
        NnError::ModelFormat(format!(
            "quantized_spectral_dense: unsupported width {bits_raw} bits"
        ))
    })?;
    // The levels of all-zero spectra and bias: zeros, every scale 1.
    let [kb_out, kb_in, bins] = grid.spectra_shape();
    let weights = (vec![0; kb_out * kb_in * 2 * bins], vec![1.0; kb_out]);
    let bias = (vec![0; grid.out_dim], 1.0);
    Ok(Box::new(QuantizedSpectralDense::new(
        grid, bits, weights, bias,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_layer::CirculantDense;
    use crate::spectral::{SpectralKernel, Spectrum};
    use ffdl_fft::Complex32;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(61)
    }

    fn input(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 7 + 2) % 19) as f32 * 0.1 - 0.9)
    }

    #[test]
    fn quantized_layer_tracks_float_layer() {
        let mut float_layer = CirculantDense::new(24, 16, 8, &mut rng()).unwrap();
        let x = input(3, 24);
        let y_float = float_layer.forward(&x).unwrap();

        for (bits, tol) in [
            (QuantBits::Sixteen, 2e-3f32),
            (QuantBits::Eight, 0.25),
        ] {
            let mut q = QuantizedSpectralDense::from_matrix(
                float_layer.matrix(),
                float_layer.bias().clone(),
                bits,
            );
            let y_q = q.forward(&x).unwrap();
            let scale = 1.0 + y_float.max_abs();
            for (a, b) in y_q.as_slice().iter().zip(y_float.as_slice()) {
                assert!((a - b).abs() < tol * scale, "{bits}: {a} vs {b}");
            }
        }
    }

    /// The dequant-free kernel must equal the explicit-dequantization
    /// reference exactly: accumulate dequantized `f32` spectra the
    /// SpectralDense way and compare against the level-MAC + one scale
    /// per output block path. (Same additions in the same order, scale
    /// factored out of the j-sum — results agree to f32 rounding.)
    #[test]
    fn kernel_matches_explicit_dequantization() {
        let float_layer = CirculantDense::new(20, 12, 4, &mut rng()).unwrap();
        let mut q = QuantizedSpectralDense::from_matrix(
            float_layer.matrix(),
            float_layer.bias().clone(),
            QuantBits::Eight,
        );
        let x = input(2, 20);
        let y_kernel = q.forward(&x).unwrap();

        // Reference: dequantize each block spectrum (level · row scale),
        // then run the plain f32 spectral path.
        let kernel = SpectralKernel::new(q.block());
        let bins = kernel.bins();
        let b = q.block();
        let (kb_in, kb_out) = (q.in_dim().div_ceil(b), q.out_dim().div_ceil(b));
        let mut y_ref = Vec::new();
        for s in 0..x.rows() {
            let mut padded = vec![0.0f32; kb_in * b];
            padded[..q.in_dim()].copy_from_slice(x.row(s));
            let x_spec: Vec<Spectrum> = (0..kb_in)
                .map(|j| kernel.spectrum(&padded[j * b..(j + 1) * b]))
                .collect();
            for i in 0..kb_out {
                let scale = q.scales()[i];
                let mut acc = vec![Complex32::zero(); bins];
                for (j, x_j) in x_spec.iter().enumerate() {
                    let base = (i * kb_in + j) * 2 * bins;
                    let w: Spectrum = (0..bins)
                        .map(|k| {
                            Complex32::new(
                                q.levels()[base + 2 * k] as f32,
                                q.levels()[base + 2 * k + 1] as f32,
                            )
                        })
                        .collect();
                    SpectralKernel::mul_accumulate(&mut acc, &w, x_j);
                }
                let mut y_block = Vec::new();
                kernel.inverse_into(&acc, &mut Vec::new(), &mut y_block);
                for (k, v) in y_block.iter().enumerate() {
                    let idx = i * b + k;
                    if idx < q.out_dim() {
                        y_ref.push(v * scale + q.bias().as_slice()[idx]);
                    }
                }
            }
        }
        assert_eq!(y_kernel.as_slice(), &y_ref[..], "kernel == explicit dequant");
    }

    #[test]
    fn forward_infer_is_bit_identical_to_forward() {
        let float_layer = CirculantDense::new(24, 16, 8, &mut rng()).unwrap();
        let mut q = QuantizedSpectralDense::from_matrix(
            float_layer.matrix(),
            float_layer.bias().clone(),
            QuantBits::Sixteen,
        );
        let x = input(5, 24);
        let y = q.forward(&x).unwrap();
        let mut scratch = Scratch::new();
        let y_infer = q.forward_infer(&x, &mut scratch).unwrap();
        assert_eq!(y.as_slice(), y_infer.as_slice());

        // The clone shares the level table and answers identically.
        let mut clone = q.clone_layer().unwrap();
        let y_clone = clone.forward_infer(&x, &mut scratch).unwrap();
        assert_eq!(y.as_slice(), y_clone.as_slice());
    }

    #[test]
    fn storage_hierarchy() {
        let m = BlockCirculantMatrix::zeros(256, 128, 64).unwrap();
        let q8 =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[128]), QuantBits::Eight);
        let q16 =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[128]), QuantBits::Sixteen);
        assert!(q8.storage_bytes() < q16.storage_bytes());
        assert!(q16.storage_bytes() < q16.float_storage_bytes());
        assert!(q16.float_storage_bytes() < q16.dense_storage_bytes() / 10);
    }

    #[test]
    fn inference_only_and_validation() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut q =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[4]), QuantBits::Eight);
        assert!(q.backward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(q.forward(&Tensor::zeros(&[1, 7])).is_err());
        assert!(q.parameters().is_empty());
        assert_eq!(q.bits(), QuantBits::Eight);
        assert_eq!(q.type_tag(), "quantized_spectral_dense");
        assert!(q.as_any().is_some());
    }

    #[test]
    fn op_cost_param_reads_shrink_with_bits() {
        let m = BlockCirculantMatrix::zeros(128, 128, 64).unwrap();
        let q8 = QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[128]), QuantBits::Eight);
        let q16 =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[128]), QuantBits::Sixteen);
        assert!(q8.op_cost().param_reads < q16.op_cost().param_reads);
    }

    #[test]
    fn wire_roundtrip_is_bit_identical_and_version_3() {
        let float_layer = CirculantDense::new(24, 16, 8, &mut rng()).unwrap();
        let q = QuantizedSpectralDense::from_matrix(
            float_layer.matrix(),
            float_layer.bias().clone(),
            QuantBits::Eight,
        );
        let mut net = ffdl_nn::Network::new();
        net.push(q);
        let mut buf = Vec::new();
        ffdl_nn::save_network(&net, &mut buf).unwrap();
        assert_eq!(buf[4], 3, "quantized model must be version 3");

        let mut loaded = ffdl_nn::load_network(&buf[..], &crate::full_registry()).unwrap();
        let x = input(2, 24);
        let y1 = net.forward(&x).unwrap();
        let y2 = loaded.forward(&x).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice(), "levels/scales are exact on the wire");
    }

    #[test]
    fn load_quant_payload_validates() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut q =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[4]), QuantBits::Sixteen);
        let good = q.quant_payload().unwrap();

        let mut bad = good.clone();
        bad.scheme = 7;
        assert!(q.load_quant_payload(&bad).is_err());
        let mut bad = good.clone();
        bad.bits = 8;
        assert!(q.load_quant_payload(&bad).is_err());
        let mut bad = good.clone();
        bad.scales.push(1.0);
        assert!(q.load_quant_payload(&bad).is_err());
        let mut bad = good.clone();
        bad.levels.pop();
        assert!(q.load_quant_payload(&bad).is_err());
        assert!(q.load_quant_payload(&good).is_ok());
    }

    #[test]
    fn config_rejects_bad_bits() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let q =
            QuantizedSpectralDense::from_matrix(&m, Tensor::zeros(&[4]), QuantBits::Sixteen);
        let mut config = q.config_bytes();
        // Overwrite the bits field (4th u32) with an unsupported width —
        // 12 included: int12 files (written before the rung was removed)
        // are refused typed, not reinterpreted.
        for bad in [10u32, 12] {
            config[12..16].copy_from_slice(&bad.to_le_bytes());
            assert!(matches!(
                quantized_spectral_dense_from_config(&config),
                Err(NnError::ModelFormat(_))
            ));
        }
        assert!(quantized_spectral_dense_from_config(&q.config_bytes()).is_ok());
    }
}
