//! Block-circulant matrices and their FFT-based linear algebra — the
//! mathematical object at the heart of the paper (§IV).
//!
//! A logical `in_dim × out_dim` matrix is represented by a grid of
//! `b × b` circulant blocks, each defined by a length-`b` vector; storage
//! drops from `O(m·n)` to `O(m·n / b)` and every product runs through the
//! "FFT → component-wise multiplication → IFFT" kernel in `O(n log n)`.
//!
//! The forward product is not written here: `forward_batch`,
//! `forward_batch_infer` and `matvec` (and the FC, CONV and GRU layers on
//! top) all end in [`SpectralKernel::product`] on the cached weight
//! spectra, differing only in which input spectra a row reads. Nor is the
//! backward one: `backward_batch` (Algorithm 2) is that product over the
//! adjoint spectra plus [`SpectralKernel::weight_gradient`], both reading
//! the `X̂` a keeping forward pass retained.
//!
//! Conventions (documented in DESIGN.md §3): a circulant block `C` defined
//! by `w` acts as `C·x = w ⊛ x` (circular convolution). In the row-vector
//! batch convention used by the layers (`y = x·W`), the equivalent dense
//! matrix has `W[j·b + q][i·b + p] = w_ij[(p − q) mod b]`, where `i`
//! indexes output blocks and `j` input blocks. Dimensions that are not
//! multiples of `b` are zero-padded, as the paper's footnote prescribes.
//!
//! That padding is written once, in [`BlockGrid`], the geometry under the
//! matrix and under every circulant layer: with it come the zero-size
//! checks, the `[in, out, block]` config words, the `[rows, in_dim]` input
//! screen, the shapes a weight store is built to and Algorithm 1's
//! multiply count, which the platform model behind Tables II / III reads.

use crate::error::CirculantError;
use crate::spectral::{
    identity_view, Adjoint, BlockBuffers, BlockWeights, CirculantScratch, SpectralKernel, Spectrum,
};
use ffdl_fft::Complex32;
use ffdl_nn::{wire, NnError, OpCost};
use ffdl_rng::Rng;
use ffdl_tensor::{Init, Tensor};
use std::sync::{Arc, OnceLock};

/// A logical `in_dim × out_dim` matrix cut into `⌈in/b⌉ × ⌈out/b⌉` blocks
/// of size `b`, with the transform engine of that size.
#[derive(Clone)]
pub(crate) struct BlockGrid {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    pub(crate) block: usize,
    pub(crate) kb_in: usize,
    pub(crate) kb_out: usize,
    pub(crate) kernel: SpectralKernel,
}

impl BlockGrid {
    /// `Err` when any size is zero.
    pub(crate) fn new(in_dim: usize, out_dim: usize, block: usize) -> Result<Self, CirculantError> {
        let sizes = [in_dim, out_dim, block];
        let what = ["input dimension", "output dimension", "block size"];
        if let Some(at) = sizes.iter().position(|&size| size == 0) {
            return Err(CirculantError::ZeroDimension(what[at]));
        }
        let (kb_in, kb_out) = (in_dim.div_ceil(block), out_dim.div_ceil(block));
        Ok(Self {
            in_dim,
            out_dim,
            block,
            kb_in,
            kb_out,
            kernel: SpectralKernel::new(block),
        })
    }

    /// Reads the words [`Self::config_bytes`] wrote, leaving `config` at
    /// the layer's own tail.
    pub(crate) fn read_config(config: &mut &[u8]) -> Result<Self, NnError> {
        let mut word = || wire::read_u32(config).map(|v| v as usize);
        let (in_dim, out_dim, block) = (word()?, word()?, word()?);
        Self::new(in_dim, out_dim, block).map_err(|e| NnError::ModelFormat(e.to_string()))
    }

    /// The config words `[in_dim, out_dim, block]`, then `tail`.
    pub(crate) fn config_bytes(&self, tail: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &v in [self.in_dim as u32, self.out_dim as u32, self.block as u32]
            .iter()
            .chain(tail)
        {
            wire::write_u32(&mut buf, v).expect("vec write is infallible");
        }
        buf
    }

    /// `Err` unless `input` is `[rows, in_dim]` — the input screen of
    /// every layer whose rows are the grid's inputs.
    pub(crate) fn check_input(&self, layer: &str, input: &Tensor) -> Result<(), NnError> {
        if input.ndim() != 2 || input.cols() != self.in_dim {
            return Err(NnError::BadInput {
                layer: layer.into(),
                message: format!("expected [rows, {}], got {:?}", self.in_dim, input.shape()),
            });
        }
        Ok(())
    }

    /// `[kb_out, kb_in, b]`: the defining vectors.
    pub(crate) fn weight_shape(&self) -> [usize; 3] {
        [self.kb_out, self.kb_in, self.block]
    }

    /// `[kb_out, kb_in, bins]`: the weight spectra (twice as many reals,
    /// re / im interleaved, on the wire and as fixed-point levels).
    pub(crate) fn spectra_shape(&self) -> [usize; 3] {
        [self.kb_out, self.kb_in, self.kernel.bins()]
    }

    /// Real multiplies of one length-`b` transform, `b·⌈log₂(b + 1)⌉`.
    fn transform_mults(&self) -> u64 {
        let b = self.block as u64;
        b * (64 - b.leading_zeros() as u64).max(1)
    }

    /// Multiplies of one row's product on precomputed weight spectra
    /// (Algorithm 1): a transform per input and per output block, and a
    /// complex multiply-accumulate (4 real multiplies) per bin per block
    /// pair.
    pub(crate) fn row_mults(&self) -> u64 {
        let (kb_in, kb_out) = (self.kb_in as u64, self.kb_out as u64);
        (kb_in + kb_out) * self.transform_mults() + kb_in * kb_out * self.kernel.bins() as u64 * 4
    }

    /// Multiplies of transforming the weights: one transform per block pair.
    pub(crate) fn weight_mults(&self) -> u64 {
        (self.kb_in * self.kb_out) as u64 * self.transform_mults()
    }

    /// The cost of a layer mapping one row through the grid: `mults`, an
    /// add per multiply plus the bias, and the row in and out.
    pub(crate) fn row_cost(&self, mults: u64, param_reads: u64) -> OpCost {
        OpCost {
            mults,
            adds: mults + self.out_dim as u64,
            nonlin: 0,
            param_reads,
            act_traffic: (self.in_dim + self.out_dim) as u64,
        }
    }

    /// `out = epilogue(x·W)`: [`SpectralKernel::rows_product`] over the
    /// `[rows, in_dim]` rows of `x` into the `[rows, out_dim]` `out`.
    pub(crate) fn rows_product<'s, W: BlockWeights + ?Sized>(
        &self,
        weights: &W,
        x: &Tensor,
        sc: &'s mut CirculantScratch,
        out: &mut Tensor,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) -> &'s [Complex32] {
        let (x, y) = (
            (x.as_slice(), self.in_dim),
            (out.as_mut_slice(), self.out_dim),
        );
        self.kernel.rows_product(weights, x, y, sc, epilogue)
    }
}

/// The input spectra `X̂` of a forward pass, consumed by the backward
/// pass (Algorithm 2 reuses `FFT(x)`).
pub struct ForwardCache {
    /// Flat `[rows · in_blocks, bins]`, as the forward pass computed it.
    pub(crate) x_hat: Vec<Complex32>,
    pub(crate) rows: usize,
}

impl ForwardCache {
    /// Number of cached samples.
    pub fn batch(&self) -> usize {
        self.rows
    }
}

/// A logical `in_dim × out_dim` matrix stored as a grid of circulant
/// blocks (row-vector convention: `y = x·W`).
///
/// # Examples
///
/// ```
/// use ffdl_core::BlockCirculantMatrix;
/// use ffdl_rng::SeedableRng;
///
/// let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(0);
/// let m = BlockCirculantMatrix::random(8, 8, 4, &mut rng)?;
/// assert_eq!(m.param_count(), 4 * 4); // (8/4)·(8/4) blocks × 4 values
/// assert_eq!(m.logical_param_count(), 64);
/// assert_eq!(m.compression_ratio(), 4.0);
/// # Ok::<(), ffdl_core::CirculantError>(())
/// ```
#[derive(Clone)]
pub struct BlockCirculantMatrix {
    grid: BlockGrid,
    /// Defining vectors, shape `[kb_out, kb_in, block]`.
    weights: Tensor,
    /// Lazily computed weight spectra, shared across clones (an Arc
    /// pointer bump) and invalidated whenever the weights are touched
    /// through [`BlockCirculantMatrix::weights_mut`].
    spectra_cache: OnceLock<Arc<Vec<Vec<Spectrum>>>>,
}

impl BlockCirculantMatrix {
    /// Creates a zero matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::ZeroDimension`] when any size is zero.
    pub fn zeros(in_dim: usize, out_dim: usize, block: usize) -> Result<Self, CirculantError> {
        BlockGrid::new(in_dim, out_dim, block).map(Self::from_grid)
    }

    /// The zero matrix of `grid`.
    pub(crate) fn from_grid(grid: BlockGrid) -> Self {
        let weights = Tensor::zeros(&grid.weight_shape());
        Self {
            grid,
            weights,
            spectra_cache: OnceLock::new(),
        }
    }

    /// Creates a matrix with Xavier-scaled random defining vectors.
    ///
    /// The fan used for scaling is the *logical* (padded) fan, so the
    /// expanded dense equivalent has the variance Xavier prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::ZeroDimension`] when any size is zero.
    pub fn random<R: Rng>(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        rng: &mut R,
    ) -> Result<Self, CirculantError> {
        let mut m = Self::zeros(in_dim, out_dim, block)?;
        let (shape, fans) = (
            m.grid.weight_shape(),
            (m.grid.kb_in * block, m.grid.kb_out * block),
        );
        m.weights = Init::XavierUniform.sample(&shape, fans.0, fans.1, rng);
        Ok(m)
    }

    /// Creates a matrix from explicit defining vectors of shape
    /// `[out_blocks, in_blocks, block]`.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError`] variants on inconsistent geometry.
    pub fn from_weights(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        weights: Tensor,
    ) -> Result<Self, CirculantError> {
        let grid = BlockGrid::new(in_dim, out_dim, block)?;
        if weights.shape() != grid.weight_shape() {
            return Err(CirculantError::GridMismatch {
                message: format!(
                    "weights shape {:?}, expected {:?}",
                    weights.shape(),
                    grid.weight_shape()
                ),
            });
        }
        Ok(Self {
            grid,
            weights,
            spectra_cache: OnceLock::new(),
        })
    }

    /// The block geometry.
    pub(crate) fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Logical input dimension.
    pub fn in_dim(&self) -> usize {
        self.grid.in_dim
    }

    /// Logical output dimension.
    pub fn out_dim(&self) -> usize {
        self.grid.out_dim
    }

    /// Block size `b`.
    pub fn block(&self) -> usize {
        self.grid.block
    }

    /// Number of input blocks (`⌈in/b⌉`).
    pub fn in_blocks(&self) -> usize {
        self.grid.kb_in
    }

    /// Number of output blocks (`⌈out/b⌉`).
    pub fn out_blocks(&self) -> usize {
        self.grid.kb_out
    }

    /// The defining vectors, shape `[out_blocks, in_blocks, block]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Mutable defining vectors (the optimizer's handle).
    ///
    /// Taking this handle invalidates the cached weight spectra: the next
    /// product recomputes them. Clones holding the previous `Arc` keep
    /// using the old spectra — weights are immutable from their
    /// perspective.
    pub fn weights_mut(&mut self) -> &mut Tensor {
        self.spectra_cache = OnceLock::new();
        &mut self.weights
    }

    /// The defining vector of block `(out_block, in_block)`.
    ///
    /// # Panics
    ///
    /// Panics when indices are out of range.
    pub fn block_vector(&self, out_block: usize, in_block: usize) -> &[f32] {
        assert!(out_block < self.grid.kb_out && in_block < self.grid.kb_in);
        let start = (out_block * self.grid.kb_in + in_block) * self.grid.block;
        &self.weights.as_slice()[start..start + self.grid.block]
    }

    /// Stored parameter count: `out_blocks · in_blocks · b`.
    pub fn param_count(&self) -> usize {
        self.grid.weight_shape().iter().product()
    }

    /// Parameters of the equivalent dense matrix: `in_dim · out_dim`.
    pub fn logical_param_count(&self) -> usize {
        self.grid.in_dim * self.grid.out_dim
    }

    /// Storage compression `logical / stored` (≈ `b` when dimensions
    /// divide evenly).
    pub fn compression_ratio(&self) -> f32 {
        self.logical_param_count() as f32 / self.param_count() as f32
    }

    /// Precomputed weight spectra, indexed `[out_block][in_block]` — the
    /// quantity the paper stores for inference instead of `W`.
    pub fn weight_spectra(&self) -> Vec<Vec<Spectrum>> {
        (0..self.grid.kb_out)
            .map(|i| {
                (0..self.grid.kb_in)
                    .map(|j| self.grid.kernel.spectrum(self.block_vector(i, j)))
                    .collect()
            })
            .collect()
    }

    /// Cached, reference-counted weight spectra. Computed on first use
    /// and shared by every clone until [`Self::weights_mut`] invalidates
    /// it, so steady-state products never re-transform the weights.
    pub fn shared_weight_spectra(&self) -> Arc<Vec<Vec<Spectrum>>> {
        Arc::clone(
            self.spectra_cache
                .get_or_init(|| Arc::new(self.weight_spectra())),
        )
    }

    /// `Err` unless `t` is `[batch, cols]`.
    fn check_rows(&self, what: &str, t: &Tensor, cols: usize) -> Result<(), CirculantError> {
        if t.ndim() != 2 || t.cols() != cols {
            return Err(CirculantError::GridMismatch {
                message: format!("{what} shape {:?}, expected [batch, {cols}]", t.shape()),
            });
        }
        Ok(())
    }

    /// `out = epilogue(X̂·Ŵ)`: [`SpectralKernel::product`] on the cached
    /// weight spectra, over input spectra the caller transformed (the
    /// CONV layer's spectral image, the GRU's shared `x̂` and `ĥ`). `out`
    /// holds rows of `out_dim` values.
    pub(crate) fn product(
        &self,
        x_hat: (&[Complex32], impl Fn(usize, &mut Vec<usize>)),
        out: &mut [f32],
        bufs: &mut BlockBuffers,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) {
        let weights = self.shared_weight_spectra();
        self.grid.kernel.product(
            &weights[..],
            x_hat,
            (out, self.grid.out_dim),
            bufs,
            epilogue,
        );
    }

    /// `out = epilogue(x·W)`, both halves of Algorithm 1 over the rows of
    /// `x` — the body of every forward entry point below and of the FC
    /// layer built on this matrix. The caller has checked that `x` is
    /// `[batch, in_dim]` and shaped `out` as `[batch, out_dim]`. Returns
    /// the `X̂` it computed: a [`ForwardCache`] is a copy of it.
    pub(crate) fn rows_product<'s>(
        &self,
        x: &Tensor,
        scratch: &'s mut CirculantScratch,
        out: &mut Tensor,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) -> &'s [Complex32] {
        self.grid
            .rows_product(&self.shared_weight_spectra()[..], x, scratch, out, epilogue)
    }

    /// Batched product `Y = X·W` through the FFT kernel (Algorithm 1,
    /// generalized to a block grid), returning the output and the cache
    /// the backward pass reuses.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::GridMismatch`] when `x` is not
    /// `[batch, in_dim]`.
    pub fn forward_batch(&self, x: &Tensor) -> Result<(Tensor, ForwardCache), CirculantError> {
        self.check_rows("input", x, self.grid.in_dim)?;
        let mut out = Tensor::zeros(&[x.rows(), self.grid.out_dim]);
        let x_hat = self
            .rows_product(x, &mut CirculantScratch::new(), &mut out, |_, _, v| v)
            .to_vec();
        Ok((out, ForwardCache { x_hat, rows: x.rows() }))
    }

    /// Inference-only batched product `Y = X·W` writing into `out`: the
    /// same call as [`Self::forward_batch`] (bit-identical), except that
    /// the input spectra are left in `scratch` for the next call to
    /// overwrite, like every other intermediate. After a warmup
    /// call, steady-state invocations perform zero heap allocations, at
    /// any block size.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::GridMismatch`] when `x` is not
    /// `[batch, in_dim]`; `out` is reshaped only on success paths.
    pub fn forward_batch_infer(
        &self,
        x: &Tensor,
        scratch: &mut CirculantScratch,
        out: &mut Tensor,
    ) -> Result<(), CirculantError> {
        self.check_rows("input", x, self.grid.in_dim)?;
        out.reuse_as(&[x.rows(), self.grid.out_dim]);
        self.rows_product(x, scratch, out, |_, _, v| v);
        Ok(())
    }

    /// Batched backward pass (Algorithm 2, generalized): given the cache
    /// from [`Self::forward_batch`] and the upstream gradient
    /// `g = ∂L/∂Y` of shape `[batch, out_dim]`, returns
    /// `(∂L/∂X of shape [batch, in_dim], ∂L/∂w of shape
    /// [out_blocks, in_blocks, block])`, both accumulated over the batch.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::GridMismatch`] on shape or batch
    /// mismatches, and when `cache` was not produced by a matrix of this
    /// geometry.
    pub fn backward_batch(
        &self,
        cache: &ForwardCache,
        grad_out: &Tensor,
    ) -> Result<(Tensor, Tensor), CirculantError> {
        self.check_rows("gradient", grad_out, self.grid.out_dim)?;
        let (batch, bins) = (grad_out.rows(), self.grid.kernel.bins());
        if batch != cache.rows || cache.x_hat.len() != batch * self.grid.kb_in * bins {
            return Err(CirculantError::GridMismatch {
                message: format!(
                    "gradient batch {batch}, but the cache holds {} rows ({} values): not the input spectra of this matrix",
                    cache.rows,
                    cache.x_hat.len()
                ),
            });
        }
        Ok(self.backward_rows((&cache.x_hat, identity_view(self.grid.kb_in)), grad_out))
    }

    /// Algorithm 2 on Algorithm 1's two halves, over the `X̂` and the view
    /// the forward pass read: `∂L/∂x = g·Wᴴ` is the rows' product on the
    /// other side of the matrix (`∂L/∂xⱼ = Σᵢ corr(gᵢ, wᵢⱼ)`), and the `Ĝ`
    /// it computed gives `∂L/∂wᵢⱼ = Σₛ corr(gᵢ, xⱼ)`. The caller has
    /// checked that `grad_out` is `[rows, out_dim]` and that the view
    /// stays inside `x_hat`.
    pub(crate) fn backward_rows(
        &self,
        x_hat: (&[Complex32], impl Fn(usize, &mut Vec<usize>)),
        grad_out: &Tensor,
    ) -> (Tensor, Tensor) {
        let mut sc = CirculantScratch::new();
        let mut grad_x = Tensor::zeros(&[grad_out.rows(), self.grid.in_dim]);
        let g_hat = self.grid.kernel.rows_product(
            &Adjoint(&self.shared_weight_spectra()),
            (grad_out.as_slice(), self.grid.out_dim),
            (grad_x.as_mut_slice(), self.grid.in_dim),
            &mut sc,
            |_, _, v| v,
        );
        let mut grad_w = Tensor::zeros(&self.grid.weight_shape());
        self.grid
            .kernel
            .weight_gradient((g_hat, self.grid.kb_out), x_hat, grad_w.as_mut_slice());
        (grad_x, grad_w)
    }

    /// Single-vector product `y = x·W` (convenience over
    /// [`Self::forward_batch_infer`]).
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError::GridMismatch`] when `x.len() != in_dim`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, CirculantError> {
        let t = Tensor::from_vec(x.to_vec(), &[1, x.len()]).map_err(|_| {
            CirculantError::GridMismatch {
                message: "input is empty".into(),
            }
        })?;
        let mut y = Tensor::zeros(&[0]);
        self.forward_batch_infer(&t, &mut CirculantScratch::new(), &mut y)?;
        Ok(y.into_vec())
    }

    /// Expands to the equivalent dense matrix of shape
    /// `[in_dim, out_dim]` (row-vector convention) — the `O(n²)` object
    /// the compression replaces; used by tests and the dense baselines.
    pub fn to_dense(&self) -> Tensor {
        let b = self.grid.block;
        let mut dense = Tensor::zeros(&[self.grid.in_dim, self.grid.out_dim]);
        for i in 0..self.grid.kb_out {
            for j in 0..self.grid.kb_in {
                let w = self.block_vector(i, j);
                for p in 0..b {
                    let col = i * b + p;
                    if col >= self.grid.out_dim {
                        continue;
                    }
                    for q in 0..b {
                        let row = j * b + q;
                        if row >= self.grid.in_dim {
                            continue;
                        }
                        *dense.at_mut(&[row, col]) = w[(p + b - q) % b];
                    }
                }
            }
        }
        dense
    }

    /// Projects a dense `[in_dim, out_dim]` matrix onto the nearest
    /// block-circulant matrix (least squares): each defining-vector entry
    /// is the mean of the dense entries on its circulant diagonal,
    /// restricted to the logical (unpadded) region.
    ///
    /// This enables compress-then-fine-tune workflows on pretrained dense
    /// models, complementing the paper's train-from-scratch recipe.
    ///
    /// # Errors
    ///
    /// Returns [`CirculantError`] variants on malformed inputs.
    pub fn project_from_dense(dense: &Tensor, block: usize) -> Result<Self, CirculantError> {
        if dense.ndim() != 2 {
            return Err(CirculantError::GridMismatch {
                message: format!("dense matrix must be rank 2, got {:?}", dense.shape()),
            });
        }
        let (in_dim, out_dim) = (dense.rows(), dense.cols());
        let mut m = Self::zeros(in_dim, out_dim, block)?;
        let b = block;
        let mut weights = Tensor::zeros(&m.grid.weight_shape());
        for i in 0..m.grid.kb_out {
            for j in 0..m.grid.kb_in {
                let mut sums = vec![0.0f32; b];
                let mut counts = vec![0u32; b];
                for p in 0..b {
                    let col = i * b + p;
                    if col >= out_dim {
                        continue;
                    }
                    for q in 0..b {
                        let row = j * b + q;
                        if row >= in_dim {
                            continue;
                        }
                        let d = (p + b - q) % b;
                        sums[d] += dense.at(&[row, col]);
                        counts[d] += 1;
                    }
                }
                for d in 0..b {
                    if counts[d] > 0 {
                        *weights.at_mut(&[i, j, d]) = sums[d] / counts[d] as f32;
                    }
                }
            }
        }
        m.weights = weights;
        Ok(m)
    }
}

impl std::fmt::Debug for BlockCirculantMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCirculantMatrix")
            .field("in_dim", &self.grid.in_dim)
            .field("out_dim", &self.grid.out_dim)
            .field("block", &self.grid.block)
            .field("stored_params", &self.param_count())
            .field("compression", &self.compression_ratio())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_rng::prop::check;
    use ffdl_rng::prop_assert;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(13)
    }

    fn sample_input(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 7 + 3) % 19) as f32 * 0.1 - 0.9)
    }

    #[test]
    fn matvec_matches_dense_expansion_square() {
        for (n, b) in [(8usize, 4usize), (8, 8), (6, 3), (12, 4), (8, 1)] {
            let m = BlockCirculantMatrix::random(n, n, b, &mut rng()).unwrap();
            let dense = m.to_dense();
            let x = sample_input(1, n);
            let fast = m.matvec(x.row(0)).unwrap();
            let slow = Tensor::from_vec(x.row(0).to_vec(), &[n])
                .unwrap();
            let slow = dense.transpose().unwrap().matvec(&slow).unwrap();
            for (a, v) in fast.iter().zip(slow.as_slice()) {
                assert!((a - v).abs() < 1e-3, "n={n} b={b}: {a} vs {v}");
            }
        }
    }

    #[test]
    fn matvec_matches_dense_rectangular_and_padded() {
        // Includes non-divisible dims exercising zero padding (the paper's
        // footnote) and non-power-of-two blocks (Bluestein path).
        for (in_dim, out_dim, b) in [
            (8usize, 4usize, 4usize),
            (4, 8, 4),
            (10, 6, 4),  // padding on both sides
            (7, 5, 3),   // nothing divides
            (121, 64, 11), // Arch-2-like odd sizes
        ] {
            let m = BlockCirculantMatrix::random(in_dim, out_dim, b, &mut rng()).unwrap();
            let dense = m.to_dense();
            let x = sample_input(1, in_dim);
            let fast = m.matvec(x.row(0)).unwrap();
            let xv = Tensor::from_vec(x.row(0).to_vec(), &[in_dim]).unwrap();
            let slow = dense.transpose().unwrap().matvec(&xv).unwrap();
            for (k, (a, v)) in fast.iter().zip(slow.as_slice()).enumerate() {
                assert!(
                    (a - v).abs() < 2e-3,
                    "in={in_dim} out={out_dim} b={b} k={k}: {a} vs {v}"
                );
            }
        }
    }

    #[test]
    fn block_one_is_elementwise_scaling_grid() {
        // b = 1: every "circulant block" is a scalar — a fully dense matrix.
        let m = BlockCirculantMatrix::random(3, 2, 1, &mut rng()).unwrap();
        assert_eq!(m.param_count(), 6);
        assert_eq!(m.compression_ratio(), 1.0);
    }

    #[test]
    fn param_accounting() {
        let m = BlockCirculantMatrix::zeros(128, 128, 64).unwrap();
        assert_eq!(m.param_count(), 2 * 2 * 64);
        assert_eq!(m.logical_param_count(), 128 * 128);
        assert_eq!(m.compression_ratio(), 64.0);
        // Padded case: 121 → 2 blocks of 64.
        let m = BlockCirculantMatrix::zeros(121, 64, 64).unwrap();
        assert_eq!(m.in_blocks(), 2);
        assert_eq!(m.out_blocks(), 1);
        assert_eq!(m.param_count(), 2 * 64);
    }

    #[test]
    fn forward_batch_shapes_and_rows_independent() {
        let m = BlockCirculantMatrix::random(10, 6, 4, &mut rng()).unwrap();
        let x = sample_input(3, 10);
        let (y, cache) = m.forward_batch(&x).unwrap();
        assert_eq!(y.shape(), &[3, 6]);
        assert_eq!(cache.batch(), 3);
        let single = Tensor::from_vec(x.row(1).to_vec(), &[1, 10]).unwrap();
        let (y1, _) = m.forward_batch(&single).unwrap();
        for (a, v) in y1.as_slice().iter().zip(y.row(1)) {
            assert!((a - v).abs() < 1e-5);
        }
    }

    /// Algorithm 2 against the dense expansion `W = to_dense()`, on random
    /// geometries (padded on either side; power-of-two, odd and
    /// chirp-transform blocks): `∂L/∂x = g·Wᵀ`, and `∂L/∂wᵢⱼ[d]` is the
    /// sum of `∂L/∂W = xᵀ·g` over the entries `wᵢⱼ[d]` was expanded to.
    #[test]
    fn backward_matches_dense_gradients() {
        let geometry = |rng: &mut SmallRng| {
            let (in_dim, out_dim) = (rng.gen_range(1usize..=24), rng.gen_range(1usize..=24));
            (in_dim, out_dim, rng.gen_range(1usize..=12), rng.gen_range(1usize..=4), rng.gen_range(0u64..1000))
        };
        check("backward_matches_dense_gradients", 60, geometry, |&(in_dim, out_dim, b, batch, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = BlockCirculantMatrix::random(in_dim, out_dim, b, &mut rng).unwrap();
            let x = sample_input(batch, in_dim);
            let (g, cache) = m.forward_batch(&x).unwrap(); // L = ‖y‖²/2 → ∂L/∂y = y
            let (gx, gw) = m.backward_batch(&cache, &g).unwrap();

            let gx_ref = g.matmul(&m.to_dense().transpose().unwrap()).unwrap();
            let gw_dense = x.transpose().unwrap().matmul(&g).unwrap();
            let mut gw_ref = Tensor::zeros(gw.shape());
            for row in 0..in_dim {
                for col in 0..out_dim {
                    let d = (col % b + b - row % b) % b;
                    *gw_ref.at_mut(&[col / b, row / b, d]) += gw_dense.at(&[row, col]);
                }
            }
            for (what, got, want) in [("dx", &gx, &gx_ref), ("dw", &gw, &gw_ref)] {
                let tol = 1e-5 * (1.0 + want.max_abs());
                for (k, (a, v)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    prop_assert!((a - v).abs() < tol, "{what}[{k}]: {a} vs {v}");
                }
            }
            Ok(())
        });
    }

    #[test]
    fn forward_batch_infer_matches_forward_batch() {
        for (in_dim, out_dim, b) in [(10usize, 6usize, 4usize), (8, 8, 4), (7, 5, 3)] {
            let m = BlockCirculantMatrix::random(in_dim, out_dim, b, &mut rng()).unwrap();
            let x = sample_input(3, in_dim);
            let (expected, _) = m.forward_batch(&x).unwrap();
            let mut scratch = CirculantScratch::new();
            let mut out = Tensor::zeros(&[0]);
            m.forward_batch_infer(&x, &mut scratch, &mut out).unwrap();
            assert_eq!(out.shape(), expected.shape());
            assert_eq!(out.as_slice(), expected.as_slice(), "bit-identical");
            // Warm second call, same result.
            m.forward_batch_infer(&x, &mut scratch, &mut out).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice());
            // Shape validation.
            assert!(m
                .forward_batch_infer(&Tensor::zeros(&[2, in_dim + 1]), &mut scratch, &mut out)
                .is_err());
        }
    }

    #[test]
    fn spectra_cache_invalidated_by_weights_mut() {
        let mut m = BlockCirculantMatrix::random(8, 8, 4, &mut rng()).unwrap();
        let x = sample_input(1, 8);
        let (y0, _) = m.forward_batch(&x).unwrap();
        let first = m.shared_weight_spectra();
        assert!(Arc::ptr_eq(&first, &m.shared_weight_spectra()));
        m.weights_mut().as_mut_slice()[0] += 1.0;
        let second = m.shared_weight_spectra();
        assert!(!Arc::ptr_eq(&first, &second), "cache must be invalidated");
        let (y1, _) = m.forward_batch(&x).unwrap();
        assert_ne!(y0.as_slice(), y1.as_slice());
    }

    #[test]
    fn clone_shares_weight_buffer_and_spectra() {
        let m = BlockCirculantMatrix::random(8, 8, 4, &mut rng()).unwrap();
        let spectra = m.shared_weight_spectra();
        let c = m.clone();
        assert!(m.weights().shares_buffer(c.weights()));
        assert!(Arc::ptr_eq(&spectra, &c.shared_weight_spectra()));
        let x = sample_input(2, 8);
        let (ya, _) = m.forward_batch(&x).unwrap();
        let (yb, _) = c.forward_batch(&x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn constructors_validate() {
        assert!(BlockCirculantMatrix::zeros(0, 4, 2).is_err());
        assert!(BlockCirculantMatrix::zeros(4, 0, 2).is_err());
        assert!(BlockCirculantMatrix::zeros(4, 4, 0).is_err());
        assert!(
            BlockCirculantMatrix::from_weights(4, 4, 2, Tensor::zeros(&[1, 2, 2])).is_err()
        );
        assert!(
            BlockCirculantMatrix::from_weights(4, 4, 2, Tensor::zeros(&[2, 2, 2])).is_ok()
        );
    }

    #[test]
    fn forward_batch_validates_input() {
        let m = BlockCirculantMatrix::zeros(4, 4, 2).unwrap();
        assert!(m.forward_batch(&Tensor::zeros(&[2, 5])).is_err());
        assert!(m.forward_batch(&Tensor::zeros(&[4])).is_err());
        let (_, cache) = m.forward_batch(&Tensor::zeros(&[2, 4])).unwrap();
        assert!(m.backward_batch(&cache, &Tensor::zeros(&[2, 5])).is_err());
        assert!(m.backward_batch(&cache, &Tensor::zeros(&[3, 4])).is_err());
        // A cache of the right batch from a matrix of another geometry is
        // refused, not read short (it once gave a zero last gradient block).
        let wider = BlockCirculantMatrix::zeros(6, 4, 2).unwrap();
        assert!(matches!(
            wider.backward_batch(&cache, &Tensor::zeros(&[2, 4])),
            Err(CirculantError::GridMismatch { .. })
        ));
    }

    #[test]
    fn projection_recovers_exactly_circulant_matrix() {
        let m = BlockCirculantMatrix::random(8, 6, 2, &mut rng()).unwrap();
        let dense = m.to_dense();
        let projected = BlockCirculantMatrix::project_from_dense(&dense, 2).unwrap();
        for (a, v) in projected
            .weights()
            .as_slice()
            .iter()
            .zip(m.weights().as_slice())
        {
            assert!((a - v).abs() < 1e-5, "{a} vs {v}");
        }
    }

    #[test]
    fn projection_is_least_squares_on_diagonals() {
        // For a 2×2 single block, entries on each circulant diagonal are
        // averaged.
        let dense = Tensor::from_vec(vec![1.0, 2.0, 4.0, 3.0], &[2, 2]).unwrap();
        // Layout (row=input q, col=output p): W[q][p] = w[(p−q) mod 2]
        // d=0 diagonal: (0,0)=1 and (1,1)=3 → w[0]=2; d=1: (0,1)=2,(1,0)=4 → w[1]=3.
        let m = BlockCirculantMatrix::project_from_dense(&dense, 2).unwrap();
        assert_eq!(m.weights().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn projection_validates_rank() {
        assert!(BlockCirculantMatrix::project_from_dense(&Tensor::zeros(&[4]), 2).is_err());
    }

    #[test]
    fn spectra_shapes() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let spec = m.weight_spectra();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].len(), 2);
        assert_eq!(spec[0][0].len(), 3); // 4/2 + 1
    }

    #[test]
    fn debug_shows_compression() {
        let m = BlockCirculantMatrix::zeros(64, 64, 16).unwrap();
        let s = format!("{m:?}");
        assert!(s.contains("compression"));
    }
}
