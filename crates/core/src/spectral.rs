//! The spectral kernel: half-spectrum FFT plumbing shared by every
//! block-circulant layer, and **Algorithm 1 itself, written once**.
//!
//! All signals in the paper's layers are real, so the kernel works on the
//! non-redundant `b/2 + 1` bins and performs the three frequency-domain
//! primitives of Algorithms 1–2:
//!
//! - `acc += FFT(w) ∘ FFT(x)` — forward (circular convolution),
//! - `acc += FFT(g) ∘ conj(FFT(·))` — both gradients (circular correlation).
//!
//! [`SpectralKernel::block_product`] is the one block-spectral product
//! under every circulant layer — training and frozen, `f32` and
//! fixed-point, FC, CONV and recurrent (DESIGN.md "Algorithm 1, once").
//! The layers differ only in what they hand it: where a weight bin comes
//! from ([`BlockWeights`]), what is done to an output value (the
//! epilogue) and whether a row's input spectra are kept for the backward
//! pass ([`InputSpectra`]).

use ffdl_fft::{Complex32, RealFft};

/// A half-spectrum vector for a fixed block size.
pub type Spectrum = Vec<Complex32>;

/// Reusable buffers of the block-circulant product (Algorithm 1): the
/// per-block input spectra of the current row plus the transform
/// intermediates. After a warmup call, steady-state inference reuses all
/// of them without touching the heap.
#[derive(Default)]
pub struct CirculantScratch {
    /// Per-input-block spectra of the current row.
    pub(crate) x_spec: Vec<Spectrum>,
    /// Everything else the product writes through.
    pub(crate) bufs: BlockBuffers,
}

impl CirculantScratch {
    /// Creates an empty scratch set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The transform-side buffers of Algorithm 1 (everything but the input
/// spectra, which the training pass keeps and the inference pass reuses).
#[derive(Default)]
pub(crate) struct BlockBuffers {
    /// Packing intermediate for the real FFT.
    fft: Vec<Complex32>,
    /// Zero-padded input row (`blocks · b` long).
    padded: Vec<f32>,
    /// Frequency-domain accumulator for one output block.
    acc: Spectrum,
    /// Time-domain output block.
    y_block: Vec<f32>,
}

/// Where the input spectra of a row go: the one difference between the
/// inference pass and "the pass that records what `backward` needs".
pub(crate) enum InputSpectra<'a> {
    /// Inference: one row's spectra, overwritten by the next row.
    Reuse(&'a mut Vec<Spectrum>),
    /// Training: every row's spectra kept, `[row][input_block]` —
    /// Algorithm 2 reuses `FFT(x)`.
    Keep(&'a mut Vec<Vec<Spectrum>>),
}

/// Where Algorithm 1 reads the weight bins of block `(i, j)` from — the
/// only thing the `f32` and fixed-point layers disagree on inside the
/// loop.
pub(crate) trait BlockWeights {
    /// `acc += Ŵᵢⱼ ⊙ x`.
    fn accumulate(&self, acc: &mut [Complex32], i: usize, j: usize, x: &[Complex32]);
}

/// `f32` weight spectra, `spectra[out_block][in_block]`.
impl BlockWeights for [Vec<Spectrum>] {
    fn accumulate(&self, acc: &mut [Complex32], i: usize, j: usize, x: &[Complex32]) {
        SpectralKernel::mul_accumulate(acc, &self[i][j], x);
    }
}

/// Fixed-point weight spectra: interleaved re/im levels, block `(i, j)`
/// at `[(i·kb_in + j)·2·bins ..]`. The block scale is the epilogue's job.
pub(crate) struct LevelGrid<'a> {
    pub(crate) levels: &'a [i16],
    pub(crate) kb_in: usize,
}

impl BlockWeights for LevelGrid<'_> {
    fn accumulate(&self, acc: &mut [Complex32], i: usize, j: usize, x: &[Complex32]) {
        let len = 2 * acc.len();
        let base = (i * self.kb_in + j) * len;
        SpectralKernel::mul_accumulate_levels(acc, &self.levels[base..base + len], x);
    }
}

/// FFT engine for one block size `b`.
///
/// Owns the planned real-input transforms; layers create one kernel per
/// block size and reuse it for every block and every sample, matching the
/// paper's deployment pattern where the twiddle tables are effectively
/// constants.
#[derive(Clone)]
pub struct SpectralKernel {
    block: usize,
    plan: RealFft<f32>,
}

impl SpectralKernel {
    /// Builds a kernel for block size `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        Self {
            block,
            plan: RealFft::new(block),
        }
    }

    /// Block size `b`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of half-spectrum bins, `b/2 + 1`.
    pub fn bins(&self) -> usize {
        self.plan.spectrum_len()
    }

    /// Forward transform of one real block.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.block()`.
    pub fn spectrum(&self, x: &[f32]) -> Spectrum {
        self.plan.forward(x).expect("block length is fixed")
    }

    /// Inverse transform back to a real block.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.bins()`.
    pub fn inverse(&self, spec: &[Complex32]) -> Vec<f32> {
        self.plan.inverse(spec).expect("bin count is fixed")
    }

    /// Allocation-reusing variant of [`SpectralKernel::spectrum`]: writes
    /// the half spectrum into `out`, using `fft_scratch` for the packed
    /// intermediate. Steady-state calls perform no heap allocation once
    /// both vectors are warm (power-of-two blocks; Bluestein lengths
    /// still allocate inside the planned transform).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.block()`.
    pub fn spectrum_into(&self, x: &[f32], fft_scratch: &mut Vec<Complex32>, out: &mut Spectrum) {
        self.plan
            .forward_into(x, fft_scratch, out)
            .expect("block length is fixed");
    }

    /// Allocation-reusing variant of [`SpectralKernel::inverse`]: writes
    /// the real block into `out`, using `fft_scratch` for the complex
    /// intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.bins()`.
    pub fn inverse_into(
        &self,
        spec: &[Complex32],
        fft_scratch: &mut Vec<Complex32>,
        out: &mut Vec<f32>,
    ) {
        self.plan
            .inverse_into(spec, fft_scratch, out)
            .expect("bin count is fixed");
    }

    /// First stage of Algorithms 1 and 2: zero-pads `row` to whole
    /// blocks and writes one half spectrum per block into `spec`.
    pub(crate) fn row_spectra(&self, row: &[f32], bufs: &mut BlockBuffers, spec: &mut Vec<Spectrum>) {
        let blocks = row.len().div_ceil(self.block);
        bufs.padded.clear();
        bufs.padded.extend_from_slice(row);
        bufs.padded.resize(blocks * self.block, 0.0);
        // Grow only: a scratch shared by matrices of different widths
        // (the GRU's six) keeps its warm spectra instead of dropping them.
        spec.resize_with(blocks.max(spec.len()), Spectrum::new);
        for (chunk, s) in bufs.padded.chunks_exact(self.block).zip(spec.iter_mut()) {
            self.spectrum_into(chunk, &mut bufs.fft, s);
        }
    }

    /// Algorithm 1 over a batch of rows, `y = epilogue(x · W)`: per row,
    /// pad and transform the input blocks (into `x_spec`), then for each
    /// output block `i` zero the accumulator, add `Ŵᵢⱼ ⊙ X̂ⱼ` over `j`
    /// ascending, invert, and write `epilogue(i, k, value)` to output
    /// position `k` of the un-padded row. `x` holds rows of `in_dim`
    /// values, `y` rows of `out_dim`.
    ///
    /// Every circulant layer's forward pass is a call to this function,
    /// so the arithmetic and its order — and therefore every output bit —
    /// are the same on all of them.
    pub(crate) fn block_product<W: BlockWeights + ?Sized>(
        &self,
        weights: &W,
        (x, in_dim): (&[f32], usize),
        (y, out_dim): (&mut [f32], usize),
        mut x_spec: InputSpectra<'_>,
        bufs: &mut BlockBuffers,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) {
        let (kb_in, bins) = (in_dim.div_ceil(self.block), self.bins());
        if let InputSpectra::Keep(rows) = &mut x_spec {
            rows.resize_with(x.len() / in_dim, Vec::new);
        }
        for (s, (x_row, y_row)) in x.chunks_exact(in_dim).zip(y.chunks_exact_mut(out_dim)).enumerate() {
            let spec = match &mut x_spec {
                InputSpectra::Reuse(spec) => &mut **spec,
                InputSpectra::Keep(rows) => &mut rows[s],
            };
            self.row_spectra(x_row, bufs, spec);
            for (i, y_chunk) in y_row.chunks_mut(self.block).enumerate() {
                bufs.acc.clear();
                bufs.acc.resize(bins, Complex32::zero());
                for (j, x_j) in spec[..kb_in].iter().enumerate() {
                    weights.accumulate(&mut bufs.acc, i, j, x_j);
                }
                self.inverse_into(&bufs.acc, &mut bufs.fft, &mut bufs.y_block);
                for (k, (o, &v)) in y_chunk.iter_mut().zip(&bufs.y_block).enumerate() {
                    *o = epilogue(i, i * self.block + k, v);
                }
            }
        }
    }

    /// `acc[k] += a[k] · b[k]` — the component-wise multiplication at the
    /// centre of the "FFT → ∘ → IFFT" procedure (Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul_accumulate(acc: &mut [Complex32], a: &[Complex32], b: &[Complex32]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y;
        }
    }

    /// Accumulates the component-wise product of a *fixed-point* weight
    /// spectrum (interleaved re/im integer levels) and an `f32` input
    /// spectrum: `acc[k] += (levels[2k] + i·levels[2k+1]) · b[k]`.
    ///
    /// The quantization scale is deliberately **not** applied here — the
    /// quantized circulant kernel accumulates pure level-valued products
    /// over all input blocks and applies the block scale once per output
    /// block, so the weight tensor is never dequantized into a
    /// materialized `f32` copy.
    pub fn mul_accumulate_levels(acc: &mut [Complex32], levels: &[i16], b: &[Complex32]) {
        assert_eq!(levels.len(), 2 * acc.len());
        assert_eq!(acc.len(), b.len());
        for ((o, lv), &y) in acc.iter_mut().zip(levels.chunks_exact(2)).zip(b) {
            let w = Complex32::new(lv[0] as f32, lv[1] as f32);
            *o += w * y;
        }
    }

    /// `acc[k] += a[k] · conj(b[k])` — the correlation kernel of the
    /// backward pass (Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul_conj_accumulate(acc: &mut [Complex32], a: &[Complex32], b: &[Complex32]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y.conj();
        }
    }

    /// A zeroed accumulator of the right length.
    pub fn zero_accumulator(&self) -> Spectrum {
        vec![Complex32::zero(); self.bins()]
    }
}

impl std::fmt::Debug for SpectralKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectralKernel")
            .field("block", &self.block)
            .field("bins", &self.bins())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_fft::{circular_convolve_direct, circular_correlate_direct};

    fn signal(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|k| (k as f32 * seed).sin() + 0.2).collect()
    }

    #[test]
    fn roundtrip() {
        for b in [1usize, 2, 3, 8, 11, 64, 121, 128] {
            let k = SpectralKernel::new(b);
            let x = signal(b, 0.7);
            let back = k.inverse(&k.spectrum(&x));
            for (a, v) in back.iter().zip(&x) {
                assert!((a - v).abs() < 1e-4, "b={b}");
            }
        }
    }

    #[test]
    fn convolution_via_kernel_matches_direct() {
        for b in [4usize, 8, 16, 64] {
            let k = SpectralKernel::new(b);
            let w = signal(b, 1.3);
            let x = signal(b, 0.4);
            let mut acc = k.zero_accumulator();
            SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w), &k.spectrum(&x));
            let fast = k.inverse(&acc);
            let slow = circular_convolve_direct(&w, &x);
            for (a, v) in fast.iter().zip(&slow) {
                assert!((a - v).abs() < 1e-3, "b={b}: {a} vs {v}");
            }
        }
    }

    #[test]
    fn correlation_via_kernel_matches_direct() {
        let b = 16;
        let k = SpectralKernel::new(b);
        let g = signal(b, 0.9);
        let x = signal(b, 2.1);
        let mut acc = k.zero_accumulator();
        SpectralKernel::mul_conj_accumulate(&mut acc, &k.spectrum(&g), &k.spectrum(&x));
        let fast = k.inverse(&acc);
        let slow = circular_correlate_direct(&g, &x);
        for (a, v) in fast.iter().zip(&slow) {
            assert!((a - v).abs() < 1e-3);
        }
    }

    #[test]
    fn accumulation_sums_contributions() {
        let b = 8;
        let k = SpectralKernel::new(b);
        let w1 = signal(b, 0.3);
        let w2 = signal(b, 1.7);
        let x = signal(b, 0.8);
        let mut acc = k.zero_accumulator();
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w1), &k.spectrum(&x));
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w2), &k.spectrum(&x));
        let sum = k.inverse(&acc);
        let mut expected = circular_convolve_direct(&w1, &x);
        for (e, v) in expected.iter_mut().zip(circular_convolve_direct(&w2, &x)) {
            *e += v;
        }
        for (a, v) in sum.iter().zip(&expected) {
            assert!((a - v).abs() < 1e-3);
        }
    }

    #[test]
    fn bins_formula() {
        assert_eq!(SpectralKernel::new(8).bins(), 5);
        assert_eq!(SpectralKernel::new(7).bins(), 4);
        assert_eq!(SpectralKernel::new(1).bins(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_panics() {
        let _ = SpectralKernel::new(0);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", SpectralKernel::new(8)).is_empty());
    }
}
