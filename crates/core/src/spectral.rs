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
//! Algorithm 1 is cut in two halves (DESIGN.md "Algorithm 1, once").
//! [`SpectralKernel::spectra_of`] transforms contiguous `b`-blocks into one
//! flat buffer of spectra `X̂`; [`SpectralKernel::product`] is the one
//! block-spectral product under every circulant layer — training and
//! frozen, `f32` and fixed-point, FC, CONV and recurrent — and reads
//! "input block `j` of output row `s`" through a view, by *index* into
//! `X̂`. So one transform can serve several rows, several kernel offsets
//! (the CONV layer's spectral image) or several weight matrices (the
//! GRU's gates). The layers differ only in what they hand it: where a
//! weight bin comes from ([`BlockWeights`]), which spectra a row reads
//! (the view) and what is done to an output value (the epilogue).
//! Algorithm 2 is the same two halves on the gradient rows: its input
//! gradient is [`SpectralKernel::product`] over the [`Adjoint`] weights,
//! its weight gradient [`SpectralKernel::weight_gradient`] reading the
//! forward pass's `X̂` through the forward pass's view.

use ffdl_fft::{Complex32, RealFft};

/// A half-spectrum vector for a fixed block size.
pub type Spectrum = Vec<Complex32>;

/// Reusable buffers of the block-circulant product (Algorithm 1): the
/// input spectra of the current call plus the transform intermediates.
/// After a warmup call, steady-state inference reuses all of them
/// without touching the heap.
#[derive(Default)]
pub struct CirculantScratch {
    /// The input spectra `X̂`, flat `[slots, bins]`, grow-only: a scratch
    /// shared by calls of different sizes keeps its warm length.
    pub(crate) x_spec: Vec<Complex32>,
    /// Everything else the two halves write through.
    pub(crate) bufs: BlockBuffers,
}

impl CirculantScratch {
    /// Creates an empty scratch set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The buffers of Algorithm 1 other than the input spectra (which the
/// GRU holds two sets of at once).
#[derive(Default)]
pub(crate) struct BlockBuffers {
    /// Packing intermediate for the real FFT.
    fft: Vec<Complex32>,
    /// Zero-padded input rows (`blocks · b` each).
    padded: Vec<f32>,
    /// The view of the current output row: the slot in `X̂` of each of
    /// its input blocks.
    slots: Vec<usize>,
    /// Frequency-domain accumulator for one output block.
    acc: Spectrum,
    /// Time-domain output block.
    y_block: Vec<f32>,
}

/// The view of a row that reads its own `kb_in` spectra, rows laid out
/// one after another in `X̂` — every FC-shaped product.
pub(crate) fn identity_view(kb_in: usize) -> impl Fn(usize, &mut Vec<usize>) {
    move |s, slots| slots.extend(s * kb_in..(s + 1) * kb_in)
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

/// The same spectra read from the other side, `Ŵᴴ`: block `(j, i)` is
/// `conj(Ŵᵢⱼ)`, and the product over it is Algorithm 2's `∂L/∂x`.
pub(crate) struct Adjoint<'a>(pub(crate) &'a [Vec<Spectrum>]);

impl BlockWeights for Adjoint<'_> {
    fn accumulate(&self, acc: &mut [Complex32], j: usize, i: usize, g: &[Complex32]) {
        SpectralKernel::mul_conj_accumulate(acc, g, &self.0[i][j]);
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

    /// Allocation-reusing variant of [`SpectralKernel::spectrum`]: writes
    /// the half spectrum into `out`, using `fft_scratch` for the packed
    /// intermediate. Steady-state calls perform no heap allocation once
    /// both vectors are warm, at any block size.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.block()`.
    pub fn spectrum_into(&self, x: &[f32], fft_scratch: &mut Vec<Complex32>, out: &mut Spectrum) {
        self.plan
            .forward_into(x, fft_scratch, out)
            .expect("block length is fixed");
    }

    /// Inverse transform back to a real block: writes it into `out`,
    /// using `fft_scratch` for the complex intermediate.
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

    /// First half of Algorithms 1 and 2, and their only forward-transform
    /// loop: the rows of `x` (`in_dim` values each, zero-padded to whole
    /// blocks first when `b ∤ in_dim`) are transformed block by block into
    /// `spec`, flat `[slots, bins]` — block `j` of row `s` into slot
    /// `s · kb_in + j`. Returns the length filled: `spec` is grow-only, so
    /// a pass that keeps `X̂` keeps `spec[..len]`.
    pub(crate) fn spectra_of(
        &self,
        (x, in_dim): (&[f32], usize),
        bufs: &mut BlockBuffers,
        spec: &mut Vec<Complex32>,
    ) -> usize {
        let BlockBuffers { fft, padded, .. } = bufs;
        let (bins, width) = (self.bins(), in_dim.div_ceil(self.block) * self.block);
        let blocks = if width == in_dim {
            x
        } else {
            padded.clear();
            for row in x.chunks_exact(in_dim) {
                padded.extend_from_slice(row);
                padded.resize(padded.len() + width - in_dim, 0.0);
            }
            &padded[..]
        };
        let blocks = blocks.chunks_exact(self.block);
        let len = blocks.len() * bins;
        if spec.len() < len {
            spec.resize(len, Complex32::zero());
        }
        for (block, slot) in blocks.zip(spec.chunks_exact_mut(bins)) {
            self.plan
                .forward_into_slice(block, fft, slot)
                .expect("block and bin counts are fixed");
        }
        len
    }

    /// Second half of Algorithm 1, `y = epilogue(X̂ · Ŵ)`: for output row
    /// `s`, `view(s, slots)` names the slot in `spec` of each input block
    /// `j`; then for each output block `i` zero the accumulator, add
    /// `Ŵᵢⱼ ⊙ X̂[slots[j]]` over `j` ascending, invert, and write
    /// `epilogue(i, k, value)` to position `k` of the un-padded row. `y`
    /// holds rows of `out_dim` values.
    ///
    /// Every circulant layer's forward pass and every input gradient
    /// end in this function, so the arithmetic and its order — and
    /// therefore every output bit — are the same on all of them.
    pub(crate) fn product<W: BlockWeights + ?Sized>(
        &self,
        weights: &W,
        (spec, view): (&[Complex32], impl Fn(usize, &mut Vec<usize>)),
        (y, out_dim): (&mut [f32], usize),
        bufs: &mut BlockBuffers,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) {
        let bins = self.bins();
        let x_hat = |at: usize| &spec[at..at + bins];
        for (s, y_row) in y.chunks_exact_mut(out_dim).enumerate() {
            bufs.slots.clear();
            view(s, &mut bufs.slots);
            // Slot → offset once a row, not once a multiply-accumulate.
            bufs.slots.iter_mut().for_each(|slot| *slot *= bins);
            for (i, y_chunk) in y_row.chunks_mut(self.block).enumerate() {
                bufs.acc.clear();
                bufs.acc.resize(bins, Complex32::zero());
                for (j, &at) in bufs.slots.iter().enumerate() {
                    weights.accumulate(&mut bufs.acc, i, j, x_hat(at));
                }
                self.inverse_into(&bufs.acc, &mut bufs.fft, &mut bufs.y_block);
                for (k, (o, &v)) in y_chunk.iter_mut().zip(&bufs.y_block).enumerate() {
                    *o = epilogue(i, i * self.block + k, v);
                }
            }
        }
    }

    /// The other half of Algorithm 2, `∂L/∂wᵢⱼ = IFFT(Σₛ Ĝₛᵢ ∘ conj(X̂ₛⱼ))`,
    /// written into `grad_w`, `[kb_out, kb_in, b]`: `g_hat` holds `kb_out`
    /// spectra a row, and row `s` reads its `X̂ₛⱼ` through the view the
    /// forward pass read them through. The sum over rows (ascending) is
    /// taken in the frequency domain and inverted once — IFFT is linear.
    pub(crate) fn weight_gradient(
        &self,
        (g_hat, kb_out): (&[Complex32], usize),
        (spec, view): (&[Complex32], impl Fn(usize, &mut Vec<usize>)),
        grad_w: &mut [f32],
    ) {
        let (bins, mut bufs) = (self.bins(), BlockBuffers::default());
        let mut sums = vec![Complex32::zero(); grad_w.len() / self.block * bins];
        for (s, g_row) in g_hat.chunks_exact(kb_out * bins).enumerate() {
            bufs.slots.clear();
            view(s, &mut bufs.slots);
            let per_out_block = sums.chunks_exact_mut(bufs.slots.len() * bins);
            for (g, sums) in g_row.chunks_exact(bins).zip(per_out_block) {
                for (sum, &slot) in sums.chunks_exact_mut(bins).zip(&bufs.slots) {
                    let x = &spec[slot * bins..(slot + 1) * bins];
                    SpectralKernel::mul_conj_accumulate(sum, g, x);
                }
            }
        }
        for (sum, w) in sums.chunks_exact(bins).zip(grad_w.chunks_exact_mut(self.block)) {
            self.inverse_into(sum, &mut bufs.fft, &mut bufs.y_block);
            w.copy_from_slice(&bufs.y_block);
        }
    }

    /// Both halves over whole rows, `y = epilogue(x · W)`: the forward
    /// pass of every FC-shaped layer. `x` holds rows of `in_dim` values.
    /// Returns the `X̂` it computed, for a pass that keeps it.
    pub(crate) fn rows_product<'s, W: BlockWeights + ?Sized>(
        &self,
        weights: &W,
        (x, in_dim): (&[f32], usize),
        y: (&mut [f32], usize),
        sc: &'s mut CirculantScratch,
        epilogue: impl Fn(usize, usize, f32) -> f32,
    ) -> &'s [Complex32] {
        let len = self.spectra_of((x, in_dim), &mut sc.bufs, &mut sc.x_spec);
        let view = identity_view(in_dim.div_ceil(self.block));
        self.product(weights, (&sc.x_spec, view), y, &mut sc.bufs, epilogue);
        &sc.x_spec[..len]
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

    fn zeros(k: &SpectralKernel) -> Spectrum {
        vec![Complex32::zero(); k.bins()]
    }

    fn inverse(k: &SpectralKernel, spec: &[Complex32]) -> Vec<f32> {
        let mut out = Vec::new();
        k.inverse_into(spec, &mut Vec::new(), &mut out);
        out
    }

    /// Values that are exact in `f32`, so the pinned bits below depend on
    /// the transform alone, not on the platform's `sin`.
    fn exact(n: usize, salt: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + salt * 5 + 3) % 19) as f32 * 0.125 - 1.0).collect()
    }

    /// Output bits of the monolithic `block_product` this file had before
    /// it was cut in two halves, on padded, non-dividing widths (two rows
    /// each; power-of-two, odd and chirp-transform blocks).
    #[test]
    fn product_under_the_identity_view_keeps_the_bits_of_the_one_piece_product() {
        pinned((10, 7, 4), &[
            0xc04f0000, 0x3e100000, 0x405e0000, 0x40ad8000, 0x40d28000, 0x40b00000, 0x40958000,
            0x40310000, 0x3d000000, 0x3f5c0000, 0x40520000, 0x40c78000, 0x40cf0000, 0x410c8000,
        ]);
        pinned((7, 5, 3), &[
            0x3fa80002, 0x3ed80004, 0x3fbbfffe, 0x4069ffff, 0x40ca8000, 0x401c0002, 0x3da00010,
            0x4014ffff, 0x408d8000, 0x40b40000,
        ]);
        pinned((13, 11, 6), &[
            0x3fbe0002, 0x3fb9ffff, 0x3f91fffb, 0x404e0001, 0x40750001, 0x408e8000, 0x40ca7fff,
            0x40b68000, 0x41270001, 0x4105c000, 0x41520000, 0x3f33fffb, 0x40010001, 0x3f2bfffe,
            0x40830000, 0x409b8000, 0x408e8000, 0x40ea0001, 0x41008000, 0x413bc000, 0x411d0000,
            0x41248000,
        ]);
        pinned((70, 9, 64), &[
            0xbf180008, 0x416cffff, 0xc173c000, 0x415c3fff, 0x410e4000, 0xc11f7fff, 0x41a08000,
            0x40e10002, 0x40c4ffff, 0xc1e10000, 0x4179ffff, 0x40bd0001, 0xc1000000, 0x4195e000,
            0x3c800100, 0x41234000, 0x41868000, 0xc0e58000,
        ]);
    }

    fn pinned((in_dim, out_dim, b): (usize, usize, usize), bits: &[u32]) {
        let kernel = SpectralKernel::new(b);
        let (kb_in, kb_out) = (in_dim.div_ceil(b), out_dim.div_ceil(b));
        let weights: Vec<Vec<Spectrum>> = (0..kb_out)
            .map(|i| (0..kb_in).map(|j| kernel.spectrum(&exact(b, 1 + i * kb_in + j))).collect())
            .collect();
        let x = exact(2 * in_dim, 0);
        let mut y = vec![0.0f32; 2 * out_dim];
        let mut sc = CirculantScratch::new();
        let kept = kernel.rows_product(
            &weights[..],
            (&x, in_dim),
            (&mut y, out_dim),
            &mut sc,
            |i, k, v| v + (i + k) as f32,
        );
        let got: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "in {in_dim} out {out_dim} block {b}");
        // What Algorithm 2 is handed: each row's own zero-padded blocks.
        let mut last_block = x[in_dim + (kb_in - 1) * b..].to_vec();
        last_block.resize(b, 0.0);
        assert_eq!(kept.len(), 2 * kb_in * kernel.bins());
        assert_eq!(kept[kept.len() - kernel.bins()..], kernel.spectrum(&last_block));
    }

    #[test]
    fn roundtrip() {
        for b in [1usize, 2, 3, 8, 11, 64, 121, 128] {
            let k = SpectralKernel::new(b);
            let x = signal(b, 0.7);
            let back = inverse(&k, &k.spectrum(&x));
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
            let mut acc = zeros(&k);
            SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w), &k.spectrum(&x));
            let fast = inverse(&k, &acc);
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
        let mut acc = zeros(&k);
        SpectralKernel::mul_conj_accumulate(&mut acc, &k.spectrum(&g), &k.spectrum(&x));
        let fast = inverse(&k, &acc);
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
        let mut acc = zeros(&k);
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w1), &k.spectrum(&x));
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w2), &k.spectrum(&x));
        let sum = inverse(&k, &acc);
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
