//! Block-circulant recurrent cell — the E-RNN direction (PAPERS.md):
//! the paper's compression applies unchanged to recurrent weight
//! matrices, because a GRU step is nothing but six matrix–vector
//! products plus elementwise gates. Every one of the six matrices
//! (three input-to-hidden, three hidden-to-hidden) is a
//! [`BlockCirculantMatrix`], so storage is `O(m·n/b)` and each product
//! runs through the "FFT → component-wise multiply → IFFT" kernel.
//!
//! The cell is **inference-oriented** (like [`SpectralDense`]): it
//! serves streaming sessions in `ffdl-stream`, where per-session hidden
//! state is carried across requests. Two call surfaces share one code
//! path, which is what makes the streaming determinism contract hold:
//!
//! * [`CirculantGru::step`] — one token, caller-owned hidden state and
//!   scratch (`&self`, so the stream engine can drive it through
//!   [`Layer::as_any`] without mutable access to the layer).
//! * [`Layer::forward_with`] — a whole `[seq, in_dim]` sequence scanned
//!   from `h = 0`, implemented as a loop over `step`. A session stepped
//!   one token at a time is therefore **bit-identical** to single-shot
//!   replay of the same rows.
//!
//! The cell's config words and input screen are the block grid of its
//! input-side matrices (`circulant::BlockGrid`, `in_dim × hidden`), and
//! its op count is six of that grid's products.
//!
//! [`SpectralDense`]: crate::SpectralDense

use crate::circulant::{BlockCirculantMatrix, BlockGrid};
use crate::spectral::{identity_view, CirculantScratch};
use ffdl_fft::Complex32;
use ffdl_nn::{Layer, NnError, OpCost, Scratch};
use ffdl_rng::Rng;
use ffdl_tensor::Tensor;

/// Gate math (cuDNN/“v3” GRU variant — reset gate applied *after* the
/// hidden-side product, so `h·Uₙ` is computed once on the old state):
///
/// ```text
/// z  = σ(x·W_z + h·U_z + b_z)          update gate
/// r  = σ(x·W_r + h·U_r + b_r)          reset gate
/// n  = tanh(x·W_n + r ∘ (h·U_n) + b_n) candidate state
/// h' = (1 − z) ∘ n + z ∘ h
/// ```
///
/// All six matrices are block-circulant; see the module docs for the
/// serving contract.
pub struct CirculantGru {
    /// Input-to-hidden matrices, `in_dim × hidden` each: z, r, n.
    w: [BlockCirculantMatrix; 3],
    /// Hidden-to-hidden matrices, `hidden × hidden` each: z, r, n.
    u: [BlockCirculantMatrix; 3],
    /// Gate biases, `[hidden]` each: z, r, n.
    b: [Tensor; 3],
    /// Per-layer scratch for the whole-sequence forward path; never
    /// cloned (each worker clone warms its own).
    infer_scratch: GruScratch,
}

/// Reusable buffers for one GRU step: the FFT workspace with the token's
/// spectra `x̂`, the hidden state's spectra `ĥ`, and the rows the six
/// matrix products write. One per driver (the stream engine keeps one
/// per worker); after warmup a step touches no heap.
#[derive(Default)]
pub struct GruScratch {
    /// Transform buffers, and `x̂` in `x_spec`.
    circ: CirculantScratch,
    /// `ĥ`, flat `[blocks, bins]` like `x̂`.
    h_spec: Vec<Complex32>,
    /// `x·W_g` products, `hidden` values each.
    xg: [Vec<f32>; 3],
    /// `h·U_g` products, `hidden` values each.
    hg: [Vec<f32>; 3],
}

impl GruScratch {
    /// Creates an empty scratch set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[inline]
fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

impl CirculantGru {
    /// Creates a cell with Xavier-scaled circulant blocks and zero
    /// biases.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when a dimension or the block size
    /// is zero.
    pub fn new<R: Rng>(
        in_dim: usize,
        hidden: usize,
        block: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        let mut mk = |rows: usize| BlockCirculantMatrix::random(rows, hidden, block, rng);
        let w = [mk(in_dim)?, mk(in_dim)?, mk(in_dim)?];
        let u = [mk(hidden)?, mk(hidden)?, mk(hidden)?];
        Ok(Self::from_matrices(w, u))
    }

    /// The cell on its six matrices, with zero biases.
    fn from_matrices(w: [BlockCirculantMatrix; 3], u: [BlockCirculantMatrix; 3]) -> Self {
        let b = std::array::from_fn(|_| Tensor::zeros(&[w[0].out_dim()]));
        Self {
            w,
            u,
            b,
            infer_scratch: GruScratch::new(),
        }
    }

    /// The `in_dim × hidden` grid of the input-side matrices, whose
    /// config words and input screen are the cell's.
    fn grid(&self) -> &BlockGrid {
        self.w[0].grid()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.grid().in_dim
    }

    /// Hidden-state width (also the per-step output width).
    pub fn hidden(&self) -> usize {
        self.grid().out_dim
    }

    /// Circulant block size `b` (the compression knob).
    pub fn block(&self) -> usize {
        self.grid().block
    }

    /// Advances the cell one step: reads the token `x` (length
    /// `in_dim`) and the hidden state `h` (length `hidden`), writes the
    /// new hidden state — which is also the cell's output — back into
    /// `h`. Takes `&self` so the stream engine can drive a shared layer
    /// through [`Layer::as_any`]; all mutable state is the caller's
    /// (`h`, `scratch`), which is what keeps per-session state on one
    /// worker thread.
    ///
    /// Bit-identical to the corresponding row of [`Layer::forward`] on
    /// the whole sequence (same code path).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `x` or `h` has the wrong
    /// length.
    pub fn step(&self, x: &[f32], h: &mut [f32], scratch: &mut GruScratch) -> Result<(), NnError> {
        if x.len() != self.in_dim() || h.len() != self.hidden() {
            return Err(NnError::BadInput {
                layer: "circulant_gru".into(),
                message: format!(
                    "step expects x[{}] and h[{}], got x[{}] h[{}]",
                    self.in_dim(),
                    self.hidden(),
                    x.len(),
                    h.len()
                ),
            });
        }
        // One transform of the token and one of the state serve all three
        // gates: the six products read x̂ and ĥ through the identity view.
        let GruScratch { circ, h_spec, xg, hg } = scratch;
        let kernel = &self.grid().kernel;
        kernel.spectra_of((x, self.in_dim()), &mut circ.bufs, &mut circ.x_spec);
        kernel.spectra_of((h, self.hidden()), &mut circ.bufs, h_spec);
        for g in 0..3 {
            let sides = [(&self.w[g], &circ.x_spec, &mut xg[g]), (&self.u[g], &*h_spec, &mut hg[g])];
            for (m, spec, y) in sides {
                y.resize(self.hidden(), 0.0);
                let view = identity_view(m.in_blocks());
                m.product((spec, view), y, &mut circ.bufs, |_, _, v| v);
            }
        }
        let (bz, br, bn) = (
            self.b[0].as_slice(),
            self.b[1].as_slice(),
            self.b[2].as_slice(),
        );
        for k in 0..self.hidden() {
            let z = sigmoid(xg[0][k] + hg[0][k] + bz[k]);
            let r = sigmoid(xg[1][k] + hg[1][k] + br[k]);
            let n = (xg[2][k] + r * hg[2][k] + bn[k]).tanh();
            h[k] = (1.0 - z) * n + z * h[k];
        }
        Ok(())
    }

    /// Scans a `[seq, in_dim]` sequence from `h = 0`, writing one
    /// `[hidden]` output row per step into `out` (shape
    /// `[seq, hidden]`, already sized by the caller).
    fn scan(&self, input: &Tensor, out: &mut Tensor, scratch: &mut GruScratch) -> Result<(), NnError> {
        let mut h = vec![0.0f32; self.hidden()];
        for s in 0..input.rows() {
            self.step(input.row(s), &mut h, scratch)?;
            out.row_mut(s).copy_from_slice(&h);
        }
        Ok(())
    }
}

impl Layer for CirculantGru {
    fn type_tag(&self) -> &'static str {
        "circulant_gru"
    }

    /// **Sequence semantics:** the leading dimension is *time*, not
    /// batch — the rows of `input` are scanned in order from `h = 0`
    /// and row `s` of the output is the hidden state after step `s`.
    /// Recurrent models are served by `ffdl-stream` (one session = one
    /// sequence); routing one through the stateless batch pools would
    /// silently treat a batch as a timeline.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        _keep: bool,
    ) -> Result<Tensor, NnError> {
        self.grid().check_input("circulant_gru", input)?;
        let mut out = scratch.take(&[input.rows(), self.hidden()]);
        let mut sc = std::mem::take(&mut self.infer_scratch);
        let result = self.scan(input, &mut out, &mut sc);
        self.infer_scratch = sc;
        if let Err(e) = result {
            scratch.recycle(out);
            return Err(e);
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            w: self.w.clone(),
            u: self.u.clone(),
            b: self.b.clone(),
            infer_scratch: GruScratch::new(),
        }))
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor, NnError> {
        Err(NnError::BadInput {
            layer: "circulant_gru".into(),
            message: "inference-only recurrent cell does not support backward; \
                      project trained weights onto the circulant structure offline"
                .into(),
        })
    }

    fn param_count(&self) -> usize {
        self.w.iter().map(|m| m.param_count()).sum::<usize>()
            + self.u.iter().map(|m| m.param_count()).sum::<usize>()
            + 3 * self.hidden()
    }

    fn logical_param_count(&self) -> usize {
        3 * self.in_dim() * self.hidden() + 3 * self.hidden() * self.hidden() + 3 * self.hidden()
    }

    fn op_cost(&self) -> OpCost {
        // Six circulant products per step on cached weight spectra, plus
        // ~10 elementwise ops and 2 nonlinearity groups per hidden unit.
        let mults: u64 = self
            .w
            .iter()
            .chain(&self.u)
            .map(|m| m.grid().row_mults())
            .sum();
        let h = self.hidden() as u64;
        OpCost {
            mults: mults + 4 * h,
            adds: mults + 6 * h,
            nonlin: 3 * h,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_dim() + 2 * self.hidden()) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.grid().config_bytes(&[])
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        let mut t: Vec<&Tensor> = self.w.iter().map(|m| m.weights()).collect();
        t.extend(self.u.iter().map(|m| m.weights()));
        t.extend(self.b.iter());
        t
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 9 {
            return Err(NnError::ModelFormat(format!(
                "circulant_gru expects 9 parameter tensors (W_z W_r W_n U_z U_r U_n b_z b_r b_n), got {}",
                params.len()
            )));
        }
        for (i, m) in self.w.iter().chain(self.u.iter()).enumerate() {
            if params[i].shape() != m.weights().shape() {
                return Err(NnError::ModelFormat(
                    "circulant_gru weight tensor shapes do not match".into(),
                ));
            }
        }
        for p in &params[6..9] {
            if p.shape() != [self.hidden()] {
                return Err(NnError::ModelFormat(
                    "circulant_gru bias tensor shapes do not match".into(),
                ));
            }
        }
        for (i, m) in self.w.iter_mut().enumerate() {
            *m.weights_mut() = params[i].clone();
        }
        for (i, m) in self.u.iter_mut().enumerate() {
            *m.weights_mut() = params[3 + i].clone();
        }
        for (i, b) in self.b.iter_mut().enumerate() {
            *b = params[6 + i].clone();
        }
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Reconstructs an (empty) [`CirculantGru`] from its config blob.
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn circulant_gru_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let g = BlockGrid::read_config(&mut config)?;
    let zero = |rows| BlockCirculantMatrix::zeros(rows, g.out_dim, g.block);
    let w = [zero(g.in_dim)?, zero(g.in_dim)?, zero(g.in_dim)?];
    let u = [zero(g.out_dim)?, zero(g.out_dim)?, zero(g.out_dim)?];
    Ok(Box::new(CirculantGru::from_matrices(w, u)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(41)
    }

    fn sequence(seq: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[seq, dim], |i| ((i * 19 + 3) % 31) as f32 * 0.06 - 0.9)
    }

    #[test]
    fn step_matches_whole_sequence_forward_bitwise() {
        let mut cell = CirculantGru::new(10, 8, 4, &mut rng()).unwrap();
        let x = sequence(7, 10);
        let y = cell.forward(&x).unwrap();

        let mut h = vec![0.0f32; 8];
        let mut sc = GruScratch::new();
        for s in 0..7 {
            cell.step(x.row(s), &mut h, &mut sc).unwrap();
            assert_eq!(y.row(s), &h[..], "step {s} diverged from forward");
        }
    }

    #[test]
    fn forward_infer_is_bit_identical_to_forward() {
        let mut cell = CirculantGru::new(6, 12, 4, &mut rng()).unwrap();
        let x = sequence(5, 6);
        let y1 = cell.forward(&x).unwrap();
        let mut scratch = Scratch::new();
        let y2 = cell.forward_infer(&x, &mut scratch).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
        // And again with a warm scratch pool.
        scratch.recycle(y2);
        let y3 = cell.forward_infer(&x, &mut scratch).unwrap();
        assert_eq!(y1.as_slice(), y3.as_slice());
    }

    #[test]
    fn gates_match_dense_reference() {
        // Expand all six matrices to dense and recompute the GRU by
        // hand; the FFT path must agree to float tolerance.
        let cell = CirculantGru::new(6, 4, 2, &mut rng()).unwrap();
        let x = sequence(3, 6);
        let dense: Vec<_> = cell
            .w
            .iter()
            .chain(cell.u.iter())
            .map(|m| m.to_dense())
            .collect();
        let matvec = |w: &Tensor, v: &[f32]| -> Vec<f32> {
            // Row-vector convention: y[o] = Σ_i v[i] · W[i][o].
            let (rows, cols) = (w.shape()[0], w.shape()[1]);
            (0..cols)
                .map(|o| (0..rows).map(|i| v[i] * w.as_slice()[i * cols + o]).sum())
                .collect()
        };
        let mut h_ref = vec![0.0f32; 4];
        let mut h = vec![0.0f32; 4];
        let mut sc = GruScratch::new();
        for s in 0..3 {
            let xs = x.row(s);
            let xz = matvec(&dense[0], xs);
            let xr = matvec(&dense[1], xs);
            let xn = matvec(&dense[2], xs);
            let hz = matvec(&dense[3], &h_ref);
            let hr = matvec(&dense[4], &h_ref);
            let hn = matvec(&dense[5], &h_ref);
            for k in 0..4 {
                let z = sigmoid(xz[k] + hz[k]);
                let r = sigmoid(xr[k] + hr[k]);
                let n = (xn[k] + r * hn[k]).tanh();
                h_ref[k] = (1.0 - z) * n + z * h_ref[k];
            }
            cell.step(xs, &mut h, &mut sc).unwrap();
            for (a, v) in h.iter().zip(&h_ref) {
                assert!((a - v).abs() < 1e-4, "step {s}: {a} vs {v}");
            }
        }
    }

    #[test]
    fn hidden_state_is_bounded_and_carried() {
        // GRU outputs are convex mixes of tanh values: |h| <= 1 always,
        // and feeding the same token twice must not give the same output
        // (state advanced).
        let cell = CirculantGru::new(8, 8, 4, &mut rng()).unwrap();
        let mut h = vec![0.0f32; 8];
        let mut sc = GruScratch::new();
        let x: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin()).collect();
        cell.step(&x, &mut h, &mut sc).unwrap();
        let h1 = h.clone();
        cell.step(&x, &mut h, &mut sc).unwrap();
        assert!(h.iter().all(|v| v.abs() <= 1.0));
        assert_ne!(h1, h, "state did not advance");
    }

    #[test]
    fn config_and_param_roundtrip() {
        let mut cell = CirculantGru::new(10, 6, 4, &mut rng()).unwrap();
        let mut rebuilt = circulant_gru_from_config(&cell.config_bytes()).unwrap();
        let params: Vec<Tensor> = cell.param_tensors().into_iter().cloned().collect();
        assert_eq!(params.len(), 9);
        rebuilt.load_params(&params).unwrap();
        let x = sequence(4, 10);
        let y1 = cell.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice(), "wire round-trip not bit-identical");
    }

    #[test]
    fn load_params_validates() {
        let mut cell = CirculantGru::new(8, 4, 2, &mut rng()).unwrap();
        assert!(cell.load_params(&[]).is_err());
        let mut bad: Vec<Tensor> = cell.param_tensors().into_iter().cloned().collect();
        bad[0] = Tensor::zeros(&[1, 1, 1]);
        assert!(cell.load_params(&bad).is_err());
        let mut bad: Vec<Tensor> = cell.param_tensors().into_iter().cloned().collect();
        bad[8] = Tensor::zeros(&[5]);
        assert!(cell.load_params(&bad).is_err());
    }

    #[test]
    fn backward_rejected_and_shapes_validated() {
        let mut cell = CirculantGru::new(8, 4, 2, &mut rng()).unwrap();
        assert!(cell.backward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(cell.forward(&Tensor::zeros(&[2, 7])).is_err());
        let mut sc = GruScratch::new();
        let mut h = vec![0.0; 4];
        assert!(cell.step(&[0.0; 7], &mut h, &mut sc).is_err());
        let mut short = vec![0.0f32; 3];
        assert!(cell.step(&[0.0; 8], &mut short, &mut sc).is_err());
    }

    #[test]
    fn compression_accounting() {
        let cell = CirculantGru::new(64, 64, 16, &mut rng()).unwrap();
        // 6 matrices of (64/16)² blocks × 16 values + 3 biases.
        assert_eq!(cell.param_count(), 6 * 16 * 16 + 3 * 64);
        assert_eq!(cell.logical_param_count(), 6 * 64 * 64 + 3 * 64);
        assert!(cell.op_cost().mults > 0);
        assert!(cell.op_cost().nonlin == 3 * 64);
    }

    #[test]
    fn clone_layer_is_bit_identical() {
        let mut cell = CirculantGru::new(8, 8, 4, &mut rng()).unwrap();
        let mut clone = cell.clone_layer().unwrap();
        let x = sequence(3, 8);
        assert_eq!(
            cell.forward(&x).unwrap().as_slice(),
            clone.forward(&x).unwrap().as_slice()
        );
    }
}
