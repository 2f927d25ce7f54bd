//! Linear-algebra and arithmetic operations on [`Tensor`].
//!
//! The dense [`Tensor::matmul`] here is the `O(n²)`/`O(n³)` baseline the
//! paper's FFT kernel is measured against, and the product under every
//! dense `Dense` and `Conv2d` pass. Its inputs are mostly post-ReLU
//! activations, half or more of them zero in no predictable pattern, so
//! [`Tensor::matmul_into`] does not branch on each one: it compacts a
//! row's non-zero terms first, then streams four rows of `b` per pass over
//! the output row. Safe scalar Rust, read row-contiguously, with the bits
//! of the plain `ikj` loop (see the method's docs). The same loop reads a
//! `Conv2d` row in place: [`Tensor::taps_matmul_into`] takes each row of
//! the Fig. 3 lowering as its output pixel's taps of a pixel-major image,
//! so no im2col matrix is built.

use crate::error::TensorError;
use crate::image::ConvGeometry;
use crate::tensor::Tensor;

/// The most terms of a row that [`Tensor::matmul_into`] compacts per pass
/// over the output row; the buffer lives on the stack.
const TERMS: usize = 256;

/// Where [`Tensor::matmul_into_rows`] reads row `i` of its left operand `a`.
#[derive(Clone, Copy)]
enum Rows {
    /// `a` is `[m, k]` and row `i` is `a[i·k..(i + 1)·k]`.
    Contiguous,
    /// `a` is a pixel-major `[H·W, C]` image and row `i` is output pixel
    /// `i`'s Fig. 3 lowering: its in-image taps' runs of `C` floats.
    Taps {
        channels: usize,
        extent: (usize, usize),
        out_w: usize,
        geom: ConvGeometry,
    },
}

impl Tensor {
    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, k: f32) -> Self {
        self.map(|v| v * k)
    }

    /// Adds `other` scaled by `k` in place: `self += k·other`.
    ///
    /// This is the update primitive of SGD (`w -= lr·g` is `axpy(-lr, g)`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, k: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "axpy",
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += k * b;
        }
        Ok(())
    }

    /// Dense matrix product of two rank-2 tensors: `(m×k)·(k×n) → m×n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank 2, and [`TensorError::ShapeMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        let mut out = Tensor::zeros(&[0]);
        self.matmul_into(other, &mut out)?;
        Ok(out)
    }

    /// Like [`matmul`](Self::matmul), but writes the product into `out`,
    /// reusing its allocation when `out` uniquely owns a large-enough
    /// buffer — the serving hot path's GEMM. `out` is reshaped to
    /// `[m, n]` and fully overwritten.
    ///
    /// A row's non-zero terms `(p, a[p])` are compacted, a few hundred at
    /// a time, into a stack buffer without a branch, then taken four at a
    /// time: one pass over the output row adds
    /// `((((o + a₀·b₀) + a₁·b₁) + a₂·b₂) + a₃·b₃)`, reading the four rows
    /// of `other` they name; one to three leftover terms are added singly.
    /// Every output element is therefore `0 + Σₚ a[p]·b[p]` over the `p`
    /// with `a[p] != 0`, ascending, one rounding per multiply and per add
    /// (Rust does not fuse them) — bit for bit the `ikj` loop that skips
    /// zeros: `-0.0` is skipped like `0.0`, and a NaN or infinite `a[p]` is
    /// kept and propagates.
    ///
    /// # Errors
    ///
    /// Same contract as [`matmul`](Self::matmul); `out` is only modified
    /// on success.
    pub fn matmul_into(&self, other: &Self, out: &mut Self) -> Result<(), TensorError> {
        require_rank(self, 2, "matmul")?;
        require_rank(other, 2, "matmul")?;
        let (m, k) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "matmul",
            });
        }
        out.reuse_as(&[m, n]);
        let (a, b) = (self.as_slice(), other.as_slice());
        Self::matmul_into_rows(a, b, out.as_mut_slice(), (k, n), Rows::Contiguous);
        Ok(())
    }

    /// `out = X·f`, with `X` the Fig. 3 lowering `[H_out·W_out, C·r²]` of
    /// a pixel-major `[H·W, C]` image, without building `X`: row `p` of
    /// `X` is read where it lies, as output pixel `p`'s taps
    /// ([`ConvGeometry::for_each_tap`]), each a run of `C` floats of
    /// `image` at columns `C·t..C·(t + 1)` (`col = c + C·ki + C·r·kj`,
    /// Eqn. 6). A tap on the zero padding adds no terms. The terms, their
    /// order and their roundings are those of
    /// [`matmul_into`](Self::matmul_into) on the lowered matrix, so every
    /// output bit is too. `out` is reshaped to `[H_out·W_out, P]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] unless `image` holds
    /// `H·W·C` values, [`TensorError::InvalidGeometry`] when the kernel does
    /// not fit, and [`TensorError::RankMismatch`] /
    /// [`TensorError::ShapeMismatch`] unless `f` is `[C·r², P]`; `out` is
    /// only modified on success.
    pub fn taps_matmul_into(
        image: &[f32],
        (c, h, w): (usize, usize, usize),
        geom: ConvGeometry,
        f: &Self,
        out: &mut Self,
    ) -> Result<(), TensorError> {
        if image.len() != h * w * c {
            return Err(TensorError::ShapeDataMismatch {
                shape: vec![h * w, c],
                elements: image.len(),
            });
        }
        let (oh, ow) = (geom.output_extent(h)?, geom.output_extent(w)?);
        require_rank(f, 2, "taps_matmul")?;
        let (k, n) = (c * geom.kernel * geom.kernel, f.cols());
        if f.rows() != k {
            return Err(TensorError::ShapeMismatch {
                left: vec![oh * ow, k],
                right: f.shape().to_vec(),
                op: "taps_matmul",
            });
        }
        out.reuse_as(&[oh * ow, n]);
        let taps = Rows::Taps {
            channels: c,
            extent: (h, w),
            out_w: ow,
            geom,
        };
        Self::matmul_into_rows(image, f.as_slice(), out.as_mut_slice(), (k, n), taps);
        Ok(())
    }

    /// The loop of [`matmul_into`](Self::matmul_into) and
    /// [`taps_matmul_into`](Self::taps_matmul_into) on the three buffers,
    /// `out` zeroed and `[m, n]`, with row `i` of the left operand read
    /// from `a` as `rows` says. `#[inline(never)]` is load-bearing: as
    /// function arguments the slices are known not to overlap, so no
    /// run-time overlap check precedes each four-row pass (≈ 20 % of a
    /// `[32, 4096]·[4096, 10]` product on a 2-core x86-64 host).
    ///
    /// A row's runs are compacted into one stack buffer of `(column,
    /// value)` terms, global columns ascending; whenever the next piece
    /// might not fit, the buffer is flushed through [`accumulate`] and
    /// refilled. A flush point moves no bit: the output row takes the
    /// same terms in the same order, one add at a time.
    #[inline(never)]
    fn matmul_into_rows(a: &[f32], b: &[f32], out: &mut [f32], (k, n): (usize, usize), rows: Rows) {
        if k == 0 || n == 0 {
            return;
        }
        let mut terms = [(0u32, 0.0f32); TERMS];
        for (i, orow) in out.chunks_exact_mut(n).enumerate() {
            let mut len = 0;
            let mut compact = |first: usize, run: &[f32]| {
                for (col, piece) in (first..).step_by(TERMS).zip(run.chunks(TERMS)) {
                    if len + piece.len() > TERMS {
                        accumulate(&terms[..len], b, orow);
                        len = 0;
                    }
                    // Without a branch: every term is written, and the
                    // cursor only moves past a kept one.
                    for (p, &v) in (col as u32..).zip(piece) {
                        terms[len] = (p, v);
                        len += usize::from(v != 0.0);
                    }
                }
            };
            match rows {
                Rows::Contiguous => compact(0, &a[i * k..][..k]),
                Rows::Taps {
                    channels: c,
                    extent,
                    out_w,
                    geom,
                } => geom.for_each_tap((i / out_w, i % out_w), extent, |t, read| {
                    if let Some(pixel) = read {
                        compact(t * c, &a[pixel * c..][..c]);
                    }
                }),
            }
            accumulate(&terms[..len], b, orow);
        }
    }

    /// Matrix–vector product of a rank-2 tensor with a rank-1 tensor:
    /// `(m×n)·(n) → m`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] / [`TensorError::ShapeMismatch`]
    /// on malformed operands.
    pub fn matvec(&self, x: &Self) -> Result<Self, TensorError> {
        require_rank(self, 2, "matvec")?;
        require_rank(x, 1, "matvec")?;
        let (m, n) = (self.rows(), self.cols());
        if x.len() != n {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: x.shape().to_vec(),
                op: "matvec",
            });
        }
        let a = self.as_slice();
        let v = x.as_slice();
        let out: Vec<f32> = (0..m)
            .map(|i| {
                a[i * n..(i + 1) * n]
                    .iter()
                    .zip(v)
                    .map(|(&p, &q)| p * q)
                    .sum()
            })
            .collect();
        Tensor::from_vec(out, &[m])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        require_rank(self, 2, "transpose")?;
        let (m, n) = (self.rows(), self.cols());
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }

    /// Dot product of two rank-1 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Self) -> Result<f32, TensorError> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
                op: "dot",
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Outer product of two rank-1 tensors: `(m)·(n) → m×n`.
    pub fn outer(&self, other: &Self) -> Self {
        let (m, n) = (self.len(), other.len());
        let mut out = vec![0.0f32; m * n];
        for (i, &a) in self.as_slice().iter().enumerate() {
            for (j, &b) in other.as_slice().iter().enumerate() {
                out[i * n + j] = a * b;
            }
        }
        Tensor::from_vec(out, &[m, n]).expect("size is m*n by construction")
    }

    /// Sums a rank-2 tensor over its rows, producing a length-`cols`
    /// rank-1 tensor (the bias-gradient reduction).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn sum_rows(&self) -> Result<Self, TensorError> {
        require_rank(self, 2, "sum_rows")?;
        let (m, n) = (self.rows(), self.cols());
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }
}

/// Adds `Σ a·b[p]` over the compacted `(p, a)` terms to the output row,
/// in order: four rows of `b` per pass —
/// `((((o + a₀·b₀) + a₁·b₁) + a₂·b₂) + a₃·b₃)` — then one to three
/// leftover terms singly.
#[inline]
fn accumulate(terms: &[(u32, f32)], b: &[f32], orow: &mut [f32]) {
    let n = orow.len();
    let brow = |p: u32| &b[p as usize * n..][..n];
    let mut quads = terms.chunks_exact(4);
    for q in &mut quads {
        let [(p0, a0), (p1, a1), (p2, a2), (p3, a3)] = [q[0], q[1], q[2], q[3]];
        let b4 = brow(p0).iter().zip(brow(p1)).zip(brow(p2)).zip(brow(p3));
        for (ov, (((&b0, &b1), &b2), &b3)) in orow.iter_mut().zip(b4) {
            *ov = (((*ov + a0 * b0) + a1 * b1) + a2 * b2) + a3 * b3;
        }
    }
    for &(p, a) in quads.remainder() {
        for (ov, &bv) in orow.iter_mut().zip(brow(p)) {
            *ov += a * bv;
        }
    }
}

fn require_rank(t: &Tensor, rank: usize, op: &'static str) -> Result<(), TensorError> {
    if t.ndim() != rank {
        return Err(TensorError::RankMismatch {
            expected: rank,
            actual: t.ndim(),
            op,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c]).unwrap()
    }

    #[test]
    fn add_sub_mul() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(-1.0).as_slice(), &[-1.0, -2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let g = Tensor::from_slice(&[10.0, 20.0]);
        a.axpy(-0.1, &g).unwrap();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
        assert!(a.axpy(1.0, &Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn matmul_known_product() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.matmul(&Tensor::eye(2)).unwrap(), a);
        assert_eq!(Tensor::eye(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = t2(&[1.0; 6], 2, 3);
        let b = t2(&[1.0; 6], 2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { .. })
        ));
        let v = Tensor::from_slice(&[1.0; 3]);
        assert!(matches!(a.matmul(&v), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let b = t2(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], 3, 2);
        let mut out = Tensor::zeros(&[1]);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        // Stale contents from a previous product do not leak through.
        a.matmul_into(&Tensor::eye(3), &mut out).unwrap();
        assert_eq!(out, a);
        // Mismatched shapes leave `out` untouched.
        assert!(a.matmul_into(&t2(&[1.0; 4], 2, 2), &mut out).is_err());
        assert_eq!(out, a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let x = Tensor::from_slice(&[1.0, 0.0, -1.0]);
        let y = a.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, -2.0]);
        let col = x.reshape(&[3, 1]).unwrap();
        let y2 = a.matmul(&col).unwrap();
        assert_eq!(y.as_slice(), y2.as_slice());
    }

    #[test]
    fn matvec_validates() {
        let a = t2(&[1.0; 6], 2, 3);
        assert!(a.matvec(&Tensor::from_slice(&[1.0; 4])).is_err());
        assert!(Tensor::from_slice(&[1.0; 3])
            .matvec(&Tensor::from_slice(&[1.0; 3]))
            .is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let at = a.transpose().unwrap();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.at(&[0, 1]), 4.0);
        assert_eq!(at.transpose().unwrap(), a);
    }

    #[test]
    fn transpose_law_for_products() {
        // (AB)ᵀ == BᵀAᵀ
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn dot_and_outer() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[3, 3]);
        assert_eq!(o.at(&[2, 0]), 12.0);
        assert!(a.dot(&Tensor::from_slice(&[1.0])).is_err());
    }

    #[test]
    fn sum_rows_reduces() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let s = a.sum_rows().unwrap();
        assert_eq!(s.as_slice(), &[5.0, 7.0, 9.0]);
        assert!(Tensor::from_slice(&[1.0]).sum_rows().is_err());
    }

    #[test]
    fn matmul_associativity_numeric() {
        let a = t2(&[0.5, -1.0, 2.0, 0.25], 2, 2);
        let b = t2(&[1.0, 1.0, -1.0, 0.5], 2, 2);
        let c = t2(&[2.0, 0.0, 1.0, -3.0], 2, 2);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
