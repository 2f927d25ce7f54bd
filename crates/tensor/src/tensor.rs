//! The dense row-major `f32` tensor at the base of the stack.

use crate::error::TensorError;
use std::fmt;
use std::sync::Arc;

/// A dense, row-major tensor of `f32` values.
///
/// `f32` matches the paper's deployment target: single-precision is what
/// the OpenCV-based Android implementations compute in. Shapes are
/// arbitrary-rank; matrix routines require rank 2.
///
/// # Copy-on-write storage
///
/// The flat buffer is reference-counted: [`Clone`] and [`reshape`]
/// (shape-only changes) are pointer bumps that share the underlying
/// allocation, which is what makes whole-network clones for serving
/// O(layers) instead of O(parameters). The first mutation through any
/// of the `&mut self` accessors ([`as_mut_slice`], [`at_mut`],
/// [`row_mut`], [`map_inplace`]) detaches a private copy, so sharing is
/// never observable through the API — two clones never see each other's
/// writes.
///
/// [`reshape`]: Tensor::reshape
/// [`as_mut_slice`]: Tensor::as_mut_slice
/// [`at_mut`]: Tensor::at_mut
/// [`row_mut`]: Tensor::row_mut
/// [`map_inplace`]: Tensor::map_inplace
///
/// # Examples
///
/// ```
/// use ffdl_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.as_slice(), a.as_slice());
/// # Ok::<(), ffdl_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Sole owner of the buffer, copying it first if shared (the
    /// copy-on-write detach point every mutator funnels through).
    fn data_mut(&mut self) -> &mut Vec<f32> {
        Arc::make_mut(&mut self.data)
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: Arc::new(vec![0.0; shape.iter().product()]),
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::filled(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        Self {
            data: Arc::new(vec![value; shape.iter().product()]),
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n×n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        let buf = t.data_mut();
        for i in 0..n {
            buf[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                elements: data.len(),
            });
        }
        Ok(Self {
            data: Arc::new(data),
            shape: shape.to_vec(),
        })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Self {
            data: Arc::new(data.to_vec()),
            shape: vec![data.len()],
        }
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        Self {
            data: Arc::new((0..n).map(&mut f).collect()),
            shape: shape.to_vec(),
        }
    }

    /// Stacks per-sample tensors along a new leading batch axis: `n`
    /// samples of shape `[d…]` become one `[n, d…]` tensor. This is the
    /// coalescing primitive of the batched inference path — request
    /// tensors are stacked once and run through a single forward pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `samples` is empty or
    /// any sample's shape differs from the first.
    pub fn stack(samples: &[&Tensor]) -> Result<Self, TensorError> {
        let mut out = Tensor::zeros(&[0]);
        Self::stack_into(samples, &mut out)?;
        Ok(out)
    }

    /// Like [`stack`](Self::stack), but writes into `out`, reusing its
    /// allocation when `out` uniquely owns a large-enough buffer — the
    /// zero-allocation coalescing primitive of the serving hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `samples` is empty or
    /// any sample's shape differs from the first. `out` is left
    /// unchanged on error.
    pub fn stack_into(samples: &[&Tensor], out: &mut Tensor) -> Result<(), TensorError> {
        // ok_or_else, not ok_or: an eager error value would heap-allocate
        // its shape vectors on every call, including the hot success path.
        let first = samples.first().ok_or_else(|| TensorError::ShapeMismatch {
            left: vec![0],
            right: vec![0],
            op: "stack of zero samples",
        })?;
        let sample_shape = first.shape();
        for s in samples {
            if s.shape() != sample_shape {
                return Err(TensorError::ShapeMismatch {
                    left: sample_shape.to_vec(),
                    right: s.shape().to_vec(),
                    op: "stack",
                });
            }
        }
        let total = samples.len() * first.len();
        if Arc::get_mut(&mut out.data).is_none() {
            // `out` still shares its buffer (e.g. with a response tensor
            // from a previous batch): detach without copying the stale
            // contents.
            out.data = Arc::new(Vec::with_capacity(total));
        }
        let buf = Arc::get_mut(&mut out.data).expect("buffer is unique");
        buf.clear();
        buf.reserve(total);
        for s in samples {
            buf.extend_from_slice(s.as_slice());
        }
        out.shape.clear();
        out.shape.push(samples.len());
        out.shape.extend_from_slice(sample_shape);
        Ok(())
    }

    /// Repurposes this tensor as a zeroed tensor of `shape`, reusing the
    /// existing allocation when it is uniquely owned and large enough.
    /// The workhorse of scratch-buffer pools: after warmup this is a
    /// clear + zero-fill with no heap traffic.
    pub fn reuse_as(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        match Arc::get_mut(&mut self.data) {
            Some(buf) => {
                buf.clear();
                buf.resize(n, 0.0);
            }
            None => self.data = Arc::new(vec![0.0; n]),
        }
        self.shape.clear();
        self.shape.extend_from_slice(shape);
    }

    /// `true` when both tensors share one underlying buffer (a
    /// copy-on-write alias that has not diverged yet).
    pub fn shares_buffer(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// `true` when this tensor is the only owner of its buffer.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Elements the buffer holds without reallocating: what
    /// [`reuse_as`](Self::reuse_as) can grow to for free.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows (first dimension).
    ///
    /// # Panics
    ///
    /// Panics on rank-0 tensors.
    pub fn rows(&self) -> usize {
        self.shape[0]
    }

    /// Number of columns (second dimension) of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has rank < 2.
    pub fn cols(&self) -> usize {
        self.shape[1]
    }

    /// Immutable view of the underlying flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying flat buffer, detaching a private
    /// copy first if the buffer is shared (copy-on-write).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data_mut()
    }

    /// Consumes the tensor and returns its flat buffer (copying only if
    /// the buffer is still shared with another tensor).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Flat-index accessor.
    pub fn get(&self, flat: usize) -> Option<f32> {
        self.data.get(flat).copied()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.ndim()` or any coordinate is out of
    /// bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.flat_index(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.ndim()` or any coordinate is out of
    /// bounds.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let flat = self.flat_index(idx);
        &mut self.data_mut()[flat]
    }

    fn flat_index(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            idx.len(),
            self.shape.len()
        );
        let mut flat = 0;
        for (d, (&i, &s)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(i < s, "index {i} out of bounds for dimension {d} (size {s})");
            flat = flat * s + i;
        }
        flat
    }

    /// Returns a tensor sharing this one's buffer under a new shape
    /// (zero-copy; the buffers diverge only on a later write).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if self.data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                elements: self.data.len(),
            });
        }
        Ok(Self {
            data: Arc::clone(&self.data),
            shape: shape.to_vec(),
        })
    }

    /// Consuming reshape (zero-copy, like [`reshape`](Self::reshape)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts
    /// differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if self.data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                elements: self.data.len(),
            });
        }
        Ok(Self {
            data: self.data,
            shape: shape.to_vec(),
        })
    }

    /// A borrowed view of row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a rank-2 tensor");
        let cols = self.cols();
        &self.data[r * cols..(r + 1) * cols]
    }

    /// A mutable view of row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.ndim(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.cols();
        &mut self.data_mut()[r * cols..(r + 1) * cols]
    }

    /// Applies `f` to each element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: Arc::new(self.data.iter().map(|&v| f(v)).collect()),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to each element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shape tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
                op: "zip_map",
            });
        }
        Ok(Self {
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
            shape: self.shape.clone(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`NaN` for empty tensors).
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// Returns `None` for empty tensors.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &v| m.max(v.abs()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ... {} elements])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects a rank-1 tensor from an iterator of values.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Self {
            data: Arc::new(data),
            shape: vec![n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_filled() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.shape(), &[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[4]).as_slice().iter().all(|&v| v == 1.0));
        assert!(Tensor::filled(&[2], 7.0).as_slice().iter().all(|&v| v == 7.0));
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeDataMismatch { .. }));
    }

    #[test]
    fn multi_index_round_trip() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| i as f32);
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
    }

    #[test]
    fn at_mut_writes() {
        let mut t = Tensor::zeros(&[2, 2]);
        *t.at_mut(&[1, 0]) = 5.0;
        assert_eq!(t.as_slice(), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn at_wrong_rank_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[1]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let r = t.reshape(&[3, 4]).unwrap();
        assert_eq!(r.shape(), &[3, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn rows_and_row_views() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        let mut t = t;
        t.row_mut(0)[2] = 9.0;
        assert_eq!(t.at(&[0, 2]), 9.0);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(a.map(|v| v * 2.0).as_slice(), &[2.0, -4.0, 6.0]);
        let b = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        assert_eq!(
            a.zip_map(&b, |x, y| x + y).unwrap().as_slice(),
            &[2.0, -1.0, 4.0]
        );
        let c = Tensor::from_slice(&[1.0]);
        assert!(a.zip_map(&c, |x, _| x).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_slice(&[1.0, -5.0, 3.0, 1.0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.max_abs(), 5.0);
        assert_eq!(Tensor::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn argmax_ties_first() {
        let t = Tensor::from_slice(&[2.0, 2.0, 1.0]);
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn collect_from_iterator() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn debug_output_nonempty() {
        assert!(!format!("{:?}", Tensor::zeros(&[2, 2])).is_empty());
        assert!(!format!("{:?}", Tensor::zeros(&[100])).is_empty());
    }

    #[test]
    fn map_inplace_modifies() {
        let mut t = Tensor::from_slice(&[1.0, 2.0]);
        t.map_inplace(|v| v + 1.0);
        assert_eq!(t.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn empty_tensor() {
        let t = Tensor::zeros(&[0, 5]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn stack_flat_samples() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn stack_image_samples() {
        let a = Tensor::zeros(&[3, 4, 4]);
        let b = Tensor::ones(&[3, 4, 4]);
        let s = Tensor::stack(&[&a, &b]).unwrap();
        assert_eq!(s.shape(), &[2, 3, 4, 4]);
        assert_eq!(s.as_slice()[..48], Tensor::zeros(&[48]).as_slice()[..]);
        assert!(s.as_slice()[48..].iter().all(|&v| v == 1.0));
    }

    #[test]
    fn stack_rejects_empty_and_mismatched() {
        assert!(Tensor::stack(&[]).is_err());
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(Tensor::stack(&[&a, &b]).is_err());
    }

    #[test]
    fn clone_shares_until_written() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let mut b = a.clone();
        assert!(a.shares_buffer(&b));
        assert!(!a.is_unique());
        b.as_mut_slice()[0] = 9.0;
        assert!(!a.shares_buffer(&b));
        assert!(a.is_unique());
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(b.as_slice(), &[9.0, 2.0]);
    }

    #[test]
    fn reshape_is_zero_copy_until_written() {
        let t = Tensor::from_fn(&[2, 6], |i| i as f32);
        let mut r = t.reshape(&[3, 4]).unwrap();
        assert!(t.shares_buffer(&r));
        *r.at_mut(&[0, 0]) = -1.0;
        assert!(!t.shares_buffer(&r));
        assert_eq!(t.at(&[0, 0]), 0.0);
    }

    #[test]
    fn stack_into_reuses_unique_buffer() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[3.0, 4.0]);
        let mut out = Tensor::zeros(&[4]);
        Tensor::stack_into(&[&a, &b], &mut out).unwrap();
        assert_eq!(out.shape(), &[2, 2]);
        assert_eq!(out.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // A second stack into the same tensor reuses the allocation.
        Tensor::stack_into(&[&b, &a], &mut out).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 4.0, 1.0, 2.0]);
        // Errors leave `out` unchanged.
        let c = Tensor::zeros(&[3]);
        assert!(Tensor::stack_into(&[&a, &c], &mut out).is_err());
        assert_eq!(out.as_slice(), &[3.0, 4.0, 1.0, 2.0]);
        assert!(Tensor::stack_into(&[], &mut out).is_err());
    }

    #[test]
    fn stack_into_detaches_shared_buffer() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let mut out = Tensor::from_slice(&[5.0, 6.0]);
        let alias = out.clone();
        Tensor::stack_into(&[&a], &mut out).unwrap();
        assert_eq!(alias.as_slice(), &[5.0, 6.0]); // alias untouched
        assert_eq!(out.as_slice(), &[1.0, 2.0]);
        assert_eq!(out.shape(), &[1, 2]);
    }

    #[test]
    fn reuse_as_zeroes_and_reshapes() {
        let mut t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        t.reuse_as(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
        // Shrinking keeps the allocation; a shared buffer is detached.
        t.reuse_as(&[3]);
        assert_eq!(t.len(), 3);
        let alias = t.clone();
        t.reuse_as(&[2]);
        assert_eq!(alias.len(), 3);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn into_vec_copies_only_when_shared() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = a.clone();
        assert_eq!(a.into_vec(), vec![1.0, 2.0]);
        assert_eq!(b.into_vec(), vec![1.0, 2.0]);
    }
}
