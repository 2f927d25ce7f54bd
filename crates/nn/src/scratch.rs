//! Reusable forward-pass workspace.
//!
//! [`Scratch`] is a free-list of [`Tensor`]s threaded through every
//! forward pass ([`Layer::forward_with`](crate::Layer::forward_with)):
//! layers draw outputs and intermediates from it, and the network's
//! layer loop recycles an activation once the next layer has consumed
//! it. A serving worker keeps one pool warm next to its network clone,
//! so an inference pass performs **zero heap allocations**; the training
//! pass runs on a throw-away pool. Copy-on-write storage keeps this
//! safe: a recycled tensor whose buffer is still shared (an alias a
//! layer kept for `backward`, or of a live response) is skipped by
//! [`Scratch::take`] until its co-owner drops.

use ffdl_tensor::Tensor;

/// Tensors retained per pool; forward passes cycle a handful of
/// activation buffers, so anything beyond this is a leak signal and is
/// dropped instead of hoarded.
const MAX_POOLED: usize = 64;

/// A pool of recyclable tensors for allocation-free forward passes.
///
/// Not thread-safe by design: each serving worker owns one `Scratch`
/// next to its own network clone, mirroring the share-nothing layout of
/// the worker pool.
#[derive(Default)]
pub struct Scratch {
    free: Vec<Tensor>,
}

impl Scratch {
    /// An empty pool (buffers are claimed lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a zeroed tensor of `shape`, reusing a pooled buffer
    /// when a uniquely-owned one is available — preferring the smallest
    /// that already fits so big buffers stay with big call sites. Buffers
    /// are ranked by capacity, not by the length of their last use: a
    /// large buffer last handed to a small call site still fits a large
    /// one without growing.
    pub fn take(&mut self, shape: &[usize]) -> Tensor {
        let need: usize = shape.iter().product();
        let mut pick: Option<usize> = None;
        for (i, t) in self.free.iter().enumerate() {
            if !t.is_unique() {
                continue; // buffer still shared with a live tensor
            }
            let cap = t.capacity();
            match pick {
                None => pick = Some(i),
                Some(j) => {
                    let best = self.free[j].capacity();
                    let fits = cap >= need;
                    let best_fits = best >= need;
                    // A fitting buffer beats a non-fitting one; among
                    // fitting buffers prefer the smallest, among
                    // non-fitting ones the largest (least to grow).
                    let better = if fits {
                        !best_fits || cap < best
                    } else {
                        !best_fits && cap > best
                    };
                    if better {
                        pick = Some(i);
                    }
                }
            }
        }
        match pick {
            Some(i) => {
                let mut t = self.free.swap_remove(i);
                t.reuse_as(shape);
                t
            }
            None => Tensor::zeros(shape),
        }
    }

    /// Returns a tensor to the pool for later reuse.
    pub fn recycle(&mut self, t: Tensor) {
        if self.free.len() < MAX_POOLED {
            self.free.push(t);
        }
    }

    /// Number of tensors currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_recycled_buffer() {
        let mut s = Scratch::new();
        let a = s.take(&[4, 4]);
        assert_eq!(a.shape(), &[4, 4]);
        assert!(a.as_slice().iter().all(|&v| v == 0.0));
        s.recycle(a);
        assert_eq!(s.pooled(), 1);
        let b = s.take(&[2, 8]); // same element count: buffer reused
        assert_eq!(b.shape(), &[2, 8]);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn take_skips_shared_buffers() {
        let mut s = Scratch::new();
        let a = s.take(&[4]);
        let alias = a.clone();
        s.recycle(a);
        let b = s.take(&[4]);
        assert!(!b.shares_buffer(&alias)); // pooled-but-shared skipped
        drop(alias);
        s.recycle(b);
        assert_eq!(s.pooled(), 2);
        let c = s.take(&[4]);
        // One of the two pooled buffers is unique again and gets reused.
        assert_eq!(s.pooled(), 1);
        drop(c);
    }

    #[test]
    fn take_prefers_smallest_fitting_buffer() {
        let mut s = Scratch::new();
        s.recycle(Tensor::zeros(&[100]));
        s.recycle(Tensor::zeros(&[8]));
        s.recycle(Tensor::zeros(&[2]));
        let t = s.take(&[6]);
        assert_eq!(t.len(), 6);
        // The 8-element buffer was picked; 100 and 2 remain.
        let lens: Vec<usize> = (0..2).map(|_| s.take(&[1]).len()).collect();
        assert!(lens.contains(&1));
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn zeroed_after_reuse() {
        let mut s = Scratch::new();
        let mut a = s.take(&[3]);
        a.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        s.recycle(a);
        let b = s.take(&[3]);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
    }
}
