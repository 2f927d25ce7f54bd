//! Fixed-size log₂-bucketed histogram with a lock-free record path and
//! mergeable snapshots.
//!
//! Bucket 0 holds exact zeros; bucket `b ≥ 1` holds values in
//! `[2^(b−1), 2^b)` — 65 buckets cover the full `u64` range, so a
//! nanosecond-scale latency and a batch size share one layout and
//! snapshots merge by plain bucket-wise addition. Recording is two
//! `Relaxed` `fetch_add`s on fixed-size atomics: no locks, no
//! allocation, safe from any thread.
//!
//! [`HistogramSnapshot::percentile`] follows the rank convention of
//! [`percentile`] (linear interpolation at rank
//! `p/100 · (n−1)` over the sorted multiset), with the j-th recorded
//! value approximated by a uniform spread across its bucket — so
//! quantiles are monotone in `p` and read on the same scale as the
//! bench history.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear-interpolated percentile (`p ∈ [0, 100]`) over an
/// ascending-sorted slice: the one rank convention behind the bench
/// rows (median/p95), the serving runtime's latency statistics
/// (p50/p95/p99) and [`HistogramSnapshot::percentile`].
///
/// ```
/// let v = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(ffdl_telemetry::percentile(&v, 50.0), 3.0);
/// assert_eq!(ffdl_telemetry::percentile(&v, 95.0), 4.8);
/// ```
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Number of log₂ buckets: one for zero plus one per power of two up to
/// `2^63`.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `⌊log₂ v⌋ + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive-exclusive value range `[lo, hi)` covered by a bucket, as
/// floats (bucket 0 is the degenerate `[0, 0]`).
///
/// # Panics
///
/// Panics if `bucket >= BUCKETS`.
pub fn bucket_bounds(bucket: usize) -> (f64, f64) {
    assert!(bucket < BUCKETS, "bucket {bucket} out of range");
    if bucket == 0 {
        (0.0, 0.0)
    } else {
        (2f64.powi(bucket as i32 - 1), 2f64.powi(bucket as i32))
    }
}

/// A lock-free log₂ histogram.
///
/// # Examples
///
/// ```
/// use ffdl_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 4);
/// assert_eq!(snap.sum(), 106);
/// assert!(snap.percentile(0.0) >= 1.0);
/// assert!(snap.percentile(100.0) <= 128.0);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free: two `Relaxed` `fetch_add`s.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// An immutable copy of the current state.
    ///
    /// Concurrent recorders may land between the bucket and sum loads;
    /// the bucket counts themselves are each exact (atomic RMWs), which
    /// is the property the tests pin.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, mergeable histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Per-bucket observation counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Adds another snapshot's observations into this one — how
    /// per-worker registries combine into one report.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Approximate value of the j-th smallest observation (0-based),
    /// assuming observations spread uniformly across their bucket. A
    /// `j >= count()` clamps to the top of the highest non-empty bucket.
    fn value_at(&self, j: u64) -> f64 {
        let mut below = 0u64;
        let mut top = 0.0f64;
        for (b, &k) in self.buckets.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(b);
            if j < below + k {
                let pos = (j - below) as f64 + 0.5;
                return lo + (hi - lo) * (pos / k as f64);
            }
            below += k;
            top = hi;
        }
        top
    }

    /// Percentile `p ∈ [0, 100]`, with the rank convention of
    /// [`percentile`]: linear interpolation at rank
    /// `p/100 · (n−1)` over the (approximated) sorted observations.
    /// Returns 0 for an empty histogram. Monotone non-decreasing in `p`.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        if n == 1 {
            return self.value_at(0);
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        let frac = rank - lo as f64;
        let a = self.value_at(lo);
        let b = self.value_at(hi);
        a + (b - a) * frac
    }

    /// Upper bound of the highest non-empty bucket (an over-estimate of
    /// the maximum observation), or 0 when empty.
    pub fn max_estimate(&self) -> f64 {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &k)| k > 0)
            .map(|(b, _)| bucket_bounds(b).1)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_their_indices() {
        for v in [1u64, 2, 3, 7, 8, 1 << 20, 3 << 40] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "v={v} lo={lo} hi={hi}");
        }
        assert_eq!(bucket_bounds(0), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bucket_bounds_rejects_overflow() {
        let _ = bucket_bounds(BUCKETS);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.buckets()[0], 1);
        assert_eq!(s.buckets()[1], 1);
        assert_eq!(s.buckets()[64], 1);
        assert_eq!(s.sum(), 0); // 0 + 1 + MAX wraps around to 0
    }

    #[test]
    fn mean_and_percentiles_of_uniform_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(1000); // bucket [512, 1024)
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 1000.0).abs() < 1e-9);
        let p50 = s.percentile(50.0);
        assert!((512.0..1024.0).contains(&p50), "{p50}");
        assert!(s.percentile(0.0) >= 512.0);
        assert!(s.percentile(100.0) <= 1024.0);
    }

    #[test]
    fn percentile_empty_and_single() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.max_estimate(), 0.0);
        let h = Histogram::new();
        h.record(5);
        let s = h.snapshot();
        let v = s.percentile(50.0);
        assert!((4.0..8.0).contains(&v), "{v}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 1, 5, 100, 1 << 30] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 5, 999, u64::MAX] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn max_estimate_bounds_the_top_bucket() {
        let h = Histogram::new();
        h.record(700);
        let s = h.snapshot();
        assert_eq!(s.max_estimate(), 1024.0);
    }
}
