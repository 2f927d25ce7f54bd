//! Sample statistics: percentiles and the reduction of a run's rounds to
//! the reported timing metrics.
//!
//! A run is a sequence of rounds (see `main.rs`). Each round's operations
//! are cut into consecutive *fine* segments of a millisecond or two and
//! into *tail* segments of 1000 operations or fewer (fixed operation
//! counts per workload). A segment has a throughput, and a latency
//! percentile: p50 for a fine segment, p99 for a tail segment. The
//! **quiet segments** of a run are the fifth of its segments with the
//! highest throughput; the reported throughput is the median throughput
//! of the quiet fine segments (about the 90th percentile of them all),
//! the reported p50 the median of their p50s, and the reported p99 the
//! median p99 of the quiet tail segments. All three are then scaled to
//! the reference host's speed by the run's calibration (`calib.rs`).
//!
//! Why: the reference host is a shared virtual machine whose
//! interruptions only ever slow a segment down. A segment shorter than
//! the hypervisor's time slice often runs between two of them, and the
//! quiet segments are what the program does when left alone; they repeat
//! from run to run where the median of all segments, or a percentile of
//! the whole phase, does not. Segments are chosen by throughput, not by
//! the latency read from them: in a closed loop with requests in flight
//! the lowest latencies belong to the moments after an interruption of
//! the generator has let the pipeline run empty. And a segment is ranked
//! by the lower of its own throughput and the next segment's: requests
//! still in flight when a segment ends wait out whatever interrupts the
//! one after it.

/// Operations in a tail segment where a workload has no reason for
/// fewer: its p99 has ten samples beyond it.
pub const TAIL_SEGMENT_OPS: usize = 1000;
/// Share of a run's segments, fastest first, that count as quiet.
pub const QUIET_SHARE: f64 = 0.2;

/// Linear-interpolated percentile (`p` in 0..=100) of an
/// ascending-sorted slice — the convention `ffdl-serve` reports with.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a copy of `values` ascending (`total_cmp`, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A reported value with the per-segment values behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The reported value: the median over the quiet segments.
    pub value: f64,
    /// Median over all segments.
    pub median: f64,
    /// Inter-quartile range over all segments.
    pub iqr: f64,
    /// Segments behind the value, quiet or not.
    pub segments: usize,
}

impl Spread {
    fn scaled(self, factor: f64) -> Self {
        Self {
            value: self.value * factor,
            median: self.median * factor,
            iqr: self.iqr * factor,
            segments: self.segments,
        }
    }
}

/// One segment: its throughput and the latency percentile read from it.
#[derive(Debug, Clone, Copy)]
struct Segment {
    throughput: f64,
    /// The lower of this segment's throughput and the next one's in the
    /// same round: what quiet segments are chosen by.
    rank: f64,
    latency: f64,
}

/// `of` over all segments, and its median over the quiet ones.
fn spread_of(segments: &[Segment], of: impl Fn(&Segment) -> f64) -> Spread {
    let mut by_speed: Vec<&Segment> = segments.iter().collect();
    by_speed.sort_by(|a, b| b.rank.total_cmp(&a.rank));
    let quiet = ((segments.len() as f64 * QUIET_SHARE).round() as usize).clamp(1, segments.len());
    let quiet_values: Vec<f64> = by_speed[..quiet].iter().map(|s| of(s)).collect();
    let all = sorted(&segments.iter().map(of).collect::<Vec<_>>());
    Spread {
        value: median(&quiet_values),
        median: percentile(&all, 50.0),
        iqr: percentile(&all, 75.0) - percentile(&all, 25.0),
        segments: all.len(),
    }
}

/// One operation of a round, in operation order.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Position on the round's clock, ns since the round began:
    /// completion time in a closed loop with one caller (on the clock
    /// the workload times its calls with), submission time when requests
    /// are in flight.
    pub t_ns: u64,
    /// Latency in µs; `None` when the operation failed or was refused.
    pub latency_us: Option<f64>,
    /// Verified units of work the operation completed (rows of a batch).
    pub units: u32,
}

/// The reduction of a run to the reported timing metrics.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// Units of work per second.
    pub throughput: Spread,
    /// Median latency, µs.
    pub p50: Spread,
    /// 99th-percentile latency, µs.
    pub p99: Spread,
    /// Latency samples behind the three.
    pub samples: usize,
}

/// Units of work per second over a whole round, as measured — what a
/// pool's per-request overhead is derived from, where the quiet
/// segments would flatter it.
pub fn mean_throughput(ops: &[Op]) -> f64 {
    let units: u64 = ops
        .iter()
        .filter(|o| o.latency_us.is_some())
        .map(|o| o.units as u64)
        .sum();
    units as f64 * 1e9 / ops.last().map_or(1, |o| o.t_ns.max(1)) as f64
}

/// Index ranges of `n` operations cut into consecutive segments of
/// `size`; a shorter remainder is left out, unless it is all there is.
pub fn segment_ranges(n: usize, size: usize) -> Vec<std::ops::Range<usize>> {
    let size = size.min(n).max(1);
    (0..n / size).map(|i| i * size..(i + 1) * size).collect()
}

/// Segments of `size` operations of one round, with latency percentile
/// `p`; a segment none of whose operations succeeded is left out.
fn segments_of(ops: &[Op], size: usize, p: f64) -> Vec<Segment> {
    let mut segments: Vec<Segment> = segment_ranges(ops.len(), size)
        .into_iter()
        .filter_map(|range| {
            let begin_ns = if range.start == 0 {
                0
            } else {
                ops[range.start - 1].t_ns
            };
            let span_ns = ops[range.end - 1].t_ns.saturating_sub(begin_ns).max(1);
            let seg = &ops[range];
            let units: u64 = seg
                .iter()
                .filter(|o| o.latency_us.is_some())
                .map(|o| o.units as u64)
                .sum();
            let lat = sorted(&seg.iter().filter_map(|o| o.latency_us).collect::<Vec<_>>());
            let throughput = units as f64 * 1e9 / span_ns as f64;
            (!lat.is_empty()).then(|| Segment {
                throughput,
                rank: throughput,
                latency: percentile(&lat, p),
            })
        })
        .collect();
    for i in 1..segments.len() {
        segments[i - 1].rank = segments[i - 1].rank.min(segments[i].throughput);
    }
    segments
}

/// The segments of a run, collected round by round.
#[derive(Debug, Clone)]
pub struct Timing {
    fine_ops: usize,
    tail_ops: usize,
    fine: Vec<Segment>,
    tail: Vec<Segment>,
    samples: usize,
}

impl Timing {
    /// `fine_ops` operations make a fine segment, `tail_ops` a tail
    /// segment.
    pub fn new((fine_ops, tail_ops): (usize, usize)) -> Self {
        Self {
            fine_ops: fine_ops.max(1),
            tail_ops: tail_ops.max(1),
            fine: Vec::new(),
            tail: Vec::new(),
            samples: 0,
        }
    }

    /// Adds one round. `ops` are in operation order with non-decreasing
    /// `t_ns`, the round's clock starting at 0.
    pub fn add_round(&mut self, ops: &[Op]) {
        if ops.is_empty() {
            return;
        }
        self.fine.extend(segments_of(ops, self.fine_ops, 50.0));
        self.tail.extend(segments_of(ops, self.tail_ops, 99.0));
        self.samples += ops.iter().filter(|o| o.latency_us.is_some()).count();
    }

    /// The reported values. `slowdown` is how much slower than the
    /// reference the host ran during the run (`Calibrator::slowdown`),
    /// which every value is divided out of.
    ///
    /// # Panics
    ///
    /// Panics when no operation carried a latency.
    pub fn summary(&self, slowdown: f64) -> PhaseSummary {
        assert!(
            !self.fine.is_empty(),
            "a timed phase needs at least one latency sample"
        );
        PhaseSummary {
            throughput: spread_of(&self.fine, |s| s.throughput).scaled(slowdown),
            p50: spread_of(&self.fine, |s| s.latency).scaled(1.0 / slowdown),
            p99: spread_of(&self.tail, |s| s.latency).scaled(1.0 / slowdown),
            samples: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn segments_are_whole_and_consecutive() {
        for (n, size, segments) in [
            (1, 8, 1),
            (7, 8, 1),
            (8, 8, 1),
            (17, 8, 2),
            (1003, 200, 5),
            (100_000, 1000, 100),
        ] {
            let ranges = segment_ranges(n, size);
            assert_eq!(ranges.len(), segments, "{n} operations by {size}");
            assert_eq!(ranges[0].start, 0);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(ranges.last().unwrap().end <= n);
            assert!(n < size || ranges.iter().all(|r| r.len() == size));
        }
    }

    fn steady_ops(n: usize, gap_ns: u64, latency_us: f64) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                t_ns: (i as u64 + 1) * gap_ns,
                latency_us: Some(latency_us),
                units: 2,
            })
            .collect()
    }

    #[test]
    fn summary_of_steady_rounds() {
        // One op of two units every 1 µs: 2M units/s.
        let mut t = Timing::new((200, TAIL_SEGMENT_OPS));
        t.add_round(&steady_ops(20_000, 1_000, 5.0));
        t.add_round(&steady_ops(20_000, 1_000, 5.0));
        let s = t.summary(1.0);
        assert!(
            (s.throughput.value - 2e6).abs() < 1.0,
            "{}",
            s.throughput.value
        );
        assert!(s.throughput.iqr < 1.0);
        assert_eq!(s.throughput.segments, 200);
        assert_eq!(s.p50.value, 5.0);
        assert_eq!(s.p99.value, 5.0);
        assert_eq!(s.p99.segments, 40);
        assert_eq!(s.samples, 40_000);
    }

    #[test]
    fn a_run_on_a_slower_host_reads_the_same() {
        // The same work with every gap and latency a quarter longer, and
        // a calibration that says so.
        let mut t = Timing::new((200, TAIL_SEGMENT_OPS));
        t.add_round(&steady_ops(4_000, 1_250, 6.25));
        let s = t.summary(1.25);
        assert!((s.throughput.value - 2e6).abs() < 1.0);
        assert!((s.p50.value - 5.0).abs() < 1e-9);
        assert!((s.p99.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn slow_segments_do_not_move_the_quiet_values() {
        let mut ops = steady_ops(20_000, 1_000, 5.0);
        // Operations 6000 to 16000 run at half speed with a ten-fold tail.
        let mut shift = 0;
        for (i, op) in ops.iter_mut().enumerate() {
            if (6_000..16_000).contains(&i) {
                shift += 1_000;
                if i % 50 == 0 {
                    op.latency_us = Some(50.0);
                }
            }
            op.t_ns += shift;
        }
        let mut t = Timing::new((500, TAIL_SEGMENT_OPS));
        t.add_round(&ops);
        let s = t.summary(1.0);
        assert!((s.throughput.value - 2e6).abs() < 1.0);
        assert!(
            (s.throughput.median - 1.5e6).abs() < 1.0,
            "{}",
            s.throughput.median
        );
        assert_eq!(s.p99.value, 5.0);
        assert_eq!(s.p99.median, 27.5);
        assert_eq!(s.p50.value, 5.0);
    }

    #[test]
    fn an_emptied_pipeline_is_not_a_quiet_segment() {
        // A closed loop with requests in flight: steady segments at
        // 300 µs, and one in four where the generator was interrupted,
        // the pipeline ran empty, and the few requests submitted into it
        // came back in 30 µs — over three times the span.
        let mut ops = Vec::new();
        let mut t = 0;
        for segment in 0..40 {
            let drained = segment % 4 == 0;
            for _ in 0..100 {
                t += if drained { 3_000 } else { 1_000 };
                ops.push(Op {
                    t_ns: t,
                    latency_us: Some(if drained { 30.0 } else { 300.0 }),
                    units: 1,
                });
            }
        }
        let mut timing = Timing::new((100, TAIL_SEGMENT_OPS));
        timing.add_round(&ops);
        let s = timing.summary(1.0);
        assert_eq!(s.p50.value, 300.0);
        assert!((s.throughput.value - 1e6).abs() < 1.0);
    }

    #[test]
    fn a_tail_present_in_every_segment_shows() {
        // 2% of the operations are slow everywhere: no quiet fifth.
        let mut ops = steady_ops(20_000, 1_000, 5.0);
        for op in ops.iter_mut().step_by(50) {
            op.latency_us = Some(50.0);
        }
        let mut t = Timing::new((500, TAIL_SEGMENT_OPS));
        t.add_round(&ops);
        assert_eq!(t.summary(1.0).p99.value, 50.0);
    }

    #[test]
    fn a_round_shorter_than_a_tail_segment_is_one() {
        // Rounds of 40 slow calls; in four of the ten, one call takes
        // three times as long. The quiet fifth of the rounds has none.
        let mut t = Timing::new((8, TAIL_SEGMENT_OPS));
        for round in 0..10 {
            let mut ops = steady_ops(40, 10_000_000, 10_000.0);
            if round < 4 {
                ops[7].latency_us = Some(30_000.0);
                for op in &mut ops[7..] {
                    op.t_ns += 20_000_000;
                }
            }
            t.add_round(&ops);
        }
        let s = t.summary(1.0);
        assert_eq!(s.p50.value, 10_000.0);
        assert_eq!(s.p99.segments, 10);
        assert_eq!(s.p99.value, 10_000.0);
        assert!(s.p99.median > 10_000.0 || s.p99.iqr > 0.0);
        assert_eq!(s.throughput.segments, 50);
    }

    #[test]
    fn failed_operations_carry_no_latency_and_no_units() {
        let mut ops = steady_ops(1_000, 1_000, 5.0);
        for op in ops.iter_mut().step_by(2) {
            op.latency_us = None;
        }
        let mut t = Timing::new((100, TAIL_SEGMENT_OPS));
        t.add_round(&ops);
        let s = t.summary(1.0);
        assert!((s.throughput.value - 1e6).abs() < 1.0);
        assert_eq!(s.samples, 500);
    }
}
