//! The benchmark's own span recorder: spans are opened and closed from
//! the benchmark's files around each call into a crate, kept in memory,
//! and written to `<out>/trace-<workload>.json` when the run ends.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;
/// Spans written to the trace file; aggregates always cover every span.
const FILE_SPAN_CAP: usize = 20_000;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// ns since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one was opened inside, or `u32::MAX`.
    pub parent: u32,
    /// The operation (request id, batch index, …) the span belongs to.
    pub op: u64,
}

/// Handle of an open span.
#[must_use = "close the span with Recorder::end"]
pub struct Open(u32);

/// Per-name totals over all spans of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    /// Σ (end − start), ns.
    pub total_ns: u64,
    /// Σ (duration − time covered by child spans), ns.
    pub self_ns: u64,
}

impl Total {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }
}

/// What a serving report says about one request, joined to its submit
/// span by operation id in the trace file.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub latency_us: f64,
    pub batch_size: usize,
    pub worker: usize,
}

/// Single-threaded span recorder (each traced phase records from one
/// thread: the caller of an offline workload, the generator of a pool).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let index = self.spans.len() as u32;
        self.stack.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Open(index)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Forgets `open`, which must be the innermost open span and have no
    /// children — for a call that turned out to do no work (a refused
    /// submit in a polling loop).
    pub fn cancel(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close innermost first");
        assert_eq!(
            self.spans.len() as u32,
            open.0 + 1,
            "a cancelled span has no children"
        );
        self.spans.pop();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span whose interval was timed by the caller — used when
    /// a loop accumulates one stage's time across iterations.
    pub fn add(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// The recorder's clock, for [`Recorder::add`].
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. A span's self time is its duration minus the
    /// durations of the spans opened directly inside it.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        totals(&self.spans)
    }

    /// The trace document: per-name totals over every span, then the
    /// first spans in full, each `served` request joined to its span.
    pub fn document(&self, workload: &str, served: &BTreeMap<u64, Served>) -> Value {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Value::obj([
                        ("count", Value::from(t.count)),
                        ("total_ns", Value::from(t.total_ns)),
                        ("self_ns", Value::from(t.self_ns)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .take(FILE_SPAN_CAP)
            .map(|s| {
                let mut pairs = vec![
                    ("name", Value::from(s.name)),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::from(s.parent as u64)
                        },
                    ),
                    ("op", Value::from(s.op)),
                ];
                if let Some(r) = served.get(&s.op).filter(|_| s.parent == NO_PARENT) {
                    pairs.push(("latency_us", Value::from(r.latency_us)));
                    pairs.push(("batch_size", Value::from(r.batch_size as u64)));
                    pairs.push(("worker", Value::from(r.worker as u64)));
                }
                Value::obj(pairs)
            })
            .collect();
        Value::obj([
            ("workload", Value::from(workload)),
            ("spans_recorded", Value::from(self.spans.len() as u64)),
            (
                "spans_written",
                Value::from(self.spans.len().min(FILE_SPAN_CAP) as u64),
            ),
            ("totals", Value::obj(totals)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// Per-name totals of a span list (see [`Recorder::totals`]).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let duration = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(*children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 0, 100, NO_PARENT),
            span("layer", 10, 90, 0),
            span("fft", 20, 50, 1),
            span("mac", 50, 60, 1),
            span("fft", 60, 85, 1),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["op"],
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            t["layer"],
            Total {
                count: 1,
                total_ns: 80,
                self_ns: 15
            }
        );
        assert_eq!(
            t["fft"],
            Total {
                count: 2,
                total_ns: 55,
                self_ns: 55
            }
        );
        assert_eq!(t["mac"].self_ns, 10);
        // Self times add up to the root's duration.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut rec = Recorder::new();
        let op = rec.begin("op", 7);
        rec.span("inner", 7, || std::hint::black_box(1 + 1));
        let (a, b) = (rec.clock_ns(), rec.clock_ns());
        rec.add("stage", 7, a, b);
        rec.end(op);
        rec.span("next", 8, || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_PARENT);
        assert!(spans[0].end_ns >= spans[1].end_ns && spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn document_joins_served_requests_to_root_spans() {
        let mut rec = Recorder::new();
        rec.span("serve.submit", 3, || ());
        let served = BTreeMap::from([(
            3,
            Served {
                latency_us: 12.5,
                batch_size: 4,
                worker: 1,
            },
        )]);
        let doc = rec.document("serve_saturated", &served);
        let first = &doc.get("spans").unwrap().as_array().unwrap()[0];
        assert_eq!(first.get("latency_us").unwrap().as_f64(), Some(12.5));
        assert_eq!(first.get("batch_size").unwrap().as_f64(), Some(4.0));
        assert_eq!(crate::json::parse(&doc.render()).unwrap(), doc);
    }
}
