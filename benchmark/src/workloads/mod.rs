//! The eight workloads and what they share: the run context, the
//! verified round, and the trait the runner drives them through.

mod offline;
mod sched;
mod serve;
mod stream;
mod train;

use crate::layers::LayerMetrics;
use crate::stats::Op;
use crate::trace::{Recorder, Served};
use ffdl::core::full_registry;
use ffdl::deploy::{InferenceEngine, Prediction};
use ffdl::nn::{clone_network, Network};
use ffdl::tensor::Tensor;
use ffdl_serve::ServeResponse;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Seed of every model's weights. They do not depend on `--seed` (the
/// inputs do), so counts that follow from the model repeat across
/// seeds, and cost does not vary with the seed through how sparse a
/// model's activations happen to be.
pub const MODEL_SEED: u64 = 0x0FFD_1000;
/// A closed loop that makes no progress for this long gives up; what is
/// still outstanding counts as lost.
pub const STALL_LIMIT: std::time::Duration = std::time::Duration::from_secs(5);
/// How long a closed loop that found its window full waits before it
/// looks again, spinning on its own clock. Polling a pool's counters
/// without a pause keeps their cache lines bouncing between the
/// generator's core and the worker's, and what that costs the worker
/// depends on where the host has put the two virtual CPUs.
pub const POLL_BACKOFF: std::time::Duration = std::time::Duration::from_micros(20);

/// Spins for [`POLL_BACKOFF`] without touching shared memory.
pub fn poll_backoff() {
    let pause = Instant::now();
    while pause.elapsed() < POLL_BACKOFF {
        std::hint::spin_loop();
    }
}

/// What a workload process was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Warm-up sizes are multiplied by this (`--smoke` shrinks them).
    pub scale: f64,
    /// Directory for trace files and the temporary model store.
    pub out: PathBuf,
    pub nproc: usize,
    /// Worker threads of a serving workload.
    pub workers: usize,
}

impl Ctx {
    /// `count` scaled for smoke runs, at least `floor`.
    pub fn scaled(&self, count: usize, floor: usize) -> usize {
        ((count as f64 * self.scale) as usize).max(floor)
    }
}

/// Attempted / succeeded / failed operations of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub succeeded: u64,
    /// Failed, refused, expired, lost or wrong-output operations.
    pub failed: u64,
    /// The failed operations that make the run incorrect: an output
    /// that differs from its reference, or an accepted request that is
    /// lost or answered twice. A typed refusal is a failure, not an error.
    pub wrong: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    /// One operation whose only way to fail is to be wrong.
    pub fn record(&mut self, right: bool) {
        self.attempted += 1;
        if right {
            self.succeeded += 1;
        } else {
            self.failed += 1;
            self.wrong += 1;
        }
    }
}

/// What became of one request a pool accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// In neither the responses nor the failures.
    Lost,
    /// Answered once, bit-identical to the offline reference; latency µs.
    Served(f64),
    /// Answered once with an output that differs from the reference.
    WrongOutput,
    /// Ended as one typed failure (shed, expired, refused).
    Failed,
    /// More than one response or failure carries the id.
    Duplicated,
}

/// Exactly-once accounting of accepted requests against a report.
pub struct Ledger {
    fates: Vec<Fate>,
}

impl Ledger {
    /// `requests` accepted, none accounted for yet.
    pub fn new(requests: usize) -> Self {
        Self {
            fates: vec![Fate::Lost; requests],
        }
    }

    pub fn response(&mut self, index: usize, right: bool, latency_us: f64) {
        self.settle(
            index,
            if right {
                Fate::Served(latency_us)
            } else {
                Fate::WrongOutput
            },
        );
    }

    pub fn failure(&mut self, index: usize) {
        self.settle(index, Fate::Failed);
    }

    fn settle(&mut self, index: usize, fate: Fate) {
        if let Some(slot) = self.fates.get_mut(index) {
            *slot = if *slot == Fate::Lost {
                fate
            } else {
                Fate::Duplicated
            };
        }
    }

    pub fn fate(&self, index: usize) -> Fate {
        self.fates[index]
    }
}

/// One verified round of a run: a fixed number of timed operations
/// (warm-up already discarded). The count is fixed, not the time, so
/// that the memory a round needs does not depend on the host's speed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Timed operations in operation order.
    pub ops: Vec<Op>,
    /// Wall-clock seconds the timed operations took.
    pub wall_s: f64,
    pub counts: Counts,
    /// Warm-up operations that ran before the round (pools warm up per
    /// server, so every round has its own).
    pub warmup: Counts,
    /// Operations that succeeded, verified and met the latency limit.
    pub slo_met: u64,
    /// Outputs whose top-1 label was compared with the reference, and
    /// how many agreed — feeds `quality_top1` on serving workloads.
    pub top1: (u64, u64),
    /// Report-side facts the layer metrics are derived from.
    pub facts: BTreeMap<&'static str, f64>,
    /// Timed responses of a pool by the size of the batch they rode in.
    riders: BTreeMap<usize, u64>,
    /// Per-request report rows joined into the trace file.
    pub served: BTreeMap<u64, Served>,
}

impl Phase {
    /// Notes one timed response of a pool: whether its label agrees with
    /// the reference, the batch it rode in, and (in a traced phase) its
    /// report row for the trace file.
    pub fn note_response(&mut self, r: &ServeResponse, reference: &Prediction, traced: bool) {
        self.top1.0 += 1;
        self.top1.1 += (r.prediction.label == reference.label) as u64;
        *self.riders.entry(r.batch_size.max(1)).or_default() += 1;
        if traced {
            let row = Served {
                latency_us: r.latency_us,
                batch_size: r.batch_size,
                worker: r.worker,
            };
            self.served.insert(r.id, row);
        }
    }

    /// Batches the pool formed, by size.
    pub fn batch_sizes(&self) -> BTreeMap<usize, u64> {
        self.riders
            .iter()
            .map(|(&size, &n)| (size, n.div_ceil(size as u64)))
            .collect()
    }

    /// Requests per batch the pool formed.
    pub fn mean_batch(&self) -> f64 {
        let sizes = self.batch_sizes();
        let batches: u64 = sizes.values().sum();
        let requests: u64 = sizes.iter().map(|(size, n)| *size as u64 * n).sum();
        requests as f64 / batches.max(1) as f64
    }

    /// Adds one timed operation: its place on the phase clock, what
    /// became of it, and the latency limit it is judged against. Returns
    /// the latency when it was served.
    pub fn push(&mut self, t_ns: u64, fate: Fate, slo_us: f64) -> Option<f64> {
        let latency_us = match fate {
            Fate::Served(us) => Some(us),
            _ => None,
        };
        self.counts.attempted += 1;
        match fate {
            Fate::Served(us) => {
                self.counts.succeeded += 1;
                self.slo_met += (us <= slo_us) as u64;
            }
            Fate::Failed => self.counts.failed += 1,
            Fate::Lost | Fate::WrongOutput | Fate::Duplicated => {
                self.counts.failed += 1;
                self.counts.wrong += 1;
            }
        }
        self.ops.push(Op {
            t_ns,
            latency_us,
            units: 1,
        });
        latency_us
    }
}

/// The reference check a workload makes once, after timing.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Top-1 agreement with the workload's reference.
    pub top1: f64,
    /// Share of sampled outputs outside the reference tolerance; that
    /// share of the timed operations counts as failed.
    pub bad_share: f64,
}

/// Wall-clock cost of the set-up stages the per-layer metrics name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_gen_ms: f64,
    pub quantize_ms: f64,
    pub publish_us: f64,
    pub load_us: f64,
}

/// A prepared workload: inputs generated, model built, pool started,
/// caches warm.
pub trait Workload {
    /// Operations in a fine and in a tail segment of the statistics. A
    /// fine segment is a millisecond or two of work and at least eight
    /// operations, so that its median is one; a tail segment is 1000
    /// operations where those take about 5 ms, and fewer where they take
    /// longer, down to the fine segment's eight where a call takes
    /// milliseconds.
    fn segment_ops(&self) -> (usize, usize);
    /// Runs one round — a fixed number of operations, about 0.4 s on
    /// the reference host — verifying every output. With a recorder,
    /// spans wrap each public call the round makes.
    fn measure(&mut self, rec: Option<&mut Recorder>) -> Phase;
    /// Makes sure the next [`measure`](Workload::measure) starts timing
    /// at once: a serving workload whose pool the previous round
    /// finished starts and warms a new one.
    fn ready(&mut self) {}
    /// The workload's reference check, made once after timing (dense
    /// materialisation, training form, f32 parent, held-out labels).
    /// `None` for a pool: its rounds compare every response with the
    /// offline prediction and count label agreement as they verify.
    fn reference_check(&mut self) -> Option<Quality>;
    /// Wire-format bytes of the network served.
    fn model_bytes(&self) -> u64;
    /// FNV-1a digest of the generated inputs.
    fn input_digest(&self) -> u64;
    fn setup_times(&self) -> SetupTimes;
    /// The outside-in layer walk of the traced run, given the last
    /// untraced and the last traced round. Returns how many of its own checks failed
    /// (rows where re-executed Algorithm 1 differs from the layer).
    fn layer_metrics(
        &mut self,
        untraced: &Phase,
        traced: &Phase,
        rec: &mut Recorder,
        out: &mut LayerMetrics,
    ) -> u64;
    /// Stops what set-up started (worker pools, temporary stores).
    fn discard(self: Box<Self>) {}
}

/// Builds workload `name` up to its first timed operation.
pub fn prepare(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "mnist_single" => Box::new(offline::mnist_single(ctx)),
        "fc4096_batch" => Box::new(offline::fc4096_batch(ctx, false)),
        "fc4096_batch_int8" => Box::new(offline::fc4096_batch(ctx, true)),
        "cifar_single" => Box::new(offline::cifar_single(ctx)),
        "train_step" => Box::new(train::TrainStep::prepare(ctx)),
        "serve_saturated" => Box::new(serve::ServeSaturated::prepare(ctx)),
        "sched_saturated" => Box::new(sched::SchedSaturated::prepare(ctx)),
        "stream_sessions" => Box::new(stream::StreamSessions::prepare(ctx)),
        _ => return None,
    })
}

/// Offline `InferenceEngine::predict` of every `[width]` sample, one at
/// a time: what a pool's responses must equal bit for bit.
pub fn offline_predictions(network: &Network, samples: &[Tensor]) -> Vec<Prediction> {
    let mut engine =
        InferenceEngine::new(clone_network(network, &full_registry()).expect("clonable network"));
    samples
        .iter()
        .map(|x| {
            let row = x.reshape(&[1, x.len()]).expect("flat sample");
            engine.predict(&row).expect("offline predict").remove(0)
        })
        .collect()
}

/// FNV-1a over the bit patterns of every input value.
pub fn digest<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in tensors {
        for v in t.as_slice() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Milliseconds `f` took, with its result.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Index of the largest value (first on ties) — the engine's rule.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |best, (i, &v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_every_value() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[1.0, 2.0, 3.5]);
        assert_eq!(digest([&a]), digest([&a.clone()]));
        assert_ne!(digest([&a]), digest([&b]));
        assert_ne!(digest([&a, &b]), digest([&b, &a]));
    }

    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax(&[0.1, 0.7, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }

    #[test]
    fn batch_sizes_count_batches_not_riders() {
        // Two batches of 4, one of 2, three singletons.
        let mut phase = Phase::default();
        for (size, riders) in [(4, 8), (2, 2), (1, 3)] {
            phase.riders.insert(size, riders);
        }
        assert_eq!(
            phase.batch_sizes(),
            BTreeMap::from([(1, 3), (2, 1), (4, 2)])
        );
        assert!((phase.mean_batch() - 13.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_accounts_for_every_accepted_request_exactly_once() {
        let mut ledger = Ledger::new(6);
        ledger.response(0, true, 12.0);
        ledger.response(1, false, 9.0);
        ledger.failure(2);
        ledger.response(3, true, 7.0);
        ledger.failure(3);
        ledger.response(4, true, 30.0);
        ledger.response(99, true, 1.0); // not one of ours: ignored
        let mut phase = Phase::default();
        for i in 0..6 {
            phase.push(i as u64 * 10, ledger.fate(i), 20.0);
        }
        assert_eq!(
            [
                ledger.fate(1),
                ledger.fate(2),
                ledger.fate(3),
                ledger.fate(5)
            ],
            [
                Fate::WrongOutput,
                Fate::Failed,
                Fate::Duplicated,
                Fate::Lost
            ]
        );
        assert_eq!(
            phase.counts,
            Counts {
                attempted: 6,
                succeeded: 2,
                failed: 4,
                wrong: 3
            }
        );
        assert_eq!(phase.slo_met, 1, "30 µs misses the 20 µs limit");
        assert_eq!(
            phase.ops.iter().filter(|o| o.latency_us.is_some()).count(),
            2
        );
    }
}
