//! `train_step`: Algorithm 2 — Arch. 1 in training form, one
//! `Network::train_batch` call per operation.
//!
//! Training runs in cycles, one per round: every [`CYCLE_STEPS`] steps
//! the network and the optimiser start again from the initial weights.
//! Step time drifts as training goes on (it depends on how sparse the
//! activations have become), so one long run would time a different
//! regime in every segment; cycles keep the timed work stationary, and
//! make the held-out accuracy at the end of a cycle a function of the
//! seed alone.

use super::offline::{mnist_dataset, wire_bytes};
use super::{digest, timed_ms, Ctx, Phase, Quality, SetupTimes, Workload, MODEL_SEED};
use crate::host::{OpClock, Stopwatch};
use crate::layers::LayerMetrics;
use crate::spec;
use crate::stats::Op;
use crate::trace::Recorder;
use ffdl::core::CirculantDense;
use ffdl::data::Dataset;
use ffdl::nn::{Network, Sgd, SoftmaxCrossEntropy};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_rng::{SeedableRng, SmallRng};

const BATCH: usize = 32;
const TRAIN_BATCHES: usize = 128;
/// Seed of the image set (the same under every `--seed`).
const DATA_SEED: u64 = 0x0FFD_DA7A;
const HOLDOUT: usize = 2_048;
/// Twice the paper's rate (§V-C): learns the synthetic digits within a
/// cycle without diverging.
const LEARNING_RATE: f32 = 0.002;
const MOMENTUM: f32 = 0.9;
const WARMUP_STEPS: usize = 600;
/// Steps from fresh weights to the end of a training cycle.
const CYCLE_STEPS: usize = 2_400;
/// Steps in a fine segment of the statistics (about 6 ms) and in a tail
/// segment (70 ms: its p99 lies between its slowest three).
const FINE_STEPS: usize = 16;
const TAIL_STEPS: usize = 200;
/// Steps of the decomposed walk in the traced run.
const WALK_STEPS: usize = 200;

pub struct TrainStep {
    cycle_steps: usize,
    net: Network,
    loss: SoftmaxCrossEntropy,
    opt: Sgd,
    batches: Vec<(Tensor, Vec<usize>)>,
    /// Steps taken in the current cycle.
    cycle_pos: usize,
    holdout: Dataset,
    /// Every layer's parameters as first initialised.
    initial: Vec<Vec<Tensor>>,
    /// Held-out accuracy at the end of the last completed cycle.
    cycle_top1: Option<f64>,
    input_digest: u64,
    setup: SetupTimes,
}

impl TrainStep {
    pub fn prepare(ctx: &Ctx) -> Self {
        // The images are the same under every seed; the seed deals them
        // into batches. Step time depends on which units of the network
        // a batch leaves at zero (`Tensor::matmul` skips them), and with
        // images drawn per seed the p99 of identical code ranged from
        // 413 to 595 µs over ten seeds.
        let ((batches, holdout), data_gen_ms) = timed_ms(|| {
            let ds = mnist_dataset(TRAIN_BATCHES * BATCH + HOLDOUT, DATA_SEED);
            let (train, holdout) = ds.split_at(TRAIN_BATCHES * BATCH);
            let mut rng = SmallRng::seed_from_u64(ctx.seed);
            let batches: Vec<_> = train.shuffled_batches(BATCH, &mut rng).collect();
            (batches, holdout)
        });
        // The fused loss takes logits: train without the trailing
        // softmax, as `paper::train_classifier` does.
        let mut net = paper::arch1(MODEL_SEED);
        net.pop_layer();
        let mut w = Self {
            cycle_steps: ctx.scaled(CYCLE_STEPS, 64),
            initial: net
                .layers()
                .iter()
                .map(|l| l.param_tensors().into_iter().cloned().collect())
                .collect(),
            net,
            loss: SoftmaxCrossEntropy::new(),
            opt: Sgd::with_momentum(LEARNING_RATE, MOMENTUM),
            input_digest: digest(batches.iter().map(|(x, _)| x)),
            batches,
            cycle_pos: 0,
            holdout,
            cycle_top1: None,
            setup: SetupTimes {
                data_gen_ms,
                ..Default::default()
            },
        };
        for _ in 0..ctx.scaled(WARMUP_STEPS, 8) {
            w.step();
        }
        w.restart();
        w
    }

    /// Starts a training cycle: the initial weights (loaded in place, so
    /// no layer or FFT plan is rebuilt), a fresh optimiser, the first
    /// batch.
    fn restart(&mut self) {
        for (layer, params) in self.net.layers_mut().iter_mut().zip(&self.initial) {
            if !params.is_empty() {
                layer
                    .load_params(params)
                    .expect("a layer takes its own parameters back");
            }
        }
        self.opt = Sgd::with_momentum(LEARNING_RATE, MOMENTUM);
        self.cycle_pos = 0;
    }

    fn holdout_top1(&mut self) -> f64 {
        self.net
            .accuracy(self.holdout.inputs(), self.holdout.labels())
            .expect("holdout accuracy") as f64
    }

    /// One SGD step on the cycle's next batch: its loss.
    fn step(&mut self) -> f32 {
        let (x, y) = &self.batches[self.cycle_pos % self.batches.len()];
        self.cycle_pos += 1;
        self.net
            .train_batch(x, y, &self.loss, &mut self.opt)
            .unwrap_or(f32::NAN)
    }
}

/// Whether the loss fell over a cycle: the mean of its last tenth below
/// the mean of its first tenth, and finite.
fn loss_fell(cycle: &[f32]) -> bool {
    let tenth = (cycle.len() / 10).max(1);
    let mean = |s: &[f32]| s.iter().map(|&l| l as f64).sum::<f64>() / s.len() as f64;
    let (first, last) = (mean(&cycle[..tenth]), mean(&cycle[cycle.len() - tenth..]));
    last.is_finite() && last < first
}

impl Workload for TrainStep {
    fn segment_ops(&self) -> (usize, usize) {
        (FINE_STEPS, TAIL_STEPS)
    }

    /// One training cycle from the initial weights. A step takes a third
    /// of a millisecond, so it is timed on the thread's CPU clock.
    fn measure(&mut self, mut rec: Option<&mut Recorder>) -> Phase {
        let slo_us = spec::workload("train_step").expect("declared").slo_us;
        let mut phase = Phase::default();
        phase.ops.reserve_exact(self.cycle_steps);
        let mut losses: Vec<f32> = Vec::with_capacity(self.cycle_steps);
        self.restart();
        let sw = Stopwatch::start(OpClock::ThreadCpu);
        let mut begin_ns = 0;
        for op in 0..self.cycle_steps {
            let span = rec
                .as_deref_mut()
                .map(|r| r.begin("nn.train_batch", op as u64));
            let loss = self.step();
            if let (Some(r), Some(open)) = (rec.as_deref_mut(), span) {
                r.end(open);
            }
            let end_ns = sw.now_ns();
            let ok = loss.is_finite();
            losses.push(loss);
            phase.counts.record(ok);
            phase.ops.push(Op {
                t_ns: end_ns,
                latency_us: ok.then_some((end_ns - begin_ns) as f64 / 1e3),
                units: 1,
            });
            begin_ns = end_ns;
        }
        phase.wall_s = sw.wall_s();
        self.cycle_top1 = Some(self.holdout_top1());
        // The loss must fall over the cycle, or none of its steps counts.
        if !loss_fell(&losses) {
            for op in phase.ops.iter_mut().filter(|op| op.latency_us.is_some()) {
                op.latency_us = None;
                phase.counts.succeeded -= 1;
                phase.counts.failed += 1;
                phase.counts.wrong += 1;
            }
        }
        phase.slo_met = phase
            .ops
            .iter()
            .filter(|o| o.latency_us.is_some_and(|l| l <= slo_us))
            .count() as u64;
        phase
            .facts
            .insert("loss_at_cycle_end", losses[losses.len() - 1] as f64);
        phase
    }

    fn reference_check(&mut self) -> Option<Quality> {
        // Held-out accuracy at the end of the last cycle: a fixed number
        // of steps from fixed weights on seeded data.
        let top1 = self.cycle_top1.unwrap_or_else(|| self.holdout_top1());
        Some(Quality {
            top1,
            bad_share: 0.0,
        })
    }

    fn model_bytes(&self) -> u64 {
        wire_bytes(&self.net)
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn layer_metrics(
        &mut self,
        _untraced: &Phase,
        _traced: &Phase,
        rec: &mut Recorder,
        out: &mut LayerMetrics,
    ) -> u64 {
        // `train_batch` taken apart into the four public calls it makes.
        self.restart();
        for k in 0..WALK_STEPS {
            let (x, y) = &self.batches[k % self.batches.len()];
            let op = k as u64;
            let step = rec.begin("nn.train_step", op);
            let logits = rec
                .span("nn.forward", op, || self.net.forward(x))
                .expect("forward");
            let (_, grad) = rec
                .span("nn.loss", op, || self.loss.compute(&logits, y))
                .expect("loss");
            rec.span("nn.backward", op, || self.net.backward(&grad))
                .expect("backward");
            rec.span("nn.sgd", op, || self.opt.step(&mut self.net.parameters()));
            rec.end(step);
        }
        // The kernel's write side, called directly on the first layer's
        // matrix with the same batch shape.
        let matrix = self.net.layers()[0]
            .as_any()
            .and_then(|a| a.downcast_ref::<CirculantDense>())
            .expect("arch1 starts with a circulant layer")
            .matrix()
            .clone();
        for k in 0..WALK_STEPS {
            let (x, _) = &self.batches[k % self.batches.len()];
            let op = k as u64;
            rec.span("core.weight_spectra", op, || {
                std::hint::black_box(matrix.weight_spectra())
            });
            let (y, cache) = matrix.forward_batch(x).expect("forward_batch");
            rec.span("core.backward", op, || matrix.backward_batch(&cache, &y))
                .expect("backward_batch");
        }
        let totals = rec.totals();
        for (metric, span) in [
            ("nn.forward_us", "nn.forward"),
            ("nn.loss_us", "nn.loss"),
            ("nn.sgd_us", "nn.sgd"),
            ("core.backward_us", "core.backward"),
            ("core.weight_spectra_us", "core.weight_spectra"),
        ] {
            out.insert(metric, totals[span].mean_us());
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_fell_compares_the_ends_of_a_cycle() {
        let falling: Vec<f32> = (0..100).map(|i| 2.0 / (1.0 + i as f32)).collect();
        assert!(loss_fell(&falling));
        let rising: Vec<f32> = falling.iter().rev().copied().collect();
        assert!(!loss_fell(&rising));
        let mut diverged = falling.clone();
        diverged[99] = f32::NAN;
        assert!(!loss_fell(&diverged));
        assert!(!loss_fell(&[1.0]));
    }

    #[test]
    fn reloading_initial_parameters_equals_a_fresh_network() {
        let ctx = Ctx {
            seed: 3,
            scale: 0.02,
            out: std::env::temp_dir(),
            nproc: 1,
            workers: 1,
        };
        let mut w = TrainStep::prepare(&ctx);
        // A cycle on the reloaded network...
        w.restart();
        let reloaded: Vec<f32> = (0..40).map(|_| w.step()).collect();
        // ...and the same steps on a network built from scratch.
        let mut net = paper::arch1(MODEL_SEED);
        net.pop_layer();
        let mut opt = Sgd::with_momentum(LEARNING_RATE, MOMENTUM);
        let fresh: Vec<f32> = (0..40)
            .map(|k| {
                let (x, y) = &w.batches[k % w.batches.len()];
                net.train_batch(x, y, &w.loss, &mut opt).unwrap()
            })
            .collect();
        assert_eq!(
            reloaded.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|l| l.to_bits()).collect::<Vec<_>>()
        );
    }
}
