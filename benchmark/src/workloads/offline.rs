//! The offline inference workloads: one caller in a closed loop on an
//! `InferenceEngine` — `mnist_single`, `fc4096_batch`,
//! `fc4096_batch_int8`, `cifar_single`.

use super::{
    argmax, digest, timed_ms, Counts, Ctx, Phase, Quality, SetupTimes, Workload, MODEL_SEED,
};
use crate::host::{OpClock, Stopwatch};
use crate::layers::{walk_inference, LayerMetrics, OpInput};
use crate::spec::{self, WorkloadSpec};
use crate::stats::{Op, TAIL_SEGMENT_OPS};
use crate::trace::Recorder;
use ffdl::core::{CirculantDense, QuantBits, QuantizedSpectralDense};
use ffdl::data::{
    mnist_preprocess, synthetic_cifar, synthetic_mnist, CifarConfig, Dataset, MnistConfig,
};
use ffdl::deploy::{InferenceEngine, Prediction};
use ffdl::nn::{Dense, Network, Relu, Softmax};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_rng::{SeedableRng, SmallRng};
use std::time::Instant;

/// Images in the `mnist_single` / `serve_saturated` pool: 1 MB, so the
/// inputs stay in the core's own cache and the timing does not depend
/// on what the host's other guests do to the shared one.
pub const MNIST_POOL: usize = 1024;

/// Relative tolerance of the frozen outputs against their reference.
const REFERENCE_TOLERANCE: f64 = 1e-3;
/// Rows of the input pool compared with a same-function reference.
const REFERENCE_ROWS: usize = 256;
/// Batches of 32 rows in the fc4096 pool: 2048 rows, all of them
/// compared with the f32 parent, so int8 agreement is resolved to 0.05%.
const FC4096_POOL_BATCHES: usize = 64;
/// Top-1 agreement an int8 model must keep with its f32 parent.
const INT8_MIN_AGREEMENT: f64 = 0.95;

/// What the engine's outputs are judged against, once, after timing.
enum Reference {
    /// Another form of the same function (dense materialisation or the
    /// training-form network): outputs within [`REFERENCE_TOLERANCE`].
    SameFunction(Network),
    /// The f32 parent of a quantized model: top-1 agreement only.
    Parent(InferenceEngine),
}

pub struct Offline {
    spec: &'static WorkloadSpec,
    engine: InferenceEngine,
    pool: Vec<OpInput>,
    /// First output seen per pool entry; every later use must equal it.
    seen: Vec<Option<Vec<Prediction>>>,
    reference: Reference,
    /// `paper::arch1_dense`-shaped baseline on the same inputs.
    dense_baseline: Option<Network>,
    cursor: usize,
    warmup: Counts,
    clock: OpClock,
    round_ops: usize,
    fine_ops: usize,
    tail_ops: usize,
    walk_ops: usize,
    model_bytes: u64,
    input_digest: u64,
    setup: SetupTimes,
}

/// Per-sample `[1, d…]` tensors of a dataset.
fn single_inputs(ds: &Dataset) -> Vec<OpInput> {
    let mut shape = vec![1];
    shape.extend_from_slice(ds.sample_shape());
    let d: usize = ds.sample_shape().iter().product();
    ds.inputs()
        .as_slice()
        .chunks_exact(d)
        .map(|row| OpInput::Single(Tensor::from_vec(row.to_vec(), &shape).expect("sample shape")))
        .collect()
}

/// The training-form network with every block-circulant FC layer
/// replaced by the dense matrix it stands for.
pub fn materialize_dense(net: &Network) -> Network {
    let mut dense = Network::new();
    for layer in net.layers() {
        match layer
            .as_any()
            .and_then(|a| a.downcast_ref::<CirculantDense>())
        {
            Some(cd) => dense.push(
                Dense::with_params(cd.matrix().to_dense(), cd.bias().clone())
                    .expect("dense shapes"),
            ),
            None => dense.push_boxed(layer.clone_layer().expect("built-in layers clone")),
        }
    }
    dense
}

/// Synthetic-MNIST 16×16 inputs as flat `[256]` rows.
pub fn mnist_dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let raw = synthetic_mnist(n, &MnistConfig::default(), &mut rng).expect("synthetic mnist");
    mnist_preprocess(&raw, 16).expect("preprocess")
}

pub fn mnist_single(ctx: &Ctx) -> Offline {
    let (pool, data_gen_ms) = timed_ms(|| single_inputs(&mnist_dataset(MNIST_POOL, ctx.seed)));
    let net = paper::arch1(MODEL_SEED);
    let frozen = paper::freeze_spectral(&net).expect("freeze arch1");
    Offline::new(
        ctx,
        Plan {
            spec: spec::workload("mnist_single").expect("declared"),
            model_bytes: wire_bytes(&net),
            served: frozen,
            pool,
            reference: Reference::SameFunction(materialize_dense(&net)),
            dense_baseline: Some(paper::arch1_dense(MODEL_SEED)),
            setup: SetupTimes {
                data_gen_ms,
                ..Default::default()
            },
            warmup_ops: 50_000,
            clock: OpClock::Wall,
            round_ops: 60_000,
            fine_ops: 200,
            tail_ops: TAIL_SEGMENT_OPS,
            walk_ops: 2_048,
        },
    )
}

/// `circulant_fc` 4096→4096→4096→10, block 64, in training form.
fn fc4096() -> Network {
    let mut rng = SmallRng::seed_from_u64(MODEL_SEED);
    let mut net = Network::new();
    net.push(CirculantDense::new(4096, 4096, 64, &mut rng).expect("static dims"));
    net.push(Relu::new());
    net.push(CirculantDense::new(4096, 4096, 64, &mut rng).expect("static dims"));
    net.push(Relu::new());
    net.push(Dense::new(4096, 10, &mut rng));
    net.push(Softmax::new());
    net
}

pub fn fc4096_batch(ctx: &Ctx, int8: bool) -> Offline {
    const BATCH: usize = 32;
    let (pool, data_gen_ms) = timed_ms(|| {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        (0..FC4096_POOL_BATCHES)
            .map(|_| {
                OpInput::Batch(
                    (0..BATCH)
                        .map(|_| Tensor::from_fn(&[4096], |_| ffdl_rng::standard_normal(&mut rng)))
                        .collect(),
                )
            })
            .collect::<Vec<_>>()
    });
    let net = fc4096();
    let frozen = paper::freeze_spectral(&net).expect("freeze fc4096");
    let mut setup = SetupTimes {
        data_gen_ms,
        ..Default::default()
    };
    let (served, model_bytes, reference, name) = if int8 {
        let (quantized, ms) =
            timed_ms(|| ffdl_quant::quantize_network(&frozen, QuantBits::Eight).expect("quantize"));
        setup.quantize_ms = ms;
        let bytes = wire_bytes(&quantized);
        (
            quantized,
            bytes,
            Reference::Parent(InferenceEngine::new(frozen)),
            "fc4096_batch_int8",
        )
    } else {
        (
            frozen,
            wire_bytes(&net),
            Reference::SameFunction(net),
            "fc4096_batch",
        )
    };
    Offline::new(
        ctx,
        Plan {
            spec: spec::workload(name).expect("declared"),
            model_bytes,
            served,
            pool,
            reference,
            dense_baseline: None,
            setup,
            warmup_ops: 30,
            clock: OpClock::ThreadCpu,
            round_ops: 40,
            fine_ops: 8,
            tail_ops: 8,
            walk_ops: 24,
        },
    )
}

pub fn cifar_single(ctx: &Ctx) -> Offline {
    let (pool, data_gen_ms) = timed_ms(|| {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        single_inputs(
            &synthetic_cifar(64, &CifarConfig::default(), &mut rng).expect("synthetic cifar"),
        )
    });
    let net = paper::arch3(MODEL_SEED);
    let frozen = paper::freeze_spectral(&net).expect("freeze arch3");
    Offline::new(
        ctx,
        Plan {
            spec: spec::workload("cifar_single").expect("declared"),
            model_bytes: wire_bytes(&net),
            served: frozen,
            pool,
            reference: Reference::SameFunction(net),
            dense_baseline: None,
            setup: SetupTimes {
                data_gen_ms,
                ..Default::default()
            },
            warmup_ops: 16,
            clock: OpClock::ThreadCpu,
            round_ops: 24,
            fine_ops: 8,
            tail_ops: 8,
            walk_ops: 12,
        },
    )
}

/// What one offline workload is made of.
struct Plan {
    spec: &'static WorkloadSpec,
    /// The network the engine runs (frozen, maybe quantized).
    served: Network,
    /// Wire bytes of the artifact a deployment ships.
    model_bytes: u64,
    pool: Vec<OpInput>,
    reference: Reference,
    dense_baseline: Option<Network>,
    setup: SetupTimes,
    warmup_ops: usize,
    /// The clock the calls are timed on.
    clock: OpClock,
    /// Timed operations in a round (about 0.35 s on the reference host).
    round_ops: usize,
    /// Operations in a fine and in a tail segment of the statistics.
    /// Where a call takes milliseconds the two are the same eight calls:
    /// the host's bursts reach one call in ten for minutes on end, and
    /// only so short a segment often has none. Its p99 is in effect its
    /// slowest call.
    fine_ops: usize,
    tail_ops: usize,
    /// Operations of the traced run's layer walk.
    walk_ops: usize,
}

/// Wire-format bytes of `net`. A frozen f32 network is shipped in its
/// training form and frozen at load (the wire format stores block
/// vectors, not spectra), so f32 workloads report the training form.
pub fn wire_bytes(net: &Network) -> u64 {
    ffdl_quant::model_bytes(net).expect("serializable model") as u64
}

impl Offline {
    fn new(ctx: &Ctx, plan: Plan) -> Self {
        let mut w = Self {
            spec: plan.spec,
            engine: InferenceEngine::new(plan.served),
            seen: vec![None; plan.pool.len()],
            input_digest: digest(plan.pool.iter().flat_map(|p| p.tensors())),
            pool: plan.pool,
            reference: plan.reference,
            dense_baseline: plan.dense_baseline,
            cursor: 0,
            warmup: Counts::default(),
            clock: plan.clock,
            round_ops: ctx.scaled(plan.round_ops, plan.fine_ops),
            fine_ops: plan.fine_ops,
            tail_ops: plan.tail_ops,
            walk_ops: plan.walk_ops,
            model_bytes: plan.model_bytes,
            setup: plan.setup,
        };
        let sw = Stopwatch::start(plan.clock);
        for _ in 0..ctx.scaled(plan.warmup_ops, 2) {
            let (_, _, ok) = w.call_next(&sw);
            w.warmup.record(ok);
        }
        w
    }

    /// One engine call on the next pool entry, timed on `sw`: rows, the
    /// clock after the call (ns), and whether the output equals the
    /// first output that entry produced. The latency is the clock's
    /// advance over the call.
    fn call_next(&mut self, sw: &Stopwatch) -> (u32, u64, bool) {
        let index = self.cursor % self.pool.len();
        self.cursor += 1;
        let input = &self.pool[index];
        let result = match input {
            OpInput::Single(x) => self.engine.predict(x),
            OpInput::Batch(samples) => {
                let refs: Vec<&Tensor> = samples.iter().collect();
                self.engine.predict_batch(&refs)
            }
        };
        let end_ns = sw.now_ns();
        let ok = match result {
            Ok(preds) => match &self.seen[index] {
                Some(first) => *first == preds,
                None => {
                    let complete = preds.len() == input.rows();
                    self.seen[index] = Some(preds);
                    complete
                }
            },
            Err(_) => false,
        };
        (input.rows() as u32, end_ns, ok)
    }

    /// The engine's output for pool entry `index`.
    fn output(&mut self, index: usize) -> Vec<Prediction> {
        if self.seen[index].is_none() {
            self.cursor = index;
            self.call_next(&Stopwatch::start(OpClock::Wall));
        }
        self.seen[index].clone().expect("engine output")
    }

    /// Pool entries the reference check covers.
    fn reference_entries(&self) -> usize {
        match self.reference {
            Reference::SameFunction(_) => {
                (REFERENCE_ROWS / self.pool[0].rows()).clamp(1, self.pool.len())
            }
            Reference::Parent(_) => self.pool.len(),
        }
    }
}

/// `max |a − b| / max |b|` over two probability rows.
fn relative_error(a: &[f32], b: &[f32]) -> f64 {
    let scale = b.iter().fold(f32::MIN_POSITIVE, |m, v| m.max(v.abs())) as f64;
    a.iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs() as f64)
        .fold(0.0, f64::max)
        / scale
}

impl Workload for Offline {
    fn segment_ops(&self) -> (usize, usize) {
        (self.fine_ops, self.tail_ops)
    }

    fn measure(&mut self, mut rec: Option<&mut Recorder>) -> Phase {
        let mut phase = Phase {
            warmup: std::mem::take(&mut self.warmup),
            ..Default::default()
        };
        phase.ops.reserve_exact(self.round_ops);
        // One clock read per call: a call begins where the one before
        // it ended.
        let sw = Stopwatch::start(self.clock);
        let mut begin_ns = 0;
        for op in 0..self.round_ops {
            let span = rec
                .as_deref_mut()
                .map(|r| r.begin("deploy.predict", op as u64));
            let (units, end_ns, ok) = self.call_next(&sw);
            if let (Some(r), Some(open)) = (rec.as_deref_mut(), span) {
                r.end(open);
            }
            let latency_us = (end_ns - begin_ns) as f64 / 1e3;
            phase.counts.record(ok);
            phase.slo_met += (ok && latency_us <= self.spec.slo_us) as u64;
            phase.ops.push(Op {
                t_ns: end_ns,
                latency_us: ok.then_some(latency_us),
                units,
            });
            begin_ns = end_ns;
        }
        phase.wall_s = sw.wall_s();
        phase
    }

    fn reference_check(&mut self) -> Option<Quality> {
        let entries = self.reference_entries();
        let (mut rows, mut agree, mut bad) = (0u64, 0u64, 0u64);
        for index in 0..entries {
            let ours = self.output(index);
            let input = &self.pool[index];
            let stacked = match input {
                OpInput::Single(x) => x.clone(),
                OpInput::Batch(samples) => {
                    Tensor::stack(&samples.iter().collect::<Vec<_>>()).expect("stack")
                }
            };
            let theirs: Vec<Vec<f32>> = match &mut self.reference {
                Reference::SameFunction(net) => {
                    let y = net.forward(&stacked).expect("reference forward");
                    (0..y.rows()).map(|r| y.row(r).to_vec()).collect()
                }
                Reference::Parent(engine) => engine
                    .predict(&stacked)
                    .expect("parent forward")
                    .into_iter()
                    .map(|p| p.probabilities)
                    .collect(),
            };
            for (p, q) in ours.iter().zip(&theirs) {
                rows += 1;
                agree += (p.label == argmax(q)) as u64;
                if matches!(self.reference, Reference::SameFunction(_)) {
                    bad += (relative_error(&p.probabilities, q) > REFERENCE_TOLERANCE) as u64;
                }
            }
        }
        let top1 = agree as f64 / rows.max(1) as f64;
        let bad_share = match self.reference {
            Reference::SameFunction(_) => bad as f64 / rows.max(1) as f64,
            Reference::Parent(_) if top1 < INT8_MIN_AGREEMENT => 1.0,
            Reference::Parent(_) => 0.0,
        };
        Some(Quality { top1, bad_share })
    }

    fn model_bytes(&self) -> u64 {
        self.model_bytes
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
        let inputs: Vec<OpInput> = (0..self.walk_ops)
            .map(|k| self.pool[k % self.pool.len()].clone())
            .collect();
        let walk = walk_inference(&mut self.engine, &inputs, rec, out);
        let forward_us = out["nn.forward_us"];
        if let Some(dense) = &mut self.dense_baseline {
            let start = Instant::now();
            for input in &inputs {
                std::hint::black_box(dense.forward(&input.tensors()[0]).expect("dense baseline"));
            }
            let dense_us = start.elapsed().as_nanos() as f64 / 1e3 / inputs.len() as f64;
            out.insert("nn.dense_baseline_us", dense_us);
            out.insert("nn.circulant_over_dense", forward_us / dense_us);
        }
        out.insert("quant.wire_bytes", self.model_bytes as f64);
        if let Reference::Parent(parent) = &mut self.reference {
            let start = Instant::now();
            for input in &inputs {
                let refs: Vec<&Tensor> = input.tensors().iter().collect();
                std::hint::black_box(parent.predict_batch(&refs).expect("f32 parent"));
            }
            let parent_us = start.elapsed().as_nanos() as f64 / 1e3 / inputs.len() as f64;
            out.insert(
                "quant.int8_over_f32",
                (forward_us + out["deploy.predict_overhead_us"]) / parent_us,
            );
            let resident: usize = self
                .engine
                .network()
                .layers()
                .iter()
                .filter_map(|l| l.as_any()?.downcast_ref::<QuantizedSpectralDense>())
                .map(|q| std::mem::size_of_val(q.levels()))
                .sum();
            out.insert("quant.resident_bytes", resident as f64);
            let agreement = self.reference_check().map_or(0.0, |q| q.top1);
            out.insert("quant.top1_agreement", agreement);
        }
        walk.mismatched_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_materialisation_is_the_same_function() {
        let net = paper::arch1(5);
        let mut dense = materialize_dense(&net);
        let mut frozen = paper::freeze_spectral(&net).unwrap();
        let x = Tensor::from_fn(&[4, 256], |i| (i as f32 * 0.11).cos());
        let a = dense.forward(&x).unwrap();
        let b = frozen.forward(&x).unwrap();
        for r in 0..4 {
            assert!(relative_error(a.row(r), b.row(r)) < REFERENCE_TOLERANCE);
        }
        assert_eq!(dense.layers()[0].type_tag(), "dense");
    }

    #[test]
    fn relative_error_is_scaled_by_the_reference() {
        assert_eq!(relative_error(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((relative_error(&[0.5, 0.1], &[0.5, 0.2]) - 0.2).abs() < 1e-6);
    }
}
