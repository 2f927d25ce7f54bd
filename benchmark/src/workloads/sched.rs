//! `sched_saturated`: `ffdl_sched::Scheduler` with two tenants (weights
//! 8:1) on one registry-published model, each kept backlogged by a
//! closed loop with an in-flight window of its own. Every round starts
//! a scheduler on the store, warms it up, drives a fixed number of
//! requests through it, finishes it and verifies its report.

use super::{
    digest, offline_predictions, poll_backoff, timed_ms, Ctx, Ledger, Phase, Quality, SetupTimes,
    Workload, MODEL_SEED, STALL_LIMIT,
};
use crate::layers::{replay_model_us_per_request, walk_inference, LayerMetrics, OpInput};
use crate::spec;
use crate::stats::median;
use crate::trace::Recorder;
use ffdl::core::{full_registry, CirculantDense};
use ffdl::deploy::{InferenceEngine, Prediction};
use ffdl::nn::{Dense, Network, Relu, Softmax};
use ffdl::tensor::Tensor;
use ffdl_registry::ModelStore;
use ffdl_rng::{SeedableRng, SmallRng};
use ffdl_sched::{SchedConfig, Scheduler, TenantSpec};
use ffdl_serve::{FailureKind, ServeError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const POOL: usize = 1024;
const WIDTH: usize = 1024;
const MODEL: &str = "fc1024";
const TENANTS: [&str; 2] = ["heavy", "light"];
const WEIGHTS: [u64; 2] = [8, 1];
/// Requests each tenant keeps outstanding, in proportion to the
/// weights: both stay backlogged, and both wait about as long.
const IN_FLIGHT: [u64; 2] = [32, 4];
/// The scheduler's own deadline and queue depth sit far above anything
/// a closed loop of 36 requests reaches, so no operation is shed or
/// expires on a healthy build.
const DEADLINE: Duration = Duration::from_secs(2);
const QUEUE_DEPTH: usize = 8_192;
/// Requests pushed through every new scheduler before its timed ones.
const WARMUP_REQUESTS: usize = 1_500;
/// Timed requests in a round (about 0.45 s on the reference host).
const ROUND_REQUESTS: usize = 12_000;
/// Requests in a fine segment of the statistics (about 2 ms) and in a
/// tail segment (about 5 ms: its p99 lies between its slowest two).
const FINE_REQUESTS: usize = 50;
const TAIL_REQUESTS: usize = 150;

/// Store directories of this process, so repeated set-ups never share one.
static STORES: AtomicU64 = AtomicU64::new(0);

pub struct SchedSaturated {
    ctx: Ctx,
    network: Network,
    pool: Vec<Tensor>,
    expected: Option<Vec<Prediction>>,
    store_dir: PathBuf,
    sched: Option<Scheduler>,
    /// `(tenant, pool entry)` of every id handed out on the current
    /// scheduler; the id is the index.
    ids: Vec<(u8, u16)>,
    /// Requests submitted per tenant on the current scheduler.
    sent: [u64; 2],
    input_digest: u64,
    setup: SetupTimes,
}

/// What one closed-loop drive observed on the submit side.
#[derive(Default)]
struct Driven {
    first_id: usize,
    /// Submit instant of each accepted request, ns since the drive began.
    submit_ns: Vec<u64>,
    /// Time inside accepted `Scheduler::submit` calls, ns.
    submit_call_ns: u64,
    wall_s: f64,
}

impl SchedSaturated {
    pub fn prepare(ctx: &Ctx) -> Self {
        let (pool, data_gen_ms) = timed_ms(|| {
            let mut rng = SmallRng::seed_from_u64(ctx.seed);
            (0..POOL)
                .map(|_| Tensor::from_fn(&[WIDTH], |_| ffdl_rng::standard_normal(&mut rng)))
                .collect::<Vec<_>>()
        });
        let mut rng = SmallRng::seed_from_u64(MODEL_SEED);
        let mut network = Network::new();
        network.push(CirculantDense::new(WIDTH, WIDTH, 128, &mut rng).expect("static dims"));
        network.push(Relu::new());
        network.push(CirculantDense::new(WIDTH, WIDTH, 128, &mut rng).expect("static dims"));
        network.push(Relu::new());
        network.push(Dense::new(WIDTH, 10, &mut rng));
        network.push(Softmax::new());
        // Published and served in training form: the wire format stores
        // block vectors, and the layers cache their weight spectra on
        // first use.

        let store_dir = ctx.out.join(format!(
            "store-{}-{}",
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        let store = ModelStore::open(&store_dir).expect("open model store");
        let (_, publish_ms) =
            timed_ms(|| store.publish(MODEL, &network, "fc1024").expect("publish"));
        let (_, load_ms) = timed_ms(|| store.load(MODEL, None, &full_registry()).expect("load"));
        let mut w = Self {
            ctx: ctx.clone(),
            network,
            input_digest: digest(&pool),
            pool,
            expected: None,
            store_dir,
            sched: None,
            ids: Vec::new(),
            sent: [0; 2],
            setup: SetupTimes {
                data_gen_ms,
                publish_us: publish_ms * 1e3,
                load_us: load_ms * 1e3,
                ..Default::default()
            },
        };
        w.start();
        w
    }

    /// Starts a scheduler on the store and pushes the warm-up requests
    /// through it.
    fn start(&mut self) {
        let store = ModelStore::open(&self.store_dir).expect("open model store");
        let specs: Vec<TenantSpec> = TENANTS
            .iter()
            .zip(WEIGHTS)
            .map(|(name, weight)| TenantSpec {
                weight,
                queue_depth: QUEUE_DEPTH,
                ..TenantSpec::new(*name, MODEL)
            })
            .collect();
        let config = SchedConfig {
            min_workers: self.ctx.workers,
            max_workers: self.ctx.workers,
            max_batch: 8,
            deadline: Some(DEADLINE),
            ..Default::default()
        };
        self.sched = Some(Scheduler::start(&store, &specs, &config).expect("start scheduler"));
        self.ids.clear();
        self.sent = [0; 2];
        let warmup = self.ctx.scaled(WARMUP_REQUESTS, 36);
        self.drive(warmup, &mut None);
    }

    /// The closed loop: submits `requests`, to whichever tenant has a
    /// free slot in its window (`heavy` first), then waits for both
    /// windows to drain.
    fn drive(&mut self, requests: usize, rec: &mut Option<&mut Recorder>) -> Driven {
        let sched = self.sched.as_ref().expect("running scheduler");
        let mut d = Driven {
            first_id: self.ids.len(),
            ..Default::default()
        };
        d.submit_ns.reserve_exact(requests);
        let outstanding =
            |sent: &[u64; 2], tenant: usize| sent[tenant] - sched.served_by_tenant(tenant);
        let start = Instant::now();
        let mut last_accept = start;
        'submit: loop {
            let mut accepted = false;
            for (tenant, window) in IN_FLIGHT.into_iter().enumerate() {
                if outstanding(&self.sent, tenant) >= window {
                    continue;
                }
                if self.ids.len() - d.first_id >= requests {
                    break 'submit;
                }
                let entry = (tenant * 509 + self.sent[tenant] as usize) % POOL;
                let id = self.ids.len() as u64;
                let features = self.pool[entry].clone();
                let before = Instant::now();
                let span = rec.as_deref_mut().map(|r| r.begin("sched.submit", id));
                let result = sched.submit(tenant, id, features);
                if let (Some(r), Some(open)) = (rec.as_deref_mut(), span) {
                    r.end(open);
                }
                match result {
                    Ok(()) => {
                        d.submit_call_ns += before.elapsed().as_nanos() as u64;
                        d.submit_ns.push((before - start).as_nanos() as u64);
                        self.ids.push((tenant as u8, entry as u16));
                        self.sent[tenant] += 1;
                        last_accept = before;
                        accepted = true;
                    }
                    // A refusal is a typed failure in the report: the
                    // request was attempted and the id is used.
                    Err(ServeError::QueueFull { .. } | ServeError::TenantOverLimit { .. }) => {
                        d.submit_ns.push((before - start).as_nanos() as u64);
                        self.ids.push((tenant as u8, entry as u16));
                    }
                    Err(e) => panic!("sched_saturated: submit failed: {e}"),
                }
            }
            if !accepted {
                if last_accept.elapsed() > STALL_LIMIT {
                    break;
                }
                poll_backoff();
            }
        }
        let drain = Instant::now();
        while (0..TENANTS.len()).any(|t| outstanding(&self.sent, t) > 0)
            && drain.elapsed() < STALL_LIMIT
        {
            std::thread::yield_now();
        }
        d.wall_s = start.elapsed().as_secs_f64();
        d
    }

    fn engine(&self) -> InferenceEngine {
        InferenceEngine::new(
            ffdl::nn::clone_network(&self.network, &full_registry()).expect("clone"),
        )
    }
}

impl Workload for SchedSaturated {
    fn segment_ops(&self) -> (usize, usize) {
        (FINE_REQUESTS, TAIL_REQUESTS)
    }

    fn ready(&mut self) {
        if self.sched.is_none() {
            self.start();
        }
    }

    fn measure(&mut self, mut rec: Option<&mut Recorder>) -> Phase {
        self.ready();
        let round = self.ctx.scaled(ROUND_REQUESTS, 2 * FINE_REQUESTS);
        let d = self.drive(round, &mut rec);
        let report = self
            .sched
            .take()
            .expect("running scheduler")
            .finish()
            .expect("finish scheduler");
        let slo_us = spec::workload("sched_saturated").expect("declared").slo_us;
        let expected = self
            .expected
            .get_or_insert_with(|| offline_predictions(&self.network, &self.pool));

        // Every id exactly once in responses ∪ failures, responses
        // bit-identical to offline `predict`.
        let mut phase = Phase {
            wall_s: d.wall_s,
            ..Default::default()
        };
        phase.ops.reserve_exact(d.submit_ns.len());
        let mut ledger = Ledger::new(self.ids.len());
        for r in &report.serve.responses {
            let Some(&(_, entry)) = self.ids.get(r.id as usize) else {
                continue;
            };
            let reference = &expected[entry as usize];
            ledger.response(r.id as usize, r.prediction == *reference, r.latency_us);
            if (r.id as usize) >= d.first_id {
                phase.note_response(r, reference, rec.is_some());
            }
        }
        let (mut shed, mut expired) = (0u64, 0u64);
        for f in &report.serve.failures {
            ledger.failure(f.id as usize);
            if (f.id as usize) >= d.first_id {
                match f.kind {
                    FailureKind::DeadlineExceeded => expired += 1,
                    _ => shed += 1,
                }
            }
        }
        let mut warmup = Phase::default();
        for id in 0..d.first_id {
            warmup.push(0, ledger.fate(id), slo_us);
        }
        phase.warmup = warmup.counts;
        let mut by_tenant: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (i, t_ns) in d.submit_ns.iter().enumerate() {
            let id = d.first_id + i;
            if let Some(latency) = phase.push(*t_ns, ledger.fate(id), slo_us) {
                by_tenant[self.ids[id].0 as usize].push(latency);
            }
        }

        let served = (by_tenant[0].len() + by_tenant[1].len()).max(1) as f64;
        phase.facts.insert(
            "submit_ns",
            d.submit_call_ns as f64 / d.submit_ns.len().max(1) as f64,
        );
        phase
            .facts
            .insert("share.heavy", by_tenant[0].len() as f64 / served);
        phase.facts.insert("shed", shed as f64);
        phase.facts.insert("expired", expired as f64);
        for (tenant, key) in ["p50.heavy", "p50.light"].into_iter().enumerate() {
            if !by_tenant[tenant].is_empty() {
                phase.facts.insert(key, median(&by_tenant[tenant]));
            }
        }
        phase
    }

    fn reference_check(&mut self) -> Option<Quality> {
        None
    }

    fn model_bytes(&self) -> u64 {
        ffdl_quant::model_bytes(&self.network).expect("serializable model") as u64
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn setup_times(&self) -> SetupTimes {
        self.setup
    }

    fn layer_metrics(
        &mut self,
        untraced: &Phase,
        traced: &Phase,
        rec: &mut Recorder,
        out: &mut LayerMetrics,
    ) -> u64 {
        // The stage split is taken on the frozen form of the served
        // model: the same kernel calls, with the weights exposed.
        let mut frozen = InferenceEngine::new(
            ffdl::paper::freeze_spectral(&self.network).expect("freeze fc1024"),
        );
        let inputs: Vec<OpInput> = self
            .pool
            .chunks(8)
            .take(64)
            .map(|c| OpInput::Batch(c.to_vec()))
            .collect();
        let walk = walk_inference(&mut frozen, &inputs, rec, out);
        let mut engine = self.engine();
        let model_us =
            replay_model_us_per_request(&mut engine, &self.pool, &untraced.batch_sizes(), 20_000);
        let throughput = crate::stats::mean_throughput(&untraced.ops);
        out.insert("sched.model_us_per_req", model_us);
        out.insert(
            "sched.overhead_us_per_req",
            self.ctx.workers as f64 * 1e6 / throughput - model_us,
        );
        out.insert("sched.mean_batch", untraced.mean_batch());
        for (metric, fact) in [
            ("sched.share.heavy", "share.heavy"),
            ("sched.shed", "shed"),
            ("sched.expired", "expired"),
            ("sched.latency_us_p50.heavy", "p50.heavy"),
            ("sched.latency_us_p50.light", "p50.light"),
        ] {
            out.insert(metric, untraced.facts.get(fact).copied().unwrap_or(0.0));
        }
        out.insert("sched.submit_ns", traced.facts["submit_ns"]);
        walk.mismatched_rows
    }

    fn discard(mut self: Box<Self>) {
        if let Some(sched) = self.sched.take() {
            let _ = sched.finish();
        }
    }
}

impl Drop for SchedSaturated {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}
