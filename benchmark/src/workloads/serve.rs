//! `serve_saturated`: `ffdl_serve::Server` on frozen Arch. 1 in a closed
//! loop that keeps 64 requests in flight. Every round starts a pool,
//! warms it up, drives a fixed number of requests through it, finishes
//! it and verifies its report.

use super::offline::{mnist_dataset, wire_bytes, MNIST_POOL as POOL};
use super::{
    digest, offline_predictions, poll_backoff, timed_ms, Ctx, Ledger, Phase, Quality, SetupTimes,
    Workload, MODEL_SEED, STALL_LIMIT,
};
use crate::layers::{replay_model_us_per_request, walk_inference, LayerMetrics, OpInput};
use crate::spec;
use crate::trace::Recorder;
use ffdl::deploy::{InferenceEngine, Prediction};
use ffdl::nn::Network;
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_serve::{ServeConfig, ServeError, Server};
use std::time::{Duration, Instant};

const IN_FLIGHT: u64 = 64;
/// Requests pushed through every new pool before its timed ones.
const WARMUP_REQUESTS: usize = 8_000;
/// Timed requests in a round (about 0.45 s on the reference host).
const ROUND_REQUESTS: usize = 100_000;
/// Requests in a fine segment of the statistics (about 2 ms).
const FINE_REQUESTS: usize = 400;

pub struct ServeSaturated {
    ctx: Ctx,
    network: Network,
    model_bytes: u64,
    pool: Vec<Tensor>,
    /// Offline `InferenceEngine::predict` of every pool entry.
    expected: Option<Vec<Prediction>>,
    server: Option<Server>,
    /// Ids handed out so far on the current server.
    next_id: u64,
    input_digest: u64,
    setup: SetupTimes,
}

impl ServeSaturated {
    pub fn prepare(ctx: &Ctx) -> Self {
        let (pool, data_gen_ms) = timed_ms(|| {
            let ds = mnist_dataset(POOL, ctx.seed);
            ds.inputs()
                .as_slice()
                .chunks_exact(256)
                .map(Tensor::from_slice)
                .collect::<Vec<_>>()
        });
        let trained = paper::arch1(MODEL_SEED);
        let network = paper::freeze_spectral(&trained).expect("freeze arch1");
        let mut w = Self {
            ctx: ctx.clone(),
            model_bytes: wire_bytes(&trained),
            network,
            input_digest: digest(&pool),
            pool,
            expected: None,
            server: None,
            next_id: 0,
            setup: SetupTimes {
                data_gen_ms,
                ..Default::default()
            },
        };
        w.start();
        w
    }

    /// Starts a pool and pushes the warm-up requests through it.
    fn start(&mut self) {
        let config = ServeConfig {
            workers: self.ctx.workers,
            max_batch: 16,
            max_wait: Duration::from_micros(500),
            queue_depth: 1024,
            ..Default::default()
        };
        self.server = Some(Server::start(&self.network, &config).expect("start server"));
        self.next_id = 0;
        let warmup = self.ctx.scaled(WARMUP_REQUESTS, 64) as u64;
        self.drive(|_, sent| sent < warmup, &mut None);
    }

    /// The closed loop: submits while `go(elapsed, sent)` holds, keeping
    /// at most [`IN_FLIGHT`] requests outstanding, then waits for the
    /// window to drain.
    fn drive(
        &mut self,
        go: impl Fn(Duration, u64) -> bool,
        rec: &mut Option<&mut Recorder>,
    ) -> Driven {
        let server = self.server.as_ref().expect("running server");
        let first_id = self.next_id;
        let mut d = Driven {
            first_id,
            ..Default::default()
        };
        let start = Instant::now();
        let mut last_progress = (start, server.responses_recorded());
        'submit: loop {
            // Window: wait for a slot.
            loop {
                let recorded = server.responses_recorded();
                if self.next_id - recorded < IN_FLIGHT {
                    break;
                }
                let now = Instant::now();
                if recorded != last_progress.1 {
                    last_progress = (now, recorded);
                } else if now - last_progress.0 > STALL_LIMIT {
                    break 'submit;
                }
                poll_backoff();
            }
            let before = Instant::now();
            let elapsed = before - start;
            if !go(elapsed, self.next_id - first_id) {
                break;
            }
            let id = self.next_id;
            let features = self.pool[id as usize % POOL].clone();
            let span = rec.as_deref_mut().map(|r| r.begin("serve.try_submit", id));
            let result = server.try_submit(id, features);
            if let (Some(r), Some(open)) = (rec.as_deref_mut(), span) {
                r.end(open);
            }
            d.busy_ns += before.elapsed().as_nanos() as u64;
            match result {
                Ok(()) => {
                    d.submit_ns.push(elapsed.as_nanos() as u64);
                    self.next_id += 1;
                }
                Err(ServeError::QueueFull { .. }) => d.queue_full_retries += 1,
                Err(e) => panic!("serve_saturated: submit failed: {e}"),
            }
        }
        // Drain.
        let drain = Instant::now();
        while server.responses_recorded() < self.next_id && drain.elapsed() < STALL_LIMIT {
            std::thread::yield_now();
        }
        d.wall_ns = start.elapsed().as_nanos() as u64;
        d
    }
}

/// What one closed-loop drive observed on the submit side.
#[derive(Default)]
struct Driven {
    first_id: u64,
    /// Submit instant of each accepted request, ns since the drive began.
    submit_ns: Vec<u64>,
    /// Time spent submitting (the rest of the wall time is window wait).
    busy_ns: u64,
    wall_ns: u64,
    queue_full_retries: u64,
}

impl Workload for ServeSaturated {
    fn ready(&mut self) {
        if self.server.is_none() {
            self.start();
        }
    }

    fn segment_ops(&self) -> (usize, usize) {
        (FINE_REQUESTS, crate::stats::TAIL_SEGMENT_OPS)
    }

    fn measure(&mut self, mut rec: Option<&mut Recorder>) -> Phase {
        self.ready();
        let round = self.ctx.scaled(ROUND_REQUESTS, 2 * FINE_REQUESTS) as u64;
        let d = self.drive(|_, sent| sent < round, &mut rec);
        let report = self
            .server
            .take()
            .expect("running server")
            .finish()
            .expect("finish server");
        let slo_us = spec::workload("serve_saturated").expect("declared").slo_us;
        let expected = self
            .expected
            .get_or_insert_with(|| offline_predictions(&self.network, &self.pool));

        // Every accepted id exactly once in responses ∪ failures, and
        // every response bit-identical to the offline prediction.
        let accepted = self.next_id as usize;
        let mut ledger = Ledger::new(accepted);
        let mut phase = Phase {
            wall_s: d.wall_ns as f64 / 1e9,
            ..Default::default()
        };
        phase.ops.reserve_exact(d.submit_ns.len());
        for r in &report.responses {
            let reference = &expected[r.id as usize % POOL];
            ledger.response(r.id as usize, r.prediction == *reference, r.latency_us);
            if r.id < d.first_id {
                continue;
            }
            phase.note_response(r, reference, rec.is_some());
        }
        for f in &report.failures {
            ledger.failure(f.id as usize);
        }
        let mut warmup = Phase::default();
        for id in 0..d.first_id as usize {
            warmup.push(0, ledger.fate(id), slo_us);
        }
        phase.warmup = warmup.counts;
        for (i, t_ns) in d.submit_ns.iter().enumerate() {
            phase.push(*t_ns, ledger.fate(d.first_id as usize + i), slo_us);
        }

        phase.facts.insert(
            "submit_ns",
            d.busy_ns as f64 / d.submit_ns.len().max(1) as f64,
        );
        phase.facts.insert(
            "window_stall_share",
            1.0 - d.busy_ns as f64 / d.wall_ns.max(1) as f64,
        );
        phase
            .facts
            .insert("queue_full_retries", d.queue_full_retries as f64);
        if let Some(h) = report.telemetry.histogram("ffdl.serve.queue_wait_ns") {
            if h.count() > 0 {
                phase
                    .facts
                    .insert("queue_wait_us_p50", h.percentile(50.0) / 1e3);
            }
        }
        phase
    }

    fn reference_check(&mut self) -> Option<Quality> {
        None
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
        untraced: &Phase,
        traced: &Phase,
        rec: &mut Recorder,
        out: &mut LayerMetrics,
    ) -> u64 {
        let mut engine = InferenceEngine::new(
            ffdl::nn::clone_network(&self.network, &ffdl::core::full_registry()).expect("clone"),
        );
        let inputs: Vec<OpInput> = self
            .pool
            .chunks(16)
            .take(64)
            .map(|c| OpInput::Batch(c.to_vec()))
            .collect();
        let walk = walk_inference(&mut engine, &inputs, rec, out);
        let model_us =
            replay_model_us_per_request(&mut engine, &self.pool, &untraced.batch_sizes(), 100_000);
        let throughput = crate::stats::mean_throughput(&untraced.ops);
        out.insert("serve.model_us_per_req", model_us);
        out.insert(
            "serve.overhead_us_per_req",
            self.ctx.workers as f64 * 1e6 / throughput - model_us,
        );
        out.insert("serve.mean_batch", untraced.mean_batch());
        out.insert(
            "serve.window_stall_share",
            untraced.facts["window_stall_share"],
        );
        out.insert(
            "serve.queue_full_retries",
            untraced.facts["queue_full_retries"],
        );
        out.insert(
            "serve.queue_wait_us_p50",
            traced
                .facts
                .get("queue_wait_us_p50")
                .copied()
                .unwrap_or(0.0),
        );
        out.insert("serve.submit_ns", traced.facts["submit_ns"]);
        walk.mismatched_rows
    }

    fn discard(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            let _ = server.finish();
        }
    }
}
