//! `stream_sessions`: `ffdl_stream::StreamServer` on a block-circulant
//! GRU — eight sticky sessions in a closed loop, at most two steps of a
//! session in flight. Every round starts a pool, opens the sessions,
//! warms up, drives a fixed number of steps, replays every session
//! offline and verifies the report against the replay.

use super::{
    digest, poll_backoff, timed_ms, Ctx, Ledger, Phase, Quality, SetupTimes, Workload, MODEL_SEED,
    STALL_LIMIT,
};
use crate::layers::LayerMetrics;
use crate::spec;
use crate::trace::Recorder;
use ffdl::core::{full_registry, CirculantGru, GruScratch};
use ffdl::deploy::Prediction;
use ffdl::nn::{clone_network, Dense, Network, Softmax};
use ffdl::tensor::Tensor;
use ffdl_rng::{SeedableRng, SmallRng};
use ffdl_stream::{StreamConfig, StreamEngine, StreamError, StreamServer};
use std::time::{Duration, Instant};

const SESSIONS: usize = 8;
const SESSION_INFLIGHT: u32 = 2;
const FEATURES: usize = 128;
const HIDDEN: usize = 256;
const CLASSES: usize = 8;
const TOKENS: usize = 1024;
/// Steps of every session on a new pool before the timed ones.
const WARMUP_STEPS_PER_SESSION: usize = 200;
/// Timed steps in a round, all sessions together (about 0.45 s on the
/// reference host).
const ROUND_STEPS: usize = 16_000;
/// Steps in a fine segment of the statistics (about 2 ms) and in a tail
/// segment (about 5 ms: its p99 lies between its slowest two).
const FINE_STEPS: usize = 64;
const TAIL_STEPS: usize = 200;
/// Steps of the offline engine / GRU timing in the traced run.
const WALK_STEPS: usize = 4_000;

pub struct StreamSessions {
    ctx: Ctx,
    network: Network,
    tokens: Vec<Tensor>,
    server: Option<StreamServer>,
    /// Steps submitted per session on the current server.
    steps: [usize; SESSIONS],
    /// `(session, step)` of every id handed out on the current server.
    ids: Vec<(u8, u32)>,
    input_digest: u64,
    setup: SetupTimes,
}

/// What one closed-loop drive observed on the submit side.
#[derive(Default)]
struct Driven {
    first_id: usize,
    submit_ns: Vec<u64>,
    busy_retries: u64,
    /// Time inside accepted `StreamServer::step` calls, ns.
    step_call_ns: u64,
    wall_s: f64,
}

impl StreamSessions {
    pub fn prepare(ctx: &Ctx) -> Self {
        let (tokens, data_gen_ms) = timed_ms(|| {
            let mut rng = SmallRng::seed_from_u64(ctx.seed);
            (0..TOKENS)
                .map(|_| Tensor::from_fn(&[FEATURES], |_| ffdl_rng::standard_normal(&mut rng)))
                .collect::<Vec<_>>()
        });
        let mut rng = SmallRng::seed_from_u64(MODEL_SEED);
        let mut network = Network::new();
        network.push(CirculantGru::new(FEATURES, HIDDEN, 64, &mut rng).expect("static dims"));
        network.push(Dense::new(HIDDEN, CLASSES, &mut rng));
        network.push(Softmax::new());
        let mut w = Self {
            ctx: ctx.clone(),
            network,
            input_digest: digest(&tokens),
            tokens,
            server: None,
            steps: [0; SESSIONS],
            ids: Vec::new(),
            setup: SetupTimes {
                data_gen_ms,
                ..Default::default()
            },
        };
        w.start();
        w
    }

    /// Token `step` of `session`: sessions walk the token pool from
    /// different offsets.
    fn token(&self, session: usize, step: usize) -> &Tensor {
        &self.tokens[(session * 131 + step) % TOKENS]
    }

    fn start(&mut self) {
        let config = StreamConfig {
            workers: self.ctx.workers,
            queue_depth: 1024,
            session_inflight: SESSION_INFLIGHT,
            ..Default::default()
        };
        let server = StreamServer::start(&self.network, &config).expect("start stream server");
        for session in 0..SESSIONS {
            server.open_session(session as u64).expect("open session");
        }
        self.server = Some(server);
        self.steps = [0; SESSIONS];
        self.ids.clear();
        let warmup = self.ctx.scaled(WARMUP_STEPS_PER_SESSION, 4) * SESSIONS;
        self.drive(|_, sent| sent < warmup, &mut None);
    }

    /// The closed loop: offers every session its next step in turn while
    /// `go(elapsed, sent)` holds; a session at its in-flight cap is
    /// skipped (`SessionBusy`). Then waits for every step to be answered.
    fn drive(
        &mut self,
        go: impl Fn(Duration, usize) -> bool,
        rec: &mut Option<&mut Recorder>,
    ) -> Driven {
        let server = self.server.as_ref().expect("running server");
        let mut d = Driven {
            first_id: self.ids.len(),
            ..Default::default()
        };
        let start = Instant::now();
        let mut last_accept = start;
        let mut last_round_accepted = 1;
        'submit: loop {
            // A round that found every session at its cap backs off, so
            // polling does not fight the worker for the sessions'
            // in-flight counters. Sixteen queued steps outlast it.
            if last_round_accepted == 0 {
                poll_backoff();
            }
            last_round_accepted = 0;
            for session in 0..SESSIONS {
                let before = Instant::now();
                let elapsed = before - start;
                if !go(elapsed, self.ids.len() - d.first_id) || before - last_accept > STALL_LIMIT {
                    break 'submit;
                }
                let step = self.steps[session];
                let id = self.ids.len() as u64;
                let features = self.token(session, step).clone();
                let span = rec.as_deref_mut().map(|r| r.begin("stream.step", id));
                let result = server.step(session as u64, id, features);
                // Only accepted steps leave a span: the loop polls.
                if let (Some(r), Some(open)) = (rec.as_deref_mut(), span) {
                    if result.is_ok() {
                        r.end(open);
                    } else {
                        r.cancel(open);
                    }
                }
                match result {
                    Ok(()) => {
                        d.step_call_ns += before.elapsed().as_nanos() as u64;
                        d.submit_ns.push(elapsed.as_nanos() as u64);
                        self.ids.push((session as u8, step as u32));
                        self.steps[session] += 1;
                        last_accept = before;
                        last_round_accepted += 1;
                    }
                    Err(StreamError::SessionBusy { .. } | StreamError::QueueFull(_)) => {
                        d.busy_retries += 1
                    }
                    Err(e) => panic!("stream_sessions: step refused: {e}"),
                }
            }
        }
        let drain = Instant::now();
        while server.inflight_steps() > 0 && drain.elapsed() < STALL_LIMIT {
            std::thread::yield_now();
        }
        d.wall_s = start.elapsed().as_secs_f64();
        d
    }

    /// Single-threaded replays of every session from a zero state, run
    /// on all cores: `replayed[session][step]`.
    fn replay_sessions(&self) -> Vec<Vec<Prediction>> {
        let server = self.server.as_ref().expect("running server");
        let threads = self.ctx.nproc.clamp(1, SESSIONS);
        let mut replayed: Vec<Vec<Prediction>> = vec![Vec::new(); SESSIONS];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    scope.spawn(move || {
                        (k..SESSIONS)
                            .step_by(threads)
                            .map(|session| {
                                let tokens: Vec<Tensor> = (0..self.steps[session])
                                    .map(|step| self.token(session, step).clone())
                                    .collect();
                                (session, server.replay(&tokens).expect("offline replay"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (session, predictions) in handle.join().expect("replay thread") {
                    replayed[session] = predictions;
                }
            }
        });
        replayed
    }
}

impl Workload for StreamSessions {
    fn ready(&mut self) {
        if self.server.is_none() {
            self.start();
        }
    }

    fn segment_ops(&self) -> (usize, usize) {
        (FINE_STEPS, TAIL_STEPS)
    }

    fn measure(&mut self, mut rec: Option<&mut Recorder>) -> Phase {
        self.ready();
        let round = self.ctx.scaled(ROUND_STEPS, 2 * FINE_STEPS);
        let d = self.drive(|_, sent| sent < round, &mut rec);
        let replayed = self.replay_sessions();
        let server = self.server.take().expect("running server");
        for session in 0..SESSIONS {
            server.close_session(session as u64).expect("close session");
        }
        let report = server.finish().expect("finish stream server");
        let slo_us = spec::workload("stream_sessions").expect("declared").slo_us;

        // Every accepted id exactly once in responses ∪ failures, every
        // response bit-identical to the single-threaded replay.
        let mut ledger = Ledger::new(self.ids.len());
        let mut phase = Phase {
            wall_s: d.wall_s,
            ..Default::default()
        };
        phase.ops.reserve_exact(d.submit_ns.len());
        for r in &report.serve.responses {
            let Some(&(session, step)) = self.ids.get(r.id as usize) else {
                continue;
            };
            let reference = &replayed[session as usize][step as usize];
            ledger.response(r.id as usize, r.prediction == *reference, r.latency_us);
            if (r.id as usize) < d.first_id {
                continue;
            }
            phase.note_response(r, reference, rec.is_some());
        }
        for f in &report.serve.failures {
            ledger.failure(f.id as usize);
        }
        let mut warmup = Phase::default();
        for id in 0..d.first_id {
            warmup.push(0, ledger.fate(id), slo_us);
        }
        phase.warmup = warmup.counts;
        for (i, t_ns) in d.submit_ns.iter().enumerate() {
            phase.push(*t_ns, ledger.fate(d.first_id + i), slo_us);
        }
        phase.facts.insert("busy_retries", d.busy_retries as f64);
        phase.facts.insert(
            "submit_ns",
            d.step_call_ns as f64 / d.submit_ns.len().max(1) as f64,
        );
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
        // The engine a worker runs, stepped offline on one session.
        let mut engine = StreamEngine::new(
            clone_network(&self.network, &full_registry()).expect("clone"),
            false,
        );
        let mut hidden = engine.fresh_state();
        for step in 0..WALK_STEPS {
            let token = self.token(0, step);
            rec.span("stream.engine_step", step as u64, || {
                engine.step(&mut hidden, token)
            })
            .expect("engine step");
        }
        // The recurrent cell alone.
        let gru = self.network.layers()[0]
            .as_any()
            .and_then(|a| a.downcast_ref::<CirculantGru>())
            .expect("the model starts with the GRU");
        let mut h = vec![0.0f32; HIDDEN];
        let mut scratch = GruScratch::new();
        for step in 0..WALK_STEPS {
            let x = self.token(0, step).as_slice();
            rec.span("core.gru_step", step as u64, || {
                gru.step(x, &mut h, &mut scratch)
            })
            .expect("gru step");
        }
        let totals = rec.totals();
        let engine_us = totals["stream.engine_step"].mean_us();
        let throughput = crate::stats::mean_throughput(&untraced.ops);
        out.insert("stream.engine_step_us", engine_us);
        out.insert("core.gru_step_us", totals["core.gru_step"].mean_us());
        out.insert(
            "stream.overhead_us_per_step",
            self.ctx.workers as f64 * 1e6 / throughput - engine_us,
        );
        out.insert("stream.mean_batch", untraced.mean_batch());
        out.insert("stream.busy_retries", untraced.facts["busy_retries"]);
        out.insert("stream.submit_ns", traced.facts["submit_ns"]);
        0
    }

    fn discard(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            let _ = server.finish();
        }
    }
}
