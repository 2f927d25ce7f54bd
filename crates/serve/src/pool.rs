//! Worker pool and server front-end: a single FIFO queue with dynamic
//! batching in front of the [supervised worker core](crate::supervise).
//!
//! [`Server::start`] spawns `workers` OS threads over one
//! [`BoundedQueue`]. Each worker loops: adopt the active model, pop a
//! batch, shed what expired in the queue, and hand the rest to
//! [`Worker::step`](crate::supervise::Worker::step) — one coalesced
//! [`InferenceEngine::predict_batch`] forward pass on the worker's *own
//! clone* of the network, a [`ServeResponse`] or a typed
//! [`ServeFailure`] per request in its private ledger. Closing the queue
//! is the shutdown signal: workers drain what is left and exit.
//!
//! Everything that is not dispatch — the queue and its wake protocol
//! ([`crate::queue`]), the generation-tagged [`ModelSlot`] behind
//! [`Server::swap_model`] / [`Server::swap_from_store`], engine adoption
//! between batches, the supervised batch step with numerical-health
//! quarantine and auto-rollback, the per-worker ledger and the
//! join/merge at [`Server::finish`] — is the shared core; see
//! [`crate::supervise`] and DESIGN.md "Supervised worker core".
//!
//! # Deadlines
//!
//! With [`ServeConfig::deadline`] set, every admitted request carries an
//! absolute deadline. Workers shed expired requests **at dequeue** —
//! each one becomes a typed [`FailureKind::DeadlineExceeded`] failure
//! (`ffdl.serve.expired`), never a silent drop — and
//! [`Server::submit`] converts a full queue into a bounded wait that
//! gives up at the same deadline (`ffdl.serve.shed`) instead of failing
//! fast with [`ServeError::QueueFull`].

use crate::error::ServeError;
use crate::queue::{BoundedQueue, Popped, PushError, IDLE_WAIT};
use crate::stats::{RunCounts, ServeReport};
use crate::supervise::{Adopted, ModelSlot, Request, Stepped, WorkerPool};
use ffdl_core::full_registry;
use ffdl_deploy::{InferenceEngine, Prediction};
use ffdl_nn::{LayerRegistry, Network};
use ffdl_registry::ModelStore;
use ffdl_telemetry::Registry;
use ffdl_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Configuration for a serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns a clone of the network).
    pub workers: usize,
    /// Largest batch a worker coalesces into one forward pass.
    pub max_batch: usize,
    /// How long a worker holds an underfull batch open waiting for more
    /// requests (the dynamic-batching window).
    pub max_wait: Duration,
    /// Bounded queue depth; submits beyond this are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Per-request deadline, measured from admission. `None` (the
    /// default) disables deadline handling entirely. When set, expired
    /// requests are shed at dequeue as typed failures, and
    /// [`Server::submit`] waits up to this long for queue space.
    pub deadline: Option<Duration>,
    /// Numerical-health policy (finiteness checking and auto-rollback).
    pub health: HealthConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            queue_depth: 256,
            deadline: None,
            health: HealthConfig::default(),
        }
    }
}

/// Numerical-health policy for a serving run.
#[derive(Debug, Clone, Default)]
pub struct HealthConfig {
    /// Enable the engine's logits finiteness scan in every worker
    /// ([`InferenceEngine::set_finite_check`]): NaN/Inf logits fail the
    /// batch with typed [`FailureKind::UnhealthyModel`] failures instead
    /// of serving garbage predictions.
    pub check_finite: bool,
    /// Number of unhealthy request failures on the **current**
    /// generation that trips quarantine + auto-rollback. `0` (the
    /// default) disables rollback — unhealthy batches still fail typed
    /// when `check_finite` is on, but the generation is never replaced.
    pub unhealthy_threshold: u32,
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_depth must be >= 1".into(),
            ));
        }
        if self.health.unhealthy_threshold > 0 && !self.health.check_finite {
            return Err(ServeError::InvalidConfig(
                "unhealthy_threshold requires health.check_finite".into(),
            ));
        }
        Ok(())
    }
}

/// Why a request failed (the report-side mirror of the typed
/// [`ServeError`] the client receives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The request's deadline passed while it waited in the queue; it
    /// was shed at dequeue.
    DeadlineExceeded,
    /// The serving model produced non-finite logits for the request's
    /// batch.
    UnhealthyModel,
    /// The request's batch was lost to a panicking forward pass (the
    /// worker restarted).
    WorkerPanic,
    /// The request was rejected at admission (queue full) by an
    /// open-loop front end that records rejections as typed failures
    /// instead of retrying — used by the `ffdl-sched` scheduler, never
    /// by this crate's closed-loop [`Server`].
    Shed,
    /// Per-tenant admission control rejected the request: the tenant was
    /// over its configured rate budget (`ffdl-sched`).
    OverLimit,
    /// The request's stream session was quarantined by an earlier fault
    /// (panicking or NaN step), so this step was refused to protect the
    /// session's state invariant — used by the `ffdl-stream` stateful
    /// front end, never by this crate's stateless pools.
    SessionQuarantined {
        /// The quarantined session the refused step belonged to.
        session: u64,
    },
    /// The request was shed at admission by the brownout controller:
    /// the tenant's queue delay persistently exceeded its target
    /// (`ffdl-sched`, never this crate's closed-loop [`Server`]).
    /// Carries the tenant's degradation-ladder level at shed time.
    Brownout {
        /// Ladder level the tenant was serving at (0 = full precision).
        level: u8,
    },
}

/// One failed request. Every admitted request ends up either in
/// [`ServeReport::responses`](crate::ServeReport) or here — nothing is
/// dropped silently.
#[derive(Debug, Clone)]
pub struct ServeFailure {
    /// Caller-assigned request id.
    pub id: u64,
    /// Why the request failed.
    pub kind: FailureKind,
    /// Model generation active when the failure was recorded.
    pub generation: u64,
    /// Tenant the request belonged to (set by `ffdl-sched`; `None`
    /// from [`Server`] and `ffdl-stream`).
    pub tenant: Option<Arc<str>>,
}

impl ServeFailure {
    /// The typed [`ServeError`] a client would receive for this failure,
    /// carrying the tenant it hit when the run was multi-tenant.
    pub fn error(&self) -> ServeError {
        let tenant = self.tenant.as_ref().map(|t| t.to_string());
        match self.kind {
            FailureKind::DeadlineExceeded => ServeError::DeadlineExceeded { tenant },
            FailureKind::UnhealthyModel => ServeError::UnhealthyModel {
                generation: self.generation,
                tenant,
            },
            FailureKind::WorkerPanic => ServeError::WorkerPanic {
                message: "batch lost to a panicking forward pass".into(),
                tenant,
            },
            FailureKind::Shed => ServeError::QueueFull { tenant },
            FailureKind::OverLimit => ServeError::TenantOverLimit {
                tenant: tenant.unwrap_or_else(|| "-".into()),
            },
            FailureKind::SessionQuarantined { session } => ServeError::SessionQuarantined {
                generation: self.generation,
                session: Some(session),
            },
            FailureKind::Brownout { level } => ServeError::Brownout {
                tenant: tenant.unwrap_or_else(|| "-".into()),
                level,
            },
        }
    }
}

/// One served request: the prediction plus how it was served.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Caller-assigned request id.
    pub id: u64,
    /// The model's prediction for this request.
    pub prediction: Prediction,
    /// Admission-to-prediction latency, µs (includes queueing and the
    /// batching window, not just kernel time).
    pub latency_us: f64,
    /// Index of the worker that served the request.
    pub worker: usize,
    /// Size of the coalesced batch this request rode in.
    pub batch_size: usize,
    /// Model generation that served the request (starts at 1; bumped by
    /// every [`Server::swap_model`]).
    pub generation: u64,
    /// Tenant the request belonged to (set by `ffdl-sched`; `None`
    /// from [`Server`] and `ffdl-stream`). An `Arc<str>` so stamping
    /// every response costs one refcount bump, not a string copy.
    pub tenant: Option<Arc<str>>,
}

/// A running serving instance: bounded queue + worker pool.
///
/// Telemetry: the server owns one [`Registry`] for admission-side
/// metrics (`ffdl.serve.rejections`, the `ffdl.serve.queue_depth`
/// gauge, the `ffdl.serve.model_generation` gauge and the
/// `ffdl.registry.swap_ns` swap-latency histogram), and every worker
/// thread owns a private registry for hot-path metrics (batch size,
/// queue wait, inference time, worker restarts) — workers never share a
/// metric cache line, and the per-thread registries are merged into one
/// snapshot at [`Server::finish`]. All recording is gated on
/// [`ffdl_telemetry::enabled`], so a server with telemetry off pays one
/// relaxed bool load per operation.
pub struct Server {
    queue: Arc<BoundedQueue<Request>>,
    recorded: Arc<AtomicU64>,
    pool: WorkerPool,
    rejections: AtomicU64,
    shed: AtomicU64,
    model: Arc<ModelSlot>,
    workers: usize,
    deadline: Option<Duration>,
    started: Instant,
    registry: Registry,
    rejections_counter: Arc<ffdl_telemetry::Counter>,
    shed_counter: Arc<ffdl_telemetry::Counter>,
    depth_gauge: Arc<ffdl_telemetry::Gauge>,
    generation_gauge: Arc<ffdl_telemetry::Gauge>,
}

impl Server {
    /// Validates the network (one structural clone into the model slot)
    /// and starts the pool; each worker clones its own engine from the
    /// slot before its first batch. Resolves layer types through
    /// [`ffdl_core::full_registry`] (every built-in and block-circulant
    /// layer).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero worker/batch/depth count,
    /// [`ServeError::Clone`] if the network fails its wire round-trip.
    pub fn start(network: &Network, config: &ServeConfig) -> Result<Self, ServeError> {
        Self::start_with_registry(network, config, full_registry())
    }

    /// Like [`Server::start`], but resolves layer types through a caller
    /// supplied [`LayerRegistry`] — for pools serving networks with
    /// custom layer types the core registry does not know about. The
    /// registry is also used by every later [`swap_model`](Self::swap_model)
    /// re-clone.
    ///
    /// # Errors
    ///
    /// See [`Server::start`].
    pub fn start_with_registry(
        network: &Network,
        config: &ServeConfig,
        layers: LayerRegistry,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        // Admission-side metrics live on the server's own registry and
        // are registered eagerly so the names appear in every snapshot,
        // even at zero.
        let registry = Registry::new();
        let rejections_counter = registry.counter("ffdl.serve.rejections");
        let shed_counter = registry.counter("ffdl.serve.shed");
        let depth_gauge = registry.gauge("ffdl.serve.queue_depth");
        let generation_gauge = registry.gauge("ffdl.serve.model_generation");
        generation_gauge.set(1);
        // Building the slot clones the network once, so a bad model is
        // reported before any thread spawns.
        let model = Arc::new(ModelSlot::new(network, Arc::new(layers), &registry)?);
        let check_finite = config.health.check_finite;
        let threshold = config.health.unhealthy_threshold;

        let queue = Arc::new(BoundedQueue::<Request>::new(config.queue_depth));
        let recorded = Arc::new(AtomicU64::new(0));
        let max_batch = config.max_batch;
        let max_wait = config.max_wait;
        let pool = WorkerPool::new("serve");
        for index in 0..config.workers {
            let queue = Arc::clone(&queue);
            let recorded = Arc::clone(&recorded);
            let model = Arc::clone(&model);
            pool.spawn(index, move |worker| {
                let depth_hist = worker.telemetry.histogram("ffdl.serve.queue_depth_at_pop");
                let mut adopted = Adopted::empty();
                let mut batch = Vec::new();
                loop {
                    // Hot-swap check, between batches only (an idle pop
                    // comes back here too). The queue keeps filling
                    // while a new engine is cloned.
                    let (generation, engine) = adopted.refresh(&model, |network| {
                        let mut engine = InferenceEngine::new(network);
                        engine.set_finite_check(check_finite);
                        engine
                    })?;
                    match queue.pop(&mut batch, max_batch, max_wait, IDLE_WAIT) {
                        Popped::Closed => return Ok(()), // and drained
                        Popped::Idle => continue,
                        Popped::Batch => {}
                    }
                    worker.split_expired(&mut batch, Instant::now(), generation, None);
                    if batch.is_empty() {
                        continue;
                    }
                    if ffdl_telemetry::enabled() {
                        depth_hist.record(queue.len() as u64);
                    }
                    let predict = |rows: &[&Tensor]| engine.predict_batch(rows);
                    match worker.step(&batch, predict, generation, None, &model, threshold)? {
                        Stepped::Served(_) => {
                            recorded.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        }
                        Stepped::Unhealthy(_) => {}
                        Stepped::Panicked => adopted.invalidate(),
                    }
                }
            });
        }

        Ok(Self {
            queue,
            recorded,
            pool,
            rejections: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            model,
            workers: config.workers,
            deadline: config.deadline,
            started: Instant::now(),
            registry,
            rejections_counter,
            shed_counter,
            depth_gauge,
            generation_gauge,
        })
    }

    /// Submits a request. Non-blocking: a full queue is reported as
    /// [`ServeError::QueueFull`] (backpressure — retry after a pause).
    /// When [`ServeConfig::deadline`] is set, the admitted request
    /// carries `now + deadline` and is shed at dequeue if it expires in
    /// the queue.
    pub fn try_submit(&self, id: u64, features: Tensor) -> Result<(), ServeError> {
        self.admit(Request::new(id, features, self.deadline), false)
    }

    /// Submits with bounded-wait admission: when the queue is full, the
    /// call waits for space until the request's deadline instead of
    /// failing fast, converting overload into a measured delay. Giving
    /// up at the deadline is a *shed* — reported as typed
    /// [`ServeError::DeadlineExceeded`] and counted in
    /// `ffdl.serve.shed`. Without a configured deadline this is
    /// identical to [`try_submit`](Self::try_submit).
    pub fn submit(&self, id: u64, features: Tensor) -> Result<(), ServeError> {
        self.admit(Request::new(id, features, self.deadline), true)
    }

    /// Pushes an admitted request; `wait` makes a full queue a bounded
    /// wait until the request's own deadline, when it has one.
    fn admit(&self, request: Request, wait: bool) -> Result<(), ServeError> {
        let until = request.deadline.filter(|_| wait);
        let pushed = match until {
            Some(_) => self.queue.push_wait(request, until),
            None => self.queue.try_push(request),
        };
        let telemetry_on = ffdl_telemetry::enabled();
        match pushed {
            Ok(()) => {
                if telemetry_on {
                    self.depth_gauge.set(self.queue.len() as i64);
                }
                Ok(())
            }
            Err(PushError::Closed) => Err(ServeError::Closed),
            Err(PushError::Full) if until.is_some() => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                if telemetry_on {
                    self.shed_counter.inc();
                }
                Err(ServeError::deadline_exceeded())
            }
            Err(PushError::Full) => {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                if telemetry_on {
                    self.rejections_counter.inc();
                }
                Err(ServeError::queue_full())
            }
        }
    }

    /// Publishes a new model into the running pool and returns the new
    /// generation number. Admission keeps running throughout: the new
    /// network is validated (one wire round-trip) and placed in the
    /// shared slot, then the generation counter is bumped. Each worker
    /// notices the bump between batches and re-clones; batches already
    /// in flight finish on the model that started them, and their
    /// responses carry that older generation.
    ///
    /// A failed validation leaves the pool on the current model — a
    /// model that cannot round-trip never reaches a worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when the replacement network fails its wire
    /// round-trip (unknown layer tag, broken config/params pair).
    pub fn swap_model(&self, network: &Network) -> Result<u64, ServeError> {
        self.published(self.model.swap_model(network))
    }

    /// Mirrors a successful swap into the `ffdl.serve.model_generation`
    /// gauge.
    fn published(&self, swapped: Result<u64, ServeError>) -> Result<u64, ServeError> {
        if let (Ok(generation), true) = (&swapped, ffdl_telemetry::enabled()) {
            self.generation_gauge.set(*generation as i64);
        }
        swapped
    }

    /// Like [`swap_model`](Self::swap_model), but sources the model from
    /// an [`ffdl-registry`](ffdl_registry) [`ModelStore`] — loading
    /// `registry_generation` of `name` (`None` = active) with full
    /// checksum verification — and *binds* the server to that store:
    /// an auto-rollback triggered later can then republish the healthy
    /// generation's bytes through the registry, making the recovery
    /// durable and bit-identical to the original publish. Returns the
    /// new **server** generation (which [`ServeResponse::generation`]
    /// reports; it is independent of the registry's numbering).
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] for unknown names/generations or a
    /// corrupt payload; [`ServeError::Clone`] if the loaded network
    /// fails its wire round-trip.
    pub fn swap_from_store(
        &self,
        store: &ModelStore,
        name: &str,
        registry_generation: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.published(self.model.swap_from_store(store, name, registry_generation))
    }

    /// The generation currently being adopted by workers (the one
    /// [`swap_model`](Self::swap_model) last published; starts at 1).
    pub fn model_generation(&self) -> u64 {
        self.model.generation()
    }

    /// Times a worker recovered from a panicking batch so far.
    pub fn worker_restarts(&self) -> u64 {
        self.pool.restarts()
    }

    /// Server generations quarantined by the health supervisor so far.
    pub fn quarantined_generations(&self) -> Vec<u64> {
        let history = self.model.history();
        history.iter().filter(|r| r.3).map(|r| r.0).collect()
    }

    /// Automatic rollbacks performed by the health supervisor so far.
    pub fn auto_rollbacks(&self) -> u64 {
        self.model.health_counts().1
    }

    /// Current queue depth (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Responses recorded by workers so far (monotonic, lock-free).
    /// Live observability only — the responses themselves stay in
    /// per-worker buffers until [`finish`](Self::finish) merges them.
    pub fn responses_recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Closes the queue, drains all pending requests, joins the workers
    /// and returns the run's statistics.
    ///
    /// # Errors
    ///
    /// Surfaces the first worker failure: [`ServeError::Inference`] if a
    /// forward pass failed, [`ServeError::WorkerPanic`] if a worker
    /// thread panicked outside the supervised batch execution.
    pub fn finish(self) -> Result<ServeReport, ServeError> {
        self.queue.close();
        let joined = self.pool.join(self.registry.snapshot())?;
        let wall = self.started.elapsed();
        let (quarantines, auto_rollbacks) = self.model.health_counts();
        let counts = RunCounts {
            queue_full_rejections: self.rejections.load(Ordering::Relaxed),
            worker_restarts: self.pool.restarts(),
            shed: self.shed.load(Ordering::Relaxed),
            brownout: 0, // this crate's closed-loop server never browns out
            expired: joined.expired(),
            quarantines,
            auto_rollbacks,
            model_generation: self.model.generation(),
        };
        Ok(ServeReport::from_parts(
            joined.responses,
            joined.failures,
            self.workers,
            wall,
            counts,
            joined.telemetry,
            self.deadline,
        ))
    }
}

/// Closed-loop load generator: submits every sample (retrying on
/// backpressure), then shuts the server down and returns its report.
///
/// Request `i` gets id `i`, so the report's responses line up with the
/// input slice index-for-index.
///
/// # Errors
///
/// Propagates [`Server::start`] and worker failures; a
/// [`ServeError::QueueFull`] is absorbed by retrying and shows up only in
/// the report's rejection count. With [`ServeConfig::deadline`] set,
/// admission uses the bounded-wait [`Server::submit`] path and a shed
/// request is skipped (counted in the report), mirroring a client that
/// gives up at its deadline.
pub fn run_closed_loop(
    network: &Network,
    config: &ServeConfig,
    samples: &[Tensor],
) -> Result<ServeReport, ServeError> {
    let server = Server::start(network, config)?;
    for (i, sample) in samples.iter().enumerate() {
        loop {
            match server.submit(i as u64, sample.clone()) {
                Ok(()) => break,
                Err(ServeError::QueueFull { .. }) => thread::yield_now(),
                Err(ServeError::DeadlineExceeded { .. }) => break, // shed; in the report
                Err(e) => return Err(e),
            }
        }
    }
    server.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_deploy::parse_architecture;
    use ffdl_rng::{Rng, SeedableRng, SmallRng};

    const ARCH: &str = "\
input 16
circulant_fc 16 block=4
relu
fc 4
softmax
";

    fn test_network() -> Network {
        parse_architecture(ARCH, 11).unwrap().network
    }

    fn test_network_b() -> Network {
        parse_architecture(ARCH, 4242).unwrap().network
    }

    fn test_samples(n: usize) -> Vec<Tensor> {
        let mut rng = SmallRng::seed_from_u64(77);
        (0..n)
            .map(|_| Tensor::from_fn(&[16], |_| rng.next_f32() * 2.0 - 1.0))
            .collect()
    }

    /// Offline single-sample predictions for comparing served results.
    fn offline_predictions(net: Network, samples: &[Tensor]) -> Vec<Prediction> {
        let mut direct = InferenceEngine::new(net);
        samples
            .iter()
            .map(|s| {
                direct
                    .predict(&s.reshape(&[1, 16]).unwrap())
                    .unwrap()
                    .remove(0)
            })
            .collect()
    }

    #[test]
    fn invalid_configs_rejected() {
        let net = test_network();
        for bad in [
            ServeConfig {
                workers: 0,
                ..Default::default()
            },
            ServeConfig {
                max_batch: 0,
                ..Default::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                Server::start(&net, &bad),
                Err(ServeError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn serves_all_requests_and_matches_direct_inference() {
        let net = test_network();
        let samples = test_samples(24);
        let config = ServeConfig {
            workers: 2,
            max_batch: 8,
            ..Default::default()
        };
        let report = run_closed_loop(&net, &config, &samples).unwrap();
        assert_eq!(report.requests, samples.len());
        // Sorted by id == input order.
        for (i, resp) in report.responses.iter().enumerate() {
            assert_eq!(resp.id, i as u64);
            assert!(resp.latency_us >= 0.0);
            assert!(resp.batch_size >= 1);
            assert_eq!(resp.generation, 1); // no swap happened
        }
        assert_eq!(report.model_generation, 1);
        assert_eq!(report.worker_restarts, 0);
        // Served predictions match a plain single-sample engine.
        let expected = offline_predictions(test_network(), &samples);
        for (expect, resp) in expected.iter().zip(&report.responses) {
            assert_eq!(*expect, resp.prediction);
        }
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let net = test_network();
        let samples = test_samples(32);
        let one = run_closed_loop(
            &net,
            &ServeConfig {
                workers: 1,
                max_batch: 8,
                ..Default::default()
            },
            &samples,
        )
        .unwrap();
        let four = run_closed_loop(
            &net,
            &ServeConfig {
                workers: 4,
                max_batch: 8,
                ..Default::default()
            },
            &samples,
        )
        .unwrap();
        assert_eq!(one.requests, four.requests);
        for (a, b) in one.responses.iter().zip(&four.responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.prediction, b.prediction); // bit-identical
        }
    }

    #[test]
    fn tight_queue_applies_backpressure_without_losing_requests() {
        let net = test_network();
        let samples = test_samples(40);
        let config = ServeConfig {
            workers: 1,
            max_batch: 4,
            queue_depth: 2,
            ..Default::default()
        };
        let report = run_closed_loop(&net, &config, &samples).unwrap();
        assert_eq!(report.requests, 40);
        assert!(report.max_batch <= 4);
    }

    /// The acceptance test for live hot-swap: a running pool is swapped
    /// from model A to model B mid-stream. Every response must be
    /// bit-identical to the *offline* prediction of the model generation
    /// it reports, no request may be dropped or rejected, and the pool
    /// must actually adopt the new generation.
    #[test]
    fn hot_swap_is_live_lossless_and_bit_identical_per_generation() {
        let samples = test_samples(96);
        let (phase_a, phase_b) = samples.split_at(32);
        let expected_a = offline_predictions(test_network(), &samples);
        let expected_b = offline_predictions(test_network_b(), &samples);

        let config = ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_micros(200),
            queue_depth: 256, // deep enough that nothing is rejected
            ..Default::default()
        };
        let server = Server::start(&test_network(), &config).unwrap();
        for (i, s) in phase_a.iter().enumerate() {
            server.try_submit(i as u64, s.clone()).unwrap();
        }
        // Wait for model A to record at least one response (anything
        // recorded before the swap is necessarily generation 1), so the
        // per-generation assertions below exercise both models.
        while server.responses_recorded() == 0 {
            thread::yield_now();
        }
        // Swap while the pool is busy — admission is never paused.
        let generation = server.swap_model(&test_network_b()).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(server.model_generation(), 2);
        for (i, s) in phase_b.iter().enumerate() {
            let id = (phase_a.len() + i) as u64;
            server.try_submit(id, s.clone()).unwrap();
        }
        let report = server.finish().unwrap();

        // Zero loss, zero rejections across the swap.
        assert_eq!(report.requests, samples.len());
        assert_eq!(report.queue_full_rejections, 0);
        assert_eq!(report.worker_restarts, 0);
        assert_eq!(report.model_generation, 2);

        // Each response matches the offline predictions of the model
        // generation that served it, bit for bit.
        let mut served_by = [0usize; 2];
        for resp in &report.responses {
            let i = resp.id as usize;
            match resp.generation {
                1 => {
                    assert_eq!(resp.prediction, expected_a[i], "id {i} (gen 1)");
                    served_by[0] += 1;
                }
                2 => {
                    assert_eq!(resp.prediction, expected_b[i], "id {i} (gen 2)");
                    served_by[1] += 1;
                }
                g => panic!("impossible generation {g}"),
            }
        }
        // Phase-A requests were all admitted before the swap bumped the
        // counter; batches in flight finish on the old model, so some
        // must have been served by generation 1, and the drain of
        // phase B guarantees generation 2 served the tail.
        assert!(served_by[0] >= 1, "no request served by model A");
        assert!(served_by[1] >= 1, "pool never adopted model B");
        // Requests submitted before the swap returned are never served
        // by the new generation's *predecessor* — i.e. the generation
        // only moves forward.
        for pair in report.responses.windows(2) {
            assert!(
                pair[0].generation <= pair[1].generation
                    || pair[0].worker != pair[1].worker,
                "a single worker's generation went backwards"
            );
        }
    }

    #[test]
    fn repeated_swaps_keep_monotonic_generations() {
        let server = Server::start(&test_network(), &ServeConfig::default()).unwrap();
        for expect in 2..=5 {
            let next = if expect % 2 == 0 {
                test_network_b()
            } else {
                test_network()
            };
            assert_eq!(server.swap_model(&next).unwrap(), expect);
        }
        let report = server.finish().unwrap();
        assert_eq!(report.model_generation, 5);
    }

    #[test]
    fn swap_rejects_unclonable_network_and_keeps_serving() {
        let net = test_network();
        let server = Server::start(&net, &ServeConfig::default()).unwrap();
        // A network with a layer the registry cannot rebuild: the swap
        // must fail validation and leave generation 1 active.
        struct Alien;
        impl ffdl_nn::Layer for Alien {
            fn type_tag(&self) -> &'static str {
                "alien"
            }
            fn forward_with(
                &mut self,
                input: &Tensor,
                _: &mut ffdl_nn::Scratch,
                _: bool,
            ) -> Result<Tensor, ffdl_nn::NnError> {
                Ok(input.clone())
            }
            fn backward(&mut self, grad: &Tensor) -> Result<Tensor, ffdl_nn::NnError> {
                Ok(grad.clone())
            }
        }
        let mut bad = Network::new();
        bad.push(Alien);
        assert!(matches!(
            server.swap_model(&bad),
            Err(ServeError::Clone(_))
        ));
        assert_eq!(server.model_generation(), 1);

        // The pool still serves on the original model.
        let samples = test_samples(8);
        for (i, s) in samples.iter().enumerate() {
            server.try_submit(i as u64, s.clone()).unwrap();
        }
        let report = server.finish().unwrap();
        assert_eq!(report.requests, 8);
        assert_eq!(report.model_generation, 1);
    }

    /// Worker supervision: a model whose forward pass panics must not
    /// kill the pool — the worker counts a restart, rebuilds its engine
    /// from the slot, and keeps serving subsequent requests.
    #[test]
    fn panicking_batch_restarts_worker_without_killing_pool() {
        use std::sync::atomic::AtomicBool;

        // A layer that panics once (on its first forward), then behaves
        // as identity. `fuse` is shared across wire-format clones via a
        // process-global so the panic survives `clone_network`.
        static FUSE_LIT: AtomicBool = AtomicBool::new(false);
        struct Grenade;
        impl ffdl_nn::Layer for Grenade {
            fn type_tag(&self) -> &'static str {
                "test_grenade"
            }
            fn forward_with(
                &mut self,
                input: &Tensor,
                _: &mut ffdl_nn::Scratch,
                _: bool,
            ) -> Result<Tensor, ffdl_nn::NnError> {
                if !FUSE_LIT.swap(true, Ordering::SeqCst) {
                    panic!("poisoned model version");
                }
                Ok(input.clone())
            }
            fn backward(&mut self, grad: &Tensor) -> Result<Tensor, ffdl_nn::NnError> {
                Ok(grad.clone())
            }
        }
        fn grenade_from_config(_: &[u8]) -> Result<Box<dyn ffdl_nn::Layer>, ffdl_nn::NnError> {
            Ok(Box::new(Grenade))
        }

        let mut layers = full_registry();
        layers.register("test_grenade", grenade_from_config);
        let mut net = parse_architecture(ARCH, 11).unwrap().network;
        net.push(Grenade); // identity after the softmax, except the first call

        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_micros(100),
            ..Default::default()
        };
        let server = Server::start_with_registry(&net, &config, layers).unwrap();
        let samples = test_samples(12);
        for (i, s) in samples.iter().enumerate() {
            loop {
                match server.try_submit(i as u64, s.clone()) {
                    Ok(()) => break,
                    Err(ServeError::QueueFull { .. }) => thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        let report = server.finish().unwrap();
        // Exactly one batch blew up; its requests are lost, everything
        // else was served after the in-thread restart.
        assert_eq!(report.worker_restarts, 1);
        assert!(
            report.requests >= samples.len() - config.max_batch && report.requests < samples.len(),
            "served {} of {}",
            report.requests,
            samples.len()
        );
        assert_eq!(
            report.telemetry.counter("ffdl.serve.worker_restarts"),
            Some(1)
        );
    }

    #[test]
    fn telemetry_snapshot_is_merged_into_the_report() {
        let net = test_network();
        let samples = test_samples(24);
        let config = ServeConfig {
            workers: 2,
            max_batch: 8,
            ..Default::default()
        };
        // Disabled (the default): the snapshot carries the registered
        // admission metrics at zero and no worker activity.
        let quiet = run_closed_loop(&net, &config, &samples).unwrap();
        assert_eq!(quiet.telemetry.counter("ffdl.serve.rejections"), Some(0));

        ffdl_telemetry::set_enabled(true);
        let server = Server::start(&net, &config).unwrap();
        for (i, s) in samples.iter().enumerate() {
            loop {
                match server.try_submit(i as u64, s.clone()) {
                    Ok(()) => break,
                    Err(ServeError::QueueFull { .. }) => thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        server.swap_model(&test_network_b()).unwrap();
        let report = server.finish().unwrap();
        ffdl_telemetry::set_enabled(false);
        let t = &report.telemetry;
        // Every request passed through exactly one worker batch.
        assert_eq!(t.counter("ffdl.serve.requests"), Some(24));
        let batch_sizes = t.histogram("ffdl.serve.batch_size").unwrap();
        assert_eq!(
            batch_sizes.count(),
            t.counter("ffdl.serve.batches").unwrap()
        );
        assert_eq!(t.histogram("ffdl.serve.queue_wait_ns").unwrap().count(), 24);
        assert!(t.histogram("ffdl.serve.infer_ns").unwrap().count() >= 1);
        assert!(t.counter("ffdl.serve.rejections").is_some());
        assert!(t.gauge("ffdl.serve.queue_depth").is_some());
        // Hot-swap metrics: generation gauge moved to 2, one swap timed,
        // restart counter present at zero.
        assert_eq!(t.gauge("ffdl.serve.model_generation"), Some(2));
        assert_eq!(t.histogram("ffdl.registry.swap_ns").unwrap().count(), 1);
        assert_eq!(t.counter("ffdl.serve.worker_restarts"), Some(0));
        assert!(t.to_text().contains("ffdl.serve.batch_size"));
    }

    /// Identity layer whose forward pass takes ~40 ms — long enough that
    /// queued requests with a ~10 ms deadline reliably expire behind it.
    struct Tortoise;
    impl ffdl_nn::Layer for Tortoise {
        fn type_tag(&self) -> &'static str {
            "test_tortoise"
        }
        fn forward_with(
            &mut self,
            input: &Tensor,
            _: &mut ffdl_nn::Scratch,
            _: bool,
        ) -> Result<Tensor, ffdl_nn::NnError> {
            thread::sleep(Duration::from_millis(40));
            Ok(input.clone())
        }
        fn backward(&mut self, grad: &Tensor) -> Result<Tensor, ffdl_nn::NnError> {
            Ok(grad.clone())
        }
    }
    fn tortoise_from_config(_: &[u8]) -> Result<Box<dyn ffdl_nn::Layer>, ffdl_nn::NnError> {
        Ok(Box::new(Tortoise))
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_as_typed_failures() {
        let mut layers = full_registry();
        layers.register("test_tortoise", tortoise_from_config);
        let mut net = parse_architecture(ARCH, 11).unwrap().network;
        net.push(Tortoise);

        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            deadline: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let server = Server::start_with_registry(&net, &config, layers).unwrap();
        let samples = test_samples(4);
        for (i, s) in samples.iter().enumerate() {
            server.try_submit(i as u64, s.clone()).unwrap();
        }
        let report = server.finish().unwrap();
        // The first request is dequeued almost immediately (before its
        // deadline) and served slowly; the rest wait >= 40 ms in the
        // queue and expire. None disappear silently.
        assert_eq!(report.requests + report.failures.len(), samples.len());
        assert!(report.expired >= 1, "no request expired");
        assert_eq!(report.expired as usize, report.failures.len());
        for failure in &report.failures {
            assert_eq!(failure.kind, FailureKind::DeadlineExceeded);
            assert!(matches!(failure.error(), ServeError::DeadlineExceeded { .. }));
        }
        // Response ids and failure ids partition the submitted ids.
        let mut ids: Vec<u64> = report
            .responses
            .iter()
            .map(|r| r.id)
            .chain(report.failures.iter().map(|f| f.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..samples.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_wait_submit_sheds_at_deadline_when_queue_stays_full() {
        let mut layers = full_registry();
        layers.register("test_tortoise", tortoise_from_config);
        let mut net = parse_architecture(ARCH, 11).unwrap().network;
        net.push(Tortoise);

        let config = ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_depth: 1,
            deadline: Some(Duration::from_millis(15)),
            ..Default::default()
        };
        let server = Server::start_with_registry(&net, &config, layers).unwrap();
        let samples = test_samples(3);
        // First request: admitted, popped quickly, served slowly.
        server.submit(0, samples[0].clone()).unwrap();
        // Second: admitted once the worker pops the first (fills the
        // depth-1 queue); it will expire behind the 40 ms forward pass.
        loop {
            match server.submit(1, samples[1].clone()) {
                Ok(()) => break,
                Err(ServeError::DeadlineExceeded { .. }) => {} // keep trying
                Err(e) => panic!("{e}"),
            }
        }
        // Third: the queue stays full for the worker's whole 40 ms
        // forward pass, so the bounded wait gives up at its deadline.
        let started = Instant::now();
        match server.submit(2, samples[2].clone()) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected shed, got {other:?}"),
        }
        assert!(started.elapsed() >= Duration::from_millis(15));
        let report = server.finish().unwrap();
        assert!(report.shed >= 1, "no shed recorded");
        assert_eq!(
            report.requests + report.failures.len(),
            2,
            "both admitted requests must be accounted"
        );
    }

    /// A layer that replaces its input with NaN — a numerically broken
    /// model whose every batch trips the finiteness check.
    struct NanLayer;
    impl ffdl_nn::Layer for NanLayer {
        fn type_tag(&self) -> &'static str {
            "test_nan_layer"
        }
        fn forward_with(
            &mut self,
            input: &Tensor,
            _: &mut ffdl_nn::Scratch,
            _: bool,
        ) -> Result<Tensor, ffdl_nn::NnError> {
            Ok(Tensor::from_fn(input.shape(), |_| f32::NAN))
        }
        fn backward(&mut self, grad: &Tensor) -> Result<Tensor, ffdl_nn::NnError> {
            Ok(grad.clone())
        }
    }
    fn nan_layer_from_config(_: &[u8]) -> Result<Box<dyn ffdl_nn::Layer>, ffdl_nn::NnError> {
        Ok(Box::new(NanLayer))
    }

    /// The health-supervision acceptance test without a registry: a swap
    /// lands a model that emits NaN logits; after the threshold the pool
    /// quarantines that generation and rolls back to the retained
    /// healthy model, and the tail of the stream is served bit-identical
    /// to the original.
    #[test]
    fn unhealthy_generation_is_quarantined_and_rolled_back() {
        let mut layers = full_registry();
        layers.register("test_nan_layer", nan_layer_from_config);
        let mut bad = parse_architecture(ARCH, 11).unwrap().network;
        bad.push(NanLayer);

        let samples = test_samples(48);
        let expected = offline_predictions(test_network(), &samples);
        let config = ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            health: HealthConfig {
                check_finite: true,
                unhealthy_threshold: 4,
            },
            ..Default::default()
        };
        let server = Server::start_with_registry(&test_network(), &config, layers).unwrap();
        let (phase_a, phase_b) = samples.split_at(16);
        for (i, s) in phase_a.iter().enumerate() {
            loop {
                match server.try_submit(i as u64, s.clone()) {
                    Ok(()) => break,
                    Err(ServeError::QueueFull { .. }) => thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        // Let the healthy model serve at least one response, then land
        // the broken model.
        while server.responses_recorded() == 0 {
            thread::yield_now();
        }
        assert_eq!(server.swap_model(&bad).unwrap(), 2);
        for (i, s) in phase_b.iter().enumerate() {
            let id = (phase_a.len() + i) as u64;
            loop {
                match server.try_submit(id, s.clone()) {
                    Ok(()) => break,
                    Err(ServeError::QueueFull { .. }) => thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        let report = server.finish().unwrap();

        // The broken generation was quarantined and rolled back: the
        // pool ends on generation 3 (the republished healthy model).
        assert_eq!(report.quarantines, 1);
        assert_eq!(report.auto_rollbacks, 1);
        assert_eq!(report.model_generation, 3);
        // Zero lost responses: every id is a response or a typed failure.
        assert_eq!(report.requests + report.failures.len(), samples.len());
        assert!(!report.failures.is_empty(), "gen 2 must have failed batches");
        for failure in &report.failures {
            assert_eq!(failure.kind, FailureKind::UnhealthyModel);
            assert_eq!(failure.generation, 2);
            assert!(matches!(
                failure.error(),
                ServeError::UnhealthyModel { generation: 2, .. }
            ));
        }
        // Responses came only from healthy generations, bit-identical
        // to the offline healthy model.
        for resp in &report.responses {
            assert!(resp.generation == 1 || resp.generation == 3, "generation {}", resp.generation);
            assert_eq!(resp.prediction, expected[resp.id as usize], "id {}", resp.id);
        }
        assert!(
            report.responses.iter().any(|r| r.generation == 3),
            "rollback generation never served"
        );
    }

    #[test]
    fn threshold_without_finite_check_is_invalid_config() {
        let net = test_network();
        let config = ServeConfig {
            health: HealthConfig {
                check_finite: false,
                unhealthy_threshold: 3,
            },
            ..Default::default()
        };
        assert!(matches!(
            Server::start(&net, &config),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn worker_inference_failure_is_surfaced() {
        let net = test_network();
        let server = Server::start(&net, &ServeConfig::default()).unwrap();
        // Wrong input width: the worker's forward pass fails.
        server.try_submit(0, Tensor::zeros(&[3])).unwrap();
        assert!(matches!(server.finish(), Err(ServeError::Inference(_))));
    }
}
