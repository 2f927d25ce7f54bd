//! Stateful streaming server: sticky sessions over a worker pool.
//!
//! # Lifecycle
//!
//! A caller [`open`](StreamServer::open_session)s a session, submits
//! steps with [`step`](StreamServer::step) (each step is one token
//! through the recurrent network, answered in the final report), and
//! [`close`](StreamServer::close_session)s it. Per-session hidden state
//! lives **inside one worker thread** for the session's whole life:
//!
//! * **Sticky routing** — a session's worker is a pure hash of its id
//!   (`splitmix64_mix(id) % workers`), so every step of a session lands
//!   on the same bounded queue and is processed by the same thread, in
//!   submission order. Hidden state is owned by that thread's local map
//!   and **never crosses a thread boundary** — no lock protects it
//!   because no other thread can reach it.
//! * **Bounded queues** — each worker has its own
//!   [`BoundedQueue`] (the serving stack's one queue, popped with
//!   `max_batch` 1 and no batching window, so every step is taken and
//!   processed alone, in queue order); admission control is per-worker
//!   ([`StreamError::QueueFull`]) plus a per-session in-flight cap
//!   ([`StreamError::SessionBusy`]). FIFO order per queue is what the
//!   session lifecycle leans on: a `Close` control message enqueued
//!   after a session's last step is processed after it, never before.
//! * **TTL eviction** — with [`StreamConfig::idle_ttl`] set, a worker
//!   sweeps its sessions whenever its queue goes idle and drops any
//!   session whose last step is older than the TTL (and has nothing in
//!   flight). Later steps fail typed with
//!   [`StreamError::UnknownSession`].
//!
//! # Faults and quarantine
//!
//! A step runs under the supervised worker core's
//! [`run_supervised`] ([`ffdl_serve::supervise`], DESIGN.md "Supervised
//! worker core"): `catch_unwind` with the `ffdl-fault` injection points
//! of the stateless pools (latency spike, worker panic) plus the
//! engine-level NaN poisoning. A panicking or NaN step **quarantines
//! the session**: its hidden state can no longer be trusted, so every
//! later step is refused typed ([`FailureKind::SessionQuarantined`] for
//! queued steps, [`StreamError::SessionQuarantined`] at submit). Other
//! sessions on the same worker are untouched — their state was not
//! reachable from the faulted step. NaN steps are also recorded through
//! the core's [`Worker::unhealthy`], like an unhealthy batch of the
//! stateless pools: they count against the serving *generation* in the
//! shared [`ModelSlot`], and past
//! [`HealthConfig::unhealthy_threshold`] the generation is quarantined
//! and the pool auto-rolls-back through the registry binding.
//!
//! # Hot-swap policy: reset-on-swap
//!
//! A hidden state is only meaningful against the weights that produced
//! it. When the model generation changes mid-stream (swap or
//! auto-rollback), every session's state is **deterministically reset
//! to zeros at its next step** — the step observes the new generation,
//! replaces its hidden state with [`StreamEngine::fresh_state`], and
//! the session restarts its sequence on the new model. The alternative
//! (draining sessions on the old generation) would hold generations
//! alive for unbounded session lifetimes; reset is O(1), immediate, and
//! exactly replayable: a replay on the new model from the reset point
//! matches the served outputs bit for bit.

use crate::engine::StreamEngine;
use ffdl_core::full_registry;
use ffdl_deploy::{DeployError, Prediction};
use ffdl_nn::{LayerRegistry, Network};
use ffdl_registry::ModelStore;
use ffdl_serve::queue::{BoundedQueue, Popped, PushError, IDLE_WAIT};
use ffdl_serve::supervise::{
    duration_ns, run_supervised, Adopted, ModelSlot, Request, Supervised, Worker, WorkerPool,
};
use ffdl_serve::{FailureKind, HealthConfig, RunCounts, ServeError, ServeReport};
use ffdl_telemetry::{Counter, Gauge, Registry};
use ffdl_tensor::Tensor;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for a streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Worker threads; sessions are hash-stuck to one of them.
    pub workers: usize,
    /// Bounded queue depth **per worker**; steps beyond it are rejected
    /// with [`StreamError::QueueFull`].
    pub queue_depth: usize,
    /// Maximum steps of one session admitted but not yet answered;
    /// beyond it submits fail with [`StreamError::SessionBusy`]. Keeps
    /// one chatty session from monopolising its worker's queue.
    pub session_inflight: u32,
    /// Evict sessions idle longer than this (checked when the owning
    /// worker's queue goes idle). `None` disables eviction.
    pub idle_ttl: Option<Duration>,
    /// Per-step deadline from admission; expired steps are shed at
    /// dequeue as typed [`FailureKind::DeadlineExceeded`] failures.
    pub deadline: Option<Duration>,
    /// Numerical-health policy, shared with `ffdl-serve`: finiteness
    /// checking per step, and generation quarantine + auto-rollback
    /// past the threshold.
    pub health: HealthConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_depth: 256,
            session_inflight: 32,
            idle_ttl: None,
            deadline: None,
            health: HealthConfig::default(),
        }
    }
}

impl StreamConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig("queue_depth must be >= 1".into()));
        }
        if self.session_inflight == 0 {
            return Err(ServeError::InvalidConfig(
                "session_inflight must be >= 1".into(),
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

/// Typed submit-side errors of the session API. Queue-level and model
/// errors stay [`ServeError`]; these name the *session* condition the
/// caller must react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The session was never opened, was closed, or was TTL-evicted.
    UnknownSession(u64),
    /// [`StreamServer::open_session`] on an id that is already open.
    SessionExists(u64),
    /// The session is at its in-flight cap; retry after a response.
    SessionBusy {
        /// The session that is over its cap.
        session: u64,
        /// Steps currently admitted but unanswered.
        inflight: u32,
    },
    /// An earlier fault (panic or NaN step) quarantined this session;
    /// its state is untrusted and further steps are refused.
    SessionQuarantined(u64),
    /// The session's worker queue is at capacity (backpressure).
    QueueFull(u64),
    /// The server is shutting down.
    Closed,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownSession(id) => {
                write!(f, "session {id} is not open (never opened, closed, or evicted)")
            }
            StreamError::SessionExists(id) => write!(f, "session {id} is already open"),
            StreamError::SessionBusy { session, inflight } => write!(
                f,
                "session {session} has {inflight} steps in flight (over its cap)"
            ),
            StreamError::SessionQuarantined(id) => write!(
                f,
                "session {id} was quarantined by an earlier fault; steps are refused"
            ),
            StreamError::QueueFull(id) => write!(
                f,
                "worker queue for session {id} is full (backpressure)"
            ),
            StreamError::Closed => write!(f, "stream server is shut down"),
        }
    }
}

impl Error for StreamError {}

/// Shared per-session record in the admission directory. Submitters
/// bump `inflight`; the owning worker decrements it and flips
/// `quarantined` on faults. Everything else about a session lives in
/// the worker's thread-local state.
struct SessionMeta {
    inflight: AtomicU32,
    quarantined: AtomicBool,
}

/// One step waiting in a worker queue.
struct StepRequest {
    session: u64,
    meta: Arc<SessionMeta>,
    request: Request,
}

/// A unit of work on a worker queue. FIFO order per queue makes the
/// `Close` message a drain barrier: it is processed after every step of
/// the session admitted before the close.
enum Work {
    Step(StepRequest),
    Close { session: u64 },
}

/// State shared by the front end and every worker.
struct Shared {
    model: ModelSlot,
    /// Admission directory of open sessions.
    directory: Mutex<HashMap<u64, Arc<SessionMeta>>>,
    active_gauge: Arc<Gauge>,
    idle_ttl: Option<Duration>,
    check_finite: bool,
    unhealthy_threshold: u32,
    sessions_evicted: AtomicU64,
    sessions_quarantined: AtomicU64,
}

/// Decrements a session's in-flight count when the step leaves the
/// worker, whatever path it leaves by.
struct InflightGuard<'a>(&'a AtomicU32);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Thread-local state of one session on its owning worker.
struct SessionState {
    hidden: crate::engine::SessionHidden,
    /// Generation the hidden state was computed under; a mismatch with
    /// the worker's engine triggers the reset-on-swap policy.
    generation: u64,
    last_step: Instant,
    meta: Arc<SessionMeta>,
}

/// The sticky worker for a session id: a pure hash, stable for the
/// session's life and across runs.
fn sticky_worker(session: u64, workers: usize) -> usize {
    (ffdl_rng::splitmix64_mix(session) % workers as u64) as usize
}

/// A running streaming server. See the module docs for the lifecycle,
/// fault, and hot-swap semantics.
pub struct StreamServer {
    queues: Vec<Arc<BoundedQueue<Work>>>,
    shared: Arc<Shared>,
    pool: WorkerPool,
    workers: usize,
    deadline: Option<Duration>,
    session_inflight: u32,
    rejections: AtomicU64,
    sessions_opened: AtomicU64,
    started: Instant,
    registry: Registry,
    next_step_id: AtomicU64,
}

impl StreamServer {
    /// Starts a pool serving `network`, resolving layer types through
    /// [`ffdl_core::full_registry`]. Rollback targets are retained
    /// in-memory only; use [`start_from_store`](Self::start_from_store)
    /// for the durable registry path.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero count in the config,
    /// [`ServeError::Clone`] when the network fails its wire
    /// round-trip.
    pub fn start(network: &Network, config: &StreamConfig) -> Result<Self, ServeError> {
        Self::start_with_registry(network, config, full_registry())
    }

    /// [`start`](Self::start) with a caller-supplied layer registry, for
    /// models using layers beyond [`full_registry`] (e.g. the pinned
    /// `delay` layer benches serve to make worker-scaling numbers
    /// host-independent).
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start).
    pub fn start_with_registry(
        network: &Network,
        config: &StreamConfig,
        layers: LayerRegistry,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let registry = Registry::new();
        let model = ModelSlot::new(network, Arc::new(layers), &registry)?;
        Ok(Self::run(model, registry, config))
    }

    /// Starts a pool serving the active generation of `name` in
    /// `store`, keeping the binding for
    /// [`swap_from_store`](Self::swap_from_store) and for durable
    /// auto-rollback.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the load fails, plus everything
    /// [`start`](Self::start) reports.
    pub fn start_from_store(
        store: &ModelStore,
        name: &str,
        config: &StreamConfig,
    ) -> Result<Self, ServeError> {
        let registry = Registry::new();
        let layers = Arc::new(full_registry());
        let model = ModelSlot::from_store(store, name, None, layers, &registry)?;
        config.validate()?;
        Ok(Self::run(model, registry, config))
    }

    fn run(model: ModelSlot, registry: Registry, config: &StreamConfig) -> Self {
        let shared = Arc::new(Shared {
            model,
            directory: Mutex::new(HashMap::new()),
            active_gauge: registry.gauge("ffdl.stream.active_sessions"),
            idle_ttl: config.idle_ttl,
            check_finite: config.health.check_finite,
            unhealthy_threshold: config.health.unhealthy_threshold,
            sessions_evicted: AtomicU64::new(0),
            sessions_quarantined: AtomicU64::new(0),
        });
        let queues: Vec<Arc<BoundedQueue<Work>>> = (0..config.workers)
            .map(|_| Arc::new(BoundedQueue::new(config.queue_depth)))
            .collect();
        let pool = WorkerPool::new("stream");
        for (index, queue) in queues.iter().enumerate() {
            let (shared, queue) = (Arc::clone(&shared), Arc::clone(queue));
            pool.spawn(index, move |worker| worker_loop(&shared, &queue, worker));
        }
        Self {
            queues,
            shared,
            pool,
            workers: config.workers,
            deadline: config.deadline,
            session_inflight: config.session_inflight,
            rejections: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            started: Instant::now(),
            registry,
            next_step_id: AtomicU64::new(0),
        }
    }

    /// The worker a session's steps are stuck to — a pure hash of the
    /// id, exposed so tests and benches can assert the stickiness
    /// invariant against [`ffdl_serve::ServeResponse::worker`].
    pub fn worker_of(&self, session: u64) -> usize {
        sticky_worker(session, self.workers)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sessions currently open (directory size: opened, not yet closed
    /// or evicted).
    pub fn active_sessions(&self) -> usize {
        self.shared.directory.lock().expect("stream directory poisoned").len()
    }

    /// The current model generation (starts at 1; every swap or
    /// auto-rollback bumps it).
    pub fn generation(&self) -> u64 {
        self.shared.model.generation()
    }

    /// Steps admitted but not yet answered, over all open sessions.
    /// Zero means every submitted step has its response or failure
    /// recorded — the quiescence check callers use before a swap whose
    /// effect they want attributed to a known step boundary.
    pub fn inflight_steps(&self) -> u64 {
        let dir = self.shared.directory.lock().expect("stream directory poisoned");
        dir.values()
            .map(|m| m.inflight.load(Ordering::Acquire) as u64)
            .sum()
    }

    /// Opens a session. Its id is caller-assigned; its worker is fixed
    /// by [`worker_of`](Self::worker_of) from this moment on.
    ///
    /// # Errors
    ///
    /// [`StreamError::SessionExists`] when the id is already open.
    pub fn open_session(&self, session: u64) -> Result<(), StreamError> {
        let mut dir = self.shared.directory.lock().expect("stream directory poisoned");
        if dir.contains_key(&session) {
            return Err(StreamError::SessionExists(session));
        }
        dir.insert(
            session,
            Arc::new(SessionMeta {
                inflight: AtomicU32::new(0),
                quarantined: AtomicBool::new(false),
            }),
        );
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
        if ffdl_telemetry::enabled() {
            self.shared.active_gauge.set(dir.len() as i64);
        }
        Ok(())
    }

    /// Submits one step of `session`. `id` is the caller-assigned
    /// request id the response or failure will carry in the report;
    /// [`next_step_id`](Self::next_step_id) hands out fresh ones.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] for a session never opened,
    /// closed, or evicted; [`StreamError::SessionQuarantined`] after a
    /// fault hit the session; [`StreamError::SessionBusy`] over the
    /// in-flight cap; [`StreamError::QueueFull`] when the sticky
    /// worker's queue is at depth.
    pub fn step(&self, session: u64, id: u64, features: Tensor) -> Result<(), StreamError> {
        let meta = {
            let dir = self.shared.directory.lock().expect("stream directory poisoned");
            dir.get(&session)
                .cloned()
                .ok_or(StreamError::UnknownSession(session))?
        };
        if meta.quarantined.load(Ordering::Acquire) {
            return Err(StreamError::SessionQuarantined(session));
        }
        let inflight = meta.inflight.fetch_add(1, Ordering::AcqRel);
        if inflight >= self.session_inflight {
            meta.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(StreamError::SessionBusy { session, inflight });
        }
        let request = StepRequest {
            session,
            meta: Arc::clone(&meta),
            request: Request::new(id, features, self.deadline),
        };
        match self.queues[sticky_worker(session, self.workers)].try_push(Work::Step(request)) {
            Ok(()) => Ok(()),
            Err(e) => {
                meta.inflight.fetch_sub(1, Ordering::AcqRel);
                match e {
                    PushError::Full => {
                        self.rejections.fetch_add(1, Ordering::Relaxed);
                        Err(StreamError::QueueFull(session))
                    }
                    PushError::Closed => Err(StreamError::Closed),
                }
            }
        }
    }

    /// A fresh, monotonically-increasing step id.
    pub fn next_step_id(&self) -> u64 {
        self.next_step_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Closes a session: later [`step`](Self::step)s fail typed
    /// immediately, and the owning worker drops the hidden state after
    /// finishing every step admitted before the close (the `Close`
    /// message rides the same FIFO queue).
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownSession`] when the session is not open;
    /// [`StreamError::Closed`] when the server is shutting down.
    pub fn close_session(&self, session: u64) -> Result<(), StreamError> {
        let removed = {
            let mut dir = self.shared.directory.lock().expect("stream directory poisoned");
            let removed = dir.remove(&session);
            if removed.is_some() && ffdl_telemetry::enabled() {
                self.shared.active_gauge.set(dir.len() as i64);
            }
            removed
        };
        if removed.is_none() {
            return Err(StreamError::UnknownSession(session));
        }
        self.queues[sticky_worker(session, self.workers)]
            .push_wait(Work::Close { session }, None)
            .map_err(|_| StreamError::Closed)
    }

    /// Installs `network` as the next generation (O(1) `Arc` swap).
    /// Sessions adopt it via the reset-on-swap policy at their next
    /// step.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when the network fails its wire
    /// round-trip.
    pub fn swap_model(&self, network: &Network) -> Result<u64, ServeError> {
        self.shared.model.swap_model(network)
    }

    /// Loads a generation (`None` = active) from the bound store and
    /// installs it, like [`swap_model`](Self::swap_model).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the server was not started
    /// from a store; [`ServeError::Registry`] when the load fails.
    pub fn swap_from_store(&self, generation: Option<u64>) -> Result<u64, ServeError> {
        self.shared.model.swap_bound(generation, None)
    }

    /// Replays a whole token sequence single-threaded on the **current**
    /// generation, from a fresh zero state — the reference the serving
    /// path is judged against (same [`StreamEngine::step`] code path).
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when cloning the model fails,
    /// [`ServeError::Inference`] when a replay step fails.
    pub fn replay(&self, tokens: &[Tensor]) -> Result<Vec<Prediction>, ServeError> {
        let (_, network) = self.shared.model.clone_current()?;
        let mut engine = StreamEngine::new(network, self.shared.check_finite);
        engine.replay(tokens).map_err(ServeError::Inference)
    }

    /// Shuts the pool down: closes every queue, drains admitted work,
    /// joins the workers, and assembles the report.
    ///
    /// # Errors
    ///
    /// The first worker-fatal error, if any ([`ServeError::Clone`] from
    /// a failed post-swap rebuild, [`ServeError::Inference`] from a
    /// non-recoverable step error, [`ServeError::WorkerPanic`] if a
    /// worker died outside supervision).
    pub fn finish(self) -> Result<StreamReport, ServeError> {
        for queue in &self.queues {
            queue.close();
        }
        let joined = self.pool.join(self.registry.snapshot())?;
        let wall = self.started.elapsed();
        let (quarantines, auto_rollbacks) = self.shared.model.health_counts();
        let counts = RunCounts {
            queue_full_rejections: self.rejections.load(Ordering::Relaxed),
            worker_restarts: self.pool.restarts(),
            shed: 0,
            brownout: 0,
            expired: joined.expired(),
            quarantines,
            auto_rollbacks,
            model_generation: self.shared.model.generation(),
        };
        let serve = ServeReport::from_parts(
            joined.responses,
            joined.failures,
            self.workers,
            wall,
            counts,
            joined.telemetry,
            self.deadline,
        );
        Ok(StreamReport {
            steps: serve.requests as u64,
            serve,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_evicted: self.shared.sessions_evicted.load(Ordering::Relaxed),
            sessions_quarantined: self.shared.sessions_quarantined.load(Ordering::Relaxed),
        })
    }
}

/// One worker: pops its sticky queue, steps its sessions, owns their
/// hidden state for life.
fn worker_loop(
    shared: &Shared,
    queue: &BoundedQueue<Work>,
    worker: &mut Worker,
) -> Result<(), ServeError> {
    let steps_counter = worker.telemetry.counter("ffdl.stream.steps");
    let evicted_counter = worker.telemetry.counter("ffdl.stream.evicted");
    let quarantine_counter = worker.telemetry.counter("ffdl.stream.session_quarantines");
    let step_hist = worker.telemetry.histogram("ffdl.stream.step_ns");
    // A fault inside a step leaves the session's hidden state
    // untrusted: every later step of the session is refused.
    let quarantine_session = |meta: &SessionMeta| {
        meta.quarantined.store(true, Ordering::Release);
        shared.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
        if ffdl_telemetry::enabled() {
            quarantine_counter.inc();
        }
    };
    let mut adopted = Adopted::empty();
    let mut sessions: HashMap<u64, SessionState> = HashMap::new();
    let mut taken = Vec::with_capacity(1);

    loop {
        match queue.pop(&mut taken, 1, Duration::ZERO, IDLE_WAIT) {
            Popped::Closed => return Ok(()),
            Popped::Idle => {
                evict_idle(shared, &mut sessions, &evicted_counter);
                continue;
            }
            Popped::Batch => {}
        }
        let step = match taken.pop().expect("a batch holds at least one item") {
            Work::Close { session } => {
                sessions.remove(&session);
                continue;
            }
            Work::Step(step) => step,
        };
        let _inflight = InflightGuard(&step.meta.inflight);
        let one = std::slice::from_ref(&step.request);

        // Adopt a hot-swap between steps. Sessions reset at their next
        // step (below).
        let (generation, engine) = adopted.refresh(&shared.model, |network| {
            StreamEngine::new(network, shared.check_finite)
        })?;

        if step.request.expired(Instant::now()) {
            worker.expire(&step.request, generation, None);
            continue;
        }
        if step.meta.quarantined.load(Ordering::Acquire) {
            // Step was queued before the quarantining fault resolved.
            let kind = FailureKind::SessionQuarantined { session: step.session };
            worker.fail_all(one, kind, generation, None);
            continue;
        }

        let state = sessions.entry(step.session).or_insert_with(|| SessionState {
            hidden: engine.fresh_state(),
            generation,
            last_step: step.request.enqueued,
            meta: Arc::clone(&step.meta),
        });
        if state.generation != generation {
            // Reset-on-swap: the old hidden state is meaningless
            // against the new weights; restart the sequence.
            state.hidden = engine.fresh_state();
            state.generation = generation;
        }

        let step_started = Instant::now();
        let outcome = run_supervised("stream.worker.step", || {
            engine.step(&mut state.hidden, &step.request.features)
        });
        match outcome {
            Supervised::Served(prediction) => {
                let done = Instant::now();
                state.last_step = done;
                worker.respond(&step.request, prediction, done, 1, generation, None);
                if ffdl_telemetry::enabled() {
                    steps_counter.inc();
                    step_hist.record(duration_ns(done.duration_since(step_started)));
                }
            }
            Supervised::Unhealthy => {
                // The hidden state advanced before the NaN was caught:
                // the session is untrusted from here on, and the step
                // counts against the serving generation.
                quarantine_session(&step.meta);
                worker.unhealthy(one, generation, None, &shared.model, shared.unhealthy_threshold);
            }
            // A non-finite *input* is refused before it touches the
            // state: the step fails typed without indicting the session
            // or the model.
            Supervised::Fatal(DeployError::NonFinite { .. }) => {
                worker.fail_all(one, FailureKind::UnhealthyModel, generation, None);
            }
            // A structural error (shape mismatch, foreign state) is a
            // caller bug, not a fault to supervise: fail the worker
            // typed, like the stateless pools.
            Supervised::Fatal(e) => return Err(ServeError::Inference(e)),
            Supervised::Panicked => {
                // The engine's scratch may be mid-write: rebuild it.
                // The faulted session's state may be too: quarantine.
                worker.panicked(one, generation, None);
                quarantine_session(&step.meta);
                adopted.invalidate();
            }
        }
    }
}

/// Drops sessions idle past the TTL with nothing in flight, removing
/// them from the shared directory so later steps fail typed at submit.
fn evict_idle(
    shared: &Shared,
    sessions: &mut HashMap<u64, SessionState>,
    evicted_counter: &Counter,
) {
    let Some(ttl) = shared.idle_ttl else { return };
    let now = Instant::now();
    let mut dir = shared.directory.lock().expect("stream directory poisoned");
    sessions.retain(|id, state| {
        let idle = now.duration_since(state.last_step) >= ttl;
        if idle && state.meta.inflight.load(Ordering::Acquire) == 0 {
            dir.remove(id);
            shared.sessions_evicted.fetch_add(1, Ordering::Relaxed);
            if ffdl_telemetry::enabled() {
                evicted_counter.inc();
            }
            false
        } else {
            true
        }
    });
    if ffdl_telemetry::enabled() {
        shared.active_gauge.set(dir.len() as i64);
    }
}

/// The streaming run's report: the familiar [`ServeReport`] (per-step
/// latency percentiles, failures by kind, merged telemetry) plus the
/// session ledger.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Per-step statistics, assembled by [`ServeReport::from_parts`] —
    /// `requests` is the number of answered steps; every admitted step
    /// ends in `responses` or `failures`.
    pub serve: ServeReport,
    /// Sessions opened over the run.
    pub sessions_opened: u64,
    /// Sessions dropped by TTL eviction.
    pub sessions_evicted: u64,
    /// Sessions quarantined by faults (panic or NaN step).
    pub sessions_quarantined: u64,
    /// Steps answered (equals `serve.requests`).
    pub steps: u64,
}

impl StreamReport {
    /// The serve table plus a `stream` section.
    pub fn table(&self) -> String {
        use fmt::Write as _;
        let mut out = self.serve.table();
        writeln!(out, "stream stats").expect("string write");
        writeln!(out, "  {:<22} {:>12}", "sessions opened", self.sessions_opened)
            .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "sessions evicted", self.sessions_evicted
        )
        .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "sessions quarantined", self.sessions_quarantined
        )
        .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "steps answered", self.steps).expect("string write");
        out
    }

    /// One flat JSON row: the serve row with the stream fields spliced
    /// in (stays one line, like every committed `BENCH_*.json` row).
    pub fn json_row(&self, label: &str) -> String {
        let base = self.serve.json_row(label);
        let body = base.strip_suffix('}').unwrap_or(&base);
        format!(
            "{body}, \"sessions\": {}, \"sessions_evicted\": {}, \
             \"sessions_quarantined\": {}, \"steps\": {}}}",
            self.sessions_opened, self.sessions_evicted, self.sessions_quarantined, self.steps,
        )
    }
}

impl fmt::Display for StreamReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table())
    }
}

/// Assembles a `BENCH_stream.json`-style document from labelled
/// reports.
pub fn stream_bench_json(rows: &[(String, &StreamReport)]) -> String {
    let mut out = String::new();
    out.push_str(
        "{\n  \"bench\": \"stream\",\n  \"unit\": \"steps_per_sec\",\n  \"results\": [\n",
    );
    for (i, (label, report)) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&report.json_row(label));
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticky_hash_is_stable_and_in_range() {
        for workers in 1..5usize {
            for session in 0..64u64 {
                let w = sticky_worker(session, workers);
                assert!(w < workers);
                assert_eq!(w, sticky_worker(session, workers));
            }
        }
        // With more than one worker the hash actually spreads sessions.
        let spread: std::collections::HashSet<usize> =
            (0..64).map(|s| sticky_worker(s, 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn config_validation() {
        let ok = StreamConfig::default();
        assert!(ok.validate().is_ok());
        assert!(StreamConfig { workers: 0, ..ok.clone() }.validate().is_err());
        assert!(StreamConfig { queue_depth: 0, ..ok.clone() }.validate().is_err());
        assert!(StreamConfig { session_inflight: 0, ..ok.clone() }
            .validate()
            .is_err());
        let bad_health = StreamConfig {
            health: HealthConfig {
                check_finite: false,
                unhealthy_threshold: 2,
            },
            ..ok
        };
        assert!(bad_health.validate().is_err());
    }

    #[test]
    fn stream_error_display() {
        assert!(StreamError::UnknownSession(7).to_string().contains("7"));
        assert!(StreamError::SessionExists(3).to_string().contains("already"));
        assert!(StreamError::SessionBusy { session: 1, inflight: 9 }
            .to_string()
            .contains("9"));
        assert!(StreamError::SessionQuarantined(2)
            .to_string()
            .contains("quarantined"));
        assert!(StreamError::QueueFull(4).to_string().contains("full"));
        assert!(StreamError::Closed.to_string().contains("shut down"));
    }
}
