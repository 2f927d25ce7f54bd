//! The supervised worker core shared by the three front ends
//! (`ffdl-serve`, `ffdl-sched`, `ffdl-stream`).
//!
//! The front ends differ only in *dispatch* (FIFO batcher / WDRR over
//! tenant queues / sticky session hash) and *state* (stateless /
//! per-session hidden state). Everything else lives here and in
//! [`crate::queue`], once:
//!
//! * [`ModelSlot`] — the generation-tagged model slot: hot-swap,
//!   numerical-health accounting and quarantine → rollback
//!   ([`HealthAction`]), registry path first, retained `Arc` as the
//!   fallback.
//! * [`Adopted`] — a worker's private engine together with the
//!   generation it was cloned from. The pair is read under one lock, so
//!   a response's generation label can never detach from the weights
//!   that computed it. Between batches an unchanged slot costs one
//!   `Acquire` load.
//! * [`run_supervised`] — `catch_unwind` plus the `ffdl-fault` hooks
//!   around one engine call, classified into a [`Supervised`] outcome.
//! * [`Request`] — what waits in every queue, stamped by the one
//!   [`Request::new`] at admission.
//! * [`Worker`] — a worker thread's private telemetry registry and its
//!   response/failure ledger, and [`Worker::step`]: the one place where a
//!   sealed batch meets the engine and every request of it gets its
//!   response or typed failure. [`WorkerPool`] spawns workers, joins
//!   them and merges what they recorded.

use crate::error::ServeError;
use crate::pool::{FailureKind, ServeFailure, ServeResponse};
use ffdl_deploy::{DeployError, NonFiniteStage, Prediction};
use ffdl_nn::{clone_network, LayerRegistry, Network};
use ffdl_registry::{ModelStore, ModelVersion};
use ffdl_telemetry::{Counter, Histogram, Registry, RegistrySnapshot, SpanTimer};
use ffdl_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Model generations a slot retains for rollback (the active one
/// included).
pub const HISTORY_DEPTH: usize = 8;

/// Saturating nanoseconds of a [`Duration`] for histogram recording.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One retained model generation: enough to attribute failures and to
/// roll back without the registry.
struct GenRecord {
    /// Slot generation number (what responses and failures carry).
    server_gen: u64,
    /// The registry generation this model was loaded from, if any.
    registry_gen: Option<u64>,
    /// The originally-published registry generation these weights
    /// descend from. A rollback republishes old weights under a *new*
    /// registry generation; lineage maps that record back to the
    /// publish (or brownout ladder rung) it carries.
    lineage: Option<u64>,
    /// The weights, shared: retention costs one pointer.
    network: Arc<Network>,
    /// Declared numerically unhealthy; never a rollback target.
    quarantined: bool,
}

/// Everything behind the slot's one mutex. Workers take it only when
/// the generation moved or a batch failed its finiteness scan.
struct SlotState {
    /// Retained generations, ascending; the last entry is active.
    history: Vec<GenRecord>,
    /// The store and model name the slot was last loaded from — the
    /// durable rollback path.
    binding: Option<(ModelStore, String)>,
    /// Generation the current error streak counts against.
    error_gen: u64,
    /// Unhealthy request failures recorded against `error_gen`.
    error_count: u32,
    quarantines: u64,
    auto_rollbacks: u64,
}

/// What reporting unhealthy requests to a [`ModelSlot`] triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Below the threshold, a stale generation, or one already
    /// quarantined: nothing changed.
    None,
    /// The generation was quarantined but no healthy generation is
    /// retained: the slot keeps serving it (every unhealthy batch keeps
    /// failing typed) rather than go dark.
    Quarantined,
    /// The generation was quarantined and the last healthy one was
    /// installed as a new generation.
    RolledBack,
}

/// A generation-tagged, hot-swappable model with health supervision.
///
/// Swaps exchange an `Arc` and bump the generation (O(1), admission
/// never pauses); workers notice the bump between batches through
/// [`Adopted::refresh`].
pub struct ModelSlot {
    /// Mirror of the active record's generation for the workers'
    /// between-batch check. Stored with `Release` under the state lock,
    /// after the record is in place; read with `Acquire`.
    generation: AtomicU64,
    state: Mutex<SlotState>,
    layers: Arc<LayerRegistry>,
    swap_hist: Arc<Histogram>,
}

impl ModelSlot {
    fn with_first(
        network: Network,
        version: Option<u64>,
        binding: Option<(ModelStore, String)>,
        layers: Arc<LayerRegistry>,
        metrics: &Registry,
    ) -> Self {
        let slot = Self {
            generation: AtomicU64::new(0),
            state: Mutex::new(SlotState {
                history: Vec::with_capacity(HISTORY_DEPTH + 1),
                binding,
                error_gen: 1,
                error_count: 0,
                quarantines: 0,
                auto_rollbacks: 0,
            }),
            layers,
            swap_hist: metrics.histogram("ffdl.registry.swap_ns"),
        };
        slot.install(&mut slot.lock(), Arc::new(network), version, version);
        slot
    }

    /// A slot serving a structural clone of `network` as generation 1.
    /// `ffdl.registry.swap_ns` is registered on `metrics`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when the network fails its wire round-trip
    /// — reported here, before any worker exists.
    pub fn new(
        network: &Network,
        layers: Arc<LayerRegistry>,
        metrics: &Registry,
    ) -> Result<Self, ServeError> {
        let first = clone_network(network, &layers)?;
        Ok(Self::with_first(first, None, None, layers, metrics))
    }

    /// A slot serving `registry_generation` (`None` = active) of `name`
    /// in `store` as generation 1, bound to that store for
    /// [`swap_bound`](Self::swap_bound) and durable rollback.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when the load fails.
    pub fn from_store(
        store: &ModelStore,
        name: &str,
        registry_generation: Option<u64>,
        layers: Arc<LayerRegistry>,
        metrics: &Registry,
    ) -> Result<Self, ServeError> {
        let (network, version) = store.load(name, registry_generation, &layers)?;
        let binding = Some((store.clone(), name.to_string()));
        Ok(Self::with_first(network, Some(version.generation), binding, layers, metrics))
    }

    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().expect("model slot poisoned")
    }

    /// Makes `network` the active generation. The caller holds the
    /// state lock, so swaps and rollbacks serialize.
    fn install(
        &self,
        state: &mut SlotState,
        network: Arc<Network>,
        registry_gen: Option<u64>,
        lineage: Option<u64>,
    ) -> u64 {
        let server_gen = state.history.last().map_or(1, |r| r.server_gen + 1);
        state.history.push(GenRecord {
            server_gen,
            registry_gen,
            lineage,
            network,
            quarantined: false,
        });
        if state.history.len() > HISTORY_DEPTH {
            state.history.remove(0);
        }
        self.generation.store(server_gen, Ordering::Release);
        server_gen
    }

    fn record_swap(&self, started: Instant) {
        if ffdl_telemetry::enabled() {
            self.swap_hist.record(duration_ns(started.elapsed()));
        }
    }

    /// The active generation (one `Acquire` load).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The active generation and its weights, read as one pair under
    /// one lock.
    pub fn current(&self) -> (u64, Arc<Network>) {
        let state = self.lock();
        let active = state.history.last().expect("a slot always has an active generation");
        (active.server_gen, Arc::clone(&active.network))
    }

    /// [`current`](Self::current) with the weights structurally cloned
    /// (parameter buffers stay shared; only scratch state is fresh) —
    /// what a worker builds its private engine from. The clone runs
    /// outside the lock.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] when the wire round-trip fails.
    pub fn clone_current(&self) -> Result<(u64, Network), ServeError> {
        let (generation, shared) = self.current();
        Ok((generation, clone_network(&shared, &self.layers)?))
    }

    /// Installs a structural clone of `network` as the next generation
    /// and returns its number. The clone both validates the network —
    /// the slot never holds weights a worker cannot clone — and
    /// isolates the slot from later caller mutation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`]; the slot stays on the current model.
    pub fn swap_model(&self, network: &Network) -> Result<u64, ServeError> {
        let started = Instant::now();
        let network = Arc::new(clone_network(network, &self.layers)?);
        let generation = self.install(&mut self.lock(), network, None, None);
        self.record_swap(started);
        Ok(generation)
    }

    /// Loads `registry_generation` (`None` = active) of `name` from
    /// `store` with full checksum verification, installs it as the next
    /// generation and binds the slot to that store.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`]; the slot and its binding are unchanged.
    pub fn swap_from_store(
        &self,
        store: &ModelStore,
        name: &str,
        registry_generation: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.swap_via((store.clone(), name.to_string()), registry_generation, None)
    }

    /// [`swap_from_store`](Self::swap_from_store) on the store the slot
    /// is already bound to. `lineage` overrides the record's lineage
    /// (default: the loaded generation itself).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on an unbound slot,
    /// [`ServeError::Registry`] when the load fails.
    pub fn swap_bound(
        &self,
        registry_generation: Option<u64>,
        lineage: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.swap_via(self.binding()?, registry_generation, lineage)
    }

    fn swap_via(
        &self,
        binding: (ModelStore, String),
        registry_generation: Option<u64>,
        lineage: Option<u64>,
    ) -> Result<u64, ServeError> {
        let started = Instant::now();
        let (network, version) = binding.0.load(&binding.1, registry_generation, &self.layers)?;
        let loaded = Some(version.generation);
        let mut state = self.lock();
        state.binding = Some(binding);
        let generation = self.install(&mut state, Arc::new(network), loaded, lineage.or(loaded));
        drop(state);
        self.record_swap(started);
        Ok(generation)
    }

    fn binding(&self) -> Result<(ModelStore, String), ServeError> {
        self.lock().binding.clone().ok_or_else(|| {
            ServeError::InvalidConfig("swap_from_store requires a server started from a store".into())
        })
    }

    /// Loads a generation of the bound model without installing it.
    ///
    /// # Errors
    ///
    /// As for [`swap_bound`](Self::swap_bound).
    pub fn load_bound(
        &self,
        registry_generation: Option<u64>,
    ) -> Result<(Network, ModelVersion), ServeError> {
        let (store, name) = self.binding()?;
        Ok(store.load(&name, registry_generation, &self.layers)?)
    }

    /// Counts `failed` non-finite-logits request failures against
    /// `generation`. When `threshold` (0 = never) accumulate while that
    /// generation is still active, it is quarantined and the last
    /// healthy generation is installed in its place: republished
    /// through the bound registry ([`ModelStore::rollback`] — durable,
    /// checksummed, bit-identical to the original publish) when it came
    /// from one, else — or when the store fails — from the retained
    /// `Arc`. The new record keeps the target's lineage.
    pub fn report_unhealthy(&self, generation: u64, failed: u32, threshold: u32) -> HealthAction {
        if threshold == 0 {
            return HealthAction::None;
        }
        let mut state = self.lock();
        if state.error_gen != generation {
            state.error_gen = generation;
            state.error_count = 0;
        }
        state.error_count = state.error_count.saturating_add(failed);
        if state.error_count < threshold {
            return HealthAction::None;
        }
        // Batches in flight across a swap finish on the old model:
        // their failures must not punish the successor, and a second
        // worker tripping the same generation is a no-op.
        let Some(record) = state.history.last_mut().filter(|r| r.server_gen == generation) else {
            return HealthAction::None;
        };
        if record.quarantined {
            return HealthAction::None;
        }
        record.quarantined = true;
        state.quarantines += 1;
        state.error_count = 0;
        let Some(target) = state.history.iter().rfind(|r| !r.quarantined) else {
            return HealthAction::Quarantined;
        };
        let lineage = target.lineage;
        let mut registry_gen = target.registry_gen;
        let mut network = Arc::clone(&target.network);
        if let (Some((store, name)), Some(healthy)) = (&state.binding, registry_gen) {
            let republished = store
                .rollback(name, Some(healthy))
                .and_then(|v| store.load(name, Some(v.generation), &self.layers));
            if let Ok((loaded, version)) = republished {
                registry_gen = Some(version.generation);
                network = Arc::new(loaded);
            }
        }
        self.install(&mut state, network, registry_gen, lineage);
        state.auto_rollbacks += 1;
        HealthAction::RolledBack
    }

    /// `(quarantines, auto_rollbacks)` performed so far.
    pub fn health_counts(&self) -> (u64, u64) {
        let state = self.lock();
        (state.quarantines, state.auto_rollbacks)
    }

    /// Lineage (originally-published registry generation) of a slot
    /// generation, if it is still retained and has one.
    pub fn lineage_of(&self, generation: u64) -> Option<u64> {
        let state = self.lock();
        state.history.iter().find(|r| r.server_gen == generation)?.lineage
    }

    /// Retained history, oldest first: `(generation,
    /// registry_generation, lineage, quarantined)` per record.
    pub fn history(&self) -> Vec<(u64, Option<u64>, Option<u64>, bool)> {
        let state = self.lock();
        state
            .history
            .iter()
            .map(|r| (r.server_gen, r.registry_gen, r.lineage, r.quarantined))
            .collect()
    }
}

/// A worker's private engine and the generation it was cloned from.
pub struct Adopted<E>(Option<(u64, E)>);

impl<E> Adopted<E> {
    /// No engine yet: the first [`refresh`](Self::refresh) builds one.
    pub fn empty() -> Self {
        Self(None)
    }

    /// The engine to run the next batch on and the generation to label
    /// its responses with. When the slot moved (or nothing is held),
    /// `build` wraps a fresh clone of the active weights; batches in
    /// flight finished on the old engine, and the queue is never
    /// drained.
    ///
    /// # Errors
    ///
    /// [`ServeError::Clone`] from [`ModelSlot::clone_current`].
    pub fn refresh(
        &mut self,
        slot: &ModelSlot,
        build: impl FnOnce(Network) -> E,
    ) -> Result<(u64, &mut E), ServeError> {
        let active = slot.generation();
        if !matches!(&self.0, Some((held, _)) if *held == active) {
            let (generation, network) = slot.clone_current()?;
            self.0 = Some((generation, build(network)));
        }
        let (generation, engine) = self.0.as_mut().expect("engine adopted above");
        Ok((*generation, engine))
    }

    /// Drops the engine (a panic may have left it mid-write); the next
    /// [`refresh`](Self::refresh) rebuilds it from the slot.
    pub fn invalidate(&mut self) {
        self.0 = None;
    }
}

/// How one supervised engine call ended.
pub enum Supervised<T> {
    /// The call returned normally.
    Served(T),
    /// The engine's finiteness scan caught NaN/Inf **logits**: the
    /// model, not the request, is bad.
    Unhealthy,
    /// Any other engine error (a shape mismatch, a non-finite *input*).
    Fatal(DeployError),
    /// The call panicked; the engine it ran on must be rebuilt.
    Panicked,
}

/// Runs one engine call under `catch_unwind`, so a panicking forward
/// pass (poisoned weights, a buggy custom layer) cannot take the worker
/// — and with it the pool — down. `site` names the `ffdl-fault` panic
/// injection point; the fault hooks are inert one-branch checks unless
/// a chaos campaign is armed.
pub fn run_supervised<T>(
    site: &str,
    call: impl FnOnce() -> Result<T, DeployError>,
) -> Supervised<T> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(spike) = ffdl_fault::latency_spike() {
            thread::sleep(spike);
        }
        ffdl_fault::maybe_panic(site);
        call()
    }));
    match outcome {
        Ok(Ok(value)) => Supervised::Served(value),
        Ok(Err(DeployError::NonFinite { stage: NonFiniteStage::Logits, .. })) => {
            Supervised::Unhealthy
        }
        Ok(Err(e)) => Supervised::Fatal(e),
        Err(_) => Supervised::Panicked,
    }
}

/// A request waiting in a front end's queue.
pub struct Request {
    /// Caller-assigned request id.
    pub id: u64,
    /// The input row.
    pub features: Tensor,
    /// Admission time; latency is measured from here.
    pub enqueued: Instant,
    /// Absolute deadline, when the front end configured one.
    pub deadline: Option<Instant>,
}

impl Request {
    /// A request admitted now; `deadline` is relative to this instant.
    pub fn new(id: u64, features: Tensor, deadline: Option<Duration>) -> Self {
        let enqueued = Instant::now();
        Self { id, features, enqueued, deadline: deadline.map(|d| enqueued + d) }
    }

    /// Whether the deadline has passed at `now`.
    pub fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// One worker thread's private state: its telemetry registry (merged at
/// join — workers never share a metric cache line) and the ledger of
/// every response and typed failure it recorded (the hot path takes no
/// shared results lock). Every admitted request ends in exactly one of
/// the two; nothing is dropped silently.
pub struct Worker {
    /// Index of this worker in its pool.
    pub index: usize,
    /// The worker's private registry.
    pub telemetry: Registry,
    responses: Vec<ServeResponse>,
    failures: Vec<ServeFailure>,
    restarts: Arc<AtomicU64>,
    /// `<pool>.worker.batch`, the fault-injection site of [`Worker::step`].
    site: String,
    restarts_counter: Arc<Counter>,
    expired_counter: Arc<Counter>,
    unhealthy_counter: Arc<Counter>,
    quarantine_counter: Arc<Counter>,
    rollback_counter: Arc<Counter>,
    batches: Arc<Counter>,
    requests: Arc<Counter>,
    batch_size_hist: Arc<Histogram>,
    queue_wait_hist: Arc<Histogram>,
    infer_hist: Arc<Histogram>,
}

/// What [`Worker::step`] leaves for the front end to act on; every
/// request of the batch is already in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepped {
    /// Every request was answered, stamped at this instant.
    Served(Instant),
    /// The batch failed typed as unhealthy; what reporting it to the
    /// slot triggered.
    Unhealthy(HealthAction),
    /// The batch was lost to a panicking engine call: the engine may be
    /// mid-write and must be [`Adopted::invalidate`]d.
    Panicked,
}

impl Worker {
    /// Records a served request; latency runs from admission to `done`.
    pub fn respond(
        &mut self,
        request: &Request,
        prediction: Prediction,
        done: Instant,
        batch_size: usize,
        generation: u64,
        tenant: Option<&Arc<str>>,
    ) {
        self.responses.push(ServeResponse {
            id: request.id,
            prediction,
            latency_us: done.duration_since(request.enqueued).as_secs_f64() * 1e6,
            worker: self.index,
            batch_size,
            generation,
            tenant: tenant.cloned(),
        });
    }

    /// Records every request of `batch` as a typed failure.
    pub fn fail_all(
        &mut self,
        batch: &[Request],
        kind: FailureKind,
        generation: u64,
        tenant: Option<&Arc<str>>,
    ) {
        self.failures.extend(batch.iter().map(|r| ServeFailure {
            id: r.id,
            kind,
            generation,
            tenant: tenant.cloned(),
        }));
    }

    /// Records a request whose deadline passed in the queue as a typed
    /// [`FailureKind::DeadlineExceeded`] failure (`ffdl.<pool>.expired`)
    /// — never a silent drop.
    pub fn expire(&mut self, request: &Request, generation: u64, tenant: Option<&Arc<str>>) {
        let one = std::slice::from_ref(request);
        self.fail_all(one, FailureKind::DeadlineExceeded, generation, tenant);
        if ffdl_telemetry::enabled() {
            self.expired_counter.inc();
        }
    }

    /// Deadline shedding at dequeue: an expired request already missed
    /// its deadline, so it must never have a response computed for it.
    /// [`expire`](Self::expire)s every request of `batch` that is
    /// expired at `now`, removes it, and returns how many there were.
    pub fn split_expired(
        &mut self,
        batch: &mut Vec<Request>,
        now: Instant,
        generation: u64,
        tenant: Option<&Arc<str>>,
    ) -> usize {
        let before = batch.len();
        batch.retain(|request| {
            let expired = request.expired(now);
            if expired {
                self.expire(request, generation, tenant);
            }
            !expired
        });
        before - batch.len()
    }

    /// Records a batch whose logits failed the finiteness scan: the model
    /// — not the requests — is bad, so every request fails typed
    /// [`FailureKind::UnhealthyModel`] carrying the guilty generation,
    /// and the batch counts against it in `slot` (a rollback is adopted
    /// like any other swap). Bumps `ffdl.<pool>.unhealthy_batches`,
    /// `.quarantines` and `.auto_rollbacks`.
    pub fn unhealthy(
        &mut self,
        batch: &[Request],
        generation: u64,
        tenant: Option<&Arc<str>>,
        slot: &ModelSlot,
        threshold: u32,
    ) -> HealthAction {
        self.fail_all(batch, FailureKind::UnhealthyModel, generation, tenant);
        let action = slot.report_unhealthy(generation, batch.len() as u32, threshold);
        if ffdl_telemetry::enabled() {
            self.unhealthy_counter.inc();
            if action != HealthAction::None {
                self.quarantine_counter.inc();
            }
            if action == HealthAction::RolledBack {
                self.rollback_counter.inc();
            }
        }
        action
    }

    /// The batch step of the stateless pools: runs `call` on the rows of
    /// a sealed, non-empty `batch` under [`run_supervised`] and records a
    /// response or a typed failure for every request — served at one
    /// instant, [`unhealthy`](Self::unhealthy), or
    /// [`panicked`](Self::panicked). Records `ffdl.<pool>.{batches,
    /// requests, batch_size, queue_wait_ns, infer_ns}`.
    ///
    /// # Errors
    ///
    /// Any other engine error (a shape mismatch, a non-finite *input*)
    /// is a caller bug, not a fault to supervise: it fails the worker.
    pub fn step(
        &mut self,
        batch: &[Request],
        call: impl FnOnce(&[&Tensor]) -> Result<Vec<Prediction>, DeployError>,
        generation: u64,
        tenant: Option<&Arc<str>>,
        slot: &ModelSlot,
        threshold: u32,
    ) -> Result<Stepped, ServeError> {
        let telemetry_on = ffdl_telemetry::enabled();
        if telemetry_on {
            let sealed = Instant::now();
            self.batches.inc();
            self.requests.add(batch.len() as u64);
            self.batch_size_hist.record(batch.len() as u64);
            for request in batch {
                self.queue_wait_hist.record(duration_ns(sealed.duration_since(request.enqueued)));
            }
        }
        let rows: Vec<&Tensor> = batch.iter().map(|r| &r.features).collect();
        let span = SpanTimer::start_if(telemetry_on, &self.infer_hist);
        let outcome = run_supervised(&self.site, || call(&rows));
        drop(span);
        Ok(match outcome {
            Supervised::Served(predictions) => {
                let done = Instant::now();
                for (request, prediction) in batch.iter().zip(predictions) {
                    self.respond(request, prediction, done, batch.len(), generation, tenant);
                }
                Stepped::Served(done)
            }
            Supervised::Unhealthy => {
                Stepped::Unhealthy(self.unhealthy(batch, generation, tenant, slot, threshold))
            }
            Supervised::Fatal(e) => return Err(e.into()),
            Supervised::Panicked => {
                self.panicked(batch, generation, tenant);
                Stepped::Panicked
            }
        })
    }

    /// Records a batch lost to a panicking engine call: one restart
    /// (`ffdl.<pool>.worker_restarts`), every request a typed
    /// [`FailureKind::WorkerPanic`] failure.
    pub fn panicked(&mut self, batch: &[Request], generation: u64, tenant: Option<&Arc<str>>) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
        self.restarts_counter.inc();
        self.fail_all(batch, FailureKind::WorkerPanic, generation, tenant);
    }
}

/// Everything a pool's workers recorded, merged at shutdown.
pub struct Joined {
    /// The caller's admission-side snapshot merged with every worker's
    /// private registry.
    pub telemetry: RegistrySnapshot,
    /// Responses of all workers, in no particular order.
    pub responses: Vec<ServeResponse>,
    /// Failures of all workers, in no particular order.
    pub failures: Vec<ServeFailure>,
}

impl Joined {
    /// Requests the workers shed at dequeue because their deadline had
    /// passed.
    pub fn expired(&self) -> u64 {
        let expired = |f: &&ServeFailure| f.kind == FailureKind::DeadlineExceeded;
        self.failures.iter().filter(expired).count() as u64
    }
}

/// Worker-thread lifecycle: spawn with a private [`Worker`], join,
/// merge, first error.
pub struct WorkerPool {
    prefix: &'static str,
    handles: Mutex<Vec<JoinHandle<Result<Worker, ServeError>>>>,
    restarts: Arc<AtomicU64>,
}

impl WorkerPool {
    /// An empty pool whose workers register their ledger-side metrics
    /// under `ffdl.<prefix>.`.
    pub fn new(prefix: &'static str) -> Self {
        Self {
            prefix,
            handles: Mutex::new(Vec::new()),
            restarts: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Spawns worker `index` running `body` until it returns. May be
    /// called while the pool is serving (autoscaling).
    pub fn spawn(
        &self,
        index: usize,
        body: impl FnOnce(&mut Worker) -> Result<(), ServeError> + Send + 'static,
    ) {
        let telemetry = Registry::new();
        let counter = |name: &str| telemetry.counter(&format!("ffdl.{}.{name}", self.prefix));
        let histogram = |name: &str| telemetry.histogram(&format!("ffdl.{}.{name}", self.prefix));
        let mut worker = Worker {
            index,
            site: format!("{}.worker.batch", self.prefix),
            restarts_counter: counter("worker_restarts"),
            expired_counter: counter("expired"),
            unhealthy_counter: counter("unhealthy_batches"),
            quarantine_counter: counter("quarantines"),
            rollback_counter: counter("auto_rollbacks"),
            batches: counter("batches"),
            requests: counter("requests"),
            batch_size_hist: histogram("batch_size"),
            queue_wait_hist: histogram("queue_wait_ns"),
            infer_hist: histogram("infer_ns"),
            telemetry,
            responses: Vec::new(),
            failures: Vec::new(),
            restarts: Arc::clone(&self.restarts),
        };
        let handle = thread::spawn(move || body(&mut worker).map(|()| worker));
        self.handles.lock().expect("worker handles poisoned").push(handle);
    }

    /// Batches lost to a panicking engine call so far (live).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Joins every worker spawned so far and merges what they recorded
    /// into `telemetry` — the only point where state from different
    /// threads meets. The caller has already closed its queues.
    ///
    /// # Errors
    ///
    /// The first worker error; [`ServeError::WorkerPanic`] carrying the
    /// panic payload when a worker died outside [`run_supervised`].
    pub fn join(&self, telemetry: RegistrySnapshot) -> Result<Joined, ServeError> {
        let handles = std::mem::take(&mut *self.handles.lock().expect("worker handles poisoned"));
        let mut joined = Joined { telemetry, responses: Vec::new(), failures: Vec::new() };
        let mut first_error = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(worker)) => {
                    joined.telemetry.merge(&worker.telemetry.snapshot());
                    // The first ledger is moved, not copied: it is the
                    // largest buffer of a run.
                    if joined.responses.is_empty() {
                        joined.responses = worker.responses;
                    } else {
                        joined.responses.extend(worker.responses);
                    }
                    joined.failures.extend(worker.failures);
                }
                Ok(Err(e)) => {
                    first_error.get_or_insert(e);
                }
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".into());
                    first_error.get_or_insert(ServeError::worker_panic(message));
                }
            }
        }
        first_error.map_or(Ok(joined), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_core::full_registry;
    use ffdl_deploy::parse_architecture;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A one-layer network whose every parameter equals `mark`, so a
    /// reader can tell which install a set of weights came from.
    fn marked(mark: f32) -> Network {
        let mut net = parse_architecture("input 4\nfc 2\n", 1).expect("arch").network;
        for layer in net.layers_mut() {
            let params: Vec<Tensor> = layer
                .param_tensors()
                .iter()
                .map(|t| Tensor::from_fn(t.shape(), |_| mark))
                .collect();
            layer.load_params(&params).expect("load params");
        }
        net
    }

    fn mark_of(net: &Network) -> f32 {
        net.layers()[0].param_tensors()[0].as_slice()[0]
    }

    fn slot() -> ModelSlot {
        ModelSlot::new(&marked(1.0), Arc::new(full_registry()), &Registry::new()).expect("slot")
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, ModelStore) {
        let dir = std::env::temp_dir().join(format!("ffdl-slot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::open(&dir).expect("open store");
        (dir, store)
    }

    enum Step {
        /// `swap_model` (generation n installs weights marked n).
        Swap,
        /// `report_unhealthy(generation, failed, threshold)` → expected.
        Report(u64, u32, HealthAction),
    }
    use HealthAction::{None as Nothing, Quarantined, RolledBack};
    use Step::{Report, Swap};

    /// One rule of the health state machine: (name, threshold, steps,
    /// final generation, final (quarantines, auto_rollbacks)).
    type Case = (&'static str, u32, &'static [Step], u64, (u64, u64));

    #[test]
    fn health_accounting_table() {
        let cases: &[Case] = &[
            ("threshold 0 never trips", 0, &[Report(1, 100, Nothing)], 1, (0, 0)),
            ("below the threshold", 4, &[Report(1, 3, Nothing)], 1, (0, 0)),
            (
                "the streak resets when the generation changes",
                4,
                &[
                    Swap,
                    Report(2, 3, Nothing),
                    Swap,
                    Report(3, 3, Nothing), // 6 if the streak had carried over
                    Report(2, 3, Nothing), // and back: counts from zero again
                    Report(3, 3, Nothing),
                    Report(3, 1, RolledBack),
                ],
                4,
                (1, 1),
            ),
            (
                "failures against a replaced generation never trip",
                4,
                &[Swap, Report(1, 100, Nothing)],
                2,
                (0, 0),
            ),
            (
                "no healthy target quarantines in place; a second trip is a no-op",
                4,
                &[Report(1, 4, Quarantined), Report(1, 4, Nothing), Report(1, 100, Nothing)],
                1,
                (1, 0),
            ),
            (
                "rollback installs the last healthy generation as a new one",
                4,
                &[Swap, Report(2, 4, RolledBack), Report(2, 100, Nothing)],
                3,
                (1, 1),
            ),
        ];
        for (name, threshold, steps, generation, counts) in cases {
            let slot = slot();
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Swap => {
                        let next = slot.generation() + 1;
                        assert_eq!(slot.swap_model(&marked(next as f32)).expect("swap"), next);
                    }
                    Report(generation, failed, expect) => assert_eq!(
                        slot.report_unhealthy(*generation, *failed, *threshold),
                        *expect,
                        "{name}: step {i}"
                    ),
                }
            }
            assert_eq!(slot.generation(), *generation, "{name}");
            assert_eq!(slot.current().0, *generation, "{name}");
            assert_eq!(slot.health_counts(), *counts, "{name}");
        }
    }

    #[test]
    fn rollback_serves_the_healthy_weights_again() {
        let slot = slot();
        slot.swap_model(&marked(2.0)).expect("swap");
        assert_eq!(slot.report_unhealthy(2, 1, 1), RolledBack);
        let (generation, weights) = slot.current();
        assert_eq!((generation, mark_of(&weights)), (3, 1.0));
        let quarantined: Vec<u64> = slot.history().iter().filter(|r| r.3).map(|r| r.0).collect();
        assert_eq!(quarantined, [2]);
    }

    #[test]
    fn registry_rollback_is_preferred_and_the_retained_arc_is_the_fallback() {
        let (dir, store) = temp_store("rollback");
        store.publish("m", &marked(1.0), "test").expect("publish 1");
        store.publish("m", &marked(2.0), "test").expect("publish 2");
        let layers = Arc::new(full_registry());
        let slot = ModelSlot::from_store(&store, "m", Some(1), layers, &Registry::new())
            .expect("slot");
        assert_eq!(slot.history(), [(1, Some(1), Some(1), false)]);
        assert_eq!(slot.swap_bound(Some(2), None).expect("swap"), 2);

        // Durable path: the healthy bytes are republished as registry
        // generation 3; the new record keeps the lineage of publish 1.
        assert_eq!(slot.report_unhealthy(2, 1, 1), RolledBack);
        assert_eq!(store.latest("m").expect("latest").generation, 3);
        assert_eq!(slot.history().last(), Some(&(3, Some(3), Some(1), false)));
        assert_eq!(slot.lineage_of(3), Some(1));
        let (_, republished) = slot.current();
        assert_eq!(mark_of(&republished), 1.0);

        // Store gone: the rollback falls back to the retained Arc of
        // the target record — same weights, same registry generation,
        // same lineage.
        assert_eq!(slot.swap_bound(Some(2), Some(7)).expect("swap"), 4);
        assert_eq!(slot.lineage_of(4), Some(7));
        std::fs::remove_dir_all(&dir).expect("remove store");
        assert_eq!(slot.report_unhealthy(4, 1, 1), RolledBack);
        assert_eq!(slot.history().last(), Some(&(5, Some(3), Some(1), false)));
        assert!(Arc::ptr_eq(&slot.current().1, &republished));
        assert_eq!(slot.health_counts(), (2, 2));
    }

    #[test]
    fn unbound_slot_refuses_bound_swaps_and_failed_loads_change_nothing() {
        let slot = slot();
        assert!(matches!(slot.swap_bound(None, None), Err(ServeError::InvalidConfig(_))));
        let (dir, store) = temp_store("missing");
        assert!(matches!(
            slot.swap_from_store(&store, "absent", None),
            Err(ServeError::Registry(_))
        ));
        // The failed load did not bind the slot either.
        assert!(matches!(slot.load_bound(None), Err(ServeError::InvalidConfig(_))));
        assert_eq!(slot.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_is_bounded() {
        let slot = slot();
        for _ in 0..HISTORY_DEPTH + 4 {
            slot.swap_model(&marked(0.0)).expect("swap");
        }
        let history = slot.history();
        assert_eq!(history.len(), HISTORY_DEPTH);
        assert_eq!(history.last().expect("active").0, slot.generation());
        assert_eq!(history[0].0, slot.generation() + 1 - HISTORY_DEPTH as u64);
    }

    /// The invariant behind "bit-identical per tagged generation": a
    /// reader racing an installer only ever obtains (generation,
    /// weights) pairs that were installed together.
    #[test]
    fn generation_and_weights_are_read_as_one_pair() {
        const SWAPS: u64 = 300;
        let slot = slot();
        let start = Barrier::new(3);
        let done = AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for next in 2..=SWAPS {
                    assert_eq!(slot.swap_model(&marked(next as f32)).expect("swap"), next);
                }
                done.store(true, Ordering::Release);
            });
            // One reader on the raw pair, one through a worker's
            // adoption path.
            scope.spawn(|| {
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let (generation, weights) = slot.current();
                    assert_eq!(mark_of(&weights), generation as f32);
                }
            });
            scope.spawn(|| {
                start.wait();
                let mut adopted = Adopted::empty();
                let mut last = 0;
                while !done.load(Ordering::Acquire) {
                    let (generation, net) = adopted.refresh(&slot, |net| net).expect("adopt");
                    assert_eq!(mark_of(net), generation as f32);
                    assert!(generation >= last, "a worker's generation went backwards");
                    last = generation;
                }
            });
        });
        let mut adopted = Adopted::empty();
        assert_eq!(adopted.refresh(&slot, |net| net).expect("adopt").0, SWAPS);
    }

    #[test]
    fn supervised_calls_are_classified() {
        let non_finite = |stage| DeployError::NonFinite { stage, index: 0 };
        assert!(matches!(run_supervised("t", || Ok(7)), Supervised::Served(7)));
        let logits = run_supervised::<()>("t", || Err(non_finite(NonFiniteStage::Logits)));
        assert!(matches!(logits, Supervised::Unhealthy));
        let input = run_supervised::<()>("t", || Err(non_finite(NonFiniteStage::Input)));
        assert!(matches!(input, Supervised::Fatal(DeployError::NonFinite { .. })));
        let panicked = run_supervised::<()>("t", || panic!("poisoned model version"));
        assert!(matches!(panicked, Supervised::Panicked));
    }

    fn request(id: u64, deadline: Option<Instant>) -> Request {
        Request { deadline, ..Request::new(id, Tensor::zeros(&[1]), None) }
    }

    #[test]
    fn ledgers_are_merged_at_join_and_every_request_is_accounted() {
        let pool = WorkerPool::new("unit");
        let now = Instant::now();
        pool.spawn(0, move |worker| {
            let mut batch = vec![
                request(0, None),
                request(1, Some(now)), // already expired
                request(2, Some(now + Duration::from_secs(3600))),
            ];
            assert_eq!(worker.split_expired(&mut batch, Instant::now(), 5, None), 1);
            assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2]);
            let prediction = Prediction { label: 0, probabilities: vec![1.0] };
            worker.respond(&batch[0], prediction, Instant::now(), 2, 5, None);
            worker.panicked(&batch[1..], 5, None);
            Ok(())
        });
        pool.spawn(1, |worker| {
            worker.fail_all(&[request(3, None)], FailureKind::UnhealthyModel, 6, None);
            Ok(())
        });
        let joined = pool.join(Registry::new().snapshot()).expect("join");
        assert_eq!(pool.restarts(), 1);
        assert_eq!(joined.responses.len(), 1);
        assert_eq!((joined.responses[0].worker, joined.responses[0].generation), (0, 5));
        let mut failures: Vec<_> = joined.failures.iter().map(|f| (f.id, f.kind)).collect();
        failures.sort_by_key(|f| f.0);
        assert_eq!(
            failures,
            [
                (1, FailureKind::DeadlineExceeded),
                (2, FailureKind::WorkerPanic),
                (3, FailureKind::UnhealthyModel),
            ]
        );
        assert_eq!(joined.telemetry.counter("ffdl.unit.worker_restarts"), Some(1));
        assert!(joined.telemetry.counter("ffdl.unit.expired").is_some());
    }

    /// The batch step's four outcomes: what lands in the ledger and the
    /// slot, and what the front end gets back to act on.
    #[test]
    fn step_records_every_request_and_returns_what_is_left_to_do() {
        let slot = Arc::new(slot());
        slot.swap_model(&marked(2.0)).expect("swap");
        let pool = WorkerPool::new("unit");
        let non_finite = |stage| DeployError::NonFinite { stage, index: 0 };
        let shared = Arc::clone(&slot);
        pool.spawn(0, move |worker| {
            let batch = [request(0, None), request(1, None)];
            let prediction = || Prediction { label: 0, probabilities: vec![1.0] };
            let answer = |rows: &[&Tensor]| Ok(rows.iter().map(|_| prediction()).collect());
            let served = worker.step(&batch, answer, 2, None, &shared, 1)?;
            assert!(matches!(served, Stepped::Served(_)));
            let nan = |_: &[&Tensor]| Err(non_finite(NonFiniteStage::Logits));
            let unhealthy = worker.step(&batch, nan, 2, None, &shared, 1)?;
            assert_eq!(unhealthy, Stepped::Unhealthy(HealthAction::RolledBack));
            let panicked = worker.step(&batch, |_| panic!("poisoned"), 3, None, &shared, 1)?;
            assert_eq!(panicked, Stepped::Panicked);
            Ok(())
        });
        let joined = pool.join(RegistrySnapshot::default()).expect("join");
        assert_eq!((slot.generation(), slot.health_counts()), (3, (1, 1)));
        assert_eq!(pool.restarts(), 1);
        let responses = joined.responses.iter().map(|r| (r.generation, r.batch_size));
        assert_eq!(responses.collect::<Vec<_>>(), [(2, 2), (2, 2)]);
        let failures: Vec<_> = joined.failures.iter().map(|f| (f.kind, f.generation)).collect();
        let (nan, panic) = (FailureKind::UnhealthyModel, FailureKind::WorkerPanic);
        assert_eq!(failures, [(nan, 2), (nan, 2), (panic, 3), (panic, 3)]);

        // Any other engine error is a caller bug: it fails the worker.
        let shared = Arc::clone(&slot);
        pool.spawn(1, move |worker| {
            let bad_input = |_: &[&Tensor]| Err(non_finite(NonFiniteStage::Input));
            worker.step(&[request(2, None)], bad_input, 3, None, &shared, 1).map(|_| ())
        });
        assert!(matches!(pool.join(RegistrySnapshot::default()), Err(ServeError::Inference(_))));
    }

    #[test]
    fn join_surfaces_worker_errors_and_panic_payloads() {
        let pool = WorkerPool::new("unit");
        pool.spawn(0, |_| Err(ServeError::Closed));
        assert!(matches!(pool.join(RegistrySnapshot::default()), Err(ServeError::Closed)));
        pool.spawn(0, |_| panic!("died outside supervision"));
        match pool.join(RegistrySnapshot::default()) {
            Err(ServeError::WorkerPanic { message, .. }) => {
                assert!(message.contains("died outside supervision"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {:?}", other.map(|_| ())),
        }
    }
}
