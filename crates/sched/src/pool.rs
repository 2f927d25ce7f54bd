//! The multi-tenant scheduler: per-tenant model slots, an autoscaling
//! worker pool, and admission control in front of WDRR dispatch.
//!
//! # Topology
//!
//! ```text
//! submit(tenant, id, x)
//!   │  token bucket (rate budget)  → TenantOverLimit
//!   │  bounded per-tenant queue    → QueueFull{tenant}
//!   ▼
//! [q:tenantA] [q:tenantB] [q:tenantC]     per-tenant bounded queues
//!      └────────┬──────────┘
//!         WDRR dispatcher                  priority classes preempt,
//!      ┌────────┼──────────┐               weights divide in-class share
//!      ▼        ▼          ▼
//!   worker₁  worker₂ …  workerₙ            n autoscaled in [min, max]
//!      each: per-tenant engine cache, cloned from that tenant's slot
//! ```
//!
//! Every tenant owns a [`ModelSlot`] of the supervised worker core
//! ([`ffdl_serve::supervise`], DESIGN.md "Supervised worker core"), so
//! swap, quarantine and auto-rollback are tenant-local: a NaN model in
//! tenant A rolls back A's slot and never touches B's engines. A worker
//! loops retire → pop → adopt the tenant's engine → shed what expired →
//! [`Worker::step`], the core's batch step, and acts on what it hands
//! back. What this module adds is what is tenant-specific: admission
//! (token bucket, brownout shed latch), WDRR dispatch, SLO and per-tenant
//! bookkeeping, the autoscaler and the brownout ladder with its circuit
//! breakers (whose offline probe is this file's one `run_supervised`).
//!
//! # Autoscaling
//!
//! A controller thread samples total queue depth between batches. Depth
//! above `scale_up_depth × live_workers` grows the pool (up to
//! `max_workers`); a queue that stays empty for `idle_grace` shrinks it
//! (down to `min_workers`) by lowering the target — each worker checks
//! `live > target` between batches and retires itself, handing its
//! buffers back. Every decision is recorded as a [`ScaleEvent`] and in
//! telemetry (`ffdl.sched.workers`, `ffdl.sched.scale_ups/downs`), so a
//! bench row can prove the pool actually moved.

use crate::tenant::{TenantSpec, TokenBucket};
use crate::wdrr::{Dispatch, Dispatcher, QueuedRequest};
use ffdl_brownout::{BrownoutConfig, Ladder, LevelController, Sample, Step};
use ffdl_core::full_registry;
use ffdl_deploy::InferenceEngine;
use ffdl_nn::LayerRegistry;
use ffdl_registry::{BreakerConfig, BreakerState, CircuitBreaker, ModelStore};
use ffdl_serve::queue::{Popped, PushError, IDLE_WAIT};
use ffdl_serve::supervise::{
    run_supervised, Adopted, HealthAction, ModelSlot, Stepped, Supervised, Worker, WorkerPool,
};
use ffdl_serve::{FailureKind, RunCounts, ServeError, ServeFailure, ServeReport};
use ffdl_telemetry::Registry;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Base WDRR quantum: a tenant's turn is `weight × QUANTUM` requests.
const QUANTUM: u64 = 4;

/// Autoscaler sampling interval.
const SCALE_INTERVAL: Duration = Duration::from_millis(1);

/// Queued requests *per live worker* that trigger a scale-up.
const SCALE_UP_DEPTH: usize = 8;

/// How long the queue must stay empty before a scale-down.
const IDLE_GRACE: Duration = Duration::from_millis(20);

/// Configuration for a scheduler run.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Workers the pool starts with and never shrinks below.
    pub min_workers: usize,
    /// Workers the autoscaler may grow to. `max_workers == min_workers`
    /// pins the pool size.
    pub max_workers: usize,
    /// Largest batch dispatched to one worker (always single-tenant).
    pub max_batch: usize,
    /// Per-request deadline measured from admission — the SLO responses
    /// are judged against, and the shed threshold for requests expiring
    /// in a queue. `None` disables both.
    pub deadline: Option<Duration>,
    /// Enable the per-engine logits finiteness scan.
    pub check_finite: bool,
    /// Unhealthy request failures on one tenant's current generation
    /// that trip that tenant's quarantine + rollback (0 = never).
    pub unhealthy_threshold: u32,
    /// Closed-loop brownout policy (`None` disables it). When set,
    /// every tenant carrying a [`TenantSpec::ladder`] gets a
    /// [`LevelController`] that walks it down pre-published cheaper
    /// generations under sustained queue delay, sheds at enqueue while
    /// the pressure persists, and recovers with hysteresis.
    pub brownout: Option<BrownoutConfig>,
    /// Circuit-breaker policy for ladder rungs: a rung whose generation
    /// trips quarantine/rollback repeatedly is held out of the ladder
    /// (state [`Open`](BreakerState::Open)) until a half-open probe
    /// predicts cleanly. Only consulted when `brownout` is set.
    pub breaker: BreakerConfig,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            min_workers: 1,
            max_workers: 1,
            max_batch: 16,
            deadline: None,
            check_finite: false,
            unhealthy_threshold: 0,
            brownout: None,
            breaker: BreakerConfig::default(),
        }
    }
}

impl SchedConfig {
    fn validate(&self, specs: &[TenantSpec]) -> Result<(), ServeError> {
        if self.min_workers == 0 {
            return Err(ServeError::InvalidConfig("min_workers must be >= 1".into()));
        }
        if self.max_workers < self.min_workers {
            return Err(ServeError::InvalidConfig(
                "max_workers must be >= min_workers".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        if self.unhealthy_threshold > 0 && !self.check_finite {
            return Err(ServeError::InvalidConfig(
                "unhealthy_threshold requires check_finite".into(),
            ));
        }
        if let Some(brownout) = &self.brownout {
            brownout
                .validate()
                .map_err(|e| ServeError::InvalidConfig(e.into()))?;
            self.breaker
                .validate()
                .map_err(|e| ServeError::InvalidConfig(e.into()))?;
        }
        if specs.is_empty() {
            return Err(ServeError::InvalidConfig(
                "at least one tenant is required".into(),
            ));
        }
        for (i, spec) in specs.iter().enumerate() {
            spec.validate()?;
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(ServeError::InvalidConfig(format!(
                    "duplicate tenant name '{}'",
                    spec.name
                )));
            }
        }
        Ok(())
    }
}

/// One pool-size change, timestamped relative to scheduler start.
#[derive(Debug, Clone, Copy)]
pub struct ScaleEvent {
    /// When the controller acted, relative to [`Scheduler`] start.
    pub at: Duration,
    /// `true` for a scale-up, `false` for a scale-down.
    pub up: bool,
    /// Target pool size after the change.
    pub workers: usize,
}

/// One brownout ladder transition, timestamped relative to scheduler
/// start.
#[derive(Debug, Clone, Copy)]
pub struct LevelEvent {
    /// When the swap completed, relative to [`Scheduler`] start.
    pub at: Duration,
    /// Ladder level the tenant moved to (0 = full precision).
    pub level: usize,
}

/// One tenant's brownout story over a finished run.
#[derive(Debug, Clone)]
pub struct BrownoutStat {
    /// Tenant name.
    pub tenant: String,
    /// Every ladder transition, in order. Empty when the tenant never
    /// left full precision.
    pub events: Vec<LevelEvent>,
    /// Deepest ladder level reached.
    pub peak_level: usize,
    /// Ladder level at shutdown (0 = fully recovered).
    pub final_level: usize,
}

/// One tenant: its model slot plus the tenant-specific admission,
/// brownout and circuit-breaker state around it.
struct TenantSlot {
    name: Arc<str>,
    /// The tenant's model, bound to its named model in the registry.
    model: ModelSlot,
    /// Responses served for this tenant (live counter for fairness
    /// observation while the run is in flight).
    served: AtomicU64,
    bucket: Option<Mutex<TokenBucket>>,
    /// Precision ladder for brownout (only when the spec carried one
    /// *and* [`SchedConfig::brownout`] is set).
    ladder: Option<Ladder>,
    /// `true` while the brownout controller wants enqueue-time
    /// shedding for this tenant. Read lock-free on the submit path.
    shed_active: AtomicBool,
    /// Current ladder level (0 = full precision). Mirrors the
    /// controller's state for lock-free observation.
    level: AtomicUsize,
    peak_level: AtomicUsize,
    /// SLO hit/miss counters since the last controller tick (workers
    /// increment after each batch; the controller drains them).
    slo_hits: AtomicU64,
    slo_misses: AtomicU64,
    /// Circuit breaker per ladder rung, keyed by the rung's registry
    /// generation.
    breakers: Mutex<Vec<(u64, CircuitBreaker)>>,
    /// One representative request tensor, captured at first admission,
    /// used by half-open breaker probes.
    probe_sample: Mutex<Option<ffdl_tensor::Tensor>>,
    probe_captured: AtomicBool,
    /// Every ladder transition, timestamped for the report.
    level_events: Mutex<Vec<LevelEvent>>,
}

impl TenantSlot {
    /// Records a quarantine trip against the breaker of the rung the
    /// quarantined generation descends from (no-op for non-rung
    /// generations).
    fn record_breaker_trip(&self, server_gen: u64, now: Instant) {
        let Some(lineage) = self.model.lineage_of(server_gen) else {
            return;
        };
        let mut breakers = self.breakers.lock().expect("breakers poisoned");
        if let Some((_, breaker)) = breakers.iter_mut().find(|(g, _)| *g == lineage) {
            breaker.record_trip(now);
        }
    }
}

/// State shared by workers, the controller and the front end.
struct Core {
    dispatcher: Dispatcher,
    slots: Vec<TenantSlot>,
    max_batch: usize,
    check_finite: bool,
    unhealthy_threshold: u32,
    /// Workers currently running.
    live: AtomicUsize,
    /// Pool size the controller wants; workers retire while
    /// `live > target`.
    target: AtomicUsize,
    peak: AtomicUsize,
    closed: AtomicBool,
    pool: WorkerPool,
    scale_events: Mutex<Vec<ScaleEvent>>,
    scale_ups: AtomicU64,
    scale_downs: AtomicU64,
    started: Instant,
}

fn spawn_worker(core: &Arc<Core>, index: usize) {
    let shared = Arc::clone(core);
    core.pool.spawn(index, move |worker| worker_loop(&shared, worker));
}

fn worker_loop(core: &Core, worker: &mut Worker) -> Result<(), ServeError> {
    // Per-tenant labels: one served counter per tenant name, so a
    // snapshot shows exactly which tenants this worker served.
    let served_counters: Vec<_> = core
        .slots
        .iter()
        .map(|s| worker.telemetry.counter(&format!("ffdl.sched.tenant.{}.served", s.name)))
        .collect();
    // Engine cache: one lazily-adopted engine per tenant.
    let mut engines: Vec<Adopted<InferenceEngine>> =
        core.slots.iter().map(|_| Adopted::empty()).collect();
    let mut dispatch = Dispatch::default();
    'serve: loop {
        // Retirement: while the pool is over target, workers peel off
        // one CAS at a time — the one that wins the decrement exits.
        loop {
            let live = core.live.load(Ordering::Acquire);
            if live <= core.target.load(Ordering::Acquire) {
                break;
            }
            if core
                .live
                .compare_exchange(live, live - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break 'serve;
            }
        }
        match core.dispatcher.pop(&mut dispatch, core.max_batch, IDLE_WAIT) {
            Popped::Closed => break,
            Popped::Idle => continue,
            Popped::Batch => {}
        }
        let tenant = dispatch.tenant;
        let (batch, queue_expired) = (&mut dispatch.batch, &mut dispatch.expired);
        let slot = &core.slots[tenant];
        let name = Some(&slot.name);
        // Per-tenant engine adoption: rebuild only when this tenant's
        // generation moved (or first use on this worker). Other
        // tenants' swaps never invalidate this engine.
        let (generation, engine) = engines[tenant].refresh(&slot.model, |network| {
            let mut engine = InferenceEngine::new(network);
            engine.set_finite_check(core.check_finite);
            engine
        })?;
        // Deadline shedding, typed per tenant, immediately before
        // predict: the dispatcher already drained dead requests from
        // the queue front (without charging the tenant's deficit), and
        // the engine rebuild above can take long enough for more
        // deadlines to lapse. Expired requests are SLO misses by
        // definition: feed the brownout pressure signal.
        let now = Instant::now();
        let expired = worker.split_expired(queue_expired, now, generation, name)
            + worker.split_expired(batch, now, generation, name);
        if expired > 0 {
            slot.slo_misses.fetch_add(expired as u64, Ordering::Relaxed);
        }
        if batch.is_empty() {
            continue;
        }
        let predict = |rows: &[&ffdl_tensor::Tensor]| engine.predict_batch(rows);
        let threshold = core.unhealthy_threshold;
        match worker.step(batch, predict, generation, name, &slot.model, threshold)? {
            Stepped::Served(done) => {
                // SLO accounting for the brownout controller: a
                // response that completed past its deadline is a miss
                // even though it was served.
                let misses = batch.iter().filter(|r| r.expired(done)).count() as u64;
                let hits = batch.iter().filter(|r| r.deadline.is_some()).count() as u64 - misses;
                if hits > 0 {
                    slot.slo_hits.fetch_add(hits, Ordering::Relaxed);
                }
                if misses > 0 {
                    slot.slo_misses.fetch_add(misses, Ordering::Relaxed);
                }
                slot.served.fetch_add(batch.len() as u64, Ordering::Relaxed);
                if ffdl_telemetry::enabled() {
                    served_counters[tenant].add(batch.len() as u64);
                }
            }
            // Quarantine counts against the circuit breaker of the
            // ladder rung the guilty weights descend from.
            Stepped::Unhealthy(HealthAction::None) => {}
            Stepped::Unhealthy(_) => slot.record_breaker_trip(generation, Instant::now()),
            Stepped::Panicked => engines[tenant].invalidate(), // rebuild from the slot next time
        }
    }
    Ok(())
}

/// Mirrors a controller level change into the slot's lock-free state
/// and the report's event log.
fn record_level_event(core: &Core, tenant: usize, level: usize) {
    let slot = &core.slots[tenant];
    slot.level.store(level, Ordering::Relaxed);
    slot.peak_level.fetch_max(level, Ordering::Relaxed);
    slot.level_events
        .lock()
        .expect("level events poisoned")
        .push(LevelEvent {
            at: core.started.elapsed(),
            level,
        });
}

/// Whether a ladder rung may serve: no breaker entry, or breaker
/// closed.
fn rung_allowed(slot: &TenantSlot, ladder: &Ladder, level: usize) -> bool {
    let Some(rung) = ladder.rung(level) else {
        return false;
    };
    let breakers = slot.breakers.lock().expect("breakers poisoned");
    breakers
        .iter()
        .find(|(g, _)| *g == rung.registry_generation)
        .is_none_or(|(_, b)| b.allows_serving())
}

/// One brownout controller tick across every ladder-bearing tenant:
/// sample queue delay + SLO counters, let the policy propose a step,
/// perform the breaker-gated rung swap, and run any due half-open
/// probes.
fn brownout_tick(core: &Core, controllers: &mut [Option<LevelController>]) {
    let now = Instant::now();
    for (tenant, ctl) in controllers.iter_mut().enumerate() {
        let Some(ctl) = ctl.as_mut() else { continue };
        let slot = &core.slots[tenant];
        let Some(ladder) = &slot.ladder else { continue };
        // Re-sync after worker-side quarantine + rollback: the slot can
        // move without the controller's involvement, and the new
        // record's lineage says which rung the tenant landed on.
        let current = slot.model.generation();
        if let Some(actual) = slot.model.lineage_of(current).and_then(|g| ladder.level_of(g)) {
            if actual != ctl.level() {
                ctl.set_level(actual);
                record_level_event(core, tenant, actual);
            }
        }
        let sample = Sample {
            head_sojourn: core.dispatcher.head_sojourn(tenant),
            slo_hits: slot.slo_hits.swap(0, Ordering::Relaxed),
            slo_misses: slot.slo_misses.swap(0, Ordering::Relaxed),
        };
        let step = ctl.observe(&sample);
        slot.shed_active.store(ctl.shedding(), Ordering::Relaxed);
        let target = match step {
            Step::Hold => None,
            // Degrading skips over circuit-broken rungs to the next
            // allowed deeper one.
            Step::Down => {
                (ctl.level() + 1..ladder.len()).find(|&l| rung_allowed(slot, ladder, l))
            }
            // Recovery moves one rung at a time; a broken rung above
            // just means staying put until its breaker closes.
            Step::Up => ctl
                .level()
                .checked_sub(1)
                .filter(|&l| rung_allowed(slot, ladder, l)),
        };
        if let Some(level) = target {
            let rung_gen = ladder.rung(level).expect("level in range").registry_generation;
            if slot.model.swap_bound(Some(rung_gen), Some(rung_gen)).is_ok() {
                ctl.set_level(level);
                record_level_event(core, tenant, level);
            }
        }
        run_breaker_probes(core, tenant, now);
    }
}

/// Runs at most one due half-open probe for the tenant: load the rung's
/// weights straight from the store and predict the captured sample with
/// the finiteness scan on — offline, so a failing probe never costs a
/// live request.
fn run_breaker_probes(core: &Core, tenant: usize, now: Instant) {
    let slot = &core.slots[tenant];
    let due: Option<u64> = {
        let breakers = slot.breakers.lock().expect("breakers poisoned");
        breakers
            .iter()
            .find(|(_, b)| b.probe_ready(now))
            .map(|(g, _)| *g)
    };
    let Some(rung_gen) = due else { return };
    let sample = slot
        .probe_sample
        .lock()
        .expect("probe sample poisoned")
        .clone();
    let Some(sample) = sample else {
        return; // no request shape captured yet: nothing to probe with
    };
    {
        let mut breakers = slot.breakers.lock().expect("breakers poisoned");
        let Some((_, b)) = breakers.iter_mut().find(|(g, _)| *g == rung_gen) else {
            return;
        };
        if !b.begin_probe(now) {
            return;
        }
    }
    let healthy = slot.model.load_bound(Some(rung_gen)).is_ok_and(|(network, _)| {
        let mut engine = InferenceEngine::new(network);
        engine.set_finite_check(true);
        let probe = run_supervised("sched.breaker.probe", || engine.predict_batch(&[&sample]));
        matches!(probe, Supervised::Served(_))
    });
    let mut breakers = slot.breakers.lock().expect("breakers poisoned");
    if let Some((_, b)) = breakers.iter_mut().find(|(g, _)| *g == rung_gen) {
        if healthy {
            b.record_probe_success();
        } else {
            b.record_probe_failure(Instant::now());
        }
    }
}

/// A running multi-tenant scheduler.
///
/// Start with [`Scheduler::start`] (tenants bind named models in a
/// [`ModelStore`]), drive with [`submit`](Scheduler::submit) or the
/// open-loop driver ([`run_open_loop`](crate::run_open_loop)), stop
/// with [`finish`](Scheduler::finish).
pub struct Scheduler {
    core: Arc<Core>,
    controller: Option<JoinHandle<()>>,
    config: SchedConfig,
    registry: Registry,
    submitted_counters: Vec<Arc<ffdl_telemetry::Counter>>,
    rejected_counters: Vec<Arc<ffdl_telemetry::Counter>>,
    /// Admission-side typed failures (shed / over-limit), merged into
    /// the report so every generated request is accounted for.
    admission_failures: Mutex<Vec<ServeFailure>>,
}

impl Scheduler {
    /// Starts the scheduler: loads each tenant's named model from
    /// `store` (active generation, checksum-verified), builds the
    /// per-tenant slots and queues, and spawns `min_workers` workers
    /// plus the autoscale controller. Layer types resolve through
    /// [`ffdl_core::full_registry`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for bad specs/config,
    /// [`ServeError::Registry`] when a tenant's model cannot be loaded,
    /// [`ServeError::Clone`] when a loaded network fails its wire
    /// round-trip.
    pub fn start(
        store: &ModelStore,
        specs: &[TenantSpec],
        config: &SchedConfig,
    ) -> Result<Self, ServeError> {
        Self::start_with_registry(store, specs, config, full_registry())
    }

    /// Like [`start`](Scheduler::start) with a caller-supplied
    /// [`LayerRegistry`] for custom layer types.
    ///
    /// # Errors
    ///
    /// See [`start`](Scheduler::start).
    pub fn start_with_registry(
        store: &ModelStore,
        specs: &[TenantSpec],
        config: &SchedConfig,
        layers: LayerRegistry,
    ) -> Result<Self, ServeError> {
        config.validate(specs)?;
        let layers = Arc::new(layers);
        let registry = Registry::new();
        let mut slots = Vec::with_capacity(specs.len());
        for spec in specs {
            // Brownout tenants start on rung 0 of their ladder (full
            // precision); every deeper rung must already be published —
            // fail fast here rather than mid-degradation.
            let ladder = if config.brownout.is_some() { spec.ladder.clone() } else { None };
            if let Some(ladder) = &ladder {
                for rung in ladder.rungs().iter().skip(1) {
                    store.load(&spec.model, Some(rung.registry_generation), &layers)?;
                }
            }
            let first = ladder
                .as_ref()
                .map(|l| l.rung(0).expect("ladder has >= 2 rungs").registry_generation);
            let model =
                ModelSlot::from_store(store, &spec.model, first, Arc::clone(&layers), &registry)?;
            let breakers = ladder
                .as_ref()
                .map(|l| {
                    l.rungs()
                        .iter()
                        .map(|r| {
                            (r.registry_generation, CircuitBreaker::new(config.breaker.clone()))
                        })
                        .collect()
                })
                .unwrap_or_default();
            slots.push(TenantSlot {
                name: Arc::from(spec.name.as_str()),
                model,
                served: AtomicU64::new(0),
                bucket: spec.rate_limit.map(|r| Mutex::new(TokenBucket::new(r))),
                ladder,
                shed_active: AtomicBool::new(false),
                level: AtomicUsize::new(0),
                peak_level: AtomicUsize::new(0),
                slo_hits: AtomicU64::new(0),
                slo_misses: AtomicU64::new(0),
                breakers: Mutex::new(breakers),
                probe_sample: Mutex::new(None),
                probe_captured: AtomicBool::new(false),
                level_events: Mutex::new(Vec::new()),
            });
        }
        let core = Arc::new(Core {
            dispatcher: Dispatcher::new(specs, QUANTUM),
            slots,
            max_batch: config.max_batch,
            check_finite: config.check_finite,
            unhealthy_threshold: config.unhealthy_threshold,
            live: AtomicUsize::new(config.min_workers),
            target: AtomicUsize::new(config.min_workers),
            peak: AtomicUsize::new(config.min_workers),
            closed: AtomicBool::new(false),
            pool: WorkerPool::new("sched"),
            scale_events: Mutex::new(Vec::new()),
            scale_ups: AtomicU64::new(0),
            scale_downs: AtomicU64::new(0),
            started: Instant::now(),
        });
        for worker in 0..config.min_workers {
            spawn_worker(&core, worker);
        }

        let workers_gauge = registry.gauge("ffdl.sched.workers");
        let scale_up_counter = registry.counter("ffdl.sched.scale_ups");
        let scale_down_counter = registry.counter("ffdl.sched.scale_downs");
        workers_gauge.set(config.min_workers as i64);
        let submitted_counters: Vec<_> = specs
            .iter()
            .map(|s| registry.counter(&format!("ffdl.sched.tenant.{}.submitted", s.name)))
            .collect();
        let rejected_counters: Vec<_> = specs
            .iter()
            .map(|s| registry.counter(&format!("ffdl.sched.tenant.{}.rejected", s.name)))
            .collect();

        // Controller: samples queue depth on a fixed interval, grows
        // the pool under backlog, shrinks it after sustained idleness.
        // The same thread runs the brownout tick (the level controllers
        // are plain thread-local state — no locks on the policy).
        let controller = {
            let core = Arc::clone(&core);
            let (min, max) = (config.min_workers, config.max_workers);
            let brownout = config.brownout.clone();
            let mut controllers: Vec<Option<LevelController>> = specs
                .iter()
                .enumerate()
                .map(|(t, spec)| {
                    brownout.as_ref().and_then(|cfg| {
                        spec.ladder
                            .as_ref()
                            .map(|l| LevelController::new(cfg, l.len(), t as u64))
                    })
                })
                .collect();
            thread::spawn(move || {
                let mut idle_since: Option<Instant> = None;
                let mut next_worker = min;
                let mut last_brownout = Instant::now();
                while !core.closed.load(Ordering::Acquire) {
                    thread::sleep(SCALE_INTERVAL);
                    if let Some(cfg) = &brownout {
                        if last_brownout.elapsed() >= cfg.sample_every {
                            last_brownout = Instant::now();
                            brownout_tick(&core, &mut controllers);
                        }
                    }
                    let depth = core.dispatcher.len();
                    let live = core.live.load(Ordering::Acquire);
                    let target = core.target.load(Ordering::Acquire);
                    if depth > SCALE_UP_DEPTH * live.max(1) && target < max {
                        let new_target = target + 1;
                        core.target.store(new_target, Ordering::Release);
                        core.live.fetch_add(1, Ordering::AcqRel);
                        core.peak.fetch_max(new_target, Ordering::AcqRel);
                        spawn_worker(&core, next_worker);
                        next_worker += 1;
                        core.scale_ups.fetch_add(1, Ordering::Relaxed);
                        core.scale_events
                            .lock()
                            .expect("scale events poisoned")
                            .push(ScaleEvent {
                                at: core.started.elapsed(),
                                up: true,
                                workers: new_target,
                            });
                        if ffdl_telemetry::enabled() {
                            scale_up_counter.inc();
                            workers_gauge.set(new_target as i64);
                        }
                        idle_since = None;
                    } else if depth == 0 && target > min {
                        let now = Instant::now();
                        match idle_since {
                            None => idle_since = Some(now),
                            Some(t0) if now.duration_since(t0) >= IDLE_GRACE => {
                                let new_target = target - 1;
                                core.target.store(new_target, Ordering::Release);
                                core.scale_downs.fetch_add(1, Ordering::Relaxed);
                                core.scale_events
                                    .lock()
                                    .expect("scale events poisoned")
                                    .push(ScaleEvent {
                                        at: core.started.elapsed(),
                                        up: false,
                                        workers: new_target,
                                    });
                                if ffdl_telemetry::enabled() {
                                    scale_down_counter.inc();
                                    workers_gauge.set(new_target as i64);
                                }
                                idle_since = None;
                            }
                            Some(_) => {}
                        }
                    } else {
                        idle_since = None;
                    }
                }
            })
        };

        Ok(Self {
            core,
            controller: Some(controller),
            config: config.clone(),
            registry,
            submitted_counters,
            rejected_counters,
            admission_failures: Mutex::new(Vec::new()),
        })
    }

    fn record_admission_failure(&self, tenant: usize, id: u64, kind: FailureKind) {
        let slot = &self.core.slots[tenant];
        self.admission_failures
            .lock()
            .expect("admission failures poisoned")
            .push(ServeFailure {
                id,
                kind,
                generation: slot.model.generation(),
                tenant: Some(Arc::clone(&slot.name)),
            });
        if ffdl_telemetry::enabled() {
            self.rejected_counters[tenant].inc();
        }
    }

    /// Submits a request on behalf of `tenant` (index into the spec
    /// slice the scheduler was started with). Non-blocking. Every
    /// rejection is **recorded** as a typed failure in the final report
    /// as well as returned — so open-loop accounting never loses a
    /// generated request.
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantOverLimit`] over the tenant's rate budget,
    /// [`ServeError::QueueFull`] (carrying the tenant name) when its
    /// bounded queue is at depth, [`ServeError::Closed`] after
    /// [`finish`](Scheduler::finish) began.
    pub fn submit(
        &self,
        tenant: usize,
        id: u64,
        features: ffdl_tensor::Tensor,
    ) -> Result<(), ServeError> {
        let Some(slot) = self.core.slots.get(tenant) else {
            return Err(ServeError::InvalidConfig(format!(
                "tenant index {tenant} out of range"
            )));
        };
        if let Some(bucket) = &slot.bucket {
            if !bucket.lock().expect("token bucket poisoned").admit(Instant::now()) {
                self.record_admission_failure(tenant, id, FailureKind::OverLimit);
                return Err(ServeError::TenantOverLimit {
                    tenant: slot.name.to_string(),
                });
            }
        }
        // First admission for a ladder tenant donates its feature shape
        // to the half-open breaker probes.
        if slot.ladder.is_some() && !slot.probe_captured.load(Ordering::Relaxed) {
            let mut probe = slot.probe_sample.lock().expect("probe sample poisoned");
            if probe.is_none() {
                *probe = Some(features.clone());
            }
            slot.probe_captured.store(true, Ordering::Relaxed);
        }
        // CoDel-style early shedding: while the brownout controller has
        // the shed latch up, refuse at enqueue instead of letting the
        // request rot in a queue it will never clear. A request whose
        // whole deadline is already consumed by the head-of-queue
        // sojourn is typed as the deadline miss it is about to become;
        // everything else is a typed brownout shed carrying the ladder
        // level.
        if slot.shed_active.load(Ordering::Relaxed) {
            if self.config.deadline.is_some_and(|d| {
                self.core
                    .dispatcher
                    .head_sojourn(tenant)
                    .is_some_and(|sojourn| sojourn >= d)
            }) {
                self.record_admission_failure(tenant, id, FailureKind::DeadlineExceeded);
                return Err(ServeError::DeadlineExceeded {
                    tenant: Some(slot.name.to_string()),
                });
            }
            let level = slot.level.load(Ordering::Relaxed).min(u8::MAX as usize) as u8;
            self.record_admission_failure(tenant, id, FailureKind::Brownout { level });
            return Err(ServeError::Brownout {
                tenant: slot.name.to_string(),
                level,
            });
        }
        let request = QueuedRequest::new(id, features, self.config.deadline);
        match self.core.dispatcher.push(tenant, request) {
            Ok(()) => {
                if ffdl_telemetry::enabled() {
                    self.submitted_counters[tenant].inc();
                }
                Ok(())
            }
            Err(PushError::Full) => {
                self.record_admission_failure(tenant, id, FailureKind::Shed);
                Err(ServeError::QueueFull {
                    tenant: Some(slot.name.to_string()),
                })
            }
            Err(PushError::Closed) => Err(ServeError::Closed),
        }
    }

    /// Publishes the given registry generation (`None` = active) of the
    /// tenant's bound model into that tenant's slot — a per-tenant hot
    /// swap; other tenants' engines are untouched. Returns the tenant's
    /// new slot generation.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] for unknown/corrupt generations,
    /// [`ServeError::Clone`] if the loaded network fails its round-trip.
    pub fn swap_tenant_from_store(
        &self,
        tenant: usize,
        registry_generation: Option<u64>,
    ) -> Result<u64, ServeError> {
        self.core.slots[tenant].model.swap_bound(registry_generation, None)
    }

    /// One tenant's current brownout ladder level (0 = full precision;
    /// always 0 when brownout is disabled or the tenant has no ladder).
    pub fn tenant_level(&self, tenant: usize) -> usize {
        self.core.slots[tenant].level.load(Ordering::Relaxed)
    }

    /// Whether the brownout controller is currently shedding this
    /// tenant's arrivals at enqueue.
    pub fn tenant_shedding(&self, tenant: usize) -> bool {
        self.core.slots[tenant].shed_active.load(Ordering::Relaxed)
    }

    /// Circuit-breaker state of one ladder rung (by the rung's registry
    /// generation), or `None` when the tenant has no breaker for it.
    pub fn tenant_breaker_state(
        &self,
        tenant: usize,
        rung_generation: u64,
    ) -> Option<BreakerState> {
        let breakers = self.core.slots[tenant]
            .breakers
            .lock()
            .expect("breakers poisoned");
        breakers
            .iter()
            .find(|(g, _)| *g == rung_generation)
            .map(|(_, b)| b.state())
    }

    /// Retained generation history for one tenant:
    /// `(server_generation, registry_generation, lineage)` per record,
    /// oldest first. Lineage maps rollback-republished generations back
    /// to the originally-published generation (ladder rung) they carry.
    pub fn tenant_history(&self, tenant: usize) -> Vec<(u64, Option<u64>, Option<u64>)> {
        let history = self.core.slots[tenant].model.history();
        history.iter().map(|r| (r.0, r.1, r.2)).collect()
    }

    /// Responses served for one tenant so far (live, lock-free).
    pub fn served_by_tenant(&self, tenant: usize) -> u64 {
        self.core.slots[tenant].served.load(Ordering::Relaxed)
    }

    /// Requests currently queued for one tenant.
    pub fn tenant_queue_len(&self, tenant: usize) -> usize {
        self.core.dispatcher.tenant_len(tenant)
    }

    /// Total requests queued across all tenants.
    pub fn queue_len(&self) -> usize {
        self.core.dispatcher.len()
    }

    /// Workers currently running.
    pub fn workers_live(&self) -> usize {
        self.core.live.load(Ordering::Acquire)
    }

    /// One tenant's current slot generation.
    pub fn tenant_generation(&self, tenant: usize) -> u64 {
        self.core.slots[tenant].model.generation()
    }

    /// Slot generations quarantined for one tenant so far.
    pub fn tenant_quarantined_generations(&self, tenant: usize) -> Vec<u64> {
        let history = self.core.slots[tenant].model.history();
        history.iter().filter(|r| r.3).map(|r| r.0).collect()
    }

    /// Auto-rollbacks performed for one tenant so far.
    pub fn tenant_auto_rollbacks(&self, tenant: usize) -> u64 {
        self.core.slots[tenant].model.health_counts().1
    }

    /// Closes admission, drains every tenant queue, joins the pool and
    /// the controller, and returns the run's report.
    ///
    /// # Errors
    ///
    /// Surfaces the first worker failure (engine clone or non-health
    /// inference error).
    pub fn finish(mut self) -> Result<SchedReport, ServeError> {
        // Stop the controller first so the pool size is stable during
        // the drain, then close the queues: workers drain and exit.
        self.core.closed.store(true, Ordering::Release);
        if let Some(controller) = self.controller.take() {
            let _ = controller.join();
        }
        self.core.dispatcher.close();
        let mut joined = self.core.pool.join(self.registry.snapshot())?;
        let wall = self.core.started.elapsed();
        let mut failures = std::mem::take(
            &mut *self.admission_failures.lock().expect("admission failures poisoned"),
        );
        failures.append(&mut joined.failures);
        let queue_full = failures
            .iter()
            .filter(|f| f.kind == FailureKind::Shed)
            .count() as u64;
        let over_limit = failures
            .iter()
            .filter(|f| f.kind == FailureKind::OverLimit)
            .count() as u64;
        let expired = failures
            .iter()
            .filter(|f| f.kind == FailureKind::DeadlineExceeded)
            .count() as u64;
        let brownout = failures
            .iter()
            .filter(|f| matches!(f.kind, FailureKind::Brownout { .. }))
            .count() as u64;
        let (quarantines, auto_rollbacks) = self.core.slots.iter().fold((0, 0), |acc, s| {
            let (quarantines, auto_rollbacks) = s.model.health_counts();
            (acc.0 + quarantines, acc.1 + auto_rollbacks)
        });
        let counts = RunCounts {
            queue_full_rejections: queue_full,
            worker_restarts: self.core.pool.restarts(),
            shed: queue_full + over_limit,
            expired,
            brownout,
            quarantines,
            auto_rollbacks,
            model_generation: self
                .core
                .slots
                .iter()
                .map(|s| s.model.generation())
                .max()
                .unwrap_or(1),
        };
        let peak = self.core.peak.load(Ordering::Acquire);
        let serve = ServeReport::from_parts(
            joined.responses,
            failures,
            peak,
            wall,
            counts,
            joined.telemetry,
            self.config.deadline,
        );
        let brownout = self
            .core
            .slots
            .iter()
            .filter(|s| s.ladder.is_some())
            .map(|s| BrownoutStat {
                tenant: s.name.to_string(),
                events: std::mem::take(
                    &mut *s.level_events.lock().expect("level events poisoned"),
                ),
                peak_level: s.peak_level.load(Ordering::Relaxed),
                final_level: s.level.load(Ordering::Relaxed),
            })
            .collect();
        Ok(SchedReport {
            serve,
            tenants: self.core.slots.iter().map(|s| s.name.to_string()).collect(),
            min_workers: self.config.min_workers,
            peak_workers: peak,
            scale_ups: self.core.scale_ups.load(Ordering::Relaxed),
            scale_downs: self.core.scale_downs.load(Ordering::Relaxed),
            scale_events: std::mem::take(
                &mut *self.core.scale_events.lock().expect("scale events poisoned"),
            ),
            brownout,
        })
    }
}

/// A finished scheduler run: the familiar [`ServeReport`] (with its
/// per-tenant breakdown) plus the scheduler-level scaling story.
#[derive(Debug)]
pub struct SchedReport {
    /// Aggregate + per-tenant serving statistics.
    pub serve: ServeReport,
    /// Tenant names, in spec order.
    pub tenants: Vec<String>,
    /// Pool size the run started with.
    pub min_workers: usize,
    /// Largest pool size the autoscaler reached.
    pub peak_workers: usize,
    /// Scale-up decisions taken.
    pub scale_ups: u64,
    /// Scale-down decisions taken.
    pub scale_downs: u64,
    /// Every pool-size change, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Per-tenant brownout story (one entry per ladder-bearing tenant;
    /// empty when brownout was disabled).
    pub brownout: Vec<BrownoutStat>,
}

impl std::fmt::Display for SchedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.serve.table())?;
        writeln!(
            f,
            "sched: {} tenants, workers {} -> {} peak ({} scale-ups, {} scale-downs)",
            self.tenants.len(),
            self.min_workers,
            self.peak_workers,
            self.scale_ups,
            self.scale_downs
        )?;
        for stat in &self.brownout {
            writeln!(
                f,
                "brownout: {} peak level {}, {} transitions, final level {}",
                stat.tenant,
                stat.peak_level,
                stat.events.len(),
                stat.final_level
            )?;
        }
        Ok(())
    }
}
