//! `ffdl-sched` — multi-tenant scheduling for the serving runtime.
//!
//! Sits between request submission and the worker pool. Named tenants
//! each get:
//!
//! - a **bounded queue** with a dispatch **weight** and a strict
//!   **priority class** — a weighted-deficit-round-robin dispatcher
//!   serves backlogged same-class tenants in exact proportion
//!   to their weights, and higher classes preempt dispatch order;
//! - **admission control** — an optional token-bucket rate budget;
//!   over-budget traffic is rejected with
//!   [`ServeError::TenantOverLimit`](ffdl_serve::ServeError::TenantOverLimit),
//!   and a full queue with a tenant-tagged `QueueFull`;
//! - its own **model slot** bound to a named model in `ffdl-registry` —
//!   one [`ffdl_serve::supervise::ModelSlot`] per tenant, so swap,
//!   quarantine and auto-rollback are tenant-local;
//! - an **autoscaled worker pool** shared across tenants: a controller
//!   grows the pool under backlog and shrinks it after sustained
//!   idleness, between batches, recording every decision.
//!
//! Pair it with the **open-loop driver** ([`run_open_loop`]): seeded
//! Poisson arrivals per tenant, measuring per-tenant SLO attainment
//! against offered load (no coordinated omission).
//!
//! ```no_run
//! use ffdl_registry::ModelStore;
//! use ffdl_sched::{PriorityClass, SchedConfig, Scheduler, TenantSpec};
//! use std::time::Duration;
//!
//! let store = ModelStore::open("/var/ffdl/models")?;
//! let mut prio = TenantSpec::new("interactive", "mnist-cnn");
//! prio.class = PriorityClass::High;
//! let mut bulk = TenantSpec::new("batch", "mnist-cnn");
//! bulk.weight = 1;
//! bulk.rate_limit = Some(500.0);
//! let config = SchedConfig {
//!     min_workers: 1,
//!     max_workers: 4,
//!     deadline: Some(Duration::from_millis(20)),
//!     ..SchedConfig::default()
//! };
//! let sched = Scheduler::start(&store, &[prio, bulk], &config)?;
//! // … submit per-tenant traffic, then:
//! let report = sched.finish()?;
//! println!("{report}");
//! # Ok::<(), ffdl_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod driver;
mod pool;
mod tenant;
mod wdrr;

pub use delay::{delay_from_config, delay_model, delay_registry, DelayLayer};
pub use driver::{run_open_loop, OpenLoopPlan, OpenLoopSummary};
pub use pool::{BrownoutStat, LevelEvent, SchedConfig, SchedReport, ScaleEvent, Scheduler};
pub use tenant::{PriorityClass, TenantSpec};

// Brownout policy types, re-exported so callers configuring
// [`SchedConfig::brownout`] and [`TenantSpec::ladder`] need no direct
// dependency on the policy crate.
pub use ffdl_brownout::{BrownoutConfig, Ladder, LadderRung};
// Circuit-breaker types backing [`SchedConfig::breaker`].
pub use ffdl_registry::{BreakerConfig, BreakerState};
