//! # ffdl-telemetry — zero-dependency metrics & span tracing
//!
//! The paper's contribution is a *measured* claim: per-platform latency
//! and energy of the FFT kernel against the O(n²) baseline (§V,
//! Fig. 4–6). This crate makes the reproduction observable the same way
//! — always-on counters, gauges, log₂-bucketed histograms and RAII span
//! timers, built only on `std` (the workspace's hermetic-build policy),
//! so every perf PR can prove where time goes without ad-hoc
//! re-instrumentation.
//!
//! ## Model
//!
//! * **Instruments** — [`Counter`] (monotone, `u64`), [`Gauge`]
//!   (last-value, `i64`), [`Histogram`] (fixed-size log₂ buckets,
//!   lock-free `record`), and [`SpanTimer`] (RAII: records elapsed
//!   nanoseconds into a histogram on drop). All record paths are a
//!   handful of `Relaxed` atomic operations — safe to call from any
//!   thread, no locks, no allocation.
//! * **Registries** — a [`Registry`] is a named collection of
//!   instruments (convention: `ffdl.<crate>.<metric>`). Handles are
//!   `Arc`s: register once, record forever. [`Registry::snapshot`]
//!   produces an immutable [`RegistrySnapshot`] with text and JSON
//!   exporters; snapshots [`merge`](RegistrySnapshot::merge), which is
//!   how the serving runtime combines per-worker registries at
//!   `finish()` without sharing hot-path cache lines.
//! * **The enabled flag** — instrumentation in library crates guards on
//!   the process-global [`enabled`] flag (one `Relaxed` bool load, a
//!   predictable branch: the compiled-out fast path). The
//!   `telemetry_overhead` bench pins the disabled cost at ≈0 ns
//!   relative to uninstrumented code (`BENCH_telemetry.json`).
//!
//! Histogram percentiles follow the same linear-interpolation rank
//! convention as [`percentile`] (rank
//! `p/100 · (n−1)` over the sorted multiset), with each recorded value
//! approximated by a uniform spread across its log₂ bucket — so
//! `ffdl.serve.*` latency quantiles read on the same scale as the
//! `BENCH_*.json` history.
//!
//! # Examples
//!
//! ```
//! use ffdl_telemetry::{Registry, SpanTimer};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("ffdl.doc.requests");
//! let latency = registry.histogram("ffdl.doc.latency_ns");
//!
//! for _ in 0..32 {
//!     let _span = SpanTimer::start(latency.clone());
//!     requests.inc();
//! }
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("ffdl.doc.requests"), Some(32));
//! assert!(snap.to_text().contains("ffdl.doc.latency_ns"));
//! assert!(snap.to_json().contains("\"ffdl.doc.requests\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod metric;
mod registry;
mod span;

pub use histogram::{
    bucket_bounds, bucket_index, percentile, Histogram, HistogramSnapshot, BUCKETS,
};
pub use metric::{Counter, Gauge};
pub use registry::{Metric, MetricSnapshot, Registry, RegistrySnapshot};
pub use span::SpanTimer;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Process-global telemetry switch, off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is globally enabled.
///
/// Library instrumentation guards every record on this: one `Relaxed`
/// bool load and a predictable branch, so the disabled path costs ≈0
/// (pinned by the `telemetry_overhead` bench).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global telemetry on or off (e.g. from a `--metrics` CLI flag).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global registry, used by instrumentation in library
/// crates that have no natural place to thread a registry handle
/// through (the FFT plan cache, per-layer forward timing).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Starts a span against a histogram in the [`global`] registry, or a
/// no-op span when telemetry is [`enabled`]`() == false`.
///
/// Convenience for one-off instrumentation sites; hot loops should
/// cache the `Arc<Histogram>` handle instead and use
/// [`SpanTimer::start`] directly.
pub fn span(name: &str) -> SpanTimer {
    if enabled() {
        SpanTimer::start(global().histogram(name))
    } else {
        SpanTimer::disabled()
    }
}

/// Adds `n` to a counter in the [`global`] registry when telemetry is
/// enabled; a no-op otherwise.
pub fn count(name: &str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn global_registry_is_shared() {
        let a = global().counter("ffdl.telemetry.selftest");
        let b = global().counter("ffdl.telemetry.selftest");
        a.inc();
        assert!(b.get() >= 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    // One sequential test for everything touching the global flag, so
    // parallel test threads never observe each other's toggles.
    #[test]
    fn enabled_flag_gates_the_global_helpers() {
        assert!(!enabled());
        drop(span("ffdl.telemetry.span_selftest"));
        count("ffdl.telemetry.count_selftest", 5);
        assert_eq!(
            global()
                .histogram("ffdl.telemetry.span_selftest")
                .snapshot()
                .count(),
            0
        );
        assert_eq!(global().counter("ffdl.telemetry.count_selftest").get(), 0);

        set_enabled(true);
        assert!(enabled());
        drop(span("ffdl.telemetry.span_selftest"));
        count("ffdl.telemetry.count_selftest", 5);
        set_enabled(false);
        assert!(!enabled());

        assert_eq!(
            global()
                .histogram("ffdl.telemetry.span_selftest")
                .snapshot()
                .count(),
            1
        );
        assert_eq!(global().counter("ffdl.telemetry.count_selftest").get(), 5);
    }
}
