//! Serving statistics: throughput and latency percentiles.
//!
//! Latency is measured per request from admission (`try_submit`) to the
//! moment its prediction is recorded by a worker, so the numbers include
//! queueing delay and the batching window — the figures a capacity
//! planner actually needs, not just kernel time. Percentiles come from
//! the same function as the bench harness's
//! ([`ffdl_telemetry::percentile`]), so `BENCH_serve.json` is directly
//! comparable with the other `BENCH_*.json` files.

use crate::pool::{FailureKind, ServeFailure, ServeResponse};
use ffdl_telemetry::{percentile, RegistrySnapshot};
use std::fmt::Write as _;
use std::time::Duration;

/// The run's scalar counters, bundled for [`ServeReport::from_parts`].
/// Public so front ends outside this crate (the `ffdl-sched` scheduler)
/// can assemble reports from their own pools.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounts {
    /// Submits rejected with `QueueFull` (closed-loop clients retry).
    pub queue_full_rejections: u64,
    /// Workers that recovered from a panicking batch.
    pub worker_restarts: u64,
    /// Requests shed at admission (bounded-wait submit gave up).
    pub shed: u64,
    /// Requests shed at enqueue by the brownout controller.
    pub brownout: u64,
    /// Admitted requests that expired in the queue.
    pub expired: u64,
    /// Model generations quarantined by the health supervisor.
    pub quarantines: u64,
    /// Automatic rollbacks to a healthy generation.
    pub auto_rollbacks: u64,
    /// Model generation active at shutdown.
    pub model_generation: u64,
}

/// Per-tenant breakdown of one serving run: the row a multi-tenant
/// operator debugs from. Present in [`ServeReport::tenants`] whenever at
/// least one response or failure carried a tenant label.
#[derive(Debug, Clone)]
pub struct TenantStat {
    /// Tenant name.
    pub tenant: String,
    /// Requests served (responses recorded).
    pub requests: usize,
    /// Median latency for this tenant's responses, µs.
    pub p50_us: f64,
    /// 99th-percentile latency for this tenant's responses, µs.
    pub p99_us: f64,
    /// Requests rejected at admission for this tenant
    /// ([`FailureKind::Shed`] + [`FailureKind::OverLimit`] failures).
    pub shed: u64,
    /// This tenant's requests that expired in the queue
    /// ([`FailureKind::DeadlineExceeded`]).
    pub expired: u64,
    /// Requests shed at enqueue by the brownout controller
    /// ([`FailureKind::Brownout`]).
    pub brownout: u64,
    /// Deepest degradation-ladder level observed in this tenant's
    /// brownout sheds (0 = the tenant never shed, or shed while still at
    /// full precision).
    pub peak_level: u8,
    /// All failed requests for this tenant (any [`FailureKind`]).
    pub failed: u64,
    /// Responses that met the SLO (latency within the configured
    /// deadline). Equal to `requests` when no SLO was configured.
    pub within_slo: usize,
    /// SLO attainment: `within_slo / (requests + failed)` — the fraction
    /// of every request this tenant *generated* that was answered in
    /// time. Failures count against attainment: a shed or expired
    /// request is a missed SLO, not a non-event. `1.0` for a tenant with
    /// no traffic.
    pub slo_attainment: f64,
}

impl TenantStat {
    /// One flat JSON row for `BENCH_sched.json`-style documents;
    /// `label` names the run configuration (e.g. `"overload/prio"`).
    pub fn json_row(&self, label: &str) -> String {
        // The brownout columns are emitted only when brownout actually
        // happened, so rows from brownout-free runs stay byte-identical
        // to the historical format.
        let brownout = if self.brownout > 0 || self.peak_level > 0 {
            format!(
                ", \"brownout\": {}, \"peak_level\": {}",
                self.brownout, self.peak_level
            )
        } else {
            String::new()
        };
        format!(
            "{{\"label\": \"{}\", \"tenant\": \"{}\", \"requests\": {}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"shed\": {}, \
             \"expired\": {}, \"failed\": {}, \"within_slo\": {}, \
             \"slo_attainment\": {:.4}{}}}",
            label.replace('\\', "\\\\").replace('"', "\\\""),
            self.tenant.replace('\\', "\\\\").replace('"', "\\\""),
            self.requests,
            self.p50_us,
            self.p99_us,
            self.shed,
            self.expired,
            self.failed,
            self.within_slo,
            self.slo_attainment,
            brownout,
        )
    }
}

/// Groups responses/failures by tenant label and computes one
/// [`TenantStat`] per label, sorted by tenant name. Empty when the run
/// was single-tenant (no label anywhere).
fn tenant_stats(
    responses: &[ServeResponse],
    failures: &[ServeFailure],
    slo_us: Option<f64>,
) -> Vec<TenantStat> {
    let mut names: Vec<&str> = responses
        .iter()
        .filter_map(|r| r.tenant.as_deref())
        .chain(failures.iter().filter_map(|f| f.tenant.as_deref()))
        .collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let mut lat: Vec<f64> = responses
                .iter()
                .filter(|r| r.tenant.as_deref() == Some(name))
                .map(|r| r.latency_us)
                .collect();
            lat.sort_by(|a, b| a.total_cmp(b));
            let requests = lat.len();
            let (p50, p99) = if lat.is_empty() {
                (0.0, 0.0)
            } else {
                (percentile(&lat, 50.0), percentile(&lat, 99.0))
            };
            let mut shed = 0u64;
            let mut expired = 0u64;
            let mut failed = 0u64;
            let mut brownout = 0u64;
            let mut peak_level = 0u8;
            for f in failures.iter().filter(|f| f.tenant.as_deref() == Some(name)) {
                failed += 1;
                match f.kind {
                    FailureKind::Shed | FailureKind::OverLimit => shed += 1,
                    FailureKind::DeadlineExceeded => expired += 1,
                    FailureKind::Brownout { level } => {
                        brownout += 1;
                        peak_level = peak_level.max(level);
                    }
                    _ => {}
                }
            }
            let within_slo = match slo_us {
                Some(slo) => lat.iter().filter(|&&l| l <= slo).count(),
                None => requests,
            };
            let generated = requests as u64 + failed;
            let slo_attainment = if generated == 0 {
                1.0
            } else {
                within_slo as f64 / generated as f64
            };
            TenantStat {
                tenant: name.to_string(),
                requests,
                p50_us: p50,
                p99_us: p99,
                shed,
                expired,
                brownout,
                peak_level,
                failed,
                within_slo,
                slo_attainment,
            }
        })
        .collect()
}

/// Aggregated statistics for one serving run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests completed.
    pub requests: usize,
    /// Worker threads that served them.
    pub workers: usize,
    /// Wall-clock duration of the run, in seconds.
    pub wall_s: f64,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Median request latency (admission → prediction), µs.
    pub p50_us: f64,
    /// 95th-percentile request latency, µs.
    pub p95_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Mean request latency, µs.
    pub mean_us: f64,
    /// Worst observed request latency, µs.
    pub max_us: f64,
    /// Mean executed batch size (1.0 = no coalescing happened).
    pub mean_batch: f64,
    /// Largest executed batch.
    pub max_batch: usize,
    /// Times a submit was rejected with `QueueFull` before succeeding
    /// (closed-loop clients retry; open-loop clients would shed load).
    pub queue_full_rejections: u64,
    /// Times a worker recovered from a panicking batch (supervision:
    /// the worker rebuilt its engine and kept serving).
    pub worker_restarts: u64,
    /// Requests shed at admission: the bounded-wait `submit` path gave
    /// up at the request's deadline while the queue stayed full.
    pub shed: u64,
    /// Requests shed at enqueue by the brownout controller as typed
    /// [`FailureKind::Brownout`](crate::FailureKind) failures (always 0
    /// without a brownout-enabled front end).
    pub brownout: u64,
    /// Admitted requests that expired in the queue and were dropped at
    /// dequeue as typed [`FailureKind::DeadlineExceeded`](crate::FailureKind)
    /// failures.
    pub expired: u64,
    /// Model generations quarantined by the health supervisor.
    pub quarantines: u64,
    /// Automatic rollbacks to a healthy generation.
    pub auto_rollbacks: u64,
    /// The model generation active when the server shut down (1 if no
    /// hot-swap happened during the run).
    pub model_generation: u64,
    /// Responses sorted by request id — deterministic regardless of
    /// worker count or completion order.
    pub responses: Vec<ServeResponse>,
    /// Failed requests sorted by id, each with its typed reason. Every
    /// admitted request appears in `responses` or here.
    pub failures: Vec<ServeFailure>,
    /// Merged telemetry from the server's admission registry and every
    /// worker's per-thread registry (`ffdl.serve.*`). All counts are
    /// zero unless `ffdl_telemetry::enabled()` was on during the run.
    pub telemetry: RegistrySnapshot,
    /// The SLO (deadline) the run was measured against, µs. `None` when
    /// no deadline was configured — [`TenantStat::slo_attainment`] then
    /// degrades to a completion rate.
    pub slo_us: Option<f64>,
    /// Per-tenant breakdown, sorted by tenant name. Empty for a
    /// single-tenant run (no response or failure carried a label).
    pub tenants: Vec<TenantStat>,
}

impl ServeReport {
    /// Builds a report from worker responses and the run's wall time.
    /// Public so front ends outside this crate (the `ffdl-sched`
    /// scheduler) can assemble the same report from their own pools.
    ///
    /// Responses are re-sorted by request id so the report (and any
    /// output derived from it) is independent of completion order.
    /// `slo` is the deadline latencies are judged against for
    /// [`TenantStat::slo_attainment`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        mut responses: Vec<ServeResponse>,
        mut failures: Vec<ServeFailure>,
        workers: usize,
        wall: Duration,
        counts: RunCounts,
        telemetry: RegistrySnapshot,
        slo: Option<Duration>,
    ) -> Self {
        responses.sort_by_key(|r| r.id);
        failures.sort_by_key(|f| f.id);
        let n = responses.len();
        let wall_s = wall.as_secs_f64();
        let mut lat: Vec<f64> = responses.iter().map(|r| r.latency_us).collect();
        lat.sort_by(|a, b| a.total_cmp(b));
        let (p50, p95, p99, mean, max) = if lat.is_empty() {
            (0.0, 0.0, 0.0, 0.0, 0.0)
        } else {
            (
                percentile(&lat, 50.0),
                percentile(&lat, 95.0),
                percentile(&lat, 99.0),
                lat.iter().sum::<f64>() / n as f64,
                lat[n - 1],
            )
        };
        let mean_batch = if n == 0 {
            0.0
        } else {
            responses.iter().map(|r| r.batch_size as f64).sum::<f64>() / n as f64
        };
        let max_batch = responses.iter().map(|r| r.batch_size).max().unwrap_or(0);
        let slo_us = slo.map(|d| d.as_secs_f64() * 1e6);
        let tenants = tenant_stats(&responses, &failures, slo_us);
        Self {
            requests: n,
            workers,
            wall_s,
            throughput_rps: if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 },
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            mean_us: mean,
            max_us: max,
            mean_batch,
            max_batch,
            queue_full_rejections: counts.queue_full_rejections,
            worker_restarts: counts.worker_restarts,
            shed: counts.shed,
            brownout: counts.brownout,
            expired: counts.expired,
            quarantines: counts.quarantines,
            auto_rollbacks: counts.auto_rollbacks,
            model_generation: counts.model_generation,
            responses,
            failures,
            telemetry,
            slo_us,
            tenants,
        }
    }

    /// Renders the human-readable stats table printed by `serve-bench`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(out, "serve stats").expect("string write");
        writeln!(out, "  {:<22} {:>12}", "requests", self.requests).expect("string write");
        writeln!(out, "  {:<22} {:>12}", "workers", self.workers).expect("string write");
        writeln!(out, "  {:<22} {:>12.3}", "wall time (s)", self.wall_s).expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12.1}",
            "throughput (req/s)", self.throughput_rps
        )
        .expect("string write");
        writeln!(out, "  {:<22} {:>12.1}", "latency p50 (µs)", self.p50_us)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12.1}", "latency p95 (µs)", self.p95_us)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12.1}", "latency p99 (µs)", self.p99_us)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12.1}", "latency mean (µs)", self.mean_us)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12.2}", "mean batch", self.mean_batch)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "max batch", self.max_batch).expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "queue-full rejections", self.queue_full_rejections
        )
        .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "worker restarts", self.worker_restarts
        )
        .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "shed (admission)", self.shed)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "brownout (enqueue)", self.brownout)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "expired (dequeue)", self.expired)
            .expect("string write");
        writeln!(out, "  {:<22} {:>12}", "quarantines", self.quarantines)
            .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "auto-rollbacks", self.auto_rollbacks
        )
        .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "failed requests", self.failures.len()
        )
        .expect("string write");
        writeln!(
            out,
            "  {:<22} {:>12}",
            "model generation", self.model_generation
        )
        .expect("string write");
        if !self.tenants.is_empty() {
            writeln!(
                out,
                "  per-tenant   {:>9} {:>10} {:>10} {:>6} {:>8} {:>8} {:>4} {:>6}",
                "requests", "p50(µs)", "p99(µs)", "shed", "expired", "brownout", "lvl", "SLO%"
            )
            .expect("string write");
            for t in &self.tenants {
                writeln!(
                    out,
                    "    {:<11} {:>9} {:>10.1} {:>10.1} {:>6} {:>8} {:>8} {:>4} {:>5.1}%",
                    t.tenant,
                    t.requests,
                    t.p50_us,
                    t.p99_us,
                    t.shed,
                    t.expired,
                    t.brownout,
                    t.peak_level,
                    t.slo_attainment * 100.0
                )
                .expect("string write");
            }
        }
        out
    }

    /// One JSON result row (used by the `serve_throughput` bench to
    /// assemble `BENCH_serve.json`). `label` names the configuration,
    /// e.g. `"w4_b16"`. Multi-tenant runs append a flat `tenants` array
    /// (one object per tenant, same line — the committed bench files
    /// stay greppable one-row-per-line); single-tenant rows are
    /// byte-identical to the historical format.
    pub fn json_row(&self, label: &str) -> String {
        let tenants = if self.tenants.is_empty() {
            String::new()
        } else {
            let rows: Vec<String> = self
                .tenants
                .iter()
                .map(|t| t.json_row(label))
                .collect();
            format!(", \"tenants\": [{}]", rows.join(", "))
        };
        // Conditional like the per-tenant brownout columns: rows from
        // brownout-free runs stay byte-identical to the historical
        // format.
        let brownout = if self.brownout > 0 {
            format!(", \"brownout\": {}", self.brownout)
        } else {
            String::new()
        };
        format!(
            "{{\"label\": \"{}\", \"workers\": {}, \"requests\": {}, \
             \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
             \"p99_us\": {:.1}, \"mean_us\": {:.1}, \"mean_batch\": {:.2}, \
             \"max_batch\": {}, \"queue_full_rejections\": {}, \
             \"worker_restarts\": {}, \"shed\": {}, \"expired\": {}, \
             \"quarantines\": {}, \"auto_rollbacks\": {}, \
             \"model_generation\": {}{}{}}}",
            label.replace('\\', "\\\\").replace('"', "\\\""),
            self.workers,
            self.requests,
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.mean_us,
            self.mean_batch,
            self.max_batch,
            self.queue_full_rejections,
            self.worker_restarts,
            self.shed,
            self.expired,
            self.quarantines,
            self.auto_rollbacks,
            self.model_generation,
            brownout,
            tenants,
        )
    }
}

/// Displays the same table as [`ServeReport::table`], so reports drop
/// straight into `format!`/`println!` (and the rejection count is
/// visible anywhere a report is printed).
impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.table())
    }
}

/// Assembles a `BENCH_serve.json`-style document from labelled reports.
pub fn bench_json(rows: &[(String, &ServeReport)]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"serve\",\n  \"unit\": \"requests_per_sec\",\n  \"results\": [\n");
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
    use ffdl_deploy::Prediction;

    fn resp(id: u64, latency_us: f64, batch: usize) -> ServeResponse {
        ServeResponse {
            id,
            prediction: Prediction {
                label: (id % 3) as usize,
                probabilities: vec![0.2, 0.3, 0.5],
            },
            latency_us,
            worker: 0,
            batch_size: batch,
            generation: 1,
            tenant: None,
        }
    }

    fn tenant_resp(id: u64, latency_us: f64, tenant: &str) -> ServeResponse {
        ServeResponse {
            tenant: Some(tenant.into()),
            ..resp(id, latency_us, 1)
        }
    }

    fn report(responses: Vec<ServeResponse>, wall: Duration, rejections: u64) -> ServeReport {
        let counts = RunCounts {
            queue_full_rejections: rejections,
            model_generation: 1,
            ..Default::default()
        };
        ServeReport::from_parts(
            responses,
            Vec::new(),
            1,
            wall,
            counts,
            RegistrySnapshot::default(),
            None,
        )
    }

    #[test]
    fn report_sorts_and_aggregates() {
        let responses = vec![resp(2, 30.0, 4), resp(0, 10.0, 4), resp(1, 20.0, 2)];
        let counts = RunCounts {
            queue_full_rejections: 5,
            worker_restarts: 1,
            shed: 2,
            brownout: 0,
            expired: 4,
            quarantines: 1,
            auto_rollbacks: 1,
            model_generation: 3,
        };
        let failures = vec![
            crate::ServeFailure {
                id: 9,
                kind: crate::FailureKind::DeadlineExceeded,
                generation: 2,
                tenant: None,
            },
            crate::ServeFailure {
                id: 5,
                kind: crate::FailureKind::UnhealthyModel,
                generation: 2,
                tenant: None,
            },
        ];
        let r = ServeReport::from_parts(
            responses,
            failures,
            2,
            Duration::from_millis(10),
            counts,
            RegistrySnapshot::default(),
            None,
        );
        assert_eq!(r.requests, 3);
        assert_eq!(r.responses[0].id, 0);
        assert_eq!(r.responses[2].id, 2);
        assert!((r.p50_us - 20.0).abs() < 1e-9);
        assert!((r.mean_us - 20.0).abs() < 1e-9);
        assert!((r.max_us - 30.0).abs() < 1e-9);
        assert!((r.mean_batch - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.max_batch, 4);
        assert_eq!(r.queue_full_rejections, 5);
        assert_eq!(r.worker_restarts, 1);
        assert_eq!(r.shed, 2);
        assert_eq!(r.expired, 4);
        assert_eq!(r.quarantines, 1);
        assert_eq!(r.auto_rollbacks, 1);
        assert_eq!(r.model_generation, 3);
        assert!((r.throughput_rps - 300.0).abs() < 1.0);
        // Failures sorted by id, with typed errors derivable.
        assert_eq!(r.failures[0].id, 5);
        assert_eq!(r.failures[1].id, 9);
        assert!(matches!(
            r.failures[0].error(),
            crate::ServeError::UnhealthyModel { generation: 2, .. }
        ));
        assert!(matches!(
            r.failures[1].error(),
            crate::ServeError::DeadlineExceeded { tenant: None }
        ));
        // No tenant labels anywhere: no per-tenant section — and no
        // brownout happened, so the row keeps the historical shape.
        assert!(r.tenants.is_empty());
        assert!(!r.table().contains("per-tenant"));
        assert!(!r.json_row("x").contains("\"tenants\""));
        assert!(!r.json_row("x").contains("\"brownout\""));
    }

    #[test]
    fn tenant_breakdown_groups_and_judges_slo() {
        // Tenant "a": two responses (40 µs, 60 µs) and one expired
        // request; tenant "b": one response (10 µs), one admission shed.
        let responses = vec![
            tenant_resp(0, 40.0, "a"),
            tenant_resp(1, 60.0, "a"),
            tenant_resp(2, 10.0, "b"),
        ];
        let failures = vec![
            crate::ServeFailure {
                id: 3,
                kind: crate::FailureKind::DeadlineExceeded,
                generation: 1,
                tenant: Some("a".into()),
            },
            crate::ServeFailure {
                id: 4,
                kind: crate::FailureKind::Shed,
                generation: 1,
                tenant: Some("b".into()),
            },
        ];
        let r = ServeReport::from_parts(
            responses,
            failures,
            1,
            Duration::from_millis(1),
            RunCounts::default(),
            RegistrySnapshot::default(),
            Some(Duration::from_micros(50)), // SLO: 50 µs
        );
        assert_eq!(r.tenants.len(), 2);
        let a = &r.tenants[0];
        assert_eq!(a.tenant, "a");
        assert_eq!(a.requests, 2);
        assert_eq!(a.expired, 1);
        assert_eq!(a.failed, 1);
        // One of a's two responses met the 50 µs SLO; 3 generated.
        assert_eq!(a.within_slo, 1);
        assert!((a.slo_attainment - 1.0 / 3.0).abs() < 1e-9);
        let b = &r.tenants[1];
        assert_eq!(b.tenant, "b");
        assert_eq!(b.requests, 1);
        assert_eq!(b.shed, 1);
        assert!((b.slo_attainment - 0.5).abs() < 1e-9);
        // Table grows the per-tenant section; JSON row carries it flat.
        let t = r.table();
        assert!(t.contains("per-tenant"), "{t}");
        assert!(t.contains("    a"), "{t}");
        let row = r.json_row("overload");
        assert!(row.contains("\"tenants\": ["), "{row}");
        assert!(row.contains("\"tenant\": \"b\""), "{row}");
        assert!(row.contains("\"slo_attainment\": 0.3333"), "{row}");
        assert!(!row.contains('\n'), "rows must stay one line: {row}");
    }

    #[test]
    fn brownout_columns_appear_only_when_brownout_happened() {
        let failures = vec![
            crate::ServeFailure {
                id: 1,
                kind: crate::FailureKind::Brownout { level: 2 },
                generation: 1,
                tenant: Some("heavy".into()),
            },
            crate::ServeFailure {
                id: 2,
                kind: crate::FailureKind::Brownout { level: 1 },
                generation: 1,
                tenant: Some("heavy".into()),
            },
        ];
        let counts = RunCounts {
            brownout: 2,
            model_generation: 1,
            ..Default::default()
        };
        let r = ServeReport::from_parts(
            vec![tenant_resp(0, 10.0, "heavy")],
            failures,
            1,
            Duration::from_millis(1),
            counts,
            RegistrySnapshot::default(),
            Some(Duration::from_micros(50)),
        );
        assert_eq!(r.brownout, 2);
        let heavy = &r.tenants[0];
        assert_eq!(heavy.brownout, 2);
        assert_eq!(heavy.peak_level, 2, "deepest level across sheds");
        assert_eq!(heavy.failed, 2);
        // Brownout sheds count against attainment like any failure.
        assert!((heavy.slo_attainment - 1.0 / 3.0).abs() < 1e-9);
        let row = r.json_row("brownout");
        assert!(row.contains("\"brownout\": 2"), "{row}");
        assert!(row.contains("\"peak_level\": 2"), "{row}");
        assert!(r.failures[0].error().to_string().contains("tenant heavy"));
        assert!(matches!(
            r.failures[0].error(),
            crate::ServeError::Brownout { level: 2, .. }
        ));
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = report(Vec::new(), Duration::from_secs(1), 0);
        assert_eq!(r.requests, 0);
        assert_eq!(r.p99_us, 0.0);
        assert_eq!(r.mean_batch, 0.0);
        assert_eq!(r.max_batch, 0);
        assert_eq!(r.worker_restarts, 0);
    }

    #[test]
    fn table_mentions_all_stats() {
        let r = report(vec![resp(0, 5.0, 1)], Duration::from_millis(1), 0);
        let t = r.table();
        for needle in [
            "throughput",
            "p50",
            "p95",
            "p99",
            "mean batch",
            "rejections",
            "worker restarts",
            "shed (admission)",
            "brownout (enqueue)",
            "expired (dequeue)",
            "quarantines",
            "auto-rollbacks",
            "failed requests",
            "model generation",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn display_matches_table_and_surfaces_rejections() {
        let r = report(vec![resp(0, 5.0, 1)], Duration::from_millis(1), 37);
        let shown = format!("{r}");
        assert_eq!(shown, r.table());
        assert!(shown.contains("queue-full rejections"), "{shown}");
        assert!(shown.contains("37"), "{shown}");
        assert!(r.telemetry.is_empty());
    }

    #[test]
    fn json_rows_assemble() {
        let r = report(vec![resp(0, 5.0, 1)], Duration::from_millis(1), 0);
        let doc = bench_json(&[("w1_b1".into(), &r), ("w4_b16".into(), &r)]);
        assert!(doc.contains("\"bench\": \"serve\""));
        assert!(doc.contains("\"label\": \"w1_b1\""));
        assert!(doc.contains("\"label\": \"w4_b16\""));
        assert!(doc.contains("\"throughput_rps\""));
        assert!(doc.contains("\"worker_restarts\""));
        assert!(doc.contains("\"shed\""));
        assert!(doc.contains("\"expired\""));
        assert!(doc.contains("\"quarantines\""));
        assert!(doc.contains("\"auto_rollbacks\""));
        assert!(doc.contains("\"model_generation\""));
    }
}
