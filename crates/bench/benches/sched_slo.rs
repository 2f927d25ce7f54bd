//! Multi-tenant scheduling bench: **open-loop** Poisson load against the
//! `ffdl-sched` runtime, reporting per-tenant SLO attainment. Writes
//! `BENCH_sched.json` at the workspace root (unit: requests/sec, with
//! per-tenant `slo_attainment` rows — the guarded numbers).
//!
//! Service time is pinned with the `delay` layer (4 ms per batch, so one
//! worker serves ~1000 req/s at batch 4) instead of a real forward pass.
//! Two reasons: the scenarios are about *scheduling* — weighted capacity
//! division, priority preemption, autoscaling — and a pinned service
//! time makes the measured ratios host-independent; and on a small box a
//! CPU-bound model gains nothing from extra workers, which would make
//! the worker-scaling rows meaningless.
//!
//! Scenarios (fixed seed, committed as rows):
//!
//! * `single_tenant` — one tenant at 60% of capacity: the SLO baseline.
//! * `skewed_8to1`   — two tenants, weights 8:1, each offering 1.5× the
//!   pool's total capacity: WDRR divides completions ~8:1 and the SLO
//!   attainment gap shows who the overload is taken out of.
//! * `overload`      — a small `high`-class tenant sharing the pool with
//!   a saturating bulk tenant while the autoscaler grows the pool 1→4:
//!   the priority tenant's attainment must stay ≥ 0.95 (guarded), and
//!   the row must show scale-ups (guarded).
//! * `scale_w{1,2,4}` — the same saturating load against pinned pools of
//!   1/2/4 workers: throughput must grow monotonically (guarded), i.e.
//!   added workers genuinely add concurrency.
//! * `skewed_8to1_brownout` — the same 8:1 skew, but the heavy tenant
//!   carries a three-rung precision ladder (4/2/1 ms per batch — the
//!   f32 → int16 → int8 speedups) and the brownout controller walks it
//!   under pressure: the light tenant must stay ≥ 0.9 attainment and
//!   the heavy tenant ≥ 0.5 (guarded), with a dedicated brownout row
//!   recording the peak level and the recovery to full precision.

use ffdl::tensor::Tensor;
use ffdl_bench::harness::out_dir;
use ffdl_registry::ModelStore;
use ffdl_sched::{
    delay_model, delay_registry, run_open_loop, BrownoutConfig, Ladder, LadderRung, OpenLoopPlan,
    PriorityClass, SchedConfig, SchedReport, Scheduler, TenantSpec,
};
use std::time::{Duration, Instant};

const FEATURES: usize = 16;
const CLASSES: usize = 4;
/// Pinned per-batch service time; with `max_batch` 4 one worker serves
/// ~1000 req/s.
const DELAY_US: u64 = 4000;
const MAX_BATCH: usize = 4;
const SEED: u64 = 0x5EED_0007;

fn samples(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_fn(&[FEATURES], |i| (((s * FEATURES + i) * 7) % 23) as f32 * 0.1))
        .collect()
}

/// Runs one open-loop scenario to completion (generate, then drain) and
/// returns the report plus total generated/rejected counts.
fn run(
    store: &ModelStore,
    label: &str,
    specs: &[TenantSpec],
    config: &SchedConfig,
    rates: &[f64],
    duration: Duration,
) -> (SchedReport, u64, u64) {
    assert_eq!(specs.len(), rates.len());
    let sched = Scheduler::start_with_registry(store, specs, config, delay_registry())
        .unwrap_or_else(|e| panic!("start {label}: {e}"));
    let plans: Vec<OpenLoopPlan> = rates
        .iter()
        .map(|&rate_rps| OpenLoopPlan { rate_rps, samples: samples(64) })
        .collect();
    let summary = run_open_loop(&sched, &plans, duration, SEED)
        .unwrap_or_else(|e| panic!("open loop {label}: {e}"));
    if config.brownout.is_some() {
        // Brownout scenarios commit the whole round trip — degrade under
        // the overload, recover to full precision once it drains — so
        // hold the report until every ladder-bearing tenant is back at
        // level 0 with an empty queue (bounded: the guard catches a
        // missing recovery either way).
        let deadline = Instant::now() + Duration::from_secs(10);
        while (0..specs.len())
            .any(|t| sched.tenant_queue_len(t) > 0 || sched.tenant_level(t) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let report = sched.finish().unwrap_or_else(|e| panic!("finish {label}: {e}"));
    let generated: u64 = summary.generated.iter().sum();
    let rejected: u64 = summary.rejected.iter().sum();
    eprintln!(
        "sched/{label:<14} {:>8.0} req/s   gen {generated:>5}   workers {}->{} ({} ups)   p99 {:>9.1} µs",
        report.serve.throughput_rps,
        report.min_workers,
        report.peak_workers,
        report.scale_ups,
        report.serve.p99_us,
    );
    for t in &report.serve.tenants {
        eprintln!(
            "      tenant {:<6} requests {:>5}   shed {:>4}   expired {:>4}   slo-attainment {:.4}",
            t.tenant, t.requests, t.shed, t.expired, t.slo_attainment,
        );
    }
    (report, generated, rejected)
}

/// One-line summary row; per-tenant rows ride along via
/// [`ffdl_serve::TenantStat::json_row`] so every guarded number lives on
/// its own line.
fn summary_row(label: &str, report: &SchedReport, generated: u64, rejected: u64) -> String {
    format!(
        "{{\"label\": \"{}\", \"tenants\": {}, \"workers_min\": {}, \
         \"workers_peak\": {}, \"scale_ups\": {}, \"scale_downs\": {}, \
         \"generated\": {}, \"rejected\": {}, \"requests\": {}, \
         \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
         \"shed\": {}, \"expired\": {}}}",
        label,
        report.tenants.len(),
        report.min_workers,
        report.peak_workers,
        report.scale_ups,
        report.scale_downs,
        generated,
        rejected,
        report.serve.requests,
        report.serve.throughput_rps,
        report.serve.p50_us,
        report.serve.p99_us,
        report.serve.shed,
        report.serve.expired,
    )
}

fn spec(name: &str, weight: u64, class: PriorityClass, depth: usize) -> TenantSpec {
    let mut s = TenantSpec::new(name, "delay-bench");
    s.weight = weight;
    s.class = class;
    s.queue_depth = depth;
    s
}

fn pinned(workers: usize, deadline: Option<Duration>) -> SchedConfig {
    SchedConfig {
        min_workers: workers,
        max_workers: workers,
        max_batch: MAX_BATCH,
        deadline,
        ..SchedConfig::default()
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("ffdl-sched-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open bench store");
    store
        .publish("delay-bench", &delay_model(FEATURES, CLASSES, DELAY_US, 42), "bench")
        .expect("publish delay model");

    let mut rows: Vec<String> = Vec::new();
    let mut push = |label: &str, r: &SchedReport, generated: u64, rejected: u64| {
        rows.push(summary_row(label, r, generated, rejected));
        for t in &r.serve.tenants {
            rows.push(t.json_row(label));
        }
    };

    // Baseline: one tenant at ~60% capacity, comfortably inside a 25 ms
    // deadline (p99 ≈ batch wait + 4 ms service).
    let (r, g, j) = run(
        &store,
        "single_tenant",
        &[spec("solo", 1, PriorityClass::Normal, 2048)],
        &pinned(4, Some(Duration::from_millis(25))),
        &[2400.0],
        Duration::from_millis(1000),
    );
    push("single_tenant", &r, g, j);

    // Skewed weights under overload: both tenants offer 1.5× the pool's
    // total capacity. Shallow queues (depth 16) turn the excess into
    // queue-full sheds instead of an ever-aging backlog, so completions
    // track the WDRR service share (~8:1 plus the depth padding) and
    // waiting time stays inside the deadline for both tenants — the
    // attainment gap *is* the weight ratio, not an expiry collapse.
    let (r, g, j) = run(
        &store,
        "skewed_8to1",
        &[
            spec("heavy", 8, PriorityClass::Normal, 16),
            spec("light", 1, PriorityClass::Normal, 16),
        ],
        &pinned(1, Some(Duration::from_millis(200))),
        &[1500.0, 1500.0],
        Duration::from_millis(1000),
    );
    push("skewed_8to1", &r, g, j);

    // Overload with a protected priority tenant: bulk saturates a pool
    // that autoscales 1→4 while `prio` (high class) preempts dispatch.
    // Guards: prio slo_attainment >= 0.95 and scale_ups >= 1.
    let overload_config = SchedConfig {
        min_workers: 1,
        max_workers: 4,
        max_batch: MAX_BATCH,
        deadline: Some(Duration::from_millis(50)),
        ..SchedConfig::default()
    };
    let (r, g, j) = run(
        &store,
        "overload",
        &[
            spec("prio", 1, PriorityClass::High, 1024),
            spec("bulk", 1, PriorityClass::Normal, 4096),
        ],
        &overload_config,
        &[400.0, 2500.0],
        Duration::from_millis(1500),
    );
    assert!(r.scale_ups >= 1, "overload scenario never scaled up");
    push("overload", &r, g, j);

    // Worker scaling under a fixed saturating load, no deadline: the
    // whole backlog drains, so throughput = generated / wall and must
    // grow with the pinned worker count.
    for &workers in &[1usize, 2, 4] {
        let label = format!("scale_w{workers}");
        let (r, g, j) = run(
            &store,
            &label,
            &[spec("load", 1, PriorityClass::Normal, 8192)],
            &pinned(workers, None),
            &[3000.0],
            Duration::from_millis(1500),
        );
        push(&label, &r, g, j);
    }

    // The 8:1 skew again, with graceful degradation instead of shed
    // collapse: `heavy` offers 1.5× the pool's f32 capacity but carries
    // a pre-published three-rung ladder; the brownout controller trades
    // its precision for queue delay and walks back up once the run's
    // arrivals stop. `light` rides along high-class at full precision.
    // Guards: light slo_attainment >= 0.9, heavy >= 0.5, and the
    // brownout row must show peak_level >= 1 with final_level 0.
    for (micros, seed, arch) in [(4000, 11, "bench-f32"), (2000, 22, "bench-int16"), (1000, 33, "bench-int8")] {
        store
            .publish("brownout-bench", &delay_model(FEATURES, CLASSES, micros, seed), arch)
            .expect("publish ladder rung");
    }
    let mut heavy = TenantSpec::new("heavy", "brownout-bench");
    heavy.weight = 8;
    heavy.queue_depth = 8192;
    heavy.ladder = Some(
        Ladder::new(vec![
            LadderRung { label: "f32".into(), registry_generation: 1 },
            LadderRung { label: "int16".into(), registry_generation: 2 },
            LadderRung { label: "int8".into(), registry_generation: 3 },
        ])
        .expect("three rungs make a ladder"),
    );
    let brownout_config = SchedConfig {
        brownout: Some(BrownoutConfig {
            target_delay: Duration::from_millis(20),
            sample_every: Duration::from_millis(2),
            window: 4,
            degrade_ticks: 3,
            shed_ticks: 40,
            hold: 4,
            max_hold: 64,
            seed: SEED,
        }),
        ..pinned(1, Some(Duration::from_millis(100)))
    };
    let (r, g, j) = run(
        &store,
        "skewed_8to1_brownout",
        &[heavy, spec("light", 1, PriorityClass::High, 256)],
        &brownout_config,
        &[1500.0, 150.0],
        Duration::from_millis(1500),
    );
    for b in &r.brownout {
        eprintln!(
            "      brownout {:<4} peak level {}   final level {}   {} transitions",
            b.tenant,
            b.peak_level,
            b.final_level,
            b.events.len(),
        );
    }
    push("skewed_8to1_brownout", &r, g, j);
    for b in &r.brownout {
        rows.push(format!(
            "{{\"label\": \"skewed_8to1_brownout\", \"tenant\": \"{}\", \
             \"peak_level\": {}, \"final_level\": {}, \"transitions\": {}}}",
            b.tenant,
            b.peak_level,
            b.final_level,
            b.events.len(),
        ));
    }

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"sched\",\n  \"unit\": \"requests_per_sec\",\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(row);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    let path = out_dir().join("BENCH_sched.json");
    std::fs::write(&path, out).expect("write BENCH_sched.json");
    eprintln!("wrote {}", path.display());

    let _ = std::fs::remove_dir_all(&dir);
}
