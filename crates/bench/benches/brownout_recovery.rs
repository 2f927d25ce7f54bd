//! Brownout recovery bench: what the precision ladder buys under a
//! saturating spike, and how fast the controller gives it back. Writes
//! `BENCH_brownout.json` at the workspace root.
//!
//! One tenant is offered 2.5× the pool's f32 capacity for one second,
//! then the arrivals stop and the run waits for the controller to walk
//! back to full precision. Two scenarios on identical load and seed:
//!
//! * `spike_no_ladder` — the baseline collapse: no ladder, so the
//!   backlog ages past the deadline and most of the spike expires.
//! * `spike_ladder`    — the same tenant with a three-rung delay-model
//!   ladder (4/2/1 ms per batch, the f32 → int16 → int8 speedups): the
//!   controller degrades into the cushion, serves the spike, and
//!   recovers.
//!
//! The ladder row carries the columns the guard reads, all computed
//! from the recorded [`BrownoutStat`] level events:
//!
//! * `residency_l{0,1,2}_ms` — wall time spent at each ladder level
//!   over the whole run (spike + drain + recovery);
//! * `recovery_ms` — time from the end of the offered load to the swap
//!   that put the tenant back at level 0;
//! * `peak_level` / `final_level` / `transitions`.
//!
//! Guards (scripts/verify.sh): the ladder run must beat the baseline's
//! SLO attainment by a clear margin, reach peak_level >= 1, and finish
//! recovered at final_level 0.

use ffdl::tensor::Tensor;
use ffdl_bench::harness::out_dir;
use ffdl_registry::ModelStore;
use ffdl_sched::{
    delay_model, delay_registry, run_open_loop, BrownoutConfig, BrownoutStat, Ladder, LadderRung,
    OpenLoopPlan, SchedConfig, SchedReport, Scheduler, TenantSpec,
};
use std::time::{Duration, Instant};

const FEATURES: usize = 16;
const CLASSES: usize = 4;
const MAX_BATCH: usize = 4;
const SEED: u64 = 0x5EED_0B10;

/// Offered spike: 2.5× the 1000 req/s f32 capacity for one second.
const SPIKE_RPS: f64 = 2500.0;
const SPIKE: Duration = Duration::from_millis(1000);

fn samples(n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|s| Tensor::from_fn(&[FEATURES], |i| (((s * FEATURES + i) * 7) % 23) as f32 * 0.1))
        .collect()
}

/// Per-level wall-time residency over `[0, total]`, from the level
/// events (the tenant starts at level 0).
fn residency(stat: &BrownoutStat, levels: usize, total: Duration) -> Vec<Duration> {
    let mut out = vec![Duration::ZERO; levels];
    let (mut level, mut since) = (0usize, Duration::ZERO);
    for event in &stat.events {
        out[level] += event.at.saturating_sub(since);
        level = event.level;
        since = event.at;
    }
    out[level] += total.saturating_sub(since);
    out
}

/// Time from the end of the offered load to the swap that put the
/// tenant back at level 0 (`None` when it never recovered).
fn recovery_after(stat: &BrownoutStat, spike: Duration) -> Option<Duration> {
    stat.events
        .iter()
        .rev()
        .find(|e| e.level == 0)
        .map(|e| e.at.saturating_sub(spike))
}

/// Runs one spike scenario: offer the load, wait (bounded) for the
/// queue to drain and the ladder to recover, then cut the report.
fn run(store: &ModelStore, label: &str, spec: TenantSpec, config: &SchedConfig) -> (SchedReport, u64, Duration) {
    let sched = Scheduler::start_with_registry(store, &[spec], config, delay_registry())
        .unwrap_or_else(|e| panic!("start {label}: {e}"));
    let started = Instant::now();
    let plans = [OpenLoopPlan { rate_rps: SPIKE_RPS, samples: samples(64) }];
    let summary = run_open_loop(&sched, &plans, SPIKE, SEED)
        .unwrap_or_else(|e| panic!("open loop {label}: {e}"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while (sched.tenant_queue_len(0) > 0 || sched.tenant_level(0) > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let total = started.elapsed();
    let report = sched.finish().unwrap_or_else(|e| panic!("finish {label}: {e}"));
    (report, summary.generated[0], total)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("ffdl-brownout-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open bench store");
    // The ladder: generations 1/2/3 at 4/2/1 ms per batched forward —
    // 1000 / 2000 / 4000 req/s of capacity at batch 4.
    for (micros, seed, arch) in [(4000, 11, "bench-f32"), (2000, 22, "bench-int16"), (1000, 33, "bench-int8")] {
        store
            .publish("spike-model", &delay_model(FEATURES, CLASSES, micros, seed), arch)
            .expect("publish ladder rung");
    }
    // The baseline gets its own single-generation model: a ladder-less
    // tenant serves the *active* (latest) generation, which for
    // `spike-model` would be the fastest rung, not the f32 one.
    store
        .publish("spike-base", &delay_model(FEATURES, CLASSES, 4000, 11), "bench-f32")
        .expect("publish baseline model");

    let base_spec = |model: &str| {
        let mut s = TenantSpec::new("heavy", model);
        s.queue_depth = 8192;
        s
    };
    let base_config = SchedConfig {
        min_workers: 1,
        max_workers: 1,
        max_batch: MAX_BATCH,
        deadline: Some(Duration::from_millis(100)),
        ..SchedConfig::default()
    };

    let mut rows: Vec<String> = Vec::new();

    // Baseline: same spike, no ladder — the backlog ages out and the
    // attainment records the collapse the ladder is bought to prevent.
    let (report, generated, total) =
        run(&store, "spike_no_ladder", base_spec("spike-base"), &base_config);
    let stat = &report.serve.tenants[0];
    let baseline_attainment = stat.slo_attainment;
    eprintln!(
        "brownout/spike_no_ladder  gen {generated:>5}   served {:>5}   expired {:>5}   slo-attainment {:.4}   wall {:.0} ms",
        stat.requests,
        stat.expired,
        stat.slo_attainment,
        total.as_secs_f64() * 1e3,
    );
    rows.push(format!(
        "{{\"label\": \"spike_no_ladder\", \"tenant\": \"heavy\", \"generated\": {}, \
         \"requests\": {}, \"shed\": {}, \"expired\": {}, \"failed\": {}, \
         \"slo_attainment\": {:.4}, \"peak_level\": 0, \"final_level\": 0}}",
        generated, stat.requests, stat.shed, stat.expired, stat.failed, stat.slo_attainment,
    ));

    // The same spike into the ladder: degrade, serve, recover.
    let mut spec = base_spec("spike-model");
    spec.ladder = Some(
        Ladder::new(vec![
            LadderRung { label: "f32".into(), registry_generation: 1 },
            LadderRung { label: "int16".into(), registry_generation: 2 },
            LadderRung { label: "int8".into(), registry_generation: 3 },
        ])
        .expect("three rungs make a ladder"),
    );
    let config = SchedConfig {
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
        ..base_config
    };
    let (report, generated, total) = run(&store, "spike_ladder", spec, &config);
    let stat = &report.serve.tenants[0];
    let brownout = &report.brownout[0];
    let res = residency(brownout, 3, total);
    let recovery = recovery_after(brownout, SPIKE);
    eprintln!(
        "brownout/spike_ladder     gen {generated:>5}   served {:>5}   expired {:>5}   slo-attainment {:.4}   wall {:.0} ms",
        stat.requests,
        stat.expired,
        stat.slo_attainment,
        total.as_secs_f64() * 1e3,
    );
    eprintln!(
        "      ladder: peak level {}   final level {}   {} transitions   residency {:.0}/{:.0}/{:.0} ms   recovery {:.0} ms   (baseline attainment {:.4})",
        brownout.peak_level,
        brownout.final_level,
        brownout.events.len(),
        res[0].as_secs_f64() * 1e3,
        res[1].as_secs_f64() * 1e3,
        res[2].as_secs_f64() * 1e3,
        recovery.unwrap_or_default().as_secs_f64() * 1e3,
        baseline_attainment,
    );
    rows.push(format!(
        "{{\"label\": \"spike_ladder\", \"tenant\": \"heavy\", \"generated\": {}, \
         \"requests\": {}, \"shed\": {}, \"expired\": {}, \"failed\": {}, \
         \"slo_attainment\": {:.4}, \"peak_level\": {}, \"final_level\": {}, \
         \"transitions\": {}, \"residency_l0_ms\": {:.1}, \"residency_l1_ms\": {:.1}, \
         \"residency_l2_ms\": {:.1}, \"recovery_ms\": {:.1}}}",
        generated,
        stat.requests,
        stat.shed,
        stat.expired,
        stat.failed,
        stat.slo_attainment,
        brownout.peak_level,
        brownout.final_level,
        brownout.events.len(),
        res[0].as_secs_f64() * 1e3,
        res[1].as_secs_f64() * 1e3,
        res[2].as_secs_f64() * 1e3,
        recovery.map(|d| d.as_secs_f64() * 1e3).unwrap_or(-1.0),
    ));

    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"brownout\",\n  \"unit\": \"slo_attainment\",\n  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(row);
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    let path = out_dir().join("BENCH_brownout.json");
    std::fs::write(&path, out).expect("write BENCH_brownout.json");
    eprintln!("wrote {}", path.display());

    let _ = std::fs::remove_dir_all(&dir);
}
