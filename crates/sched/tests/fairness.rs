//! Fixed-seed fairness properties of the WDRR scheduler under sustained
//! overload, end to end through the real worker pool (not just the
//! dispatcher): weighted capacity division, no starvation, and zero
//! lost responses.
//!
//! Service time is pinned with the `delay` layer so the backlog
//! precondition ("both tenants stay backlogged while we measure") holds
//! on any host — a real forward pass would make the test a race against
//! the machine's single-thread speed.

use ffdl_registry::ModelStore;
use ffdl_sched::{delay_model, delay_registry, SchedConfig, Scheduler, TenantSpec};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

const FEATURES: usize = 8;

fn temp_store(tag: &str) -> (std::path::PathBuf, ModelStore) {
    let dir = std::env::temp_dir().join(format!("ffdl-sched-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    (dir, store)
}

fn sample(s: usize) -> Tensor {
    Tensor::from_fn(&[FEATURES], |i| (((s * FEATURES + i) * 7) % 23) as f32 * 0.1)
}

/// One pinned worker, 200 µs per batch: capacity ≈ 5000 batches/s,
/// shared by WDRR according to weights.
fn start_two_tenants(
    store: &ModelStore,
    weights: (u64, u64),
    depth: usize,
) -> Scheduler {
    store
        .publish("shared", &delay_model(FEATURES, 4, 200, 42), "fairness")
        .expect("publish model");
    let mut a = TenantSpec::new("a", "shared");
    a.weight = weights.0;
    a.queue_depth = depth;
    let mut b = TenantSpec::new("b", "shared");
    b.weight = weights.1;
    b.queue_depth = depth;
    let config = SchedConfig {
        min_workers: 1,
        max_workers: 1, // pinned pool: fairness is the dispatcher's doing
        max_batch: 4,
        ..SchedConfig::default()
    };
    Scheduler::start_with_registry(store, &[a, b], &config, delay_registry())
        .expect("start scheduler")
}

/// Polls until `served(a) + served(b) >= floor`, asserting both tenants
/// stay backlogged the whole time (the overload precondition).
fn wait_served_total(sched: &Scheduler, floor: u64) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let a = sched.served_by_tenant(0);
        let b = sched.served_by_tenant(1);
        if a + b >= floor {
            assert!(
                sched.tenant_queue_len(0) > 0 && sched.tenant_queue_len(1) > 0,
                "overload precondition broken: a queue={}, b queue={}",
                sched.tenant_queue_len(0),
                sched.tenant_queue_len(1)
            );
            return (a, b);
        }
        assert!(Instant::now() < deadline, "timed out waiting for {floor} served");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn three_to_one_weights_divide_overloaded_capacity() {
    let (dir, store) = temp_store("fair31");
    let sched = start_two_tenants(&store, (3, 1), 2048);

    // Sustained overload: both tenants offer far more than one worker
    // can serve while we measure. Distinct id ranges per tenant.
    const PER_TENANT: u64 = 1500;
    for i in 0..PER_TENANT {
        sched.submit(0, i, sample(i as usize)).expect("submit a");
        sched
            .submit(1, 100_000 + i, sample(i as usize))
            .expect("submit b");
    }

    // Measure mid-run, while both queues are still deep.
    let (a, b) = wait_served_total(&sched, 600);
    let ratio = a as f64 / b as f64;
    assert!(
        (2.7..=3.3).contains(&ratio),
        "3:1 weights must complete work in 3:1 +/- 10%, got {a}:{b} (ratio {ratio:.2})"
    );

    // Zero lost responses: every submitted id comes back exactly once,
    // and nothing was rejected (queues were deep enough).
    let report = sched.finish().expect("finish");
    assert!(report.serve.failures.is_empty(), "no failures expected");
    let mut seen: Vec<u64> = report.serve.responses.iter().map(|r| r.id).collect();
    seen.sort_unstable();
    let expected: Vec<u64> = (0..PER_TENANT).chain(100_000..100_000 + PER_TENANT).collect();
    assert_eq!(seen, expected, "every id exactly once");

    // The per-tenant report rows agree with the live counters' totals.
    assert_eq!(report.serve.tenants.len(), 2);
    for stat in &report.serve.tenants {
        assert_eq!(stat.requests as u64, PER_TENANT, "tenant {}", stat.tenant);
        assert_eq!(stat.failed, 0);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn weight_one_tenant_is_not_starved_by_weight_eight_neighbor() {
    let (dir, store) = temp_store("starve");
    let sched = start_two_tenants(&store, (8, 1), 4096);

    // The bulk tenant saturates the pool; the small tenant keeps a
    // steady backlog too. If DRR banked deficits or the cursor stuck,
    // the weight-1 tenant would see zero service here.
    const BULK: u64 = 3200;
    const SMALL: u64 = 400;
    for i in 0..BULK {
        sched.submit(0, i, sample(i as usize)).expect("submit bulk");
        if i < SMALL {
            sched
                .submit(1, 100_000 + i, sample(i as usize))
                .expect("submit small");
        }
    }

    let (bulk_served, small_served) = wait_served_total(&sched, 900);
    // Fair share for weight 1 of 9 is 1/9; starvation-freedom is the
    // property, so assert at least half the fair share plus absolute
    // progress, not an exact ratio.
    let fair = (bulk_served + small_served) / 9;
    assert!(
        small_served >= (fair / 2).max(8),
        "weight-1 tenant starved: {small_served} of {} served (fair share {fair})",
        bulk_served + small_served
    );
    // And the heavy tenant still gets the bulk of the capacity.
    assert!(
        bulk_served >= small_served * 4,
        "weights ignored: bulk={bulk_served}, small={small_served}"
    );

    let report = sched.finish().expect("finish");
    assert!(report.serve.failures.is_empty(), "no failures expected");
    assert_eq!(
        report.serve.responses.len() as u64,
        BULK + SMALL,
        "zero lost responses"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
