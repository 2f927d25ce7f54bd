//! Fixed-seed chaos campaign against a live registry-backed server.
//!
//! The scenario the ISSUE's acceptance criterion describes, end to end:
//! a healthy model is published and served, an unhealthy (all-NaN)
//! successor is published and hot-swapped in, and a deterministic fault
//! campaign (`ffdl-fault`, seeded) injects a worker panic, a latency
//! spike, a NaN activation and a model-byte bit flip on top. The test
//! asserts the robustness contract:
//!
//! * **zero lost responses** — every submitted request id appears in
//!   exactly one of `responses` / `failures`,
//! * **every failure is typed** — worker panics and non-finite logits
//!   surface as [`FailureKind`] values, never as hangs or silent drops,
//! * **automatic rollback** — the unhealthy generation is quarantined
//!   at the configured threshold and the pool rolls back through the
//!   registry, whose rollback generation is **bit-identical** to the
//!   original healthy publish,
//! * the injected bit flip is caught by the registry checksum as a
//!   typed [`RegistryError::Corrupt`].
//!
//! Everything is in ONE `#[test]`: the fault injector is process-global,
//! so concurrent tests in this binary would steal each other's budgets.

use ffdl_core::full_registry;
use ffdl_deploy::{parse_architecture, InferenceEngine};
use ffdl_fault::FaultPlan;
use ffdl_registry::{ModelStore, RegistryError};
use ffdl_serve::{FailureKind, HealthConfig, ServeConfig, Server};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

const ARCH: &str = "\
input 16
circulant_fc 16 block=4
relu
fc 4
softmax
";

const SEED: u64 = 0xFFD1_C0DE;
const UNHEALTHY_THRESHOLD: u32 = 6;

fn healthy_network(seed: u64) -> ffdl_nn::Network {
    parse_architecture(ARCH, seed).expect("arch parses").network
}

/// Same topology, every parameter NaN: forwards always produce
/// non-finite logits, so the finiteness check fails every batch.
fn nan_network() -> ffdl_nn::Network {
    let mut net = healthy_network(1);
    for layer in net.layers_mut() {
        let nan_params: Vec<Tensor> = layer
            .param_tensors()
            .iter()
            .map(|t| Tensor::from_fn(t.shape(), |_| f32::NAN))
            .collect();
        layer.load_params(&nan_params).expect("load NaN params");
    }
    net
}

fn sample(s: usize) -> Tensor {
    Tensor::from_fn(&[16], |i| (((s * 16 + i) * 13) % 31) as f32 * 0.05)
}

/// Waits until `ready()` holds (serving-side state is asynchronous).
fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn seeded_chaos_campaign_loses_nothing_and_rolls_back_bit_identically() {
    let dir = std::env::temp_dir().join(format!("ffdl-serve-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    let layers = full_registry();

    // Registry gen 1: the healthy model. Gen 2: the NaN model.
    store
        .publish("prod", &healthy_network(100), "chaos")
        .expect("publish healthy gen 1");
    store
        .publish("prod", &nan_network(), "chaos")
        .expect("publish NaN gen 2");
    let (gen1_bytes, _) = store.load_bytes("prod", Some(1)).expect("gen 1 bytes");
    let (gen2_bytes, _) = store.load_bytes("prod", Some(2)).expect("gen 2 bytes");
    assert_ne!(gen1_bytes, gen2_bytes, "distinct models, distinct bytes");

    // Bit-exact reference: offline single-sample predictions of gen 1.
    let expected: Vec<_> = {
        let (net, _) = store.load("prod", Some(1), &layers).expect("load gen 1");
        let mut engine = InferenceEngine::new(net);
        (0..64)
            .map(|s| {
                engine
                    .predict(&sample(s).reshape(&[1, 16]).expect("reshape"))
                    .expect("offline predict")
                    .remove(0)
            })
            .collect()
    };

    let config = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_depth: 256,
        deadline: Some(Duration::from_secs(30)),
        health: HealthConfig {
            check_finite: true,
            unhealthy_threshold: UNHEALTHY_THRESHOLD,
        },
    };
    let (net_a, v1) = store.load("prod", Some(1), &layers).expect("load gen 1");
    assert_eq!(v1.generation, 1);
    let server = Server::start(&net_a, &config).expect("start pool");
    // Bind the pool to the registry so auto-rollback has a durable
    // path: server gen 2 is registry gen 1 (still the healthy model).
    server
        .swap_from_store(&store, "prod", Some(1))
        .expect("bind to registry gen 1");

    // Wave 1: healthy traffic, fault injector disarmed.
    for id in 0..16u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 1");
    }
    wait_for("wave 1 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100)); // in-flight batches finish

    // Arm the campaign: one panic, one latency spike, one NaN
    // activation, one bit flip, all at their first opportunity.
    ffdl_fault::arm(FaultPlan::chaos(SEED, 1));
    // The bit flip fires on the first registry read while armed; the
    // checksum turns it into a typed Corrupt error (and consuming the
    // budget here keeps the later rollback's own load clean).
    match store.load_bytes("prod", Some(1)) {
        Err(RegistryError::Corrupt {
            name, generation, ..
        }) => {
            assert_eq!(name, "prod");
            assert_eq!(generation, 1);
        }
        other => panic!("expected injected Corrupt, got {other:?}"),
    }

    // Hot-swap onto the NaN model (server gen 3 = registry gen 2).
    server
        .swap_from_store(&store, "prod", Some(2))
        .expect("swap to NaN gen");
    assert_eq!(server.model_generation(), 3);

    // Wave 2: driven into the unhealthy model while the panic, spike
    // and NaN injection fire. The supervisor must quarantine server
    // gen 3 at the threshold and roll back through the registry.
    for id in 16..48u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 2");
    }
    wait_for("quarantine + auto-rollback", || server.auto_rollbacks() >= 1);
    assert_eq!(server.quarantined_generations(), vec![3]);
    assert_eq!(server.model_generation(), 4, "rolled back to a fresh generation");
    wait_for("wave 2 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100)); // stale engines re-clone

    // Wave 3: submitted after the rollback — served by the recovered
    // model (at most one stale in-flight batch may still fail typed).
    for id in 48..64u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 3");
    }

    let report = server.finish().expect("finish");
    let summary = ffdl_fault::disarm();

    // The campaign fired exactly its budget, deterministically.
    assert_eq!(summary.panics, 1, "one injected worker panic");
    assert_eq!(summary.latency_spikes, 1, "one injected latency spike");
    assert_eq!(summary.nan_activations, 1, "one injected NaN activation");
    assert_eq!(summary.bit_flips, 1, "one injected bit flip");

    // Zero lost responses: the 64 submitted ids partition exactly into
    // responses and typed failures.
    let mut seen: Vec<u64> = report
        .responses
        .iter()
        .map(|r| r.id)
        .chain(report.failures.iter().map(|f| f.id))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..64).collect::<Vec<u64>>(), "every id exactly once");

    // Every failure is typed, and the unhealthy generation is the one
    // that got quarantined. The panicking batch is bounded by max_batch.
    assert!(!report.failures.is_empty(), "the campaign must cause failures");
    let panics = report
        .failures
        .iter()
        .filter(|f| f.kind == FailureKind::WorkerPanic)
        .count();
    assert!((1..=4).contains(&panics), "one panicking batch, got {panics}");
    let unhealthy_gen3 = report
        .failures
        .iter()
        .filter(|f| f.kind == FailureKind::UnhealthyModel && f.generation == 3)
        .count();
    assert!(
        unhealthy_gen3 >= UNHEALTHY_THRESHOLD as usize,
        "quarantine needs >= {UNHEALTHY_THRESHOLD} unhealthy failures, got {unhealthy_gen3}"
    );
    for failure in &report.failures {
        assert_ne!(
            failure.kind,
            FailureKind::DeadlineExceeded,
            "30s deadlines must not expire in this run (id {})",
            failure.id
        );
        let _typed = failure.error(); // every failure maps to a ServeError
    }

    // Supervision counters made it into the report.
    assert_eq!(report.worker_restarts, 1, "panicked worker restarted once");
    assert_eq!(report.quarantines, 1);
    assert_eq!(report.auto_rollbacks, 1);
    assert_eq!(report.shed, 0);
    assert_eq!(report.expired, 0);
    assert_eq!(report.model_generation, 4);

    // The NaN generation never answered; every response is bit-identical
    // to the healthy model's offline predictions.
    for response in &report.responses {
        assert_ne!(response.generation, 3, "NaN generation produced a response");
        let want = &expected[response.id as usize];
        assert_eq!(response.prediction.label, want.label);
        assert_eq!(
            response.prediction.probabilities, want.probabilities,
            "response {} diverges from the healthy model",
            response.id
        );
    }
    // Post-rollback traffic was actually served by the recovered model.
    let wave3_on_gen4 = report
        .responses
        .iter()
        .filter(|r| r.id >= 48 && r.generation == 4)
        .count();
    assert!(
        wave3_on_gen4 >= 12,
        "recovered generation must serve post-rollback traffic, got {wave3_on_gen4}"
    );

    // The rollback is durable and bit-identical: registry gen 3 carries
    // gen 1's exact bytes and records its provenance.
    let v3 = store.latest("prod").expect("latest");
    assert_eq!(v3.generation, 3, "rollback published a new generation");
    assert_eq!(v3.rollback_of, Some(1));
    let (rollback_bytes, _) = store.load_bytes("prod", Some(3)).expect("gen 3 bytes");
    assert_eq!(
        rollback_bytes, gen1_bytes,
        "rollback bytes must be bit-identical to the original publish"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
