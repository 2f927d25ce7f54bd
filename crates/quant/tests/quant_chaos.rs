//! Mixed-precision chaos: the seeded fault campaign fired at a
//! *quantized* generation, with auto-rollback landing on the f32
//! parent.
//!
//! Scenario: registry gen 1 is the healthy f32 parent, gen 2 is an
//! int16 quantization whose scales have been poisoned to NaN (modelling
//! a bad calibration shipped to production — structurally valid wire
//! bytes, non-finite outputs). The pool hot-swaps onto the quantized
//! generation while the `ffdl-fault` campaign injects a worker panic, a
//! latency spike, a NaN activation and a registry bit flip. Contract:
//!
//! * zero lost responses — every id answers or fails typed,
//! * the unhealthy quantized generation is quarantined at the
//!   threshold and the pool auto-rolls back through the registry,
//! * the rollback generation carries the f32 parent's **bit-identical**
//!   bytes, and every served response matches the parent's offline
//!   predictions bit for bit.
//!
//! ONE `#[test]` in this binary: the fault injector is process-global.

use ffdl_core::{full_registry, QuantBits};
use ffdl_deploy::{parse_architecture, InferenceEngine};
use ffdl_fault::FaultPlan;
use ffdl_nn::wire::QuantPayload;
use ffdl_quant::quantize_network;
use ffdl_registry::{ModelStore, RegistryError};
use ffdl_serve::{FailureKind, HealthConfig, ServeConfig, Server};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

// Block-circulant end to end: the (poisoned) final quantized layer
// feeds softmax directly, so its NaN logits reach the finiteness check
// (a ReLU between them would squash NaN to 0).
const ARCH: &str = "\
input 16
circulant_fc 16 block=4
relu
circulant_fc 4 block=4
softmax
";

const SEED: u64 = 0xFFD1_0B17;
const UNHEALTHY_THRESHOLD: u32 = 6;

fn f32_network(seed: u64) -> ffdl_nn::Network {
    parse_architecture(ARCH, seed).expect("arch parses").network
}

/// An int16 quantization of `parent` with every scale poisoned to NaN:
/// the wire format stays valid (NaN is a legal f32 on disk), but every
/// forward produces non-finite logits, so the finiteness check fails
/// each batch.
fn poisoned_quantized(parent: &ffdl_nn::Network) -> ffdl_nn::Network {
    let mut q = quantize_network(parent, QuantBits::Sixteen).expect("quantize");
    let mut poisoned = 0;
    for layer in q.layers_mut() {
        if let Some(payload) = layer.quant_payload() {
            let bad = QuantPayload {
                scales: vec![f32::NAN; payload.scales.len()],
                ..payload
            };
            layer.load_quant_payload(&bad).expect("install NaN scales");
            poisoned += 1;
        }
    }
    assert!(poisoned > 0, "no quantized layer to poison");
    q
}

fn sample(s: usize) -> Tensor {
    Tensor::from_fn(&[16], |i| (((s * 16 + i) * 13) % 31) as f32 * 0.05)
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn chaos_on_quantized_generation_rolls_back_to_f32_parent() {
    let dir = std::env::temp_dir().join(format!("ffdl-quant-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    let layers = full_registry();

    // Gen 1: healthy f32 parent. Gen 2: the poisoned int16 quantization.
    let parent = f32_network(100);
    store
        .publish("prod", &parent, "chaos-f32")
        .expect("publish f32 gen 1");
    store
        .publish("prod", &poisoned_quantized(&parent), "chaos-int16")
        .expect("publish poisoned int16 gen 2");
    let (gen1_bytes, _) = store.load_bytes("prod", Some(1)).expect("gen 1 bytes");

    // Bit-exact reference: offline predictions of the f32 parent.
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
    let (net, _) = store.load("prod", Some(1), &layers).expect("load gen 1");
    let server = Server::start(&net, &config).expect("start pool");
    server
        .swap_from_store(&store, "prod", Some(1))
        .expect("bind to registry gen 1");

    // Wave 1: healthy f32 traffic, injector disarmed.
    for id in 0..16u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 1");
    }
    wait_for("wave 1 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100));

    // Arm the campaign; the bit flip fires on the next registry read
    // and surfaces as a typed Corrupt (consuming that budget keeps the
    // later rollback's load clean).
    ffdl_fault::arm(FaultPlan::chaos(SEED, 1));
    match store.load_bytes("prod", Some(1)) {
        Err(RegistryError::Corrupt { name, generation, .. }) => {
            assert_eq!(name, "prod");
            assert_eq!(generation, 1);
        }
        other => panic!("expected injected Corrupt, got {other:?}"),
    }

    // Hot-swap onto the poisoned quantized generation (server gen 3).
    server
        .swap_from_store(&store, "prod", Some(2))
        .expect("swap to poisoned int16");
    assert_eq!(server.model_generation(), 3);

    // Wave 2: driven into the quantized model while the panic, spike
    // and NaN injection fire. The supervisor must quarantine and roll
    // back onto the f32 parent.
    for id in 16..48u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 2");
    }
    wait_for("quarantine + auto-rollback", || server.auto_rollbacks() >= 1);
    assert_eq!(server.quarantined_generations(), vec![3]);
    assert_eq!(server.model_generation(), 4);
    wait_for("wave 2 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100));

    // Wave 3: served by the recovered f32 parent.
    for id in 48..64u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 3");
    }

    let report = server.finish().expect("finish");
    let summary = ffdl_fault::disarm();
    assert_eq!(summary.panics, 1);
    assert_eq!(summary.latency_spikes, 1);
    assert_eq!(summary.nan_activations, 1);
    assert_eq!(summary.bit_flips, 1);

    // Zero lost responses.
    let mut seen: Vec<u64> = report
        .responses
        .iter()
        .map(|r| r.id)
        .chain(report.failures.iter().map(|f| f.id))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..64).collect::<Vec<u64>>(), "every id exactly once");

    // The quantized generation was quarantined on typed failures.
    let unhealthy_gen3 = report
        .failures
        .iter()
        .filter(|f| f.kind == FailureKind::UnhealthyModel && f.generation == 3)
        .count();
    assert!(
        unhealthy_gen3 >= UNHEALTHY_THRESHOLD as usize,
        "quarantine needs >= {UNHEALTHY_THRESHOLD} unhealthy failures, got {unhealthy_gen3}"
    );
    assert_eq!(report.quarantines, 1);
    assert_eq!(report.auto_rollbacks, 1);
    assert_eq!(report.model_generation, 4);

    // The poisoned generation never answered; every response matches
    // the f32 parent's offline predictions bit for bit.
    for response in &report.responses {
        assert_ne!(response.generation, 3, "poisoned generation answered");
        let want = &expected[response.id as usize];
        assert_eq!(response.prediction.label, want.label);
        assert_eq!(
            response.prediction.probabilities, want.probabilities,
            "response {} diverges from the f32 parent",
            response.id
        );
    }

    // The rollback is durable and lands on the f32 parent's exact
    // bytes, with provenance recorded.
    let latest = store.latest("prod").expect("latest");
    assert_eq!(latest.generation, 3);
    assert_eq!(latest.rollback_of, Some(1));
    assert_eq!(latest.arch, "chaos-f32", "rollback inherits the parent's label");
    let (rollback_bytes, _) = store.load_bytes("prod", Some(3)).expect("gen 3 bytes");
    assert_eq!(rollback_bytes, gen1_bytes, "bit-identical rollback");

    let _ = std::fs::remove_dir_all(&dir);
}
