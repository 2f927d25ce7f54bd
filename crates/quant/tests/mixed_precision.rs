//! Mixed-precision serving: f32 and quantized generations of one model
//! coexist in the registry, and a live pool A/B hot-swaps between them
//! without losing a single response.
//!
//! The A/B test drives three waves — f32 → int16 → back to f32 — with
//! the pool drained between swaps, and checks every response
//! bit-identically against the *offline* predictions of the precision
//! that served it.

use ffdl_core::full_registry;
use ffdl_core::QuantBits;
use ffdl_deploy::{parse_architecture, InferenceEngine, Prediction};
use ffdl_quant::{model_bytes, quantize_network};
use ffdl_registry::ModelStore;
use ffdl_serve::{HealthConfig, ServeConfig, Server};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

const ARCH: &str = "\
input 16
circulant_fc 16 block=4
relu
fc 4
softmax
";

const REQUESTS: u64 = 96;

fn f32_network(seed: u64) -> ffdl_nn::Network {
    parse_architecture(ARCH, seed).expect("arch parses").network
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

/// Offline single-sample predictions of one registry generation.
fn offline_predictions(store: &ModelStore, generation: u64) -> Vec<Prediction> {
    let (net, _) = store
        .load("prod", Some(generation), &full_registry())
        .expect("load generation");
    let mut engine = InferenceEngine::new(net);
    (0..REQUESTS as usize)
        .map(|s| {
            engine
                .predict(&sample(s).reshape(&[1, 16]).expect("reshape"))
                .expect("offline predict")
                .remove(0)
        })
        .collect()
}

#[test]
fn registry_holds_mixed_precision_generations() {
    let dir = std::env::temp_dir().join(format!("ffdl-quant-registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");

    let f32_net = f32_network(7);
    store.publish("prod", &f32_net, "toy-f32").expect("publish f32");
    let q = quantize_network(&f32_net, QuantBits::Eight).expect("quantize");
    store.publish("prod", &q, "toy-int8").expect("publish int8");

    let versions = store.list("prod").expect("list");
    let archs: Vec<_> = versions.iter().map(|v| v.arch.as_str()).collect();
    assert_eq!(archs, ["toy-f32", "toy-int8"]);
    assert!(
        versions[1].bytes < versions[0].bytes,
        "int8 generation must be smaller: {} vs {}",
        versions[1].bytes,
        versions[0].bytes
    );

    // Both precisions load through the same registry, each onto its own
    // layer type.
    let layers = full_registry();
    let (a, _) = store.load("prod", Some(1), &layers).expect("load f32");
    let (b, _) = store.load("prod", Some(2), &layers).expect("load int8");
    assert_eq!(a.layers()[0].type_tag(), "circulant_dense");
    assert_eq!(b.layers()[0].type_tag(), "quantized_spectral_dense");
    assert_eq!(
        model_bytes(&b).expect("bytes") as u64,
        versions[1].bytes,
        "registry bytes match a fresh serialization"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ab_hot_swap_f32_int16_f32_loses_nothing() {
    let dir = std::env::temp_dir().join(format!("ffdl-quant-ab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).expect("open store");
    let layers = full_registry();

    // Registry gen 1: f32 parent. Gen 2: its int16 quantization.
    let f32_net = f32_network(100);
    store.publish("prod", &f32_net, "ab-f32").expect("publish f32");
    let quantized = quantize_network(&f32_net, QuantBits::Sixteen).expect("quantize");
    store
        .publish("prod", &quantized, "ab-int16")
        .expect("publish int16");

    let expected_f32 = offline_predictions(&store, 1);
    let expected_q = offline_predictions(&store, 2);

    let config = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_depth: 256,
        deadline: Some(Duration::from_secs(30)),
        health: HealthConfig {
            check_finite: true,
            unhealthy_threshold: 0,
        },
    };
    let (net, _) = store.load("prod", Some(1), &layers).expect("load gen 1");
    let server = Server::start(&net, &config).expect("start pool");
    server
        .swap_from_store(&store, "prod", Some(1))
        .expect("bind to registry gen 1");

    // Wave 1 on f32 (server gen 2), wave 2 on int16 (server gen 3),
    // wave 3 back on f32 (server gen 4) — the pool drains between
    // swaps so each wave maps to one precision.
    for id in 0..32u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 1");
    }
    wait_for("wave 1 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100));

    server
        .swap_from_store(&store, "prod", Some(2))
        .expect("swap to int16");
    assert_eq!(server.model_generation(), 3);
    for id in 32..64u64 {
        server.submit(id, sample(id as usize)).expect("submit wave 2");
    }
    wait_for("wave 2 to drain", || server.queue_len() == 0);
    std::thread::sleep(Duration::from_millis(100));

    server
        .swap_from_store(&store, "prod", Some(1))
        .expect("swap back to f32");
    assert_eq!(server.model_generation(), 4);
    for id in 64..REQUESTS {
        server.submit(id, sample(id as usize)).expect("submit wave 3");
    }

    let report = server.finish().expect("finish");

    // Zero lost responses, zero failures: every id answered exactly once.
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut seen: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..REQUESTS).collect::<Vec<u64>>());
    assert_eq!(report.quarantines, 0);
    assert_eq!(report.auto_rollbacks, 0);

    // Each response is bit-identical to the offline predictions of the
    // precision that served it (the generation is recorded per
    // response; a stale engine can only lag by one swap, which still
    // names the right model).
    let mut served_by_q = 0usize;
    for r in &report.responses {
        let want = match r.generation {
            // Gen 1 is the network the pool started on, before it was
            // bound to the registry — the same f32 weights as gen 2
            // (workers adopt a swap on their next batch, so the first
            // wave may still be answered by it).
            1 | 2 | 4 => &expected_f32[r.id as usize],
            3 => {
                served_by_q += 1;
                &expected_q[r.id as usize]
            }
            g => panic!("unexpected generation {g} for id {}", r.id),
        };
        assert_eq!(r.prediction.label, want.label, "id {}", r.id);
        assert_eq!(
            r.prediction.probabilities, want.probabilities,
            "id {} diverges from its precision's offline prediction",
            r.id
        );
    }
    // The quantized generation really served the middle wave.
    assert!(
        served_by_q >= 24,
        "int16 generation must serve most of wave 2, got {served_by_q}"
    );
    assert_eq!(report.model_generation, 4);

    let _ = std::fs::remove_dir_all(&dir);
}
