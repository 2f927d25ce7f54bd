//! Integration: the Fig. 4 pipeline across crates — train with
//! `ffdl-core`/`ffdl-nn`, serialize, rebuild through `ffdl-deploy`'s
//! parsers, and verify bit-identical behaviour; plus the model-format
//! registry round trip with circulant layers.

use ffdl::core::full_registry;
use ffdl::data::{mnist_preprocess, synthetic_mnist, MnistConfig};
use ffdl::deploy::{
    format_inputs, parse_architecture, parse_inputs, read_parameters_into, write_parameters,
    InferenceEngine,
};
use ffdl::core::CirculantConv2d;
use ffdl::nn::{load_network, save_network, Dense, Flatten, Network, NnError, Relu};
use ffdl::paper;
use ffdl::tensor::{ConvGeometry, Tensor};
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

fn trained_arch2() -> (ffdl::nn::Network, ffdl::data::Dataset) {
    let mut rng = SmallRng::seed_from_u64(31);
    let raw = synthetic_mnist(360, &MnistConfig::default(), &mut rng).unwrap();
    let ds = mnist_preprocess(&raw, 11).unwrap();
    let (train, test) = ds.split_at(300);
    let mut net = paper::arch2(31);
    let _ = paper::train_classifier(&mut net, &train, &test, 10, 30, Some(0.005), &mut rng)
        .unwrap();
    (net, test)
}

#[test]
fn full_pipeline_preserves_predictions() {
    let (trained, test) = trained_arch2();

    // Ship: architecture text + parameters blob + labelled inputs file.
    let mut params = Vec::new();
    write_parameters(&trained, &mut params).unwrap();
    let (x, y) = test.batch(&(0..test.len()).collect::<Vec<_>>());
    let inputs_text = format_inputs(&x, Some(&y));

    // Device: parse, load, infer.
    let mut device_net = parse_architecture(paper::ARCH2_TEXT, 0).unwrap().network;
    read_parameters_into(&mut device_net, &params[..]).unwrap();
    let parsed = parse_inputs(inputs_text.as_bytes()).unwrap();
    let mut engine = InferenceEngine::new(device_net);
    let device_preds = engine.predict(&parsed.features).unwrap();

    // Trainer-side predictions must match exactly.
    let mut trained = trained;
    let host_preds = trained.predict(&x).unwrap();
    assert_eq!(device_preds.len(), host_preds.len());
    for (d, h) in device_preds.iter().zip(&host_preds) {
        assert_eq!(d.label, *h);
    }
}

#[test]
fn model_format_roundtrips_circulant_networks() {
    let (mut trained, test) = trained_arch2();
    let mut file = Vec::new();
    save_network(&trained, &mut file).unwrap();
    let mut loaded = load_network(&file[..], &full_registry()).unwrap();

    let (x, _) = test.batch(&(0..20).collect::<Vec<_>>());
    let y1 = trained.forward(&x).unwrap();
    let y2 = loaded.forward(&x).unwrap();
    assert_eq!(y1.as_slice(), y2.as_slice());
    assert_eq!(loaded.param_count(), trained.param_count());
    assert_eq!(
        loaded.logical_param_count(),
        trained.logical_param_count()
    );
}

#[test]
fn frozen_spectral_network_roundtrips_through_model_format() {
    let (trained, test) = trained_arch2();
    let frozen = paper::freeze_spectral(&trained).unwrap();

    // A frozen network ships its spectra through `param_tensors` (held
    // by ffdl-core's `every_layer_type_survives_the_wire_and_the_copy`);
    // here the trained network round-trips the model format and, frozen
    // again, still predicts like the network frozen before the trip.
    let mut file = Vec::new();
    save_network(&trained, &mut file).unwrap();
    let loaded = load_network(&file[..], &full_registry()).unwrap();
    let mut refrozen = paper::freeze_spectral(&loaded).unwrap();

    let (x, _) = test.batch(&(0..10).collect::<Vec<_>>());
    let mut frozen = frozen;
    let y1 = frozen.forward(&x).unwrap();
    let y2 = refrozen.forward(&x).unwrap();
    for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn architecture_texts_and_builders_agree_for_all_archs() {
    type Builder = fn(u64) -> ffdl::nn::Network;
    let cases: [(&str, Builder); 2] = [
        (paper::ARCH1_TEXT, paper::arch1),
        (paper::ARCH2_TEXT, paper::arch2),
    ];
    for (text, build) in cases {
        let parsed = parse_architecture(text, 7).unwrap().network;
        let built = build(7);
        assert_eq!(parsed.len(), built.len());
        assert_eq!(parsed.param_count(), built.param_count());
        for (a, b) in parsed.layers().iter().zip(built.layers()) {
            assert_eq!(a.type_tag(), b.type_tag());
            assert_eq!(a.config_bytes(), b.config_bytes());
        }
    }
}

#[test]
fn corrupted_artifacts_are_rejected_cleanly() {
    let (trained, _) = trained_arch2();
    let mut params = Vec::new();
    write_parameters(&trained, &mut params).unwrap();

    // Flip a header byte: magic check must fire, not a panic.
    let mut bad = params.clone();
    bad[0] ^= 0xFF;
    let mut net = parse_architecture(paper::ARCH2_TEXT, 0).unwrap().network;
    assert!(read_parameters_into(&mut net, &bad[..]).is_err());

    // Truncate: must be an I/O error, not a panic.
    let mut short = params.clone();
    short.truncate(short.len() / 2);
    let mut net = parse_architecture(paper::ARCH2_TEXT, 0).unwrap().network;
    assert!(read_parameters_into(&mut net, &short[..]).is_err());

    // Wrong architecture: shape mismatch reported.
    let mut net = parse_architecture(paper::ARCH1_TEXT, 0).unwrap().network;
    assert!(read_parameters_into(&mut net, &params[..]).is_err());
}

/// §IV-A's deployable form ("simply keep the FFT result FFT(wᵢ)") ships:
/// a frozen network predicts bit-identically after the model format and
/// after a registry publish → load — the store must not accept a model
/// its own `load` then refuses.
#[test]
fn frozen_network_survives_the_model_format_and_the_registry() {
    use ffdl_registry::ModelStore;
    let trained = paper::arch1(5);
    let frozen = || paper::freeze_spectral(&trained).unwrap();
    let x = Tensor::from_fn(&[3, 256], |i| (i as f32 * 0.37).sin());
    let predict = |net: Network| InferenceEngine::new(net).predict(&x).unwrap();
    let expected = predict(frozen());

    let mut file = Vec::new();
    save_network(&frozen(), &mut file).unwrap();
    let loaded = load_network(&file[..], &full_registry()).unwrap();
    assert_eq!(loaded.param_count(), frozen().param_count());
    assert_eq!(predict(loaded), expected);

    let dir = std::env::temp_dir().join(format!("ffdl-frozen-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ModelStore::open(&dir).unwrap();
    store.publish("arch1", &frozen(), "arch1-frozen").unwrap();
    let (stored, _) = store.load("arch1", None, &full_registry()).unwrap();
    assert_eq!(predict(stored), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A serving engine retains no training state: `predict` runs the
/// inference pass, so a following `backward` finds no forward cache — on
/// the network as a whole and on every trainable layer in it.
#[test]
fn predict_leaves_no_backward_cache() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut conv = Network::new();
    conv.push(CirculantConv2d::new(2, 4, 6, 6, ConvGeometry::valid(3), 4, &mut rng).unwrap());
    conv.push(Relu::new());
    conv.push(Flatten::new());
    conv.push(Dense::new(4 * 4 * 4, 3, &mut rng));
    let cases = [
        ("arch1", paper::arch1(3), vec![2, 256]),
        ("frozen", paper::freeze_spectral(&paper::arch1(3)).unwrap(), vec![2, 256]),
        ("circulant_conv", conv, vec![2, 2, 6, 6]),
    ];
    for (name, net, shape) in cases {
        let mut engine = InferenceEngine::new(net);
        let x = Tensor::from_fn(&shape, |i| (i as f32 * 0.37).sin());
        let classes = engine.predict(&x).unwrap()[0].probabilities.len();
        let grad = Tensor::zeros(&[2, classes]);
        let net = engine.network_mut();
        assert!(
            matches!(net.backward(&grad), Err(NnError::NoForwardCache(_))),
            "{name}: predict armed backward"
        );
        for layer in net.layers_mut() {
            if !layer.parameters().is_empty() {
                assert!(
                    matches!(layer.backward(&grad), Err(NnError::NoForwardCache(_))),
                    "{name}: {} kept a backward cache",
                    layer.type_tag()
                );
            }
        }
    }
}
