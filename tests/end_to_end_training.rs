//! Integration: end-to-end training of the paper's architectures on the
//! synthetic workloads — block-circulant networks must converge and stay
//! within a few points of their dense baselines (the paper's central
//! accuracy claim).

use ffdl::data::{mnist_preprocess, synthetic_mnist, MnistConfig};
use ffdl::paper;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

fn mnist(side: usize, n: usize, seed: u64) -> (ffdl::data::Dataset, ffdl::data::Dataset) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let raw = synthetic_mnist(n, &MnistConfig::default(), &mut rng).unwrap();
    let ds = mnist_preprocess(&raw, side).unwrap();
    ds.split_at(n * 5 / 6)
}

#[test]
fn arch1_circulant_converges_and_tracks_dense() {
    // Three model seeds, judged by their median. Training is chaotic in
    // the last bit of the transform: two kernels that agree with the f64
    // DFT to 1e-7 give the same loss to seven digits for five epochs and
    // then part ways, and a single seed scored on 100 images can land
    // either side of the threshold on rounding alone (seed 5 does). The
    // claim is about the architecture, not about one trajectory.
    let (train, test) = mnist(16, 600, 5);
    let mut circ_acc = Vec::new();
    let mut dense_acc = Vec::new();
    let mut gap = Vec::new();
    for seed in [5, 6, 7] {
        let mut rng = SmallRng::seed_from_u64(1);

        let mut circ = paper::arch1(seed);
        let rep_c =
            paper::train_classifier(&mut circ, &train, &test, 25, 32, Some(0.005), &mut rng)
                .unwrap();

        let mut dense = paper::arch1_dense(seed);
        let rep_d =
            paper::train_classifier(&mut dense, &train, &test, 25, 32, Some(0.02), &mut rng)
                .unwrap();

        assert!(circ.param_count() * 10 < dense.param_count());
        circ_acc.push(rep_c.test_accuracy);
        dense_acc.push(rep_d.test_accuracy);
        gap.push(rep_d.test_accuracy - rep_c.test_accuracy);
    }
    let median = |v: &mut Vec<f32>| {
        v.sort_by(f32::total_cmp);
        v[v.len() / 2]
    };

    assert!(
        median(&mut circ_acc) > 0.8,
        "circulant accuracies {circ_acc:?}"
    );
    assert!(
        median(&mut dense_acc) > 0.8,
        "dense accuracies {dense_acc:?}"
    );
    // Accuracy gap stays small while storage shrinks >10×.
    assert!(
        median(&mut gap) < 0.15,
        "gap too large: dense − circulant per seed {gap:?}"
    );
}

#[test]
fn arch2_converges_on_121_dim_inputs() {
    // Arch. 2 exercises the zero-padding path (121 does not divide by 32).
    let (train, test) = mnist(11, 600, 9);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut net = paper::arch2(9);
    let rep =
        paper::train_classifier(&mut net, &train, &test, 25, 32, Some(0.005), &mut rng).unwrap();
    assert!(rep.test_accuracy > 0.8, "accuracy {}", rep.test_accuracy);
    assert!(rep.final_loss < 0.3, "loss {}", rep.final_loss);
}

#[test]
fn frozen_spectral_network_is_equivalent_after_training() {
    let (train, test) = mnist(16, 300, 13);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut net = paper::arch1(13);
    let _ =
        paper::train_classifier(&mut net, &train, &test, 10, 32, Some(0.005), &mut rng).unwrap();

    let mut frozen = paper::freeze_spectral(&net).unwrap();
    let (x, _) = test.batch(&(0..test.len()).collect::<Vec<_>>());
    let y_train = net.forward(&x).unwrap();
    let y_frozen = frozen.forward(&x).unwrap();
    for (a, b) in y_train.as_slice().iter().zip(y_frozen.as_slice()) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
    // Deployment form stores spectra, not matrices: fewer logical values
    // read per inference than the dense equivalent.
    assert!(frozen.param_count() < frozen.logical_param_count() / 5);
}

#[test]
fn compression_accuracy_tradeoff_is_monotone_in_storage() {
    // Storage must shrink monotonically with block size; accuracy may
    // fluctuate but must stay usable through b = 64 (the paper's pick).
    let (train, test) = mnist(16, 600, 21);
    let mut params = Vec::new();
    let mut accs = Vec::new();
    for block in [8usize, 32, 64] {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut net = paper::arch1_with_block(21, block);
        let lr = (0.16 / block as f32).min(0.02);
        let rep =
            paper::train_classifier(&mut net, &train, &test, 25, 32, Some(lr), &mut rng).unwrap();
        params.push(net.param_count());
        accs.push(rep.test_accuracy);
    }
    assert!(params[0] > params[1] && params[1] > params[2], "{params:?}");
    assert!(accs.iter().all(|&a| a > 0.75), "accuracies {accs:?}");
}

#[test]
fn circulant_conv_network_trains_on_images() {
    use ffdl::core::CirculantConv2d;
    use ffdl::nn::{Dense, Flatten, MaxPool2d, Network, Relu};
    use ffdl::tensor::ConvGeometry;

    let mut rng = SmallRng::seed_from_u64(6);
    let raw = synthetic_mnist(300, &MnistConfig::default(), &mut rng).unwrap();
    let ds = ffdl::data::standardize(&raw).unwrap();
    let ds = ds
        .map_samples(|s| s.reshape(&[1, 28, 28]).unwrap())
        .unwrap();
    let (train, test) = ds.split_at(250);

    let mut net = Network::new();
    net.push(CirculantConv2d::new(1, 8, 28, 28, ConvGeometry::valid(5), 8, &mut rng).unwrap());
    net.push(Relu::new());
    net.push(MaxPool2d::new(2));
    net.push(Flatten::new());
    net.push(Dense::new(8 * 12 * 12, 10, &mut rng));

    let rep =
        paper::train_classifier(&mut net, &train, &test, 6, 25, Some(0.002), &mut rng).unwrap();
    assert!(rep.test_accuracy > 0.5, "accuracy {}", rep.test_accuracy);
}
