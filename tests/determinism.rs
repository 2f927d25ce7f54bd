//! Determinism regression tests for the hermetic RNG stack: the same
//! seed must reproduce the same network, bit for bit, and the same
//! first-epoch training trajectory. This pins the in-house `ffdl-rng`
//! stream — if the generator, the seeding convention, or any consumer's
//! draw order changes, these tests fail and the change must be called
//! out as a reproducibility break.

use ffdl::data::{mnist_preprocess, synthetic_mnist, MnistConfig};
use ffdl::nn::{Network, Scratch};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

/// Flattens every parameter tensor of a network into raw f32 bit
/// patterns (bit equality is the standard, not approximate equality).
fn param_bits(net: &Network) -> Vec<u32> {
    net.layers()
        .iter()
        .flat_map(|l| l.param_tensors())
        .flat_map(|t| t.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_bit_identical_initial_weights() {
    for seed in [0u64, 1, 42, 0xDEADBEEF] {
        let a = paper::arch1(seed);
        let b = paper::arch1(seed);
        let (pa, pb) = (param_bits(&a), param_bits(&b));
        assert!(!pa.is_empty(), "arch1 must expose parameters");
        assert_eq!(pa, pb, "seed {seed}: initial weights diverge");

        let a2 = paper::arch2(seed);
        let b2 = paper::arch2(seed);
        assert_eq!(param_bits(&a2), param_bits(&b2), "seed {seed}: arch2 diverges");
    }
}

#[test]
fn different_seeds_give_different_weights() {
    // Guards against a degenerate RNG (e.g. a constant stream) that
    // would make the bit-identity test above pass vacuously.
    assert_ne!(param_bits(&paper::arch1(1)), param_bits(&paper::arch1(2)));
}

/// The batched inference path is a pure coalescing optimization: for
/// every representative layer stack — raw circulant, spectral-frozen
/// circulant, dense, and the conv front-end — `forward_batch_with` over a
/// set of samples must be *bit-identical* to the training `forward` of
/// each sample alone, which pins the network's two layer loops (and every
/// layer's `forward_infer` and `forward`) to each other.
#[test]
fn forward_batch_is_bit_identical_to_per_row_forward() {
    let cases: Vec<(&str, Network, Vec<usize>)> = vec![
        ("circulant", paper::arch1(5), vec![256]),
        (
            "spectral_frozen",
            paper::freeze_spectral(&paper::arch1(5)).unwrap(),
            vec![256],
        ),
        ("dense", paper::arch2_dense(5), vec![121]),
        ("conv", paper::arch3_reduced(5), vec![3, 16, 16]),
    ];
    for (name, mut net, shape) in cases {
        let samples: Vec<Tensor> = (0..5)
            .map(|s| Tensor::from_fn(&shape, |i| (((s * 1009 + i) * 31) % 97) as f32 / 97.0))
            .collect();
        let refs: Vec<&Tensor> = samples.iter().collect();
        let batched = net.forward_batch_with(&refs, &mut Scratch::new()).unwrap();
        for (r, sample) in samples.iter().enumerate() {
            let mut single_shape = vec![1];
            single_shape.extend_from_slice(&shape);
            let single = net
                .forward(&sample.reshape(&single_shape).unwrap())
                .unwrap();
            let batched_bits: Vec<u32> =
                batched.row(r).iter().map(|v| v.to_bits()).collect();
            let single_bits: Vec<u32> =
                single.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(batched_bits, single_bits, "{name}: row {r} diverges");
        }
    }
}

/// The serving runtime keeps that determinism end to end: under a fixed
/// seed, a 1-worker and a 4-worker server return bit-identical
/// predictions in identical (request-id) order.
#[test]
fn serve_results_identical_across_worker_counts() {
    use ffdl_serve::{run_closed_loop, ServeConfig};

    let samples: Vec<Tensor> = (0..48)
        .map(|s| Tensor::from_fn(&[256], |i| (((s * 256 + i) * 7) % 23) as f32 * 0.04))
        .collect();
    let run = |workers: usize| {
        let net = paper::arch1(9);
        let config = ServeConfig {
            workers,
            max_batch: 8,
            ..Default::default()
        };
        run_closed_loop(&net, &config, &samples).unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.requests, samples.len());
    assert_eq!(four.requests, samples.len());
    for (a, b) in one.responses.iter().zip(&four.responses) {
        assert_eq!(a.id, b.id, "response order diverges");
        assert_eq!(a.prediction.label, b.prediction.label);
        let pa: Vec<u32> = a.prediction.probabilities.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u32> = b.prediction.probabilities.iter().map(|v| v.to_bits()).collect();
        assert_eq!(pa, pb, "request {}: probabilities diverge", a.id);
    }
}

#[test]
fn same_seed_gives_identical_first_epoch() {
    let run = || {
        let mut rng = SmallRng::seed_from_u64(7);
        let raw = synthetic_mnist(120, &MnistConfig::default(), &mut rng).unwrap();
        let ds = mnist_preprocess(&raw, 16).unwrap();
        let (train, test) = ds.split_at(100);
        // Small block keeps this fast in debug builds.
        let mut net = paper::arch1_with_block(7, 16);
        let report =
            paper::train_classifier(&mut net, &train, &test, 1, 20, Some(0.01), &mut rng).unwrap();
        (report.final_loss.to_bits(), param_bits(&net))
    };
    let (loss_a, params_a) = run();
    let (loss_b, params_b) = run();
    assert_eq!(loss_a, loss_b, "first-epoch loss diverges under the same seed");
    assert_eq!(params_a, params_b, "post-epoch weights diverge under the same seed");
}
