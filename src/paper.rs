//! The exact network architectures evaluated in the paper (§V), as
//! ready-made constructors, plus their uncompressed baselines and the
//! training recipe (SGD, lr 0.001, momentum 0.9 — §V-C).
//!
//! | name | paper description | input |
//! |---|---|---|
//! | Arch. 1 | 256 − 128F − 128F − 10 softmax, block-circulant FC | MNIST resized 16×16 |
//! | Arch. 2 | 121 − 64F − 64F − 10 softmax, block-circulant FC | MNIST resized 11×11 |
//! | Arch. 3 | 3×32×32 − 64Conv3 − 64Conv3 − 128Conv3 − 128Conv3 − 512F − 1024F − 1024F − 10F | CIFAR-10 |
//!
//! For Arch. 3, the paper keeps the first two CONV layers dense
//! ("traditional convolutional layers (no block circulant), which is
//! treated as preprocessing") and compresses everything after them.
//! The paper does not state its FC block sizes; following its Table II
//! storage discussion we use the largest block that divides the smaller
//! layer dimension (64 for Arch. 1, 32 for Arch. 2, 64 for the Arch. 3
//! FC stack), which is also where our ablation A1 places the
//! accuracy/compression knee.

use ffdl_core::{CirculantConv2d, CirculantDense, SpectralDense};
use ffdl_data::Dataset;
use ffdl_nn::{
    copy_layer, Conv2d, Dense, Flatten, Network, NnError, Relu, Sgd, Softmax, SoftmaxCrossEntropy,
};
use ffdl_tensor::ConvGeometry;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::{Rng, SeedableRng};

/// Block size used by the Arch. 1 FC layers.
pub const ARCH1_BLOCK: usize = 64;
/// Block size used by the Arch. 2 FC layers.
pub const ARCH2_BLOCK: usize = 32;
/// Block size used by the Arch. 3 compressed layers.
pub const ARCH3_BLOCK: usize = 64;

/// MNIST Arch. 1: 256 − 128 − 128 − 10, block-circulant FC (block 64).
pub fn arch1(seed: u64) -> Network {
    arch1_with_block(seed, ARCH1_BLOCK)
}

/// Arch. 1 with an explicit block size (the ablation A1 knob; `block = 1`
/// is effectively dense storage).
pub fn arch1_with_block(seed: u64, block: usize) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(CirculantDense::new(256, 128, block, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(CirculantDense::new(128, 128, block, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(Dense::new(128, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// Uncompressed Arch. 1 baseline: same topology, dense FC layers.
pub fn arch1_dense(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Dense::new(256, 128, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(128, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// MNIST Arch. 2: 121 − 64 − 64 − 10, block-circulant FC (block 32).
pub fn arch2(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(CirculantDense::new(121, 64, ARCH2_BLOCK, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(CirculantDense::new(64, 64, ARCH2_BLOCK, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(Dense::new(64, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// Uncompressed Arch. 2 baseline.
pub fn arch2_dense(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(Dense::new(121, 64, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(64, 64, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(64, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// CIFAR-10 Arch. 3 exactly as §V-C lists it:
/// `3×32×32 − 64Conv3 − 64Conv3 − 128Conv3 − 128Conv3 − 512F − 1024F −
/// 1024F − 10F`, first two CONV layers dense, the rest block-circulant.
///
/// Spatial flow (valid convolutions): 32 → 30 → 28 → 26 → 24, so the
/// flatten feeds `128·24·24 = 73 728` features into the 512-wide FC.
pub fn arch3(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = ConvGeometry::valid(3);
    let mut net = Network::new();
    // "The first two convolutional layers are traditional" (§V-C).
    net.push(Conv2d::new(3, 64, 32, 32, g, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(Conv2d::new(64, 64, 30, 30, g, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(
        CirculantConv2d::new(64, 128, 28, 28, g, ARCH3_BLOCK, &mut rng)
            .expect("static dims are valid"),
    );
    net.push(Relu::new());
    net.push(
        CirculantConv2d::new(128, 128, 26, 26, g, ARCH3_BLOCK, &mut rng)
            .expect("static dims are valid"),
    );
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(
        CirculantDense::new(128 * 24 * 24, 512, ARCH3_BLOCK, &mut rng)
            .expect("static dims are valid"),
    );
    net.push(Relu::new());
    net.push(CirculantDense::new(512, 1024, ARCH3_BLOCK, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(
        CirculantDense::new(1024, 1024, ARCH3_BLOCK, &mut rng).expect("static dims are valid"),
    );
    net.push(Relu::new());
    net.push(Dense::new(1024, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// A proportionally scaled-down Arch. 3 (16×16 inputs, quarter widths)
/// that trains in seconds on a host — used by tests and the accuracy leg
/// of Table III, with the full [`arch3`] used for the runtime leg.
pub fn arch3_reduced(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = ConvGeometry::valid(3);
    let mut net = Network::new();
    net.push(Conv2d::new(3, 16, 16, 16, g, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(
        CirculantConv2d::new(16, 32, 14, 14, g, 16, &mut rng).expect("static dims are valid"),
    );
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(CirculantDense::new(32 * 12 * 12, 128, 32, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(CirculantDense::new(128, 128, 32, &mut rng).expect("static dims are valid"));
    net.push(Relu::new());
    net.push(Dense::new(128, 10, &mut rng));
    net.push(Softmax::new());
    net
}

/// Architecture-file text for Arch. 1 (consumed by
/// `ffdl_deploy::parse_architecture`).
pub const ARCH1_TEXT: &str = "\
# MNIST Arch. 1 (Lin et al., DATE 2018, SS V-B)
input 256
circulant_fc 128 block=64
relu
circulant_fc 128 block=64
relu
fc 10
softmax
";

/// Architecture-file text for Arch. 2.
pub const ARCH2_TEXT: &str = "\
# MNIST Arch. 2 (Lin et al., DATE 2018, SS V-B)
input 121
circulant_fc 64 block=32
relu
circulant_fc 64 block=32
relu
fc 10
softmax
";

/// Architecture-file text for Arch. 3.
pub const ARCH3_TEXT: &str = "\
# CIFAR-10 Arch. 3 (Lin et al., DATE 2018, SS V-C)
input 3x32x32
conv 64 kernel=3
relu
conv 64 kernel=3
relu
circulant_conv 128 kernel=3 block=64
relu
circulant_conv 128 kernel=3 block=64
relu
flatten
circulant_fc 512 block=64
relu
circulant_fc 1024 block=64
relu
circulant_fc 1024 block=64
relu
fc 10
softmax
";

/// Freezes a trained network into its deployment form: every
/// `circulant_dense` layer is replaced by a [`SpectralDense`] holding
/// precomputed `FFT(wᵢ)` spectra — "we can simply keep the FFT result
/// FFT(wᵢ) … instead of the whole matrix W" (§IV-A). All other layers
/// are copied through [`copy_layer`].
///
/// The frozen network is inference-only (its spectral layers reject
/// `backward`).
///
/// # Errors
///
/// Returns [`NnError`] when a layer without a structural clone is
/// unknown to the registry.
pub fn freeze_spectral(net: &Network) -> Result<Network, NnError> {
    let registry = ffdl_core::full_registry();
    let mut frozen = Network::new();
    for layer in net.layers() {
        let circulant = layer
            .as_any()
            .and_then(|any| any.downcast_ref::<CirculantDense>());
        match circulant {
            Some(cd) => frozen.push(SpectralDense::from_matrix(cd.matrix(), cd.bias().clone())),
            None => frozen.push_boxed(copy_layer(layer.as_ref(), &registry)?),
        }
    }
    Ok(frozen)
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Final-epoch mean training loss.
    pub final_loss: f32,
    /// Accuracy on the held-out set after training.
    pub test_accuracy: f32,
    /// Epochs run.
    pub epochs: usize,
}

/// Trains a classifier with the paper's recipe (SGD + momentum 0.9) and
/// evaluates on a test set.
///
/// The learning rate defaults to the paper's 0.001 when `lr` is `None`;
/// small synthetic runs typically use a larger rate to converge within a
/// few epochs.
///
/// If the network ends in a `softmax` layer (as the paper's
/// architectures do), it is detached during training so the fused
/// [`SoftmaxCrossEntropy`] loss sees raw logits, and reattached before
/// evaluation — applying softmax twice would flatten the gradients.
///
/// # Errors
///
/// Propagates layer/loss errors (shape mismatches between network and
/// data).
pub fn train_classifier<R: Rng>(
    net: &mut Network,
    train: &Dataset,
    test: &Dataset,
    epochs: usize,
    batch_size: usize,
    lr: Option<f32>,
    rng: &mut R,
) -> Result<TrainReport, NnError> {
    let trailing_softmax = if net
        .layers()
        .last()
        .is_some_and(|l| l.type_tag() == "softmax")
    {
        net.pop_layer()
    } else {
        None
    };

    let loss = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::with_momentum(lr.unwrap_or(0.001), 0.9);
    let mut final_loss = f32::NAN;
    let mut result: Result<(), NnError> = Ok(());
    'outer: for _ in 0..epochs {
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for (x, y) in train.shuffled_batches(batch_size, rng) {
            match net.train_batch(&x, &y, &loss, &mut opt) {
                Ok(l) => total += l,
                Err(e) => {
                    result = Err(e);
                    break 'outer;
                }
            }
            batches += 1;
        }
        final_loss = total / batches.max(1) as f32;
    }
    // Always reattach the softmax, even on error paths.
    if let Some(softmax) = trailing_softmax {
        net.push_boxed(softmax);
    }
    result?;

    let (tx, ty) = test.batch(&(0..test.len()).collect::<Vec<_>>());
    let test_accuracy = net.accuracy(&tx, &ty)?;
    Ok(TrainReport {
        final_loss,
        test_accuracy,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_tensor::Tensor;

    #[test]
    fn arch1_shapes_and_compression() {
        let mut net = arch1(1);
        let y = net.forward(&Tensor::zeros(&[2, 256])).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
        // Circulant layers compress 256·128 + 128·128 down to 512 + 256.
        let dense = arch1_dense(1);
        assert!(net.param_count() < dense.param_count() / 10);
        assert_eq!(net.logical_param_count(), dense.param_count());
    }

    #[test]
    fn arch2_shapes() {
        let mut net = arch2(2);
        let y = net.forward(&Tensor::zeros(&[1, 121])).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
        assert!(net.compression_ratio() > 3.0);
        let mut dense = arch2_dense(2);
        let y = dense.forward(&Tensor::zeros(&[1, 121])).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn arch3_reduced_forward() {
        let mut net = arch3_reduced(3);
        let y = net.forward(&Tensor::zeros(&[1, 3, 16, 16])).unwrap();
        assert_eq!(y.shape(), &[1, 10]);
    }

    #[test]
    fn arch_texts_parse_to_matching_shapes() {
        use ffdl_deploy::{parse_architecture, Shape};
        let p1 = parse_architecture(ARCH1_TEXT, 0).unwrap();
        assert_eq!(p1.input_shape, Shape::Flat(256));
        assert_eq!(p1.output_shape, Shape::Flat(10));
        assert_eq!(p1.network.param_count(), arch1(0).param_count());

        let p2 = parse_architecture(ARCH2_TEXT, 0).unwrap();
        assert_eq!(p2.input_shape, Shape::Flat(121));
        assert_eq!(p2.network.param_count(), arch2(0).param_count());
    }

    #[test]
    fn arch3_text_parses() {
        use ffdl_deploy::{parse_architecture, Shape};
        let p3 = parse_architecture(ARCH3_TEXT, 0).unwrap();
        assert_eq!(p3.input_shape, Shape::Image(3, 32, 32));
        assert_eq!(p3.output_shape, Shape::Flat(10));
        assert_eq!(p3.network.param_count(), arch3(0).param_count());
    }

    #[test]
    fn freeze_spectral_preserves_outputs() {
        let mut net = arch1(8);
        let frozen = freeze_spectral(&net);
        let mut frozen = frozen.unwrap();
        let x = Tensor::from_fn(&[3, 256], |i| ((i * 31 + 7) % 17) as f32 * 0.1 - 0.8);
        let y = net.forward(&x).unwrap();
        let yf = frozen.forward(&x).unwrap();
        for (a, b) in y.as_slice().iter().zip(yf.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Frozen layers are spectral.
        assert_eq!(frozen.layers()[0].type_tag(), "spectral_dense");
        // And the frozen network is lighter to run (no weight FFTs).
        assert!(frozen.op_cost().mults < net.op_cost().mults);
    }

    #[test]
    fn training_recipe_converges_on_small_task() {
        use ffdl_data::{mnist_preprocess, synthetic_mnist, MnistConfig};
        let mut rng = SmallRng::seed_from_u64(4);
        let raw = synthetic_mnist(300, &MnistConfig::default(), &mut rng).unwrap();
        let ds = mnist_preprocess(&raw, 16).unwrap();
        let (train, test) = ds.split_at(240);
        // Block 16 keeps this fast in debug builds; the full b=64 run is
        // exercised by the Table II regenerator and integration tests.
        let mut net = arch1_with_block(4, 16);
        let report =
            train_classifier(&mut net, &train, &test, 12, 20, Some(0.01), &mut rng).unwrap();
        assert!(
            report.test_accuracy > 0.7,
            "accuracy {}",
            report.test_accuracy
        );
        assert!(report.final_loss < 0.5, "loss {}", report.final_loss);
        // The trailing softmax must have been reattached.
        assert_eq!(net.layers().last().unwrap().type_tag(), "softmax");
    }
}
