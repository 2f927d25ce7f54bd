//! Integration: the compression stack across crates — spectral freezing
//! and fixed-point quantization, and their interaction with training and
//! the platform model.

use ffdl::core::{BlockCirculantMatrix, CirculantDense, QuantBits, QuantizedSpectralDense};
use ffdl::data::{mnist_preprocess, synthetic_mnist, MnistConfig};
use ffdl::nn::{Layer, Network};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

fn trained_arch1() -> (Network, ffdl::data::Dataset) {
    let mut rng = SmallRng::seed_from_u64(41);
    let raw = synthetic_mnist(360, &MnistConfig::default(), &mut rng).unwrap();
    let ds = mnist_preprocess(&raw, 16).unwrap();
    let (train, test) = ds.split_at(300);
    let mut net = paper::arch1(41);
    let _ =
        paper::train_classifier(&mut net, &train, &test, 10, 30, Some(0.005), &mut rng).unwrap();
    (net, test)
}

/// Extracts (matrix, bias) pairs of the circulant layers of a network.
fn circulant_layers(net: &Network) -> Vec<(BlockCirculantMatrix, Tensor)> {
    net.layers()
        .iter()
        .filter(|l| l.type_tag() == "circulant_dense")
        .map(|l| {
            let config = l.config_bytes();
            let mut c = config.as_slice();
            let in_dim = ffdl::nn::wire::read_u32(&mut c).unwrap() as usize;
            let out_dim = ffdl::nn::wire::read_u32(&mut c).unwrap() as usize;
            let block = ffdl::nn::wire::read_u32(&mut c).unwrap() as usize;
            let params: Vec<Tensor> = l.param_tensors().into_iter().cloned().collect();
            (
                BlockCirculantMatrix::from_weights(in_dim, out_dim, block, params[0].clone())
                    .unwrap(),
                params[1].clone(),
            )
        })
        .collect()
}

#[test]
fn int16_quantization_preserves_trained_accuracy() {
    let (mut net, test) = trained_arch1();
    let (tx, ty) = test.batch(&(0..test.len()).collect::<Vec<_>>());
    let float_acc = net.accuracy(&tx, &ty).unwrap();

    // Rebuild the network with every circulant layer quantized to int16.
    let mut quantized = Network::new();
    let mut circ = circulant_layers(&net).into_iter();
    for layer in net.layers() {
        if layer.type_tag() == "circulant_dense" {
            let (m, bias) = circ.next().unwrap();
            quantized.push(QuantizedSpectralDense::from_matrix(&m, bias, QuantBits::Sixteen));
        } else {
            let registry = ffdl::core::full_registry();
            let mut rebuilt = registry.builder(layer.type_tag()).unwrap()(&layer.config_bytes())
                .unwrap();
            rebuilt
                .load_params(&layer.param_tensors().into_iter().cloned().collect::<Vec<_>>())
                .unwrap();
            quantized.push_boxed(rebuilt);
        }
    }

    let q_acc = quantized.accuracy(&tx, &ty).unwrap();
    assert!(
        (q_acc - float_acc).abs() < 0.05,
        "quantized {q_acc} vs float {float_acc}"
    );
}

#[test]
fn quantized_layer_storage_strictly_decreases() {
    let (net, _) = trained_arch1();
    for (m, bias) in circulant_layers(&net) {
        let q8 = QuantizedSpectralDense::from_matrix(&m, bias.clone(), QuantBits::Eight);
        let q16 = QuantizedSpectralDense::from_matrix(&m, bias, QuantBits::Sixteen);
        assert!(q8.storage_bytes() < q16.storage_bytes());
        assert!(q16.storage_bytes() < q16.float_storage_bytes());
        assert!(q16.float_storage_bytes() < q16.dense_storage_bytes());
    }
}

#[test]
fn spectral_and_quantized_layers_share_op_structure() {
    let mut rng = SmallRng::seed_from_u64(45);
    let layer = CirculantDense::new(128, 64, 32, &mut rng).unwrap();
    let frozen = ffdl::core::SpectralDense::from_matrix(layer.matrix(), layer.bias().clone());
    let quant = QuantizedSpectralDense::from_matrix(
        layer.matrix(),
        layer.bias().clone(),
        QuantBits::Sixteen,
    );
    // Same spectral arithmetic plus one scale multiply per output value
    // (64 outputs here); quantized reads fewer parameter bytes.
    assert_eq!(frozen.op_cost().mults + 64, quant.op_cost().mults);
    assert!(quant.op_cost().param_reads < frozen.op_cost().param_reads);
}
