//! Stacking the paper's block-circulant compression with fixed-point
//! quantization of the stored spectra (the §II "weight precision
//! reduction" line of related work): dense f32 → circulant f32 →
//! circulant int16/int8, tracking wire-format model bytes,
//! accuracy, and top-1 agreement with the f32 parent.
//!
//! The quantized networks are built by `ffdl-quant` — the same
//! dequantization-free deployment form the registry stores as
//! version-3 files and the serve pool hot-swaps against f32 parents.
//!
//! Run with: `cargo run --release --example quantized_deployment`
//!
//! The accuracy-vs-bits sweep table in EXPERIMENTS.md §A4 is this
//! program's output.

use ffdl::core::QuantBits;
use ffdl::data::{mnist_preprocess, synthetic_mnist, MnistConfig};
use ffdl::paper;
use ffdl_quant::{model_bytes, quantize_network, top1_agreement};
use ffdl_rng::SeedableRng;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    println!("== Compression stack: block-circulant × fixed-point quantization ==\n");

    // Train Arch. 1 on the synthetic MNIST workload.
    let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(33);
    let raw = synthetic_mnist(1200, &MnistConfig::default(), &mut rng)?;
    let ds = mnist_preprocess(&raw, 16)?;
    let (train, test) = ds.split_at(1000);
    let mut net = paper::arch1(33);
    let report = paper::train_classifier(&mut net, &train, &test, 40, 32, Some(0.005), &mut rng)?;
    let (tx, ty) = test.batch(&(0..test.len()).collect::<Vec<_>>());

    // Reference points. The dense row is the logical parameter count at
    // f32; the other rows are exact wire-format file sizes.
    let dense_bytes = net.logical_param_count() * 4;
    let circ_bytes = model_bytes(&net)?;
    println!(
        "{:<28} {:>12} {:>12} {:>10} {:>12}",
        "model", "bytes", "vs dense", "accuracy", "f32 top-1"
    );
    println!(
        "{:<28} {:>12} {:>11.1}x {:>10} {:>12}",
        "dense f32 (logical size)", dense_bytes, 1.0, "-", "-"
    );
    println!(
        "{:<28} {:>12} {:>11.1}x {:>9.2}% {:>12}",
        "block-circulant f32",
        circ_bytes,
        dense_bytes as f64 / circ_bytes as f64,
        report.test_accuracy * 100.0,
        "100.00%",
    );

    for bits in [QuantBits::Sixteen, QuantBits::Eight] {
        let mut qnet = quantize_network(&net, bits)?;
        let bytes = model_bytes(&qnet)?;
        let acc = qnet.accuracy(&tx, &ty)?;
        let agreement = top1_agreement(&mut net, &mut qnet, &tx)?;
        println!(
            "{:<28} {:>12} {:>11.1}x {:>9.2}% {:>11.2}%",
            format!("block-circulant {bits}"),
            bytes,
            dense_bytes as f64 / bytes as f64,
            acc * 100.0,
            agreement as f64 * 100.0,
        );
    }

    println!(
        "\nreading: int16 spectra are decision-lossless — top-1\n\
         agreement with the f32 parent stays at/near 100% while the spectral payload\n\
         halves (the residual f32 dense output layer now dominates the file). int8\n\
         trades a little agreement for another 2x on the circulant payload. The\n\
         quantized files are ordinary version-3 registry citizens: `ffdl model\n\
         quantize` publishes them and the serve pool A/B-swaps them live."
    );
    Ok(())
}
