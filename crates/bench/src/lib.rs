//! # ffdl-bench — experiment harness
//!
//! Shared plumbing for the binaries and benches that regenerate every
//! table and figure of *"FFT-Based Deep Learning Deployment in
//! Embedded Systems"* (Lin et al., DATE 2018). See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//!
//! Benches run on the in-house [`harness`] (no Criterion): each
//! `cargo bench -p ffdl-bench --bench <name>` run prints a median/p95
//! table and writes `BENCH_<name>.json` at the workspace root, seeding
//! the cross-PR perf trajectory.
//!
//! Regenerators (run with `cargo run -p ffdl-bench --release --bin <name>`):
//!
//! | bin | reproduces |
//! |---|---|
//! | `table1` | Table I — platform specifications |
//! | `table2` | Table II — MNIST core runtime per inference round |
//! | `table3` | Table III — CIFAR-10 core runtime |
//! | `fig1`   | Fig. 1 — FFT `O(n log n)` vs DFT `O(n²)` scaling |
//! | `fig2`   | Fig. 2 — FFT kernel vs direct circulant mat-vec |
//! | `fig5`   | Fig. 5 — accuracy vs performance scatter vs IBM TrueNorth |
//! | `ablation_block_size` | A1 — compression/accuracy trade-off over b |
//! | `baseline_fft_conv` | A3 — dense vs FFT \[11\] ([`fft_conv`]) vs block-circulant CONV |

pub mod fft_conv;
pub mod harness;

use ffdl::data::{
    mnist_preprocess, synthetic_cifar, synthetic_mnist, CifarConfig, Dataset, MnistConfig,
};
use ffdl::nn::Network;
use ffdl::paper::{self, TrainReport};
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

/// IBM TrueNorth reference points quoted by the paper (§V-D): MNIST from
/// \[32\], CIFAR-10 from \[31\].
pub mod truenorth {
    /// MNIST accuracy (%), per \[32\].
    pub const MNIST_ACCURACY: f64 = 95.0;
    /// MNIST runtime (µs/image), per \[32\].
    pub const MNIST_US_PER_IMAGE: f64 = 1000.0;
    /// CIFAR-10 accuracy (%), per \[31\].
    pub const CIFAR_ACCURACY: f64 = 83.41;
    /// CIFAR-10 runtime (µs/image), per \[31\].
    pub const CIFAR_US_PER_IMAGE: f64 = 800.0;
}

/// Values the paper reports, used by the regenerators to print
/// paper-vs-measured columns.
pub mod reported {
    /// Table II rows: (arch, impl, [Nexus 5, XU3, Honor 6X] µs/image).
    pub const TABLE2_RUNTIME: [(&str, &str, [f64; 3]); 4] = [
        ("Arch. 1", "Java", [359.6, 294.1, 256.7]),
        ("Arch. 1", "C++", [140.0, 122.0, 101.0]),
        ("Arch. 2", "Java", [350.9, 278.2, 221.7]),
        ("Arch. 2", "C++", [128.5, 119.1, 98.5]),
    ];
    /// Table II accuracies (%): Arch. 1, Arch. 2.
    pub const TABLE2_ACCURACY: [f64; 2] = [95.47, 93.59];
    /// Table III rows: (impl, [XU3, Honor 6X] µs/image).
    pub const TABLE3_RUNTIME: [(&str, [f64; 2]); 2] =
        [("Java", [21032.0, 19785.0]), ("C++", [8912.0, 8244.0])];
    /// Table III accuracy (%).
    pub const TABLE3_ACCURACY: f64 = 80.2;
}

/// A trained-and-frozen MNIST workload ready for timing.
pub struct MnistWorkload {
    /// Human-readable name ("Arch. 1").
    pub name: &'static str,
    /// Frozen (spectral) inference network.
    pub frozen: Network,
    /// Training report (accuracy measured on held-out synthetic data).
    pub report: TrainReport,
    /// Test inputs for host timing.
    pub test_inputs: ffdl::tensor::Tensor,
}

/// Trains Arch. 1 or Arch. 2 on synthetic MNIST and freezes it for
/// deployment. `samples` controls workload size (1200 reproduces the
/// EXPERIMENTS.md numbers; smaller is faster).
///
/// # Panics
///
/// Panics when the static architectures fail to train — indicates a bug,
/// not an input condition.
pub fn mnist_workload(arch: usize, samples: usize, seed: u64) -> MnistWorkload {
    assert!(arch == 1 || arch == 2, "MNIST architectures are 1 and 2");
    let mut rng = SmallRng::seed_from_u64(seed);
    let raw = synthetic_mnist(samples, &MnistConfig::default(), &mut rng)
        .expect("generator is infallible for valid configs");
    let side = if arch == 1 { 16 } else { 11 };
    let ds = mnist_preprocess(&raw, side).expect("28x28 images resize cleanly");
    let split = samples * 5 / 6;
    let (train, test) = ds.split_at(split);

    let (name, mut net): (&'static str, Network) = if arch == 1 {
        ("Arch. 1", paper::arch1(seed))
    } else {
        ("Arch. 2", paper::arch2(seed))
    };
    let report = paper::train_classifier(&mut net, &train, &test, 40, 32, Some(0.005), &mut rng)
        .expect("training the paper architectures cannot shape-fail");
    let frozen = paper::freeze_spectral(&net).expect("freeze of a valid network");
    let (test_inputs, _) = test.batch(&(0..test.len()).collect::<Vec<_>>());
    MnistWorkload {
        name,
        frozen,
        report,
        test_inputs,
    }
}

/// The CIFAR-10 dataset for Table III runs.
///
/// # Panics
///
/// Never in practice (generator is infallible for valid configs).
pub fn cifar_dataset(samples: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    synthetic_cifar(samples, &CifarConfig::default(), &mut rng)
        .expect("generator is infallible for valid configs")
}

/// Formats a paper-vs-measured line with the relative deviation.
pub fn vs(paper_value: f64, measured: f64) -> String {
    let dev = (measured / paper_value - 1.0) * 100.0;
    format!("{measured:>9.1} (paper {paper_value:>8.1}, {dev:+.1}%)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vs_formats_deviation() {
        let s = vs(100.0, 110.0);
        assert!(s.contains("+10.0%"), "{s}");
        let s = vs(200.0, 100.0);
        assert!(s.contains("-50.0%"), "{s}");
    }

    #[test]
    fn mnist_workload_small_smoke() {
        let w = mnist_workload(2, 60, 3);
        assert_eq!(w.name, "Arch. 2");
        assert_eq!(w.test_inputs.shape()[1], 121);
        assert!(w.report.test_accuracy >= 0.0);
        assert!(!w.frozen.is_empty());
    }

    #[test]
    #[should_panic(expected = "architectures")]
    fn mnist_workload_rejects_arch3() {
        let _ = mnist_workload(3, 10, 0);
    }

    #[test]
    fn cifar_dataset_shape() {
        let ds = cifar_dataset(12, 0);
        assert_eq!(ds.sample_shape(), &[3, 32, 32]);
    }

    #[test]
    fn reported_constants_sanity() {
        // Java rows must be slower than C++ rows — the paper's headline.
        assert!(reported::TABLE2_RUNTIME[0].2[0] > reported::TABLE2_RUNTIME[1].2[0]);
        assert!(reported::TABLE3_RUNTIME[0].1[0] > reported::TABLE3_RUNTIME[1].1[0]);
        const { assert!(truenorth::MNIST_US_PER_IMAGE > 0.0) };
    }
}
