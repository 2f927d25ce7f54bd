//! Bench behind Tables II/III: per-image inference of the paper's
//! architectures — training form, frozen spectral form, and the dense
//! baselines — through the inference pass on a warm `Scratch`, i.e. what
//! a deployed engine executes. Runs on the in-house harness and writes
//! `BENCH_inference.json` at the workspace root.

use ffdl::nn::{Network, Scratch};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_bench::harness::{black_box, BenchSet};

/// One row: `net`'s inference pass on `x`, the result recycled.
fn bench_infer(set: &mut BenchSet, label: &str, size: u64, net: &mut Network, x: &Tensor) {
    let mut scratch = Scratch::new();
    set.bench_with_size(label, size, || {
        let y = net.forward_infer(black_box(x), &mut scratch).expect("valid");
        scratch.recycle(black_box(y));
    });
}

fn main() {
    let mut set = BenchSet::new("inference");

    // Table II — MNIST architectures.
    let x1 = Tensor::from_fn(&[1, 256], |i| ((i * 7) % 23) as f32 * 0.04);
    let x2 = Tensor::from_fn(&[1, 121], |i| ((i * 7) % 23) as f32 * 0.04);

    let mut a1 = paper::arch1(3);
    let mut a1_frozen = paper::freeze_spectral(&a1).expect("valid network");
    let mut a1_dense = paper::arch1_dense(3);
    bench_infer(&mut set, "arch1_circulant", 256, &mut a1, &x1);
    bench_infer(&mut set, "arch1_spectral_frozen", 256, &mut a1_frozen, &x1);
    bench_infer(&mut set, "arch1_dense_baseline", 256, &mut a1_dense, &x1);

    let mut a2 = paper::arch2(3);
    let mut a2_frozen = paper::freeze_spectral(&a2).expect("valid network");
    bench_infer(&mut set, "arch2_circulant", 121, &mut a2, &x2);
    bench_infer(&mut set, "arch2_spectral_frozen", 121, &mut a2_frozen, &x2);

    // Table III — CIFAR-10 architecture.
    let x = Tensor::from_fn(&[1, 3, 32, 32], |i| ((i * 13) % 97) as f32 / 97.0);
    let mut a3 = paper::arch3(7);
    bench_infer(&mut set, "arch3_full", 32, &mut a3, &x);
    let xr = Tensor::from_fn(&[1, 3, 16, 16], |i| ((i * 13) % 97) as f32 / 97.0);
    let mut a3r = paper::arch3_reduced(7);
    bench_infer(&mut set, "arch3_reduced", 16, &mut a3r, &xr);

    set.finish().expect("write BENCH_inference.json");
}
