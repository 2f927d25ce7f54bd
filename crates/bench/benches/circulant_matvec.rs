//! Bench behind Fig. 2: the "FFT → ∘ → IFFT" circulant mat-vec against
//! the dense `O(n²)` product, across sizes and block sizes, and the
//! block-size × layer-width crossover table of EXPERIMENTS.md. Runs on
//! the in-house harness and writes `BENCH_circulant_matvec.json`.

use ffdl::core::{BlockCirculantMatrix, SpectralDense};
use ffdl::nn::{Dense, Layer, Scratch};
use ffdl::tensor::Tensor;
use ffdl_bench::harness::{black_box, BenchSet};
use ffdl_rng::SeedableRng;

fn main() {
    let mut set = BenchSet::new("circulant_matvec");

    let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(17);
    for exp in [7u32, 9, 11] {
        let n = 1usize << exp;
        let m = BlockCirculantMatrix::random(n, n, n, &mut rng).expect("valid dims");
        let dense_t = m.to_dense().transpose().expect("rank 2");
        let x: Vec<f32> = (0..n).map(|k| (k as f32 * 0.13).sin()).collect();
        let xt = Tensor::from_slice(&x);

        set.bench_with_size(&format!("fft_kernel/{n}"), n as u64, || {
            black_box(m.matvec(black_box(&x)).expect("length matches"));
        });
        set.bench_with_size(&format!("dense/{n}"), n as u64, || {
            black_box(dense_t.matvec(black_box(&xt)).expect("shapes match"));
        });
    }

    // Fixed 1024×1024 logical matrix, varying block size: the A1 dial.
    let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(23);
    let n = 1024usize;
    let x: Vec<f32> = (0..n).map(|k| (k as f32 * 0.29).cos()).collect();
    for block in [16usize, 64, 256, 1024] {
        let m = BlockCirculantMatrix::random(n, n, block, &mut rng).expect("valid dims");
        set.bench_with_size(&format!("block_dial/{block}"), block as u64, || {
            black_box(m.matvec(black_box(&x)).expect("length matches"));
        });
    }

    // The crossover (paper Fig. 5 restated as a measurement): one row
    // through a frozen spectral n×n layer at block size b against the
    // dense n×n layer — where does block-circulant win on this host?
    let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(31);
    let mut scratch = Scratch::new();
    for n in [128usize, 256, 1024, 4096] {
        let x = Tensor::from_fn(&[1, n], |i| ((i * 7) % 23) as f32 * 0.04);
        let mut dense = Dense::new(n, n, &mut rng);
        set.bench_with_size(&format!("crossover/dense/{n}"), n as u64, || {
            let y = dense.forward_infer(black_box(&x), &mut scratch).expect("valid");
            scratch.recycle(black_box(y));
        });
        for block in [16usize, 32, 64, 128] {
            let m = BlockCirculantMatrix::random(n, n, block, &mut rng).expect("valid dims");
            let mut frozen = SpectralDense::from_matrix(&m, Tensor::zeros(&[n]));
            set.bench_with_size(&format!("crossover/spectral/{n}/b{block}"), n as u64, || {
                let y = frozen.forward_infer(black_box(&x), &mut scratch).expect("valid");
                scratch.recycle(black_box(y));
            });
        }
    }

    set.finish().expect("write BENCH_circulant_matvec.json");
}
