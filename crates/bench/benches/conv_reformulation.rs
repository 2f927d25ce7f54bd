//! Bench behind Fig. 3 / §IV-B: direct convolution vs the im2col
//! lowering vs the block-circulant CONV layer (layer rows: the inference
//! pass on a warm `Scratch`), at a small shape and at Arch. 3's. Runs on
//! the in-house harness and writes `BENCH_conv_reformulation.json`.

use ffdl::core::CirculantConv2d;
use ffdl::nn::{Conv2d, Layer, Scratch};
use ffdl::tensor::{conv2d_direct, filters_to_matrix, im2col, ConvGeometry, Tensor};
use ffdl_bench::fft_conv::FftConv2d;
use ffdl_bench::harness::{black_box, BenchSet};
use ffdl_rng::SeedableRng;

fn main() {
    let mut set = BenchSet::new("conv_reformulation");

    let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(31);
    let geom = ConvGeometry::valid(3);
    let (ch, h, w, p) = (16usize, 16usize, 16usize, 32usize);
    let image = Tensor::from_fn(&[ch, h, w], |i| ((i * 7 + 1) % 13) as f32 * 0.1);
    let batch = Tensor::from_fn(&[1, ch, h, w], |i| ((i * 7 + 1) % 13) as f32 * 0.1);
    let filters = Tensor::from_fn(&[p, ch, 3, 3], |i| ((i * 5) % 9) as f32 * 0.05 - 0.2);
    let fmat = filters_to_matrix(&filters).expect("rank 4 filters");

    set.bench("direct_definition", || {
        black_box(conv2d_direct(black_box(&image), &filters, geom).expect("valid"));
    });
    set.bench("im2col_matmul", || {
        let cols = im2col(black_box(&image), geom).expect("valid");
        black_box(cols.matmul(&fmat).expect("shapes match"));
    });

    let mut scratch = Scratch::new();
    let mut dense_layer = Conv2d::new(ch, p, h, w, geom, &mut rng).expect("valid dims");
    set.bench("dense_conv_layer", || {
        let y = dense_layer.forward_infer(black_box(&batch), &mut scratch).expect("valid");
        scratch.recycle(black_box(y));
    });

    for block in [16usize, 48] {
        let mut circ =
            CirculantConv2d::new(ch, p, h, w, geom, block, &mut rng).expect("valid dims");
        set.bench_with_size(&format!("circulant_conv_layer_b{block}"), block as u64, || {
            let y = circ.forward_infer(black_box(&batch), &mut scratch).expect("valid");
            scratch.recycle(black_box(y));
        });
    }

    // The §I baseline: LeCun-style 2-D FFT convolution (accelerates only).
    let mut fft_layer = FftConv2d::new(ch, p, h, w, 3, &mut rng).expect("valid dims");
    set.bench("fft_conv_baseline", || {
        let y = fft_layer.forward_infer(black_box(&batch), &mut scratch).expect("valid");
        scratch.recycle(black_box(y));
    });

    // Arch. 3's first circulant CONV layer (Table III: 64 → 128 on 28², 3×3,
    // b = 64) against its dense equivalent. b | C, so the circulant row
    // reads a spectral image (one transform a pixel); `verify.sh` guards
    // the ratio of the two rows.
    let (ch, h, w, p, block) = (64usize, 28usize, 28usize, 128usize, 64usize);
    let batch = Tensor::from_fn(&[1, ch, h, w], |i| ((i * 7 + 1) % 13) as f32 * 0.1);
    let mut dense_layer = Conv2d::new(ch, p, h, w, geom, &mut rng).expect("valid dims");
    set.bench("arch3_dense_conv_layer", || {
        let y = dense_layer.forward_infer(black_box(&batch), &mut scratch).expect("valid");
        scratch.recycle(black_box(y));
    });
    let mut circ = CirculantConv2d::new(ch, p, h, w, geom, block, &mut rng).expect("valid dims");
    set.bench_with_size("arch3_circulant_conv_layer", block as u64, || {
        let y = circ.forward_infer(black_box(&batch), &mut scratch).expect("valid");
        scratch.recycle(black_box(y));
    });

    set.finish().expect("write BENCH_conv_reformulation.json");
}
