//! Fixed-point spectral inference bench: what quantization costs and
//! what it buys. Writes `BENCH_quant.json` (unit: ns per call).
//!
//! The workload is an embedded deployment model that is block-circulant
//! end to end (512-512-512-10, block 64) — the configuration the paper
//! targets, where the spectral weight payload dominates model bytes.
//! The `size` field of each `forward/*` row carries the model's exact
//! wire-format size in bytes, so the perf history tracks bytes and
//! latency side by side and `verify.sh` can guard both:
//!
//! * `quantize/int16` — full-network quantization cost (freeze + scale
//!   search + rounding), i.e. the publish-side price of a quantized
//!   generation.
//! * `forward/f32_spectral` — the f32 frozen hot path
//!   ([`SpectralDense`](ffdl::core::SpectralDense), batch 32): the
//!   latency baseline, `size` = bytes of the storable f32 parent.
//! * `forward/int16` / `forward/int8` — the same batch through the
//!   dequantization-free quantized kernel; `size` = bytes of the
//!   version-3 quantized model file.
//!
//! The `forward/*` rows time the inference pass on a warm `Scratch`
//! (result recycled) — what a served generation executes.
//!
//! Guarded in `verify.sh`: `forward/int16` median ≤ 1.15× the f32
//! median, and its `size` ≤ 55% of the f32 row's.

use ffdl::core::QuantBits;
use ffdl::nn::{Network, Scratch};
use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_bench::harness::{black_box, BenchSet};
use ffdl_quant::{model_bytes, quantize_network, top1_agreement};
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

const BATCH: usize = 32;
const DIM: usize = 512;

/// Fully block-circulant classifier (512-512-512-10, block 64): every
/// weight matrix lives in the spectral payload quantization shrinks.
fn deployment_model(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    net.push(ffdl::core::CirculantDense::new(DIM, DIM, 64, &mut rng).expect("layer"));
    net.push(ffdl::nn::Relu::new());
    net.push(ffdl::core::CirculantDense::new(DIM, DIM, 64, &mut rng).expect("layer"));
    net.push(ffdl::nn::Relu::new());
    net.push(ffdl::core::CirculantDense::new(DIM, 10, 64, &mut rng).expect("layer"));
    net.push(ffdl::nn::Softmax::new());
    net
}

fn main() {
    let net = deployment_model(9);
    // The f32 payload: the time-domain parent the quantizer starts from
    // (the frozen form ships b/2 + 1 complex bins per block instead of b
    // reals, a few bytes more).
    let f32_bytes = model_bytes(&net).expect("serialize f32 model") as u64;
    let mut frozen = paper::freeze_spectral(&net).expect("freeze");

    let x = Tensor::from_fn(&[BATCH, DIM], |i| (((i * 13 + 5) % 61) as f32) * 0.03 - 0.9);

    let mut set = BenchSet::new("quant");
    set.bench("quantize/int16", || {
        black_box(quantize_network(&net, QuantBits::Sixteen).expect("quantize"));
    });

    let mut scratch = Scratch::new();
    set.bench_with_size("forward/f32_spectral", f32_bytes, || {
        let y = frozen.forward_infer(&x, &mut scratch).expect("forward");
        scratch.recycle(black_box(y));
    });

    for bits in [QuantBits::Sixteen, QuantBits::Eight] {
        let mut q = quantize_network(&net, bits).expect("quantize");
        let q_bytes = model_bytes(&q).expect("serialize quantized model") as u64;
        // Sanity: the precision drop must not change decisions on this
        // batch (verify.sh checks agreement on a real eval set via the
        // CLI; this is the bench-local guard that the rows are honest).
        let agreement =
            top1_agreement(&mut frozen, &mut q, &x).expect("agreement");
        assert!(
            agreement >= 0.95,
            "{bits} top-1 agreement collapsed: {agreement}"
        );
        set.bench_with_size(&format!("forward/{bits}"), q_bytes, || {
            let y = q.forward_infer(&x, &mut scratch).expect("forward");
            scratch.recycle(black_box(y));
        });
    }

    set.finish().expect("write BENCH_quant.json");
}
