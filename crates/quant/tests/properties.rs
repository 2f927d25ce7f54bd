//! Round-trip property: for every built-in spectral layer's weight
//! spectra, quantize → dequantize moves no coefficient component by
//! more than half a quantization step (`scale / 2`). Symmetric scaling
//! guarantees no clamping, so rounding is the only error source — this
//! pins that guarantee across arbitrary geometry.
//!
//! Runs on the in-house `ffdl_rng::prop` harness: seeded cases, scaled
//! by `FFDL_PROP_CASES`, and any failing case replayable in isolation
//! via `FFDL_PROP_REPLAY=<case seed>`.

use ffdl_core::{
    CirculantConv2d, CirculantDense, QuantBits, QuantizedSpectrum, SpectralDense, Spectrum,
};
use ffdl_rng::prop::check;
use ffdl_rng::{prop_assert, Rng, SeedableRng, SmallRng};
use ffdl_tensor::ConvGeometry;

fn bits_from(rng: &mut SmallRng) -> QuantBits {
    match rng.gen_range(0u32..2) {
        0 => QuantBits::Eight,
        _ => QuantBits::Sixteen,
    }
}

/// The `scale/2` bound for one layer's spectra: every block row shares
/// the quantizer, so checking per spectrum with per-spectrum scales is
/// the *stricter* form of the guarantee (the layer's per-row scale is
/// at least the per-spectrum one).
fn assert_roundtrip(spectra: &[Vec<Spectrum>], bits: QuantBits) -> Result<(), String> {
    for row in spectra {
        for spec in row {
            let q = QuantizedSpectrum::quantize(spec, bits);
            let bound = q.max_error();
            prop_assert!(
                bound <= q.scale() * 0.5 + f32::EPSILON,
                "advertised bound {bound} exceeds scale/2 for {bits}"
            );
            for (orig, rec) in spec.iter().zip(q.dequantize()) {
                let (dre, dim) = ((orig.re - rec.re).abs(), (orig.im - rec.im).abs());
                prop_assert!(
                    dre <= bound && dim <= bound,
                    "component error ({dre}, {dim}) > scale/2 = {bound} at {bits}"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn circulant_dense_spectra_roundtrip_within_half_step() {
    check(
        "circulant_dense_spectra_roundtrip_within_half_step",
        40,
        |rng| {
            (
                rng.gen_range(1usize..=24),
                rng.gen_range(1usize..=24),
                rng.gen_range(1usize..=12),
                rng.gen_range(0u64..1000),
                bits_from(rng),
            )
        },
        |&(in_dim, out_dim, block, seed, bits)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let layer = CirculantDense::new(in_dim, out_dim, block, &mut rng).unwrap();
            assert_roundtrip(&layer.matrix().weight_spectra(), bits)
        },
    );
}

#[test]
fn spectral_dense_spectra_roundtrip_within_half_step() {
    check(
        "spectral_dense_spectra_roundtrip_within_half_step",
        30,
        |rng| {
            (
                rng.gen_range(1usize..=20),
                rng.gen_range(1usize..=20),
                rng.gen_range(1usize..=8),
                rng.gen_range(0u64..1000),
                bits_from(rng),
            )
        },
        |&(in_dim, out_dim, block, seed, bits)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let trained = CirculantDense::new(in_dim, out_dim, block, &mut rng).unwrap();
            let frozen = SpectralDense::from_matrix(trained.matrix(), trained.bias().clone());
            assert_roundtrip(frozen.spectra(), bits)
        },
    );
}

#[test]
fn circulant_conv2d_spectra_roundtrip_within_half_step() {
    check(
        "circulant_conv2d_spectra_roundtrip_within_half_step",
        20,
        |rng| {
            (
                rng.gen_range(1usize..=4),
                rng.gen_range(1usize..=4),
                rng.gen_range(2usize..=3),
                rng.gen_range(1usize..=6),
                rng.gen_range(0u64..1000),
                bits_from(rng),
            )
        },
        |&(in_ch, out_ch, kernel, block, seed, bits)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let layer = CirculantConv2d::new(
                in_ch,
                out_ch,
                8,
                8,
                ConvGeometry::valid(kernel),
                block,
                &mut rng,
            )
            .unwrap();
            assert_roundtrip(&layer.matrix().weight_spectra(), bits)
        },
    );
}
