//! Round-trip property: for every built-in spectral layer's weight
//! spectra, quantizing them the way the deployed layer does — through
//! [`QuantizedSpectralDense`], one symmetric scale per output block row —
//! moves no coefficient component by more than half a quantization step
//! of its row (`max_error(i) = scales[i] / 2`). Symmetric scaling
//! guarantees no clamping, so rounding is the only error source — this
//! pins that guarantee across arbitrary geometry.
//!
//! Runs on the in-house `ffdl_rng::prop` harness: seeded cases, scaled
//! by `FFDL_PROP_CASES`, and any failing case replayable in isolation
//! via `FFDL_PROP_REPLAY=<case seed>`.

use ffdl_core::{
    CirculantConv2d, CirculantDense, QuantBits, QuantizedSpectralDense, SpectralDense, Spectrum,
};
use ffdl_rng::prop::check;
use ffdl_rng::{prop_assert, Rng, SeedableRng, SmallRng};
use ffdl_tensor::{ConvGeometry, Tensor};

fn bits_from(rng: &mut SmallRng) -> QuantBits {
    match rng.gen_range(0u32..2) {
        0 => QuantBits::Eight,
        _ => QuantBits::Sixteen,
    }
}

/// Every `level · scales[i]` of `q` against the component of `spectra`
/// it quantizes: row `i`'s levels are its spectra's re / im components in
/// order, each within `max_error(i)`, which is at most half a step.
fn assert_roundtrip(spectra: &[Vec<Spectrum>], q: &QuantizedSpectralDense) -> Result<(), String> {
    let bits = q.bits();
    let rows = spectra.len();
    prop_assert!(q.scales().len() == rows, "{} scales for {rows} rows", q.scales().len());
    let row_len = q.levels().len() / rows;
    for (i, (row, levels)) in spectra.iter().zip(q.levels().chunks_exact(row_len)).enumerate() {
        let (scale, bound) = (q.scales()[i], q.max_error(i));
        prop_assert!(
            bound <= scale * 0.5 + f32::EPSILON,
            "advertised bound {bound} exceeds scale/2 for {bits} row {i}"
        );
        let values: Vec<f32> = row.iter().flatten().flat_map(|c| [c.re, c.im]).collect();
        let (n, m) = (values.len(), levels.len());
        prop_assert!(n == m, "row {i}: {m} levels for {n} values");
        // In f64, where `level · scale` is exact. The only slack is the
        // rounding of `v / scale` to f32 inside the quantizer: half an ulp
        // below 2¹⁵, i.e. 2⁻¹⁰ of a step.
        let slack = f64::from(scale) / 1024.0;
        for (k, (&v, &level)) in values.iter().zip(levels).enumerate() {
            let err = (f64::from(v) - f64::from(level) * f64::from(scale)).abs();
            prop_assert!(
                err <= f64::from(bound) + slack,
                "row {i} component {k}: error {err} > scale/2 = {bound} at {bits}"
            );
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
            let q = QuantizedSpectralDense::from_matrix(layer.matrix(), layer.bias().clone(), bits);
            assert_roundtrip(&layer.matrix().weight_spectra(), &q)
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
            let q = QuantizedSpectralDense::from_spectral(&frozen, bits);
            assert_roundtrip(frozen.spectra(), &q)
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
            // The lowered `[C·r², P]` filter matrix, quantized as a frozen FC.
            let bias = Tensor::zeros(&[out_ch]);
            let q = QuantizedSpectralDense::from_matrix(layer.matrix(), bias, bits);
            assert_roundtrip(&layer.matrix().weight_spectra(), &q)
        },
    );
}
