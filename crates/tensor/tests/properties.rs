//! Property-based tests for the tensor substrate, on the in-house
//! `ffdl_rng::prop` harness (seeded cases, replayable failures).

use ffdl_rng::prop::{check, small_f32};
use ffdl_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use ffdl_tensor::{bilinear_resize, col2im, im2col, im2col_into, ConvGeometry, Tensor};

fn matrix(rng: &mut SmallRng, max_dim: usize) -> Tensor {
    let r = rng.gen_range(1..=max_dim);
    let c = rng.gen_range(1..=max_dim);
    let data: Vec<f32> = (0..r * c).map(|_| small_f32(rng)).collect();
    Tensor::from_vec(data, &[r, c]).expect("size matches")
}

/// (Aᵀ)ᵀ == A.
#[test]
fn transpose_involution() {
    check(
        "transpose_involution",
        48,
        |rng| matrix(rng, 12),
        |a| {
            prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), *a);
            Ok(())
        },
    );
}

/// Matmul distributes over addition: A(B + C) == AB + AC.
#[test]
fn matmul_distributes() {
    check(
        "matmul_distributes",
        48,
        |rng| {
            (
                rng.gen_range(1usize..=6),
                rng.gen_range(1usize..=6),
                rng.gen_range(1usize..=6),
            )
        },
        |&(m, k, n)| {
            let a = Tensor::from_fn(&[m, k], |i| ((i * 3 + 1) % 7) as f32 - 3.0);
            let b = Tensor::from_fn(&[k, n], |i| ((i * 5 + 2) % 9) as f32 - 4.0);
            let c = Tensor::from_fn(&[k, n], |i| ((i * 2 + 3) % 5) as f32 - 2.0);
            let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
            let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
                prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// The `ikj` product that skips each zero of `a` — the loop `matmul_into`
/// replaced, kept here as the bit reference.
fn ikj_skipping_zeros(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut o = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for j in 0..n {
                o[i * n + j] += aip * b[p * n + j];
            }
        }
    }
    o
}

fn same_bits(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
}

/// `matmul_into` keeps every bit of the `ikj` loop — signed zeros, ±∞ and
/// NaN included — on sparse post-ReLU-like rows, at inner dimensions on
/// both sides of its compaction chunk, and leaves `out` alone on a shape
/// error.
#[test]
fn matmul_into_keeps_the_bits_of_the_ikj_loop() {
    // The kernel compacts this many terms of a row per pass.
    const TERMS: usize = 256;
    check(
        "matmul_into_keeps_the_bits_of_the_ikj_loop",
        96,
        |rng| {
            let pick = |rng: &mut SmallRng, from: &[usize]| from[rng.gen_range(0..from.len())];
            let m = pick(rng, &[0, 1, 2, 33]);
            let k = pick(
                rng,
                &[0, 1, 3, 4, 5, TERMS - 1, TERMS, TERMS + 1, 2 * TERMS + 3],
            );
            let n = pick(rng, &[0, 1, 10, 64, 129]);
            (m, k, n, rng.next_u64())
        },
        |&(m, k, n, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut a: Vec<f32> = (0..m * k)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => small_f32(&mut rng),
                })
                .collect();
            let mut b: Vec<f32> = (0..k * n)
                .map(|_| match rng.gen_range(0..20) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => small_f32(&mut rng),
                })
                .collect();
            // A few non-finite values, so most outputs stay finite.
            for (data, specials) in [
                (&mut a, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY][..]),
                (&mut b, &[f32::INFINITY, f32::NEG_INFINITY][..]),
            ] {
                for _ in 0..rng.gen_range(0..=2) {
                    if !data.is_empty() {
                        let at = rng.gen_range(0..data.len());
                        data[at] = specials[rng.gen_range(0..specials.len())];
                    }
                }
            }
            let want = ikj_skipping_zeros(&a, &b, (m, k, n));
            let a = Tensor::from_vec(a, &[m, k]).unwrap();
            let b = Tensor::from_vec(b, &[k, n]).unwrap();
            let mut out = Tensor::from_fn(&[3, 7], |i| i as f32 - 5.0);
            a.matmul_into(&b, &mut out).unwrap();
            prop_assert_eq!(out.shape(), &[m, n][..]);
            prop_assert!(
                same_bits(out.as_slice(), &want),
                "product bits differ from the ikj loop"
            );

            let before = out.as_slice().to_vec();
            let wrong_inner = Tensor::zeros(&[k + 1, n]);
            prop_assert!(a.matmul_into(&wrong_inner, &mut out).is_err());
            prop_assert!(a.matmul_into(&Tensor::zeros(&[k]), &mut out).is_err());
            prop_assert!(
                same_bits(out.as_slice(), &before) && out.shape() == [m, n],
                "out changed on a shape error"
            );
            Ok(())
        },
    );
}

/// `taps_matmul_into` over a pixel-major image keeps every bit of
/// `im2col_into` + `matmul_into` — signed zeros, ±∞ and NaN included — at
/// channel counts from 1 to past one compaction buffer, every kernel side
/// up to 5, strides 1–3 and padding 0–2 (rows up to 7 500 terms, so the
/// buffer flushes mid-row and mid-tap), and leaves `out` alone on a shape
/// error.
#[test]
fn taps_matmul_into_keeps_the_bits_of_the_im2col_product() {
    check(
        "taps_matmul_into_keeps_the_bits_of_the_im2col_product",
        64,
        |rng| {
            let pick = |rng: &mut SmallRng, from: &[usize]| from[rng.gen_range(0..from.len())];
            loop {
                let c = pick(rng, &[1, 3, 5, 64, 300]);
                let geom = ConvGeometry {
                    kernel: pick(rng, &[1, 2, 3, 5]),
                    stride: rng.gen_range(1..=3),
                    pad: rng.gen_range(0..=2),
                };
                let (h, w) = (rng.gen_range(1..=7), rng.gen_range(1..=7));
                if geom.output_extent(h).is_ok() && geom.output_extent(w).is_ok() {
                    let p = pick(rng, &[1, 3, 8, 17]);
                    return (c, h, w, geom, p, rng.next_u64());
                }
            }
        },
        |&(c, h, w, geom, p, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = c * geom.kernel * geom.kernel;
            // Off-grid values, so that a term out of order changes a bit.
            let mut x: Vec<f32> = (0..c * h * w)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.next_f32() * 4.0 - 2.0,
                })
                .collect();
            let mut f: Vec<f32> = (0..k * p).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
            for (data, specials) in [
                (&mut x, &[f32::NAN, f32::INFINITY, f32::NEG_INFINITY][..]),
                (&mut f, &[f32::INFINITY, f32::NEG_INFINITY][..]),
            ] {
                for _ in 0..rng.gen_range(0..=2) {
                    let at = rng.gen_range(0..data.len());
                    data[at] = specials[rng.gen_range(0..specials.len())];
                }
            }
            let f = Tensor::from_vec(f, &[k, p]).unwrap();
            let mut cols = Tensor::zeros(&[0]);
            let mut want = Tensor::zeros(&[0]);
            im2col_into(&x, (c, h, w), geom, &mut cols).unwrap();
            cols.matmul_into(&f, &mut want).unwrap();

            let image: Vec<f32> = (0..h * w * c).map(|i| x[(i % c) * h * w + i / c]).collect();
            let mut out = Tensor::from_fn(&[3, 7], |i| i as f32 - 5.0);
            Tensor::taps_matmul_into(&image, (c, h, w), geom, &f, &mut out).unwrap();
            prop_assert_eq!(out.shape(), want.shape());
            prop_assert!(
                same_bits(out.as_slice(), want.as_slice()),
                "tap-view bits differ from im2col + matmul_into"
            );

            let before = out.as_slice().to_vec();
            let dims = (c, h, w);
            let short = &image[1..];
            prop_assert!(Tensor::taps_matmul_into(short, dims, geom, &f, &mut out).is_err());
            let wrong_f = Tensor::zeros(&[k + 1, p]);
            prop_assert!(Tensor::taps_matmul_into(&image, dims, geom, &wrong_f, &mut out).is_err());
            prop_assert!(
                same_bits(out.as_slice(), &before) && out.shape() == want.shape(),
                "out changed on a shape error"
            );
            Ok(())
        },
    );
}

/// matvec agrees with matmul against a column.
#[test]
fn matvec_matches_matmul() {
    check(
        "matvec_matches_matmul",
        48,
        |rng| matrix(rng, 10),
        |a| {
            let n = a.cols();
            let x = Tensor::from_fn(&[n], |i| (i as f32 * 0.7).sin());
            let y = a.matvec(&x).unwrap();
            let col = x.reshape(&[n, 1]).unwrap();
            let y2 = a.matmul(&col).unwrap();
            for (p, q) in y.as_slice().iter().zip(y2.as_slice()) {
                prop_assert!((p - q).abs() < 1e-4, "{p} vs {q}");
            }
            Ok(())
        },
    );
}

/// Transpose swaps the matvec: (Aᵀy)·x == y·(Ax) (adjoint identity).
#[test]
fn transpose_is_adjoint() {
    check(
        "transpose_is_adjoint",
        48,
        |rng| matrix(rng, 10),
        |a| {
            let (m, n) = (a.rows(), a.cols());
            let x = Tensor::from_fn(&[n], |i| ((i * 3 % 5) as f32) - 2.0);
            let y = Tensor::from_fn(&[m], |i| ((i * 7 % 11) as f32) - 5.0);
            let lhs = a.matvec(&x).unwrap().dot(&y).unwrap();
            let rhs = a.transpose().unwrap().matvec(&y).unwrap().dot(&x).unwrap();
            prop_assert!((lhs - rhs).abs() < 1e-2 * (lhs.abs() + 1.0), "{lhs} vs {rhs}");
            Ok(())
        },
    );
}

/// im2col/col2im adjoint identity for arbitrary geometry.
#[test]
fn im2col_col2im_adjoint() {
    check(
        "im2col_col2im_adjoint",
        48,
        |rng| {
            // Re-draw until the geometry admits an output extent, the
            // harness analogue of `prop_assume!`.
            loop {
                let c = rng.gen_range(1usize..=3);
                let h = rng.gen_range(3usize..=8);
                let w = rng.gen_range(3usize..=8);
                let k = rng.gen_range(1usize..=3);
                let s = rng.gen_range(1usize..=2);
                let p = rng.gen_range(0usize..=1);
                let geom = ConvGeometry { kernel: k, stride: s, pad: p };
                if geom.output_extent(h).is_ok() && geom.output_extent(w).is_ok() {
                    return (c, h, w, geom);
                }
            }
        },
        |&(c, h, w, geom)| {
            let x = Tensor::from_fn(&[c, h, w], |i| ((i * 13 + 5) % 17) as f32 - 8.0);
            let cols = im2col(&x, geom).unwrap();
            let y = Tensor::from_fn(cols.shape(), |i| ((i * 11 + 2) % 13) as f32 - 6.0);
            let back = col2im(&y, c, h, w, geom).unwrap();
            let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
            prop_assert!((lhs - rhs).abs() < 1e-2 * (lhs.abs() + 1.0), "{lhs} vs {rhs}");
            Ok(())
        },
    );
}

/// Bilinear resize is bounded by the input range (no overshoot).
#[test]
fn resize_respects_range() {
    check(
        "resize_respects_range",
        48,
        |rng| {
            (
                rng.gen_range(2usize..=10),
                rng.gen_range(2usize..=10),
                rng.gen_range(1usize..=20),
                rng.gen_range(1usize..=20),
            )
        },
        |&(h, w, oh, ow)| {
            let x = Tensor::from_fn(&[h, w], |i| ((i * 31 + 7) % 23) as f32 - 11.0);
            let lo = x.as_slice().iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = x.as_slice().iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let y = bilinear_resize(&x, oh, ow).unwrap();
            for &v in y.as_slice() {
                prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4, "{v} outside [{lo}, {hi}]");
            }
            Ok(())
        },
    );
}

/// Reshape round-trips and never changes data.
#[test]
fn reshape_preserves_buffer() {
    check(
        "reshape_preserves_buffer",
        48,
        |rng| matrix(rng, 12),
        |a| {
            let n = a.len();
            let flat = a.reshape(&[n]).unwrap();
            prop_assert_eq!(flat.as_slice(), a.as_slice());
            let back = flat.reshape(a.shape()).unwrap();
            prop_assert_eq!(back, *a);
            Ok(())
        },
    );
}
