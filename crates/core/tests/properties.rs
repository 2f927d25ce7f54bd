//! Property-based tests: the block-circulant layer must be *exactly* a
//! dense layer with the expanded circulant matrix, for arbitrary
//! geometry — forward, input gradients and batch handling — in its
//! training, frozen and fixed-point forms, which all run the one
//! Algorithm 1 routine. And, for every registered layer type: the
//! inference pass equals the training pass bit for bit and keeps nothing
//! for `backward`, and the layer survives the model format and
//! `copy_layer` bit for bit.
//!
//! Runs on the in-house `ffdl_rng::prop` harness (seeded cases,
//! replayable failures).

use ffdl_core::{
    full_registry, BlockCirculantMatrix, CirculantConv2d, CirculantDense, CirculantGru,
    CirculantScratch, QuantBits, QuantizedSpectralDense, SpectralDense,
};
use ffdl_nn::{
    copy_layer, load_network, save_network, Conv2d, Dense, Flatten, Layer, MaxPool2d,
    Network, NnError, Relu, Scratch, Sigmoid, Softmax, Tanh,
};
use ffdl_rng::prop::{check, PropResult};
use ffdl_rng::{prop_assert, prop_assert_eq, Rng, SeedableRng, SmallRng};
use ffdl_tensor::{im2col, ConvGeometry, Tensor};

/// (in_dim, out_dim, block, batch, seed) — includes padding cases.
fn geometry(rng: &mut SmallRng) -> (usize, usize, usize, usize, u64) {
    (
        rng.gen_range(1usize..=24),
        rng.gen_range(1usize..=24),
        rng.gen_range(1usize..=12),
        rng.gen_range(1usize..=4),
        rng.gen_range(0u64..1000),
    )
}

fn input_tensor(batch: usize, dim: usize, seed: u64) -> Tensor {
    let mut v = seed;
    Tensor::from_fn(&[batch, dim], |_| {
        // xorshift for determinism independent of the harness stream
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        ((v % 2000) as f32 / 1000.0) - 1.0
    })
}

/// FFT-path matvec equals the dense expansion for any geometry.
#[test]
fn matvec_equals_dense_expansion() {
    check(
        "matvec_equals_dense_expansion",
        40,
        geometry,
        |&(in_dim, out_dim, block, _b, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = BlockCirculantMatrix::random(in_dim, out_dim, block, &mut rng).unwrap();
            let x = input_tensor(1, in_dim, seed.wrapping_add(1));
            let fast = m.matvec(x.row(0)).unwrap();
            let dense = m.to_dense();
            let xv = Tensor::from_vec(x.row(0).to_vec(), &[in_dim]).unwrap();
            let slow = dense.transpose().unwrap().matvec(&xv).unwrap();
            let scale = 1.0 + slow.max_abs();
            for (a, v) in fast.iter().zip(slow.as_slice()) {
                prop_assert!((a - v).abs() < 1e-3 * scale, "{a} vs {v}");
            }
            Ok(())
        },
    );
}

/// `forward` and `forward_infer` of one layer: the two entry points must
/// agree bit for bit. Returns the output.
fn both_forwards(layer: &mut dyn Layer, x: &Tensor) -> Result<Tensor, String> {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let y = layer.forward(x).unwrap();
    let y_infer = layer.forward_infer(x, &mut Scratch::new()).unwrap();
    prop_assert_eq!(y.shape(), y_infer.shape());
    prop_assert_eq!(bits(&y), bits(&y_infer));
    Ok(y)
}

/// One layer of the all-layers property: its inference pass, run twice
/// with different inputs on one dirty, reused `Scratch`, equals its
/// training pass bit for bit; it keeps nothing for `backward`, which the
/// training pass does (on the layers that have a backward pass at all).
fn passes_agree(layer: &mut dyn Layer, shape: &[usize], trainable: bool, seed: u64) -> PropResult {
    let tag = layer.type_tag();
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let input = |seed| input_tensor(1, shape.iter().product(), seed).reshape(shape).unwrap();
    let (x1, x2) = (input(seed.wrapping_add(21)), input(seed.wrapping_add(22)));

    let mut scratch = Scratch::new();
    for len in [1, 7, 300, 5000] {
        scratch.recycle(Tensor::filled(&[len], f32::NAN));
    }
    let y1 = layer.forward_infer(&x1, &mut scratch).unwrap();
    let y1_bits = bits(&y1);
    scratch.recycle(y1);
    let y2 = layer.forward_infer(&x2, &mut scratch).unwrap();

    let g = Tensor::ones(y2.shape());
    if trainable {
        let kept = layer.backward(&g);
        prop_assert!(matches!(kept, Err(NnError::NoForwardCache(_))), "{tag}: inference pass kept a cache");
    }
    let t1 = layer.forward(&x1).unwrap();
    prop_assert!(t1.shape() == y2.shape(), "{tag}: output shapes differ");
    prop_assert!(bits(&t1) == y1_bits, "{tag}: first inference pass differs");
    let t2 = layer.forward(&x2).unwrap();
    prop_assert!(bits(&t2) == bits(&y2), "{tag}: second inference pass differs");
    let grads = layer.backward(&g);
    prop_assert!(grads.is_ok() == trainable, "{tag}: backward after a training pass: {grads:?}");
    Ok(())
}

/// A case of the all-layers properties: a dense [`geometry`], then
/// (channels, height, width), filters and (kernel, stride, pad) for the
/// image layers.
type FormsCase = (
    (usize, usize, usize, usize, u64),
    (usize, usize, usize),
    usize,
    (usize, usize, usize),
);

fn forms_case(rng: &mut SmallRng) -> FormsCase {
    let dense = geometry(rng);
    // Every other case (on average) the channel count is a multiple of
    // the block, so `CirculantConv2d` reads its spectral image; the rest
    // take the im2col fallback (1..=3 channels seldom divide).
    let channels = if rng.gen_range(0usize..2) == 0 {
        dense.2 * rng.gen_range(1usize..=2)
    } else {
        rng.gen_range(1usize..=3)
    };
    (
        dense,
        (channels, rng.gen_range(5usize..=8), rng.gen_range(5usize..=8)),
        rng.gen_range(1usize..=4),
        (rng.gen_range(2usize..=3), rng.gen_range(1usize..=2), rng.gen_range(0usize..=1)),
    )
}

/// Every registered layer type in every deployable form — 13 tags, 14
/// forms with both quant widths — with the input shape it takes and
/// whether it can train.
fn layer_forms(case: &FormsCase) -> Vec<(Box<dyn Layer>, Vec<usize>, bool)> {
    let &((width, out, block, batch, seed), (c, h, w), filters, (kernel, stride, pad)) = case;
    let mut rng = SmallRng::seed_from_u64(seed);
    let rng = &mut rng;
    let geom = ConvGeometry { kernel, stride, pad };
    let circ = CirculantDense::new(width, out, block, rng).unwrap();
    let quantized =
        |bits| QuantizedSpectralDense::from_matrix(circ.matrix(), circ.bias().clone(), bits);
    let (flat, image) = (vec![batch, width], vec![batch, c, h, w]);
    let mut layers: Vec<(Box<dyn Layer>, Vec<usize>, bool)> = vec![
        (Box::new(Dense::new(width, out, rng)), flat.clone(), true),
        (Box::new(Conv2d::new(c, filters, h, w, geom, rng).unwrap()), image.clone(), true),
        (Box::new(MaxPool2d::with_stride(kernel, stride)), image.clone(), true),
        (Box::new(Relu::new()), flat.clone(), true),
        (Box::new(Sigmoid::new()), flat.clone(), true),
        (Box::new(Tanh::new()), image.clone(), true),
        (Box::new(Softmax::new()), flat.clone(), true),
        (Box::new(Flatten::new()), image.clone(), true),
        (Box::new(SpectralDense::from_matrix(circ.matrix(), circ.bias().clone())), flat.clone(), false),
        (Box::new(quantized(QuantBits::Eight)), flat.clone(), false),
        (Box::new(quantized(QuantBits::Sixteen)), flat.clone(), false),
        (Box::new(CirculantConv2d::new(c, filters, h, w, geom, block, rng).unwrap()), image, true),
        (Box::new(CirculantGru::new(width, out, block, rng).unwrap()), flat.clone(), false),
    ];
    layers.push((Box::new(circ), flat, true));
    layers
}

/// Every registered layer type writes its arithmetic once: see
/// [`passes_agree`].
#[test]
fn inference_pass_equals_training_pass_on_every_layer_type() {
    check(
        "inference_pass_equals_training_pass_on_every_layer_type",
        25,
        forms_case,
        |case| {
            for (layer, shape, trainable) in &mut layer_forms(case) {
                passes_agree(layer.as_mut(), shape, *trainable, case.0 .4)?;
            }
            Ok(())
        },
    );
}

/// Every registered layer type is deployable as built: through the
/// model format (`load_network(save_network(..))`) and through
/// [`copy_layer`] it forwards bit-identically to the original and
/// reports the same `param_count`.
#[test]
fn every_layer_type_survives_the_wire_and_the_copy() {
    check(
        "every_layer_type_survives_the_wire_and_the_copy",
        25,
        forms_case,
        |case| {
            let registry = full_registry();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            for (layer, shape, _) in layer_forms(case) {
                let tag = layer.type_tag();
                let x = input_tensor(1, shape.iter().product(), case.0 .4.wrapping_add(31))
                    .reshape(&shape)
                    .unwrap();
                let mut copied = Network::new();
                match copy_layer(layer.as_ref(), &registry) {
                    Ok(copy) => copied.push_boxed(copy),
                    Err(e) => return Err(format!("{tag}: copy_layer: {e}")),
                }
                let mut original = Network::new();
                original.push_boxed(layer);
                let mut file = Vec::new();
                save_network(&original, &mut file).unwrap();
                let mut loaded = load_network(&file[..], &registry)
                    .map_err(|e| format!("{tag}: load_network: {e}"))?;

                let y = bits(&original.forward(&x).unwrap());
                for (route, rebuilt) in [("wire", &mut loaded), ("copy", &mut copied)] {
                    prop_assert!(
                        rebuilt.param_count() == original.param_count(),
                        "{tag}: {route}: param_count {} vs {}",
                        rebuilt.param_count(),
                        original.param_count()
                    );
                    let y_rebuilt = rebuilt.forward(&x).unwrap();
                    prop_assert!(bits(&y_rebuilt) == y, "{tag}: {route}: output differs");
                }
            }
            Ok(())
        },
    );
}

/// Writes a `quantized_spectral_dense` record — the tag and a valid
/// `[in, out, block, bits]` config — but no levels.
struct LevelsLost;

impl Layer for LevelsLost {
    fn type_tag(&self) -> &'static str {
        "quantized_spectral_dense"
    }
    fn forward_with(&mut self, x: &Tensor, _: &mut Scratch, _: bool) -> Result<Tensor, NnError> {
        Ok(x.clone())
    }
    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        Ok(grad.clone())
    }
    fn config_bytes(&self) -> Vec<u8> {
        [4u32, 4, 2, 16].map(u32::to_le_bytes).concat()
    }
}

/// A quantized layer's levels travel in the file's quantization header;
/// a record the header has no entry for is refused, not served as the
/// all-zero levels its config builder starts from. Both files that reach
/// it: a version-2 file (no header), and a version-3 header that skips it.
#[test]
fn a_quantized_layer_without_its_levels_is_refused() {
    let circ = CirculantDense::new(4, 4, 2, &mut SmallRng::seed_from_u64(5)).unwrap();
    let mut alone = Network::new();
    alone.push(LevelsLost);
    let mut skipped = Network::new();
    let bias = circ.bias().clone();
    skipped.push(QuantizedSpectralDense::from_matrix(circ.matrix(), bias, QuantBits::Sixteen));
    skipped.push(LevelsLost);
    for (version, net, index) in [(2u8, alone, 0), (3, skipped, 1)] {
        let mut file = Vec::new();
        save_network(&net, &mut file).unwrap();
        assert_eq!(file[4], version);
        match load_network(&file[..], &full_registry()) {
            Err(NnError::ModelFormat(msg)) => assert!(
                msg.contains(&format!("layer {index} (quantized_spectral_dense)")),
                "version {version}: {msg}"
            ),
            other => panic!("version {version}: expected ModelFormat, got {:?}", other.map(|_| ())),
        }
    }
}

/// (channels, block, filters, (height, width), geometry, batch, seed):
/// `channels` is a multiple of `block`, plus one in a quarter of the cases
/// — which then take the im2col fallback (blocks of 1 always divide).
type ConvCase = (usize, usize, usize, (usize, usize), ConvGeometry, usize, u64);

fn conv_case(rng: &mut SmallRng) -> ConvCase {
    let block = rng.gen_range(1usize..=8);
    let channels = block * rng.gen_range(1usize..=3) + usize::from(rng.gen_range(0usize..4) == 0);
    let geom = ConvGeometry {
        kernel: rng.gen_range(1usize..=3),
        stride: rng.gen_range(1usize..=2),
        pad: rng.gen_range(0usize..=1),
    };
    (
        channels,
        block,
        rng.gen_range(1usize..=9),
        (rng.gen_range(4usize..=7), rng.gen_range(4usize..=7)),
        geom,
        rng.gen_range(1usize..=2),
        rng.gen_range(0u64..1000),
    )
}

/// The CONV layer's spectral image is a faster way to run the paper's
/// lowering, not a different product: both passes equal, **bit for bit**,
/// im2col → block-circulant product on the lowered rows → transpose plus
/// bias, assembled here from the public parts — whether `b | C` or not.
#[test]
fn conv_image_path_equals_the_im2col_lowering_bitwise() {
    check(
        "conv_image_path_equals_the_im2col_lowering_bitwise",
        40,
        conv_case,
        |&(c, block, filters, (h, w), geom, batch, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut layer = CirculantConv2d::new(c, filters, h, w, geom, block, &mut rng).unwrap();
            let bias = Tensor::from_fn(&[filters], |p| p as f32 * 0.25 - 0.5);
            *layer.parameters()[1].value = bias.clone();
            let x = input_tensor(batch, c * h * w, seed.wrapping_add(41))
                .reshape(&[batch, c, h, w])
                .unwrap();
            let y = both_forwards(&mut layer, &x)?;

            let pixels = layer.out_h() * layer.out_w();
            let mut lowered = Vec::with_capacity(batch * filters * pixels);
            let mut rows = Tensor::zeros(&[0]);
            for s in 0..batch {
                let sample = x.as_slice()[s * c * h * w..(s + 1) * c * h * w].to_vec();
                let cols = im2col(&Tensor::from_vec(sample, &[c, h, w]).unwrap(), geom).unwrap();
                layer
                    .matrix()
                    .forward_batch_infer(&cols, &mut CirculantScratch::new(), &mut rows)
                    .unwrap();
                for p in 0..filters {
                    lowered.extend((0..pixels).map(|pix| rows.row(pix)[p] + bias.as_slice()[p]));
                }
            }
            prop_assert_eq!(y.shape(), &[batch, filters, layer.out_h(), layer.out_w()][..]);
            let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(y.as_slice()), bits(&lowered));
            Ok(())
        },
    );
}

/// `|y − reference| < tol(row, column)` everywhere.
fn close_to(y: &Tensor, reference: &Tensor, tol: impl Fn(usize, usize) -> f32) -> PropResult {
    for r in 0..y.rows() {
        for (c, (a, v)) in y.row(r).iter().zip(reference.row(r)).enumerate() {
            prop_assert!((a - v).abs() < tol(r, c), "row {r} col {c}: {a} vs {v}");
        }
    }
    Ok(())
}

/// Layer forward/backward equals a Dense layer with the expanded
/// matrix, batched — for the training layer, its frozen spectral form
/// and its int16 form (the latter within its stated `max_error` bound),
/// each through both `forward` and `forward_infer`.
#[test]
fn layer_equals_dense_layer() {
    check(
        "layer_equals_dense_layer",
        40,
        geometry,
        |&(in_dim, out_dim, block, batch, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut circ = CirculantDense::new(in_dim, out_dim, block, &mut rng).unwrap();
            let mut dense =
                Dense::with_params(circ.matrix().to_dense(), circ.bias().clone()).unwrap();
            let mut frozen = SpectralDense::from_matrix(circ.matrix(), circ.bias().clone());
            let mut quantized = QuantizedSpectralDense::from_matrix(
                circ.matrix(),
                circ.bias().clone(),
                QuantBits::Sixteen,
            );

            let x = input_tensor(batch, in_dim, seed.wrapping_add(7));
            let y_d = dense.forward(&x).unwrap();
            let float_tol = 2e-3 * (1.0 + y_d.max_abs());
            close_to(&both_forwards(&mut circ, &x)?, &y_d, |_, _| float_tol)?;
            close_to(&both_forwards(&mut frozen, &x)?, &y_d, |_, _| float_tol)?;
            // A spectrum component off by at most e moves every value of
            // the block's defining vectors by at most √2·e, and an output
            // by at most that times ‖x‖₁.
            let l1: Vec<f32> = (0..batch).map(|r| x.row(r).iter().map(|v| v.abs()).sum()).collect();
            close_to(&both_forwards(&mut quantized, &x)?, &y_d, |r, c| {
                float_tol + std::f32::consts::SQRT_2 * quantized.max_error(c / block) * l1[r]
            })?;

            let g = input_tensor(batch, out_dim, seed.wrapping_add(13));
            let gx_c = circ.backward(&g).unwrap();
            let gx_d = dense.backward(&g).unwrap();
            let scale = 1.0 + gx_d.max_abs();
            for (a, v) in gx_c.as_slice().iter().zip(gx_d.as_slice()) {
                prop_assert!((a - v).abs() < 2e-3 * scale, "grad {a} vs {v}");
            }
            Ok(())
        },
    );
}

/// Storage never exceeds the dense count and matches the padded-grid
/// formula exactly.
#[test]
fn compression_formula() {
    check(
        "compression_formula",
        40,
        geometry,
        |&(in_dim, out_dim, block, _b, _seed)| {
            let m = BlockCirculantMatrix::zeros(in_dim, out_dim, block).unwrap();
            let kb_in = in_dim.div_ceil(block);
            let kb_out = out_dim.div_ceil(block);
            prop_assert_eq!(m.param_count(), kb_in * kb_out * block);
            // Padded storage can only exceed dense when padding dominates:
            // bounded by the padded logical size.
            prop_assert!(m.param_count() <= kb_in * block * kb_out * block);
            Ok(())
        },
    );
}

/// Dense → project → expand is idempotent (projection is a projection).
#[test]
fn projection_is_idempotent() {
    check(
        "projection_is_idempotent",
        40,
        geometry,
        |&(in_dim, out_dim, block, _b, seed)| {
            let dense = input_tensor(in_dim, out_dim, seed.wrapping_add(3));
            let once = BlockCirculantMatrix::project_from_dense(&dense, block).unwrap();
            let twice = BlockCirculantMatrix::project_from_dense(&once.to_dense(), block).unwrap();
            for (a, v) in once.weights().as_slice().iter().zip(twice.weights().as_slice()) {
                prop_assert!((a - v).abs() < 1e-4, "{a} vs {v}");
            }
            Ok(())
        },
    );
}

/// Chain-rule consistency: the circulant weight gradient is exactly the
/// circulant-diagonal *sum* of the unconstrained dense weight gradient —
/// because each defining value `w_ij[d]` appears at every position
/// `(j·b+q, i·b+p)` with `(p − q) mod b = d` of the expanded matrix.
#[test]
fn circulant_gradient_is_diagonal_sum_of_dense_gradient() {
    let mut rng = SmallRng::seed_from_u64(77);
    let (in_dim, out_dim, b) = (8usize, 4usize, 4usize);
    let mut circ = CirculantDense::new(in_dim, out_dim, b, &mut rng).unwrap();
    let mut dense = Dense::with_params(circ.matrix().to_dense(), circ.bias().clone()).unwrap();

    let x = input_tensor(3, in_dim, 5);
    let y = circ.forward(&x).unwrap();
    let _ = dense.forward(&x).unwrap();
    let g = y; // L = ||y||²/2
    let _ = circ.backward(&g).unwrap();
    let _ = dense.backward(&g).unwrap();

    // Pull out both weight gradients through the parameter interface.
    let circ_grad = circ.parameters()[0].grad.clone();
    let dense_grad = dense.parameters()[0].grad.clone();

    let kb_in = in_dim / b;
    let kb_out = out_dim / b;
    for i in 0..kb_out {
        for j in 0..kb_in {
            for d in 0..b {
                let mut sum = 0.0f32;
                for q in 0..b {
                    let p = (q + d) % b;
                    sum += dense_grad.at(&[j * b + q, i * b + p]);
                }
                let ana = circ_grad.at(&[i, j, d]);
                assert!(
                    (sum - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                    "block ({i},{j}) diag {d}: {sum} vs {ana}"
                );
            }
        }
    }
}
