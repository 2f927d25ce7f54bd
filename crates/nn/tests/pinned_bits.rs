//! Bits of the dense layers, captured at the commit where
//! `Tensor::matmul_into` was still the `ikj` loop that branched on every
//! zero of its left operand: `Dense` output, `∂L/∂x` and `∂L/∂w`, and
//! `Conv2d` output, `∂L/∂x`, `∂L/∂filters` and `∂L/∂bias`. Every value's
//! `to_bits()` is folded into one FNV-1a word per tensor. Activations are
//! exact post-ReLU values, about half of them zero; weights are sevenths,
//! so the sums round and the words depend on which terms are added and
//! in what order.

use ffdl_nn::{Conv2d, Dense, Layer};
use ffdl_rng::StepRng;
use ffdl_tensor::{ConvGeometry, Tensor};

fn exact(shape: &[usize], salt: usize) -> Tensor {
    Tensor::from_fn(shape, |i| {
        ((i * 7 + salt * 5 + 3) % 19) as f32 * 0.125 - 1.0
    })
}

fn post_relu(shape: &[usize], salt: usize) -> Tensor {
    exact(shape, salt).map(|v| v.max(0.0))
}

fn sevenths(shape: &[usize], salt: usize) -> Tensor {
    exact(shape, salt).map(|v| v / 7.0)
}

fn fnv(t: &Tensor) -> u64 {
    t.as_slice()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// `[y, ∂L/∂x, ∂L/∂w]` of one forward / backward pair.
fn dense(in_dim: usize, out_dim: usize, batch: usize) -> [u64; 3] {
    let mut layer =
        Dense::with_params(sevenths(&[in_dim, out_dim], 1), sevenths(&[out_dim], 3)).unwrap();
    let y = layer.forward(&post_relu(&[batch, in_dim], 0)).unwrap();
    let gx = layer.backward(&sevenths(y.shape(), 2)).unwrap();
    let grads = layer.parameters();
    [fnv(&y), fnv(&gx), fnv(grads[0].grad)]
}

/// `[y, ∂L/∂x, ∂L/∂filters, ∂L/∂bias]` of a two-sample training pass.
fn conv((c, p, h, w): (usize, usize, usize, usize), geom: ConvGeometry) -> [u64; 4] {
    let mut layer = Conv2d::new(c, p, h, w, geom, &mut StepRng::new(1, 1)).unwrap();
    let k = geom.kernel;
    layer
        .load_params(&[sevenths(&[p, c, k, k], 1), sevenths(&[p], 3)])
        .unwrap();
    let y = layer.forward(&post_relu(&[2, c, h, w], 0)).unwrap();
    let gx = layer.backward(&sevenths(y.shape(), 2)).unwrap();
    let grads = layer.parameters();
    [fnv(&y), fnv(&gx), fnv(grads[0].grad), fnv(grads[1].grad)]
}

#[test]
fn dense_layers_keep_the_bits_of_the_branching_product() {
    // Arch. 1's head at one row, and the fc4096 head at its batch.
    for (shape, bits) in [
        (
            (128, 10, 1),
            [0x62072aeeba01dd70, 0x1730fe9bb3e93e35, 0xe7afa68bc4ad6019],
        ),
        (
            (4096, 10, 32),
            [0x2e9e82df05378592, 0x6640cc7ac93f8e3c, 0xe52f7dfdeacecfdb],
        ),
    ] {
        assert_eq!(
            dense(shape.0, shape.1, shape.2),
            bits,
            "dense {shape:?}: [y, dx, dw]"
        );
    }
    let geom = |kernel, stride, pad| ConvGeometry {
        kernel,
        stride,
        pad,
    };
    for (dims, geom, bits) in [
        (
            (8, 16, 10, 10),
            geom(3, 1, 0),
            [
                0x62c8ec1601919dfb,
                0x6158fcfb681ecf3c,
                0xbdd97615973e96de,
                0x37fcb49e2fb0fdc2,
            ],
        ),
        (
            (3, 5, 9, 7),
            geom(3, 2, 1),
            [
                0x44916a2a29f7f5b8,
                0x63bc738b17250c84,
                0x609ca72ccf164e80,
                0x655364e07dbe2f37,
            ],
        ),
    ] {
        assert_eq!(
            conv(dims, geom),
            bits,
            "conv {dims:?}: [y, dx, dfilters, dbias]"
        );
    }
}
