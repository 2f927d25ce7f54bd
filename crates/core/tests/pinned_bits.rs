//! Bits of Algorithms 1 and 2, captured at the commit where Algorithm 2
//! was still a hand-written loop over per-row copies of the input spectra
//! (one `Vec` per row per block): `y`, `∂L/∂x`, `∂L/∂w` of the block-circulant
//! matrix, and the CONV layer's output, input gradient and two parameter
//! gradients on both of its paths. Every value's `to_bits()` is folded
//! into one FNV-1a word per tensor; inputs are exact in `f32`, so the
//! words depend on the transforms and the order of accumulation alone.
//! Then the model-format bytes of both CONV layers, captured at the
//! commit before their geometry and config words moved into one shared
//! shape. Last, the bytes, output bits, op counts and parameter counts of
//! every FC-shaped circulant layer and the GRU, captured at the commit
//! before their block geometry moved into one grid.

use ffdl_core::{
    circulant_gru_from_config, full_registry, BlockCirculantMatrix, CirculantConv2d,
    CirculantDense, QuantBits, QuantizedSpectralDense, SpectralDense,
};
use ffdl_nn::{load_network, save_network, Conv2d, Layer, MaxPool2d, Network, OpCost, Scratch};
use ffdl_rng::StepRng;
use ffdl_tensor::{ConvGeometry, Tensor};

fn exact(shape: &[usize], salt: usize) -> Tensor {
    Tensor::from_fn(shape, |i| ((i * 7 + salt * 5 + 3) % 19) as f32 * 0.125 - 1.0)
}

fn fnv_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv(t: &Tensor) -> u64 {
    fnv_bytes(t.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// `[y, ∂L/∂x, ∂L/∂w]` of one `forward_batch` / `backward_batch` pair.
fn fc((in_dim, out_dim, b): (usize, usize, usize), batch: usize) -> [u64; 3] {
    let grid = [out_dim.div_ceil(b), in_dim.div_ceil(b), b];
    let m = BlockCirculantMatrix::from_weights(in_dim, out_dim, b, exact(&grid, 1)).unwrap();
    let (y, cache) = m.forward_batch(&exact(&[batch, in_dim], 0)).unwrap();
    let (gx, gw) = m.backward_batch(&cache, &exact(&[batch, out_dim], 2)).unwrap();
    [fnv(&y), fnv(&gx), fnv(&gw)]
}

/// `[y, ∂L/∂x, ∂L/∂filters, ∂L/∂bias]` of a two-sample training pass.
fn conv((c, p, h, w): (usize, usize, usize, usize), geom: ConvGeometry, b: usize) -> [u64; 4] {
    let mut layer = CirculantConv2d::new(c, p, h, w, geom, b, &mut StepRng::new(1, 1)).unwrap();
    let grid = layer.matrix().weights().shape().to_vec();
    layer.load_params(&[exact(&grid, 1), exact(&[p], 3)]).unwrap();
    let y = layer.forward(&exact(&[2, c, h, w], 0)).unwrap();
    let gx = layer.backward(&exact(y.shape(), 2)).unwrap();
    let grads = layer.parameters();
    [fnv(&y), fnv(&gx), fnv(grads[0].grad), fnv(grads[1].grad)]
}

#[test]
fn both_algorithms_keep_the_bits_of_the_per_row_spectra_copies() {
    // Padded and dividing widths; power-of-two, odd and chirp-transform
    // blocks; one Arch. 1 layer at the training batch.
    for (shape, batch, bits) in [
        ((10, 7, 4), 2, [0xbdd01af96db68dbe, 0x21c86a9f7d8dd2b8, 0x672826a9b5216893]),
        ((7, 5, 3), 2, [0x5512d9b35bfcd36d, 0x7b05da43306e29fc, 0x7845f516e8156e0b]),
        ((13, 11, 6), 2, [0x0892f6de99ad116a, 0x96d8e000407c1ff1, 0xd2f43fec801c7a66]),
        ((70, 9, 64), 2, [0xe7a14ffc428e6beb, 0x1bea92383ae5bba8, 0x2acc4384b40e97ef]),
        ((256, 128, 64), 32, [0x5020fadcb767665e, 0xc3afbd472587e33f, 0x338ed6f917bfc90f]),
        ((121, 64, 11), 2, [0x8be8616a2d7f7f50, 0x2ea641074fac1ed0, 0xfe3ea0e5ec488479]),
    ] {
        assert_eq!(fc(shape, batch), bits, "fc {shape:?}: [y, dx, dw]");
    }
    // The spectral image (`b | C`) with padded taps, with a stride and
    // with an even kernel, then the im2col fallback (`b ∤ C`).
    let geom = |kernel, stride, pad| ConvGeometry { kernel, stride, pad };
    for (dims, geom, b, bits) in [
        ((8, 6, 5, 4), geom(3, 1, 1), 4, [0x5a732d09f623f831, 0x07c9cc3e12eba2ae, 0x77f02a42bbd4d662, 0x905c8614a92e5f11]),
        ((8, 12, 7, 7), geom(3, 2, 0), 8, [0xee3fb43c92a9d6c3, 0x65b69d1004be8f8a, 0x62f6ff3b6b714e65, 0x5cd501f78ebbd7e5]),
        ((16, 8, 4, 5), geom(2, 1, 1), 8, [0xf6415a23c2e5ac49, 0x047762280e41e7ea, 0x6e0d9efeab707047, 0x692f27dd77052d09]),
        ((5, 6, 5, 5), geom(3, 1, 0), 4, [0xe45fa742faf46988, 0x2bec2830d748f724, 0xc637a813413cc1a0, 0xff9a5596b4de2934]),
    ] {
        assert_eq!(conv(dims, geom, b), bits, "conv {dims:?} block {b}: [y, dx, dfilters, dbias]");
    }
}

#[test]
fn conv_layers_keep_their_wire_format() {
    // A dense CONV layer, the spectral image (`b | C`), the im2col fallback
    // (`b ∤ C`) with padding and stride 2, then max pooling.
    let geom = |kernel, stride, pad| ConvGeometry { kernel, stride, pad };
    let mut dense = Conv2d::new(4, 8, 9, 9, geom(3, 1, 0), &mut StepRng::new(1, 1)).unwrap();
    dense.load_params(&[exact(&[8, 4, 3, 3], 1), exact(&[8], 3)]).unwrap();
    let circulant = |p, geom, b| {
        let mut layer = CirculantConv2d::new(8, p, 7, 7, geom, b, &mut StepRng::new(1, 1)).unwrap();
        let grid = layer.matrix().weights().shape().to_vec();
        layer.load_params(&[exact(&grid, 1), exact(&[p], 3)]).unwrap();
        layer
    };
    let mut net = Network::new();
    net.push(dense);
    net.push(circulant(8, geom(3, 1, 1), 4));
    net.push(circulant(6, geom(3, 2, 1), 3));
    net.push(MaxPool2d::new(2));
    let mut file = Vec::new();
    save_network(&net, &mut file).unwrap();
    assert_eq!(fnv_bytes(file.iter().copied()), 0xc13378234d4a249f, "model-format bytes");
    // What this commit loads, it writes back byte for byte.
    let mut again = Vec::new();
    save_network(&load_network(&file[..], &full_registry()).unwrap(), &mut again).unwrap();
    assert_eq!(again, file);
}

fn fnv_counts(cost: OpCost, params: usize) -> u64 {
    let words = [cost.mults, cost.adds, cost.nonlin, cost.param_reads, cost.act_traffic, params as u64];
    fnv_bytes(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// `[file bytes, forward_infer output, op_cost + param_count]` of a
/// one-layer network; the file must load and save back byte for byte.
fn deployed(layer: Box<dyn Layer>, input: &Tensor) -> [u64; 3] {
    let counts = fnv_counts(layer.op_cost(), layer.param_count());
    let mut net = Network::new();
    net.push_boxed(layer);
    let mut file = Vec::new();
    save_network(&net, &mut file).unwrap();
    let mut loaded = load_network(&file[..], &full_registry()).unwrap();
    let mut again = Vec::new();
    save_network(&loaded, &mut again).unwrap();
    assert_eq!(again, file, "{}: load + save", net.layers()[0].type_tag());
    let y = loaded.forward_infer(input, &mut Scratch::new()).unwrap();
    assert_eq!(y.as_slice(), net.forward_infer(input, &mut Scratch::new()).unwrap().as_slice());
    [fnv_bytes(file), fnv(&y), counts]
}

#[test]
fn circulant_layers_keep_their_bytes_bits_and_counts() {
    // A padded shape on both sides (121 → 64) at a chirp-transform block.
    let (in_dim, out_dim, b) = (121usize, 64usize, 11usize);
    let grid = [out_dim.div_ceil(b), in_dim.div_ceil(b), b];
    let m = BlockCirculantMatrix::from_weights(in_dim, out_dim, b, exact(&grid, 1)).unwrap();
    let bias = exact(&[out_dim], 3);
    let x = exact(&[3, in_dim], 0);
    let quantized = |bits| Box::new(QuantizedSpectralDense::from_matrix(&m, bias.clone(), bits));
    let mut gru = circulant_gru_from_config(&[121u32, 64, 11].map(u32::to_le_bytes).concat()).unwrap();
    let shapes: Vec<Vec<usize>> = gru.param_tensors().iter().map(|t| t.shape().to_vec()).collect();
    let params: Vec<Tensor> = shapes.iter().enumerate().map(|(i, s)| exact(s, i + 1)).collect();
    gru.load_params(&params).unwrap();
    let got = [
        deployed(Box::new(CirculantDense::from_matrix(m.clone(), bias.clone())), &x),
        deployed(Box::new(SpectralDense::from_matrix(&m, bias.clone())), &x),
        deployed(quantized(QuantBits::Eight), &x),
        deployed(quantized(QuantBits::Sixteen), &x),
        deployed(gru, &x),
    ];
    let want = [
        [0x9afccb3c70ae7858, 0xed28d0af2cb030fd, 0xa4afa7da310a96e0],
        [0x1b29c0da676fb155, 0xed28d0af2cb030fd, 0x5b9fba2e8219a0a4],
        [0x675db8823e71ee7a, 0xdd152f1254a4b2e3, 0xff28d5edfe2dc5e7],
        [0xc1c9c50b6996f5b2, 0xecd3562c408be7a7, 0x86fc98c0b0e6541e],
        [0x72628316516220b7, 0x095c004fd237827b, 0x78ef9be4cdf6d0b3],
    ];
    assert_eq!(got, want, "[file, output, counts] of circulant_dense, spectral_dense, int8, int16, gru");
    // The CONV layer's count is the printed lowering's (Tables III / A3).
    let geom = ConvGeometry { kernel: 3, stride: 1, pad: 1 };
    let conv = CirculantConv2d::new(8, 6, 7, 7, geom, 11, &mut StepRng::new(1, 1)).unwrap();
    assert_eq!(fnv_counts(conv.op_cost(), conv.param_count()), 0xdbd306c5417e4d34, "circulant_conv2d counts");
}
