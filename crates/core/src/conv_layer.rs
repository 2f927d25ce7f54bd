//! The block-circulant convolutional layer (§IV-B): the weight tensor `F`
//! is constrained so that its Fig.-3 lowering `F ∈ ℝ^{Cr²×P}` is a
//! block-circulant matrix (Eqn. 6), and the lowered product `Y = X·F` runs
//! through the same FFT kernel as the FC layer. Complexity drops from
//! `O(W·H·r²·C·P)` to `O(W·H·Q·log Q)` with `Q = max(r²C, P)`.
//!
//! Everything around the product — validation, config words, the
//! per-sample loop and its pixel-major staging, the output tail, the
//! gradient gather and the `col2im` scatter — is `ffdl_nn::ConvShape`'s,
//! shared with the dense `Conv2d`, and the op count is one product of the
//! filter matrix's block grid (`circulant::BlockGrid`) per output pixel;
//! this file holds the product and the weight gradient only.

use crate::circulant::BlockCirculantMatrix;
use crate::spectral::{identity_view, CirculantScratch};
use ffdl_fft::Complex32;
use ffdl_nn::{wire, ConvShape, Layer, NnError, OpCost, ParamRef, Scratch};
use ffdl_rng::Rng;
use ffdl_tensor::{im2col_into, ConvGeometry, Tensor};

/// Convolutional layer whose lowered filter matrix is block-circulant:
/// input `[batch, C, H, W]` → output `[batch, P, H_out, W_out]`.
///
/// Per sample, the rows of the im2col matrix (one per output pixel) go
/// through the same Algorithm 1 product as the FC layer's rows — read,
/// when `b | C`, straight out of a spectral image of the input that
/// transforms each pixel once instead of once per kernel offset.
pub struct CirculantConv2d {
    shape: ConvShape,
    /// Lowered filter matrix, logical shape `[C·r², P]`, block-circulant.
    matrix: BlockCirculantMatrix,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    /// Each sample's `X̂` from the last keeping forward pass: its spectral
    /// image, or the spectra of its lowered rows when `b ∤ C`.
    kept: Vec<Vec<Complex32>>,
    /// Complex-valued FFT scratch (per layer, never cloned).
    infer_scratch: CirculantScratch,
}

impl CirculantConv2d {
    /// Creates a block-circulant CONV layer.
    ///
    /// `block` is the circulant block size of the lowered `[Cr², P]`
    /// filter matrix; both dimensions are zero-padded to multiples of it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the kernel does not fit the input or any
    /// size is zero.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        geom: ConvGeometry,
        block: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        let shape = ConvShape::new(in_channels, out_channels, in_h, in_w, geom)?;
        let rows = in_channels * geom.kernel * geom.kernel;
        let matrix = BlockCirculantMatrix::random(rows, out_channels, block, rng)?;
        Ok(Self {
            shape,
            weight_grad: Tensor::zeros(matrix.weights().shape()),
            bias_grad: Tensor::zeros(&[out_channels]),
            matrix,
            bias: Tensor::zeros(&[out_channels]),
            kept: Vec::new(),
            infer_scratch: CirculantScratch::new(),
        })
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.shape.out_h()
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.shape.out_w()
    }

    /// The lowered block-circulant filter matrix (`[Cr², P]` logical).
    pub fn matrix(&self) -> &BlockCirculantMatrix {
        &self.matrix
    }

    /// Circulant block size.
    pub fn block(&self) -> usize {
        self.matrix.block()
    }

    /// Storage compression of the filter matrix.
    pub fn compression_ratio(&self) -> f32 {
        self.matrix.compression_ratio()
    }

    /// `C/b` when `b | C` and a sample is read as a spectral image; `None`
    /// when its rows are lowered with im2col.
    fn channel_blocks(&self) -> Option<usize> {
        let c = self.shape.dims().0;
        c.is_multiple_of(self.block()).then_some(c / self.block())
    }

    /// The view both passes read a sample's `X̂` through. Over a spectral
    /// image (pixel-major, one zero pixel last), block `j` of output pixel
    /// `p` is channel block `j mod C/b` of the pixel under tap `j div C/b`,
    /// taps in Eqn. 6 column order and padded taps on the zero pixel; the
    /// spectra of lowered rows are read in place.
    fn view(&self) -> impl Fn(usize, &mut Vec<usize>) + Copy {
        let ((_, h, w), ow, geom) = (self.shape.dims(), self.out_w(), self.shape.geometry());
        let (channel_blocks, kb_in) = (self.channel_blocks(), self.matrix.in_blocks());
        move |pixel, slots| match channel_blocks {
            None => identity_view(kb_in)(pixel, slots),
            Some(cb) => geom.for_each_tap((pixel / ow, pixel % ow), (h, w), |_, read| {
                let read = read.unwrap_or(h * w);
                slots.extend(read * cb..(read + 1) * cb);
            }),
        }
    }
}

impl Layer for CirculantConv2d {
    fn type_tag(&self) -> &'static str {
        "circulant_conv2d"
    }

    /// Algorithm 1 on the Fig. 3 lowering, without the lowering: row `p`
    /// of the im2col matrix is output pixel `p`'s taps in Eqn. 6 column
    /// order (`col = c + C·ki + C·r·kj`, channel fastest), so when `b | C`
    /// every block of it is one channel block of one input pixel. The
    /// driver's pixel-major `[H·W + 1, C]` image of each sample — its last,
    /// zero pixel is what padded taps read — is therefore transformed
    /// **once** into a spectral image, which the product reads through
    /// `Self::view`. The same floats give the same spectra and the order of
    /// accumulation is that of the lowered rows, so every output bit is
    /// too. When `b ∤ C` the rows are lowered with im2col and read in
    /// place. With `keep` each sample's `X̂` is retained for `backward`.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        let (shape, view, in_dim) = (self.shape, self.view(), self.matrix.in_dim());
        let (c, h, w) = shape.dims();
        // When `b ∤ C`, what `spectra_of` transforms is the sample's
        // lowered rows instead of the driver's image.
        let mut lowered = match self.channel_blocks() {
            Some(_) => None,
            None => Some(scratch.take(&[shape.pixels(), in_dim])),
        };
        let (matrix, kernel, bias) = (&self.matrix, &self.matrix.grid().kernel, &self.bias);
        let (sc, kept) = (&mut self.infer_scratch, &mut self.kept);
        if keep {
            kept.clear();
        }
        let out = shape.forward("circulant_conv2d", input, scratch, bias, |x, image, y| {
            let rows = if let Some(cols) = &mut lowered {
                im2col_into(x, (c, h, w), shape.geometry(), cols)?;
                (cols.as_slice(), in_dim)
            } else {
                (image, c)
            };
            let len = kernel.spectra_of(rows, &mut sc.bufs, &mut sc.x_spec);
            if keep {
                kept.push(sc.x_spec[..len].to_vec());
            }
            let y = y.as_mut_slice();
            matrix.product((&sc.x_spec, view), y, &mut sc.bufs, |_, _, v| v);
            Ok(())
        });
        if let Some(cols) = lowered {
            scratch.recycle(cols);
        }
        out
    }

    /// Algorithm 2 on each kept `X̂`, through the view the forward pass
    /// read it by: `∂L/∂w` is added per sample, as the lowered rows' would be.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut weight_grad = Tensor::zeros(self.matrix.weights().shape());
        let (view, matrix, kept) = (self.view(), &self.matrix, &self.kept);
        let grad_input = self.shape.backward(
            "circulant_conv2d",
            grad_output,
            kept.len(),
            &mut self.bias_grad,
            |s, g| {
                let (dcols, dw) = matrix.backward_rows((&kept[s], view), g);
                weight_grad = weight_grad.add(&dw)?;
                Ok(dcols)
            },
        )?;
        self.weight_grad = weight_grad;
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "circulant_filters",
                value: self.matrix.weights_mut(),
                grad: &mut self.weight_grad,
            },
            ParamRef {
                name: "bias",
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.matrix.param_count() + self.bias.len()
    }

    fn logical_param_count(&self) -> usize {
        self.matrix.logical_param_count() + self.bias.len()
    }

    /// Deliberately the cost of the paper's printed lowering — one
    /// block-circulant product per output pixel, every block of every
    /// im2col row transformed — not of the spectral image `forward_with`
    /// reads when `b | C`: the platform model behind Tables III / A3 is
    /// calibrated on these counts.
    fn op_cost(&self) -> OpCost {
        let (s, (c, h, w), g) = (self.shape, self.shape.dims(), self.matrix.grid());
        let pixels = s.pixels() as u64;
        // Weight spectra are shared across pixels: count them once.
        let mults = pixels * g.row_mults() + g.weight_mults();
        OpCost {
            mults,
            adds: mults + pixels * s.filters() as u64,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (c * h * w + s.filters() * s.pixels()) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = self.shape.config_bytes();
        wire::write_u32(&mut buf, self.block() as u32).expect("vec write is infallible");
        buf
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![self.matrix.weights(), &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2
            || params[0].shape() != self.matrix.weights().shape()
            || params[1].shape() != self.bias.shape()
        {
            return Err(NnError::ModelFormat(
                "circulant_conv2d parameter shapes do not match".into(),
            ));
        }
        *self.matrix.weights_mut() = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            shape: self.shape,
            matrix: self.matrix.clone(),
            bias: self.bias.clone(),
            weight_grad: self.weight_grad.clone(),
            bias_grad: self.bias_grad.clone(),
            kept: Vec::new(),
            infer_scratch: CirculantScratch::new(),
        }))
    }
}

/// Reconstructs a [`CirculantConv2d`] from its config blob (model loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn circulant_conv2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let s = ConvShape::read_config(&mut config)?;
    let block = wire::read_u32(&mut config)? as usize;
    let mut rng = ffdl_rng::rngs::mock::StepRng::new(1, 1);
    let (c, h, w) = s.dims();
    let layer = CirculantConv2d::new(c, s.filters(), h, w, s.geometry(), block, &mut rng)?;
    Ok(Box::new(layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_tensor::{conv2d_direct, matrix_to_filters};
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(31)
    }

    fn image(batch: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[batch, c, h, w], |i| ((i * 17 + 7) % 31) as f32 * 0.05 - 0.7)
    }

    #[test]
    fn forward_matches_dense_conv_with_expanded_filters() {
        // The circulant CONV layer must equal a direct convolution with the
        // dense expansion of its lowered filter matrix.
        let geom = ConvGeometry::valid(3);
        let (c, h, w, p, b) = (2usize, 6usize, 6usize, 4usize, 2usize);
        let mut layer = CirculantConv2d::new(c, p, h, w, geom, b, &mut rng()).unwrap();
        let x = image(1, c, h, w);
        let y = layer.forward(&x).unwrap();

        let fmat = layer.matrix().to_dense(); // [Cr², P]
        let filters = matrix_to_filters(&fmat, c, 3).unwrap();
        let sample = Tensor::from_vec(x.as_slice().to_vec(), &[c, h, w]).unwrap();
        let reference = conv2d_direct(&sample, &filters, geom).unwrap();
        for (a, v) in y.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - v).abs() < 1e-3, "{a} vs {v}");
        }
    }

    #[test]
    fn gradient_check_small() {
        // The im2col fallback (b ∤ C), then the spectral image with padded
        // taps (b | C): `backward` reads what either one kept.
        gradient_check(1, ConvGeometry::valid(2));
        gradient_check(2, ConvGeometry { kernel: 2, stride: 1, pad: 1 });
    }

    fn gradient_check(channels: usize, geom: ConvGeometry) {
        let mut layer = CirculantConv2d::new(channels, 2, 4, 4, geom, 2, &mut rng()).unwrap();
        let x = image(1, channels, 4, 4);
        let loss = |layer: &mut CirculantConv2d, x: &Tensor| -> f32 {
            let y = layer.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let y = layer.forward(&x).unwrap();
        let gx = layer.backward(&y).unwrap();
        let wg = layer.weight_grad.clone();

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = gx.as_slice()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dx[{i}]: {num} vs {ana}"
            );
        }
        for i in 0..wg.len() {
            let orig = layer.matrix.weights().as_slice()[i];
            layer.matrix.weights_mut().as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.matrix.weights_mut().as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.matrix.weights_mut().as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = wg.as_slice()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dw[{i}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn batched_forward_shape() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut layer = CirculantConv2d::new(3, 8, 8, 8, geom, 4, &mut rng()).unwrap();
        let y = layer.forward(&image(2, 3, 8, 8)).unwrap();
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn a_keeping_pass_retains_the_spectral_image_not_one_copy_per_tap() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut layer = CirculantConv2d::new(8, 8, 6, 6, geom, 4, &mut rng()).unwrap();
        layer.forward(&image(2, 8, 6, 6)).unwrap();
        let bins = 4 / 2 + 1;
        let spectra: Vec<usize> = layer.kept.iter().map(|x_hat| x_hat.len() / bins).collect();
        // H·W pixels and the zero pixel, C/b blocks each — not the
        // 36 · 9 · 2 blocks of the lowered rows.
        assert_eq!(spectra, [(6 * 6 + 1) * 2; 2]);
    }

    #[test]
    fn compression_accounting() {
        let geom = ConvGeometry::valid(3);
        // Lowered matrix is [3·9, 64] = [27, 64], block 9 → pads rows
        // to 27 (divides), cols to 63→... 64/9 = 7.11 → 8 blocks.
        let layer = CirculantConv2d::new(3, 64, 16, 16, geom, 9, &mut rng()).unwrap();
        assert_eq!(layer.matrix().in_blocks(), 3);
        assert_eq!(layer.matrix().out_blocks(), 8);
        assert_eq!(layer.param_count(), 3 * 8 * 9 + 64);
        assert!(layer.compression_ratio() > 7.0);
    }

    #[test]
    fn errors_on_bad_shapes() {
        let geom = ConvGeometry::valid(3);
        let mut layer = CirculantConv2d::new(2, 4, 6, 6, geom, 2, &mut rng()).unwrap();
        assert!(layer.forward(&image(1, 3, 6, 6)).is_err());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 4, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
        let _ = layer.forward(&image(1, 2, 6, 6)).unwrap();
        assert!(layer.backward(&Tensor::zeros(&[1, 4, 5, 5])).is_err());
        assert!(CirculantConv2d::new(1, 1, 2, 2, ConvGeometry::valid(5), 2, &mut rng()).is_err());
    }

    #[test]
    fn config_roundtrip() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let mut layer = CirculantConv2d::new(2, 6, 9, 9, geom, 3, &mut rng()).unwrap();
        let mut rebuilt = circulant_conv2d_from_config(&layer.config_bytes()).unwrap();
        let params: Vec<Tensor> = layer.param_tensors().into_iter().cloned().collect();
        rebuilt.load_params(&params).unwrap();
        let x = image(1, 2, 9, 9);
        let y1 = layer.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        for (a, v) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - v).abs() < 1e-6);
        }
        assert!(rebuilt.load_params(&[]).is_err());
    }

    #[test]
    fn trains_under_sgd() {
        use ffdl_nn::{Network, Sgd, SoftmaxCrossEntropy};
        let geom = ConvGeometry::valid(3);
        let mut r = rng();
        let mut net = Network::new();
        net.push(CirculantConv2d::new(1, 4, 6, 6, geom, 4, &mut r).unwrap());
        net.push(ffdl_nn::Relu::new());
        net.push(ffdl_nn::Flatten::new());
        net.push(ffdl_nn::Dense::new(4 * 4 * 4, 2, &mut r));

        // Two distinguishable patterns.
        let mut data = vec![0.0f32; 2 * 36];
        for i in 0..18 {
            data[i] = 1.0; // class 0: top half lit
            data[36 + 35 - i] = 1.0; // class 1: bottom half lit
        }
        let x = Tensor::from_vec(data, &[2, 1, 6, 6]).unwrap();
        let labels = [0usize, 1];
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..60 {
            last = net.train_batch(&x, &labels, &loss, &mut opt).unwrap();
        }
        assert!(last < 0.1, "loss {last}");
        assert_eq!(net.accuracy(&x, &labels).unwrap(), 1.0);
    }
}
