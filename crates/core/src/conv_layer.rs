//! The block-circulant convolutional layer (§IV-B): the weight tensor `F`
//! is constrained so that its Fig.-3 lowering `F ∈ ℝ^{Cr²×P}` is a
//! block-circulant matrix (Eqn. 6), and the lowered product `Y = X·F` runs
//! through the same FFT kernel as the FC layer. Complexity drops from
//! `O(W·H·r²·C·P)` to `O(W·H·Q·log Q)` with `Q = max(r²C, P)`.

use crate::circulant::BlockCirculantMatrix;
use crate::spectral::{identity_view, CirculantScratch};
use ffdl_fft::Complex32;
use ffdl_nn::{wire, Layer, NnError, OpCost, ParamRef, Scratch};
use ffdl_tensor::{col2im, im2col_into, ConvGeometry, Tensor};
use ffdl_rng::Rng;

/// Convolutional layer whose lowered filter matrix is block-circulant:
/// input `[batch, C, H, W]` → output `[batch, P, H_out, W_out]`.
///
/// Per sample, the rows of the im2col matrix (one per output pixel) go
/// through the same Algorithm 1 product as the FC layer's rows — read,
/// when `b | C`, straight out of a spectral image of the input that
/// transforms each pixel once instead of once per kernel offset.
pub struct CirculantConv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    in_h: usize,
    in_w: usize,
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
        geom.output_extent(in_h)?;
        geom.output_extent(in_w)?;
        let rows = in_channels * geom.kernel * geom.kernel;
        let matrix = BlockCirculantMatrix::random(rows, out_channels, block, rng)?;
        Ok(Self {
            in_channels,
            out_channels,
            geom,
            in_h,
            in_w,
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
        self.geom
            .output_extent(self.in_h)
            .expect("validated at construction")
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.geom
            .output_extent(self.in_w)
            .expect("validated at construction")
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
        self.in_channels.is_multiple_of(self.block()).then_some(self.in_channels / self.block())
    }

    /// The view both passes read a sample's `X̂` through. Over a spectral
    /// image (pixel-major, one zero pixel last), block `j` of output pixel
    /// `p` is channel block `j mod C/b` of the pixel under tap `j div C/b`,
    /// taps in Eqn. 6 column order and padded taps on the zero pixel; the
    /// spectra of lowered rows are read in place.
    fn view(&self) -> impl Fn(usize, &mut Vec<usize>) + Copy {
        let (h, w, ow, geom) = (self.in_h, self.in_w, self.out_w(), self.geom);
        let (channel_blocks, kb_in) = (self.channel_blocks(), self.matrix.in_blocks());
        move |pixel, slots| match channel_blocks {
            None => identity_view(kb_in)(pixel, slots),
            Some(cb) => {
                let (oy, ox) = (pixel / ow, pixel % ow);
                for kj in 0..geom.kernel {
                    for ki in 0..geom.kernel {
                        // A tap left of or above the image wraps to a
                        // huge coordinate and fails the same test.
                        let iy = (oy * geom.stride + ki).wrapping_sub(geom.pad);
                        let ix = (ox * geom.stride + kj).wrapping_sub(geom.pad);
                        let read = if iy < h && ix < w { iy * w + ix } else { h * w };
                        slots.extend(read * cb..(read + 1) * cb);
                    }
                }
            }
        }
    }

    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        if input.ndim() != 4
            || input.shape()[1] != self.in_channels
            || input.shape()[2] != self.in_h
            || input.shape()[3] != self.in_w
        {
            return Err(NnError::BadInput {
                layer: "circulant_conv2d".into(),
                message: format!(
                    "expected [batch, {}, {}, {}], got {:?}",
                    self.in_channels,
                    self.in_h,
                    self.in_w,
                    input.shape()
                ),
            });
        }
        Ok(())
    }
}

impl Layer for CirculantConv2d {
    fn type_tag(&self) -> &'static str {
        "circulant_conv2d"
    }

    /// Algorithm 1 on the Fig. 3 lowering, without the lowering: row `p`
    /// of the im2col matrix is output pixel `p`'s taps in Eqn. 6 column
    /// order (`col = c + C·ki + C·r·kj`, channel fastest), so when `b | C`
    /// every block of it is one channel block of one input pixel. Each
    /// sample is therefore transposed to pixel-major `[H·W, C]` — plus one
    /// zero pixel, which padded taps read — and transformed **once** into
    /// a spectral image, which the product reads through `Self::view`.
    /// The same floats give the same spectra and the order of
    /// accumulation is that of the lowered rows, so every output bit is
    /// too. When `b ∤ C` the rows are lowered with im2col and read in
    /// place. Either way the `[oh·ow, P]` product is transposed to
    /// `[P, oh, ow]` with bias, and with `keep` each sample's `X̂` is
    /// retained for `backward`.
    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let batch = input.shape()[0];
        let (c, h, w, ow) = (self.in_channels, self.in_h, self.in_w, self.out_w());
        let (pixels, hw) = (self.out_h() * ow, h * w);
        let plane_out = self.out_channels * pixels;
        let (channel_blocks, view) = (self.channel_blocks(), self.view());
        let mut out = scratch.take(&[batch, self.out_channels, self.out_h(), ow]);
        // The sample as it is transformed (pixel-major, zero pixel last) or
        // as im2col reads it, and the lowered rows of the fallback.
        let staged_shape = if channel_blocks.is_some() { [hw + 1, c, 1] } else { [c, h, w] };
        let mut staged = scratch.take(&staged_shape);
        let mut cols = channel_blocks.is_none().then(|| scratch.take(&[pixels, self.matrix.in_dim()]));
        let mut y = scratch.take(&[pixels, self.out_channels]);
        let sc = &mut self.infer_scratch;
        let kernel = self.matrix.kernel();
        if keep {
            self.kept.clear();
        }

        for s in 0..batch {
            let sample = &input.as_slice()[s * c * hw..(s + 1) * c * hw];
            let rows = match &mut cols {
                None => {
                    let pixel_major = staged.as_mut_slice();
                    for (ch, plane) in sample.chunks_exact(hw).enumerate() {
                        for (p, &v) in plane.iter().enumerate() {
                            pixel_major[p * c + ch] = v;
                        }
                    }
                    (&*pixel_major, c)
                }
                Some(cols) => {
                    staged.as_mut_slice().copy_from_slice(sample);
                    im2col_into(&staged, self.geom, cols)?;
                    (cols.as_slice(), self.matrix.in_dim())
                }
            };
            let len = kernel.spectra_of(rows, &mut sc.bufs, &mut sc.x_spec);
            if keep {
                self.kept.push(sc.x_spec[..len].to_vec());
            }
            self.matrix
                .product((&sc.x_spec, view), y.as_mut_slice(), &mut sc.bufs, |_, _, v| v);
            let dst = &mut out.as_mut_slice()[s * plane_out..(s + 1) * plane_out];
            let ys = y.as_slice();
            for p in 0..self.out_channels {
                let b = self.bias.as_slice()[p];
                for pix in 0..pixels {
                    dst[p * pixels + pix] = ys[pix * self.out_channels + p] + b;
                }
            }
        }
        scratch.recycle(staged);
        if let Some(cols) = cols {
            scratch.recycle(cols);
        }
        scratch.recycle(y);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        if self.kept.is_empty() {
            return Err(NnError::NoForwardCache("circulant_conv2d".into()));
        }
        let (oh, ow) = (self.out_h(), self.out_w());
        if grad_output.ndim() != 4
            || grad_output.shape()[0] != self.kept.len()
            || grad_output.shape()[1] != self.out_channels
            || grad_output.shape()[2] != oh
            || grad_output.shape()[3] != ow
        {
            return Err(NnError::BadInput {
                layer: "circulant_conv2d".into(),
                message: format!(
                    "expected gradient [{}, {}, {oh}, {ow}], got {:?}",
                    self.kept.len(),
                    self.out_channels,
                    grad_output.shape()
                ),
            });
        }

        let plane_out = self.out_channels * oh * ow;
        let mut weight_grad = Tensor::zeros(self.matrix.weights().shape());
        let mut bias_grad = vec![0.0f32; self.out_channels];
        let mut grad_input =
            Vec::with_capacity(self.kept.len() * self.in_channels * self.in_h * self.in_w);
        let view = self.view();

        for (s, x_hat) in self.kept.iter().enumerate() {
            // Reassemble g as [oh·ow, P] from [P, oh, ow].
            let gslice = &grad_output.as_slice()[s * plane_out..(s + 1) * plane_out];
            let mut g = vec![0.0f32; oh * ow * self.out_channels];
            for p in 0..self.out_channels {
                for pix in 0..oh * ow {
                    let v = gslice[p * oh * ow + pix];
                    g[pix * self.out_channels + p] = v;
                    bias_grad[p] += v;
                }
            }
            let g = Tensor::from_vec(g, &[oh * ow, self.out_channels])?;
            let (dcols, dw) = self.matrix.backward_rows((x_hat, view), &g);
            weight_grad = weight_grad.add(&dw)?;
            let dx = col2im(&dcols, self.in_channels, self.in_h, self.in_w, self.geom)?;
            grad_input.extend_from_slice(dx.as_slice());
        }

        self.weight_grad = weight_grad;
        self.bias_grad = Tensor::from_slice(&bias_grad);
        Ok(Tensor::from_vec(
            grad_input,
            &[self.kept.len(), self.in_channels, self.in_h, self.in_w],
        )?)
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
        let (oh, ow) = (self.out_h(), self.out_w());
        let pixels = (oh * ow) as u64;
        let b = self.matrix.block() as u64;
        let bins = (self.matrix.block() / 2 + 1) as u64;
        let kb_in = self.matrix.in_blocks() as u64;
        let kb_out = self.matrix.out_blocks() as u64;
        let log_b = (64 - b.leading_zeros() as u64).max(1);
        let fft_mults = b * log_b;
        // Weight spectra are shared across pixels: count them once.
        let per_pixel = (kb_in + kb_out) * fft_mults + kb_in * kb_out * bins * 4;
        let mults = pixels * per_pixel + kb_in * kb_out * fft_mults;
        OpCost {
            mults,
            adds: mults + pixels * self.out_channels as u64,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_channels * self.in_h * self.in_w
                + self.out_channels * oh * ow) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for v in [
            self.in_channels,
            self.out_channels,
            self.in_h,
            self.in_w,
            self.geom.kernel,
            self.geom.stride,
            self.geom.pad,
            self.matrix.block(),
        ] {
            wire::write_u32(&mut buf, v as u32).expect("vec write is infallible");
        }
        buf
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![self.matrix.weights(), &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2
            || params[0].shape() != self.matrix.weights().shape()
            || params[1].shape() != [self.out_channels]
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
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            geom: self.geom,
            in_h: self.in_h,
            in_w: self.in_w,
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
    let mut vals = [0usize; 8];
    for v in &mut vals {
        *v = wire::read_u32(&mut config)? as usize;
    }
    let [cin, cout, h, w, k, s, p, block] = vals;
    let geom = ConvGeometry {
        kernel: k,
        stride: s,
        pad: p,
    };
    let mut rng = ffdl_rng::rngs::mock::StepRng::new(1, 1);
    let layer = CirculantConv2d::new(cin, cout, h, w, geom, block, &mut rng)?;
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
