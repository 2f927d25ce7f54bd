//! FFT-based convolution *without* compression — the baseline the paper
//! distinguishes itself from (§I): "the prior work of using FFT for
//! convolutional layer acceleration by LeCun et al. [11] ... can only
//! achieve convolutional layer acceleration instead of simultaneous
//! compression."
//!
//! [`FftConv2d`] stores the same dense `[P, C, r, r]` filter bank as
//! `ffdl_nn::Conv2d` (zero compression) but evaluates the valid
//! cross-correlation of Eqn. 5 through 2-D FFTs: each channel and filter
//! is transformed once per pass at size `(H+r−1) × (W+r−1)` (where
//! circular = linear convolution), products accumulate in the frequency
//! domain, and one inverse FFT per output map recovers the result.

use ffdl_fft::{Complex32, Fft2d};
use ffdl_nn::{wire, Layer, NnError, OpCost, ParamRef, Scratch};
use ffdl_tensor::{Init, Tensor};
use ffdl_rng::Rng;

/// Dense convolutional layer computed via the 2-D FFT (valid
/// correlation, stride 1, no padding — the setting of Eqn. 5 and of the
/// LeCun et al. baseline).
///
/// Input `[batch, C, H, W]` → output `[batch, P, H−r+1, W−r+1]`. Stores
/// `P·C·r² + P` parameters — identical to `Conv2d`; the point of this
/// layer is the *compute* path, benchmarked against
/// [`CirculantConv2d`](crate::CirculantConv2d) which also compresses.
pub struct FftConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    in_h: usize,
    in_w: usize,
    filters: Tensor, // [P, C, r, r]
    bias: Tensor,    // [P]
    filters_grad: Tensor,
    bias_grad: Tensor,
    plan: Fft2d<f32>,
    /// Cached input-channel spectra per sample from the last forward.
    cached_x_spectra: Vec<Vec<Vec<Complex32>>>,
}

impl FftConv2d {
    /// Creates an FFT convolution layer with He-normal filters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the kernel does not fit or any
    /// dimension is zero.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NnError::BadInput {
                layer: "fft_conv2d".into(),
                message: "channels and kernel must be positive".into(),
            });
        }
        if kernel > in_h || kernel > in_w {
            return Err(NnError::BadInput {
                layer: "fft_conv2d".into(),
                message: format!("kernel {kernel} exceeds input {in_h}×{in_w}"),
            });
        }
        let fan_in = in_channels * kernel * kernel;
        let filters = Init::HeNormal.sample(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            out_channels,
            rng,
        );
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            in_h,
            in_w,
            filters_grad: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            bias_grad: Tensor::zeros(&[out_channels]),
            filters,
            bias: Tensor::zeros(&[out_channels]),
            // Pad to powers of two: radix-2 transforms are far cheaper
            // than the Bluestein fallback, and circular convolution at
            // any size ≥ H+r−1 still equals the linear convolution.
            plan: Fft2d::new(
                (in_h + kernel - 1).next_power_of_two(),
                (in_w + kernel - 1).next_power_of_two(),
            ),
            cached_x_spectra: Vec::new(),
        })
    }

    /// Output spatial height (`H − r + 1`).
    pub fn out_h(&self) -> usize {
        self.in_h - self.kernel + 1
    }

    /// Output spatial width (`W − r + 1`).
    pub fn out_w(&self) -> usize {
        self.in_w - self.kernel + 1
    }

    /// The dense filter bank (`[P, C, r, r]`).
    pub fn filters(&self) -> &Tensor {
        &self.filters
    }

    /// FFT working size per transform, `(H+r−1)·(W+r−1)`.
    pub fn transform_len(&self) -> usize {
        self.plan.len()
    }

    fn fft_rows(&self) -> usize {
        (self.in_h + self.kernel - 1).next_power_of_two()
    }

    fn fft_cols(&self) -> usize {
        (self.in_w + self.kernel - 1).next_power_of_two()
    }

    /// Zero-pads a `h×w` plane into the FFT working buffer and transforms.
    fn spectrum_of_plane(&self, plane: &[f32], h: usize, w: usize) -> Vec<Complex32> {
        let (fr, fc) = (self.fft_rows(), self.fft_cols());
        let mut buf = vec![Complex32::zero(); fr * fc];
        for r in 0..h {
            for c in 0..w {
                buf[r * fc + c] = Complex32::from_real(plane[r * w + c]);
            }
        }
        self.plan.forward(&mut buf).expect("plan size matches");
        buf
    }

    /// Spectrum of the *flipped* filter `(p, c)`, so circular convolution
    /// realizes the valid cross-correlation of Eqn. 5.
    fn spectrum_of_flipped_filter(&self, p: usize, c: usize) -> Vec<Complex32> {
        let r = self.kernel;
        let f = self.filters.as_slice();
        let base = (p * self.in_channels + c) * r * r;
        let mut flipped = vec![0.0f32; r * r];
        for i in 0..r {
            for j in 0..r {
                flipped[(r - 1 - i) * r + (r - 1 - j)] = f[base + i * r + j];
            }
        }
        self.spectrum_of_plane(&flipped, r, r)
    }
}

impl Layer for FftConv2d {
    fn type_tag(&self) -> &'static str {
        "fft_conv2d"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        _scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        if input.ndim() != 4
            || input.shape()[1] != self.in_channels
            || input.shape()[2] != self.in_h
            || input.shape()[3] != self.in_w
        {
            return Err(NnError::BadInput {
                layer: "fft_conv2d".into(),
                message: format!(
                    "expected [batch, {}, {}, {}], got {:?}",
                    self.in_channels,
                    self.in_h,
                    self.in_w,
                    input.shape()
                ),
            });
        }
        let batch = input.shape()[0];
        let (oh, ow) = (self.out_h(), self.out_w());
        let (fr, fc) = (self.fft_rows(), self.fft_cols());
        let plane = self.in_h * self.in_w;
        let r = self.kernel;

        // Filter spectra, shared across the batch.
        let filter_spec: Vec<Vec<Vec<Complex32>>> = (0..self.out_channels)
            .map(|p| {
                (0..self.in_channels)
                    .map(|c| self.spectrum_of_flipped_filter(p, c))
                    .collect()
            })
            .collect();

        let mut out = Vec::with_capacity(batch * self.out_channels * oh * ow);
        if keep {
            self.cached_x_spectra.clear();
        }
        for s in 0..batch {
            let x_spec: Vec<Vec<Complex32>> = (0..self.in_channels)
                .map(|c| {
                    let start = (s * self.in_channels + c) * plane;
                    self.spectrum_of_plane(
                        &input.as_slice()[start..start + plane],
                        self.in_h,
                        self.in_w,
                    )
                })
                .collect();

            for (p, filter_spec_p) in filter_spec.iter().enumerate() {
                let mut acc = vec![Complex32::zero(); fr * fc];
                for (x_c, f_c) in x_spec.iter().zip(filter_spec_p) {
                    for ((o, &x), &f) in acc.iter_mut().zip(x_c).zip(f_c) {
                        *o += x * f;
                    }
                }
                self.plan.inverse(&mut acc).expect("plan size matches");
                let b = self.bias.as_slice()[p];
                // Valid region starts at (r−1, r−1).
                for a in 0..oh {
                    for bcol in 0..ow {
                        out.push(acc[(a + r - 1) * fc + (bcol + r - 1)].re + b);
                    }
                }
            }
            if keep {
                self.cached_x_spectra.push(x_spec);
            }
        }
        Ok(Tensor::from_vec(
            out,
            &[batch, self.out_channels, oh, ow],
        )?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        if self.cached_x_spectra.is_empty() {
            return Err(NnError::NoForwardCache("fft_conv2d".into()));
        }
        let (oh, ow) = (self.out_h(), self.out_w());
        let batch = self.cached_x_spectra.len();
        if grad_output.shape() != [batch, self.out_channels, oh, ow] {
            return Err(NnError::BadInput {
                layer: "fft_conv2d".into(),
                message: format!(
                    "expected gradient [{batch}, {}, {oh}, {ow}], got {:?}",
                    self.out_channels,
                    grad_output.shape()
                ),
            });
        }
        let (fr, fc) = (self.fft_rows(), self.fft_cols());
        let r = self.kernel;
        let mut grad_filters = vec![0.0f32; self.filters.len()];
        let mut grad_bias = vec![0.0f32; self.out_channels];
        let mut grad_input =
            Vec::with_capacity(batch * self.in_channels * self.in_h * self.in_w);

        // Flipped-filter spectra for the input gradient.
        let filter_spec: Vec<Vec<Vec<Complex32>>> = (0..self.out_channels)
            .map(|p| {
                (0..self.in_channels)
                    .map(|c| self.spectrum_of_flipped_filter(p, c))
                    .collect()
            })
            .collect();

        for (s, x_spec) in self.cached_x_spectra.iter().enumerate() {
            // Embed each output-map gradient at offset (r−1, r−1) — the
            // position of the valid region inside the linear-convolution
            // buffer — and transform.
            let g_spec: Vec<Vec<Complex32>> = (0..self.out_channels)
                .map(|p| {
                    let mut buf = vec![Complex32::zero(); fr * fc];
                    for a in 0..oh {
                        for bcol in 0..ow {
                            let v = grad_output.at(&[s, p, a, bcol]);
                            grad_bias[p] += v;
                            buf[(a + r - 1) * fc + (bcol + r - 1)] =
                                Complex32::from_real(v);
                        }
                    }
                    self.plan.forward(&mut buf).expect("plan size matches");
                    buf
                })
                .collect();

            // dL/dx_c = Σ_p IFFT( G_p ∘ conj(Ĝflip_{p,c}) ).
            for c in 0..self.in_channels {
                let mut acc = vec![Complex32::zero(); fr * fc];
                for (g_p, filter_spec_p) in g_spec.iter().zip(&filter_spec) {
                    for ((o, &g), &f) in acc.iter_mut().zip(g_p).zip(&filter_spec_p[c]) {
                        *o += g * f.conj();
                    }
                }
                self.plan.inverse(&mut acc).expect("plan size matches");
                for i in 0..self.in_h {
                    for j in 0..self.in_w {
                        grad_input.push(acc[i * fc + j].re);
                    }
                }
            }

            // dL/dflip_{p,c} = IFFT( G_p ∘ conj(X_c) ), cropped to r×r at
            // the origin, then unflipped back to filter orientation.
            for (p, g_p) in g_spec.iter().enumerate() {
                for (c, x_c) in x_spec.iter().enumerate() {
                    let mut prod = vec![Complex32::zero(); fr * fc];
                    for ((o, &g), &x) in prod.iter_mut().zip(g_p).zip(x_c) {
                        *o = g * x.conj();
                    }
                    self.plan.inverse(&mut prod).expect("plan size matches");
                    let base = (p * self.in_channels + c) * r * r;
                    for u in 0..r {
                        for v in 0..r {
                            grad_filters[base + (r - 1 - u) * r + (r - 1 - v)] +=
                                prod[u * fc + v].re;
                        }
                    }
                }
            }
        }

        self.filters_grad = Tensor::from_vec(grad_filters, self.filters.shape())?;
        self.bias_grad = Tensor::from_slice(&grad_bias);
        Ok(Tensor::from_vec(
            grad_input,
            &[batch, self.in_channels, self.in_h, self.in_w],
        )?)
    }

    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "filters",
                value: &mut self.filters,
                grad: &mut self.filters_grad,
            },
            ParamRef {
                name: "bias",
                value: &mut self.bias,
                grad: &mut self.bias_grad,
            },
        ]
    }

    fn param_count(&self) -> usize {
        self.filters.len() + self.bias.len()
    }

    fn op_cost(&self) -> OpCost {
        // (C + P·C + P) 2-D FFTs of S = fr·fc points (padded to powers of
        // two; ≈ S·log₂S complex mults each) plus P·C·S spectral MACs —
        // O(WHQ log Q), the acceleration (but not compression) the paper
        // credits to [11].
        let s = (self.fft_rows() * self.fft_cols()) as u64;
        let log_s = (64 - s.leading_zeros() as u64).max(1);
        let ffts = (self.in_channels + self.out_channels * self.in_channels
            + self.out_channels) as u64;
        let mults = ffts * s * log_s
            + (self.out_channels * self.in_channels) as u64 * s * 4;
        OpCost {
            mults,
            adds: mults,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_channels * self.in_h * self.in_w
                + self.out_channels * self.out_h() * self.out_w()) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for v in [
            self.in_channels,
            self.out_channels,
            self.in_h,
            self.in_w,
            self.kernel,
        ] {
            wire::write_u32(&mut buf, v as u32).expect("vec write is infallible");
        }
        buf
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![&self.filters, &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2
            || params[0].shape() != self.filters.shape()
            || params[1].shape() != self.bias.shape()
        {
            return Err(NnError::ModelFormat(
                "fft_conv2d parameter shapes do not match".into(),
            ));
        }
        self.filters = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            in_h: self.in_h,
            in_w: self.in_w,
            filters: self.filters.clone(),
            bias: self.bias.clone(),
            filters_grad: self.filters_grad.clone(),
            bias_grad: self.bias_grad.clone(),
            plan: self.plan.clone(),
            cached_x_spectra: Vec::new(),
        }))
    }
}

/// Reconstructs an [`FftConv2d`] from its config blob (model loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn fft_conv2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let mut vals = [0usize; 5];
    for v in &mut vals {
        *v = wire::read_u32(&mut config)? as usize;
    }
    let [cin, cout, h, w, k] = vals;
    let mut rng = ffdl_rng::rngs::mock::StepRng::new(1, 1);
    Ok(Box::new(FftConv2d::new(cin, cout, h, w, k, &mut rng)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_tensor::{conv2d_direct, ConvGeometry};
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(51)
    }

    fn image(batch: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[batch, c, h, w], |i| ((i * 19 + 3) % 37) as f32 * 0.05 - 0.9)
    }

    #[test]
    fn forward_matches_direct_convolution() {
        for (c, h, w, p, k) in [
            (1usize, 5usize, 5usize, 2usize, 3usize),
            (2, 6, 7, 3, 3),
            (3, 8, 8, 4, 5),
            (2, 4, 4, 1, 1),
        ] {
            let mut layer = FftConv2d::new(c, p, h, w, k, &mut rng()).unwrap();
            let x = image(1, c, h, w);
            let y = layer.forward(&x).unwrap();
            let sample = Tensor::from_vec(x.as_slice().to_vec(), &[c, h, w]).unwrap();
            let reference =
                conv2d_direct(&sample, layer.filters(), ConvGeometry::valid(k)).unwrap();
            assert_eq!(y.shape()[1..], *reference.shape());
            for (a, b) in y.as_slice().iter().zip(reference.as_slice()) {
                assert!((a - b).abs() < 1e-3, "c={c} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_matches_dense_conv_layer_batched() {
        use ffdl_nn::Conv2d;
        let (c, h, w, p, k) = (2usize, 6usize, 6usize, 3usize, 3usize);
        let mut fft_layer = FftConv2d::new(c, p, h, w, k, &mut rng()).unwrap();
        let mut dense = Conv2d::new(c, p, h, w, ConvGeometry::valid(k), &mut rng()).unwrap();
        // Share parameters.
        let params: Vec<Tensor> = fft_layer.param_tensors().into_iter().cloned().collect();
        dense.load_params(&params).unwrap();

        let x = image(3, c, h, w);
        let y_fft = fft_layer.forward(&x).unwrap();
        let y_dense = dense.forward(&x).unwrap();
        for (a, b) in y_fft.as_slice().iter().zip(y_dense.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_check() {
        let mut layer = FftConv2d::new(1, 2, 4, 4, 2, &mut rng()).unwrap();
        let x = image(1, 1, 4, 4);
        let loss = |layer: &mut FftConv2d, x: &Tensor| -> f32 {
            let y = layer.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let y = layer.forward(&x).unwrap();
        let gx = layer.backward(&y).unwrap();
        let fg = layer.filters_grad.clone();
        let bg = layer.bias_grad.clone();

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.as_slice()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}]: {num} vs {}",
                gx.as_slice()[i]
            );
        }
        for i in 0..fg.len() {
            let orig = layer.filters.as_slice()[i];
            layer.filters.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.filters.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.filters.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - fg.as_slice()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "df[{i}]: {num} vs {}",
                fg.as_slice()[i]
            );
        }
        for i in 0..bg.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - bg.as_slice()[i]).abs() < 3e-2 * (1.0 + num.abs()), "db[{i}]");
        }
    }

    #[test]
    fn no_compression_same_params_as_dense() {
        use ffdl_nn::Conv2d;
        let fft_layer = FftConv2d::new(3, 8, 10, 10, 3, &mut rng()).unwrap();
        let dense =
            Conv2d::new(3, 8, 10, 10, ConvGeometry::valid(3), &mut rng()).unwrap();
        assert_eq!(fft_layer.param_count(), dense.param_count());
        assert_eq!(
            fft_layer.logical_param_count(),
            fft_layer.param_count(),
            "acceleration only — no compression (the paper's point in §I)"
        );
    }

    #[test]
    fn validates_inputs() {
        assert!(FftConv2d::new(0, 1, 4, 4, 2, &mut rng()).is_err());
        assert!(FftConv2d::new(1, 1, 4, 4, 5, &mut rng()).is_err());
        let mut layer = FftConv2d::new(1, 1, 4, 4, 2, &mut rng()).unwrap();
        assert!(layer.forward(&image(1, 2, 4, 4)).is_err());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 1, 3, 3])),
            Err(NnError::NoForwardCache(_))
        ));
        let _ = layer.forward(&image(1, 1, 4, 4)).unwrap();
        assert!(layer.backward(&Tensor::zeros(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn config_roundtrip() {
        let mut layer = FftConv2d::new(2, 3, 6, 5, 3, &mut rng()).unwrap();
        let mut rebuilt = fft_conv2d_from_config(&layer.config_bytes()).unwrap();
        let params: Vec<Tensor> = layer.param_tensors().into_iter().cloned().collect();
        rebuilt.load_params(&params).unwrap();
        let x = image(1, 2, 6, 5);
        let y1 = layer.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(rebuilt.load_params(&[]).is_err());
    }

    #[test]
    fn trains_under_sgd() {
        use ffdl_nn::{Flatten, Network, Relu, Sgd, SoftmaxCrossEntropy};
        let mut r = rng();
        let mut net = Network::new();
        net.push(FftConv2d::new(1, 4, 6, 6, 3, &mut r).unwrap());
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(ffdl_nn::Dense::new(4 * 4 * 4, 2, &mut r));

        let mut data = vec![0.0f32; 2 * 36];
        for i in 0..18 {
            data[i] = 1.0;
            data[36 + 35 - i] = 1.0;
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
    }
}
