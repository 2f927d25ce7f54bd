//! The FFT-convolution baseline the paper distinguishes itself from (§I):
//! "the prior work of using FFT for convolutional layer acceleration by
//! LeCun et al. \[11\] ... can only achieve convolutional layer
//! acceleration instead of simultaneous compression."
//!
//! [`FftConv2d`] is the measurement fixture of experiment A3 (the
//! `baseline_fft_conv` bin and the `fft_conv_baseline` row of the
//! `conv_reformulation` bench), not a deployable layer: no layer registry
//! and no architecture directive knows it, and it has no backward pass.
//! It stores the same dense `[P, C, r, r]` filter bank as `Conv2d` (zero
//! compression) but evaluates the valid cross-correlation of Eqn. 5
//! through 2-D FFTs: each channel is transformed once per sample at a
//! size of at least `(H+r−1) × (W+r−1)` (where circular = linear
//! convolution), products accumulate over channels in the frequency
//! domain, and one inverse FFT per output map recovers the result.

use ffdl::fft::{Complex32, Fft2d};
use ffdl::nn::{Layer, NnError, OpCost, Scratch};
use ffdl::tensor::{Init, Tensor};
use ffdl_rng::Rng;

/// Dense convolution computed via the 2-D FFT (valid correlation,
/// stride 1, no padding — the setting of Eqn. 5 and of LeCun et al.).
///
/// Input `[batch, C, H, W]` → output `[batch, P, H−r+1, W−r+1]`. Counts
/// `P·C·r² + P` parameters, as `Conv2d` does; the point of this layer is
/// the *compute* path, measured against `CirculantConv2d`, which also
/// compresses.
pub struct FftConv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    in_h: usize,
    in_w: usize,
    filters: Tensor, // [P, C, r, r]
    bias: Tensor,    // [P], zero as `Conv2d` initializes it
    plan: Fft2d<f32>,
}

fn bad_input(message: String) -> NnError {
    NnError::BadInput {
        layer: "fft_conv2d".into(),
        message,
    }
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
            return Err(bad_input("channels and kernel must be positive".into()));
        }
        if kernel > in_h || kernel > in_w {
            return Err(bad_input(format!(
                "kernel {kernel} exceeds input {in_h}×{in_w}"
            )));
        }
        let filters = Init::HeNormal.sample(
            &[out_channels, in_channels, kernel, kernel],
            in_channels * kernel * kernel,
            out_channels,
            rng,
        );
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            in_h,
            in_w,
            filters,
            bias: Tensor::zeros(&[out_channels]),
            // Pad to powers of two: radix-2 transforms are far cheaper
            // than the Bluestein fallback, and circular convolution at
            // any size ≥ H+r−1 still equals the linear convolution.
            plan: Fft2d::new(
                (in_h + kernel - 1).next_power_of_two(),
                (in_w + kernel - 1).next_power_of_two(),
            ),
        })
    }

    /// Zero-pads a plane `w` values wide into a transform buffer and
    /// transforms it.
    fn spectrum_of_plane(&self, plane: &[f32], w: usize) -> Vec<Complex32> {
        let mut buf = vec![Complex32::zero(); self.plan.len()];
        for (row, padded) in plane
            .chunks_exact(w)
            .zip(buf.chunks_exact_mut(self.plan.cols()))
        {
            for (o, &v) in padded.iter_mut().zip(row) {
                *o = Complex32::from_real(v);
            }
        }
        self.plan.forward(&mut buf).expect("plan size matches");
        buf
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
        _keep: bool,
    ) -> Result<Tensor, NnError> {
        let (c, h, w, r) = (self.in_channels, self.in_h, self.in_w, self.kernel);
        if input.ndim() != 4 || input.shape()[1..] != [c, h, w] {
            let got = input.shape();
            return Err(bad_input(format!(
                "expected [batch, {c}, {h}, {w}], got {got:?}"
            )));
        }
        let (batch, oh, ow, fc) = (input.shape()[0], h - r + 1, w - r + 1, self.plan.cols());

        // Spectra of the *flipped* filters, so circular convolution
        // realizes the valid cross-correlation; shared across the batch.
        // Reversing a row-major r×r block flips both of its axes.
        let filter_spec: Vec<Vec<Complex32>> = self
            .filters
            .as_slice()
            .chunks_exact(r * r)
            .map(|f| {
                let flipped: Vec<f32> = f.iter().rev().copied().collect();
                self.spectrum_of_plane(&flipped, r)
            })
            .collect();

        let mut out = Vec::with_capacity(batch * self.out_channels * oh * ow);
        for sample in input.as_slice().chunks_exact(c * h * w) {
            let x_spec: Vec<Vec<Complex32>> = sample
                .chunks_exact(h * w)
                .map(|plane| self.spectrum_of_plane(plane, w))
                .collect();
            for (filters_p, &b) in filter_spec.chunks_exact(c).zip(self.bias.as_slice()) {
                let mut acc = vec![Complex32::zero(); self.plan.len()];
                for (x_c, f_c) in x_spec.iter().zip(filters_p) {
                    for ((o, &x), &f) in acc.iter_mut().zip(x_c).zip(f_c) {
                        *o += x * f;
                    }
                }
                self.plan.inverse(&mut acc).expect("plan size matches");
                // Valid region starts at (r−1, r−1).
                for a in 0..oh {
                    let start = (a + r - 1) * fc + r - 1;
                    out.extend(acc[start..start + ow].iter().map(|v| v.re + b));
                }
            }
        }
        Ok(Tensor::from_vec(out, &[batch, self.out_channels, oh, ow])?)
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor, NnError> {
        Err(bad_input("A3 baseline, forward only".into()))
    }

    fn param_count(&self) -> usize {
        self.filters.len() + self.bias.len()
    }

    fn op_cost(&self) -> OpCost {
        // (C + P·C + P) 2-D FFTs of S points (padded to powers of two;
        // ≈ S·log₂S complex mults each) plus P·C·S spectral MACs —
        // O(WHQ log Q), the acceleration (but not compression) the paper
        // credits to [11].
        let s = self.plan.len() as u64;
        let log_s = (64 - s.leading_zeros() as u64).max(1);
        let (c, p) = (self.in_channels as u64, self.out_channels as u64);
        let mults = (c + p * c + p) * s * log_s + p * c * s * 4;
        let (oh, ow) = (self.in_h - self.kernel + 1, self.in_w - self.kernel + 1);
        OpCost {
            mults,
            adds: mults,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_channels * self.in_h * self.in_w + self.out_channels * oh * ow)
                as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl::nn::Conv2d;
    use ffdl::tensor::{conv2d_direct, ConvGeometry};
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(51)
    }

    fn image(batch: usize, c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[batch, c, h, w], |i| {
            ((i * 19 + 3) % 37) as f32 * 0.05 - 0.9
        })
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
            let reference = conv2d_direct(&sample, &layer.filters, ConvGeometry::valid(k)).unwrap();
            assert_eq!(y.shape()[1..], *reference.shape());
            for (a, b) in y.as_slice().iter().zip(reference.as_slice()) {
                assert!((a - b).abs() < 1e-3, "c={c} k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_matches_dense_conv_layer_batched() {
        let (c, h, w, p, k) = (2usize, 6usize, 6usize, 3usize, 3usize);
        let mut fft_layer = FftConv2d::new(c, p, h, w, k, &mut rng()).unwrap();
        let mut dense = Conv2d::new(c, p, h, w, ConvGeometry::valid(k), &mut rng()).unwrap();
        // Share the filters; both biases are zero.
        dense
            .load_params(&[fft_layer.filters.clone(), Tensor::zeros(&[p])])
            .unwrap();

        let x = image(3, c, h, w);
        let y_fft = fft_layer.forward(&x).unwrap();
        let y_dense = dense.forward(&x).unwrap();
        assert_eq!(y_fft.shape(), y_dense.shape());
        for (a, b) in y_fft.as_slice().iter().zip(y_dense.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn no_compression_same_params_as_dense() {
        let fft_layer = FftConv2d::new(3, 8, 10, 10, 3, &mut rng()).unwrap();
        let dense = Conv2d::new(3, 8, 10, 10, ConvGeometry::valid(3), &mut rng()).unwrap();
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
        let _ = layer.forward(&image(1, 1, 4, 4)).unwrap();
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 1, 3, 3])),
            Err(NnError::BadInput { .. })
        ));
    }
}
