//! The dense (uncompressed) convolutional layer of Eqn. 5, computed via
//! the im2col lowering of Fig. 3: `Y = X·F` with
//! `X ∈ ℝ^{(H−r+1)(W−r+1) × Cr²}` and `F ∈ ℝ^{Cr² × P}`.

use crate::error::NnError;
use crate::layer::{check_features, Layer, OpCost, ParamRef};
use crate::scratch::Scratch;
use crate::wire;
use ffdl_tensor::{
    col2im, filters_to_matrix, filters_to_matrix_into, im2col_into, matrix_to_filters,
    ConvGeometry, Init, Tensor,
};
use ffdl_rng::Rng;

/// A 2-D convolutional layer: input `[batch, C, H, W]` →
/// output `[batch, P, H_out, W_out]`.
///
/// Filters are stored as `[P, C, r, r]`; the forward pass lowers each
/// sample with [`im2col_into`] and multiplies by the `[Cr², P]` filter matrix,
/// exactly the software reformulation the paper describes for its OpenCV
/// implementation (§IV-B, Fig. 3).
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    geom: ConvGeometry,
    in_h: usize,
    in_w: usize,
    filters: Tensor,      // [P, C, r, r]
    bias: Tensor,         // [P]
    filters_grad: Tensor, // [P, C, r, r]
    bias_grad: Tensor,    // [P]
    /// Per-sample im2col matrices of the last pass that kept them.
    cached_cols: Vec<Tensor>,
}

impl Conv2d {
    /// Creates a convolutional layer with He-normal filters and zero
    /// biases, for inputs of spatial size `in_h × in_w`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] when the kernel does not fit the input.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        geom: ConvGeometry,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        geom.output_extent(in_h)?;
        geom.output_extent(in_w)?;
        let fan_in = in_channels * geom.kernel * geom.kernel;
        let filters = Init::HeNormal.sample(
            &[out_channels, in_channels, geom.kernel, geom.kernel],
            fan_in,
            out_channels,
            rng,
        );
        Ok(Self {
            in_channels,
            out_channels,
            geom,
            in_h,
            in_w,
            filters_grad: Tensor::zeros(&[out_channels, in_channels, geom.kernel, geom.kernel]),
            bias_grad: Tensor::zeros(&[out_channels]),
            filters,
            bias: Tensor::zeros(&[out_channels]),
            cached_cols: Vec::new(),
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

    /// Convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// The filter bank (`[P, C, r, r]`).
    pub fn filters(&self) -> &Tensor {
        &self.filters
    }
}

impl Layer for Conv2d {
    fn type_tag(&self) -> &'static str {
        "conv2d"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        check_features(
            "conv2d",
            input,
            4,
            &[self.in_channels, self.in_h, self.in_w],
        )?;
        let batch = input.shape()[0];
        let (oh, ow) = (self.out_h(), self.out_w());
        let cr2 = self.in_channels * self.geom.kernel * self.geom.kernel;
        let plane = self.in_channels * self.in_h * self.in_w;
        let plane_out = self.out_channels * oh * ow;

        let mut fmat = scratch.take(&[cr2, self.out_channels]);
        filters_to_matrix_into(&self.filters, &mut fmat)?;
        let mut out = scratch.take(&[batch, self.out_channels, oh, ow]);
        let mut sample = scratch.take(&[self.in_channels, self.in_h, self.in_w]);
        let mut cols = scratch.take(&[oh * ow, cr2]);
        let mut y = scratch.take(&[oh * ow, self.out_channels]);
        if keep {
            self.cached_cols.clear();
        }

        for s in 0..batch {
            sample
                .as_mut_slice()
                .copy_from_slice(&input.as_slice()[s * plane..(s + 1) * plane]);
            im2col_into(&sample, self.geom, &mut cols)?;
            cols.matmul_into(&fmat, &mut y)?;
            // Transpose [oh·ow, P] → [P, oh, ow] with bias.
            let dst = &mut out.as_mut_slice()[s * plane_out..(s + 1) * plane_out];
            let ys = y.as_slice();
            for p in 0..self.out_channels {
                let b = self.bias.as_slice()[p];
                for pix in 0..oh * ow {
                    dst[p * oh * ow + pix] = ys[pix * self.out_channels + p] + b;
                }
            }
            if keep {
                // A copy-on-write alias: the next `im2col_into` finds
                // `cols` shared and lowers into a fresh buffer.
                self.cached_cols.push(cols.clone());
            }
        }
        scratch.recycle(fmat);
        scratch.recycle(sample);
        scratch.recycle(cols);
        scratch.recycle(y);
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            geom: self.geom,
            in_h: self.in_h,
            in_w: self.in_w,
            filters: self.filters.clone(),
            bias: self.bias.clone(),
            filters_grad: self.filters_grad.clone(),
            bias_grad: self.bias_grad.clone(),
            cached_cols: Vec::new(),
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        if self.cached_cols.is_empty() {
            return Err(NnError::NoForwardCache("conv2d".into()));
        }
        let (oh, ow) = (self.out_h(), self.out_w());
        check_features("conv2d", grad_output, 4, &[self.out_channels, oh, ow])?;
        let batch = grad_output.shape()[0];
        if batch != self.cached_cols.len() {
            return Err(NnError::BadInput {
                layer: "conv2d".into(),
                message: format!(
                    "gradient batch {batch} does not match cached batch {}",
                    self.cached_cols.len()
                ),
            });
        }

        let fmat = filters_to_matrix(&self.filters)?; // [Cr², P]
        let mut fmat_grad = Tensor::zeros(fmat.shape());
        let mut bias_grad = vec![0.0f32; self.out_channels];
        let plane_out = self.out_channels * oh * ow;
        let mut grad_input =
            Vec::with_capacity(batch * self.in_channels * self.in_h * self.in_w);

        for (s, cols) in self.cached_cols.iter().enumerate() {
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
            // dF_mat += colsᵀ·g; dcols = g·F_matᵀ.
            fmat_grad = fmat_grad.add(&cols.transpose()?.matmul(&g)?)?;
            let dcols = g.matmul(&fmat.transpose()?)?;
            let dx = col2im(&dcols, self.in_channels, self.in_h, self.in_w, self.geom)?;
            grad_input.extend_from_slice(dx.as_slice());
        }

        self.filters_grad = matrix_to_filters(&fmat_grad, self.in_channels, self.geom.kernel)?;
        self.bias_grad = Tensor::from_slice(&bias_grad);
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
        // O(W·H·r²·C·P) MACs — the complexity the paper quotes for the
        // uncompressed CONV layer.
        let (oh, ow) = (self.out_h(), self.out_w());
        let macs = (oh * ow * self.geom.kernel * self.geom.kernel * self.in_channels
            * self.out_channels) as u64;
        OpCost {
            mults: macs,
            adds: macs,
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
                "conv2d parameter shapes do not match".into(),
            ));
        }
        self.filters = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }
}

/// Reconstructs a [`Conv2d`] from its config blob (model-format loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn conv2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let mut vals = [0usize; 7];
    for v in &mut vals {
        *v = wire::read_u32(&mut config)? as usize;
    }
    let [cin, cout, h, w, k, s, p] = vals;
    let geom = ConvGeometry {
        kernel: k,
        stride: s,
        pad: p,
    };
    // Deterministic zero-seeded construction; params are loaded afterwards.
    let mut rng = ffdl_rng::rngs::mock::StepRng::new(1, 1);
    let layer = Conv2d::new(cin, cout, h, w, geom, &mut rng)?;
    Ok(Box::new(layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_tensor::conv2d_direct;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let geom = ConvGeometry::valid(3);
        let mut layer = Conv2d::new(2, 3, 6, 5, geom, &mut rng()).unwrap();
        let x = Tensor::from_fn(&[1, 2, 6, 5], |i| ((i * 7 + 1) % 13) as f32 * 0.1);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 3, 4, 3]);

        let sample = Tensor::from_vec(x.as_slice().to_vec(), &[2, 6, 5]).unwrap();
        let reference = conv2d_direct(&sample, layer.filters(), geom).unwrap();
        for (a, b) in y.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn forward_with_padding_and_stride() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let mut layer = Conv2d::new(1, 2, 8, 8, geom, &mut rng()).unwrap();
        let x = Tensor::from_fn(&[2, 1, 8, 8], |i| (i % 9) as f32 - 4.0);
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 2, 4, 4]);
    }

    #[test]
    fn bias_shifts_output() {
        let geom = ConvGeometry::valid(1);
        let mut layer = Conv2d::new(1, 1, 2, 2, geom, &mut rng()).unwrap();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        let y0 = layer.forward(&x).unwrap();
        layer.parameters()[1].value.as_mut_slice()[0] = 2.5;
        let y1 = layer.forward(&x).unwrap();
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((b - a - 2.5).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_check_small() {
        let geom = ConvGeometry::valid(2);
        let mut layer = Conv2d::new(1, 2, 3, 3, geom, &mut rng()).unwrap();
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32 * 0.3).sin());

        let loss = |layer: &mut Conv2d, x: &Tensor| -> f32 {
            let y = layer.forward(x).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        let y = layer.forward(&x).unwrap();
        let grad_in = layer.backward(&y).unwrap();
        let fg = layer.filters_grad.clone();
        let bg = layer.bias_grad.clone();

        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (loss(&mut layer, &xp) - loss(&mut layer, &xm)) / (2.0 * eps);
            let ana = grad_in.as_slice()[i];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dx[{i}]: {num} vs {ana}");
        }
        for i in 0..fg.len() {
            let orig = layer.filters.as_slice()[i];
            layer.filters.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.filters.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.filters.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = fg.as_slice()[i];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dF[{i}]: {num} vs {ana}");
        }
        for i in 0..bg.len() {
            let orig = layer.bias.as_slice()[i];
            layer.bias.as_mut_slice()[i] = orig + eps;
            let lp = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig - eps;
            let lm = loss(&mut layer, &x);
            layer.bias.as_mut_slice()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = bg.as_slice()[i];
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "db[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let geom = ConvGeometry::valid(3);
        let mut layer = Conv2d::new(2, 3, 6, 6, geom, &mut rng()).unwrap();
        assert!(layer.forward(&Tensor::zeros(&[1, 3, 6, 6])).is_err());
        assert!(layer.forward(&Tensor::zeros(&[2, 6, 6])).is_err());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 3, 4, 4])),
            Err(NnError::NoForwardCache(_))
        ));
        assert!(Conv2d::new(1, 1, 2, 2, ConvGeometry::valid(5), &mut rng()).is_err());
    }

    #[test]
    fn op_cost_matches_formula() {
        let geom = ConvGeometry::valid(3);
        let layer = Conv2d::new(4, 8, 10, 10, geom, &mut rng()).unwrap();
        // oh=ow=8 → 8·8·9·4·8 = 18432 MACs.
        assert_eq!(layer.op_cost().mults, 18432);
    }

    #[test]
    fn config_roundtrip() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let layer = Conv2d::new(3, 5, 9, 7, geom, &mut rng()).unwrap();
        let rebuilt = conv2d_from_config(&layer.config_bytes()).unwrap();
        assert_eq!(rebuilt.type_tag(), "conv2d");
        assert_eq!(rebuilt.param_count(), layer.param_count());
    }

    #[test]
    fn load_params_roundtrip() {
        let geom = ConvGeometry::valid(2);
        let mut a = Conv2d::new(1, 2, 4, 4, geom, &mut rng()).unwrap();
        let mut b = conv2d_from_config(&a.config_bytes()).unwrap();
        let params: Vec<Tensor> = a.param_tensors().into_iter().cloned().collect();
        b.load_params(&params).unwrap();
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 * 0.1);
        let ya = a.forward(&x).unwrap();
        let yb = b.forward(&x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
        assert!(b.load_params(&[Tensor::zeros(&[1])]).is_err());
    }
}
