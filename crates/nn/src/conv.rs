//! The CONV layers' one shape and driver, and the dense (uncompressed)
//! convolutional layer of Eqn. 5.
//!
//! Every CONV layer computes the Fig. 3 lowering `Y = X·F`, with
//! `X ∈ ℝ^{H_out·W_out × Cr²}` and `F ∈ ℝ^{Cr² × P}`; the dense layer here
//! and the block-circulant one of `ffdl-core` differ only in the product of
//! a lowered row with `F`. Everything around that product is written once,
//! on [`ConvShape`]: validation, the config words, the per-sample loop and
//! its one pixel-major staging of the sample, the bias tail
//! `[oh·ow, P] → [P, oh, ow]`, and the backward gradient gather and
//! `col2im` scatter. The tap rule under the lowering is
//! [`ConvGeometry::for_each_tap`]; in the forward pass both products read
//! `X` through it, and neither builds it.

use crate::error::NnError;
use crate::layer::{check_features, Layer, OpCost, ParamRef};
use crate::scratch::Scratch;
use crate::wire;
use ffdl_rng::Rng;
use ffdl_tensor::{
    col2im, filters_to_matrix, im2col_into, matrix_to_filters, ConvGeometry, Init, Tensor,
};
use std::sync::OnceLock;

/// Pixels per tile of the forward pass's two transposes, the staging
/// `[C, H·W] → [H·W, C]` and the tail `[oh·ow, P] → [P, oh, ow]`: a
/// tile's pixel-major rows stay in L1 while each channel or output map
/// gets its run of them.
const TILE: usize = 16;

/// The shape of a CONV layer — input `[batch, C, H, W]` → output
/// `[batch, P, H_out, W_out]` — and the driver both CONV layers run their
/// product under. [`ConvShape::new`] checks that the kernel fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    channels: usize,
    filters: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
    /// `(H_out, W_out)`, fixed by the check in `new`.
    out: (usize, usize),
}

impl ConvShape {
    /// A CONV layer shape: `channels` → `filters` maps over
    /// `height × width` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Tensor`] when the kernel does not fit the input.
    pub fn new(
        channels: usize,
        filters: usize,
        height: usize,
        width: usize,
        geom: ConvGeometry,
    ) -> Result<Self, NnError> {
        let out = (geom.output_extent(height)?, geom.output_extent(width)?);
        Ok(Self {
            channels,
            filters,
            height,
            width,
            geom,
            out,
        })
    }

    /// `(C, H, W)`, the shape of one input sample.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Output channels (filters) `P`.
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Kernel side `r`, stride and zero padding.
    pub fn geometry(&self) -> ConvGeometry {
        self.geom
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.out.0
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.out.1
    }

    /// Output pixels per map: the rows of the lowering.
    pub fn pixels(&self) -> usize {
        self.out.0 * self.out.1
    }

    /// The seven config words every CONV layer's model-format blob starts
    /// with (a layer appends its own after them).
    pub fn config_bytes(&self) -> Vec<u8> {
        let ((c, h, w), g) = (self.dims(), self.geom);
        let mut buf = Vec::new();
        for v in [c, self.filters, h, w, g.kernel, g.stride, g.pad] {
            wire::write_u32(&mut buf, v as u32).expect("vec write is infallible");
        }
        buf
    }

    /// Reads the words [`Self::config_bytes`] wrote, leaving `config` at
    /// the layer's own.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Io`] on a short blob, [`NnError::Tensor`] when the
    /// geometry does not fit.
    pub fn read_config(config: &mut &[u8]) -> Result<Self, NnError> {
        let mut words = [0usize; 7];
        for v in &mut words {
            *v = wire::read_u32(config)? as usize;
        }
        let [c, p, h, w, kernel, stride, pad] = words;
        let geom = ConvGeometry {
            kernel,
            stride,
            pad,
        };
        Self::new(c, p, h, w, geom)
    }

    /// The forward pass around a layer's product. Validates that `input`
    /// is `[batch, C, H, W]`, draws the output, one `[H·W + 1, C]` image
    /// and one `[oh·ow, P]` product buffer from `scratch`, and per sample
    /// stages the sample pixel-major into the image — its last pixel stays
    /// zero, for views that send a padded tap there — and calls
    /// `product(x, image, y)`: `x` the sample's `C·H·W` values as given,
    /// `image` the staged ones, `y` to receive its lowered product `X·F`.
    /// It then writes `y` transposed to `[P, oh, ow]`, plus `bias[p]`: one
    /// add per output, so the tail's blocking does not move a bit.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] tagged `layer` on an input of the
    /// wrong shape, and whatever `product` returns.
    pub fn forward(
        &self,
        layer: &str,
        input: &Tensor,
        scratch: &mut Scratch,
        bias: &Tensor,
        mut product: impl FnMut(&[f32], &[f32], &mut Tensor) -> Result<(), NnError>,
    ) -> Result<Tensor, NnError> {
        let (c, h, w) = self.dims();
        check_features(layer, input, 4, &[c, h, w])?;
        let (batch, pixels, filters) = (input.shape()[0], self.pixels(), self.filters);
        let mut out = scratch.take(&[batch, filters, self.out.0, self.out.1]);
        let mut image = scratch.take(&[h * w + 1, c]);
        let mut y = scratch.take(&[pixels, filters]);
        let (plane, hw) = (c * h * w, h * w);
        for s in 0..batch {
            let x = &input.as_slice()[s * plane..(s + 1) * plane];
            let staged = image.as_mut_slice();
            for tile in (0..hw).step_by(TILE) {
                let end = (tile + TILE).min(hw);
                for ch in 0..c {
                    for (p, &v) in (tile..end).zip(&x[ch * hw + tile..ch * hw + end]) {
                        staged[p * c + ch] = v;
                    }
                }
            }
            product(x, image.as_slice(), &mut y)?;
            let dst = &mut out.as_mut_slice()[s * filters * pixels..];
            let ys = y.as_slice();
            for tile in (0..pixels).step_by(TILE) {
                for (p, &b) in bias.as_slice().iter().enumerate() {
                    for pix in tile..(tile + TILE).min(pixels) {
                        dst[p * pixels + pix] = ys[pix * filters + p] + b;
                    }
                }
            }
        }
        scratch.recycle(y);
        scratch.recycle(image);
        Ok(out)
    }

    /// The backward pass around a layer's product, over the `kept` samples
    /// of the last keeping pass. Validates that `grad_output` is
    /// `[kept, P, oh, ow]`; per sample gathers it to `[oh·ow, P]` while
    /// summing `∂bias` (samples, then pixels, ascending) into `bias_grad`;
    /// calls `product_grad(s, g)` for the gradient of the sample's lowered
    /// rows, `[oh·ow, C·r²]` (the layer accumulates its weight gradient
    /// there); and scatters that back with `col2im` into `∂x`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when nothing was kept,
    /// [`NnError::BadInput`] on a gradient of the wrong shape, and whatever
    /// `product_grad` returns.
    pub fn backward(
        &self,
        layer: &str,
        grad_output: &Tensor,
        kept: usize,
        bias_grad: &mut Tensor,
        mut product_grad: impl FnMut(usize, &Tensor) -> Result<Tensor, NnError>,
    ) -> Result<Tensor, NnError> {
        if kept == 0 {
            return Err(NnError::NoForwardCache(layer.into()));
        }
        let ((c, h, w), filters, pixels) = (self.dims(), self.filters, self.pixels());
        check_features(layer, grad_output, 4, &[filters, self.out.0, self.out.1])?;
        let batch = grad_output.shape()[0];
        if batch != kept {
            return Err(NnError::BadInput {
                layer: layer.into(),
                message: format!("gradient batch {batch} does not match kept batch {kept}"),
            });
        }
        let mut bias_sum = vec![0.0f32; filters];
        let mut grad_input = Vec::with_capacity(kept * c * h * w);
        for s in 0..kept {
            let gs = &grad_output.as_slice()[s * filters * pixels..];
            let mut g = vec![0.0f32; pixels * filters];
            for (p, sum) in bias_sum.iter_mut().enumerate() {
                for pix in 0..pixels {
                    let v = gs[p * pixels + pix];
                    g[pix * filters + p] = v;
                    *sum += v;
                }
            }
            let dcols = product_grad(s, &Tensor::from_vec(g, &[pixels, filters])?)?;
            let dx = col2im(&dcols, c, h, w, self.geom)?;
            grad_input.extend_from_slice(dx.as_slice());
        }
        *bias_grad = Tensor::from_slice(&bias_sum);
        Ok(Tensor::from_vec(grad_input, &[kept, c, h, w])?)
    }
}

/// A 2-D convolutional layer: input `[batch, C, H, W]` →
/// output `[batch, P, H_out, W_out]`.
///
/// Filters are stored as `[P, C, r, r]`; the product under the
/// [`ConvShape`] driver multiplies each sample's im2col matrix by the
/// `[Cr², P]` filter matrix — the software reformulation the paper
/// describes for its OpenCV implementation (§IV-B, Fig. 3) — with
/// [`Tensor::taps_matmul_into`], which reads every lowered row as its
/// output pixel's taps of the driver's pixel-major image instead of
/// building the `r²`-times larger matrix. The filter matrix is built once,
/// like a circulant layer's weight spectra, and a keeping pass retains the
/// input: `backward` lowers each sample with [`im2col_into`].
#[derive(Clone)]
pub struct Conv2d {
    shape: ConvShape,
    filters: Tensor,      // [P, C, r, r]
    bias: Tensor,         // [P]
    filters_grad: Tensor, // [P, C, r, r]
    bias_grad: Tensor,    // [P]
    /// The lowered filter matrix, built on first use and shared by clones;
    /// reset wherever the filters can change (`parameters`, `load_params`).
    fmat: OnceLock<Tensor>,
    /// The input of the last keeping pass.
    kept: Option<Tensor>,
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
        let shape = ConvShape::new(in_channels, out_channels, in_h, in_w, geom)?;
        let (c, p, k) = (in_channels, out_channels, geom.kernel);
        let filters = Init::HeNormal.sample(&[p, c, k, k], c * k * k, p, rng);
        Ok(Self {
            shape,
            filters_grad: Tensor::zeros(filters.shape()),
            bias_grad: Tensor::zeros(&[p]),
            filters,
            bias: Tensor::zeros(&[p]),
            fmat: OnceLock::new(),
            kept: None,
        })
    }

    /// The filter bank (`[P, C, r, r]`).
    pub fn filters(&self) -> &Tensor {
        &self.filters
    }

    /// The lowered `[Cr², P]` filter matrix `F`.
    fn matrix(&self) -> &Tensor {
        self.fmat
            .get_or_init(|| filters_to_matrix(&self.filters).expect("filters are [P, C, r, r]"))
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
        let (shape, fmat) = (self.shape, self.matrix());
        let (dims, geom) = (shape.dims(), shape.geometry());
        let out = shape.forward("conv2d", input, scratch, &self.bias, |x, image, y| {
            let image = &image[..x.len()];
            Ok(Tensor::taps_matmul_into(image, dims, geom, fmat, y)?)
        });
        if keep && out.is_ok() {
            self.kept = Some(input.clone());
        }
        out
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        let mut clone = self.clone();
        clone.kept = None;
        Some(Box::new(clone))
    }

    /// `∂F = Σₛ colsₛᵀ·gₛ` and `∂colsₛ = gₛ·Fᵀ`, each sample's `cols` lowered
    /// again from the kept input — the same floats the forward pass
    /// multiplied, so the same bits.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let (shape, fmat_t) = (self.shape, self.matrix().transpose()?);
        let ((c, h, w), geom) = (shape.dims(), shape.geometry());
        let batch = self.kept.as_ref().map_or(0, |x| x.shape()[0]);
        let kept = self.kept.as_ref().map_or(&[][..], Tensor::as_slice);
        let mut fmat_grad = Tensor::zeros(&[fmat_t.cols(), fmat_t.rows()]);
        let mut cols = Tensor::zeros(&[0]);
        let bias_grad = &mut self.bias_grad;
        let plane = c * h * w;
        let grad_input = shape.backward("conv2d", grad_output, batch, bias_grad, |s, g| {
            let x = &kept[s * plane..(s + 1) * plane];
            im2col_into(x, (c, h, w), geom, &mut cols)?;
            fmat_grad = fmat_grad.add(&cols.transpose()?.matmul(g)?)?;
            Ok(g.matmul(&fmat_t)?)
        })?;
        self.filters_grad = matrix_to_filters(&fmat_grad, c, geom.kernel)?;
        Ok(grad_input)
    }

    fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        self.fmat = OnceLock::new();
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
        let (s, (c, h, w)) = (self.shape, self.shape.dims());
        let r = s.geometry().kernel;
        let macs = (s.pixels() * r * r * c * s.filters()) as u64;
        OpCost {
            mults: macs,
            adds: macs,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (c * h * w + s.filters() * s.pixels()) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.shape.config_bytes()
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
        self.fmat = OnceLock::new();
        Ok(())
    }
}

/// Reconstructs a [`Conv2d`] from its config blob (model-format loader).
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn conv2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let s = ConvShape::read_config(&mut config)?;
    let (c, h, w) = s.dims();
    // Deterministic zero-seeded construction; params are loaded afterwards.
    let mut rng = ffdl_rng::rngs::mock::StepRng::new(1, 1);
    let layer = Conv2d::new(c, s.filters(), h, w, s.geometry(), &mut rng)?;
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
        // Through `parameters()`, as the optimizer writes: that is what
        // tells the layer its filter matrix is stale.
        let set_filter = |layer: &mut Conv2d, i: usize, v: f32| {
            layer.parameters()[0].value.as_mut_slice()[i] = v;
        };
        for i in 0..fg.len() {
            let orig = layer.filters.as_slice()[i];
            set_filter(&mut layer, i, orig + eps);
            let lp = loss(&mut layer, &x);
            set_filter(&mut layer, i, orig - eps);
            let lm = loss(&mut layer, &x);
            set_filter(&mut layer, i, orig);
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

    #[test]
    fn the_cached_filter_matrix_follows_every_filter_write() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut layer = Conv2d::new(2, 3, 5, 5, geom, &mut rng()).unwrap();
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i * 7 + 1) % 13) as f32 * 0.1);
        let shared = layer.clone_layer().unwrap();
        let before = layer.forward(&x).unwrap();
        let fresh = |layer: &Conv2d| {
            let mut twin = Conv2d::new(2, 3, 5, 5, geom, &mut rng()).unwrap();
            let params: Vec<Tensor> = layer.param_tensors().into_iter().cloned().collect();
            twin.load_params(&params).unwrap();
            twin.forward(&x).unwrap()
        };
        // An optimizer-style write through `parameters()`…
        layer.parameters()[0].value.as_mut_slice()[4] += 1.0;
        let after = layer.forward(&x).unwrap();
        assert_ne!(after, before);
        assert_eq!(after, fresh(&layer));
        // …and a load both reach the next pass; a clone made before
        // either keeps the filters it was cloned with.
        let mut loaded = layer.clone_layer().unwrap();
        loaded
            .load_params(&[Tensor::zeros(&[3, 2, 3, 3]), Tensor::ones(&[3])])
            .unwrap();
        assert_eq!(loaded.forward(&x).unwrap(), Tensor::ones(&[2, 3, 5, 5]));
        let mut shared = shared;
        assert_eq!(shared.forward(&x).unwrap(), before);
    }

    #[test]
    fn the_shape_writes_and_reads_the_seven_config_words() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let shape = ConvShape::new(3, 5, 9, 7, geom).unwrap();
        let bytes = shape.config_bytes();
        assert_eq!(bytes.len(), 7 * 4);
        assert_eq!(ConvShape::read_config(&mut &bytes[..]).unwrap(), shape);
        assert!(ConvShape::read_config(&mut &bytes[..20]).is_err());
        assert!(ConvShape::new(1, 1, 2, 2, ConvGeometry::valid(5)).is_err());
        assert_eq!((shape.out_h(), shape.out_w(), shape.pixels()), (5, 4, 20));
    }
}
