//! Image-shaped tensor operations: `im2col`/`col2im` (the Fig. 3
//! reformulation of convolution as matrix multiplication) and the bilinear
//! resize used to shrink MNIST images to 16×16 / 11×11 (§V-B).

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution: kernel size, stride and zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Square kernel side `r`.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvGeometry {
    /// Unit-stride, unpadded geometry — the convention of Eqn. 5.
    pub fn valid(kernel: usize) -> Self {
        Self {
            kernel,
            stride: 1,
            pad: 0,
        }
    }

    /// Output spatial size for an input of extent `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel does not
    /// fit, the stride is zero, or the kernel is zero-sized.
    pub fn output_extent(&self, n: usize) -> Result<usize, TensorError> {
        if self.kernel == 0 {
            return Err(TensorError::InvalidGeometry("kernel size is 0".into()));
        }
        if self.stride == 0 {
            return Err(TensorError::InvalidGeometry("stride is 0".into()));
        }
        let padded = n + 2 * self.pad;
        if self.kernel > padded {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {} exceeds padded input extent {}",
                self.kernel, padded
            )));
        }
        Ok((padded - self.kernel) / self.stride + 1)
    }

    /// The tap rule of Eqn. 6, written once: for output pixel `(oy, ox)`
    /// over an `h × w` input, calls `f(t, read)` for every kernel tap in
    /// im2col column order — `t = ki + r·kj`, `kj` outer, `ki` inner —
    /// where `read` is the flat index `iy·w + ix` of the input pixel the
    /// tap reads, or `None` when it falls on the zero padding.
    #[inline]
    pub fn for_each_tap(
        &self,
        (oy, ox): (usize, usize),
        (h, w): (usize, usize),
        mut f: impl FnMut(usize, Option<usize>),
    ) {
        for kj in 0..self.kernel {
            for ki in 0..self.kernel {
                // A tap left of or above the image wraps to a huge
                // coordinate and fails the same test.
                let iy = (oy * self.stride + ki).wrapping_sub(self.pad);
                let ix = (ox * self.stride + kj).wrapping_sub(self.pad);
                let read = if iy < h && ix < w {
                    Some(iy * w + ix)
                } else {
                    None
                };
                f(ki + self.kernel * kj, read);
            }
        }
    }
}

/// Every `(im2col index, image index)` pair of the Fig. 3 lowering of a
/// `[c, h, w]` image, output pixel by output pixel: the one walk that
/// [`im2col_into`] copies along and [`col2im`] accumulates along.
fn for_each_lowered(
    (c, h, w): (usize, usize, usize),
    geom: ConvGeometry,
    (oh, ow): (usize, usize),
    mut f: impl FnMut(usize, usize),
) {
    let cols = c * geom.kernel * geom.kernel;
    for oy in 0..oh {
        for ox in 0..ow {
            let base = (oy * ow + ox) * cols;
            geom.for_each_tap((oy, ox), (h, w), |t, read| {
                if let Some(pixel) = read {
                    for ch in 0..c {
                        f(base + t * c + ch, ch * h * w + pixel);
                    }
                }
            });
        }
    }
}

/// Lowers a `[C, H, W]` image into the im2col matrix
/// `[H_out·W_out, C·r·r]` of Fig. 3.
///
/// Column ordering follows Eqn. 6 of the paper: the channel index varies
/// fastest, then the kernel row, then the kernel column
/// (`col = c + C·ki + C·r·kj`), which is the layout that makes the lowered
/// filter matrix `F` block-circulant when the weight tensor has the
/// circulant structure of §IV-B.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 3, or
/// [`TensorError::InvalidGeometry`] when the kernel does not fit.
pub fn im2col(input: &Tensor, geom: ConvGeometry) -> Result<Tensor, TensorError> {
    if input.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.ndim(),
            op: "im2col",
        });
    }
    let mut out = Tensor::zeros(&[0]);
    let s = input.shape();
    im2col_into(input.as_slice(), (s[0], s[1], s[2]), geom, &mut out)?;
    Ok(out)
}

/// Allocation-reusing variant of [`im2col`] over one `[C, H, W]` image
/// given as a flat slice (a sample of a batch, read in place): lowers into
/// `out`, reshaping and zeroing its existing buffer when uniquely owned.
/// Steady-state callers (the inference hot path) pay no heap allocation
/// once `out` has grown to the required capacity.
///
/// # Errors
///
/// Returns [`TensorError::ShapeDataMismatch`] unless `input` holds
/// `C·H·W` values, or [`TensorError::InvalidGeometry`] when the kernel
/// does not fit; `out` is untouched on error.
pub fn im2col_into(
    input: &[f32],
    (c, h, w): (usize, usize, usize),
    geom: ConvGeometry,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    if input.len() != c * h * w {
        return Err(TensorError::ShapeDataMismatch {
            shape: vec![c, h, w],
            elements: input.len(),
        });
    }
    let (oh, ow) = (geom.output_extent(h)?, geom.output_extent(w)?);
    out.reuse_as(&[oh * ow, c * geom.kernel * geom.kernel]);
    let dst = out.as_mut_slice();
    // The padded region stays zero.
    for_each_lowered((c, h, w), geom, (oh, ow), |col, x| dst[col] = input[x]);
    Ok(())
}

/// Adjoint of [`im2col`]: scatters a `[H_out·W_out, C·r·r]` matrix back
/// into a `[C, H, W]` image, accumulating overlaps.
///
/// `col2im(im2col(x))` is **not** the identity (overlapping patches sum);
/// it is the transpose map, which is exactly what the convolution backward
/// pass needs.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the column matrix does not
/// match the geometry, or [`TensorError::InvalidGeometry`] for impossible
/// geometry.
pub fn col2im(
    cols_mat: &Tensor,
    channels: usize,
    height: usize,
    width: usize,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    let (oh, ow) = (geom.output_extent(height)?, geom.output_extent(width)?);
    let cols = channels * geom.kernel * geom.kernel;
    if cols_mat.shape() != [oh * ow, cols] {
        return Err(TensorError::ShapeMismatch {
            left: cols_mat.shape().to_vec(),
            right: vec![oh * ow, cols],
            op: "col2im",
        });
    }
    let mut out = vec![0.0f32; channels * height * width];
    let data = cols_mat.as_slice();
    for_each_lowered((channels, height, width), geom, (oh, ow), |col, x| {
        out[x] += data[col]
    });
    Tensor::from_vec(out, &[channels, height, width])
}

/// Direct (definition-level) 2-D convolution of Eqn. 5:
/// input `[C, H, W]`, filters `[P, C, r, r]` → output `[P, H_out, W_out]`.
///
/// This is the reference the im2col and block-circulant paths are tested
/// against.
///
/// # Errors
///
/// Returns rank/shape/geometry errors for malformed operands.
pub fn conv2d_direct(
    input: &Tensor,
    filters: &Tensor,
    geom: ConvGeometry,
) -> Result<Tensor, TensorError> {
    if input.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.ndim(),
            op: "conv2d_direct",
        });
    }
    if filters.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: filters.ndim(),
            op: "conv2d_direct",
        });
    }
    let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (p, fc, r, r2) = (
        filters.shape()[0],
        filters.shape()[1],
        filters.shape()[2],
        filters.shape()[3],
    );
    if fc != c || r != r2 || r != geom.kernel {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: filters.shape().to_vec(),
            op: "conv2d_direct",
        });
    }
    let oh = geom.output_extent(h)?;
    let ow = geom.output_extent(w)?;
    let x = input.as_slice();
    let f = filters.as_slice();
    let mut out = vec![0.0f32; p * oh * ow];

    for op_ in 0..p {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ch in 0..c {
                    for ki in 0..r {
                        for kj in 0..r {
                            let iy = (oy * geom.stride + ki) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + kj) as isize - geom.pad as isize;
                            if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                continue;
                            }
                            acc += x[ch * h * w + iy as usize * w + ix as usize]
                                * f[((op_ * c + ch) * r + ki) * r + kj];
                        }
                    }
                }
                out[op_ * oh * ow + oy * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(out, &[p, oh, ow])
}

/// Lowers a `[P, C, r, r]` filter bank to the `[C·r·r, P]` matrix `F` of
/// Fig. 3, with the row ordering of Eqn. 6 (channel fastest).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the filters are rank 4.
pub fn filters_to_matrix(filters: &Tensor) -> Result<Tensor, TensorError> {
    if filters.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: filters.ndim(),
            op: "filters_to_matrix",
        });
    }
    let (p, c, r, _) = (
        filters.shape()[0],
        filters.shape()[1],
        filters.shape()[2],
        filters.shape()[3],
    );
    let f = filters.as_slice();
    let mut dst = vec![0.0f32; c * r * r * p];
    for op_ in 0..p {
        for ch in 0..c {
            for ki in 0..r {
                for kj in 0..r {
                    let row = ch + c * ki + c * r * kj;
                    dst[row * p + op_] = f[((op_ * c + ch) * r + ki) * r + kj];
                }
            }
        }
    }
    Tensor::from_vec(dst, &[c * r * r, p])
}

/// Inverse of [`filters_to_matrix`]: raises a `[C·r·r, P]` matrix back to
/// a `[P, C, r, r]` filter bank.
///
/// # Errors
///
/// Returns shape errors when the matrix does not factor as `C·r·r` rows.
pub fn matrix_to_filters(
    mat: &Tensor,
    channels: usize,
    kernel: usize,
) -> Result<Tensor, TensorError> {
    if mat.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: mat.ndim(),
            op: "matrix_to_filters",
        });
    }
    let rows = channels * kernel * kernel;
    if mat.rows() != rows {
        return Err(TensorError::ShapeMismatch {
            left: mat.shape().to_vec(),
            right: vec![rows, mat.cols()],
            op: "matrix_to_filters",
        });
    }
    let p = mat.cols();
    let m = mat.as_slice();
    let mut out = vec![0.0f32; p * rows];
    for op_ in 0..p {
        for ch in 0..channels {
            for ki in 0..kernel {
                for kj in 0..kernel {
                    let row = ch + channels * ki + channels * kernel * kj;
                    out[((op_ * channels + ch) * kernel + ki) * kernel + kj] = m[row * p + op_];
                }
            }
        }
    }
    Tensor::from_vec(out, &[p, channels, kernel, kernel])
}

/// Bilinear resize of a `[H, W]` image or a `[C, H, W]` stack to
/// `out_h × out_w` — the transformation the paper applies to MNIST images
/// before feeding the 256- and 121-neuron input layers.
///
/// Uses the align-corners convention (corner pixels map exactly).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for ranks other than 2 or 3, and
/// [`TensorError::InvalidGeometry`] for empty inputs or outputs.
pub fn bilinear_resize(input: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor, TensorError> {
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidGeometry(
            "output size must be non-zero".into(),
        ));
    }
    match input.ndim() {
        2 => {
            let (h, w) = (input.shape()[0], input.shape()[1]);
            resize_plane(input.as_slice(), h, w, out_h, out_w)
                .and_then(|v| Tensor::from_vec(v, &[out_h, out_w]))
        }
        3 => {
            let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            let mut out = Vec::with_capacity(c * out_h * out_w);
            for ch in 0..c {
                let plane = &input.as_slice()[ch * h * w..(ch + 1) * h * w];
                out.extend(resize_plane(plane, h, w, out_h, out_w)?);
            }
            Tensor::from_vec(out, &[c, out_h, out_w])
        }
        other => Err(TensorError::RankMismatch {
            expected: 2,
            actual: other,
            op: "bilinear_resize",
        }),
    }
}

fn resize_plane(
    src: &[f32],
    h: usize,
    w: usize,
    out_h: usize,
    out_w: usize,
) -> Result<Vec<f32>, TensorError> {
    if h == 0 || w == 0 {
        return Err(TensorError::InvalidGeometry(
            "input size must be non-zero".into(),
        ));
    }
    let scale_y = if out_h > 1 {
        (h - 1) as f32 / (out_h - 1) as f32
    } else {
        0.0
    };
    let scale_x = if out_w > 1 {
        (w - 1) as f32 / (out_w - 1) as f32
    } else {
        0.0
    };
    let mut out = Vec::with_capacity(out_h * out_w);
    for oy in 0..out_h {
        let fy = oy as f32 * scale_y;
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(h - 1);
        let dy = fy - y0 as f32;
        for ox in 0..out_w {
            let fx = ox as f32 * scale_x;
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(w - 1);
            let dx = fx - x0 as f32;
            let v00 = src[y0 * w + x0];
            let v01 = src[y0 * w + x1];
            let v10 = src[y1 * w + x0];
            let v11 = src[y1 * w + x1];
            let top = v00 + (v01 - v00) * dx;
            let bot = v10 + (v11 - v10) * dx;
            out.push(top + (bot - top) * dy);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(c: usize, h: usize, w: usize) -> Tensor {
        Tensor::from_fn(&[c, h, w], |i| ((i * 7 + 3) % 11) as f32 - 5.0)
    }

    fn filters(p: usize, c: usize, r: usize) -> Tensor {
        Tensor::from_fn(&[p, c, r, r], |i| ((i * 5 + 1) % 7) as f32 * 0.25 - 0.5)
    }

    #[test]
    fn geometry_output_extent() {
        let g = ConvGeometry::valid(3);
        assert_eq!(g.output_extent(32).unwrap(), 30);
        let g = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(g.output_extent(8).unwrap(), 4);
        assert!(ConvGeometry::valid(5).output_extent(3).is_err());
        assert!(ConvGeometry {
            kernel: 3,
            stride: 0,
            pad: 0
        }
        .output_extent(8)
        .is_err());
        assert!(ConvGeometry::valid(0).output_extent(8).is_err());
    }

    #[test]
    fn im2col_matmul_equals_direct_conv() {
        for (geom, c, h, w, p) in [
            (ConvGeometry::valid(3), 2usize, 6usize, 5usize, 3usize),
            (
                ConvGeometry {
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                3,
                5,
                5,
                2,
            ),
            (
                ConvGeometry {
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                },
                1,
                6,
                6,
                4,
            ),
        ] {
            let x = image(c, h, w);
            let f = filters(p, c, geom.kernel);
            let cols = im2col(&x, geom).unwrap();
            let fmat = filters_to_matrix(&f).unwrap();
            let y_mat = cols.matmul(&fmat).unwrap(); // [oh*ow, p]
            let y_ref = conv2d_direct(&x, &f, geom).unwrap(); // [p, oh, ow]
            let oh = geom.output_extent(h).unwrap();
            let ow = geom.output_extent(w).unwrap();
            for op_ in 0..p {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let a = y_mat.at(&[oy * ow + ox, op_]);
                        let b = y_ref.at(&[op_, oy, ox]);
                        assert!((a - b).abs() < 1e-4, "mismatch at p={op_} y={oy} x={ox}");
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_into_reuses_buffer_and_matches() {
        let geom = ConvGeometry {
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let x = image(2, 6, 5);
        let fresh = im2col(&x, geom).unwrap();
        // Pre-size a unique buffer larger than needed: the lowering must
        // reuse it in place rather than allocate.
        let mut out = Tensor::zeros(&[64, 32]);
        let ptr = out.as_slice().as_ptr();
        im2col_into(x.as_slice(), (2, 6, 5), geom, &mut out).unwrap();
        assert_eq!(out, fresh);
        assert_eq!(out.as_slice().as_ptr(), ptr, "buffer was reallocated");
        // Error path leaves `out` untouched.
        let mut out2 = Tensor::zeros(&[3]);
        assert!(im2col_into(&[0.0; 16], (2, 6, 5), geom, &mut out2).is_err());
        assert!(im2col(&Tensor::zeros(&[4, 4]), geom).is_err());
        assert_eq!(out2.shape(), &[3]);
    }

    #[test]
    fn taps_follow_eqn6_column_order_with_padding() {
        let geom = ConvGeometry {
            kernel: 2,
            stride: 2,
            pad: 1,
        };
        let mut taps = Vec::new();
        geom.for_each_tap((0, 1), (3, 3), |t, read| taps.push((t, read)));
        // (ki, kj) = (0,0), (1,0), (0,1), (1,1): input rows −1, 0 and
        // columns 1, 2 of a 3 × 3 image.
        assert_eq!(taps, [(0, None), (1, Some(1)), (2, None), (3, Some(2))]);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1×1 kernel: im2col is just a channel-major flatten per pixel.
        let x = image(2, 3, 3);
        let cols = im2col(&x, ConvGeometry::valid(1)).unwrap();
        assert_eq!(cols.shape(), &[9, 2]);
        assert_eq!(cols.at(&[4, 1]), x.at(&[1, 1, 1]));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for arbitrary x, y.
        let geom = ConvGeometry {
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let (c, h, w) = (2usize, 5usize, 6usize);
        let x = image(c, h, w);
        let cols = im2col(&x, geom).unwrap();
        let y = Tensor::from_fn(cols.shape(), |i| ((i % 5) as f32) - 2.0);
        let back = col2im(&y, c, h, w, geom).unwrap();
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn col2im_validates_shape() {
        let geom = ConvGeometry::valid(3);
        let bad = Tensor::zeros(&[4, 4]);
        assert!(col2im(&bad, 1, 5, 5, geom).is_err());
    }

    #[test]
    fn filters_matrix_roundtrip() {
        let f = filters(3, 2, 3);
        let m = filters_to_matrix(&f).unwrap();
        assert_eq!(m.shape(), &[2 * 9, 3]);
        let back = matrix_to_filters(&m, 2, 3).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn matrix_to_filters_validates() {
        let m = Tensor::zeros(&[10, 3]);
        assert!(matrix_to_filters(&m, 2, 3).is_err()); // 2*9 = 18 != 10
        assert!(matrix_to_filters(&Tensor::zeros(&[18]), 2, 3).is_err());
    }

    #[test]
    fn resize_identity_when_same_size() {
        let x = image(1, 4, 4).reshape(&[4, 4]).unwrap();
        let y = bilinear_resize(&x, 4, 4).unwrap();
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_constant_image_stays_constant() {
        let x = Tensor::filled(&[8, 8], 3.5);
        let y = bilinear_resize(&x, 5, 3).unwrap();
        assert_eq!(y.shape(), &[5, 3]);
        for &v in y.as_slice() {
            assert!((v - 3.5).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_preserves_linear_gradient() {
        // A linear ramp resampled bilinearly stays a linear ramp.
        let x = Tensor::from_fn(&[4, 4], |i| (i % 4) as f32);
        let y = bilinear_resize(&x, 4, 7).unwrap();
        for r in 0..4 {
            for cidx in 0..7 {
                let expected = cidx as f32 * 3.0 / 6.0;
                assert!((y.at(&[r, cidx]) - expected).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn resize_multichannel() {
        let x = image(3, 28, 28);
        let y = bilinear_resize(&x, 16, 16).unwrap();
        assert_eq!(y.shape(), &[3, 16, 16]);
        // Each channel resized independently: corners map exactly.
        for ch in 0..3 {
            assert!((y.at(&[ch, 0, 0]) - x.at(&[ch, 0, 0])).abs() < 1e-6);
            assert!((y.at(&[ch, 15, 15]) - x.at(&[ch, 27, 27])).abs() < 1e-6);
        }
    }

    #[test]
    fn resize_to_single_pixel() {
        let x = Tensor::from_fn(&[3, 3], |i| i as f32);
        let y = bilinear_resize(&x, 1, 1).unwrap();
        assert_eq!(y.at(&[0, 0]), 0.0); // align-corners: picks the origin
    }

    #[test]
    fn resize_rejects_bad_inputs() {
        assert!(bilinear_resize(&Tensor::zeros(&[4]), 2, 2).is_err());
        assert!(bilinear_resize(&Tensor::zeros(&[4, 4]), 0, 2).is_err());
        assert!(bilinear_resize(&Tensor::zeros(&[0, 4]), 2, 2).is_err());
    }

    #[test]
    fn conv2d_direct_validates() {
        let x = image(2, 5, 5);
        let f = filters(3, 1, 3); // wrong channel count
        assert!(conv2d_direct(&x, &f, ConvGeometry::valid(3)).is_err());
        let f = filters(3, 2, 3);
        assert!(conv2d_direct(&x, &f, ConvGeometry::valid(4)).is_err()); // geom/kernel mismatch
    }
}
