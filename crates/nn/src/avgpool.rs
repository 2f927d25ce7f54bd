//! Average pooling — companion to max pooling for CONV stacks.

use crate::error::NnError;
use crate::layer::{Layer, OpCost};
use crate::scratch::Scratch;
use crate::wire;
use ffdl_tensor::Tensor;

/// Average pooling over square windows: input `[batch, C, H, W]` →
/// output `[batch, C, H', W']` with `H' = (H − k)/s + 1`.
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cached_in_shape: Option<Vec<usize>>,
    last_out_elems: usize,
}

impl AvgPool2d {
    /// Non-overlapping average pooling (`stride == kernel`).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        Self::with_stride(kernel, kernel)
    }

    /// Average pooling with an explicit stride.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0` or `stride == 0`.
    pub fn with_stride(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0, "pooling kernel must be positive");
        assert!(stride > 0, "pooling stride must be positive");
        Self {
            kernel,
            stride,
            cached_in_shape: None,
            last_out_elems: 0,
        }
    }

    /// Pooling window side.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Pooling stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    fn out_extent(&self, n: usize) -> Option<usize> {
        if n < self.kernel {
            None
        } else {
            Some((n - self.kernel) / self.stride + 1)
        }
    }
}

impl Layer for AvgPool2d {
    fn type_tag(&self) -> &'static str {
        "avgpool2d"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        if input.ndim() != 4 {
            return Err(NnError::BadInput {
                layer: "avgpool2d".into(),
                message: format!("expected [batch, C, H, W], got {:?}", input.shape()),
            });
        }
        let (b, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = match (self.out_extent(h), self.out_extent(w)) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(NnError::BadInput {
                    layer: "avgpool2d".into(),
                    message: format!("window {} exceeds spatial size {h}×{w}", self.kernel),
                })
            }
        };
        let mut out = scratch.take(&[b, c, oh, ow]);
        let x = input.as_slice();
        let dst = out.as_mut_slice();
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut o = 0;
        for bi in 0..b {
            for ci in 0..c {
                let plane = (bi * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                acc += x[plane
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx];
                            }
                        }
                        dst[o] = acc * inv;
                        o += 1;
                    }
                }
            }
        }
        self.last_out_elems = c * oh * ow;
        if keep {
            self.cached_in_shape = Some(input.shape().to_vec());
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            kernel: self.kernel,
            stride: self.stride,
            cached_in_shape: None,
            last_out_elems: self.last_out_elems,
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let in_shape = self
            .cached_in_shape
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("avgpool2d".into()))?;
        let (b, c, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let oh = self.out_extent(h).expect("validated in forward");
        let ow = self.out_extent(w).expect("validated in forward");
        if grad_output.shape() != [b, c, oh, ow] {
            return Err(NnError::BadInput {
                layer: "avgpool2d".into(),
                message: format!(
                    "expected gradient [{b}, {c}, {oh}, {ow}], got {:?}",
                    grad_output.shape()
                ),
            });
        }
        let inv = 1.0 / (self.kernel * self.kernel) as f32;
        let mut grad_in = Tensor::zeros(in_shape);
        let gi = grad_in.as_mut_slice();
        let g = grad_output.as_slice();
        for bi in 0..b {
            for ci in 0..c {
                let plane = (bi * c + ci) * h * w;
                let gplane = (bi * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let v = g[gplane + oy * ow + ox] * inv;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                gi[plane
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx] += v;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    fn op_cost(&self) -> OpCost {
        OpCost {
            adds: (self.last_out_elems * self.kernel * self.kernel) as u64,
            mults: self.last_out_elems as u64,
            act_traffic: 2 * self.last_out_elems as u64,
            ..OpCost::default()
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        wire::write_u32(&mut buf, self.kernel as u32).expect("vec write is infallible");
        wire::write_u32(&mut buf, self.stride as u32).expect("vec write is infallible");
        buf
    }
}

/// Reconstructs an [`AvgPool2d`] from its config blob.
///
/// # Errors
///
/// Returns [`NnError::Io`]/[`NnError::ModelFormat`] on malformed config.
pub fn avgpool2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let kernel = wire::read_u32(&mut config)? as usize;
    let stride = wire::read_u32(&mut config)? as usize;
    if kernel == 0 || stride == 0 {
        return Err(NnError::ModelFormat(
            "avgpool2d kernel/stride must be positive".into(),
        ));
    }
    Ok(Box::new(AvgPool2d::with_stride(kernel, stride)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_averages() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[3.5, 5.5, 4.75, 4.5]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32);
        let _ = pool.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![8.0], &[1, 1, 1, 1]).unwrap();
        let gi = pool.backward(&g).unwrap();
        assert_eq!(gi.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gradient_check() {
        let mut pool = AvgPool2d::with_stride(2, 1);
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| (i as f32 * 0.37).sin());
        let y = pool.forward(&x).unwrap();
        let ones = Tensor::ones(y.shape());
        let gi = pool.backward(&ones).unwrap();
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let num = (pool.forward(&xp).unwrap().sum() - y.sum()) / eps;
            assert!((num - gi.as_slice()[i]).abs() < 1e-2, "d[{i}]");
        }
    }

    #[test]
    fn constant_image_invariant() {
        let mut pool = AvgPool2d::new(3);
        let x = Tensor::filled(&[2, 2, 6, 6], 2.5);
        let y = pool.forward(&x).unwrap();
        assert!(y.as_slice().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn validates() {
        let mut pool = AvgPool2d::new(5);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
        assert!(pool.forward(&Tensor::zeros(&[1, 3, 3])).is_err());
        assert!(matches!(
            pool.backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::NoForwardCache(_))
        ));
        let mut pool = AvgPool2d::new(2);
        let _ = pool.forward(&Tensor::zeros(&[1, 1, 4, 4])).unwrap();
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }

    #[test]
    fn config_roundtrip() {
        let pool = AvgPool2d::with_stride(3, 2);
        let rebuilt = avgpool2d_from_config(&pool.config_bytes()).unwrap();
        assert_eq!(rebuilt.type_tag(), "avgpool2d");
        assert!(avgpool2d_from_config(&[0u8; 8]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kernel_panics() {
        let _ = AvgPool2d::new(0);
    }
}
