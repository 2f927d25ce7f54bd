//! Max pooling. The paper's Arch. 3 lists only CONV and FC layers, but a
//! practical CIFAR-scale network needs spatial reduction between CONV
//! blocks; pooling is also required by the deployment pipeline's
//! architecture grammar.

use crate::error::NnError;
use crate::layer::{Layer, OpCost};
use crate::scratch::Scratch;
use crate::wire;
use ffdl_tensor::Tensor;

/// Max pooling over non-overlapping (or strided) square windows:
/// input `[batch, C, H, W]` → output `[batch, C, H/k, W/k]` (floor).
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// `(input shape, argmax flat indices per output element)`.
    cache: Option<(Vec<usize>, Vec<usize>)>,
    last_out_elems: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer with `stride == kernel` (non-overlapping).
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        Self::with_stride(kernel, kernel)
    }

    /// Creates a pooling layer with an explicit stride.
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
            cache: None,
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

impl Layer for MaxPool2d {
    fn type_tag(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        scratch: &mut Scratch,
        keep: bool,
    ) -> Result<Tensor, NnError> {
        if input.ndim() != 4 {
            return Err(NnError::BadInput {
                layer: "maxpool2d".into(),
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
                    layer: "maxpool2d".into(),
                    message: format!("window {} exceeds spatial size {h}×{w}", self.kernel),
                })
            }
        };
        let mut out = scratch.take(&[b, c, oh, ow]);
        // Only a pass that keeps for `backward` builds the argmax vector.
        let mut argmax = Vec::with_capacity(if keep { out.len() } else { 0 });
        let x = input.as_slice();
        let dst = out.as_mut_slice();
        let mut o = 0;
        for bi in 0..b {
            for ci in 0..c {
                let plane = (bi * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_idx = plane + (oy * self.stride) * w + ox * self.stride;
                        let mut best = x[best_idx];
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let idx = plane
                                    + (oy * self.stride + ky) * w
                                    + ox * self.stride
                                    + kx;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        dst[o] = best;
                        o += 1;
                        if keep {
                            argmax.push(best_idx);
                        }
                    }
                }
            }
        }
        self.last_out_elems = c * oh * ow;
        if keep {
            self.cache = Some((input.shape().to_vec(), argmax));
        }
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            kernel: self.kernel,
            stride: self.stride,
            cache: None,
            last_out_elems: self.last_out_elems,
        }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let (in_shape, argmax) = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache("maxpool2d".into()))?;
        if grad_output.len() != argmax.len() {
            return Err(NnError::BadInput {
                layer: "maxpool2d".into(),
                message: format!(
                    "gradient has {} elements, expected {}",
                    grad_output.len(),
                    argmax.len()
                ),
            });
        }
        let mut grad_input = Tensor::zeros(in_shape);
        let gi = grad_input.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(grad_output.as_slice()) {
            gi[idx] += g;
        }
        Ok(grad_input)
    }

    fn op_cost(&self) -> OpCost {
        let cmp = (self.last_out_elems * self.kernel * self.kernel) as u64;
        OpCost {
            nonlin: cmp, // comparisons
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

/// Reconstructs a [`MaxPool2d`] from its config blob.
///
/// # Errors
///
/// Returns [`NnError::Io`]/[`NnError::ModelFormat`] on malformed config.
pub fn maxpool2d_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let kernel = wire::read_u32(&mut config)? as usize;
    let stride = wire::read_u32(&mut config)? as usize;
    if kernel == 0 || stride == 0 {
        return Err(NnError::ModelFormat(
            "maxpool2d kernel/stride must be positive".into(),
        ));
    }
    Ok(Box::new(MaxPool2d::with_stride(kernel, stride)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_2x2() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, 7.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 9.0, 7.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0],
            &[1, 1, 2, 2],
        )
        .unwrap();
        let _ = pool.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]).unwrap();
        let gi = pool.backward(&g).unwrap();
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn strided_pooling() {
        let mut pool = MaxPool2d::with_stride(3, 2);
        let x = Tensor::from_fn(&[1, 1, 7, 7], |i| i as f32);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        // Max of each 3×3 window is its bottom-right element.
        assert_eq!(y.at(&[0, 0, 0, 0]), x.at(&[0, 0, 2, 2]));
        assert_eq!(y.at(&[0, 0, 2, 2]), x.at(&[0, 0, 6, 6]));
    }

    #[test]
    fn multichannel_batch() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(&[2, 3, 4, 4], |i| (i % 17) as f32);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.shape(), &[2, 3, 2, 2]);
    }

    #[test]
    fn window_larger_than_input_rejected() {
        let mut pool = MaxPool2d::new(5);
        assert!(pool.forward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }

    #[test]
    fn backward_requires_forward_and_shape() {
        let mut pool = MaxPool2d::new(2);
        assert!(matches!(
            pool.backward(&Tensor::zeros(&[1, 1, 1, 1])),
            Err(NnError::NoForwardCache(_))
        ));
        let _ = pool.forward(&Tensor::zeros(&[1, 1, 4, 4])).unwrap();
        assert!(pool.backward(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }

    #[test]
    fn pooling_gradient_is_subgradient() {
        // Sum-pooling check: sum(forward(x)) changes only via argmax cells.
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![0.9, 0.1, 0.2, 0.3, 0.8, 0.0, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75, 0.2, 0.1, 0.0, 0.35],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x).unwrap();
        let ones = Tensor::ones(y.shape());
        let gi = pool.backward(&ones).unwrap();
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let num = (pool.forward(&xp).unwrap().sum() - y.sum()) / eps;
            assert!(
                (num - gi.as_slice()[i]).abs() < 1e-2,
                "index {i}: {num} vs {}",
                gi.as_slice()[i]
            );
        }
    }

    #[test]
    fn config_roundtrip() {
        let pool = MaxPool2d::with_stride(3, 2);
        let rebuilt = maxpool2d_from_config(&pool.config_bytes()).unwrap();
        assert_eq!(rebuilt.type_tag(), "maxpool2d");
        assert!(maxpool2d_from_config(&[0u8; 8]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kernel_panics() {
        let _ = MaxPool2d::new(0);
    }
}
