//! Integration: the three CONV strategies of experiment A3 — dense,
//! the FFT-convolution baseline (acceleration only) and block-circulant
//! (acceleration and compression) — under the platform model.

use ffdl::core::CirculantConv2d;
use ffdl::nn::{Conv2d, Layer};
use ffdl::platform::{Implementation, PowerState, RuntimeModel, HONOR_6X};
use ffdl::tensor::{ConvGeometry, Tensor};
use ffdl_bench::fft_conv::FftConv2d;
use ffdl_rng::rngs::SmallRng;
use ffdl_rng::SeedableRng;

#[test]
fn platform_model_ranks_the_three_conv_strategies() {
    // At CNN-typical 3×3 kernels: circulant < dense < fft-conv runtime.
    let mut rng = SmallRng::seed_from_u64(44);
    let (c, p, h) = (16usize, 32usize, 16usize);
    let m = RuntimeModel::new(HONOR_6X, Implementation::Cpp, PowerState::PluggedIn);
    let x = Tensor::zeros(&[1, c, h, h]);

    let mut dense = Conv2d::new(c, p, h, h, ConvGeometry::valid(3), &mut rng).unwrap();
    let mut fft = FftConv2d::new(c, p, h, h, 3, &mut rng).unwrap();
    let mut circ = CirculantConv2d::new(c, p, h, h, ConvGeometry::valid(3), 16, &mut rng).unwrap();
    let _ = dense.forward(&x).unwrap();
    let _ = fft.forward(&x).unwrap();
    let _ = circ.forward(&x).unwrap();

    let t_dense = m.estimate_layer_us(&dense);
    let t_fft = m.estimate_layer_us(&fft);
    let t_circ = m.estimate_layer_us(&circ);
    assert!(t_circ < t_dense, "circulant {t_circ} vs dense {t_dense}");
    assert!(t_dense < t_fft, "dense {t_dense} vs fft {t_fft}");
}
