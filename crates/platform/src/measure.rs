//! Host wall-clock measurement helpers.
//!
//! Besides the calibrated cost model, every experiment also measures the
//! *real* Rust kernels on the host machine; EXPERIMENTS.md reports both,
//! so the shape claims never rest on the model alone.

use ffdl_nn::{Network, NnError, Scratch};
use ffdl_tensor::Tensor;
use std::time::Instant;

/// A wall-clock timing result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Mean time per repetition, in µs.
    pub mean_us: f64,
    /// Minimum observed repetition, in µs.
    pub min_us: f64,
    /// Number of repetitions measured.
    pub reps: usize,
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1} µs/rep (min {:.1} µs over {} reps)",
            self.mean_us, self.min_us, self.reps
        )
    }
}

/// Measures mean/min wall-clock time of `f` over `reps` repetitions,
/// after `warmup` unmeasured calls.
///
/// # Panics
///
/// Panics if `reps == 0`.
pub fn time_reps(warmup: usize, reps: usize, mut f: impl FnMut()) -> Timing {
    assert!(reps > 0, "need at least one repetition");
    for _ in 0..warmup {
        f();
    }
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        total += us;
        min = min.min(us);
    }
    Timing {
        mean_us: total / reps as f64,
        min_us: min,
        reps,
    }
}

/// Measures per-image inference time of a network on the host: runs the
/// whole `input` batch through the inference pass
/// ([`Network::forward_infer`] on a warm [`Scratch`] — what a deployed
/// engine executes) per repetition and divides by the batch size.
///
/// # Errors
///
/// Propagates forward-pass errors from the first (verification) run.
pub fn measure_inference_us(
    network: &mut Network,
    input: &Tensor,
    warmup: usize,
    reps: usize,
) -> Result<Timing, NnError> {
    let mut scratch = Scratch::new();
    // Verify the forward pass works (and warm the pool) before timing it.
    let out = network.forward_infer(input, &mut scratch)?;
    scratch.recycle(out);
    let batch = input.shape()[0].max(1) as f64;
    let t = time_reps(warmup, reps, || {
        let out = network.forward_infer(input, &mut scratch).expect("verified above");
        scratch.recycle(out);
    });
    Ok(Timing {
        mean_us: t.mean_us / batch,
        min_us: t.min_us / batch,
        reps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_nn::Dense;
    use ffdl_rng::SeedableRng;

    #[test]
    fn time_reps_reports_positive_times() {
        let mut acc = 0u64;
        let t = time_reps(1, 5, || {
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
        });
        assert!(t.mean_us >= t.min_us);
        assert!(t.min_us >= 0.0);
        assert_eq!(t.reps, 5);
        std::hint::black_box(acc); // keep the side effect alive
        assert!(!format!("{t}").is_empty());
    }

    #[test]
    #[should_panic(expected = "repetition")]
    fn zero_reps_panics() {
        let _ = time_reps(0, 0, || {});
    }

    #[test]
    fn measure_inference_divides_by_batch() {
        let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(2);
        let mut net = Network::new();
        net.push(Dense::new(16, 16, &mut rng));
        let x = Tensor::zeros(&[8, 16]);
        let t = measure_inference_us(&mut net, &x, 1, 3).unwrap();
        assert!(t.mean_us > 0.0);
        assert!(t.mean_us.is_finite());
    }

    #[test]
    fn measure_inference_propagates_errors() {
        let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(2);
        let mut net = Network::new();
        net.push(Dense::new(16, 16, &mut rng));
        let bad = Tensor::zeros(&[2, 5]);
        assert!(measure_inference_us(&mut net, &bad, 0, 1).is_err());
    }
}
