//! A synthetic fixed-service-time layer for load experiments.
//!
//! Real embedded inference has a roughly constant per-batch service
//! time; on the (possibly single-core, frequency-scaled) CI host a real
//! forward pass does not. [`DelayLayer`] pins service time explicitly:
//! it sleeps a configured number of microseconds per forward call and
//! passes activations through unchanged. Because the cost is one sleep
//! *per batch*, adding workers genuinely adds concurrency — which is
//! what makes worker-scaling and overload benches reproducible across
//! hosts instead of artifacts of the machine they ran on.
//!
//! The layer round-trips through the model format (tag `"delay"`, config
//! = little-endian `u64` microseconds), so delay models can be published
//! to a registry and served like any other — register the tag via
//! [`delay_registry`] and start the scheduler with
//! [`Scheduler::start_with_registry`](crate::Scheduler::start_with_registry).

use ffdl_nn::{Dense, Layer, LayerRegistry, Network, NnError, Scratch, Softmax};
use ffdl_rng::{SeedableRng, SmallRng};
use ffdl_tensor::Tensor;
use std::time::Duration;

/// Identity layer that sleeps a fixed duration per forward call.
#[derive(Debug)]
pub struct DelayLayer {
    micros: u64,
}

impl DelayLayer {
    /// A layer sleeping `micros` microseconds per (batched) forward.
    pub fn new(micros: u64) -> Self {
        Self { micros }
    }

    fn nap(&self) {
        if self.micros > 0 {
            std::thread::sleep(Duration::from_micros(self.micros));
        }
    }
}

impl Layer for DelayLayer {
    fn type_tag(&self) -> &'static str {
        "delay"
    }

    fn forward_with(
        &mut self,
        input: &Tensor,
        _scratch: &mut Scratch,
        _keep: bool,
    ) -> Result<Tensor, NnError> {
        self.nap();
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        // Identity: the gradient passes through unchanged.
        Ok(grad_output.clone())
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self { micros: self.micros }))
    }

    fn config_bytes(&self) -> Vec<u8> {
        self.micros.to_le_bytes().to_vec()
    }
}

/// Builds a [`DelayLayer`] from its config blob (registry constructor
/// for the `"delay"` tag).
///
/// # Errors
///
/// [`NnError::ModelFormat`] when the blob is not 8 bytes.
pub fn delay_from_config(config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let bytes: [u8; 8] = config.try_into().map_err(|_| {
        NnError::ModelFormat(format!(
            "delay layer config must be 8 bytes, got {}",
            config.len()
        ))
    })?;
    Ok(Box::new(DelayLayer::new(u64::from_le_bytes(bytes))))
}

/// The full workspace layer registry plus the `"delay"` tag.
pub fn delay_registry() -> LayerRegistry {
    let mut registry = ffdl_core::full_registry();
    registry.register("delay", delay_from_config);
    registry
}

/// A minimal servable model with a pinned service time: delay →
/// dense(`features` → `classes`) → softmax, seeded deterministically.
pub fn delay_model(features: usize, classes: usize, micros: u64, seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut network = Network::new();
    network.push(DelayLayer::new(micros));
    network.push(Dense::new(features, classes, &mut rng));
    network.push(Softmax::new());
    network
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_round_trips_and_sleeps() {
        let network = delay_model(8, 3, 500, 7);
        let registry = delay_registry();
        let clone = ffdl_nn::clone_network(&network, &registry).expect("wire round-trip");
        assert_eq!(clone.len(), 3);
        let mut engine = ffdl_deploy::InferenceEngine::new(clone);
        let x = Tensor::from_fn(&[1, 8], |i| i as f32 * 0.1);
        let started = std::time::Instant::now();
        let prediction = engine.predict(&x).expect("predict").remove(0);
        assert!(started.elapsed() >= Duration::from_micros(500));
        assert_eq!(prediction.probabilities.len(), 3);
    }

    #[test]
    fn bad_config_is_typed() {
        assert!(delay_from_config(&[1, 2, 3]).is_err());
    }
}
