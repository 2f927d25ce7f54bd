//! The sequential [`Network`] container: forward/backward across layers,
//! a mini-batch training step, and accuracy evaluation.
//!
//! There is exactly one layer loop (the private `Network::run`). The
//! training pass ([`Network::forward`]) runs it with `keep` on — every
//! layer records what `backward` needs — over a throw-away [`Scratch`];
//! the inference pass ([`Network::forward_infer`], and
//! [`Network::forward_batch_with`] after stacking per-sample tensors)
//! runs it with `keep` off over the caller's pool. Each layer has one
//! body ([`Layer::forward_with`]), so the passes agree bit for bit.

use crate::error::NnError;
use crate::layer::{Layer, OpCost, ParamRef};
use crate::loss::SoftmaxCrossEntropy;
use crate::optimizer::Sgd;
use crate::scratch::Scratch;
use crate::softmax::argmax_row;
use ffdl_tensor::Tensor;

/// A feed-forward stack of [`Layer`]s executed in order.
///
/// # Examples
///
/// ```
/// use ffdl_nn::{Dense, Network, Relu, Sgd, SoftmaxCrossEntropy};
/// use ffdl_tensor::Tensor;
/// use ffdl_rng::SeedableRng;
///
/// let mut rng = ffdl_rng::rngs::SmallRng::seed_from_u64(0);
/// let mut net = Network::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 3, &mut rng));
///
/// let x = Tensor::zeros(&[2, 4]);
/// let logits = net.forward(&x)?;
/// assert_eq!(logits.shape(), &[2, 3]);
///
/// let mut opt = Sgd::with_momentum(0.001, 0.9); // the paper's setting
/// let loss = net.train_batch(&x, &[0, 2], &SoftmaxCrossEntropy::new(), &mut opt)?;
/// assert!(loss.is_finite());
/// # Ok::<(), ffdl_nn::NnError>(())
/// ```
#[derive(Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer (used by the model loader and the
    /// architecture parser).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Removes and returns the last layer, if any.
    ///
    /// Training code uses this to detach a trailing inference-time
    /// `softmax` so the fused [`SoftmaxCrossEntropy`] loss sees raw
    /// logits (applying softmax twice flattens gradients), reattaching it
    /// afterwards.
    pub fn pop_layer(&mut self) -> Option<Box<dyn Layer>> {
        self.layers.pop()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Span over one layer's forward call, when telemetry is on.
    fn layer_span(telemetry_on: bool, layer: &dyn Layer) -> Option<ffdl_telemetry::SpanTimer> {
        telemetry_on
            .then(|| ffdl_telemetry::span(&format!("ffdl.nn.layer_forward_ns.{}", layer.type_tag())))
    }

    /// The layer loop under every forward entry point: consumes `x`,
    /// recycling each layer's input into `scratch` once the layer has
    /// produced its output (a buffer a layer kept an alias of stays out
    /// of circulation until that alias drops).
    ///
    /// When global telemetry is enabled (`ffdl_telemetry::enabled()`),
    /// each layer's wall time lands in a
    /// `ffdl.nn.layer_forward_ns.<type_tag>` histogram and the pass
    /// itself in `ffdl.nn.forward_ns` — the per-stage profile CirCNN's
    /// FFT → elementwise → IFFT pipeline analysis rests on. Disabled
    /// (the default), the cost is one relaxed bool load.
    fn run(&mut self, mut x: Tensor, scratch: &mut Scratch, keep: bool) -> Result<Tensor, NnError> {
        let telemetry_on = ffdl_telemetry::enabled();
        let _whole = telemetry_on.then(|| ffdl_telemetry::span("ffdl.nn.forward_ns"));
        for layer in &mut self.layers {
            let span = Self::layer_span(telemetry_on, layer.as_ref());
            let result = layer.forward_with(&x, scratch, keep);
            drop(span);
            scratch.recycle(x);
            x = result?;
        }
        Ok(x)
    }

    /// Runs the training forward pass: every layer keeps what
    /// [`Network::backward`] needs.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (shape mismatch etc.).
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.run(input.clone(), &mut Scratch::new(), true)
    }

    /// Runs the inference forward pass over a `[batch, d…]` input: no
    /// layer records anything for `backward`, and every intermediate
    /// activation is threaded through `scratch`, so after a warmup call
    /// the steady state performs **zero per-request heap allocations**
    /// (power-of-two FFT blocks). Recycle the result into `scratch` to
    /// keep the pool warm. Outputs are bit-identical to
    /// [`Network::forward`]: same loop, same bodies.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (shape mismatch etc.).
    pub fn forward_infer(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, NnError> {
        let mut x = scratch.take(input.shape());
        x.as_mut_slice().copy_from_slice(input.as_slice());
        self.run(x, scratch, false)
    }

    /// [`Network::forward_infer`] over a coalesced batch of per-sample
    /// tensors: the samples are stacked into one scratch-owned `[n, d…]`
    /// tensor and pushed through the layer stack **once**, so per-call
    /// costs are paid per batch instead of per sample — the kernel-level
    /// half of the serving runtime's dynamic batcher.
    ///
    /// Row `r` of the output corresponds to `samples[r]`, bit-identically
    /// to running [`Network::forward`] on that sample alone (all layers
    /// process batch rows independently).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when `samples` is empty or the
    /// sample shapes disagree; propagates layer errors.
    pub fn forward_batch_with(
        &mut self,
        samples: &[&Tensor],
        scratch: &mut Scratch,
    ) -> Result<Tensor, NnError> {
        let mut x = scratch.take(&[0]);
        if let Err(e) = Tensor::stack_into(samples, &mut x) {
            scratch.recycle(x);
            return Err(NnError::BadInput {
                layer: "network".into(),
                message: format!("forward_batch: {e}"),
            });
        }
        self.run(x, scratch, false)
    }

    /// Runs the full backward pass, returning the gradient with respect to
    /// the network input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; in particular
    /// [`NnError::NoForwardCache`] when called before [`Network::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// All trainable parameters, layer by layer, in a stable order.
    pub fn parameters(&mut self) -> Vec<ParamRef<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.parameters())
            .collect()
    }

    /// One SGD step on a mini-batch: forward, loss, backward, update.
    /// Returns the batch loss.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_batch(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        loss: &SoftmaxCrossEntropy,
        optimizer: &mut Sgd,
    ) -> Result<f32, NnError> {
        let logits = self.forward(inputs)?;
        let (loss_value, grad) = loss.compute(&logits, labels)?;
        self.backward(&grad)?;
        optimizer.step(&mut self.parameters());
        Ok(loss_value)
    }

    /// Predicted class per sample: [`argmax_row`] of each row of the
    /// inference pass's output.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; the output must be `[batch, classes]`.
    pub fn predict(&mut self, inputs: &Tensor) -> Result<Vec<usize>, NnError> {
        let logits = self.forward_infer(inputs, &mut Scratch::new())?;
        if logits.ndim() != 2 {
            return Err(NnError::BadInput {
                layer: "network".into(),
                message: format!("predict needs [batch, classes] output, got {:?}", logits.shape()),
            });
        }
        Ok((0..logits.rows()).map(|r| argmax_row(logits.row(r))).collect())
    }

    /// Classification accuracy on a labelled batch, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates layer errors and label-count mismatches.
    pub fn accuracy(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
        let preds = self.predict(inputs)?;
        if preds.len() != labels.len() {
            return Err(NnError::BadInput {
                layer: "network".into(),
                message: format!("{} predictions for {} labels", preds.len(), labels.len()),
            });
        }
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = preds
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f32 / labels.len() as f32)
    }

    /// Total stored parameters across all layers.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total parameters an uncompressed network of the same architecture
    /// would store.
    pub fn logical_param_count(&self) -> usize {
        self.layers.iter().map(|l| l.logical_param_count()).sum()
    }

    /// Storage compression ratio `logical / stored` (1.0 for an
    /// uncompressed network; ≥ 1 when block-circulant layers are present).
    pub fn compression_ratio(&self) -> f32 {
        let stored = self.param_count();
        if stored == 0 {
            return 1.0;
        }
        self.logical_param_count() as f32 / stored as f32
    }

    /// Aggregate single-sample forward cost (for the platform model).
    ///
    /// Layer costs reflect the most recent forward pass for layers whose
    /// cost depends on activation sizes; run one forward first.
    pub fn op_cost(&self) -> OpCost {
        self.layers
            .iter()
            .map(|l| l.op_cost())
            .fold(OpCost::default(), OpCost::combine)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tags: Vec<&str> = self.layers.iter().map(|l| l.type_tag()).collect();
        f.debug_struct("Network")
            .field("layers", &tags)
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn xor_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = Network::new();
        net.push(Dense::new(2, 16, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(16, 2, &mut rng));
        net
    }

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
            &[4, 2],
        )
        .unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn forward_shapes_flow() {
        let mut net = xor_net(3);
        let y = net.forward(&Tensor::zeros(&[5, 2])).unwrap();
        assert_eq!(y.shape(), &[5, 2]);
    }

    #[test]
    fn learns_xor() {
        let mut net = xor_net(1);
        let (x, labels) = xor_data();
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            last = net.train_batch(&x, &labels, &loss, &mut opt).unwrap();
        }
        assert!(last < 0.05, "final loss {last}");
        assert_eq!(net.accuracy(&x, &labels).unwrap(), 1.0);
    }

    #[test]
    fn training_reduces_loss_monotonically_in_aggregate() {
        let mut net = xor_net(2);
        let (x, labels) = xor_data();
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::with_momentum(0.05, 0.9);
        let first = net.train_batch(&x, &labels, &loss, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..100 {
            last = net.train_batch(&x, &labels, &loss, &mut opt).unwrap();
        }
        assert!(last < first, "loss did not decrease: {first} → {last}");
    }

    #[test]
    fn predict_and_accuracy() {
        let mut net = xor_net(4);
        let (x, labels) = xor_data();
        let preds = net.predict(&x).unwrap();
        assert_eq!(preds.len(), 4);
        let acc = net.accuracy(&x, &labels).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(net.accuracy(&x, &[0]).is_err());
    }

    #[test]
    fn forward_batch_with_matches_plain_forward() {
        let mut net = xor_net(10);
        let (x, _) = xor_data();
        let rows: Vec<Tensor> = (0..4).map(|r| Tensor::from_slice(x.row(r))).collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        let expected = net.forward(&x).unwrap();

        let mut scratch = Scratch::new();
        let warm = net.forward_batch_with(&refs, &mut scratch).unwrap();
        assert_eq!(warm.shape(), expected.shape());
        assert_eq!(warm.as_slice(), expected.as_slice());
        scratch.recycle(warm);

        // Steady state: buffers come back from the pool, results identical.
        let again = net.forward_batch_with(&refs, &mut scratch).unwrap();
        assert_eq!(again.as_slice(), expected.as_slice());
        assert!(scratch.pooled() > 0, "intermediates were not recycled");

        assert!(net
            .forward_batch_with(&[], &mut scratch)
            .is_err());
    }

    #[test]
    fn param_counts_aggregate() {
        let net = xor_net(5);
        // 2·16+16 + 16·2+2 = 48 + 34 = 82.
        assert_eq!(net.param_count(), 82);
        assert_eq!(net.logical_param_count(), 82);
        assert_eq!(net.compression_ratio(), 1.0);
    }

    #[test]
    fn parameters_enumerates_all() {
        let mut net = xor_net(6);
        assert_eq!(net.parameters().len(), 4); // 2 dense layers × (w, b)
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Network::new();
        assert!(net.is_empty());
        let x = Tensor::from_slice(&[1.0, 2.0]).reshape(&[1, 2]).unwrap();
        let y = net.forward(&x).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
        assert_eq!(net.compression_ratio(), 1.0);
    }

    #[test]
    fn debug_lists_layers() {
        let net = xor_net(7);
        let s = format!("{net:?}");
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
    }

    #[test]
    fn instrumented_forward_records_per_layer_spans() {
        let mut net = xor_net(9);
        let counts = || {
            let snap = ffdl_telemetry::global().snapshot();
            (
                snap.histogram("ffdl.nn.layer_forward_ns.dense")
                    .map(|h| h.count())
                    .unwrap_or(0),
                snap.histogram("ffdl.nn.layer_forward_ns.relu")
                    .map(|h| h.count())
                    .unwrap_or(0),
                snap.histogram("ffdl.nn.forward_ns")
                    .map(|h| h.count())
                    .unwrap_or(0),
            )
        };
        let (d0, r0, f0) = counts();
        ffdl_telemetry::set_enabled(true);
        let y = net.forward(&Tensor::zeros(&[3, 2])).unwrap();
        ffdl_telemetry::set_enabled(false);
        assert_eq!(y.shape(), &[3, 2]); // instrumented path computes the same
        let (d1, r1, f1) = counts();
        // Global counters are monotone; concurrent tests only add.
        assert!(d1 >= d0 + 2, "dense spans {d0} -> {d1}");
        assert!(r1 > r0, "relu spans {r0} -> {r1}");
        assert!(f1 > f0, "forward spans {f0} -> {f1}");
    }

    #[test]
    fn op_cost_aggregates_after_forward() {
        let mut net = xor_net(8);
        let _ = net.forward(&Tensor::zeros(&[1, 2])).unwrap();
        let c = net.op_cost();
        assert_eq!(c.mults, (2 * 16 + 16 * 2) as u64);
        assert!(c.nonlin >= 16);
    }
}
