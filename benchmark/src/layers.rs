//! The outside-in layer walk of the traced run: every stage a forward
//! pass is made of is called from here through the crates' public
//! functions, under spans of the benchmark's own recorder.
//!
//! For each spectral FC layer the walk collects the input rows and
//! re-executes Algorithm 1 (FFT → multiply-accumulate → IFFT → bias) on
//! them from the layer's public weights and `SpectralKernel`, checks the
//! result against the layer's own `forward_infer` on the same rows bit
//! for bit, and compares the stage times with that call's span
//! (`core.decomp_residual`).

use crate::trace::{Recorder, Total};
use ffdl::core::{QuantizedSpectralDense, SpectralDense, SpectralKernel, Spectrum};
use ffdl::deploy::InferenceEngine;
use ffdl::fft::Complex32;
use ffdl::nn::{Layer, Network, Scratch};
use ffdl::tensor::Tensor;
use std::collections::BTreeMap;

/// Per-layer metric values by `BENCHMARK.json` name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Rows whose input spectra are transformed together before the next
/// stage runs, so one clock read per stage is shared by the group; the
/// group's spectra stay within this many bytes (L1-resident, as inside
/// the layer, where a row's spectra are consumed at once).
const GROUP_SPECTRA_BYTES: usize = 16 * 1024;

/// Rows collected across operations before their spectral layers are
/// re-executed, so single-image operations share stage clock reads too.
const REDO_ROWS: usize = 16;

/// The input of one offline operation.
#[derive(Debug, Clone)]
pub enum OpInput {
    /// One `[1, d…]` tensor for `InferenceEngine::predict`.
    Single(Tensor),
    /// Per-sample tensors for `InferenceEngine::predict_batch`.
    Batch(Vec<Tensor>),
}

impl OpInput {
    pub fn rows(&self) -> usize {
        match self {
            OpInput::Single(_) => 1,
            OpInput::Batch(samples) => samples.len(),
        }
    }

    pub fn tensors(&self) -> &[Tensor] {
        match self {
            OpInput::Single(t) => std::slice::from_ref(t),
            OpInput::Batch(samples) => samples,
        }
    }
}

/// The weights of a spectral FC layer, as its public accessors give them.
enum Weights<'a> {
    F32(&'a [Vec<Spectrum>]),
    Levels {
        levels: &'a [i16],
        scales: &'a [f32],
    },
}

struct SpectralView<'a> {
    in_dim: usize,
    out_dim: usize,
    block: usize,
    weights: Weights<'a>,
    bias: &'a [f32],
}

fn spectral_view(layer: &dyn Layer) -> Option<SpectralView<'_>> {
    let any = layer.as_any()?;
    if let Some(sd) = any.downcast_ref::<SpectralDense>() {
        return Some(SpectralView {
            in_dim: sd.in_dim(),
            out_dim: sd.out_dim(),
            block: sd.block(),
            weights: Weights::F32(sd.spectra()),
            bias: sd.bias().as_slice(),
        });
    }
    let q = any.downcast_ref::<QuantizedSpectralDense>()?;
    Some(SpectralView {
        in_dim: q.in_dim(),
        out_dim: q.out_dim(),
        block: q.block(),
        weights: Weights::Levels {
            levels: q.levels(),
            scales: q.scales(),
        },
        bias: q.bias().as_slice(),
    })
}

/// Work counts of the Algorithm 1 re-executions, by what was timed.
#[derive(Debug, Default, Clone, Copy)]
struct StageCounts {
    /// Forward transforms run, and their total ns.
    rfft: (u64, u64),
    irfft: (u64, u64),
    /// Complex bins multiplied-accumulated, and the total ns.
    mac_f32: (u64, u64),
    mac_levels: (u64, u64),
}

/// Algorithm 1 from public parts, with reusable buffers.
#[derive(Default)]
struct Alg1 {
    fft: Vec<Complex32>,
    padded: Vec<f32>,
    x_spec: Vec<Spectrum>,
    acc: Vec<Spectrum>,
    y: Vec<Vec<f32>>,
    /// Kernel and stage totals per block size.
    blocks: BTreeMap<usize, (SpectralKernel, StageCounts)>,
}

impl Alg1 {
    /// `y = x · W + bias` for every row of `x` (`[rows, in_dim]`),
    /// recording one span per stage and row group under the innermost
    /// open span. Returns `y` and the ns the four stages took.
    fn run(
        &mut self,
        view: &SpectralView<'_>,
        x: &Tensor,
        rec: &mut Recorder,
        op: u64,
    ) -> (Vec<f32>, u64) {
        let b = view.block;
        let (kernel, counts) = self
            .blocks
            .entry(b)
            .or_insert_with(|| (SpectralKernel::new(b), StageCounts::default()));
        let bins = kernel.bins();
        let kb_in = view.in_dim.div_ceil(b);
        let kb_out = view.out_dim.div_ceil(b);
        let rows = x.rows();
        let group =
            (GROUP_SPECTRA_BYTES / (kb_in * bins * std::mem::size_of::<Complex32>())).max(1);
        self.padded.clear();
        self.padded.resize(kb_in * b, 0.0);
        self.x_spec.resize(group * kb_in, Spectrum::new());
        self.acc.resize(group * kb_out, Spectrum::new());
        self.y.resize(group * kb_out, Vec::new());
        let mut out = vec![0.0f32; rows * view.out_dim];
        let mut stages_ns = 0;
        for first in (0..rows).step_by(group) {
            let n = group.min(rows - first);
            let t0 = rec.clock_ns();
            for r in 0..n {
                self.padded[..view.in_dim].copy_from_slice(x.row(first + r));
                for j in 0..kb_in {
                    kernel.spectrum_into(
                        &self.padded[j * b..(j + 1) * b],
                        &mut self.fft,
                        &mut self.x_spec[r * kb_in + j],
                    );
                }
            }
            let t1 = rec.clock_ns();
            for r in 0..n {
                let x_spec = &self.x_spec[r * kb_in..(r + 1) * kb_in];
                for i in 0..kb_out {
                    let acc = &mut self.acc[r * kb_out + i];
                    acc.clear();
                    acc.resize(bins, Complex32::zero());
                    match view.weights {
                        Weights::F32(spectra) => {
                            for (w, x_j) in spectra[i].iter().zip(x_spec) {
                                SpectralKernel::mul_accumulate(acc, w, x_j);
                            }
                        }
                        Weights::Levels { levels, .. } => {
                            for (j, x_j) in x_spec.iter().enumerate() {
                                let base = (i * kb_in + j) * 2 * bins;
                                SpectralKernel::mul_accumulate_levels(
                                    acc,
                                    &levels[base..base + 2 * bins],
                                    x_j,
                                );
                            }
                        }
                    }
                }
            }
            let t2 = rec.clock_ns();
            for k in 0..n * kb_out {
                kernel.inverse_into(&self.acc[k], &mut self.fft, &mut self.y[k]);
            }
            let t3 = rec.clock_ns();
            for r in 0..n {
                let dst = &mut out[(first + r) * view.out_dim..(first + r + 1) * view.out_dim];
                for i in 0..kb_out {
                    let start = i * b;
                    let end = ((i + 1) * b).min(view.out_dim);
                    let y = &self.y[r * kb_out + i];
                    for k in 0..end.saturating_sub(start) {
                        dst[start + k] = match view.weights {
                            Weights::F32(_) => y[k] + view.bias[start + k],
                            Weights::Levels { scales, .. } => {
                                y[k] * scales[i] + view.bias[start + k]
                            }
                        };
                    }
                }
            }
            let t4 = rec.clock_ns();
            rec.add("fft.forward", op, t0, t1);
            rec.add("core.mac", op, t1, t2);
            rec.add("fft.inverse", op, t2, t3);
            rec.add("core.bias", op, t3, t4);
            stages_ns += t4 - t0;
            let n = n as u64;
            counts.rfft.0 += n * kb_in as u64;
            counts.rfft.1 += t1 - t0;
            counts.irfft.0 += n * kb_out as u64;
            counts.irfft.1 += t3 - t2;
            let mac = match view.weights {
                Weights::F32(_) => &mut counts.mac_f32,
                Weights::Levels { .. } => &mut counts.mac_levels,
            };
            mac.0 += n * (kb_in * kb_out * bins) as u64;
            mac.1 += t2 - t1;
        }
        (out, stages_ns)
    }
}

/// Span name of one layer's `forward_infer` call, by layer type.
fn layer_span(tag: &str) -> &'static str {
    match tag {
        "dense" => "nn.dense",
        "conv2d" => "nn.conv2d",
        "relu" | "sigmoid" | "tanh" | "softmax" => "nn.activation",
        "spectral_dense" | "quantized_spectral_dense" => "core.spectral_fc",
        "circulant_dense" => "core.circulant_dense",
        "circulant_conv2d" => "core.conv",
        "circulant_gru" => "core.gru",
        _ => "nn.other",
    }
}

/// Work per row that follows from the layer shapes alone.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ShapeCounts {
    pub transforms: u64,
    pub macs: u64,
    pub weight_bytes: u64,
}

/// Transforms, complex multiply-accumulates and weight bytes one row
/// costs in the spectral FC layers of `net` (computed, not measured).
pub fn shape_counts(net: &Network) -> ShapeCounts {
    let mut c = ShapeCounts::default();
    for layer in net.layers() {
        if let Some(v) = spectral_view(layer.as_ref()) {
            let bins = (v.block / 2 + 1) as u64;
            let kb_in = v.in_dim.div_ceil(v.block) as u64;
            let kb_out = v.out_dim.div_ceil(v.block) as u64;
            c.transforms += kb_in + kb_out;
            c.macs += kb_in * kb_out * bins;
            let bytes_per_bin = match v.weights {
                Weights::F32(_) => std::mem::size_of::<Complex32>(),
                Weights::Levels { .. } => 2 * std::mem::size_of::<i16>(),
            } as u64;
            c.weight_bytes += kb_in * kb_out * bins * bytes_per_bin;
        }
    }
    c
}

/// What the walk found besides timings.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalkOutcome {
    /// Rows whose Algorithm 1 re-execution differed from the layer.
    pub mismatched_rows: u64,
    pub rows_checked: u64,
}

/// Walks `inputs` through `engine`'s network three ways per operation —
/// the engine call, the network's forward call, and layer by layer —
/// then re-executes Algorithm 1 for every spectral FC layer, and turns
/// the recorded spans into per-layer metrics.
pub fn walk_inference(
    engine: &mut InferenceEngine,
    inputs: &[OpInput],
    rec: &mut Recorder,
    out: &mut LayerMetrics,
) -> WalkOutcome {
    let before = rec.totals();
    let mut scratch = Scratch::new();
    let mut alg1 = Alg1::default();
    let mut outcome = WalkOutcome::default();
    // Input rows of each spectral layer, by layer index, waiting for
    // their re-execution.
    let mut pending: BTreeMap<usize, Vec<f32>> = BTreeMap::new();
    let mut pending_rows = 0usize;
    // Per re-execution: time of the four stages over time of the layer.
    let mut stage_over_layer: Vec<f64> = Vec::new();
    for (k, input) in inputs.iter().enumerate() {
        let op = k as u64;
        let refs: Vec<&Tensor> = input.tensors().iter().collect();
        match input {
            OpInput::Single(x) => {
                rec.span("deploy.predict", op, || engine.predict(x))
                    .expect("walk predict");
                rec.span("nn.forward", op, || engine.network_mut().forward(x))
                    .expect("walk forward");
            }
            OpInput::Batch(_) => {
                rec.span("deploy.predict", op, || engine.predict_batch(&refs))
                    .expect("walk predict");
                let y = rec
                    .span("nn.forward", op, || {
                        engine.network_mut().forward_batch_with(&refs, &mut scratch)
                    })
                    .expect("walk forward");
                scratch.recycle(y);
            }
        }
        let walk = rec.begin("nn.walk", op);
        let mut x = match input {
            OpInput::Single(x) => x.clone(),
            OpInput::Batch(_) => rec
                .span("tensor.stack", op, || Tensor::stack(&refs))
                .expect("stack"),
        };
        for (index, layer) in engine.network_mut().layers_mut().iter_mut().enumerate() {
            let name = layer_span(layer.type_tag());
            let y = rec
                .span(name, op, || layer.forward_infer(&x, &mut scratch))
                .expect("walk layer");
            if name == "core.spectral_fc" {
                pending
                    .entry(index)
                    .or_default()
                    .extend_from_slice(x.as_slice());
            }
            scratch.recycle(std::mem::replace(&mut x, y));
        }
        scratch.recycle(x);
        rec.end(walk);
        pending_rows += input.rows();
        if pending_rows < REDO_ROWS && k + 1 < inputs.len() {
            continue;
        }
        // The layer and Algorithm 1 from its public parts, on the same
        // rows: outputs must agree bit for bit, times are compared.
        let redo = rec.begin("core.alg1", op);
        for (index, xs) in std::mem::take(&mut pending) {
            let in_dim = xs.len() / pending_rows;
            let x_in = Tensor::from_vec(xs, &[pending_rows, in_dim]).expect("collected rows");
            let layer = &mut engine.network_mut().layers_mut()[index];
            // The layer once untimed, so that neither timed pass is the
            // one that pulls the weights into the cache.
            let y_layer = layer
                .forward_infer(&x_in, &mut scratch)
                .expect("walk layer");
            let view = spectral_view(layer.as_ref()).expect("spectral layer");
            let (y, stages_ns) = alg1.run(&view, &x_in, rec, op);
            outcome.rows_checked += pending_rows as u64;
            outcome.mismatched_rows += y
                .chunks_exact(view.out_dim)
                .zip(y_layer.as_slice().chunks_exact(view.out_dim))
                .filter(|(a, b)| a.iter().zip(*b).any(|(p, q)| p.to_bits() != q.to_bits()))
                .count() as u64;
            scratch.recycle(y_layer);
            let layer_begin = rec.clock_ns();
            let again = layer
                .forward_infer(&x_in, &mut scratch)
                .expect("walk layer");
            let layer_end = rec.clock_ns();
            rec.add("core.spectral_fc.rows", op, layer_begin, layer_end);
            stage_over_layer.push(stages_ns as f64 / (layer_end - layer_begin).max(1) as f64);
            scratch.recycle(again);
        }
        rec.end(redo);
        pending_rows = 0;
    }

    let after = rec.totals();
    let delta = |name: &str| -> Total {
        let a = after.get(name).copied().unwrap_or_default();
        let b = before.get(name).copied().unwrap_or_default();
        Total {
            count: a.count - b.count,
            total_ns: a.total_ns - b.total_ns,
            self_ns: a.self_ns - b.self_ns,
        }
    };
    let ops = inputs.len().max(1) as f64;
    let per_op_us = |name: &str| delta(name).total_ns as f64 / 1e3 / ops;
    let walk_ns = delta("nn.walk").total_ns.max(1) as f64;
    let fft_ns = (delta("fft.forward").total_ns + delta("fft.inverse").total_ns) as f64;
    let mac_ns = delta("core.mac").total_ns as f64;
    let bias_ns = delta("core.bias").total_ns as f64;
    let predict_us = per_op_us("deploy.predict");
    let forward_us = per_op_us("nn.forward");
    out.insert("nn.forward_us", forward_us);
    out.insert("deploy.predict_overhead_us", predict_us - forward_us);
    out.insert("nn.dense_us", per_op_us("nn.dense"));
    out.insert("nn.conv2d_us", per_op_us("nn.conv2d"));
    out.insert("nn.activation_us", per_op_us("nn.activation"));
    out.insert("core.conv_us", per_op_us("core.conv"));
    out.insert("tensor.stack_us", per_op_us("tensor.stack"));
    if outcome.rows_checked > 0 {
        out.insert("fft.time_share", fft_ns / walk_ns);
        out.insert("core.mac_time_share", mac_ns / walk_ns);
        out.insert("core.bias_time_share", bias_ns / walk_ns);
        // The median over the re-executions, so that a burst of host
        // interference in one pass does not read as an unexplained stage.
        out.insert(
            "core.decomp_residual",
            (crate::stats::median(&stage_over_layer) - 1.0).abs(),
        );
    }
    let per = |(n, ns): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    for (block, name_fwd, name_inv) in [
        (64, "fft.rfft_ns.b64", "fft.irfft_ns.b64"),
        (128, "fft.rfft_ns.b128", "fft.irfft_ns.b128"),
    ] {
        if let Some((_, c)) = alg1.blocks.get(&block) {
            out.insert(name_fwd, per(c.rfft));
            out.insert(name_inv, per(c.irfft));
        }
    }
    let sum = |f: fn(&StageCounts) -> (u64, u64)| {
        alg1.blocks
            .values()
            .map(|(_, c)| f(c))
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1))
    };
    out.insert("core.mac_ns_per_bin", per(sum(|c| c.mac_f32)));
    out.insert("core.mac_levels_ns_per_bin", per(sum(|c| c.mac_levels)));
    let shapes = shape_counts(engine.network());
    out.insert("fft.transforms_per_op", shapes.transforms as f64);
    out.insert("core.macs_per_op", shapes.macs as f64);
    out.insert("core.weight_bytes_per_op", shapes.weight_bytes as f64);
    outcome
}

/// Mean µs per request of `engine.predict_batch` over `samples` cut into
/// batches whose sizes follow `batch_sizes` (size → number of batches
/// seen by the pool): the model's share of a served request.
pub fn replay_model_us_per_request(
    engine: &mut InferenceEngine,
    samples: &[Tensor],
    batch_sizes: &BTreeMap<usize, u64>,
    budget_requests: u64,
) -> f64 {
    let total_requests: u64 = batch_sizes.iter().map(|(size, n)| *size as u64 * n).sum();
    if total_requests == 0 {
        return 0.0;
    }
    let mut ns = 0u128;
    let mut requests = 0u64;
    let mut cursor = 0usize;
    for (&size, &batches) in batch_sizes {
        // Replay each size in proportion to the requests it carried.
        let share = (size as u64 * batches) as f64 / total_requests as f64;
        let reps = ((share * budget_requests as f64 / size as f64).ceil() as u64).max(1);
        for _ in 0..reps {
            let refs: Vec<&Tensor> = (0..size)
                .map(|i| &samples[(cursor + i) % samples.len()])
                .collect();
            cursor += size;
            let start = std::time::Instant::now();
            std::hint::black_box(engine.predict_batch(&refs).expect("replay"));
            ns += start.elapsed().as_nanos();
            requests += size as u64;
        }
    }
    ns as f64 / 1e3 / requests as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl::paper;

    fn arch1_inputs(n: usize) -> Vec<OpInput> {
        (0..n)
            .map(|s| {
                OpInput::Single(Tensor::from_fn(&[1, 256], |i| {
                    ((s * 256 + i) as f32 * 0.37).sin()
                }))
            })
            .collect()
    }

    #[test]
    fn algorithm_1_from_public_parts_matches_the_layer_bit_for_bit() {
        let frozen = paper::freeze_spectral(&paper::arch1(3)).unwrap();
        let mut engine = InferenceEngine::new(frozen);
        let mut rec = Recorder::new();
        let mut out = LayerMetrics::new();
        let outcome = walk_inference(&mut engine, &arch1_inputs(40), &mut rec, &mut out);
        assert_eq!(outcome.rows_checked, 80, "two spectral layers per image");
        assert_eq!(outcome.mismatched_rows, 0);
        // Arch. 1: (4 + 2) + (2 + 2) transforms, (4·2 + 2·2)·33 bins.
        assert_eq!(out["fft.transforms_per_op"], 10.0);
        assert_eq!(out["core.macs_per_op"], 396.0);
        assert_eq!(out["core.weight_bytes_per_op"], 396.0 * 8.0);
        assert!(out["fft.rfft_ns.b64"] > 0.0 && out["core.mac_ns_per_bin"] > 0.0);
        assert!(!out.contains_key("fft.rfft_ns.b128"));
    }

    #[test]
    fn quantized_layers_re_execute_through_the_levels_kernel() {
        let frozen = paper::freeze_spectral(&paper::arch1(3)).unwrap();
        let int8 = ffdl_quant::quantize_network(&frozen, ffdl::core::QuantBits::Eight).unwrap();
        let mut engine = InferenceEngine::new(int8);
        let inputs: Vec<OpInput> = (0..4)
            .map(|b| {
                OpInput::Batch(
                    arch1_inputs(8)
                        .iter()
                        .map(|o| o.tensors()[0].reshape(&[256]).unwrap())
                        .skip(b)
                        .collect(),
                )
            })
            .collect();
        let mut rec = Recorder::new();
        let mut out = LayerMetrics::new();
        let outcome = walk_inference(&mut engine, &inputs, &mut rec, &mut out);
        assert_eq!(outcome.mismatched_rows, 0);
        assert!(outcome.rows_checked > 0);
        assert!(out["core.mac_levels_ns_per_bin"] > 0.0);
        assert_eq!(out["core.mac_ns_per_bin"], 0.0);
        assert_eq!(out["core.weight_bytes_per_op"], 396.0 * 4.0);
    }
}
