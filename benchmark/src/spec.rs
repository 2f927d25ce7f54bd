//! Names, units, directions and bounds of every workload and metric —
//! the program's copy of `../BENCHMARK.json` (a unit test holds the two
//! equal).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Latency limit an operation must meet to count towards
    /// `slo_attainment`, µs, as measured (not scaled to the reference
    /// host). About three times the quiet median for a single caller,
    /// and 10 ms for a pool, whose requests wait out every interruption
    /// of its worker: an operation misses when the program stalls, not
    /// when the host takes one time slice away.
    pub slo_us: f64,
    /// What one unit of `throughput_per_s` is.
    pub unit_of_work: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "mnist_single",
        why: "Table II: frozen spectral Arch. 1 (256-128-128-10, block 64), one image per predict call; cache-resident and transform-bound, so serve/sched/stream do nothing.",
        slo_us: 50.0,
        unit_of_work: "images",
    },
    WorkloadSpec {
        name: "fc4096_batch",
        why: "The asymptotic regime: frozen 4096-4096-4096-10 block 64, batches of 32; multiply-accumulate and weight-spectra traffic outweigh the transforms, the opposite split to mnist_single.",
        slo_us: 25_000.0,
        unit_of_work: "rows",
    },
    WorkloadSpec {
        name: "fc4096_batch_int8",
        why: "The same model and inputs through quantize_network(Eight): the levels kernel; a quantization gain must show here and leave fc4096_batch alone.",
        slo_us: 25_000.0,
        unit_of_work: "rows",
    },
    WorkloadSpec {
        name: "cifar_single",
        why: "Table III: frozen Arch. 3, one 3x32x32 image per call; the only workload on the conv path (im2col/matmul, CirculantConv2d, a 1152x8-block FC).",
        slo_us: 40_000.0,
        unit_of_work: "images",
    },
    WorkloadSpec {
        name: "train_step",
        why: "Algorithm 2: Arch. 1 training form, train_batch on 32 images; weights change every step, so weight spectra are recomputed and the backward kernel runs.",
        slo_us: 1_000.0,
        unit_of_work: "steps",
    },
    WorkloadSpec {
        name: "serve_saturated",
        why: "What a kernel gain is worth once served: ffdl-serve on Arch. 1, closed loop with 64 requests in flight, max_batch 16; pool overhead is a direct loss.",
        slo_us: 10_000.0,
        unit_of_work: "requests",
    },
    WorkloadSpec {
        name: "sched_saturated",
        why: "What multi-tenancy costs: ffdl-sched, two tenants (weights 8:1) kept backlogged by closed loops (32 and 4 in flight) on a registry-loaded 1024-wide block-128 model; admission, WDRR, batching.",
        slo_us: 10_000.0,
        unit_of_work: "requests",
    },
    WorkloadSpec {
        name: "stream_sessions",
        why: "The stateful use of the kernel: ffdl-stream, CirculantGru 128->256 block 64, eight sticky sessions with two steps in flight each; guards routing and per-session bookkeeping.",
        slo_us: 10_000.0,
        unit_of_work: "steps",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics with the share of the parent's median each may
/// worsen by before it counts as a regression.
pub const END_TO_END: [(MetricSpec, f64); 9] = [
    (metric("setup_s", "s", Lower), 0.25),
    (metric("throughput_per_s", "1/s", Higher), 0.2),
    (metric("latency_us_p50", "us", Lower), 0.2),
    (metric("latency_us_p99", "us", Lower), 0.25),
    (metric("slo_attainment", "share", Higher), 0.02),
    (metric("verified_share", "share", Higher), 0.001),
    (metric("model_bytes", "B", Lower), 0.001),
    (metric("peak_rss_mib", "MiB", Lower), 0.25),
    (metric("quality_top1", "share", Higher), 0.03),
];

/// Per-layer metrics of the traced run; layers are crates. A metric a
/// workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [MetricSpec; 59] = [
    metric("fft.rfft_ns.b64", "ns", Lower),
    metric("fft.irfft_ns.b64", "ns", Lower),
    metric("fft.rfft_ns.b128", "ns", Lower),
    metric("fft.irfft_ns.b128", "ns", Lower),
    metric("fft.transforms_per_op", "count", Lower),
    metric("fft.time_share", "share", Lower),
    metric("fft.plan_cache_miss", "count", Lower),
    metric("core.mac_ns_per_bin", "ns", Lower),
    metric("core.mac_levels_ns_per_bin", "ns", Lower),
    metric("core.mac_time_share", "share", Lower),
    metric("core.bias_time_share", "share", Lower),
    metric("core.decomp_residual", "share", Lower),
    metric("core.macs_per_op", "count", Lower),
    metric("core.weight_bytes_per_op", "B", Lower),
    metric("core.conv_us", "us", Lower),
    metric("core.gru_step_us", "us", Lower),
    metric("core.backward_us", "us", Lower),
    metric("core.weight_spectra_us", "us", Lower),
    metric("nn.forward_us", "us", Lower),
    metric("nn.dense_us", "us", Lower),
    metric("nn.conv2d_us", "us", Lower),
    metric("nn.activation_us", "us", Lower),
    metric("nn.loss_us", "us", Lower),
    metric("nn.sgd_us", "us", Lower),
    metric("nn.dense_baseline_us", "us", Lower),
    metric("nn.circulant_over_dense", "ratio", Lower),
    metric("tensor.stack_us", "us", Lower),
    metric("deploy.predict_overhead_us", "us", Lower),
    metric("quant.quantize_ms", "ms", Lower),
    metric("quant.wire_bytes", "B", Lower),
    metric("quant.resident_bytes", "B", Lower),
    metric("quant.int8_over_f32", "ratio", Lower),
    metric("quant.top1_agreement", "share", Higher),
    metric("registry.publish_us", "us", Lower),
    metric("registry.load_us", "us", Lower),
    metric("serve.submit_ns", "ns", Lower),
    metric("serve.queue_wait_us_p50", "us", Lower),
    metric("serve.mean_batch", "count", Higher),
    metric("serve.model_us_per_req", "us", Lower),
    metric("serve.overhead_us_per_req", "us", Lower),
    metric("serve.window_stall_share", "share", Higher),
    metric("serve.queue_full_retries", "count", Lower),
    metric("sched.submit_ns", "ns", Lower),
    metric("sched.mean_batch", "count", Higher),
    metric("sched.model_us_per_req", "us", Lower),
    metric("sched.overhead_us_per_req", "us", Lower),
    metric("sched.latency_us_p50.heavy", "us", Lower),
    metric("sched.latency_us_p50.light", "us", Lower),
    metric("sched.share.heavy", "share", Higher),
    metric("sched.shed", "count", Lower),
    metric("sched.expired", "count", Lower),
    metric("stream.submit_ns", "ns", Lower),
    metric("stream.engine_step_us", "us", Lower),
    metric("stream.overhead_us_per_step", "us", Lower),
    metric("stream.busy_retries", "count", Lower),
    metric("stream.mean_batch", "count", Higher),
    metric("telemetry.traced_cost_share", "share", Lower),
    metric("telemetry.span_ns", "ns", Lower),
    metric("data.gen_ms", "ms", Lower),
];

/// The benchmark's command, as `BENCHMARK.json` declares it; the driver
/// appends `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[cfg(test)]
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// Directories that hold the benchmark and nothing else.
#[cfg(test)]
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 10;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_charset_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (m, bound) in &END_TO_END {
            assert!((0.0..=0.25).contains(bound), "{}: bound {bound}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
    }

    fn manifest() -> Value {
        let metric_obj = |m: &MetricSpec, bound: Option<f64>| {
            let mut pairs = vec![
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.as_str())),
            ];
            if let Some(b) = bound {
                pairs.push(("bound", Value::from(b)));
            }
            Value::obj(pairs)
        };
        let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::from(*s)).collect());
        Value::obj([
            ("command", strings(&COMMAND)),
            ("paths", strings(&PATHS)),
            ("run_seconds", Value::from(RUN_SECONDS)),
            (
                "workloads",
                Value::Arr(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            Value::obj([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Arr(
                    END_TO_END
                        .iter()
                        .map(|(m, b)| metric_obj(m, Some(*b)))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Arr(PER_LAYER.iter().map(|m| metric_obj(m, None)).collect()),
            ),
        ])
    }

    /// `BENCHMARK.json` is this table, key for key; on a mismatch the
    /// message carries the document the tables describe.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let expected = manifest();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let found = json::parse(&text).expect("valid JSON");
        assert!(
            found == expected,
            "BENCHMARK.json should read:\n{}",
            expected.render()
        );
    }
}
