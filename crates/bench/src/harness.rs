//! In-house benchmark harness — the hermetic replacement for Criterion.
//!
//! Design: each benchmark row (a labelled closure, optionally with a
//! problem-size annotation) is calibrated so one *sample* runs long
//! enough to be timeable (~≥ [`TARGET_SAMPLE_NS`]), warmed up, then
//! measured for a fixed number of samples. We report the **median** and
//! **p95** per-call time in nanoseconds — the median is robust to
//! scheduler noise and is the number the perf trajectory tracks across
//! PRs; p95 captures tail behaviour (allocation spikes, cache misses).
//!
//! Results are printed as a table and written to `BENCH_<name>.json`
//! at the workspace root, so successive PRs accumulate a comparable
//! perf history (`BENCH_inference.json`, `BENCH_fft_scaling.json`, …).
//!
//! Environment knobs:
//!
//! - `FFDL_BENCH_SAMPLES`: samples per row (default 30).
//! - `FFDL_BENCH_TARGET_MS`: target wall time per sample in ms
//!   (default 5; calibration picks the inner iteration count from it).
//! - `FFDL_BENCH_OUT_DIR`: where to write `BENCH_<name>.json`
//!   (default: the root of the workspace cargo runs the bench in; see
//!   [`out_dir`]).

use ffdl::telemetry::percentile;
use std::ffi::OsString;
use std::path::PathBuf;
use std::time::Instant;

pub use std::hint::black_box;

/// Target wall time per sample, in nanoseconds (see module docs).
pub const TARGET_SAMPLE_NS: u64 = 5_000_000;

/// Default number of timed samples per row.
pub const DEFAULT_SAMPLES: usize = 30;

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Row label, e.g. `"fft/1024"`.
    pub label: String,
    /// Optional problem size (FFT length, matrix dim, block size, …).
    pub size: Option<u64>,
    /// Inner iterations per sample chosen by calibration.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Median per-call time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-call time in nanoseconds.
    pub p95_ns: f64,
    /// Mean per-call time in nanoseconds.
    pub mean_ns: f64,
    /// Minimum per-call time in nanoseconds.
    pub min_ns: f64,
}

/// A named set of benchmark rows, written out as `BENCH_<name>.json`.
pub struct BenchSet {
    name: String,
    samples_per_row: usize,
    target_sample_ns: u64,
    rows: Vec<Measurement>,
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| s.parse().ok())
}

impl BenchSet {
    /// Creates a bench set; `name` becomes the `BENCH_<name>.json` stem.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            samples_per_row: env_u64("FFDL_BENCH_SAMPLES")
                .map(|v| (v as usize).max(5))
                .unwrap_or(DEFAULT_SAMPLES),
            target_sample_ns: env_u64("FFDL_BENCH_TARGET_MS")
                .map(|ms| ms.saturating_mul(1_000_000).max(100_000))
                .unwrap_or(TARGET_SAMPLE_NS),
            rows: Vec::new(),
        }
    }

    /// Times `f` under `label` with no size annotation.
    pub fn bench<F: FnMut()>(&mut self, label: &str, f: F) {
        self.bench_sized(label, None, f)
    }

    /// Times `f` under `label`, annotated with a problem size (plotted
    /// on the x-axis by scaling figures).
    pub fn bench_with_size<F: FnMut()>(&mut self, label: &str, size: u64, f: F) {
        self.bench_sized(label, Some(size), f)
    }

    fn bench_sized<F: FnMut()>(&mut self, label: &str, size: Option<u64>, mut f: F) {
        // Calibration: time single calls until we know roughly how long
        // one takes, then choose the inner count to hit the sample target.
        let mut est_ns: u64 = 0;
        let mut calib_calls: u64 = 0;
        let calib_start = Instant::now();
        while est_ns < self.target_sample_ns / 5 && calib_calls < 1_000 {
            f();
            calib_calls += 1;
            est_ns = calib_start.elapsed().as_nanos() as u64;
        }
        let per_call = (est_ns / calib_calls.max(1)).max(1);
        let iters = (self.target_sample_ns / per_call).clamp(1, 10_000_000);

        // Warmup: one full sample's worth (calibration already ran f).
        for _ in 0..iters {
            f();
        }

        let mut per_call_ns: Vec<f64> = Vec::with_capacity(self.samples_per_row);
        for _ in 0..self.samples_per_row {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            per_call_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_call_ns.sort_by(|a, b| a.total_cmp(b));

        let m = Measurement {
            label: label.to_string(),
            size,
            iters_per_sample: iters,
            samples: per_call_ns.len(),
            median_ns: percentile(&per_call_ns, 50.0),
            p95_ns: percentile(&per_call_ns, 95.0),
            mean_ns: per_call_ns.iter().sum::<f64>() / per_call_ns.len() as f64,
            min_ns: per_call_ns[0],
        };
        eprintln!(
            "{:<40} median {:>12}  p95 {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.name, m.label),
            fmt_ns(m.median_ns),
            fmt_ns(m.p95_ns),
            m.samples,
            m.iters_per_sample,
        );
        self.rows.push(m);
    }

    /// The measurements taken so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.rows
    }

    /// Writes `BENCH_<name>.json` and prints the summary table.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the JSON file.
    pub fn finish(&self) -> std::io::Result<PathBuf> {
        let path = out_dir().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        eprintln!("wrote {}", path.display());
        Ok(path)
    }

    /// Renders the result set as a stable, diff-friendly JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"unit\": \"ns_per_call\",\n");
        out.push_str("  \"results\": [\n");
        for (i, m) in self.rows.iter().enumerate() {
            let size = match m.size {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"size\": {}, \"median_ns\": {:.1}, \
                 \"p95_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
                escape(&m.label),
                size,
                m.median_ns,
                m.p95_ns,
                m.mean_ns,
                m.min_ns,
                m.samples,
                m.iters_per_sample,
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Where every bench writes its `BENCH_<name>.json`: `FFDL_BENCH_OUT_DIR`
/// when set, else the root of the workspace being benched.
pub fn out_dir() -> PathBuf {
    let dir = choose_out_dir(
        std::env::var_os("FFDL_BENCH_OUT_DIR"),
        std::env::var_os("CARGO_MANIFEST_DIR"),
    );
    dir.canonicalize().unwrap_or(dir)
}

/// The choice behind [`out_dir`], from the two variables' run-time values.
/// The workspace root is two levels above the manifest directory cargo
/// sets for `cargo bench` / `cargo run` / `cargo test`. Only without it
/// does the compile-time value count: a binary built in one checkout and
/// run from another (a copied `target/`, a shared `CARGO_TARGET_DIR`)
/// would otherwise write into the checkout it was built in.
fn choose_out_dir(out_dir: Option<OsString>, manifest_dir: Option<OsString>) -> PathBuf {
    match out_dir {
        Some(dir) => PathBuf::from(dir),
        None => manifest_dir
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
            .join("../.."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(percentile(&v, 95.0), 4.8);
    }

    #[test]
    fn bench_produces_sane_measurements() {
        let mut set = BenchSet::new("harness_selftest");
        set.samples_per_row = 5;
        set.target_sample_ns = 50_000; // keep the self-test fast
        let mut acc = 0u64;
        set.bench_with_size("spin", 64, || {
            for i in 0..64u64 {
                acc = acc.wrapping_add(black_box(i * i));
            }
        });
        let m = &set.measurements()[0];
        assert_eq!(m.label, "spin");
        assert_eq!(m.size, Some(64));
        assert!(m.median_ns > 0.0);
        assert!(m.p95_ns >= m.median_ns);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.iters_per_sample >= 1);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut set = BenchSet::new("json_test");
        set.samples_per_row = 5;
        set.target_sample_ns = 20_000;
        set.bench("row_a", || {
            black_box(1 + 1);
        });
        set.bench_with_size("row_b", 128, || {
            black_box(2 + 2);
        });
        let j = set.to_json();
        assert!(j.contains("\"bench\": \"json_test\""));
        assert!(j.contains("\"label\": \"row_a\""));
        assert!(j.contains("\"size\": 128"));
        assert!(j.contains("\"size\": null"));
        assert!(j.ends_with("]\n}\n"));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn workspace_root_contains_workspace_manifest() {
        let root = choose_out_dir(None, std::env::var_os("CARGO_MANIFEST_DIR"));
        assert!(root.join("Cargo.toml").exists(), "{root:?}");
        assert!(
            root.join("crates/bench/src/harness.rs").exists(),
            "{root:?}"
        );
    }

    #[test]
    fn out_dir_prefers_the_override_then_the_run_time_manifest() {
        let pick = |out: Option<&str>, manifest: Option<&str>| {
            choose_out_dir(out.map(OsString::from), manifest.map(OsString::from))
        };
        assert_eq!(
            pick(Some("/tmp/out"), Some("/copy/crates/bench")),
            Path::new("/tmp/out")
        );
        assert_eq!(
            pick(None, Some("/copy/crates/bench")),
            Path::new("/copy/crates/bench/../..")
        );
        assert_eq!(
            pick(None, None),
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
        );
    }
}
