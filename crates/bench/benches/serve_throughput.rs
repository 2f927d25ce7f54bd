//! Serving-throughput bench: closed-loop load against the `ffdl-serve`
//! runtime on the paper's Arch. 1 circulant network, sweeping worker
//! count and batch ceiling. Writes `BENCH_serve.json` at the workspace
//! root (unit: requests/sec — *not* the ns-per-call unit of the other
//! bench files).
//!
//! The interesting comparison is `w1_b1` (no batching: every request is
//! its own forward pass) against the batched configurations: a
//! coalesced batch pays the per-dispatch costs — queue wakeup,
//! generation check, output screening — once per batch instead of once
//! per request, and the batched forward streams all rows through one
//! scratch-buffer pass. (Weight spectra no longer matter here: they are
//! computed once and shared behind an `Arc`, so even `w1_b1` never
//! recomputes them.)
//!
//! Load is generated by several concurrent submitter threads (the pool
//! is `Sync`; submission is lock-cheap), so a single submitter's
//! request rate never caps the sweep and the worker axis measures the
//! pool, not the load generator.

use ffdl::paper;
use ffdl::tensor::Tensor;
use ffdl_bench::harness::out_dir;
use ffdl_serve::{ServeConfig, ServeError, ServeReport, Server};
use std::time::Duration;

const REQUESTS: usize = 1024;
const SUBMITTERS: usize = 4;

fn samples() -> Vec<Tensor> {
    (0..REQUESTS)
        .map(|s| Tensor::from_fn(&[256], |i| (((s * 256 + i) * 7) % 23) as f32 * 0.04))
        .collect()
}

fn run(label: &str, workers: usize, max_batch: usize, samples: &[Tensor]) -> ServeReport {
    let config = ServeConfig {
        workers,
        max_batch,
        max_wait: Duration::from_micros(500),
        queue_depth: 256,
        ..Default::default()
    };
    let network = paper::arch1(3);
    let server = Server::start(&network, &config).expect("start pool");
    let chunk = samples.len().div_ceil(SUBMITTERS);
    std::thread::scope(|scope| {
        for (t, slice) in samples.chunks(chunk).enumerate() {
            let server = &server;
            scope.spawn(move || {
                for (j, sample) in slice.iter().enumerate() {
                    let id = (t * chunk + j) as u64;
                    loop {
                        match server.try_submit(id, sample.clone()) {
                            Ok(()) => break,
                            Err(ServeError::QueueFull { .. }) => std::thread::yield_now(),
                            Err(e) => panic!("submit failed in {label}: {e}"),
                        }
                    }
                }
            });
        }
    });
    let report = server.finish().expect("serve run");
    assert_eq!(report.requests, samples.len(), "requests dropped in {label}");
    eprintln!(
        "serve/{label:<8} {:>10.0} req/s   p50 {:>8.1} µs   p99 {:>8.1} µs   mean batch {:>5.2}",
        report.throughput_rps, report.p50_us, report.p99_us, report.mean_batch,
    );
    report
}

fn main() {
    let samples = samples();
    // Warm-up pass so the first measured config doesn't also pay
    // first-touch costs (page faults, lazy init).
    let _ = run("warmup", 1, 16, &samples[..128.min(samples.len())]);

    let configs: &[(&str, usize, usize)] = &[
        ("w1_b1", 1, 1),
        ("w1_b16", 1, 16),
        ("w2_b16", 2, 16),
        ("w4_b16", 4, 16),
    ];
    let reports: Vec<(String, ServeReport)> = configs
        .iter()
        .map(|&(label, workers, batch)| (label.to_string(), run(label, workers, batch, &samples)))
        .collect();

    let baseline = reports[0].1.throughput_rps;
    let best_batched = reports[1..]
        .iter()
        .map(|(_, r)| r.throughput_rps)
        .fold(0.0f64, f64::max);
    eprintln!(
        "serve/speedup  batched-vs-unbatched {:.2}x (baseline {baseline:.0} req/s)",
        best_batched / baseline.max(1.0),
    );

    let rows: Vec<(String, &ServeReport)> = reports
        .iter()
        .map(|(label, r)| (label.clone(), r))
        .collect();
    let path = out_dir().join("BENCH_serve.json");
    std::fs::write(&path, ffdl_serve::bench_json(&rows)).expect("write BENCH_serve.json");
    eprintln!("wrote {}", path.display());
}
