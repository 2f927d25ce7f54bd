//! Streaming serving bench: sticky-session throughput of `ffdl-stream`
//! under a saturating multi-session workload. Writes
//! `BENCH_stream.json` at the workspace root (unit: steps/sec; each
//! request is one recurrent step, so `throughput_rps` *is* the step
//! rate, and the serve percentiles are per-step latencies — the
//! committed numbers the verify guard checks).
//!
//! Service time is pinned with `ffdl-sched`'s `delay` layer (400 µs per
//! step) in front of a real block-circulant GRU, for the same reason
//! the sched bench pins it: on a small (possibly single-core) host a
//! CPU-bound forward gains nothing from extra workers, which would
//! make the scaling rows an artifact of the machine. With a pinned
//! step, the rows measure what sticky routing actually provides —
//! *cross-session* parallelism: one session's steps are inherently
//! serial (state-carrying), so extra workers help exactly when
//! independent sessions hash to different workers.
//!
//! Rows (fixed seed, committed): `stream_w{1,2,4}` — the same
//! 16-session × 200-step workload against pinned worker counts.
//! `stream_w2` throughput must be monotone over `stream_w1` (guarded
//! in `scripts/verify.sh`).

use ffdl::core::CirculantGru;
use ffdl::nn::{Dense, Network, Softmax};
use ffdl::tensor::Tensor;
use ffdl_bench::harness::out_dir;
use ffdl_rng::{SeedableRng, SmallRng};
use ffdl_sched::{delay_registry, DelayLayer};
use ffdl_stream::{StreamConfig, StreamError, StreamReport, StreamServer};

const FEATURES: usize = 32;
const HIDDEN: usize = 32;
const CLASSES: usize = 8;
/// Pinned per-step service time: one worker answers ~2500 steps/s.
const DELAY_US: u64 = 400;
const SEED: u64 = 0x5EED_0009;
const SESSIONS: u64 = 16;
const STEPS: usize = 200;

/// delay → block-circulant GRU → dense → softmax: a stateful model with
/// a pinned service time.
fn model() -> Network {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut network = Network::new();
    network.push(DelayLayer::new(DELAY_US));
    network.push(CirculantGru::new(FEATURES, HIDDEN, 8, &mut rng).expect("gru dims"));
    network.push(Dense::new(HIDDEN, CLASSES, &mut rng));
    network.push(Softmax::new());
    network
}

fn token(session: u64, step: usize) -> Tensor {
    Tensor::from_fn(&[FEATURES], |i| {
        ((session as usize * 131 + step * 17 + i) as f32 * 0.083).sin()
    })
}

/// Runs the fixed workload against a pinned worker count: open all
/// sessions, submit steps interleaved (spinning out per-session and
/// queue backpressure), close, finish.
fn run(workers: usize) -> StreamReport {
    let config = StreamConfig {
        workers,
        queue_depth: 1024,
        ..Default::default()
    };
    let server =
        StreamServer::start_with_registry(&model(), &config, delay_registry()).expect("start");
    for session in 0..SESSIONS {
        server.open_session(session).expect("open");
    }
    for step in 0..STEPS {
        for session in 0..SESSIONS {
            let id = session * STEPS as u64 + step as u64;
            loop {
                match server.step(session, id, token(session, step)) {
                    Ok(()) => break,
                    Err(StreamError::QueueFull(_) | StreamError::SessionBusy { .. }) => {
                        std::thread::yield_now()
                    }
                    Err(e) => panic!("submit: {e}"),
                }
            }
        }
    }
    for session in 0..SESSIONS {
        server.close_session(session).expect("close");
    }
    let report = server.finish().expect("finish");
    assert_eq!(
        report.steps,
        SESSIONS * STEPS as u64,
        "workload lost steps at {workers} workers"
    );
    assert!(report.serve.failures.is_empty(), "unexpected failures");
    eprintln!(
        "stream/w{workers}  {:>9.0} steps/s   p50 {:>9.1} µs   p99 {:>9.1} µs",
        report.serve.throughput_rps, report.serve.p50_us, report.serve.p99_us,
    );
    report
}

fn main() {
    let mut rows: Vec<(String, StreamReport)> = Vec::new();
    for &workers in &[1usize, 2, 4] {
        rows.push((format!("stream_w{workers}"), run(workers)));
    }
    let borrowed: Vec<(String, &StreamReport)> =
        rows.iter().map(|(l, r)| (l.clone(), r)).collect();
    let out = ffdl_stream::stream_bench_json(&borrowed);
    let path = out_dir().join("BENCH_stream.json");
    std::fs::write(&path, out).expect("write BENCH_stream.json");
    eprintln!("wrote {}", path.display());
}
