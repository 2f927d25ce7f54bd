//! # ffdl-serve — batched multi-worker inference serving
//!
//! The paper deploys block-circulant networks on embedded devices where
//! inference requests arrive continuously (camera frames, audio windows).
//! This crate is the serving runtime for that setting, built only on
//! `std`:
//!
//! * a **bounded MPMC request queue** with reject-based admission control
//!   — when the queue is at its configured depth, submits fail with
//!   [`ServeError::QueueFull`] instead of growing an unbounded backlog,
//! * a **`std::thread` worker pool** where each worker owns a private
//!   clone of the network (no shared mutable model state, no hot-path
//!   lock on the weights),
//! * a **dynamic batcher** — a worker waits for the first request, then
//!   holds the batch open until it reaches `max_batch` or a `max_wait`
//!   deadline passes, and runs one coalesced forward pass
//!   ([`ffdl_deploy::InferenceEngine::predict_batch`]), paying the
//!   per-call costs (dispatch, per-layer calls, response bookkeeping)
//!   once per batch instead of once per request,
//! * a **stats collector** ([`ServeReport`]) producing throughput and
//!   p50/p95/p99 latency from the same percentile function
//!   ([`ffdl_telemetry::percentile`]) as the bench harness,
//! * a **fault-tolerance layer**: optional per-request deadlines
//!   ([`ServeConfig::deadline`] — expired requests are shed at dequeue
//!   as typed [`ServeError::DeadlineExceeded`] failures, and
//!   [`Server::submit`] converts overload into a bounded wait), a
//!   numerical-health supervisor ([`HealthConfig`] — NaN/Inf logits
//!   fail typed, and past a threshold the guilty generation is
//!   quarantined and auto-rolled-back to the last healthy one through
//!   `ffdl-registry`), and deterministic fault-injection hooks
//!   (`ffdl-fault`) at the worker batch, latency, and model-byte
//!   boundaries. Every admitted request ends in
//!   [`ServeReport::responses`] or [`ServeReport::failures`] — nothing
//!   is dropped silently.
//!
//! The parts of that list that are not dispatch — the hot-swappable
//! model slot, the supervised batch step, quarantine and rollback, the
//! per-worker ledger and the worker lifecycle — live in [`supervise`],
//! and the bounded queue with its wake protocol in [`queue`]: the
//! request path this crate shares with `ffdl-sched` and `ffdl-stream`.
//!
//! Served predictions are bit-identical to single-sample
//! [`ffdl_deploy::InferenceEngine::predict`] calls, and the report's
//! responses are ordered by request id — so results are deterministic
//! across worker counts and batch compositions.
//!
//! # Examples
//!
//! ```
//! use ffdl_deploy::parse_architecture;
//! use ffdl_serve::{run_closed_loop, ServeConfig};
//! use ffdl_tensor::Tensor;
//!
//! let net = parse_architecture("input 8\ncirculant_fc 8 block=4\nrelu\nfc 2\nsoftmax\n", 7)?
//!     .network;
//! let samples: Vec<Tensor> = (0..10)
//!     .map(|s| Tensor::from_fn(&[8], |i| ((s * 8 + i) as f32 * 0.1).sin()))
//!     .collect();
//! let config = ServeConfig { workers: 2, max_batch: 4, ..Default::default() };
//! let report = run_closed_loop(&net, &config, &samples)?;
//! assert_eq!(report.requests, 10);
//! assert!(report.throughput_rps > 0.0);
//! # Ok::<(), ffdl_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod pool;
pub mod queue;
mod stats;
pub mod supervise;

pub use error::ServeError;
pub use pool::{
    run_closed_loop, FailureKind, HealthConfig, ServeConfig, ServeFailure, ServeResponse, Server,
};
pub use stats::{bench_json, RunCounts, ServeReport, TenantStat};
