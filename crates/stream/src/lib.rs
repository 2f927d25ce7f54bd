//! # ffdl-stream — stateful streaming serving with sticky sessions
//!
//! The paper's embedded targets are streaming devices: audio frames and
//! sensor windows arrive as *sequences*, and the E-RNN line of work
//! (PAPERS.md) extends block-circulant compression to recurrent
//! networks. This crate serves those networks statefully:
//!
//! * **Block-circulant recurrence** — models containing
//!   [`ffdl_core::CirculantGru`] layers (six FFT-based circulant
//!   matrix–vector products per step) publish, load and hot-swap
//!   through `ffdl-registry` like any other model.
//! * **Sessions** — [`StreamServer::open_session`] /
//!   [`step`](StreamServer::step) / [`close_session`](StreamServer::close_session).
//!   Per-session hidden state is carried across requests inside one
//!   worker thread (sticky hash routing), so state never crosses a
//!   thread boundary and needs no lock.
//! * **Determinism** — the worker hot path and the test-side reference
//!   share one code path ([`StreamEngine::step`]): a session stepped
//!   one token per request is **bit-identical** to a single-threaded
//!   [`replay`](StreamServer::replay) of the same tokens, regardless of
//!   worker count or interleaving with other sessions.
//! * **Fault containment** — deadline shedding, step supervision and
//!   NaN screening from the worker core shared with the stateless pools
//!   ([`ffdl_serve::supervise`]), extended with **session quarantine**:
//!   a fault inside one session poisons only that session's state;
//!   neighbours stay bit-exact. Generation health and auto-rollback are
//!   the shared model slot's.
//! * **Reset-on-swap** — a hot-swap mid-stream deterministically resets
//!   each session's hidden state to zeros at its next step (DESIGN.md
//!   §15 discusses the drain-vs-reset trade-off).
//!
//! # Examples
//!
//! ```
//! use ffdl_deploy::parse_architecture;
//! use ffdl_stream::{StreamConfig, StreamServer};
//! use ffdl_tensor::Tensor;
//!
//! let net = parse_architecture("input 8\ncirculant_gru 16 block=4\nfc 4\nsoftmax\n", 7)?
//!     .network;
//! let server = StreamServer::start(&net, &StreamConfig::default())?;
//! server.open_session(42).unwrap();
//! for step in 0..4u64 {
//!     let token = Tensor::from_fn(&[8], |i| ((step as usize * 8 + i) as f32 * 0.1).sin());
//!     server.step(42, step, token).unwrap();
//! }
//! server.close_session(42).unwrap();
//! let report = server.finish()?;
//! assert_eq!(report.steps, 4);
//! assert_eq!(report.serve.responses.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod server;

pub use engine::{SessionHidden, StreamEngine};
pub use server::{
    stream_bench_json, StreamConfig, StreamError, StreamReport, StreamServer,
};
