//! `mcpb-serve`: a fault-tolerant query service over the benchmark,
//! measured by deterministic log replay.
//!
//! The benchmark's batch sweeps answer "which method wins"; this crate
//! answers the *deployment* question the paper's motivation implies: can a
//! trained method answer a stream of seed-set requests reliably, and at
//! what rate? The service preloads catalog graphs, trained parameters, and
//! RR-set sketches once ([`state::preload`]) and replays a JSONL request
//! log against them, answering every line with one of four typed
//! verdicts: `served`, `degraded`, `shed`, and `error`. Nothing a log line
//! carries — malformed bytes, nesting bombs, oversized lines, unknown
//! solvers, overload bursts, injected panics — can stop the replay or
//! leave a request unanswered.
//!
//! Layers, bottom to top:
//!
//! * [`proto`] — the wire protocol: request parsing that never panics,
//!   typed parse errors, canonical response bodies.
//! * [`state`] — preloaded `Arc`-shared immutable state plus the mutable
//!   solver pool (one lane per prepared solver).
//! * [`admission`] — the deterministic bounded-queue load model behind
//!   admit / degrade / shed decisions.
//! * [`engine`] — the one answer path (plan, then execute, with per-request
//!   fault isolation and cooperative deadlines) and the plan/execute/commit
//!   replay engine on top of it, with budget-ascending answer reuse and a
//!   bit-identical-response-journal determinism contract.
//! * [`loadgen`] — the seeded request-log generator for replay and chaos
//!   testing.
//! * [`bench`](mod@bench) — the `mcpb-perf` area measuring query latency
//!   and shed overhead.

pub mod admission;
pub mod bench;
pub mod engine;
pub mod loadgen;
pub mod proto;
pub mod state;

pub use admission::{AdmissionConfig, AdmissionVerdict, LoadModel};
pub use engine::{replay, EngineOptions, EngineReport};
pub use loadgen::{generate_log, LoadGenConfig};
pub use proto::{parse_request, parse_request_bytes, ParseError, Request, Response, Verdict};
pub use state::{preload, PreloadError, ServeConfig, ServeState, SolverPool};

/// Fault plans are process-global: unit tests that replay (and so arm
/// `serve.query`) take this lock, so no test consumes another's fault
/// occurrences.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}
