//! `mcpb-serve`: a fault-tolerant online query service over the benchmark.
//!
//! The benchmark's batch sweeps answer "which method wins"; this crate
//! answers the *deployment* question the paper's motivation implies: can a
//! trained method stand behind a query endpoint and answer seed-set
//! requests reliably? The service preloads catalog graphs, trained
//! parameters, and RR-set sketches once ([`state::preload`]), shares them
//! immutably across workers, and answers JSONL queries with four typed
//! verdicts: `served`, `degraded`, `shed`, and `error`. Nothing a client
//! sends — malformed bytes, nesting bombs, oversized lines, unknown
//! solvers, overload bursts, injected panics — can take the server down or
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
//! * [`socket`] — the live front end: TCP / Unix-socket JSONL server with
//!   bounded channels, read deadlines, and graceful drain, answering each
//!   job through the engine's answer path.
//! * [`bench`](mod@bench) — the `mcpb-perf` area measuring query latency
//!   and shed overhead.

pub mod admission;
pub mod bench;
pub mod engine;
pub mod loadgen;
pub mod proto;
pub mod socket;
pub mod state;

pub use admission::{AdmissionConfig, AdmissionVerdict, LoadModel};
pub use engine::{replay, EngineOptions, EngineReport};
pub use loadgen::{generate_log, LoadGenConfig};
pub use proto::{parse_request, parse_request_bytes, ParseError, Request, Response, Verdict};
pub use socket::{serve_listener, ServerHandle, SocketConfig};
pub use state::{preload, PreloadError, ServeConfig, ServeState, SolverPool};
