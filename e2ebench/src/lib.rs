//! End-to-end, layer-attributed benchmark of the MCPBench-RS workspace.
//!
//! Four workloads ([`workloads::Workload`]) each lean on different layers:
//! DRL training and inference, RR-set influence maximization, the query
//! service's per-request path, and the 1M-node tier. The benchmark calls
//! only the crates' public functions and times each call from outside
//! ([`record::Recorder::time`]); a traced pass folds the program's own
//! `mcpb-trace` spans into per-layer figures. See `README.md` beside this
//! crate for the metrics and what each should move.

pub mod check;
pub mod metrics;
pub mod record;
pub mod stats;
pub mod workloads;

/// Counts heap bytes and allocator calls for `peak_mb` and `alloc.calls.*`.
#[global_allocator]
static ALLOCATOR: mcpb_trace::alloc::TrackingAllocator = mcpb_trace::alloc::TrackingAllocator;
