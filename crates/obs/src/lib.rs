//! # mcpb-obs: trace analysis, run diffing, and regression attribution
//!
//! Turns recorded telemetry into answers. Three producer formats —
//! `MCPB_TRACE` JSONL streams, `mcpb-resilience` sweep journals, and
//! `BENCH_*.json` (mcpb-perf/1) records — ingest into one unified
//! [`RunModel`]: a span tree with self-time and peak-heap attribution,
//! counters, histogram summaries, and per-cell outcomes. On top of the
//! model sit:
//!
//! - [`render_report`] — per-run profile (`mcpbench obs report`);
//! - [`diff_runs`] / [`render_diff`] — span-path-aligned regression
//!   attribution (`mcpbench obs diff`, and the `bench-ratchet.sh` failure
//!   diagnostic);
//! - [`render_chrome`] — Chrome trace-event JSON (`mcpbench obs chrome`);
//! - [`render_flame`] / [`parse_flame`] — folded-stack flamegraph text
//!   (`mcpbench obs flame`).
//!
//! The crate only *reads* telemetry; it never starts spans or counters
//! itself, so linking it cannot perturb the runs it analyzes.

pub mod chrome;
pub mod diff;
pub mod flame;
pub mod model;
pub mod report;

pub use chrome::{render_chrome, validate_chrome};
pub use diff::{diff_runs, render_diff, DiffRow, RunDiff, DEFAULT_NOISE, MIN_DELTA_NANOS};
pub use flame::{parse_flame, render_flame};
pub use model::{CellRow, HistRow, ObsError, RunKind, RunModel, SpanAgg};
pub use report::{render_report, DEFAULT_TOP_K};
