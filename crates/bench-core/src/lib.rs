//! # mcpb-bench
//!
//! The benchmarking framework of Fig. 2: solver registry, common solution
//! scorers, wall-clock + peak-memory instrumentation, the §6 rating scale,
//! one experiment driver per table and figure of the paper, and the
//! declarative [`spec`] entry point over the sweeps.
//!
//! ```
//! use mcpb_bench::experiments::{datasets, ExpConfig};
//!
//! let rows = datasets::tab1_datasets(&ExpConfig::quick());
//! assert!(!rows.is_empty());
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod experiments;
pub mod instrument;
pub mod perf;
pub mod rating;
pub mod registry;
pub mod results;
pub mod scorer;
pub mod spec;
pub mod sweep;

pub use agreement::{jaccard, pairwise_agreements, summarize, Agreement, SolverAnswer};
pub use experiments::ExpConfig;
pub use instrument::{run_measured, run_measured_guarded, Measurement};
pub use rating::{format_rating_table, rating_scale, Observation, RatingRow};
pub use registry::{
    prepare_im, prepare_mcp, ImMethodKind, McpMethodKind, PreparedImSolver, PreparedMcpSolver,
    Scale,
};
pub use results::{failure_table, Table};
pub use scorer::{ImScorer, McpScorer};
pub use spec::{run_benchmark, BenchmarkReport, BenchmarkSpec, Problem};
pub use sweep::{
    run_im_sweep, run_im_sweep_resilient, run_mcp_sweep, run_mcp_sweep_resilient, CellFailure,
    SweepOptions, SweepOutcome, SweepRecord,
};
