//! Declarative benchmark orchestration: describe a benchmark
//! ([`BenchmarkSpec`]), run it ([`run_benchmark`]), and get back a
//! [`BenchmarkReport`] with raw records, rendered tables, and the §6
//! rating scale — the programmatic equivalent of the paper's full pipeline
//! (Fig. 2).
//!
//! ```
//! use mcpb_bench::spec::{BenchmarkSpec, Problem, run_benchmark};
//! use mcpb_bench::registry::McpMethodKind;
//!
//! let mut spec = BenchmarkSpec::quick_mcp(&["Damascus"], &[3]);
//! spec.mcp_methods = vec![McpMethodKind::LazyGreedy];
//! let report = run_benchmark(&spec);
//! assert!(!report.records.is_empty());
//! ```

use crate::experiments::{curves, overview, ExpConfig};
use crate::rating::RatingRow;
use crate::registry::{ImMethodKind, McpMethodKind, Scale};
use crate::results::Table;
use crate::sweep::{run_im_sweep, run_mcp_sweep, SweepRecord};
use mcpb_graph::catalog;
use mcpb_graph::weights::WeightModel;
use serde::{Deserialize, Serialize};

/// Which problem the benchmark targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Problem {
    /// Maximum Coverage Problem.
    Mcp,
    /// Influence Maximization under IC.
    Im,
}

/// A declarative benchmark description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Target problem.
    pub problem: Problem,
    /// Catalog dataset names to evaluate on.
    pub datasets: Vec<String>,
    /// Budgets to sweep.
    pub budgets: Vec<usize>,
    /// MCP methods (used when `problem == Mcp`).
    pub mcp_methods: Vec<McpMethodKind>,
    /// IM methods (used when `problem == Im`).
    pub im_methods: Vec<ImMethodKind>,
    /// Edge-weight models (IM only).
    pub weight_models: Vec<WeightModel>,
    /// Compute scale.
    pub scale: Scale,
    /// RR sets for the common IM scorer.
    pub scorer_rr_sets: usize,
    /// RNG seed.
    pub seed: u64,
}

impl BenchmarkSpec {
    /// A quick MCP benchmark over the named datasets.
    pub fn quick_mcp(datasets: &[&str], budgets: &[usize]) -> Self {
        Self {
            problem: Problem::Mcp,
            datasets: datasets.iter().map(|s| s.to_string()).collect(),
            budgets: budgets.to_vec(),
            mcp_methods: McpMethodKind::benchmark_set(),
            im_methods: Vec::new(),
            weight_models: Vec::new(),
            scale: Scale::Quick,
            scorer_rr_sets: 2_000,
            seed: 42,
        }
    }

    /// A quick IM benchmark over the named datasets and weight models.
    pub fn quick_im(datasets: &[&str], budgets: &[usize], models: &[WeightModel]) -> Self {
        Self {
            problem: Problem::Im,
            datasets: datasets.iter().map(|s| s.to_string()).collect(),
            budgets: budgets.to_vec(),
            mcp_methods: Vec::new(),
            im_methods: ImMethodKind::benchmark_set(),
            weight_models: models.to_vec(),
            scale: Scale::Quick,
            scorer_rr_sets: 2_000,
            seed: 42,
        }
    }
}

/// The output of [`run_benchmark`].
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// Raw per-query records.
    pub records: Vec<SweepRecord>,
    /// Quality table (objective per method per query).
    pub quality_table: Table,
    /// Runtime table.
    pub runtime_table: Table,
    /// Rating-scale rows (§6).
    pub rating: Vec<RatingRow>,
}

impl BenchmarkReport {
    /// Serializes the raw records as JSON.
    // audit:allow(MCPB017) tests/end_to_end.rs parses the records JSON
    pub fn records_json(&self) -> String {
        serde_json::to_string_pretty(&self.records).expect("invariant: in-memory records serialize")
    }
}

/// Runs a benchmark end to end: prepares (trains) every requested method,
/// answers all queries, scores them with the common scorer, and renders
/// tables.
pub fn run_benchmark(spec: &BenchmarkSpec) -> BenchmarkReport {
    let cfg = ExpConfig {
        scale: spec.scale,
        seed: spec.seed,
    };
    let datasets: Vec<_> = spec
        .datasets
        .iter()
        .filter_map(|n| catalog::by_name(n))
        .map(|d| cfg.scaled(d))
        .collect();
    assert!(
        !datasets.is_empty(),
        "no catalog datasets matched {:?}",
        spec.datasets
    );

    let records = match spec.problem {
        Problem::Mcp => {
            let train = cfg.mcp_train_graph();
            run_mcp_sweep(
                &spec.mcp_methods,
                &datasets,
                &spec.budgets,
                &train,
                spec.scale,
                spec.seed,
            )
        }
        Problem::Im => {
            let train = cfg.im_train_graph();
            run_im_sweep(
                &spec.im_methods,
                &datasets,
                &spec.weight_models,
                &spec.budgets,
                &train,
                spec.scorer_rr_sets,
                spec.scale,
                spec.seed,
            )
        }
    };

    let (qid, rid) = match spec.problem {
        Problem::Mcp => ("MCP quality", "MCP runtime"),
        Problem::Im => ("IM influence", "IM runtime"),
    };
    let quality_table = curves::render_quality("Benchmark", qid, &records);
    let runtime_table = curves::render_runtime("Benchmark", rid, &records);
    let rating = overview::rating_from_records(&records);

    BenchmarkReport {
        records,
        quality_table,
        runtime_table,
        rating,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mcp_benchmark_end_to_end() {
        let mut spec = BenchmarkSpec::quick_mcp(&["Damascus"], &[3, 6]);
        spec.mcp_methods = vec![McpMethodKind::LazyGreedy, McpMethodKind::TopDegree];
        let report = run_benchmark(&spec);
        assert_eq!(report.records.len(), 4);
        assert!(!report.rating.is_empty());
        assert!(report.quality_table.render().contains("LazyGreedy"));
        assert!(report.records_json().contains("Damascus"));
    }

    #[test]
    fn quick_im_benchmark_end_to_end() {
        let mut spec = BenchmarkSpec::quick_im(&["Damascus"], &[3], &[WeightModel::Constant]);
        spec.im_methods = vec![ImMethodKind::DDiscount, ImMethodKind::Imm];
        let report = run_benchmark(&spec);
        assert_eq!(report.records.len(), 2);
        let imm = report
            .records
            .iter()
            .find(|r| r.method == "IMM")
            .expect("IMM record");
        assert!(imm.absolute >= 3.0);
    }

    #[test]
    #[should_panic(expected = "no catalog datasets")]
    fn unknown_dataset_panics() {
        let spec = BenchmarkSpec::quick_mcp(&["NoSuchGraph"], &[3]);
        run_benchmark(&spec);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = BenchmarkSpec::quick_im(&["Youtube"], &[5], &[WeightModel::TriValency]);
        let json = serde_json::to_string(&spec).unwrap();
        let back: BenchmarkSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.datasets, spec.datasets);
        assert_eq!(back.problem, Problem::Im);
    }
}
