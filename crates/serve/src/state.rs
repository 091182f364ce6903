//! Preloaded, `Arc`-shared immutable serving state.
//!
//! A query service answers in milliseconds only if everything expensive is
//! paid once, up front: catalog graphs are materialized, IM edge weights
//! assigned, RR-set sketches sampled, and Deep-RL solvers trained (their
//! `ParamStore` weights live inside the prepared solver) at startup. The
//! result splits into two parts with different sharing rules:
//!
//! * [`ServeState`] — graphs, scorers, sketches, method tables. Immutable
//!   after preload, shared across every worker thread via `Arc`.
//! * [`SolverPool`] — the prepared solver instances. `solve` takes
//!   `&mut self` (stateful Deep-RL inference, CELF's internal RNG), so each
//!   solver is owned by exactly one lane at a time, mirroring the sweep
//!   driver's lane discipline.

use std::sync::Arc;

use mcpb_bench::{prepare_im, prepare_mcp, ImMethodKind, McpMethodKind, Scale};
use mcpb_bench::{ImScorer, McpScorer};
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{catalog, Graph};
use mcpb_im::rrset::{sample_collection, RrCollection};

use crate::proto::QueryTask;

/// What to preload. Defaults serve the two small catalog datasets with the
/// traditional solver set — enough to exercise every code path in seconds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Catalog dataset names to preload.
    pub datasets: Vec<String>,
    /// MCP methods to prepare.
    pub mcp_solvers: Vec<McpMethodKind>,
    /// IM methods to prepare.
    pub im_solvers: Vec<ImMethodKind>,
    /// RR-set sketch size per dataset.
    pub rr_sets: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            datasets: vec!["Damascus".to_string(), "Israel".to_string()],
            mcp_solvers: vec![
                McpMethodKind::LazyGreedy,
                McpMethodKind::NormalGreedy,
                McpMethodKind::TopDegree,
            ],
            im_solvers: vec![
                ImMethodKind::CelfRis,
                ImMethodKind::DDiscount,
                ImMethodKind::SDiscount,
            ],
            rr_sets: 2_000,
        }
    }
}

/// Edge-weight model for IM graphs.
const WEIGHT_MODEL: WeightModel = WeightModel::WeightedCascade;
/// Training scale for Deep-RL methods.
const SCALE: Scale = Scale::Quick;
/// Base seed for weights, sketches, and solver preparation.
const SEED: u64 = 42;

/// Everything preloaded for one dataset.
pub struct DatasetState {
    /// Catalog name.
    pub name: String,
    /// Unweighted graph, queried by MCP solvers.
    pub mcp_graph: Graph,
    /// Probability-weighted graph, queried by IM solvers.
    pub im_graph: Graph,
    /// Preloaded RR-set sketch over `im_graph`: the cached approximate
    /// answer source for degraded IM responses.
    pub sketch: RrCollection,
    /// Common IM scorer (its own RR sample, per the benchmark protocol).
    pub im_scorer: ImScorer,
}

/// Immutable serving state, shared across lanes and connections.
pub struct ServeState {
    /// FNV-1a hash of the preload configuration; stamped into every
    /// response journal header so replays against the wrong state diff
    /// loudly instead of silently.
    pub config_hash: u64,
    /// Base seed of the preload.
    pub seed: u64,
    /// Preloaded datasets, in configuration order.
    pub datasets: Vec<DatasetState>,
    /// MCP methods available, in lane order.
    pub mcp_kinds: Vec<McpMethodKind>,
    /// IM methods available, in lane order.
    pub im_kinds: Vec<ImMethodKind>,
    /// Common MCP scorer (stateless).
    pub mcp_scorer: McpScorer,
}

impl ServeState {
    /// Index of `name` in the preloaded dataset table.
    pub fn dataset_index(&self, name: &str) -> Option<usize> {
        self.datasets.iter().position(|d| d.name == name)
    }

    /// Lane index for a solver name, per task. MCP lanes come first, then
    /// IM lanes, matching [`SolverPool`] order.
    pub fn lane_of(&self, task: QueryTask, solver: &str) -> Option<usize> {
        match task {
            QueryTask::Mcp => self.mcp_kinds.iter().position(|k| k.name() == solver),
            QueryTask::Im => self
                .im_kinds
                .iter()
                .position(|k| k.name() == solver)
                .map(|i| self.mcp_kinds.len() + i),
        }
    }

    /// Total number of solver lanes.
    pub fn num_lanes(&self) -> usize {
        self.mcp_kinds.len() + self.im_kinds.len()
    }
}

/// The prepared solver instances, one lane each: MCP solvers first, then
/// IM solvers, in [`ServeState`] kind order.
pub struct SolverPool {
    /// Prepared MCP solvers.
    pub mcp: Vec<mcpb_bench::PreparedMcpSolver>,
    /// Prepared IM solvers.
    pub im: Vec<mcpb_bench::PreparedImSolver>,
}

/// Hash of the preload configuration (datasets, methods, weight model,
/// sketch size, seed) — the journal-header identity of this state.
pub fn config_hash(cfg: &ServeConfig) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    parts.extend(cfg.datasets.iter().cloned());
    parts.extend(cfg.mcp_solvers.iter().map(|k| k.name().to_string()));
    parts.extend(cfg.im_solvers.iter().map(|k| k.name().to_string()));
    parts.push(format!("{WEIGHT_MODEL:?}"));
    parts.push(format!("rr={}", cfg.rr_sets));
    parts.push(format!("seed={SEED}"));
    // Each part ends in a 0x1f unit separator, so ["ab", "c"] and
    // ["a", "bc"] hash apart.
    let mut bytes = Vec::new();
    for part in &parts {
        bytes.extend_from_slice(part.as_bytes());
        bytes.push(0x1f);
    }
    mcpb_resilience::fnv1a64(&bytes)
}

/// Errors surfaced while preloading state.
#[derive(Debug, Clone, PartialEq)]
pub enum PreloadError {
    /// A configured dataset name is not in the catalog.
    UnknownDataset(String),
    /// The configuration preloads nothing.
    EmptyConfig(&'static str),
}

impl std::fmt::Display for PreloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreloadError::UnknownDataset(name) => {
                write!(f, "unknown catalog dataset `{name}`")
            }
            PreloadError::EmptyConfig(what) => write!(f, "serve config has no {what}"),
        }
    }
}

impl std::error::Error for PreloadError {}

/// Preloads everything: graphs, weights, sketches, scorers, and prepared
/// (trained where applicable) solvers. Deep-RL methods train on the first
/// configured dataset's graph. Returns the `Arc`-shared immutable state
/// and the mutable solver pool.
pub fn preload(cfg: &ServeConfig) -> Result<(Arc<ServeState>, SolverPool), PreloadError> {
    if cfg.datasets.is_empty() {
        return Err(PreloadError::EmptyConfig("datasets"));
    }
    if cfg.mcp_solvers.is_empty() && cfg.im_solvers.is_empty() {
        return Err(PreloadError::EmptyConfig("solvers"));
    }
    let _span = mcpb_trace::span("serve.preload");
    let mut datasets = Vec::with_capacity(cfg.datasets.len());
    for name in &cfg.datasets {
        let ds = catalog::require(name).map_err(|_| PreloadError::UnknownDataset(name.clone()))?;
        let mcp_graph = ds.load();
        let im_graph = assign_weights(&mcp_graph, WEIGHT_MODEL, SEED);
        let sketch = sample_collection(&im_graph, cfg.rr_sets, SEED ^ 0x5eed);
        let im_scorer = ImScorer::new(&im_graph, cfg.rr_sets, SEED ^ 0x5c03);
        datasets.push(DatasetState {
            name: name.clone(),
            mcp_graph,
            im_graph,
            sketch,
            im_scorer,
        });
    }
    let train_mcp = &datasets[0].mcp_graph;
    let train_im = &datasets[0].im_graph;
    let mcp = cfg
        .mcp_solvers
        .iter()
        .map(|&kind| prepare_mcp(kind, train_mcp, SCALE, SEED))
        .collect();
    let im = cfg
        .im_solvers
        .iter()
        .map(|&kind| prepare_im(kind, train_im, WEIGHT_MODEL, SCALE, SEED))
        .collect();
    let state = Arc::new(ServeState {
        config_hash: config_hash(cfg),
        seed: SEED,
        datasets,
        mcp_kinds: cfg.mcp_solvers.clone(),
        im_kinds: cfg.im_solvers.clone(),
        mcp_scorer: McpScorer,
    });
    Ok((state, SolverPool { mcp, im }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preload_builds_shared_state_and_lanes() {
        let cfg = ServeConfig {
            datasets: vec!["Damascus".to_string()],
            rr_sets: 200,
            ..ServeConfig::default()
        };
        let (state, pool) = preload(&cfg).expect("preload");
        assert_eq!(state.datasets.len(), 1);
        assert!(state.datasets[0].sketch.len() >= 200);
        assert_eq!(pool.mcp.len(), 3);
        assert_eq!(pool.im.len(), 3);
        assert_eq!(state.num_lanes(), 6);
        assert_eq!(state.lane_of(QueryTask::Mcp, "LazyGreedy"), Some(0));
        assert_eq!(state.lane_of(QueryTask::Im, "CELF-RIS"), Some(3));
        assert_eq!(state.lane_of(QueryTask::Im, "LazyGreedy"), None);
        assert_eq!(state.dataset_index("Damascus"), Some(0));
        assert_eq!(state.dataset_index("Orkut"), None);
    }

    #[test]
    fn unknown_dataset_is_typed() {
        let cfg = ServeConfig {
            datasets: vec!["NotADataset".to_string()],
            ..ServeConfig::default()
        };
        assert_eq!(
            preload(&cfg).err(),
            Some(PreloadError::UnknownDataset("NotADataset".to_string()))
        );
    }

    #[test]
    fn config_hash_tracks_configuration() {
        let a = ServeConfig::default();
        let mut b = ServeConfig::default();
        // Every serve journal header carries this value; it must not move.
        assert_eq!(config_hash(&a), 0x6844_8576_eda0_a43d);
        assert_eq!(config_hash(&a), config_hash(&b));
        b.rr_sets += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
    }
}
