//! The common solution scorer of the benchmarking framework (Fig. 2):
//! every solver's seed set is re-scored with the *same* estimator so
//! reported quality is comparable — direct coverage `F(S)` for MCP,
//! RIS-based `F_R(S)` for IM.

use mcpb_graph::{Graph, NodeId};
use mcpb_im::rrset::{sample_collection, RrCollection};

/// Scores MCP solutions: exact coverage on the input graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct McpScorer;

impl McpScorer {
    /// Normalized coverage `f(S)` of `seeds`.
    pub fn score(&self, graph: &Graph, seeds: &[NodeId]) -> f64 {
        mcpb_mcp::coverage::coverage(graph, seeds)
    }

    /// Absolute covered-node count.
    pub fn score_absolute(&self, graph: &Graph, seeds: &[NodeId]) -> usize {
        mcpb_mcp::coverage::covered_count(graph, seeds)
    }
}

/// Scores IM solutions with a shared RR-set collection, sampled once per
/// graph so every method is judged by the identical estimator.
pub struct ImScorer {
    rr: RrCollection,
    n: usize,
}

impl ImScorer {
    /// Builds the scorer with `rr_sets` RR sets on `graph`.
    pub fn new(graph: &Graph, rr_sets: usize, seed: u64) -> Self {
        Self {
            rr: sample_collection(graph, rr_sets, seed),
            n: graph.num_nodes(),
        }
    }

    /// Estimated influence spread `I(S)` (absolute node count).
    pub fn spread(&self, seeds: &[NodeId]) -> f64 {
        self.rr.estimate_spread(seeds)
    }

    /// Spread normalized by `|V|`.
    pub fn normalized(&self, seeds: &[NodeId]) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.spread(seeds) / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};
    use mcpb_im::cascade::influence_mc;

    #[test]
    fn mcp_scorer_matches_coverage() {
        let g = Graph::from_edges(4, &[Edge::unweighted(0, 1), Edge::unweighted(0, 2)]).unwrap();
        let s = McpScorer;
        assert!((s.score(&g, &[0]) - 0.75).abs() < 1e-12);
        assert_eq!(s.score_absolute(&g, &[0]), 3);
    }

    #[test]
    fn im_scorer_tracks_mc_ground_truth() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 2),
            WeightModel::Constant,
            0,
        );
        let scorer = ImScorer::new(&g, 20_000, 5);
        let seeds = [0u32, 1, 2];
        let ris = scorer.spread(&seeds);
        let mc = influence_mc(&g, &seeds, 20_000, 7);
        let rel = (ris - mc).abs() / mc.max(1.0);
        assert!(rel < 0.08, "ris {ris} vs mc {mc}");
        assert!((scorer.normalized(&seeds) - ris / 100.0).abs() < 1e-12);
    }

    #[test]
    fn scorer_is_method_agnostic() {
        // Same seeds scored twice give identical numbers (shared estimator).
        let g = assign_weights(
            &generators::barabasi_albert(60, 2, 3),
            WeightModel::WeightedCascade,
            0,
        );
        let scorer = ImScorer::new(&g, 2_000, 9);
        assert_eq!(scorer.spread(&[3, 5]), scorer.spread(&[3, 5]));
    }
}
