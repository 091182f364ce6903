//! The solver interface shared by every IM method in the benchmark.

use mcpb_graph::{Graph, NodeId};

/// A solution to an IM query.
#[derive(Debug, Clone, PartialEq)]
pub struct ImSolution {
    /// Selected seed nodes in selection order.
    pub seeds: Vec<NodeId>,
    /// The solver's own estimate of the influence spread (may be 0 for
    /// heuristics that do not estimate spread; the benchmark re-scores all
    /// solutions with a common RIS scorer).
    pub spread_estimate: f64,
}

impl ImSolution {
    /// A solution carrying only seeds.
    pub fn seeds_only(seeds: Vec<NodeId>) -> Self {
        Self {
            seeds,
            spread_estimate: 0.0,
        }
    }
}

/// Every IM solver in the benchmark implements this trait.
pub trait ImSolver {
    /// Selects up to `k` seeds on the probability-weighted `graph`.
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_only_has_zero_estimate() {
        let s = ImSolution::seeds_only(vec![1, 2]);
        assert_eq!(s.spread_estimate, 0.0);
        assert_eq!(s.seeds, vec![1, 2]);
    }
}
