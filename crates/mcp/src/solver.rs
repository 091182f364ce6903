//! The solver interface shared by every MCP method in the benchmark.

use mcpb_graph::{Graph, NodeId};

/// A solution to an MCP query: the chosen seeds plus the achieved coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct McpSolution {
    /// Selected seed nodes in selection order (`|seeds| <= k`).
    pub seeds: Vec<NodeId>,
    /// Nodes covered by the seeds (`|X_S|`).
    pub covered: usize,
    /// Normalized coverage `f(S) = covered / |V|`.
    pub coverage: f64,
}

impl McpSolution {
    /// Builds a solution by evaluating `seeds` on `graph`.
    pub fn evaluate(graph: &Graph, seeds: Vec<NodeId>) -> Self {
        let covered = crate::coverage::covered_count(graph, &seeds);
        let n = graph.num_nodes();
        McpSolution {
            seeds,
            covered,
            coverage: if n == 0 {
                0.0
            } else {
                covered as f64 / n as f64
            },
        }
    }
}

/// Every MCP solver in the benchmark implements this trait; the harness is
/// generic over it.
pub trait McpSolver {
    /// Selects up to `k` seeds on `graph`.
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::Edge;

    #[test]
    fn evaluate_computes_coverage() {
        let g = Graph::from_edges(4, &[Edge::unweighted(0, 1)]).unwrap();
        let sol = McpSolution::evaluate(&g, vec![0]);
        assert_eq!(sol.covered, 2);
        assert!((sol.coverage - 0.5).abs() < 1e-12);
        assert_eq!(sol.seeds, vec![0]);
    }

    #[test]
    fn evaluate_empty_seeds() {
        let g = Graph::from_edges(3, &[Edge::unweighted(0, 1)]).unwrap();
        let sol = McpSolution::evaluate(&g, vec![]);
        assert_eq!(sol.covered, 0);
        assert_eq!(sol.coverage, 0.0);
    }
}
