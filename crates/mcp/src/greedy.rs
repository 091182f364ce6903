//! The greedy MCP solvers of §3.3 / Appendix A: Normal Greedy and Lazy
//! Greedy (CELF).
//!
//! Both return a `(1 - 1/e)`-approximate solution; Lazy Greedy exploits
//! submodularity to re-evaluate only stale top candidates, which is the
//! efficiency edge the paper shows dominating every Deep-RL method.

use crate::coverage::CoverageOracle;
use crate::solver::{McpSolution, McpSolver};
use mcpb_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Normal Greedy: each round scans every remaining node and picks the one
/// with the largest marginal coverage gain.
#[derive(Debug, Default, Clone)]
pub struct NormalGreedy;

impl NormalGreedy {
    /// Runs the greedy selection directly, without the trait object.
    pub fn run(graph: &Graph, k: usize) -> McpSolution {
        let _span = mcpb_trace::span("mcp.normal_greedy");
        let n = graph.num_nodes();
        let mut oracle = CoverageOracle::new(graph);
        let mut selected = vec![false; n];
        for _ in 0..k.min(n) {
            let mut best: Option<(usize, NodeId)> = None;
            for v in 0..n as NodeId {
                if selected[v as usize] {
                    continue;
                }
                let gain = oracle.marginal_gain(v);
                // Ties break toward the smaller id, matching Lazy Greedy's
                // heap ordering so both variants return identical covers.
                if best.is_none_or(|(bg, bv)| gain > bg || (gain == bg && v < bv)) {
                    best = Some((gain, v));
                }
            }
            let Some((gain, v)) = best else { break };
            if gain == 0 && oracle.covered_count() == n {
                break; // everything already covered
            }
            selected[v as usize] = true;
            oracle.add_seed(v);
        }
        let seeds = oracle.seeds().to_vec();
        McpSolution {
            covered: oracle.covered_count(),
            coverage: oracle.coverage(),
            seeds,
        }
    }
}

impl McpSolver for NormalGreedy {
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        Self::run(graph, k)
    }
}

/// Lazy Greedy / CELF (Leskovec et al. 2007, Alg. 1 of the paper's
/// appendix): keeps a max-heap of upper-bound gains and only recomputes the
/// top entry when it is stale.
#[derive(Debug, Default, Clone)]
pub struct LazyGreedy;

/// Heap entry: (gain upper bound, Reverse(node)) so ties prefer smaller ids.
type HeapEntry = (usize, Reverse<NodeId>, u32);

impl LazyGreedy {
    /// Runs CELF selection directly.
    pub fn run(graph: &Graph, k: usize) -> McpSolution {
        let _span = mcpb_trace::span("mcp.lazy_greedy");
        let n = graph.num_nodes();
        let mut oracle = CoverageOracle::new(graph);
        // (cached gain, node, round the gain was computed in). Initial
        // entries carry the degree+1 *upper bound* (valid by
        // submodularity even with parallel edges) and are marked stale so
        // the first pop recomputes the exact gain.
        const STALE: u32 = u32::MAX;
        let mut heap: BinaryHeap<HeapEntry> = (0..n as NodeId)
            .map(|v| (graph.out_degree(v) + 1, Reverse(v), STALE))
            .collect();
        let mut round = 0u32;

        while oracle.seeds().len() < k.min(n) {
            let Some((gain, Reverse(v), computed_at)) = heap.pop() else {
                break;
            };
            if computed_at == round {
                // Fresh: by submodularity no other node can beat it.
                if gain == 0 && oracle.covered_count() == n {
                    break;
                }
                oracle.add_seed(v);
                round += 1;
            } else {
                // Stale: recompute and push back.
                let fresh = oracle.marginal_gain(v);
                heap.push((fresh, Reverse(v), round));
            }
        }
        let seeds = oracle.seeds().to_vec();
        McpSolution {
            covered: oracle.covered_count(),
            coverage: oracle.coverage(),
            seeds,
        }
    }
}

impl McpSolver for LazyGreedy {
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        Self::run(graph, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators::{barabasi_albert, erdos_renyi};
    use mcpb_graph::{Edge, GraphBuilder};

    #[test]
    fn greedy_picks_the_hub_first() {
        let mut b = GraphBuilder::new(8);
        for v in 1..6u32 {
            b.add_edge(0, v, 1.0);
        }
        b.add_edge(6, 7, 1.0);
        let g = b.build().unwrap();
        let sol = NormalGreedy::run(&g, 2);
        assert_eq!(sol.seeds[0], 0);
        assert_eq!(sol.seeds[1], 6);
        assert_eq!(sol.covered, 8);
    }

    #[test]
    fn lazy_matches_normal_on_random_graphs() {
        for seed in 0..5u64 {
            let g = barabasi_albert(150, 3, seed);
            for k in [1usize, 5, 20] {
                let a = NormalGreedy::run(&g, k);
                let b = LazyGreedy::run(&g, k);
                assert_eq!(
                    a.covered, b.covered,
                    "seed {seed} k {k}: normal {} vs lazy {}",
                    a.covered, b.covered
                );
            }
        }
    }

    #[test]
    fn lazy_matches_normal_seed_for_seed() {
        // With identical tie-breaking the seed sequences agree exactly.
        let g = erdos_renyi(80, 200, 4);
        let a = NormalGreedy::run(&g, 10);
        let b = LazyGreedy::run(&g, 10);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn respects_budget() {
        let g = barabasi_albert(50, 2, 1);
        let sol = LazyGreedy::run(&g, 7);
        assert_eq!(sol.seeds.len(), 7);
        let sol = LazyGreedy::run(&g, 500);
        assert!(sol.seeds.len() <= 50);
    }

    #[test]
    fn stops_early_when_fully_covered() {
        // Complete bipartite-ish: one node covers all.
        let mut b = GraphBuilder::new(5);
        for v in 1..5u32 {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build().unwrap();
        let sol = LazyGreedy::run(&g, 5);
        assert_eq!(sol.covered, 5);
        assert_eq!(sol.coverage, 1.0);
        assert_eq!(sol.seeds.len(), 1, "should stop once everything is covered");
    }

    #[test]
    fn approximation_bound_holds_vs_singletons() {
        // Greedy's first pick alone is optimal for k=1; sanity-check the
        // 1-1/e bound against the best singleton for k>=1.
        let g = barabasi_albert(120, 3, 8);
        let best_singleton = (0..120u32)
            .map(|v| crate::coverage::covered_count(&g, &[v]))
            .max()
            .unwrap();
        let sol = NormalGreedy::run(&g, 1);
        assert_eq!(sol.covered, best_singleton);
    }

    #[test]
    fn zero_budget_returns_empty() {
        let g = barabasi_albert(20, 2, 0);
        let sol = LazyGreedy::run(&g, 0);
        assert!(sol.seeds.is_empty());
        assert_eq!(sol.covered, 0);
    }

    #[test]
    fn trait_objects_work() {
        let g = Graph::from_edges(3, &[Edge::unweighted(0, 1)]).unwrap();
        let mut solvers: Vec<(&str, Box<dyn McpSolver>)> = vec![
            ("NormalGreedy", Box::new(NormalGreedy)),
            ("LazyGreedy", Box::new(LazyGreedy)),
        ];
        for (label, s) in solvers.iter_mut() {
            let sol = s.solve(&g, 1);
            assert_eq!(sol.seeds, vec![0], "{label}");
        }
    }
}
