//! Trivial MCP baselines used to contextualize results: top-degree and
//! uniform-random seed selection.

use crate::solver::{McpSolution, McpSolver};
use mcpb_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Picks the `k` nodes with the highest out-degree.
#[derive(Debug, Default, Clone)]
pub struct TopDegree;

impl TopDegree {
    /// Runs top-degree selection directly.
    pub fn run(graph: &Graph, k: usize) -> McpSolution {
        let mut nodes: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
        nodes.truncate(k);
        McpSolution::evaluate(graph, nodes)
    }
}

impl McpSolver for TopDegree {
    fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        Self::run(graph, k)
    }
}

/// Picks `k` distinct nodes uniformly at random (seeded): the floor the
/// tests hold every learned and greedy method above.
#[derive(Debug, Clone)]
// audit:allow(MCPB017) test helper: tests/paper_claims.rs and the drl, im and agreement unit tests
pub struct RandomSeeds;

impl RandomSeeds {
    /// Runs random selection directly.
    pub fn run(graph: &Graph, k: usize, seed: u64) -> McpSolution {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nodes: Vec<NodeId> = (0..graph.num_nodes() as NodeId).collect();
        nodes.shuffle(&mut rng);
        nodes.truncate(k);
        McpSolution::evaluate(graph, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::LazyGreedy;
    use mcpb_graph::generators::barabasi_albert;
    use mcpb_graph::GraphBuilder;

    #[test]
    fn top_degree_finds_hub() {
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_edge(0, v, 1.0);
        }
        let g = b.build().unwrap();
        let sol = TopDegree::run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
        assert_eq!(sol.covered, 6);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = barabasi_albert(40, 2, 2);
        let a = RandomSeeds::run(&g, 5, 11);
        let b = RandomSeeds::run(&g, 5, 11);
        assert_eq!(a.seeds, b.seeds);
        let c = RandomSeeds::run(&g, 5, 12);
        assert_ne!(a.seeds, c.seeds);
    }

    #[test]
    fn random_returns_distinct_seeds() {
        let g = barabasi_albert(30, 2, 1);
        let sol = RandomSeeds::run(&g, 10, 3);
        let mut s = sol.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn greedy_dominates_baselines() {
        let g = barabasi_albert(200, 3, 7);
        let k = 10;
        let greedy = LazyGreedy::run(&g, k);
        let deg = TopDegree::run(&g, k);
        let rnd = RandomSeeds::run(&g, k, 5);
        assert!(greedy.covered >= deg.covered);
        assert!(greedy.covered >= rnd.covered);
    }
}
