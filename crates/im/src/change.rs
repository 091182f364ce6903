//! CHANGE (Wilder et al., AAMAS 2018) — the sampling baseline RL4IM is
//! compared against in Fig. 7a.
//!
//! CHANGE targets influence maximization in *unknown* networks: it may only
//! query a bounded number of nodes for their neighbor lists. Each queried
//! node reveals its ego network; CHANGE samples random nodes, queries one
//! random neighbor of each (friendship-paradox step), then runs a greedy
//! selection on the union of revealed ego networks.

use crate::solver::ImSolution;
use mcpb_graph::{Graph, NodeId};
use mcpb_mcp::greedy::LazyGreedy;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The CHANGE solver.
#[derive(Debug, Clone)]
pub struct Change {
    /// Number of node queries allowed (the RL4IM evaluation ties this to
    /// the seed budget: queries = budget multiplier * k).
    pub query_multiplier: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Change {
    /// CHANGE with the RL4IM evaluation's default of 5 queries per seed.
    pub fn new(seed: u64) -> Self {
        Self {
            query_multiplier: 5,
            seed,
        }
    }

    /// Runs CHANGE: sample, query, greedily select on the revealed subgraph.
    pub fn run(&self, graph: &Graph, k: usize) -> ImSolution {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return ImSolution::seeds_only(Vec::new());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let budget_queries = (self.query_multiplier * k).max(k).min(n);

        // Friendship-paradox sampling: pick a random node, then query a
        // random neighbor (neighbors are biased toward high degree).
        let mut queried: Vec<NodeId> = Vec::with_capacity(budget_queries);
        let mut is_queried = vec![false; n];
        let mut all: Vec<NodeId> = (0..n as NodeId).collect();
        all.shuffle(&mut rng);
        for &v in all.iter() {
            if queried.len() >= budget_queries {
                break;
            }
            let nbrs = graph.out_neighbors(v);
            let candidate = if nbrs.is_empty() {
                v
            } else {
                nbrs[rng.gen_range(0..nbrs.len())]
            };
            if !is_queried[candidate as usize] {
                is_queried[candidate as usize] = true;
                queried.push(candidate);
            }
        }

        // Revealed subgraph: queried nodes plus their full ego networks.
        let mut revealed: Vec<NodeId> = queried.clone();
        for &q in &queried {
            revealed.extend_from_slice(graph.out_neighbors(q));
            revealed.extend_from_slice(graph.in_neighbors(q));
        }
        revealed.sort_unstable();
        revealed.dedup();
        let (sub, order) = graph.induced_subgraph(&revealed);

        // Greedy coverage on the revealed subgraph approximates greedy
        // influence under the revealed topology.
        let local = LazyGreedy::run(&sub, k);
        let seeds: Vec<NodeId> = local.seeds.iter().map(|&l| order[l as usize]).collect();
        ImSolution::seeds_only(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn returns_at_most_k_distinct_seeds() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 2),
            WeightModel::Constant,
            0,
        );
        let sol = Change::new(1).run(&g, 5);
        assert!(sol.seeds.len() <= 5);
        let mut s = sol.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), sol.seeds.len());
    }

    #[test]
    fn beats_uniform_random_on_scale_free() {
        let g = assign_weights(
            &generators::barabasi_albert(300, 3, 4),
            WeightModel::WeightedCascade,
            0,
        );
        let change = Change::new(7).run(&g, 8);
        let change_spread = influence_mc(&g, &change.seeds, 3_000, 1);
        // Average several random baselines.
        let mut rnd_total = 0.0;
        for s in 0..5u64 {
            let sol = mcpb_mcp::baselines::RandomSeeds::run(&g, 8, s);
            rnd_total += influence_mc(&g, &sol.seeds, 3_000, 1);
        }
        let rnd_spread = rnd_total / 5.0;
        assert!(
            change_spread > rnd_spread,
            "change {change_spread} vs random {rnd_spread}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = assign_weights(
            &generators::barabasi_albert(80, 2, 6),
            WeightModel::Constant,
            0,
        );
        let a = Change::new(3).run(&g, 4);
        let b = Change::new(3).run(&g, 4);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(Change::new(0).run(&g, 2).seeds.is_empty());
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.2)]).unwrap();
        assert!(Change::new(0).run(&g, 0).seeds.is_empty());
    }
}
