//! Simulated-annealing influence maximization (Jiang et al., AAAI 2011 —
//! the paper's reference \[56\]): a local-search heuristic that swaps seeds
//! in and out of the set, accepting worsening moves with a temperature-
//! controlled probability. Spread is evaluated on a fixed RR-set
//! collection so the search is fast and deterministic per seed.

use crate::rrset::{sample_collection, RrCollection};
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// RR sets backing the spread estimator.
const RR_SETS: usize = 5_000;
/// Initial temperature (in normalized-spread units).
const T0: f64 = 0.05;
/// Geometric cooling factor per iteration.
const COOLING: f64 = 0.99;
/// Local-search iterations.
const ITERATIONS: usize = 2_000;

/// The simulated-annealing IM solver.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// RNG seed.
    pub seed: u64,
}

impl SimulatedAnnealing {
    /// Creates the solver with a seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    fn spread(rr: &RrCollection, seeds: &[NodeId]) -> f64 {
        rr.estimate_spread(seeds)
    }

    /// Runs the annealing search from a degree-based initial solution.
    pub fn run(&self, graph: &Graph, k: usize) -> ImSolution {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return ImSolution::seeds_only(Vec::new());
        }
        let k = k.min(n);
        if k == n {
            // Every node is a seed; nothing to search.
            return ImSolution::seeds_only((0..n as NodeId).collect());
        }
        let rr = sample_collection(graph, RR_SETS, self.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x5a5a);

        // Initialize with the top-k out-degree nodes (warm start).
        let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.out_degree(v)), v));
        let mut current: Vec<NodeId> = by_degree[..k].to_vec();
        let mut in_set = vec![false; n];
        for &s in &current {
            in_set[s as usize] = true;
        }
        let mut current_spread = Self::spread(&rr, &current);
        let mut best = current.clone();
        let mut best_spread = current_spread;
        let mut temp = T0 * n as f64;

        for _ in 0..ITERATIONS {
            // Propose a swap: random member out, random non-member in.
            let out_idx = rng.gen_range(0..k);
            let incoming = loop {
                let c = rng.gen_range(0..n) as NodeId;
                if !in_set[c as usize] {
                    break c;
                }
            };
            let outgoing = current[out_idx];
            current[out_idx] = incoming;
            let proposal_spread = Self::spread(&rr, &current);
            let delta = proposal_spread - current_spread;
            let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temp.max(1e-12)).exp();
            if accept {
                in_set[outgoing as usize] = false;
                in_set[incoming as usize] = true;
                current_spread = proposal_spread;
                if current_spread > best_spread {
                    best_spread = current_spread;
                    best = current.clone();
                }
            } else {
                current[out_idx] = outgoing;
            }
            temp *= COOLING;
        }
        best.shuffle(&mut rng); // selection order is meaningless for SA
        ImSolution {
            seeds: best,
            spread_estimate: best_spread,
        }
    }
}

impl ImSolver for SimulatedAnnealing {
    fn name(&self) -> &str {
        "SA"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.run(graph, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use crate::imm::Imm;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    fn test_graph(seed: u64) -> Graph {
        assign_weights(
            &generators::barabasi_albert(150, 3, seed),
            WeightModel::WeightedCascade,
            0,
        )
    }

    #[test]
    fn improves_on_its_warm_start() {
        let g = test_graph(1);
        let k = 6;
        let sa = SimulatedAnnealing::with_seed(3);
        let rr = sample_collection(&g, RR_SETS, sa.seed);
        let mut by_degree: Vec<u32> = (0..150).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.out_degree(v)), v));
        let warm = rr.estimate_spread(&by_degree[..k]);
        let sol = sa.run(&g, k);
        assert!(
            sol.spread_estimate >= warm - 1e-9,
            "SA {} below warm start {warm}",
            sol.spread_estimate
        );
    }

    #[test]
    fn close_to_imm_quality() {
        let g = test_graph(2);
        let sa = SimulatedAnnealing::with_seed(5).run(&g, 5);
        let (imm, _) = Imm::paper_default(5).run(&g, 5);
        let sa_s = influence_mc(&g, &sa.seeds, 6_000, 1);
        let imm_s = influence_mc(&g, &imm.seeds, 6_000, 1);
        assert!(sa_s >= 0.85 * imm_s, "SA {sa_s} vs IMM {imm_s}");
    }

    #[test]
    fn seeds_are_distinct_and_in_range() {
        let g = test_graph(3);
        let sol = SimulatedAnnealing::with_seed(7).run(&g, 10);
        assert_eq!(sol.seeds.len(), 10);
        let mut s = sol.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|&v| (v as usize) < 150));
    }

    #[test]
    fn budget_equal_to_n_returns_all_nodes_without_search() {
        let g = test_graph(8);
        let sol = SimulatedAnnealing::with_seed(1).run(&g, 150);
        assert_eq!(sol.seeds.len(), 150);
        let mut s = sol.seeds.clone();
        s.sort_unstable();
        assert_eq!(s, (0..150u32).collect::<Vec<_>>());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = test_graph(4);
        let a = SimulatedAnnealing::with_seed(9).run(&g, 4);
        let b = SimulatedAnnealing::with_seed(9).run(&g, 4);
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(SimulatedAnnealing::with_seed(0).run(&g, 3).seeds.is_empty());
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.2)]).unwrap();
        assert!(SimulatedAnnealing::with_seed(0).run(&g, 0).seeds.is_empty());
        // Budget >= n selects everything available.
        let sol = SimulatedAnnealing::with_seed(0).run(&g, 5);
        assert_eq!(sol.seeds.len(), 3);
    }
}
