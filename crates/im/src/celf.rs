//! CELF greedy for IM (Leskovec et al. 2007): lazy greedy over a spread
//! oracle. Used as the small-graph reference solver (Kempe et al.'s greedy
//! with CELF acceleration) and inside LeNSE's subgraph-solving stage.
//!
//! The oracle is RIS-backed, as in the paper's optimized LeNSE pipeline
//! (Appendix C): one RR-set collection sampled up front estimates every
//! marginal gain.

use crate::rrset::sample_collection;
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// CELF greedy IM solver.
#[derive(Debug, Clone)]
pub struct CelfGreedy {
    /// Number of RR sets in the shared collection.
    pub rr_sets: usize,
    /// RNG seed.
    pub seed: u64,
}

// Heap ordering requires integer keys; spreads are scaled by this factor
// before truncation so ~1e-4 resolution survives.
const SCALE: f64 = 1e4;

impl CelfGreedy {
    /// RIS-backed CELF (Appendix C optimization).
    pub fn ris(rr_sets: usize, seed: u64) -> Self {
        Self { rr_sets, seed }
    }

    /// Runs CELF selection.
    pub fn run(&self, graph: &Graph, k: usize) -> ImSolution {
        let _span = mcpb_trace::span("im.celf");
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return ImSolution::seeds_only(Vec::new());
        }
        let rr = sample_collection(graph, self.rr_sets, self.seed);
        let eval = |seeds: &[NodeId], extra: NodeId| -> f64 {
            let mut s: Vec<NodeId> = seeds.to_vec();
            s.push(extra);
            rr.estimate_spread(&s)
        };

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k.min(n));
        let mut current_spread = 0.0f64;
        // (scaled marginal gain, node, computed-at round)
        let mut heap: BinaryHeap<(i64, Reverse<NodeId>, u32)> = BinaryHeap::new();
        for v in 0..n as NodeId {
            let gain = eval(&[], v);
            heap.push(((gain * SCALE) as i64, Reverse(v), 0));
        }
        let mut round = 0u32;
        while seeds.len() < k.min(n) {
            let Some((gain, Reverse(v), stamp)) = heap.pop() else {
                break;
            };
            if stamp == round {
                seeds.push(v);
                current_spread += gain as f64 / SCALE;
                round += 1;
            } else {
                let fresh = eval(&seeds, v) - current_spread;
                heap.push(((fresh.max(0.0) * SCALE) as i64, Reverse(v), round));
            }
        }
        ImSolution {
            seeds,
            spread_estimate: current_spread,
        }
    }
}

impl ImSolver for CelfGreedy {
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.run(graph, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn ris_celf_finds_dominant_seed() {
        let edges: Vec<Edge> = (1..12).map(|v| Edge::new(0, v, 1.0)).collect();
        let g = Graph::from_edges(12, &edges).unwrap();
        let sol = CelfGreedy::ris(500, 1).run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
        assert!(sol.spread_estimate > 10.0);
    }

    #[test]
    fn ris_celf_close_to_imm() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 5),
            WeightModel::Constant,
            0,
        );
        let celf = CelfGreedy::ris(20_000, 3).run(&g, 5);
        let (imm, _) = crate::imm::Imm::paper_default(3).run(&g, 5);
        let celf_spread = influence_mc(&g, &celf.seeds, 8_000, 1);
        let imm_spread = influence_mc(&g, &imm.seeds, 8_000, 1);
        assert!(
            celf_spread >= 0.9 * imm_spread,
            "celf {celf_spread} vs imm {imm_spread}"
        );
    }

    #[test]
    fn respects_budget() {
        let g = assign_weights(
            &generators::barabasi_albert(40, 2, 4),
            WeightModel::Constant,
            0,
        );
        let sol = CelfGreedy::ris(2_000, 0).run(&g, 6);
        assert_eq!(sol.seeds.len(), 6);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(CelfGreedy::ris(100, 0).run(&g, 3).seeds.is_empty());
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 0.5)]).unwrap();
        assert!(CelfGreedy::ris(100, 0).run(&g, 0).seeds.is_empty());
    }
}
