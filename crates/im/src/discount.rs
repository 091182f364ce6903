//! Degree-based IM heuristics of Chen, Wang & Yang (KDD 2009): Degree
//! Discount and Single Discount (§3.3).
//!
//! Both select seeds by (adjusted) degree without any spread simulation,
//! which is why Fig. 1 places them at the extreme fast end — and why the
//! paper finds it notable that they still beat the Deep-RL methods on most
//! IM instances.

use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::{Graph, NodeId};

/// Degree Discount: starts from out-degrees and, whenever a neighbor is
/// chosen as a seed, discounts `dd_v = d_v - 2 t_v - (d_v - t_v) t_v p`,
/// where `t_v` counts already-selected in/out neighbors and `p` is the
/// propagation probability (estimated from the mean edge weight).
#[derive(Debug, Default, Clone)]
pub struct DegreeDiscount;

impl DegreeDiscount {
    /// Runs degree discount directly.
    pub fn run(graph: &Graph, k: usize) -> ImSolution {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return ImSolution::seeds_only(Vec::new());
        }
        let p = mean_edge_weight(graph).clamp(0.001, 1.0);
        let mut selected = vec![false; n];
        let mut t = vec![0usize; n]; // selected-neighbor count
        let degree: Vec<usize> = (0..n as NodeId).map(|v| graph.out_degree(v)).collect();
        let mut dd: Vec<f64> = degree.iter().map(|&d| d as f64).collect();
        let mut seeds = Vec::with_capacity(k.min(n));

        for _ in 0..k.min(n) {
            let mut best: Option<(f64, NodeId)> = None;
            for v in 0..n {
                if selected[v] {
                    continue;
                }
                let score = dd[v];
                if best.is_none_or(|(bs, bv)| score > bs || (score == bs && (v as NodeId) < bv)) {
                    best = Some((score, v as NodeId));
                }
            }
            let Some((_, u)) = best else { break };
            selected[u as usize] = true;
            seeds.push(u);
            // Discount every (undirected-view) neighbor of the new seed.
            for &v in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                let vi = v as usize;
                if selected[vi] || v == u {
                    continue;
                }
                t[vi] += 1;
                let dv = degree[vi] as f64;
                let tv = t[vi] as f64;
                dd[vi] = dv - 2.0 * tv - (dv - tv) * tv * p;
            }
        }
        ImSolution::seeds_only(seeds)
    }
}

impl ImSolver for DegreeDiscount {
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        Self::run(graph, k)
    }
}

/// Single Discount: each selected seed decreases its neighbors' effective
/// degree by exactly one, preventing double-counted influence.
#[derive(Debug, Default, Clone)]
pub struct SingleDiscount;

impl SingleDiscount {
    /// Runs single discount directly.
    pub fn run(graph: &Graph, k: usize) -> ImSolution {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return ImSolution::seeds_only(Vec::new());
        }
        let mut selected = vec![false; n];
        let mut score: Vec<i64> = (0..n as NodeId)
            .map(|v| graph.out_degree(v) as i64)
            .collect();
        let mut seeds = Vec::with_capacity(k.min(n));
        for _ in 0..k.min(n) {
            let mut best: Option<(i64, NodeId)> = None;
            for v in 0..n {
                if selected[v] {
                    continue;
                }
                if best
                    .is_none_or(|(bs, bv)| score[v] > bs || (score[v] == bs && (v as NodeId) < bv))
                {
                    best = Some((score[v], v as NodeId));
                }
            }
            let Some((_, u)) = best else { break };
            selected[u as usize] = true;
            seeds.push(u);
            for &v in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                if !selected[v as usize] && v != u {
                    score[v as usize] -= 1;
                }
            }
        }
        ImSolution::seeds_only(seeds)
    }
}

impl ImSolver for SingleDiscount {
    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        Self::run(graph, k)
    }
}

fn mean_edge_weight(graph: &Graph) -> f64 {
    let m = graph.num_edges();
    if m == 0 {
        return 0.0;
    }
    graph.edges().map(|e| e.weight as f64).sum::<f64>() / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge, GraphBuilder};

    #[test]
    fn picks_highest_degree_first() {
        let mut b = GraphBuilder::new(8);
        for v in 1..6u32 {
            b.add_undirected(0, v, 0.1);
        }
        b.add_undirected(6, 7, 0.1);
        let g = b.build().unwrap();
        assert_eq!(DegreeDiscount::run(&g, 1).seeds, vec![0]);
        assert_eq!(SingleDiscount::run(&g, 1).seeds, vec![0]);
    }

    #[test]
    fn discount_avoids_clustered_seeds() {
        // Clique {0,1,2,3} plus star 4 -> {5,6,7}: after choosing a clique
        // node, discounts should push the second pick to the star hub even
        // though clique nodes have higher raw degree.
        let mut b = GraphBuilder::new(8);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_undirected(i, j, 0.1);
            }
        }
        for v in 5..8u32 {
            b.add_undirected(4, v, 0.1);
        }
        let g = b.build().unwrap();
        let dd = DegreeDiscount::run(&g, 2);
        assert_eq!(
            dd.seeds[1], 4,
            "second seed should leave the clique: {:?}",
            dd.seeds
        );
        let sd = SingleDiscount::run(&g, 2);
        assert_eq!(sd.seeds[1], 4, "{:?}", sd.seeds);
    }

    #[test]
    fn respects_budget_and_distinctness() {
        let g = assign_weights(
            &generators::barabasi_albert(50, 2, 3),
            WeightModel::Constant,
            0,
        );
        for solver in [
            DegreeDiscount::run(&g, 12).seeds,
            SingleDiscount::run(&g, 12).seeds,
        ] {
            assert_eq!(solver.len(), 12);
            let mut s = solver.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 12);
        }
    }

    #[test]
    fn beats_random_seeds_on_spread() {
        let g = assign_weights(
            &generators::barabasi_albert(200, 3, 1),
            WeightModel::WeightedCascade,
            0,
        );
        let dd = DegreeDiscount::run(&g, 8);
        let dd_spread = influence_mc(&g, &dd.seeds, 4_000, 3);
        let random: Vec<u32> = (120..128).collect();
        let rnd_spread = influence_mc(&g, &random, 4_000, 3);
        assert!(
            dd_spread > rnd_spread,
            "dd {dd_spread} vs random {rnd_spread}"
        );
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(DegreeDiscount::run(&g, 3).seeds.is_empty());
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.5)]).unwrap();
        assert!(SingleDiscount::run(&g, 0).seeds.is_empty());
    }

    #[test]
    fn budget_larger_than_graph() {
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.5)]).unwrap();
        assert_eq!(DegreeDiscount::run(&g, 10).seeds.len(), 3);
    }
}
