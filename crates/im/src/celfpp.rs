//! CELF++ (Goyal, Lu, Lakshmanan — WWW 2011), cited in the paper's related
//! work (§7) as a further optimization of CELF.
//!
//! On top of CELF's lazy evaluation, each heap entry caches `mg2`: the
//! marginal gain of the node with respect to `S + {prev_best}`, where
//! `prev_best` was the front-runner when the entry was last evaluated. If
//! `prev_best` is indeed the next pick, the cached `mg2` becomes the fresh
//! gain for free, skipping a recomputation.

use crate::rrset::sample_collection;
use crate::solver::{ImSolution, ImSolver};
use mcpb_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// CELF++ over a RIS oracle.
#[derive(Debug, Clone)]
pub struct CelfPlusPlus {
    /// RR sets sampled once up front.
    pub rr_sets: usize,
    /// RNG seed.
    pub seed: u64,
}

const SCALE: f64 = 1e4;

struct Entry {
    /// Cached marginal gain wrt the seed set at `round`.
    mg1: i64,
    /// Cached marginal gain wrt the seed set + prev_best.
    mg2: i64,
    /// The front-runner when this entry was evaluated.
    prev_best: Option<NodeId>,
    /// Round at which mg1 was computed.
    round: u32,
}

impl CelfPlusPlus {
    /// Creates CELF++ with the given number of RR sets.
    pub fn new(rr_sets: usize, seed: u64) -> Self {
        Self { rr_sets, seed }
    }

    /// Runs CELF++ seed selection. Returns the solution and the number of
    /// marginal-gain evaluations performed (for the CELF-vs-CELF++
    /// efficiency comparison).
    pub fn run_counting(&self, graph: &Graph, k: usize) -> (ImSolution, usize) {
        let n = graph.num_nodes();
        if n == 0 || k == 0 {
            return (ImSolution::seeds_only(Vec::new()), 0);
        }
        let rr = sample_collection(graph, self.rr_sets, self.seed);
        let mut covered = vec![false; rr.len()];
        let mut evaluations = 0usize;

        let gain_of = |v: NodeId, covered: &[bool], extra: Option<NodeId>| -> i64 {
            // D(S + v) - D(S), optionally also excluding sets hit by `extra`.
            let mut hit_extra = Vec::new();
            if let Some(e) = extra {
                hit_extra = rr.sets_containing(e).to_vec();
                hit_extra.sort_unstable();
            }
            let fresh = rr
                .sets_containing(v)
                .iter()
                .filter(|&&id| {
                    !covered[id as usize]
                        && (extra.is_none() || hit_extra.binary_search(&id).is_err())
                })
                .count();
            (fresh as f64 / rr.len().max(1) as f64 * n as f64 * SCALE) as i64
        };

        let mut entries: Vec<Entry> = Vec::with_capacity(n);
        let mut heap: BinaryHeap<(i64, Reverse<NodeId>)> = BinaryHeap::new();
        let mut cur_best: Option<NodeId> = None;
        for v in 0..n as NodeId {
            let mg1 = gain_of(v, &covered, None);
            evaluations += 1;
            let mg2 = gain_of(v, &covered, cur_best);
            entries.push(Entry {
                mg1,
                mg2,
                prev_best: cur_best,
                round: 0,
            });
            if cur_best.is_none_or(|b| mg1 > entries[b as usize].mg1) {
                cur_best = Some(v);
            }
            heap.push((mg1, Reverse(v)));
        }

        let mut seeds: Vec<NodeId> = Vec::with_capacity(k.min(n));
        let mut spread_scaled: i64 = 0;
        let mut round = 0u32;
        let mut last_seed: Option<NodeId> = None;
        let mut in_seeds = vec![false; n];

        while seeds.len() < k.min(n) {
            let Some((gain, Reverse(v))) = heap.pop() else {
                break;
            };
            if in_seeds[v as usize] {
                continue;
            }
            let e = &entries[v as usize];
            if e.round == round && gain == e.mg1 {
                // Fresh: select it.
                for &id in rr.sets_containing(v) {
                    covered[id as usize] = true;
                }
                spread_scaled += e.mg1;
                seeds.push(v);
                in_seeds[v as usize] = true;
                last_seed = Some(v);
                round += 1;
                cur_best = None;
                continue;
            }
            // Stale: the CELF++ shortcut — if the previous front-runner was
            // just selected, mg2 is already the fresh gain.
            let fresh = if e.prev_best == last_seed && e.prev_best.is_some() {
                e.mg2
            } else {
                evaluations += 1;
                gain_of(v, &covered, None)
            };
            let mg2 = gain_of(v, &covered, cur_best);
            let entry = &mut entries[v as usize];
            entry.mg1 = fresh;
            entry.mg2 = mg2;
            entry.prev_best = cur_best;
            entry.round = round;
            if cur_best.is_none_or(|b| fresh > entries[b as usize].mg1) {
                cur_best = Some(v);
            }
            heap.push((fresh, Reverse(v)));
        }
        (
            ImSolution {
                seeds,
                spread_estimate: spread_scaled as f64 / SCALE,
            },
            evaluations,
        )
    }

    /// Runs CELF++ and discards the evaluation count.
    pub fn run(&self, graph: &Graph, k: usize) -> ImSolution {
        self.run_counting(graph, k).0
    }
}

impl ImSolver for CelfPlusPlus {
    fn name(&self) -> &str {
        "CELF++"
    }

    fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.run(graph, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::celf::CelfGreedy;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    #[test]
    fn finds_dominant_seed() {
        let edges: Vec<Edge> = (1..15).map(|v| Edge::new(0, v, 1.0)).collect();
        let g = Graph::from_edges(15, &edges).unwrap();
        let sol = CelfPlusPlus::new(400, 1).run(&g, 1);
        assert_eq!(sol.seeds, vec![0]);
    }

    #[test]
    fn matches_celf_quality() {
        let g = assign_weights(
            &generators::barabasi_albert(120, 3, 2),
            WeightModel::Constant,
            0,
        );
        let pp = CelfPlusPlus::new(5_000, 3).run(&g, 5);
        let celf = CelfGreedy::ris(5_000, 3).run(&g, 5);
        // Same oracle resolution: spreads should be close.
        let a = crate::cascade::influence_mc(&g, &pp.seeds, 4_000, 1);
        let b = crate::cascade::influence_mc(&g, &celf.seeds, 4_000, 1);
        assert!((a - b).abs() / b.max(1.0) < 0.05, "celf++ {a} vs celf {b}");
    }

    #[test]
    fn distinct_seeds_within_budget() {
        let g = assign_weights(
            &generators::barabasi_albert(60, 2, 4),
            WeightModel::Constant,
            0,
        );
        let sol = CelfPlusPlus::new(1_000, 5).run(&g, 8);
        assert_eq!(sol.seeds.len(), 8);
        let mut s = sol.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn evaluation_count_is_bounded_by_naive_greedy() {
        let g = assign_weights(
            &generators::barabasi_albert(150, 3, 6),
            WeightModel::Constant,
            0,
        );
        let k = 8;
        let (_, evals) = CelfPlusPlus::new(2_000, 7).run_counting(&g, k);
        // Naive greedy would do n evaluations per round.
        assert!(
            evals < 150 * k,
            "celf++ did {evals} evaluations, naive would do {}",
            150 * k
        );
        assert!(evals >= 150, "must at least initialize every node");
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(CelfPlusPlus::new(10, 0).run(&g, 2).seeds.is_empty());
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 0.5)]).unwrap();
        assert!(CelfPlusPlus::new(10, 0).run(&g, 0).seeds.is_empty());
    }
}
