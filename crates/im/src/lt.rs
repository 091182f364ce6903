//! The Linear Threshold (LT) diffusion model — the other classical
//! influence model of Kempe et al. (2003). The paper focuses on IC (§2.1)
//! and mentions LT in the variant discussion; this module implements it as
//! the natural extension: Monte-Carlo simulation, LT reverse-reachable
//! sets (the "pick one in-edge" live-edge characterization), and a
//! RIS-greedy solver with the same guarantee machinery as IC.
//!
//! Under LT, node `v` activates once the summed weight of its active
//! in-neighbors crosses a uniform-random threshold `theta_v`. The live-edge
//! equivalent: every node independently keeps *at most one* in-edge, edge
//! `(u, v)` with probability `w(u, v)` and none with probability
//! `1 - sum_u w(u, v)`; spread equals reachability in the resulting
//! forest. Incoming weights must therefore sum to at most 1 per node —
//! the Weighted Cascade model satisfies this by construction.

use crate::rrset::RrCollection;
use crate::scratch::CascadeScratch;
use crate::solver::ImSolution;
use mcpb_graph::{Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Validates the LT precondition: incoming weights sum to <= 1 (+eps).
pub fn is_lt_compatible(graph: &Graph) -> bool {
    (0..graph.num_nodes() as NodeId)
        .all(|v| graph.in_weights(v).iter().map(|&w| w as f64).sum::<f64>() <= 1.0 + 1e-4)
}

/// Runs one LT diffusion from `seeds` into caller-provided scratch; returns
/// the number of active nodes at quiescence.
///
/// Thresholds are redrawn into the scratch buffer with the same per-node
/// draw order as the allocating reference, and activation proceeds
/// level-synchronously over a single queue (`lo..hi` marks the current
/// level), so per-node pressure accumulates contributions in exactly the
/// reference order — the spread is identical simulation by simulation.
/// After scratch warmup the diffusion performs no heap allocation.
///
/// The hot loop is gated by a byte-wide active filter (`lt_active`, one
/// byte per node, L1-resident) so touches of already-active nodes read a
/// single byte and skip. Inactive touches then hit exactly one further
/// per-node array: `lt_state` interleaves `[pressure, threshold]`, putting
/// both reads of the crossing test on one cache line. Pressure is reset to
/// `0.0` during the threshold-redraw sweep (which streams the array
/// anyway), so the accumulate-and-compare is literally the reference's:
/// `0.0 + w` is bitwise `w` for the non-negative edge weights, making every
/// per-node pressure sum identical term by term.
pub fn simulate_lt_into(
    graph: &Graph,
    seeds: &[NodeId],
    rng: &mut impl Rng,
    s: &mut CascadeScratch,
) -> usize {
    let n = graph.num_nodes();
    if n == 0 {
        return 0;
    }
    s.ensure_lt(n);
    let stamp = s.next_lt_stamp();
    let CascadeScratch {
        frontier,
        lt_state,
        lt_active,
        ..
    } = s;
    for st in lt_state[..n].iter_mut() {
        // Same draw order as the reference: one threshold per node, in
        // node order. The pressure reset rides the same streaming write.
        *st = [0.0, rng.gen::<f32>()];
    }
    frontier.clear();
    let mut count = 0usize;
    for &sd in seeds {
        let si = sd as usize;
        if lt_active[si] != stamp {
            lt_active[si] = stamp;
            frontier.push(sd);
            count += 1;
        }
    }
    let mut lo = 0usize;
    while lo < frontier.len() {
        let hi = frontier.len();
        for qi in lo..hi {
            let u = frontier[qi];
            let nbrs = graph.out_neighbors(u);
            let ws = graph.out_weights(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                let vi = v as usize;
                if lt_active[vi] == stamp {
                    continue;
                }
                let [old, threshold] = lt_state[vi];
                let new = old + w;
                if new >= threshold {
                    lt_active[vi] = stamp;
                    frontier.push(v);
                    count += 1;
                } else {
                    lt_state[vi][0] = new;
                }
            }
        }
        lo = hi;
    }
    count
}

/// Monte-Carlo LT spread estimate (pool-parallel, seeded). Each trial
/// derives its RNG from the trial index — identical to the reference
/// per-trial seeding, so the estimate is invariant to both thread count and
/// shard width — while trials are walked in shards of one base block
/// ([`crate::shard::MC_BASE`] trials; one trial is a whole cascade, so a
/// block is already a lane's worth of work, see [`crate::shard`]). Each
/// worker lane reuses one [`CascadeScratch`] across its share and reports
/// its scratch footprint through [`crate::shard::record_mc_shard`].
pub fn influence_mc_lt(graph: &Graph, seeds: &[NodeId], trials: usize, seed: u64) -> f64 {
    if trials == 0 || graph.num_nodes() == 0 {
        return 0.0;
    }
    let sums = mcpb_par::map_chunked(trials, crate::shard::MC_BASE, |range| {
        CascadeScratch::with(|s| {
            let mut sum = 0u64;
            for t in range {
                let mut rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                sum += simulate_lt_into(graph, seeds, &mut rng, s) as u64;
            }
            crate::shard::record_mc_shard(s.footprint_bytes());
            sum
        })
    });
    let total: u64 = sums.iter().sum();
    total as f64 / trials as f64
}

/// Samples one LT RR set: from a uniform target, repeatedly follow at most
/// one sampled in-edge per node (probability proportional to its weight,
/// stopping with the leftover probability).
pub fn sample_rr_set_lt(graph: &Graph, rng: &mut impl Rng) -> Vec<NodeId> {
    let n = graph.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let target = rng.gen_range(0..n) as NodeId;
    let mut in_set = vec![false; n];
    in_set[target as usize] = true;
    let mut path = vec![target];
    let mut cur = target;
    loop {
        let srcs = graph.in_neighbors(cur);
        let ws = graph.in_weights(cur);
        if srcs.is_empty() {
            break;
        }
        let roll: f32 = rng.gen();
        let mut acc = 0f32;
        let mut chosen: Option<NodeId> = None;
        for (&u, &w) in srcs.iter().zip(ws) {
            acc += w;
            if roll < acc {
                chosen = Some(u);
                break;
            }
        }
        match chosen {
            Some(u) if !in_set[u as usize] => {
                in_set[u as usize] = true;
                path.push(u);
                cur = u;
            }
            _ => break, // no live in-edge, or a cycle closed
        }
    }
    path
}

/// Samples an LT RR collection of `m` sets.
pub fn sample_collection_lt(graph: &Graph, m: usize, seed: u64) -> RrCollection {
    let mut c = RrCollection::new(graph.num_nodes());
    let sets: Vec<Vec<NodeId>> = mcpb_par::map_indexed(m, |i| {
        let mut rng =
            ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        sample_rr_set_lt(graph, &mut rng)
    });
    c.push_sets(sets);
    c
}

/// RIS greedy for IM under LT: sample `rr_sets` LT RR sets and max-cover.
#[derive(Debug, Clone)]
pub struct LtRisGreedy {
    /// RR sets to sample.
    pub rr_sets: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LtRisGreedy {
    /// Creates the solver.
    pub fn new(rr_sets: usize, seed: u64) -> Self {
        Self { rr_sets, seed }
    }

    /// Runs selection; returns solution and the collection used.
    pub fn run(&self, graph: &Graph, k: usize) -> (ImSolution, RrCollection) {
        let rr = sample_collection_lt(graph, self.rr_sets, self.seed);
        let (seeds, covered) = rr.greedy_max_coverage(k);
        let spread = graph.num_nodes() as f64 * covered as f64 / rr.len().max(1) as f64;
        (
            ImSolution {
                seeds,
                spread_estimate: spread,
            },
            rr,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge};

    /// One LT diffusion on fresh buffers.
    fn simulate_lt(graph: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
        simulate_lt_into(graph, seeds, rng, &mut CascadeScratch::new())
    }

    fn wc_graph(n: usize, seed: u64) -> Graph {
        assign_weights(
            &generators::barabasi_albert(n, 3, seed),
            WeightModel::WeightedCascade,
            0,
        )
    }

    #[test]
    fn wc_weights_are_lt_compatible() {
        assert!(is_lt_compatible(&wc_graph(100, 1)));
        // CONST with high-degree nodes is NOT guaranteed compatible.
        let dense = assign_weights(
            &generators::barabasi_albert(100, 8, 1),
            WeightModel::Constant,
            0,
        );
        // (may or may not be compatible; just ensure the check runs)
        let _ = is_lt_compatible(&dense);
    }

    #[test]
    fn seeds_always_active() {
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.2)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(simulate_lt(&g, &[0, 2], &mut rng), 2);
    }

    #[test]
    fn weight_one_chain_fully_activates() {
        let g = Graph::from_edges(
            4,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(2, 3, 1.0),
            ],
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(simulate_lt(&g, &[0], &mut rng), 4);
    }

    #[test]
    fn mc_matches_closed_form_single_edge() {
        // 0 -> 1 with weight p: activation prob of 1 given seed {0} is
        // P(theta_1 <= p) = p, so E = 1 + p.
        let p = 0.4f32;
        let g = Graph::from_edges(2, &[Edge::new(0, 1, p)]).unwrap();
        let est = influence_mc_lt(&g, &[0], 30_000, 5);
        assert!((est - 1.4).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn lt_rr_estimator_matches_mc() {
        let g = wc_graph(120, 3);
        let seeds = [0u32, 1, 2];
        let mc = influence_mc_lt(&g, &seeds, 20_000, 7);
        let rr = sample_collection_lt(&g, 30_000, 9);
        let est = rr.estimate_spread(&seeds);
        let rel = (est - mc).abs() / mc.max(1.0);
        assert!(rel < 0.08, "LT RIS {est} vs MC {mc}");
    }

    #[test]
    fn rr_sets_are_paths_rooted_at_target() {
        let g = wc_graph(60, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let rr = sample_rr_set_lt(&g, &mut rng);
            assert!(!rr.is_empty());
            // LT RR sets are simple paths: no duplicates.
            let mut s = rr.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), rr.len());
        }
    }

    #[test]
    fn lt_ris_greedy_beats_random() {
        let g = wc_graph(200, 6);
        let (sol, _) = LtRisGreedy::new(10_000, 1).run(&g, 6);
        let greedy_spread = influence_mc_lt(&g, &sol.seeds, 4_000, 2);
        let random: Vec<u32> = (100..106).collect();
        let rnd_spread = influence_mc_lt(&g, &random, 4_000, 2);
        assert!(
            greedy_spread > rnd_spread,
            "greedy {greedy_spread} vs random {rnd_spread}"
        );
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(influence_mc_lt(&g, &[], 10, 0), 0.0);
        let (sol, _) = LtRisGreedy::new(100, 0).run(&g, 3);
        assert!(sol.seeds.is_empty());
    }
}
