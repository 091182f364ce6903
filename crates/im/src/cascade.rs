//! Monte-Carlo simulation of the Independent Cascade (IC) model (§2.1).
//!
//! Edge weights of the input graph are interpreted as influence
//! probabilities. Spread estimation by plain MC is #P-hard to do exactly, so
//! [`influence_mc`] averages many simulated diffusions (parallelized on the
//! `mcpb-par` pool); the RIS machinery in [`crate::rrset`] is the scalable
//! estimator.

use crate::scratch::CascadeScratch;
use mcpb_graph::{Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs one IC diffusion from `seeds`; returns the number of active nodes at
/// quiescence. `visited` is caller-provided scratch (`len == n`, reset
/// internally) so batch simulation does not reallocate.
pub fn simulate_ic_into(
    graph: &Graph,
    seeds: &[NodeId],
    rng: &mut impl Rng,
    visited: &mut [u32],
    stamp: u32,
    frontier: &mut Vec<NodeId>,
) -> usize {
    frontier.clear();
    let mut active = 0usize;
    for &s in seeds {
        if visited[s as usize] != stamp {
            visited[s as usize] = stamp;
            frontier.push(s);
            active += 1;
        }
    }
    let mut head = 0usize;
    while head < frontier.len() {
        let u = frontier[head];
        head += 1;
        let nbrs = graph.out_neighbors(u);
        let ws = graph.out_weights(u);
        for (&v, &p) in nbrs.iter().zip(ws) {
            if visited[v as usize] != stamp && rng.gen::<f32>() < p {
                visited[v as usize] = stamp;
                frontier.push(v);
                active += 1;
            }
        }
    }
    active
}

/// Runs one IC diffusion from `seeds`, reusing this lane's
/// [`CascadeScratch`] buffers.
pub fn simulate_ic(graph: &Graph, seeds: &[NodeId], rng: &mut impl Rng) -> usize {
    CascadeScratch::with(|s| {
        s.ensure_ic(graph.num_nodes());
        let stamp = s.next_stamp();
        simulate_ic_into(graph, seeds, rng, &mut s.visited, stamp, &mut s.frontier)
    })
}

/// Estimates the influence spread `I(S)` as the mean active count over
/// `trials` IC simulations. Deterministic per `seed` *and* shard width:
/// every fixed 64-trial base block ([`crate::shard::MC_BASE`]) derives its
/// RNG from its own block index, shards are degree-aware multiples of the
/// base block ([`crate::shard::mc_chunk`], a pure function of the graph),
/// and the `u64` shard sums are combined by integer addition — so neither
/// the thread count nor the shard width can reach the result. Each worker
/// lane reuses one [`CascadeScratch`] across all its shards (no heap
/// allocation after lane warmup) and reports its scratch footprint through
/// [`crate::shard::record_mc_shard`].
pub fn influence_mc(graph: &Graph, seeds: &[NodeId], trials: usize, seed: u64) -> f64 {
    if trials == 0 || graph.num_nodes() == 0 {
        return 0.0;
    }
    let base = crate::shard::MC_BASE;
    let sums = mcpb_par::map_chunked(trials, crate::shard::mc_chunk(graph), |range| {
        CascadeScratch::with(|s| {
            s.ensure_ic(graph.num_nodes());
            let mut sum = 0u64;
            let mut t = range.start;
            while t < range.end {
                // One RNG stream per base block: block `c` always covers
                // trials `c*base..(c+1)*base`, so widening shards cannot
                // move a single random draw.
                let c = t / base;
                let mut rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9e37_79b9));
                let stop = ((c + 1) * base).min(range.end);
                while t < stop {
                    let stamp = s.next_stamp();
                    sum += simulate_ic_into(
                        graph,
                        seeds,
                        &mut rng,
                        &mut s.visited,
                        stamp,
                        &mut s.frontier,
                    ) as u64;
                    t += 1;
                }
            }
            crate::shard::record_mc_shard(s.footprint_bytes());
            sum
        })
    });
    let total: u64 = sums.iter().sum();
    total as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge, Graph};

    #[test]
    fn seeds_are_always_active() {
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.0)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(simulate_ic(&g, &[0, 2], &mut rng), 2);
    }

    #[test]
    fn probability_one_chain_activates_everything() {
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
        assert_eq!(simulate_ic(&g, &[0], &mut rng), 4);
    }

    #[test]
    fn probability_zero_stops_at_seed() {
        let g = Graph::from_edges(4, &[Edge::new(0, 1, 0.0), Edge::new(0, 2, 0.0)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(simulate_ic(&g, &[0], &mut rng), 1);
    }

    #[test]
    fn mc_estimate_matches_closed_form_on_single_edge() {
        // I({0}) = 1 + p on the graph 0 -> 1 with probability p.
        let p = 0.3f32;
        let g = Graph::from_edges(2, &[Edge::new(0, 1, p)]).unwrap();
        let est = influence_mc(&g, &[0], 20_000, 7);
        assert!((est - 1.3).abs() < 0.02, "estimate {est}");
    }

    #[test]
    fn mc_estimate_on_two_independent_edges() {
        // I({0}) = 1 + p + q.
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 0.5), Edge::new(0, 2, 0.25)]).unwrap();
        let est = influence_mc(&g, &[0], 20_000, 9);
        assert!((est - 1.75).abs() < 0.03, "estimate {est}");
    }

    #[test]
    fn spread_is_monotone_in_seed_set() {
        let g = assign_weights(
            &generators::barabasi_albert(100, 3, 4),
            WeightModel::Constant,
            0,
        );
        let s1 = influence_mc(&g, &[0], 2_000, 3);
        let s2 = influence_mc(&g, &[0, 1, 2], 2_000, 3);
        assert!(s2 >= s1, "{s2} < {s1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = assign_weights(
            &generators::barabasi_albert(50, 2, 5),
            WeightModel::Constant,
            0,
        );
        let a = influence_mc(&g, &[0, 3], 512, 42);
        let b = influence_mc(&g, &[0, 3], 512, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_inputs() {
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 0.5)]).unwrap();
        assert_eq!(influence_mc(&g, &[], 100, 0), 0.0);
        assert_eq!(influence_mc(&g, &[0], 0, 0), 0.0);
    }
}
