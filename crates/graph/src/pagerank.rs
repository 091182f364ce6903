//! PageRank — one of the "complex topological statistics" of §5.1 used to
//! probe graph-distribution similarity (Tab. 4 / Tab. 6).

use crate::csr::Graph;

/// Damping factor (probability of following an out-edge).
const DAMPING: f64 = 0.85;
/// Maximum number of power iterations.
const MAX_ITERS: usize = 100;
/// L1 convergence tolerance.
const TOLERANCE: f64 = 1e-9;

/// Computes PageRank scores; returns a probability vector over nodes.
/// Dangling mass is redistributed uniformly, so the output always sums to 1.
pub fn pagerank(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];

    for _ in 0..MAX_ITERS {
        next.fill(0.0);
        let mut dangling = 0.0f64;
        for v in 0..n {
            let deg = g.out_degree(v as u32);
            if deg == 0 {
                dangling += rank[v];
            } else {
                let share = rank[v] / deg as f64;
                for &u in g.out_neighbors(v as u32) {
                    next[u as usize] += share;
                }
            }
        }
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling * uniform;
        let mut delta = 0.0f64;
        for v in 0..n {
            let new = base + DAMPING * next[v];
            delta += (new - rank[v]).abs();
            rank[v] = new;
        }
        if delta < TOLERANCE {
            break;
        }
    }
    rank
}

/// L1 distance between two PageRank vectors padded/truncated to the shorter
/// length after sorting descending — a crude but cheap distributional
/// similarity used by the Tab. 4 analysis (graphs of different sizes are
/// compared by their rank-score *profiles*).
pub fn pagerank_profile_distance(a: &[f64], b: &[f64], profile_len: usize) -> f64 {
    let profile = |v: &[f64]| -> Vec<f64> {
        let mut s: Vec<f64> = v.to_vec();
        s.sort_by(|x, y| y.partial_cmp(x).expect("pagerank scores are finite"));
        s.truncate(profile_len);
        while s.len() < profile_len {
            s.push(0.0);
        }
        s
    };
    profile(a)
        .iter()
        .zip(profile(b))
        .map(|(x, y)| (x - y).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Edge, Graph, GraphBuilder};

    #[test]
    fn sums_to_one() {
        let g = crate::generators::barabasi_albert(100, 3, 1);
        let pr = pagerank(&g);
        let s: f64 = pr.iter().sum();
        assert!((s - 1.0).abs() < 1e-6, "sum {s}");
    }

    #[test]
    fn hub_gets_highest_rank() {
        // Star with edges pointing at the hub.
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_edge(v, 0, 1.0);
        }
        let g = b.build().unwrap();
        let pr = pagerank(&g);
        let argmax = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(argmax, 0);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = Graph::from_edges(
            4,
            &[
                Edge::unweighted(0, 1),
                Edge::unweighted(1, 2),
                Edge::unweighted(2, 3),
                Edge::unweighted(3, 0),
            ],
        )
        .unwrap();
        let pr = pagerank(&g);
        for &r in &pr {
            assert!((r - 0.25).abs() < 1e-6, "{r}");
        }
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        let g = Graph::from_edges(3, &[Edge::unweighted(0, 1), Edge::unweighted(0, 2)]).unwrap();
        let pr = pagerank(&g);
        assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(pr[1] > pr[0]);
    }

    /// Pins every score bit of three runs: a generator graph that converges
    /// within the tolerance, an in-star whose dangling hub spreads its mass
    /// uniformly, and a two-way star whose period 2 keeps it iterating until
    /// the iteration cap.
    #[test]
    fn scores_are_pinned_bit_for_bit() {
        let (mut in_star, mut two_way) = (GraphBuilder::new(6), GraphBuilder::new(6));
        for v in 1..6u32 {
            in_star.add_edge(v, 0, 1.0);
            two_way.add_edge(v, 0, 1.0);
            two_way.add_edge(0, v, 1.0);
        }
        let (in_star, two_way) = (in_star.build().unwrap(), two_way.build().unwrap());
        let ba = crate::generators::barabasi_albert(200, 3, 7);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for g in [&ba, &in_star, &two_way] {
            for r in pagerank(g) {
                for byte in r.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            digest, 0x4ec3_043c_5086_b0c6,
            "PageRank pin moved: {digest:#018x}"
        );
    }

    #[test]
    fn profile_distance_zero_for_identical() {
        let a = vec![0.5, 0.3, 0.2];
        assert_eq!(pagerank_profile_distance(&a, &a, 3), 0.0);
        assert!(pagerank_profile_distance(&a, &[0.9, 0.05, 0.05], 3) > 0.0);
    }

    #[test]
    fn profile_distance_handles_length_mismatch() {
        let a = vec![0.6, 0.4];
        let b = vec![0.5, 0.3, 0.2];
        let d = pagerank_profile_distance(&a, &b, 4);
        assert!(d.is_finite() && d > 0.0);
    }
}
