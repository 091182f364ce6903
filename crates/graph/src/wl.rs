//! Weisfeiler–Lehman subtree kernel (Shervashidze et al. 2011) — the third
//! "complex" graph-similarity metric of §5.1.
//!
//! Node labels are initialized from (bucketed) degrees and iteratively
//! refined by hashing each node's label together with the multiset of its
//! neighbors' labels. The kernel value between two graphs is the dot product
//! of their label-count histograms across refinement rounds; we expose the
//! normalized (cosine) variant so self-similarity is 1.

use crate::csr::{Graph, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Multiset of WL labels accumulated across refinement iterations.
#[derive(Debug, Clone, Default)]
pub struct WlFeatures {
    counts: HashMap<u64, u64>,
}

impl WlFeatures {
    /// Dot product of two label histograms (the raw WL kernel).
    pub fn dot(&self, other: &WlFeatures) -> f64 {
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        small
            .iter()
            .map(|(label, &c)| c as f64 * large.get(label).copied().unwrap_or(0) as f64)
            .sum()
    }

    /// Euclidean norm of the histogram.
    pub fn norm(&self) -> f64 {
        self.counts
            .values()
            .map(|&c| (c as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

fn hash_label(own: u64, neighbor_labels: &mut Vec<u64>) -> u64 {
    neighbor_labels.sort_unstable();
    let mut h = DefaultHasher::new();
    own.hash(&mut h);
    neighbor_labels.hash(&mut h);
    h.finish()
}

/// Degree bucketing keeps the initial label alphabet comparable across
/// graphs of different sizes: label = floor(log2(degree + 1)).
fn initial_label(g: &Graph, v: NodeId) -> u64 {
    let d = g.degree(v) as u64;
    64 - (d + 1).leading_zeros() as u64
}

/// Computes WL subtree features with `iterations` refinement rounds over the
/// undirected view of `g`.
pub fn wl_features(g: &Graph, iterations: usize) -> WlFeatures {
    let n = g.num_nodes();
    let mut labels: Vec<u64> = g.nodes().map(|v| initial_label(g, v)).collect();
    let mut feats = WlFeatures::default();
    for &l in &labels {
        *feats.counts.entry(l).or_insert(0) += 1;
    }
    let mut scratch: Vec<u64> = Vec::new();
    for _ in 0..iterations {
        let mut next = vec![0u64; n];
        for v in 0..n {
            scratch.clear();
            for &u in g
                .out_neighbors(v as NodeId)
                .iter()
                .chain(g.in_neighbors(v as NodeId))
            {
                scratch.push(labels[u as usize]);
            }
            next[v] = hash_label(labels[v], &mut scratch);
        }
        labels = next;
        for &l in &labels {
            *feats.counts.entry(l).or_insert(0) += 1;
        }
    }
    feats
}

/// Normalized WL kernel in `[0, 1]`: cosine similarity of the two graphs'
/// WL label histograms. Identical graphs score 1.
pub fn wl_kernel(a: &Graph, b: &Graph, iterations: usize) -> f64 {
    let fa = wl_features(a, iterations);
    let fb = wl_features(b, iterations);
    let denom = fa.norm() * fb.norm();
    if denom == 0.0 {
        return if a.num_nodes() == 0 && b.num_nodes() == 0 {
            1.0
        } else {
            0.0
        };
    }
    fa.dot(&fb) / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{barabasi_albert, erdos_renyi, watts_strogatz};

    #[test]
    fn self_similarity_is_one() {
        let g = barabasi_albert(80, 2, 1);
        let k = wl_kernel(&g, &g, 3);
        assert!((k - 1.0).abs() < 1e-9, "{k}");
    }

    #[test]
    fn isomorphic_relabelings_score_one() {
        // Same generator + seed = identical graph; WL is permutation
        // invariant by construction of the multiset hash.
        let a = erdos_renyi(40, 80, 7);
        let b = erdos_renyi(40, 80, 7);
        assert!((wl_kernel(&a, &b, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn different_families_score_lower_than_same_family() {
        let ba1 = barabasi_albert(120, 3, 1);
        let ba2 = barabasi_albert(120, 3, 2);
        let ring = watts_strogatz(120, 3, 0.01, 3);
        let same = wl_kernel(&ba1, &ba2, 2);
        let cross = wl_kernel(&ba1, &ring, 2);
        assert!(
            same > cross,
            "same-family {same} should beat cross-family {cross}"
        );
    }

    #[test]
    fn more_iterations_refine_labels() {
        let g = barabasi_albert(60, 2, 4);
        let f1 = wl_features(&g, 1);
        let f3 = wl_features(&g, 3);
        assert!(f3.counts.len() >= f1.counts.len());
    }

    #[test]
    fn empty_graphs_match() {
        let e = crate::csr::Graph::from_edges(0, &[]).unwrap();
        assert_eq!(wl_kernel(&e, &e, 2), 1.0);
        let g = barabasi_albert(10, 2, 1);
        assert_eq!(wl_kernel(&e, &g, 2), 0.0);
    }
}
