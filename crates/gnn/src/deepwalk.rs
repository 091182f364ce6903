//! DeepWalk-style node features (Perozzi et al. 2014) — the raw features of
//! Geometric-QN's encoder.
//!
//! Pipeline: sample truncated random walks, accumulate window co-occurrence
//! counts, form the PPMI (positive pointwise mutual information) matrix, and
//! factorize it with subspace power iteration. Matrix factorization of the
//! PMI matrix is the classical equivalent of skip-gram training (Levy &
//! Goldberg 2014), which keeps this substrate dependency-free and exactly
//! reproducible. The walk, window and factorization sizes are Geometric-QN's,
//! its only caller; only the seed varies.

use mcpb_graph::{Graph, NodeId};
use mcpb_nn::Tensor;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Walks started per node.
const WALKS_PER_NODE: usize = 3;
/// Length of each walk.
const WALK_LENGTH: usize = 10;
/// Co-occurrence window radius.
const WINDOW: usize = 2;
/// Output feature dimension.
pub const DIM: usize = 8;
/// Power-iteration rounds for the factorization.
const POWER_ITERS: usize = 4;

/// Samples one truncated random walk over the undirected view.
fn random_walk(g: &Graph, start: NodeId, length: usize, rng: &mut impl Rng) -> Vec<NodeId> {
    let mut walk = Vec::with_capacity(length);
    walk.push(start);
    let mut cur = start;
    for _ in 1..length {
        let outs = g.out_neighbors(cur);
        let ins = g.in_neighbors(cur);
        let total = outs.len() + ins.len();
        if total == 0 {
            break;
        }
        let pick = rng.gen_range(0..total);
        cur = if pick < outs.len() {
            outs[pick]
        } else {
            ins[pick - outs.len()]
        };
        walk.push(cur);
    }
    walk
}

/// Computes DeepWalk features for every node: an `n x DIM` matrix.
/// Intended for the small/medium graphs Geometric-QN explores (PPMI is
/// dense `n x n`).
pub fn deepwalk_features(g: &Graph, seed: u64) -> Tensor {
    let n = g.num_nodes();
    if n == 0 {
        return Tensor::zeros(0, DIM);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Window co-occurrence counts.
    let mut cooc = vec![0f64; n * n];
    let mut row_sum = vec![0f64; n];
    let mut total = 0f64;
    for start in 0..n as NodeId {
        for _ in 0..WALKS_PER_NODE {
            let walk = random_walk(g, start, WALK_LENGTH, &mut rng);
            for (i, &a) in walk.iter().enumerate() {
                let lo = i.saturating_sub(WINDOW);
                let hi = (i + WINDOW + 1).min(walk.len());
                for &b in &walk[lo..hi] {
                    if a != b {
                        cooc[a as usize * n + b as usize] += 1.0;
                        row_sum[a as usize] += 1.0;
                        total += 1.0;
                    }
                }
            }
        }
    }
    if total == 0.0 {
        return Tensor::zeros(n, DIM);
    }

    // PPMI: max(0, log(p(a,b) / (p(a) p(b)))).
    let mut ppmi = vec![0f32; n * n];
    for a in 0..n {
        if row_sum[a] == 0.0 {
            continue;
        }
        for b in 0..n {
            let c = cooc[a * n + b];
            if c == 0.0 || row_sum[b] == 0.0 {
                continue;
            }
            let pmi = ((c * total) / (row_sum[a] * row_sum[b])).ln();
            if pmi > 0.0 {
                ppmi[a * n + b] = pmi as f32;
            }
        }
    }
    let m = Tensor::from_slice(n, n, &ppmi);

    // Subspace power iteration: Q spans the top-dim eigenspace of M M^T.
    let dim = DIM.min(n);
    let mut q = Tensor::xavier(n, dim, &mut rng);
    orthonormalize(&mut q);
    for _ in 0..POWER_ITERS {
        let mq = m.matmul(&q);
        let mtmq = m.transposed().matmul(&mq);
        q = mtmq;
        orthonormalize(&mut q);
    }
    // Features: projection of each node's PPMI row onto the subspace.
    let mut feats = m.matmul(&q);
    if dim < DIM {
        // Pad to the full width so downstream layers see fixed dims.
        let mut padded = Tensor::zeros(n, DIM);
        for r in 0..n {
            padded.data[r * DIM..r * DIM + dim]
                .copy_from_slice(&feats.data[r * dim..(r + 1) * dim]);
        }
        feats = padded;
    }
    // Row-normalize for stable downstream training.
    for r in 0..n {
        let row = &mut feats.data[r * DIM..(r + 1) * DIM];
        let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 1e-8 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    feats
}

/// Gram–Schmidt column orthonormalization.
fn orthonormalize(q: &mut Tensor) {
    let (n, d) = (q.rows, q.cols);
    for c in 0..d {
        // Subtract projections on previous columns.
        for prev in 0..c {
            let mut dot = 0f32;
            for r in 0..n {
                dot += q.data[r * d + c] * q.data[r * d + prev];
            }
            for r in 0..n {
                let p = q.data[r * d + prev];
                q.data[r * d + c] -= dot * p;
            }
        }
        let mut norm = 0f32;
        for r in 0..n {
            norm += q.data[r * d + c] * q.data[r * d + c];
        }
        let norm = norm.sqrt();
        if norm > 1e-8 {
            for r in 0..n {
                q.data[r * d + c] /= norm;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;

    #[test]
    fn features_have_requested_shape() {
        let g = generators::barabasi_albert(30, 2, 1);
        let f = deepwalk_features(&g, 0);
        assert_eq!((f.rows, f.cols), (30, DIM));
    }

    #[test]
    fn rows_are_unit_norm_or_zero() {
        let g = generators::barabasi_albert(25, 2, 4);
        let f = deepwalk_features(&g, 0);
        for r in 0..f.rows {
            let norm: f32 = f.row_slice(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
            assert!(
                (norm - 1.0).abs() < 1e-4 || norm < 1e-6,
                "row {r} norm {norm}"
            );
        }
    }

    #[test]
    fn connected_nodes_more_similar_than_distant() {
        // Two far-apart cliques: intra-clique similarity should exceed
        // cross-clique similarity on average.
        let mut b = mcpb_graph::GraphBuilder::new(12);
        for base in [0u32, 6] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_undirected(base + i, base + j, 1.0);
                }
            }
        }
        // One weak bridge so walks can technically cross.
        b.add_undirected(0, 6, 1.0);
        let g = b.build().unwrap();
        let f = deepwalk_features(&g, 0);
        let cos = |a: usize, b: usize| -> f32 {
            f.row_slice(a)
                .iter()
                .zip(f.row_slice(b))
                .map(|(&x, &y)| x * y)
                .sum()
        };
        let intra = (cos(1, 2) + cos(7, 8)) / 2.0;
        let cross = (cos(1, 7) + cos(2, 8)) / 2.0;
        assert!(intra > cross, "intra {intra} vs cross {cross}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::barabasi_albert(20, 2, 3);
        assert_eq!(deepwalk_features(&g, 0), deepwalk_features(&g, 0));
    }

    #[test]
    fn handles_isolated_and_empty() {
        let g = Graph::from_edges(5, &[]).unwrap();
        let f = deepwalk_features(&g, 0);
        assert_eq!(f.rows, 5);
        assert!(f.data.iter().all(|&v| v == 0.0));
        let e = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(deepwalk_features(&e, 0).rows, 0);
    }

    #[test]
    fn features_are_pinned_bit_for_bit() {
        // At Geometric-QN's settings: a BA graph, and a graph whose isolated
        // nodes stay zero and whose width pads past n.
        let ba = generators::barabasi_albert(60, 2, 5);
        let mut isolated = mcpb_graph::GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (4, 5)] {
            isolated.add_edge(u, v, 1.0);
        }
        let isolated = isolated.build().unwrap();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for g in [&ba, &isolated] {
            for v in deepwalk_features(g, 11).data {
                for byte in v.to_bits().to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(
            digest, 0x8b74_0c98_7853_7849,
            "DeepWalk pin moved: {digest:#018x}"
        );
    }

    #[test]
    fn dim_larger_than_n_is_padded() {
        let g = generators::erdos_renyi(5, 6, 0);
        assert!(g.num_nodes() < DIM);
        assert_eq!(deepwalk_features(&g, 0).cols, DIM);
    }
}
