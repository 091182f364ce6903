//! Random graph generators used to synthesize the training corpora and the
//! dataset catalog.
//!
//! The paper trains RL4IM on power-law synthetic graphs (Onnela et al.'s
//! mobile-network model, approximated here by preferential attachment) and
//! evaluates on 20 real networks; our catalog stand-ins are produced from the
//! generators in this module (see [`crate::catalog`]).

use crate::convert;
use crate::csr::{Graph, GraphBuilder, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Narrows a generator-local node index to a [`NodeId`] via the checked
/// converter. Every public generator asserts [`convert::node_count`] on
/// entry, so indices `< n` cannot overflow here.
fn nid(v: usize) -> NodeId {
    convert::node_id(v).expect("invariant: node_count(n) asserted at every generator entry point")
}

/// Entry guard shared by the generators: graph sizes must fit the u32 id
/// space before any per-element narrowing happens.
fn assert_node_count(n: usize) {
    assert!(
        convert::node_count(n).is_ok(),
        "generator size {n} exceeds the u32 id space"
    );
}

/// Deterministic RNG used by every generator, seeded per call.
pub type GenRng = ChaCha8Rng;

/// Creates the generator RNG for a seed.
pub fn rng(seed: u64) -> GenRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct undirected edges chosen
/// uniformly at random (both arcs inserted).
// audit:allow(MCPB017) tests/failure_injection.rs and many unit tests draw random graphs from it
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> Graph {
    assert_node_count(n);
    let mut rng = rng(seed);
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut builder = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut added = 0usize;
    while added < m {
        let a = nid(rng.gen_range(0..n));
        let b = nid(rng.gen_range(0..n));
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if seen.insert(key) {
            builder.add_undirected(a, b, 1.0);
            added += 1;
        }
    }
    builder
        .build()
        .expect("generated ids are in range")
        .debug_validated()
}

/// Barabási–Albert preferential attachment: starts from a clique of
/// `m_attach` nodes, then each new node attaches to `m_attach` existing
/// nodes chosen proportionally to degree. Produces the heavy-tailed degree
/// distributions ("power-law model") the paper's synthetic experiments use.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "attachment count must be >= 1");
    assert_node_count(n);
    let m0 = (m_attach + 1).min(n.max(1));
    let mut rng = rng(seed);
    let mut builder = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m_attach);

    for a in 0..m0 {
        for b in (a + 1)..m0 {
            builder.add_undirected(nid(a), nid(b), 1.0);
            endpoints.push(nid(a));
            endpoints.push(nid(b));
        }
    }

    for v in m0..n {
        // Vec + linear membership check keeps insertion order deterministic
        // (m_attach is small, so the scan is cheap).
        let mut targets: Vec<NodeId> = Vec::with_capacity(m_attach);
        let mut guard = 0;
        while targets.len() < m_attach.min(v) && guard < 50 * m_attach {
            guard += 1;
            let t = if endpoints.is_empty() {
                nid(rng.gen_range(0..v))
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if (t as usize) < v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            builder.add_undirected(nid(v), t, 1.0);
            endpoints.push(nid(v));
            endpoints.push(t);
        }
    }
    builder
        .build()
        .expect("generated ids are in range")
        .debug_validated()
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side, each edge rewired with probability `beta`. High clustering, short
/// diameters — the regime of the collaboration networks in the catalog.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k >= 1 && n > 2 * k, "need n > 2k for a ring lattice");
    assert_node_count(n);
    let mut rng = rng(seed);
    let mut builder = GraphBuilder::new(n);
    for v in 0..n {
        for j in 1..=k {
            let mut t = (v + j) % n;
            if rng.gen_bool(beta) {
                // Rewire to a uniform non-self target.
                let mut guard = 0;
                loop {
                    let cand = rng.gen_range(0..n);
                    guard += 1;
                    if cand != v || guard > 20 {
                        t = cand;
                        break;
                    }
                }
                if t == v {
                    t = (v + j) % n;
                }
            }
            builder.add_undirected(nid(v), nid(t), 1.0);
        }
    }
    builder
        .build()
        .expect("generated ids are in range")
        .debug_validated()
}

/// Stochastic block model with `blocks` equally sized communities;
/// within-community edges appear with probability `p_in`, cross-community
/// with `p_out`. Used to synthesize graphs with pronounced community
/// structure (the statistic Tab. 4 found most predictive).
// audit:allow(MCPB017) louvain's unit tests and crates/graph/tests/determinism.rs plant communities with it
pub fn stochastic_block_model(n: usize, blocks: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(blocks >= 1);
    assert_node_count(n);
    let mut rng = rng(seed);
    let mut builder = GraphBuilder::new(n);
    let block_of = |v: usize| v * blocks / n.max(1);
    for a in 0..n {
        for b in (a + 1)..n {
            let p = if block_of(a) == block_of(b) {
                p_in
            } else {
                p_out
            };
            if rng.gen_bool(p) {
                builder.add_undirected(nid(a), nid(b), 1.0);
            }
        }
    }
    builder
        .build()
        .expect("generated ids are in range")
        .debug_validated()
}

/// A "hub and spokes" star-heavy graph: `hubs` nodes each connected to a
/// random share of the rest. Produces extreme vertex-centralization (VCI),
/// the regime where discount heuristics shine.
pub fn hub_graph(n: usize, hubs: usize, spoke_prob: f64, seed: u64) -> Graph {
    assert!(hubs >= 1 && hubs < n);
    assert_node_count(n);
    let mut rng = rng(seed);
    let mut builder = GraphBuilder::new(n);
    for h in 0..hubs {
        for v in hubs..n {
            if rng.gen_bool(spoke_prob) {
                builder.add_undirected(nid(h), nid(v), 1.0);
            }
        }
    }
    // Sprinkle a thin random backbone so the graph is not strictly bipartite.
    for _ in 0..n / 4 {
        let a = nid(rng.gen_range(0..n));
        let b = nid(rng.gen_range(0..n));
        if a != b {
            builder.add_undirected(a, b, 1.0);
        }
    }
    builder
        .build()
        .expect("generated ids are in range")
        .debug_validated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_has_requested_edges() {
        let g = erdos_renyi(50, 100, 7);
        assert_eq!(g.num_nodes(), 50);
        // Undirected: both arcs stored.
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn erdos_renyi_caps_at_complete_graph() {
        let g = erdos_renyi(5, 1000, 7);
        assert_eq!(g.num_edges(), 5 * 4);
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        let a = erdos_renyi(30, 60, 42);
        let b = erdos_renyi(30, 60, 42);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
        let c = erdos_renyi(30, 60, 43);
        assert_ne!(a.edges().collect::<Vec<_>>(), c.edges().collect::<Vec<_>>());
    }

    #[test]
    fn barabasi_albert_is_heavy_tailed() {
        let g = barabasi_albert(400, 3, 1);
        assert_eq!(g.num_nodes(), 400);
        let max_deg = g.nodes().map(|v| g.out_degree(v)).max().unwrap();
        let avg_deg = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            max_deg as f64 > 4.0 * avg_deg,
            "expected hub: max {max_deg}, avg {avg_deg}"
        );
    }

    #[test]
    fn barabasi_albert_every_late_node_connected() {
        let g = barabasi_albert(100, 2, 9);
        for v in 4..100u32 {
            assert!(g.out_degree(v) >= 1, "node {v} should attach somewhere");
        }
    }

    #[test]
    fn watts_strogatz_zero_beta_is_ring() {
        let g = watts_strogatz(20, 2, 0.0, 3);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 4, "ring lattice degree");
        }
    }

    #[test]
    fn sbm_prefers_intra_block_edges() {
        let g = stochastic_block_model(120, 3, 0.3, 0.01, 11);
        let block_of = |v: u32| (v as usize) * 3 / 120;
        let (mut intra, mut inter) = (0usize, 0usize);
        for e in g.edges() {
            if block_of(e.src) == block_of(e.dst) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter * 3, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn hub_graph_concentrates_degree() {
        let g = hub_graph(200, 3, 0.5, 13);
        let hub_deg: usize = (0..3u32).map(|h| g.degree(h)).sum();
        let total: usize = g.num_edges();
        // Each arc contributes 2 to total degree; hubs holding more than
        // half the degree mass means hub_deg > total arcs.
        assert!(hub_deg > total / 2, "hubs hold {hub_deg} of {total} arcs");
    }
}
