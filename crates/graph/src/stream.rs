//! Streamed random-graph generators for the `large` catalog tier.
//!
//! The mid-size generators in [`crate::generators`] buffer a full `Vec<Edge>`
//! inside [`crate::GraphBuilder`]; at 1M–4M nodes that edge list (plus the
//! builder's dedup pass) dominates peak memory. The generators here instead
//! *stream*: edges are produced block by block through a callback and are
//! never materialized as one list. Each stream is a pure function of its
//! [`StreamSpec`], so the two-pass streamed build
//! ([`crate::Graph::build_streamed`]) simply replays it —
//! first to count degrees, then to fill adjacency.
//!
//! The one family, **Barabási–Albert**, is Batagelj–Brandes preferential
//! attachment. Only the per-node attachment *targets* are stored
//! (`m_attach` u32 per node); the other half of the endpoint multiset is
//! implicit, because stub `2q` of attachment pair `q` is analytically
//! `m0 + q / m_attach`. That is the structural minimum for BA (attachment
//! must sample its own history) and roughly a third of an explicit edge
//! list.
//!
//! The stream is undirected (each emitted edge `(u, v)` stands for both
//! arcs) and emits edges with `u` ascending, which the streamed build
//! exploits for cache-blocked scatter.

use crate::convert::{self, IdOverflow};
use crate::csr::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Edges per emitted block (64K edges ≈ 512 KiB of endpoint pairs): large
/// enough to amortize the callback, small enough to stay cache-friendly.
pub const EDGE_BLOCK: usize = 1 << 16;

/// The structural family of a streamed generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamFamily {
    /// Batagelj–Brandes preferential attachment with `m_attach` links per
    /// new node (seeded by an `(m_attach + 1)`-clique). Multi-edges between
    /// a new node and a popular target are kept, as in the classic model;
    /// self-loops are redrawn.
    BarabasiAlbert {
        /// Attachment edges per new node (`>= 1`).
        m_attach: usize,
    },
}

/// A fully determined streamed-generator configuration. Two replays of the
/// same spec produce the same edge sequence, block for block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Structural family and its parameters.
    pub family: StreamFamily,
    /// Node count.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl StreamSpec {
    /// Replays the stream, handing each edge `(u, v)` (meaning both arcs)
    /// to `f` in deterministic order. Fails fast if `n` does not fit the
    /// u32 id space, so no emitted endpoint can be a truncated id.
    pub fn for_each_edge(&self, f: impl FnMut(NodeId, NodeId)) -> Result<(), IdOverflow> {
        convert::node_count(self.n)?;
        match self.family {
            StreamFamily::BarabasiAlbert { m_attach } => stream_ba(self.n, m_attach, self.seed, f),
        }
        Ok(())
    }

    /// Replays the stream block-wise: `f` receives slices of at most
    /// [`EDGE_BLOCK`] edges. Equivalent to [`StreamSpec::for_each_edge`]
    /// with internal buffering — the block boundaries carry no meaning.
    pub fn for_each_edge_block(
        &self,
        mut f: impl FnMut(&[(NodeId, NodeId)]),
    ) -> Result<(), IdOverflow> {
        let mut buf: Vec<(NodeId, NodeId)> = Vec::with_capacity(EDGE_BLOCK);
        self.for_each_edge(|u, v| {
            buf.push((u, v));
            if buf.len() == EDGE_BLOCK {
                f(&buf);
                buf.clear();
            }
        })?;
        if !buf.is_empty() {
            f(&buf);
        }
        Ok(())
    }
}

/// Batagelj–Brandes BA. The endpoint multiset after `q` attachment pairs is
/// `clique stubs ++ [src(0), tgt(0), src(1), tgt(1), ..]` where
/// `src(q) = m0 + q / m` is implicit; only `tgt` is stored.
fn stream_ba(n: usize, m: usize, seed: u64, mut f: impl FnMut(NodeId, NodeId)) {
    assert!(m >= 1, "attachment count must be >= 1");
    let m0 = (m + 1).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // Seed clique over the first m0 nodes; its stub list is tiny (m0 is
    // m + 1 at most) so it is stored explicitly.
    let mut clique_stubs: Vec<NodeId> = Vec::with_capacity(m0.saturating_mul(m0 - m0.min(1)));
    for a in 0..m0 {
        for b in (a + 1)..m0 {
            let (a, b) = (nid(a), nid(b));
            f(a, b);
            clique_stubs.push(a);
            clique_stubs.push(b);
        }
    }

    if n <= m0 {
        return;
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity((n - m0) * m);
    let base = clique_stubs.len();
    for v in m0..n {
        let vid = nid(v);
        for _ in 0..m {
            // Stubs placed so far: the clique plus both ends of every prior
            // attachment pair. Sampling uniformly from that multiset is
            // sampling proportionally to current degree.
            let placed = base + 2 * targets.len();
            let mut t = vid;
            for _ in 0..16 {
                let r = rng.gen_range(0..placed);
                t = if r < base {
                    clique_stubs[r]
                } else {
                    let q = (r - base) / 2;
                    if (r - base) % 2 == 0 {
                        nid(m0 + q / m)
                    } else {
                        targets[q]
                    }
                };
                if t != vid {
                    break;
                }
            }
            if t == vid {
                // Degenerate fallback (v monopolizes the multiset): attach
                // to the previous node so the draw count stays bounded and
                // the stream deterministic.
                t = nid(v - 1);
            }
            f(vid, t);
            targets.push(t);
        }
    }
}

/// All stream entry points run [`convert::node_count`] first, so per-node
/// conversions cannot fail; this keeps the typed check on every path.
#[inline]
fn nid(v: usize) -> NodeId {
    convert::node_id(v).expect("invariant: node_count(n) checked at every stream entry point")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(family: StreamFamily, n: usize, seed: u64) -> StreamSpec {
        StreamSpec { family, n, seed }
    }

    fn collect(s: &StreamSpec) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::new();
        s.for_each_edge(|u, v| edges.push((u, v))).unwrap();
        edges
    }

    #[test]
    fn ba_emits_m_edges_per_late_node() {
        let s = spec(StreamFamily::BarabasiAlbert { m_attach: 3 }, 200, 7);
        let edges = collect(&s);
        // clique C(4,2) = 6 plus 3 per node beyond the clique.
        assert_eq!(edges.len(), 6 + 3 * (200 - 4));
        assert!(edges.iter().all(|&(u, v)| u != v), "no self loops");
        assert!(edges
            .iter()
            .all(|&(u, v)| (u as usize) < 200 && (v as usize) < 200));
    }

    #[test]
    fn ba_attaches_preferentially() {
        let s = spec(StreamFamily::BarabasiAlbert { m_attach: 3 }, 2000, 11);
        let mut deg = vec![0usize; 2000];
        s.for_each_edge(|u, v| {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        })
        .unwrap();
        let max = *deg.iter().max().unwrap();
        let avg = deg.iter().sum::<usize>() as f64 / 2000.0;
        assert!(
            max as f64 > 4.0 * avg,
            "expected a hub: max {max}, avg {avg}"
        );
    }

    #[test]
    fn replay_is_bit_identical() {
        for m_attach in [1, 4] {
            let s = spec(StreamFamily::BarabasiAlbert { m_attach }, 1500, 21);
            assert_eq!(collect(&s), collect(&s));
        }
    }

    #[test]
    fn blocks_concatenate_to_the_edge_stream() {
        // About 75K edges: one full block and a partial one.
        let s = spec(StreamFamily::BarabasiAlbert { m_attach: 3 }, 25_000, 13);
        let mut via_blocks = Vec::new();
        s.for_each_edge_block(|b| via_blocks.extend_from_slice(b))
            .unwrap();
        assert_eq!(via_blocks, collect(&s));
    }

    #[test]
    fn degenerate_sizes_are_fine() {
        for m_attach in [1, 2, 4] {
            for n in [0usize, 1, 2, 3] {
                let s = spec(StreamFamily::BarabasiAlbert { m_attach }, n, 1);
                let _ = collect(&s);
            }
        }
    }
}
