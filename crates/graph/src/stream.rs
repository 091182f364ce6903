//! Streamed random-graph generators for the `large` catalog tier.
//!
//! The mid-size generators in [`crate::generators`] buffer a full `Vec<Edge>`
//! inside [`crate::GraphBuilder`]; at 1M–10M nodes that edge list (plus the
//! builder's dedup pass) dominates peak memory. The generators here instead
//! *stream*: edges are produced block by block through a callback and are
//! never materialized as one list. Each stream is a pure function of its
//! [`StreamSpec`], so the two-pass streamed build
//! ([`crate::Graph::build_streamed`]) simply replays it —
//! first to count degrees, then to fill adjacency.
//!
//! Families and their per-stream state:
//!
//! * **Barabási–Albert** — Batagelj–Brandes preferential attachment. Only
//!   the per-node attachment *targets* are stored (`m_attach` u32 per node);
//!   the other half of the endpoint multiset is implicit, because stub `2q`
//!   of attachment pair `q` is analytically `m0 + q / m_attach`. That is the
//!   structural minimum for BA (attachment must sample its own history) and
//!   roughly a third of an explicit edge list.
//! * **Erdős–Rényi `G(n, p)`** — per-row geometric skipping: the gap to the
//!   next present edge is drawn directly, so work is `O(m)` with `O(1)`
//!   state and every row is emitted with ascending columns.
//! * **Planted community** — `blocks` contiguous equal communities; each row
//!   is two geometric-skip segments (the in-block suffix at `p_in`, the
//!   cross-block suffix at `p_out`).
//!
//! All three families are undirected (each emitted edge `(u, v)` stands for
//! both arcs) and emit edges with `u` ascending, which the streamed build
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
    /// `G(n, p)` with `p = avg_degree / (n - 1)`: every undirected pair is
    /// present independently, targeting the given mean degree.
    ErdosRenyi {
        /// Target mean (undirected) degree.
        avg_degree: f64,
    },
    /// Planted partition: `blocks` contiguous equal-size communities;
    /// in-block pairs appear with `p_in`, cross-block with `p_out`.
    PlantedCommunity {
        /// Number of communities (`>= 1`).
        blocks: usize,
        /// In-community edge probability.
        p_in: f64,
        /// Cross-community edge probability.
        p_out: f64,
    },
}

impl StreamFamily {
    /// Stable tag for config hashing and file naming.
    pub fn tag(&self) -> &'static str {
        match self {
            StreamFamily::BarabasiAlbert { .. } => "ba",
            StreamFamily::ErdosRenyi { .. } => "er",
            StreamFamily::PlantedCommunity { .. } => "pc",
        }
    }
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
    pub fn for_each_edge(&self, mut f: impl FnMut(NodeId, NodeId)) -> Result<(), IdOverflow> {
        convert::node_count(self.n)?;
        match self.family {
            StreamFamily::BarabasiAlbert { m_attach } => stream_ba(self.n, m_attach, self.seed, f),
            StreamFamily::ErdosRenyi { avg_degree } => {
                let p = if self.n > 1 {
                    (avg_degree / (self.n - 1) as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                stream_gnp_rows(self.n, self.seed, |_| p, &mut f);
            }
            StreamFamily::PlantedCommunity {
                blocks,
                p_in,
                p_out,
            } => stream_planted(self.n, blocks, p_in, p_out, self.seed, f),
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

    /// Number of undirected edges the stream emits (replays the stream).
    pub fn count_edges(&self) -> Result<u64, IdOverflow> {
        let mut m = 0u64;
        self.for_each_edge(|_, _| m += 1)?;
        Ok(m)
    }

    /// Collects the stream into an edge vector — intended for the mid-size
    /// equivalence suites only; the whole point of streaming is that the
    /// `large` tier never does this.
    pub fn collect_edges(&self) -> Result<Vec<(NodeId, NodeId)>, IdOverflow> {
        let mut edges = Vec::new();
        self.for_each_edge(|u, v| edges.push((u, v)))?;
        Ok(edges)
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

/// Row-major `G(n, p)` with a per-row probability: for each `u`, walks the
/// columns `u+1..n` by geometric gaps, so only present edges cost RNG draws.
fn stream_gnp_rows(
    n: usize,
    seed: u64,
    p_of_row: impl Fn(usize) -> f64,
    f: &mut impl FnMut(NodeId, NodeId),
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for u in 0..n {
        let p = p_of_row(u);
        geometric_segment(&mut rng, u, u + 1, n, p, f);
    }
}

/// Emits the edges of row `u` over columns `[lo, hi)` under probability `p`
/// by geometric skipping. Draw order is one `f64` per emitted edge (plus
/// one for the trailing miss), identical across replays.
fn geometric_segment(
    rng: &mut ChaCha8Rng,
    u: usize,
    lo: usize,
    hi: usize,
    p: f64,
    f: &mut impl FnMut(NodeId, NodeId),
) {
    if p <= 0.0 || lo >= hi {
        return;
    }
    if p >= 1.0 {
        let uu = nid(u);
        for v in lo..hi {
            f(uu, nid(v));
        }
        return;
    }
    let log1m = (1.0 - p).ln();
    let mut v = lo;
    loop {
        // gap ~ Geometric(p): floor(ln(1 - U) / ln(1 - p)), U in [0, 1).
        let u01: f64 = rng.gen();
        let gap = ((1.0 - u01).ln() / log1m).floor();
        if !gap.is_finite() || gap >= (hi - v) as f64 {
            return;
        }
        v += gap as usize;
        f(nid(u), nid(v));
        v += 1;
        if v >= hi {
            return;
        }
    }
}

/// Planted partition: contiguous equal blocks (`block_of(v) = v * blocks / n`,
/// matching [`crate::generators::stochastic_block_model`]); each row is an
/// in-block segment at `p_in` followed by a cross-block segment at `p_out`.
fn stream_planted(
    n: usize,
    blocks: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
    mut f: impl FnMut(NodeId, NodeId),
) {
    assert!(blocks >= 1, "need at least one community");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for u in 0..n {
        let b = u * blocks / n.max(1);
        // First index of the next block: smallest v with v * blocks >= (b+1) * n.
        let block_end = ((b + 1) * n).div_ceil(blocks).min(n);
        geometric_segment(&mut rng, u, u + 1, block_end, p_in, &mut f);
        geometric_segment(&mut rng, u, block_end, n, p_out, &mut f);
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

    #[test]
    fn ba_emits_m_edges_per_late_node() {
        let s = spec(StreamFamily::BarabasiAlbert { m_attach: 3 }, 200, 7);
        let edges = s.collect_edges().unwrap();
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
    fn er_hits_the_target_degree() {
        let s = spec(StreamFamily::ErdosRenyi { avg_degree: 8.0 }, 20_000, 3);
        let m = s.count_edges().unwrap();
        let avg = 2.0 * m as f64 / 20_000.0;
        assert!((avg - 8.0).abs() < 0.5, "avg degree {avg}");
    }

    #[test]
    fn er_rows_are_sorted_and_upper_triangular() {
        let s = spec(StreamFamily::ErdosRenyi { avg_degree: 6.0 }, 500, 9);
        let mut last: Option<(NodeId, NodeId)> = None;
        s.for_each_edge(|u, v| {
            assert!(u < v, "upper triangular");
            if let Some((lu, lv)) = last {
                assert!((u, v) > (lu, lv), "strictly ascending emission");
            }
            last = Some((u, v));
        })
        .unwrap();
    }

    #[test]
    fn planted_prefers_in_block_edges() {
        let s = spec(
            StreamFamily::PlantedCommunity {
                blocks: 4,
                p_in: 0.05,
                p_out: 0.001,
            },
            2000,
            5,
        );
        let block_of = |v: NodeId| (v as usize) * 4 / 2000;
        let (mut intra, mut inter) = (0usize, 0usize);
        s.for_each_edge(|u, v| {
            if block_of(u) == block_of(v) {
                intra += 1;
            } else {
                inter += 1;
            }
        })
        .unwrap();
        assert!(intra > inter * 3, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn replay_is_bit_identical() {
        for family in [
            StreamFamily::BarabasiAlbert { m_attach: 4 },
            StreamFamily::ErdosRenyi { avg_degree: 5.0 },
            StreamFamily::PlantedCommunity {
                blocks: 3,
                p_in: 0.03,
                p_out: 0.002,
            },
        ] {
            let s = spec(family, 1500, 21);
            assert_eq!(s.collect_edges().unwrap(), s.collect_edges().unwrap());
        }
    }

    #[test]
    fn blocks_concatenate_to_the_edge_stream() {
        let s = spec(StreamFamily::ErdosRenyi { avg_degree: 7.0 }, 4000, 13);
        let mut via_blocks = Vec::new();
        s.for_each_edge_block(|b| via_blocks.extend_from_slice(b))
            .unwrap();
        assert_eq!(via_blocks, s.collect_edges().unwrap());
    }

    #[test]
    fn degenerate_sizes_are_fine() {
        for family in [
            StreamFamily::BarabasiAlbert { m_attach: 2 },
            StreamFamily::ErdosRenyi { avg_degree: 4.0 },
            StreamFamily::PlantedCommunity {
                blocks: 2,
                p_in: 0.5,
                p_out: 0.1,
            },
        ] {
            for n in [0usize, 1, 2, 3] {
                let s = spec(family, n, 1);
                let _ = s.count_edges().unwrap();
            }
        }
    }
}
