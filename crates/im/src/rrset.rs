//! Reverse-reachable (RR) set machinery of the polling/RIS method (§2.2).
//!
//! An RR set for a uniformly random target `v` contains every node that
//! reaches `v` in a random graph realization where each edge `(u, v)`
//! survives with probability `p_uv`. `n * D(S) / M` is an unbiased
//! estimator of the spread `I(S)`, where `D(S)` counts RR sets hit by `S`.
//! IMM, OPIM, and the benchmark's solution scorer are all built on this
//! module.
//!
//! Storage is flat: both the sets and the node→sets inverted index live in
//! CSR-style arenas (`offsets` + one contiguous data array) instead of
//! nested `Vec`s, so a collection of millions of RR sets costs two
//! allocations per arena rather than one per set, and sweeps over sets or
//! index rows are contiguous. The inverted index is rebuilt per
//! [`RrCollection::extend_to`] with a counted-prefix pass over the set
//! arena — IMM/OPIM grow collections geometrically, so total rebuild work
//! stays within 2× the final index size.

use mcpb_graph::{Graph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A collection of sampled RR sets plus the inverted index node -> sets.
#[derive(Debug, Clone)]
pub struct RrCollection {
    n: usize,
    /// Arena offsets: set `i` is `set_data[set_offsets[i]..set_offsets[i + 1]]`.
    set_offsets: Vec<usize>,
    /// Concatenated RR-set members in sample order.
    set_data: Vec<NodeId>,
    /// Index offsets: node `v`'s row is `idx_data[idx_offsets[v]..idx_offsets[v + 1]]`.
    idx_offsets: Vec<usize>,
    /// Concatenated set ids per node, ascending within each row.
    idx_data: Vec<u32>,
}

impl RrCollection {
    /// Creates an empty collection for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            set_offsets: vec![0],
            set_data: Vec::new(),
            idx_offsets: vec![0; n + 1],
            idx_data: Vec::new(),
        }
    }

    /// Samples RR sets until the collection holds `target` of them.
    /// Sampling is parallel and deterministic per `seed` and prior size:
    /// each set derives its RNG from its global index, and sets land in the
    /// arena in index order, so the result is bit-identical at any thread
    /// count — and at any shard width, so the degree-aware shard plan
    /// ([`crate::shard::rr_chunk`], a pure function of the graph) is free.
    /// Sampling reuses one stamp-visited buffer and one flat output buffer
    /// per shard instead of allocating per set, and each shard reports its
    /// scratch footprint through [`crate::shard::record_rr_shard`] and the
    /// in-arcs it scanned to the `im.rr_arcs_scanned` counter.
    pub fn extend_to(&mut self, graph: &Graph, target: usize, seed: u64) {
        let start = self.len();
        if target <= start {
            return;
        }
        let _span = mcpb_trace::span("im.rr_sample");
        mcpb_trace::counter_add("im.rr_sets_sampled", (target - start) as u64);
        let n = graph.num_nodes();
        let fresh: Vec<(Vec<u32>, Vec<NodeId>)> =
            mcpb_par::map_chunked(target - start, crate::shard::rr_chunk(graph), |range| {
                let mut visited = vec![0u32; n];
                let mut lens = Vec::with_capacity(range.len());
                let mut data = Vec::new();
                let mut arcs = 0u64;
                for (t, i) in range.enumerate() {
                    let gi = (start + i) as u64;
                    let mut rng =
                        ChaCha8Rng::seed_from_u64(seed ^ gi.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let before = data.len();
                    // audit:allow(MCPB006) — stamp epoch, trials < u32::MAX
                    let stamp = t as u32 + 1;
                    arcs += sample_rr_set_into(graph, &mut rng, &mut visited, stamp, &mut data);
                    // audit:allow(MCPB006) — one RR set never exceeds n <= u32::MAX nodes
                    lens.push((data.len() - before) as u32);
                }
                mcpb_trace::counter_add("im.rr_arcs_scanned", arcs);
                crate::shard::record_rr_shard(
                    visited.capacity() * std::mem::size_of::<u32>()
                        + data.capacity() * std::mem::size_of::<NodeId>()
                        + lens.capacity() * std::mem::size_of::<u32>(),
                );
                (lens, data)
            });
        for (lens, data) in &fresh {
            let mut acc = self.set_data.len();
            self.set_data.extend_from_slice(data);
            for &len in lens {
                acc += len as usize;
                self.set_offsets.push(acc);
            }
        }
        self.rebuild_index();
    }

    /// Appends externally sampled RR sets (used by alternative diffusion
    /// models, e.g. the LT sampler in `crate::lt`).
    pub fn push_sets(&mut self, sets: Vec<Vec<NodeId>>) {
        for set in &sets {
            self.set_data.extend_from_slice(set);
            self.set_offsets.push(self.set_data.len());
        }
        self.rebuild_index();
    }

    /// Rebuilds the inverted index from the set arena with one counted-
    /// prefix pass: count occurrences per node, prefix-sum into offsets,
    /// then cursor-fill set ids. Walking sets in id order fills every node
    /// row in ascending id order.
    fn rebuild_index(&mut self) {
        let counts = &mut self.idx_offsets;
        counts.fill(0);
        for &v in &self.set_data {
            counts[v as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut cursor: Vec<usize> = counts[..self.n].to_vec();
        self.idx_data.resize(self.set_data.len(), 0);
        for sid in 0..self.len() {
            for &v in &self.set_data[self.set_offsets[sid]..self.set_offsets[sid + 1]] {
                let slot = &mut cursor[v as usize];
                // audit:allow(MCPB006) — set ids are bounded by the sampled count
                self.idx_data[*slot] = sid as u32;
                *slot += 1;
            }
        }
    }

    /// Number of RR sets held.
    pub fn len(&self) -> usize {
        self.set_offsets.len() - 1
    }

    /// True if no RR sets have been sampled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// RR set `i` as a slice.
    pub fn set(&self, i: usize) -> &[NodeId] {
        &self.set_data[self.set_offsets[i]..self.set_offsets[i + 1]]
    }

    /// View over all RR sets (indexable, iterable, comparable).
    pub fn sets(&self) -> SetsView<'_> {
        SetsView {
            offsets: &self.set_offsets,
            data: &self.set_data,
        }
    }

    /// RR-set indices containing node `v`, in ascending order.
    pub fn sets_containing(&self, v: NodeId) -> &[u32] {
        &self.idx_data[self.idx_offsets[v as usize]..self.idx_offsets[v as usize + 1]]
    }

    /// `D(S)`: the number of RR sets containing at least one node of `seeds`.
    pub fn coverage(&self, seeds: &[NodeId]) -> usize {
        let mut hit = vec![false; self.len()];
        let mut count = 0usize;
        for &s in seeds {
            for &id in self.sets_containing(s) {
                if !hit[id as usize] {
                    hit[id as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }

    /// Unbiased spread estimate `n * D(S) / M`.
    pub fn estimate_spread(&self, seeds: &[NodeId]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.n as f64 * self.coverage(seeds) as f64 / self.len() as f64
    }

    /// Greedy max-coverage over the RR sets (CELF-style lazy evaluation):
    /// returns the `k` seeds and the number of RR sets they cover.
    pub fn greedy_max_coverage(&self, k: usize) -> (Vec<NodeId>, usize) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let _span = mcpb_trace::span("im.rr_greedy");

        let mut covered = vec![false; self.len()];
        let mut heap: BinaryHeap<(usize, Reverse<NodeId>, u32)> = (0..self.n as NodeId)
            .filter(|&v| !self.sets_containing(v).is_empty())
            .map(|v| (self.sets_containing(v).len(), Reverse(v), 0u32))
            .collect();
        let mut seeds = Vec::with_capacity(k);
        let mut total = 0usize;
        let mut round = 0u32;

        while seeds.len() < k {
            let Some((gain, Reverse(v), stamp)) = heap.pop() else {
                break;
            };
            if stamp == round {
                if gain == 0 {
                    break;
                }
                for &id in self.sets_containing(v) {
                    if !covered[id as usize] {
                        covered[id as usize] = true;
                        total += 1;
                    }
                }
                seeds.push(v);
                round += 1;
            } else {
                let fresh = self
                    .sets_containing(v)
                    .iter()
                    .filter(|&&id| !covered[id as usize])
                    .count();
                heap.push((fresh, Reverse(v), round));
            }
        }
        (seeds, total)
    }
}

/// Borrowed view over the RR-set arena: behaves like `&[&[NodeId]]` —
/// indexable by set id, iterable, and comparable across collections.
#[derive(Clone, Copy)]
pub struct SetsView<'a> {
    offsets: &'a [usize],
    data: &'a [NodeId],
}

impl<'a> SetsView<'a> {
    /// Number of sets in the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the view holds no sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set `i` as a slice.
    pub fn get(&self, i: usize) -> &'a [NodeId] {
        &self.data[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates the sets in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [NodeId]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl PartialEq for SetsView<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Offsets always start at 0 and are cumulative, so arena equality
        // is exactly per-set equality.
        self.offsets == other.offsets && self.data == other.data
    }
}

impl Eq for SetsView<'_> {}

impl std::fmt::Debug for SetsView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for SetsView<'a> {
    type Item = &'a [NodeId];
    type IntoIter = SetsViewIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        SetsViewIter { view: self, pos: 0 }
    }
}

/// Iterator over [`SetsView`] yielding each set as a slice.
pub struct SetsViewIter<'a> {
    view: SetsView<'a>,
    pos: usize,
}

impl<'a> Iterator for SetsViewIter<'a> {
    type Item = &'a [NodeId];

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.view.len() {
            return None;
        }
        let s = self.view.get(self.pos);
        self.pos += 1;
        Some(s)
    }
}

/// Samples one RR set: picks a uniform target and runs a reverse BFS where
/// each in-edge is kept independently with its probability.
pub fn sample_rr_set(graph: &Graph, rng: &mut impl Rng) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut visited = vec![0u32; graph.num_nodes()];
    sample_rr_set_into(graph, rng, &mut visited, 1, &mut out);
    out
}

/// Samples one RR set into caller-provided scratch: `visited` is a stamp
/// array (`len == n`); members are appended to `out` (which doubles as the
/// BFS queue), so batch samplers reuse one flat buffer for a whole chunk.
/// The RNG call sequence is identical to [`sample_rr_set`]: one range draw
/// for the target, then one `f32` draw per in-edge of an unvisited source.
/// Returns the number of in-arcs scanned: the in-degrees of the members.
pub fn sample_rr_set_into(
    graph: &Graph,
    rng: &mut impl Rng,
    visited: &mut [u32],
    stamp: u32,
    out: &mut Vec<NodeId>,
) -> u64 {
    let n = graph.num_nodes();
    if n == 0 {
        return 0;
    }
    let target = rng.gen_range(0..n) as NodeId;
    let base = out.len();
    visited[target as usize] = stamp;
    out.push(target);
    let mut head = base;
    let mut arcs = 0u64;
    while head < out.len() {
        let v = out[head];
        head += 1;
        let srcs = graph.in_neighbors(v);
        let ws = graph.in_weights(v);
        arcs += srcs.len() as u64;
        for (&u, &p) in srcs.iter().zip(ws) {
            if visited[u as usize] != stamp && rng.gen::<f32>() < p {
                visited[u as usize] = stamp;
                out.push(u);
            }
        }
    }
    arcs
}

/// Convenience: sample a fresh collection of `m` RR sets.
pub fn sample_collection(graph: &Graph, m: usize, seed: u64) -> RrCollection {
    let mut c = RrCollection::new(graph.num_nodes());
    c.extend_to(graph, m, seed);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::influence_mc;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_graph::{generators, Edge, Graph};

    #[test]
    fn rr_set_always_contains_target() {
        let g = Graph::from_edges(5, &[Edge::new(0, 1, 0.5)]).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..20 {
            let set = sample_rr_set(&g, &mut rng);
            assert!(!set.is_empty());
        }
    }

    #[test]
    fn deterministic_chain_rr_set() {
        // 0 -> 1 -> 2 with probability 1: RR set of target 2 is {2, 1, 0}.
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)]).unwrap();
        let c = sample_collection(&g, 300, 5);
        // Every RR set must be a suffix-closed reachability set.
        for set in c.sets() {
            if set.contains(&2) && set[0] == 2 {
                assert!(set.contains(&1) && set.contains(&0));
            }
        }
    }

    #[test]
    fn estimator_is_close_to_mc_truth() {
        let g = assign_weights(
            &generators::barabasi_albert(120, 3, 7),
            WeightModel::Constant,
            0,
        );
        let seeds = [0u32, 1, 2];
        let mc = influence_mc(&g, &seeds, 20_000, 11);
        let rr = sample_collection(&g, 30_000, 13);
        let est = rr.estimate_spread(&seeds);
        let rel = (est - mc).abs() / mc.max(1.0);
        assert!(rel < 0.08, "RIS {est} vs MC {mc} (rel {rel})");
    }

    #[test]
    fn coverage_counts_distinct_sets() {
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 1.0)]).unwrap();
        let c = sample_collection(&g, 100, 1);
        // Node 0 reaches everything, so {0} covers every RR set.
        assert_eq!(c.coverage(&[0]), 100);
        assert_eq!(c.coverage(&[0, 1]), 100, "no double counting");
        assert!((c.estimate_spread(&[0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_max_coverage_picks_influencer() {
        let g = Graph::from_edges(
            6,
            &[
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 1.0),
                Edge::new(0, 3, 1.0),
                Edge::new(4, 5, 1.0),
            ],
        )
        .unwrap();
        let c = sample_collection(&g, 600, 2);
        let (seeds, covered) = c.greedy_max_coverage(2);
        assert_eq!(seeds[0], 0, "node 0 hits the most RR sets");
        assert_eq!(seeds[1], 4);
        assert!(covered as f64 / c.len() as f64 > 0.95);
    }

    #[test]
    fn extend_is_incremental_and_deterministic() {
        let g = assign_weights(
            &generators::barabasi_albert(40, 2, 1),
            WeightModel::Constant,
            0,
        );
        let mut a = RrCollection::new(40);
        a.extend_to(&g, 50, 9);
        a.extend_to(&g, 120, 9);
        let b = sample_collection(&g, 120, 9);
        assert_eq!(a.len(), 120);
        assert_eq!(a.sets(), b.sets(), "incremental growth matches one-shot");
    }

    #[test]
    fn index_rows_are_sorted_and_complete() {
        let g = assign_weights(
            &generators::barabasi_albert(50, 2, 3),
            WeightModel::Constant,
            0,
        );
        let c = sample_collection(&g, 200, 17);
        let mut indexed = 0usize;
        for v in 0..50u32 {
            let row = c.sets_containing(v);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row sorted, no dups");
            for &id in row {
                assert!(c.set(id as usize).contains(&v));
            }
            indexed += row.len();
        }
        let total: usize = c.sets().iter().map(|s| s.len()).sum();
        assert_eq!(indexed, total, "every membership indexed exactly once");
    }

    #[test]
    fn greedy_stops_when_sets_exhausted() {
        let g = Graph::from_edges(3, &[Edge::new(0, 1, 1.0)]).unwrap();
        let c = sample_collection(&g, 50, 4);
        let (seeds, covered) = c.greedy_max_coverage(10);
        assert!(seeds.len() <= 3);
        assert_eq!(covered, c.len());
    }

    #[test]
    fn empty_collection_estimates_zero() {
        let c = RrCollection::new(10);
        assert_eq!(c.estimate_spread(&[0]), 0.0);
        assert!(c.is_empty());
    }
}
