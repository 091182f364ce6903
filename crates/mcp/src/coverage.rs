//! The coverage function of Problem 1: for a seed set `S`,
//! `X_S = S ∪ { v : (u, v) ∈ E, u ∈ S }` and `f(S) = |X_S| / |V|`.

use mcpb_graph::{BitSet, Graph, NodeId};

/// Incremental coverage oracle over a fixed graph.
///
/// Tracks the covered set as seeds are added, and answers marginal-gain
/// queries without re-scanning previous seeds — the primitive that both
/// greedy variants and the RL environments are built on.
///
/// Queries run at word level: the candidate set `{v} ∪ N(v)` is folded into
/// per-word delta masks by sweeping the (sorted) adjacency list — equal
/// word indices are contiguous, so each 64-bit word of the universe appears
/// as exactly one run, accumulated in a register and flushed with a single
/// `popcount(delta & !covered_word)`. No stamp array, no scratch buffers:
/// the only memory the query touches beyond the adjacency list is one
/// covered word per run. Parallel edges are adjacent in a sorted list and
/// deduplicate for free (OR is idempotent).
#[derive(Debug, Clone)]
pub struct CoverageOracle<'g> {
    graph: &'g Graph,
    covered: BitSet,
    covered_count: usize,
    seeds: Vec<NodeId>,
}

impl<'g> CoverageOracle<'g> {
    /// Creates an oracle with an empty seed set.
    pub fn new(graph: &'g Graph) -> Self {
        let n = graph.num_nodes();
        Self {
            graph,
            covered: BitSet::new(n),
            covered_count: 0,
            seeds: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Seeds added so far, in insertion order.
    pub fn seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    /// Number of nodes currently covered (`|X_S|`).
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Normalized coverage `f(S) = |X_S| / |V|`.
    pub fn coverage(&self) -> f64 {
        let n = self.graph.num_nodes();
        if n == 0 {
            0.0
        } else {
            self.covered_count() as f64 / n as f64
        }
    }

    /// Marginal gain (in newly covered nodes) of adding `v` to the current
    /// seed set. Does not mutate observable state; parallel edges to the
    /// same target count once.
    ///
    /// Relies on the CSR sortedness invariant: `out_neighbors` is ascending,
    /// so every universe word forms one contiguous run of the sweep and the
    /// per-run mask needs no cross-run deduplication.
    pub fn marginal_gain(&self, v: NodeId) -> usize {
        let covered = self.covered.words();
        let vi = v as usize;
        let (vw, vb) = (vi / 64, 1u64 << (vi % 64));
        let mut gain = 0usize;
        let mut cur_w = usize::MAX;
        let mut cur_mask = 0u64;
        let mut v_merged = false;
        for &u in self.graph.out_neighbors(v) {
            let ui = u as usize;
            let w = ui / 64;
            if w != cur_w {
                if cur_w != usize::MAX {
                    gain += (cur_mask & !covered[cur_w]).count_ones() as usize;
                }
                cur_w = w;
                cur_mask = 0;
                if w == vw {
                    cur_mask = vb;
                    v_merged = true;
                }
            }
            cur_mask |= 1u64 << (ui % 64);
        }
        if cur_w != usize::MAX {
            gain += (cur_mask & !covered[cur_w]).count_ones() as usize;
        }
        if !v_merged {
            gain += (vb & !covered[vw]).count_ones() as usize;
        }
        gain
    }

    /// Adds `v` as a seed and returns its realized marginal gain.
    ///
    /// Mutation is a plain test-and-set walk: `BitSet::insert` already
    /// deduplicates (parallel edges insert once), and unlike gain queries
    /// there is no dedup scratch to avoid — so the insert walk is the
    /// cheapest possible form. The incremental `covered_count` keeps the
    /// count query O(1) instead of the reference's full word scan.
    pub fn add_seed(&mut self, v: NodeId) -> usize {
        let mut gain = usize::from(self.covered.insert(v as usize));
        for &u in self.graph.out_neighbors(v) {
            if u != v && self.covered.insert(u as usize) {
                gain += 1;
            }
        }
        self.covered_count += gain;
        self.seeds.push(v);
        gain
    }

    /// Whether `v` itself is covered (as a seed or a neighbor of one).
    pub fn is_covered(&self, v: NodeId) -> bool {
        self.covered.contains(v as usize)
    }
}

/// One-shot coverage of an arbitrary seed set: `|X_S|`.
pub fn covered_count(graph: &Graph, seeds: &[NodeId]) -> usize {
    let mut oracle = CoverageOracle::new(graph);
    for &s in seeds {
        oracle.add_seed(s);
    }
    oracle.covered_count()
}

/// One-shot normalized coverage `f(S)`.
pub fn coverage(graph: &Graph, seeds: &[NodeId]) -> f64 {
    let n = graph.num_nodes();
    if n == 0 {
        0.0
    } else {
        covered_count(graph, seeds) as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::Edge;

    fn star() -> Graph {
        // 0 -> {1, 2, 3}
        Graph::from_edges(
            4,
            &[
                Edge::unweighted(0, 1),
                Edge::unweighted(0, 2),
                Edge::unweighted(0, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn seed_covers_itself_and_out_neighbors() {
        let g = star();
        assert_eq!(covered_count(&g, &[0]), 4);
        assert_eq!(coverage(&g, &[0]), 1.0);
        // Leaf 1 has no out-neighbors: covers only itself.
        assert_eq!(covered_count(&g, &[1]), 1);
    }

    #[test]
    fn marginal_gain_matches_realized_gain() {
        let g = star();
        let mut o = CoverageOracle::new(&g);
        let predicted = o.marginal_gain(0);
        let realized = o.add_seed(0);
        assert_eq!(predicted, realized);
        assert_eq!(realized, 4);
        // Everything covered now; any further seed gains zero.
        assert_eq!(o.marginal_gain(1), 0);
        assert_eq!(o.add_seed(1), 0);
    }

    #[test]
    fn gain_is_diminishing_along_any_order() {
        // Submodularity: marginal gain of v never increases as S grows.
        let g = mcpb_graph::generators::barabasi_albert(60, 2, 3);
        let mut o = CoverageOracle::new(&g);
        let v: NodeId = 7;
        let mut last = o.marginal_gain(v);
        for s in [0u32, 5, 11, 23, 42] {
            o.add_seed(s);
            let now = o.marginal_gain(v);
            assert!(now <= last, "gain grew from {last} to {now}");
            last = now;
        }
    }

    #[test]
    fn duplicate_seed_adds_nothing() {
        let g = star();
        let mut o = CoverageOracle::new(&g);
        o.add_seed(0);
        let before = o.covered_count();
        assert_eq!(o.add_seed(0), 0);
        assert_eq!(o.covered_count(), before);
    }

    #[test]
    fn empty_graph_coverage_zero() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(coverage(&g, &[]), 0.0);
    }

    #[test]
    fn parallel_edges_count_once() {
        // Two parallel arcs 0 -> 1: gain of {0} is 2, not 3.
        let g = Graph::from_edges(2, &[Edge::unweighted(0, 1), Edge::unweighted(0, 1)]).unwrap();
        let o = CoverageOracle::new(&g);
        assert_eq!(o.marginal_gain(0), 2);
        let mut o = CoverageOracle::new(&g);
        assert_eq!(o.add_seed(0), 2);
    }

    #[test]
    fn monotone_in_seed_set() {
        let g = mcpb_graph::generators::erdos_renyi(50, 120, 9);
        let mut o = CoverageOracle::new(&g);
        let mut last = 0;
        for v in [3u32, 14, 30, 44] {
            o.add_seed(v);
            assert!(o.covered_count() >= last);
            last = o.covered_count();
        }
    }
}
