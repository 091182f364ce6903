//! Compressed sparse row (CSR) graph representation.
//!
//! All solvers in the workspace operate on [`Graph`], a directed weighted
//! graph stored in CSR form with both forward (out-edge) and reverse
//! (in-edge) adjacency built at construction. Node identifiers are dense
//! `u32` indices in `0..n`, and arc offsets are `u32` too, so every array
//! costs 4 bytes per entry: `8(n + 1) + 16m` bytes in all.
//!
//! Each array is either an owned `Vec` or a window into the mmap'd disk
//! cache ([`crate::diskcache`]). Both backings read the same way; only
//! construction differs, so every `&Graph` consumer runs unchanged on a
//! mid-size catalog graph and on an mmap-loaded `large`-tier graph.

use crate::diskcache::MapSegment;
use serde::{Deserialize, Serialize};

/// Dense node identifier. Graphs are limited to `u32::MAX` nodes, which is
/// ample for the benchmark catalog and keeps adjacency arrays compact.
pub type NodeId = u32;

/// A directed edge with an influence probability / weight attached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Edge weight; for IM this is the influence probability in `[0, 1]`.
    pub weight: f32,
}

impl Edge {
    /// Creates an edge with the given endpoints and weight.
    pub fn new(src: NodeId, dst: NodeId, weight: f32) -> Self {
        Self { src, dst, weight }
    }

    /// Creates an unweighted edge (weight `1.0`).
    // audit:allow(MCPB017) tests/properties.rs and tests/failure_injection.rs build edges with it
    pub fn unweighted(src: NodeId, dst: NodeId) -> Self {
        Self::new(src, dst, 1.0)
    }
}

/// One CSR array: an owned `Vec` or a window into the mmap'd disk cache.
/// The elements' address and length are read once, at construction, so an
/// access costs what a `Vec` access costs whatever the backing. (Matching
/// on the backing at every access made the degree-sorting baseline several
/// times slower.)
#[derive(Debug)]
pub(crate) struct Arr<T: Copy> {
    ptr: *const T,
    len: usize,
    store: Store<T>,
}

/// What keeps an [`Arr`]'s elements alive. Neither variant is written or
/// resized after construction, and moving either does not move the
/// elements, so an `Arr`'s `ptr` stays valid for the `Arr`'s lifetime.
#[derive(Debug)]
enum Store<T: Copy> {
    /// Heap-owned (built in memory, or loaded via the read fallback).
    Owned(Vec<T>),
    /// Borrowed from the shared, read-only file mapping.
    Mapped(MapSegment<T>),
}

// SAFETY: `ptr` points into the elements that `store` owns (a `Vec<T>`) or
// shares immutably (a `MapSegment` over an `Arc`'d mapping, which is `Send +
// Sync`), and an `Arr` only ever hands out `&[T]`. Sending or sharing an
// `Arr` is therefore sound whenever sending or sharing a `Vec<T>` is.
unsafe impl<T: Copy + Send + Sync> Send for Arr<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Copy + Sync> Sync for Arr<T> {}

impl<T: Copy> From<Vec<T>> for Arr<T> {
    fn from(v: Vec<T>) -> Arr<T> {
        Arr {
            ptr: v.as_ptr(),
            len: v.len(),
            store: Store::Owned(v),
        }
    }
}

impl<T: Copy> From<MapSegment<T>> for Arr<T> {
    fn from(seg: MapSegment<T>) -> Arr<T> {
        let (ptr, len) = (seg.as_slice().as_ptr(), seg.as_slice().len());
        Arr {
            ptr,
            len,
            store: Store::Mapped(seg),
        }
    }
}

impl<T: Copy> Clone for Arr<T> {
    fn clone(&self) -> Arr<T> {
        match &self.store {
            Store::Owned(v) => Arr::from(v.clone()),
            Store::Mapped(seg) => Arr::from(seg.clone()),
        }
    }
}

impl<T: Copy> std::ops::Deref for Arr<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr` and `len` describe `store`'s elements (see `Store`),
        // which live, unmoved and unwritten, as long as `self` does.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Copy> Arr<T> {
    /// An owned copy, whatever the backing: derived graphs write into these
    /// and never into a mapping.
    fn copied(&self) -> Arr<T> {
        Arr::from(self.to_vec())
    }
}

/// Immutable directed graph in CSR form.
///
/// Both out- and in-adjacency are materialized: the forward direction drives
/// coverage and cascade simulation, while the reverse direction drives
/// reverse-reachable (RR) set sampling and the Weighted Cascade edge-weight
/// model.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    out_offsets: Arr<u32>,
    out_targets: Arr<NodeId>,
    out_weights: Arr<f32>,
    in_offsets: Arr<u32>,
    in_sources: Arr<NodeId>,
    in_weights: Arr<f32>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list. Edges referencing
    /// nodes `>= n` are rejected.
    ///
    /// Duplicate edges are kept as parallel edges; callers that need simple
    /// graphs should deduplicate via [`GraphBuilder`].
    pub fn from_edges(n: usize, edges: &[Edge]) -> Result<Self, GraphError> {
        // All per-element `as NodeId` casts below (and in accessors like
        // `nodes()`/`edges()`) are in range because of these two guards, and
        // the second keeps every `u32` offset (at most the arc count) exact.
        crate::convert::node_count(n)?;
        crate::convert::arc_index(edges.len())?;
        for e in edges {
            if (e.src as usize) >= n || (e.dst as usize) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: e.src.max(e.dst),
                    n,
                });
            }
            if !e.weight.is_finite() {
                return Err(GraphError::NonFiniteWeight {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }

        let mut out_degree = vec![0u32; n];
        let mut in_degree = vec![0u32; n];
        for e in edges {
            out_degree[e.src as usize] += 1;
            in_degree[e.dst as usize] += 1;
        }

        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);
        let m = edges.len();

        // Fill both adjacencies in sorted order (out by (src, dst), in by
        // (dst, src)): every constructed graph satisfies the sortedness
        // invariant checked by [`Graph::validate`], and neighbor lookups
        // can binary-search.
        let mut by_src: Vec<u32> = (0..m as u32).collect();
        by_src.sort_unstable_by_key(|&i| (edges[i as usize].src, edges[i as usize].dst));
        let mut by_dst: Vec<u32> = (0..m as u32).collect();
        by_dst.sort_unstable_by_key(|&i| (edges[i as usize].dst, edges[i as usize].src));

        let mut out_targets = vec![0 as NodeId; m];
        let mut out_weights = vec![0f32; m];
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_weights = vec![0f32; m];
        for (slot, &i) in by_src.iter().enumerate() {
            out_targets[slot] = edges[i as usize].dst;
            out_weights[slot] = edges[i as usize].weight;
        }
        for (slot, &i) in by_dst.iter().enumerate() {
            in_sources[slot] = edges[i as usize].src;
            in_weights[slot] = edges[i as usize].weight;
        }

        Ok(Self::from_parts(
            n,
            Arr::from(out_offsets),
            Arr::from(out_targets),
            Arr::from(out_weights),
            Arr::from(in_offsets),
            Arr::from(in_sources),
            Arr::from(in_weights),
        ))
    }

    /// Assembles a graph from its six arrays. The caller guarantees the
    /// CSR invariants ([`Graph::validate`]): `from_edges`, the streamed
    /// build, and the disk-cache loader after its header checks.
    pub(crate) fn from_parts(
        n: usize,
        out_offsets: Arr<u32>,
        out_targets: Arr<NodeId>,
        out_weights: Arr<f32>,
        in_offsets: Arr<u32>,
        in_sources: Arr<NodeId>,
        in_weights: Arr<f32>,
    ) -> Graph {
        Graph {
            n,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges (arcs).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.out_offsets[v + 1] - self.out_offsets[v]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.in_offsets[v + 1] - self.in_offsets[v]) as usize
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.out_targets[row(&self.out_offsets, v)]
    }

    /// Weights aligned with [`Self::out_neighbors`].
    #[inline]
    pub fn out_weights(&self, v: NodeId) -> &[f32] {
        &self.out_weights[row(&self.out_offsets, v)]
    }

    /// In-neighbors of `v`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.in_sources[row(&self.in_offsets, v)]
    }

    /// Weights aligned with [`Self::in_neighbors`] (the weight of edge
    /// `(u, v)` for each in-neighbor `u`).
    #[inline]
    pub fn in_weights(&self, v: NodeId) -> &[f32] {
        &self.in_weights[row(&self.in_offsets, v)]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as NodeId).into_iter()
    }

    /// Iterator over all edges in source order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |u| {
            row(&self.out_offsets, u).map(move |i| Edge {
                src: u,
                dst: self.out_targets[i],
                weight: self.out_weights[i],
            })
        })
    }

    /// Returns a new graph with every edge weight replaced by the output of
    /// `f(src, dst, old_weight)`, called in out-adjacency order. The result
    /// owns copies of all six arrays, whatever `self`'s backing.
    pub fn reweighted(&self, mut f: impl FnMut(NodeId, NodeId, f32) -> f32) -> Graph {
        let mut out_weights = self.out_weights.to_vec();
        for u in self.nodes() {
            for i in row(&self.out_offsets, u) {
                out_weights[i] = f(u, self.out_targets[i], out_weights[i]);
            }
        }
        // Rebuild in-weights to stay consistent with out-weights.
        let m = self.num_edges();
        let mut in_sources = vec![0 as NodeId; m];
        let mut in_weights = vec![0f32; m];
        let mut in_cursor = self.in_offsets.to_vec();
        for u in self.nodes() {
            for i in row(&self.out_offsets, u) {
                let v = self.out_targets[i] as usize;
                let ic = &mut in_cursor[v];
                debug_assert!(*ic < self.in_offsets[v + 1]);
                in_sources[*ic as usize] = u;
                in_weights[*ic as usize] = out_weights[i];
                *ic += 1;
            }
        }
        Graph::from_parts(
            self.n,
            self.out_offsets.copied(),
            self.out_targets.copied(),
            Arr::from(out_weights),
            self.in_offsets.copied(),
            Arr::from(in_sources),
            Arr::from(in_weights),
        )
    }

    /// Extracts the subgraph induced by `nodes`. Returns the subgraph and
    /// the mapping `local id -> original id`.
    ///
    /// Nodes may be listed in any order; duplicates are ignored.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut local = vec![u32::MAX; self.n];
        let mut order: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for &v in nodes {
            if local[v as usize] == u32::MAX {
                local[v as usize] = order.len() as u32;
                order.push(v);
            }
        }
        let mut edges = Vec::new();
        for (li, &v) in order.iter().enumerate() {
            let nbrs = self.out_neighbors(v);
            let ws = self.out_weights(v);
            for (&t, &w) in nbrs.iter().zip(ws) {
                let lt = local[t as usize];
                if lt != u32::MAX {
                    edges.push(Edge::new(li as NodeId, lt, w));
                }
            }
        }
        let g = Graph::from_edges(order.len(), &edges)
            .expect("invariant: induced subgraph edges are in range by construction");
        (g, order)
    }

    /// Checks every structural invariant of the CSR representation:
    ///
    /// - offset arrays have length `n + 1`, start at 0, are monotone, and
    ///   end at the arc count;
    /// - arc arrays (targets/sources/weights, both directions) agree on the
    ///   arc count;
    /// - every endpoint is `< n`;
    /// - every weight is finite;
    /// - each node's out-targets and in-sources are sorted;
    /// - the out- and in-adjacency describe the same arc multiset.
    ///
    /// The last check is a counting transpose, `O(n + m)` with no sort: a
    /// cursor copy of `in_offsets` scatters every out-arc, in ascending
    /// source order, into a `u64` slot array of `(src << 32) | weight bits`
    /// laid out like the in-adjacency. A row that overflows is a mismatch;
    /// otherwise every in-row is compared with its slots one by one. Each
    /// slot row comes out sorted by source, as a valid in-row is, so only
    /// a run of parallel arcs inside one row may list its weights in
    /// another order; those runs are compared as sorted weight bits. The
    /// check holds `8m + 4(n + 1)` bytes of heap (about 130 MB for the 16M
    /// arcs of the 1M-node tier).
    ///
    /// Generators and the dataset catalog run this under
    /// `debug_assertions`; release builds skip it. The disk-cache loader
    /// checks only the file's header and checksum, so callers that load a
    /// cache validate it themselves.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.validate_layout()?;
        if self.in_rows_match_transpose() {
            Ok(())
        } else {
            Err(arc_multiset_mismatch())
        }
    }

    /// Every check of [`Graph::validate`] before the arc-multiset
    /// comparison: lengths, offsets, endpoint range, finite weights and
    /// sorted rows, in that order.
    fn validate_layout(&self) -> Result<(), GraphError> {
        let corrupt = |detail: String| Err(GraphError::Corrupt { detail });
        // Mmap-loaded graphs bypass `from_edges`, so re-check the id-space
        // guard here before trusting any `as NodeId` arithmetic.
        if let Err(e) = crate::convert::node_count(self.n) {
            return corrupt(e.to_string());
        }
        let m = self.out_targets.len();
        if self.out_offsets.len() != self.n + 1 || self.in_offsets.len() != self.n + 1 {
            return corrupt(format!(
                "offset arrays have lengths {}/{}, want n + 1 = {}",
                self.out_offsets.len(),
                self.in_offsets.len(),
                self.n + 1
            ));
        }
        if self.out_weights.len() != m || self.in_sources.len() != m || self.in_weights.len() != m {
            return corrupt(format!(
                "arc arrays disagree on the arc count: out {}({} w), in {}({} w)",
                m,
                self.out_weights.len(),
                self.in_sources.len(),
                self.in_weights.len()
            ));
        }
        for (offsets, label) in [(&self.out_offsets, "out"), (&self.in_offsets, "in")] {
            if offsets[0] != 0 || offsets[self.n] as usize != m {
                return corrupt(format!(
                    "{label}_offsets spans {}..{}, want 0..{m}",
                    offsets[0], offsets[self.n]
                ));
            }
            if let Some(v) = (0..self.n).find(|&v| offsets[v] > offsets[v + 1]) {
                return corrupt(format!("{label}_offsets decreases at node {v}"));
            }
        }
        for v in 0..self.n as NodeId {
            for (nbrs, label) in [(self.out_neighbors(v), "out"), (self.in_neighbors(v), "in")] {
                if let Some(&bad) = nbrs.iter().find(|&&u| (u as usize) >= self.n) {
                    return corrupt(format!(
                        "{label}-neighbor {bad} of node {v} is out of range (n = {})",
                        self.n
                    ));
                }
                if nbrs.windows(2).any(|w| w[0] > w[1]) {
                    return corrupt(format!("{label}-adjacency of node {v} is not sorted"));
                }
            }
            if let Some((u, _)) = self
                .out_neighbors(v)
                .iter()
                .zip(self.out_weights(v))
                .chain(self.in_neighbors(v).iter().zip(self.in_weights(v)))
                .find(|(_, w)| !w.is_finite())
            {
                return corrupt(format!("non-finite weight on an arc at ({v}, {u})"));
            }
        }
        Ok(())
    }

    /// The counting transpose of [`Graph::validate`]: true when the
    /// in-adjacency holds exactly the out-adjacency's arcs. Assumes
    /// [`Graph::validate_layout`] passed, so every offset, endpoint and
    /// slot index below is in range.
    fn in_rows_match_transpose(&self) -> bool {
        let mut cursor = self.in_offsets.to_vec();
        let mut slots = vec![0u64; self.num_edges()];
        for u in self.nodes() {
            let row = row(&self.out_offsets, u);
            for (&v, &w) in self.out_targets[row.clone()]
                .iter()
                .zip(&self.out_weights[row])
            {
                let v = v as usize;
                let at = cursor[v];
                if at == self.in_offsets[v + 1] {
                    return false;
                }
                slots[at as usize] = arc_key(u, w);
                cursor[v] = at + 1;
            }
        }
        // No row overflowed and both sides hold m arcs, so every slot row
        // is full. Rows are independent: a run of equal sources never
        // continues into the next row.
        let mut run: Vec<u64> = Vec::new();
        for v in self.nodes() {
            let row = row(&self.in_offsets, v);
            let (sources, weights) = (&self.in_sources[row.clone()], &self.in_weights[row.clone()]);
            let slots = &mut slots[row];
            if sources
                .iter()
                .zip(slots.iter())
                .any(|(&s, &k)| u64::from(s) != k >> 32)
            {
                return false;
            }
            let mut lo = 0;
            while lo < sources.len() {
                let mut hi = lo + 1;
                while hi < sources.len() && sources[hi] == sources[lo] {
                    hi += 1;
                }
                if hi - lo == 1 {
                    if arc_key(sources[lo], weights[lo]) != slots[lo] {
                        return false;
                    }
                } else {
                    // Parallel arcs: the keys share their source, so
                    // sorting them sorts their weight bits.
                    slots[lo..hi].sort_unstable();
                    run.clear();
                    run.extend((lo..hi).map(|i| arc_key(sources[i], weights[i])));
                    run.sort_unstable();
                    if run[..] != slots[lo..hi] {
                        return false;
                    }
                }
                lo = hi;
            }
        }
        true
    }

    /// [`Graph::validate`] plus topological symmetry: every arc `(u, v, w)`
    /// must be mirrored by `(v, u, w)`, as produced by
    /// [`GraphBuilder::add_undirected`].
    // audit:allow(MCPB017) crates/graph/tests/validate_sanitizer.rs checks the undirected generators' mirror arcs
    pub fn validate_undirected(&self) -> Result<(), GraphError> {
        self.validate()?;
        let mut arcs = self.arc_keys_forward();
        arcs.sort_unstable();
        for &(u, v, w) in &arcs {
            if arcs.binary_search(&(v, u, w)).is_err() {
                return Err(GraphError::Corrupt {
                    detail: format!("arc ({u}, {v}) has no mirror arc with the same weight"),
                });
            }
        }
        Ok(())
    }

    /// All arcs as `(src, dst, weight bits)` from the out-adjacency. The
    /// exact reservation matters on the `large` tier: growing by doubling
    /// would briefly hold up to twice the `12m` bytes.
    fn arc_keys_forward(&self) -> Vec<(NodeId, NodeId, u32)> {
        let mut keys = Vec::with_capacity(self.num_edges());
        keys.extend(self.edges().map(|e| (e.src, e.dst, e.weight.to_bits())));
        keys
    }

    /// Debug-mode sanitizer hook: validates in debug builds (panicking on
    /// corruption), free in release builds. Construction sites chain this
    /// on their result.
    #[must_use]
    pub fn debug_validated(self) -> Graph {
        #[cfg(debug_assertions)]
        self.validate()
            .expect("invariant: constructed graph passes CSR validation");
        self
    }

    /// The six arrays in disk-cache section order: out offsets, targets
    /// and weights, then in offsets, sources and weights.
    #[allow(clippy::type_complexity)]
    pub(crate) fn arrays(&self) -> (&[u32], &[NodeId], &[f32], &[u32], &[NodeId], &[f32]) {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.out_weights,
            &self.in_offsets,
            &self.in_sources,
            &self.in_weights,
        )
    }

    /// True when the arrays view an mmap'd cache file rather than the heap.
    /// Every constructor gives all six arrays the same backing.
    // audit:allow(MCPB017) the owned == mapped suites assert which backing they compare
    pub fn is_mapped(&self) -> bool {
        matches!(self.out_targets.store, Store::Mapped(_))
    }

    /// Bytes of the six CSR arrays, `8(n + 1) + 16m`: every entry is 4
    /// bytes. Mapped arrays count their mapped extent, the resident
    /// ceiling. Used by the benchmark harness for memory reporting.
    pub fn memory_bytes(&self) -> usize {
        4 * (self.out_offsets.len()
            + self.in_offsets.len()
            + self.out_targets.len()
            + self.in_sources.len()
            + self.out_weights.len()
            + self.in_weights.len())
    }
}

/// The error [`Graph::validate`] returns when the two directions disagree.
fn arc_multiset_mismatch() -> GraphError {
    GraphError::Corrupt {
        detail: "out- and in-adjacency describe different arc multisets".into(),
    }
}

/// One arc of an in-row as [`Graph::validate`] compares it: the source in
/// the high 32 bits, the weight's bits in the low 32.
#[inline]
fn arc_key(src: NodeId, weight: f32) -> u64 {
    (u64::from(src) << 32) | u64::from(weight.to_bits())
}

/// Arc-slot range of `v`'s row under `offsets`.
#[inline]
fn row(offsets: &[u32], v: NodeId) -> std::ops::Range<usize> {
    let v = v as usize;
    offsets[v] as usize..offsets[v + 1] as usize
}

/// Errors raised while constructing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id `>= n`.
    NodeOutOfRange {
        /// Offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// An edge weight was NaN or infinite.
    NonFiniteWeight {
        /// Edge source.
        src: NodeId,
        /// Edge destination.
        dst: NodeId,
    },
    /// A text edge list could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based byte column of the offending token (0 when the error is
        /// not tied to a position, e.g. an underlying read failure).
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// [`Graph::validate`] found a broken CSR invariant.
    Corrupt {
        /// Which invariant failed, and where.
        detail: String,
    },
    /// A node or arc count does not fit the `u32` id space.
    IdOverflow(crate::convert::IdOverflow),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "edge references node {node} but graph has {n} nodes")
            }
            GraphError::NonFiniteWeight { src, dst } => {
                write!(f, "edge ({src}, {dst}) has a non-finite weight")
            }
            GraphError::Parse {
                line,
                column,
                message,
            } => {
                if *column > 0 {
                    write!(f, "parse error on line {line}, column {column}: {message}")
                } else {
                    write!(f, "parse error on line {line}: {message}")
                }
            }
            GraphError::Corrupt { detail } => {
                write!(f, "corrupt CSR graph: {detail}")
            }
            GraphError::IdOverflow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<crate::convert::IdOverflow> for GraphError {
    fn from(e: crate::convert::IdOverflow) -> Self {
        GraphError::IdOverflow(e)
    }
}

/// Incremental builder that deduplicates edges and supports undirected
/// insertion (adding both arcs).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    dedup: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            edges: Vec::new(),
            dedup: true,
        }
    }

    /// Disables deduplication, keeping parallel edges.
    pub fn allow_parallel_edges(mut self) -> Self {
        self.dedup = false;
        self
    }

    /// Number of nodes the builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed arc.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: f32) -> &mut Self {
        self.edges.push(Edge::new(src, dst, weight));
        self
    }

    /// Adds both arcs of an undirected edge.
    pub fn add_undirected(&mut self, a: NodeId, b: NodeId, weight: f32) -> &mut Self {
        self.edges.push(Edge::new(a, b, weight));
        self.edges.push(Edge::new(b, a, weight));
        self
    }

    /// Finalizes the builder into a [`Graph`]. With deduplication enabled
    /// (the default), for duplicate `(src, dst)` pairs the *last* inserted
    /// weight wins and self-loops are dropped.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if self.dedup {
            self.edges.retain(|e| e.src != e.dst);
            // Stable sort so the last-inserted duplicate wins after dedup.
            self.edges.sort_by_key(|e| (e.src, e.dst));
            // Dedup keeps the first of each run; reverse the runs by doing a
            // manual pass that overwrites earlier weights.
            let mut out: Vec<Edge> = Vec::with_capacity(self.edges.len());
            for e in self.edges.drain(..) {
                match out.last_mut() {
                    Some(last) if last.src == e.src && last.dst == e.dst => {
                        last.weight = e.weight;
                    }
                    _ => out.push(e),
                }
            }
            self.edges = out;
        }
        Graph::from_edges(self.n, &self.edges)
    }
}

fn prefix_sum(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        // 0 -> 1 -> 2 -> 0
        Graph::from_edges(
            3,
            &[
                Edge::new(0, 1, 0.5),
                Edge::new(1, 2, 0.25),
                Edge::new(2, 0, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_basics() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(0), &[2]);
        assert_eq!(g.out_weights(1), &[0.25]);
        assert_eq!(g.in_weights(2), &[0.25]);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 1);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(2, &[Edge::unweighted(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 5, n: 2 }));
    }

    #[test]
    fn rejects_nan_weight() {
        let err = Graph::from_edges(2, &[Edge::new(0, 1, f32::NAN)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NonFiniteWeight { src: 0, dst: 1 }
        ));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = triangle();
        let edges: Vec<Edge> = g.edges().collect();
        let g2 = Graph::from_edges(3, &edges).unwrap();
        assert_eq!(g2.out_neighbors(2), g.out_neighbors(2));
        assert_eq!(g2.num_edges(), g.num_edges());
    }

    #[test]
    fn builder_dedups_and_drops_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.1)
            .add_edge(0, 1, 0.9) // duplicate: last weight wins
            .add_edge(1, 1, 0.5) // self loop: dropped
            .add_edge(1, 2, 0.3);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_weights(0), &[0.9]);
    }

    #[test]
    fn builder_undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1, 0.7);
        let g = b.build().unwrap();
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    fn reweighted_updates_both_directions() {
        let g = triangle().reweighted(|_, _, w| w * 2.0);
        assert_eq!(g.out_weights(0), &[1.0]);
        assert_eq!(g.in_weights(1), &[1.0]);
        assert_eq!(g.in_weights(0), &[2.0]);
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = triangle();
        let (sub, order) = g.induced_subgraph(&[2, 0]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(order, vec![2, 0]);
        // Only edge among {2, 0} is 2 -> 0, i.e. local 0 -> 1.
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(sub.out_neighbors(0), &[1]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_adjacency() {
        let g = Graph::from_edges(4, &[Edge::unweighted(0, 1)]).unwrap();
        assert!(g.out_neighbors(2).is_empty());
        assert!(g.in_neighbors(3).is_empty());
    }

    #[test]
    fn memory_bytes_positive() {
        assert!(triangle().memory_bytes() > 0);
    }

    #[test]
    fn from_edges_sorts_adjacency() {
        // Edges deliberately out of order; both adjacencies come out sorted.
        let g = Graph::from_edges(
            4,
            &[
                Edge::new(0, 3, 1.0),
                Edge::new(0, 1, 2.0),
                Edge::new(2, 0, 3.0),
                Edge::new(1, 0, 4.0),
                Edge::new(0, 2, 5.0),
            ],
        )
        .unwrap();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
        assert_eq!(g.out_weights(0), &[2.0, 5.0, 1.0]);
        assert_eq!(g.in_neighbors(0), &[1, 2]);
        assert_eq!(g.in_weights(0), &[4.0, 3.0]);
    }

    #[test]
    fn validate_accepts_well_formed_graphs() {
        triangle().validate().unwrap();
        Graph::from_edges(0, &[]).unwrap().validate().unwrap();
        triangle().reweighted(|_, _, w| w + 1.0).validate().unwrap();
    }

    #[test]
    fn validate_catches_unsorted_adjacency() {
        let mut g = triangle();
        // Corrupt by hand: give node 0 two out-arcs in descending order.
        g.out_offsets = Arr::from(vec![0, 2, 3, 3]);
        g.out_targets = Arr::from(vec![2, 1, 2]);
        g.out_weights = Arr::from(vec![0.5, 0.5, 0.25]);
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphError::Corrupt { .. }));
        assert!(err.to_string().contains("not sorted"), "{err}");
    }

    #[test]
    fn validate_catches_mismatched_directions() {
        let mut g = triangle();
        // In-adjacency claims 0's in-arc comes from 1, but out says 2 -> 0.
        g.in_sources = Arr::from(vec![1, 0, 1]);
        let err = g.validate().unwrap_err();
        assert!(
            err.to_string().contains("different arc multisets")
                || err.to_string().contains("not sorted"),
            "{err}"
        );
    }

    #[test]
    fn validate_catches_broken_offsets() {
        let mut g = triangle();
        g.out_offsets = Arr::from(vec![0, 5, 2, 3]); // beyond the arc count, non-monotone
        assert!(g.validate().is_err());
    }

    /// The sort-based comparison [`Graph::validate`] ran before the
    /// counting transpose, kept as its oracle: the same layout checks, then
    /// both directions' arcs as sorted `(src, dst, weight bits)` keys.
    fn sort_oracle(g: &Graph) -> Result<(), GraphError> {
        g.validate_layout()?;
        let mut fwd = g.arc_keys_forward();
        let mut rev = Vec::with_capacity(g.num_edges());
        for v in g.nodes() {
            let arcs = g.in_neighbors(v).iter().zip(g.in_weights(v));
            rev.extend(arcs.map(|(&u, &w)| (u, v, w.to_bits())));
        }
        fwd.sort_unstable();
        rev.sort_unstable();
        if fwd == rev {
            Ok(())
        } else {
            Err(arc_multiset_mismatch())
        }
    }

    fn assert_agrees_with_oracle(g: &Graph, valid: bool) {
        let got = g.validate();
        assert_eq!(got, sort_oracle(g));
        assert_eq!(got.is_ok(), valid, "{got:?}");
    }

    /// A graph from its six arrays, unchecked.
    fn raw(n: usize, out: (&[u32], &[u32], &[f32]), inn: (&[u32], &[u32], &[f32])) -> Graph {
        Graph::from_parts(
            n,
            Arr::from(out.0.to_vec()),
            Arr::from(out.1.to_vec()),
            Arr::from(out.2.to_vec()),
            Arr::from(inn.0.to_vec()),
            Arr::from(inn.1.to_vec()),
            Arr::from(inn.2.to_vec()),
        )
    }

    /// Five arcs into node 2 (three parallel from 0, two parallel from 1)
    /// and one arc 1 -> 0, with both directions agreeing.
    fn multigraph() -> Graph {
        raw(
            3,
            (
                &[0, 3, 6, 6],
                &[2, 2, 2, 0, 2, 2],
                &[0.1, 0.2, 0.3, 0.9, 0.4, 0.5],
            ),
            (
                &[0, 1, 1, 6],
                &[1, 0, 0, 0, 1, 1],
                &[0.9, 0.1, 0.2, 0.3, 0.4, 0.5],
            ),
        )
    }

    #[test]
    fn validate_accepts_parallel_arcs_with_permuted_weights() {
        let mut g = multigraph();
        assert_agrees_with_oracle(&g, true);
        g.in_weights = Arr::from(vec![0.9, 0.3, 0.1, 0.2, 0.5, 0.4]);
        assert_agrees_with_oracle(&g, true);
    }

    #[test]
    fn validate_rejects_weights_swapped_across_rows_of_one_source() {
        // 0 -> 1 twice and 0 -> 2 twice. The in-rows of 1 and 2 trade one
        // weight each: every row still holds two arcs from 0, and the four
        // weights are the same multiset, so only a comparison that stops at
        // the row boundary sees it.
        let out = (
            &[0, 4, 4, 4][..],
            &[1, 1, 2, 2][..],
            &[0.1, 0.2, 0.3, 0.4][..],
        );
        let in_offsets = [0, 0, 2, 4];
        let good = raw(3, out, (&in_offsets, &[0, 0, 0, 0], &[0.2, 0.1, 0.4, 0.3]));
        assert_agrees_with_oracle(&good, true);
        let swapped = raw(3, out, (&in_offsets, &[0, 0, 0, 0], &[0.3, 0.2, 0.4, 0.1]));
        assert_agrees_with_oracle(&swapped, false);
    }

    #[test]
    fn validate_rejects_a_retargeted_in_source() {
        let mut g = multigraph();
        // The last of node 2's arcs from 0 claims source 1; rows stay sorted.
        g.in_sources = Arr::from(vec![1, 0, 0, 1, 1, 1]);
        assert_agrees_with_oracle(&g, false);
    }

    #[test]
    fn validate_rejects_a_flipped_in_weight_bit() {
        let mut g = multigraph();
        let mut weights = g.in_weights.to_vec();
        weights[3] = f32::from_bits(weights[3].to_bits() ^ 1);
        g.in_weights = Arr::from(weights);
        assert_agrees_with_oracle(&g, false);
    }

    #[test]
    fn validate_rejects_in_offsets_shifted_by_one() {
        let mut g = multigraph();
        // Row 1 takes the first arc of row 2.
        g.in_offsets = Arr::from(vec![0, 1, 2, 6]);
        assert_agrees_with_oracle(&g, false);
        let mut g = multigraph();
        // Row 0's only arc moves to the empty row 1.
        g.in_offsets = Arr::from(vec![0, 0, 1, 6]);
        assert_agrees_with_oracle(&g, false);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On random multigraphs (parallel arcs, repeated weights) with at
        /// most one planted corruption, the counting transpose and the
        /// sort-based oracle give the same verdict and the same error.
        #[test]
        fn validate_agrees_with_the_sort_oracle(
            n in 1usize..12,
            arcs in proptest::collection::vec((0u32..12, 0u32..12, 0u8..4), 0..40),
            kind in 0u8..7,
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let edges: Vec<Edge> = arcs
                .iter()
                .map(|&(u, v, w)| Edge::new(u % n as u32, v % n as u32, f32::from(w) * 0.25))
                .collect();
            let g = Graph::from_edges(n, &edges).unwrap();
            proptest::prop_assert_eq!(g.validate(), Ok(()));
            let m = g.num_edges();
            let mut bad = g.clone();
            let (mut sources, mut weights) = (g.in_sources.to_vec(), g.in_weights.to_vec());
            let mut offsets = g.in_offsets.to_vec();
            match kind {
                0 if m > 0 => sources[a % m] = (sources[a % m] + 1 + (b % n) as u32) % n as u32,
                1 if m > 0 => weights[a % m] = f32::from_bits(weights[a % m].to_bits() ^ (1 << (b % 32))),
                2 if n > 1 => {
                    let v = 1 + a % (n - 1);
                    offsets[v] = if b % 2 == 0 { offsets[v] + 1 } else { offsets[v].wrapping_sub(1) };
                }
                3 if m > 0 => weights.swap(a % m, b % m),
                4 if m > 0 => sources.swap(a % m, b % m),
                5 if m > 0 => {
                    let mut out = g.out_weights.to_vec();
                    out[a % m] = f32::from_bits(out[a % m].to_bits() ^ (1 << (b % 32)));
                    bad.out_weights = Arr::from(out);
                }
                _ => {}
            }
            bad.in_sources = Arr::from(sources);
            bad.in_weights = Arr::from(weights);
            bad.in_offsets = Arr::from(offsets);
            proptest::prop_assert_eq!(bad.validate(), sort_oracle(&bad));
        }
    }

    #[test]
    fn validate_undirected_rejects_one_way_arcs() {
        let directed = triangle();
        directed.validate().unwrap();
        let err = directed.validate_undirected().unwrap_err();
        assert!(err.to_string().contains("mirror"), "{err}");

        let mut b = GraphBuilder::new(3);
        b.add_undirected(0, 1, 0.5).add_undirected(1, 2, 0.25);
        b.build().unwrap().validate_undirected().unwrap();
    }

    #[test]
    fn clone_outlives_the_original() {
        let g = triangle();
        let c = g.clone();
        drop(g);
        c.validate().unwrap();
        assert_eq!(c.out_neighbors(2), &[0]);
        assert_eq!(c.in_weights(2), &[0.25]);
    }

    #[test]
    fn debug_validated_passes_through() {
        let g = triangle().debug_validated();
        assert_eq!(g.num_edges(), 3);
    }
}
