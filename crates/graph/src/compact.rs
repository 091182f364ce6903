//! The streamed build of the `large` catalog tier: [`Graph::build_streamed`]
//! and the weight models it can assign ([`CompactWeights`]).
//!
//! The edge stream of a [`StreamSpec`] is replayed twice — once to count
//! degrees, once to fill adjacency — so no edge list is ever materialized.
//! The fill pass scatters *cache-blocked*: arcs are staged per 64K-node
//! block and flushed block by block, so cursor and target writes stay
//! inside one L2-sized window instead of striding the full array.

use crate::convert::{self, IdOverflow};
use crate::csr::{Arr, Graph, GraphError, NodeId};
use crate::stream::StreamSpec;
use crate::weights::CONST_WEIGHT;
use serde::{Deserialize, Serialize};

/// The name the `large` tier's carrier had before it was folded into
/// [`Graph`]. It stays as an alias because the frozen end-to-end benchmark
/// package imports it; new code should name [`Graph`].
pub type CompactGraph = Graph;

/// Edge-weight models the streamed build can assign without materializing
/// the graph first. (Tri-valency and learned weights need per-arc RNG state
/// or action logs and stay mid-size-only.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompactWeights {
    /// Every arc weight `1.0` (raw topology).
    Uniform,
    /// Constant influence probability ([`CONST_WEIGHT`]).
    Constant,
    /// Weighted cascade: `p(u, v) = 1 / in_degree(v)`. LT-compatible by
    /// construction, so both cascade models run on every tier graph.
    WeightedCascade,
}

impl CompactWeights {
    /// Stable tag for config hashing.
    pub fn tag(self) -> u32 {
        match self {
            CompactWeights::Uniform => 0,
            CompactWeights::Constant => 1,
            CompactWeights::WeightedCascade => 2,
        }
    }
}

/// Node-block width (in bits) for the cache-blocked scatter: 64K nodes per
/// block keeps one block's cursor + target working set around the L2 size.
const SCATTER_BLOCK_BITS: usize = 16;

impl Graph {
    /// Builds the graph by replaying `spec`'s edge stream twice
    /// (degree count, then cache-blocked fill), sorting each adjacency row,
    /// and assigning `weights`. Every emitted edge `(u, v)` becomes the two
    /// arcs `u -> v` and `v -> u`, so the topology is symmetric and the
    /// in-side arrays are derived from the out-side without a second
    /// scatter.
    pub fn build_streamed(spec: &StreamSpec, weights: CompactWeights) -> Result<Graph, GraphError> {
        convert::node_count(spec.n)?;
        let n = spec.n;

        // Pass 1: degrees. Undirected symmetry means out-degree equals
        // in-degree, so one count serves both directions.
        let mut deg = vec![0u32; n];
        let mut arcs: u64 = 0;
        spec.for_each_edge_block(|block| {
            for &(u, v) in block {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
            arcs += 2 * block.len() as u64;
        })?;
        if u32::try_from(arcs).is_err() {
            return Err(GraphError::IdOverflow(IdOverflow {
                value: arcs as usize,
                role: "arc index",
            }));
        }
        let m = arcs as usize;

        let mut out_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        out_offsets.push(0);
        for &d in &deg {
            acc += d;
            out_offsets.push(acc);
        }

        // Pass 2: cache-blocked scatter. Arcs are staged per 64K-node
        // source block and flushed after every edge block, so the cursor
        // and target writes of one flush stay inside a single block-sized
        // window of the arrays.
        let n_blocks = (n >> SCATTER_BLOCK_BITS) + 1;
        let mut staging: Vec<Vec<(u32, u32)>> = (0..n_blocks).map(|_| Vec::new()).collect();
        let mut cursor: Vec<u32> = out_offsets[..n].to_vec();
        let mut out_targets = vec![0 as NodeId; m];
        spec.for_each_edge_block(|block| {
            for &(u, v) in block {
                staging[(u as usize) >> SCATTER_BLOCK_BITS].push((u, v));
                staging[(v as usize) >> SCATTER_BLOCK_BITS].push((v, u));
            }
            for bucket in staging.iter_mut() {
                for &(src, dst) in bucket.iter() {
                    let c = &mut cursor[src as usize];
                    out_targets[*c as usize] = dst;
                    *c += 1;
                }
                bucket.clear();
            }
        })?;

        // Sorted-adjacency invariant: weights are per-endpoint functions
        // (assigned below), so rows can be sorted before weights exist.
        for v in 0..n {
            let (s, e) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
            out_targets[s..e].sort_unstable();
        }

        let out_weights: Vec<f32> = match weights {
            CompactWeights::Uniform => vec![1.0; m],
            CompactWeights::Constant => vec![CONST_WEIGHT; m],
            CompactWeights::WeightedCascade => out_targets
                .iter()
                .map(|&t| {
                    let d = deg[t as usize];
                    if d == 0 {
                        0.0
                    } else {
                        1.0 / d as f32
                    }
                })
                .collect(),
        };
        let in_weights: Vec<f32> = match weights {
            CompactWeights::Uniform => vec![1.0; m],
            CompactWeights::Constant => vec![CONST_WEIGHT; m],
            CompactWeights::WeightedCascade => {
                let mut w = vec![0f32; m];
                for v in 0..n {
                    let d = deg[v];
                    if d > 0 {
                        let (s, e) = (out_offsets[v] as usize, out_offsets[v + 1] as usize);
                        w[s..e].fill(1.0 / d as f32);
                    }
                }
                w
            }
        };

        // Undirected symmetry: the in-sources of v are exactly its
        // neighbors, already sorted — the arrays are shared by value.
        Ok(Graph::from_parts(
            n,
            Arr::from(out_offsets.clone()),
            Arr::from(out_targets.clone()),
            Arr::from(out_weights),
            Arr::from(out_offsets),
            Arr::from(out_targets),
            Arr::from(in_weights),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Edge;
    use crate::stream::StreamFamily;
    use crate::weights::{assign_weights, WeightModel};

    fn spec(n: usize) -> StreamSpec {
        StreamSpec {
            family: StreamFamily::BarabasiAlbert { m_attach: 3 },
            n,
            seed: 17,
        }
    }

    #[test]
    fn streamed_build_validates() {
        for w in [
            CompactWeights::Uniform,
            CompactWeights::Constant,
            CompactWeights::WeightedCascade,
        ] {
            let g = Graph::build_streamed(&spec(500), w).unwrap();
            g.validate().unwrap();
            assert_eq!(g.num_nodes(), 500);
        }
    }

    #[test]
    fn streamed_build_matches_edge_list_build() {
        let s = spec(400);
        let streamed = Graph::build_streamed(&s, CompactWeights::WeightedCascade).unwrap();

        // Reference path: collect the same stream, build a mid-size Graph,
        // assign WC weights the mid-size way.
        let mut edges = Vec::new();
        s.for_each_edge(|u, v| {
            edges.push(Edge::unweighted(u, v));
            edges.push(Edge::unweighted(v, u));
        })
        .unwrap();
        let g = assign_weights(
            &Graph::from_edges(400, &edges).unwrap(),
            WeightModel::WeightedCascade,
            0,
        );

        for v in 0..400u32 {
            assert_eq!(streamed.out_neighbors(v), g.out_neighbors(v), "node {v}");
            assert_eq!(
                streamed.out_weights(v),
                g.out_weights(v),
                "node {v} weights"
            );
            assert_eq!(streamed.in_neighbors(v), g.in_neighbors(v));
            assert_eq!(streamed.in_weights(v), g.in_weights(v));
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::build_streamed(
            &StreamSpec {
                family: StreamFamily::BarabasiAlbert { m_attach: 2 },
                n: 0,
                seed: 1,
            },
            CompactWeights::Uniform,
        )
        .unwrap();
        g.validate().unwrap();
        assert_eq!(g.num_edges(), 0);
    }
}
