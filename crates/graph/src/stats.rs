//! Topology statistics of Table 1: density, clustering coefficient,
//! triangle fraction, (effective) diameter, isolated fraction, vertex
//! centralization index (VCI), and Sum10.
//!
//! Diameters are estimated by BFS from a deterministic sample of source
//! nodes, mirroring how SNAP reports approximate (effective) diameters for
//! large graphs.

use crate::csr::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The full statistics row of Table 1 for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of directed arcs `|E|`.
    pub edges: usize,
    /// Density `|E| / |V|` (the paper reports arcs per node).
    pub density: f64,
    /// Average local clustering coefficient.
    pub clustering_coefficient: f64,
    /// Fraction of closed triangles (global transitivity), in percent.
    pub triangle_fraction_pct: f64,
    /// Approximate diameter (max BFS eccentricity over sampled sources).
    pub diameter: usize,
    /// 90th-percentile effective diameter over sampled BFS distances.
    pub effective_diameter: f64,
    /// Percentage of isolated nodes (no in- or out-edges).
    pub isolated_pct: f64,
    /// Vertex centralization index: max degree / |V|, in percent.
    pub vci_pct: f64,
    /// Share of total degree held by the top-10 nodes, in percent.
    pub sum10_pct: f64,
}

/// Computes every Table 1 statistic for `g`. `seed` drives the BFS source
/// sample for the diameter estimates; `bfs_samples` bounds the number of
/// sources (64 matches SNAP's ANF-style defaults for benchmark-sized
/// graphs).
pub fn graph_stats(g: &Graph, bfs_samples: usize, seed: u64) -> GraphStats {
    let n = g.num_nodes();
    let (diameter, effective_diameter) = estimate_diameters(g, bfs_samples, seed);
    GraphStats {
        nodes: n,
        edges: g.num_edges(),
        density: if n == 0 {
            0.0
        } else {
            g.num_edges() as f64 / n as f64
        },
        clustering_coefficient: average_clustering(g),
        triangle_fraction_pct: global_transitivity(g) * 100.0,
        diameter,
        effective_diameter,
        isolated_pct: isolated_fraction(g) * 100.0,
        vci_pct: vertex_centralization_index(g) * 100.0,
        sum10_pct: sum_top_k_degree_share(g, 10) * 100.0,
    }
}

/// Fraction of nodes with neither in- nor out-edges.
pub fn isolated_fraction(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let isolated = g
        .nodes()
        .filter(|&v| g.out_degree(v) == 0 && g.in_degree(v) == 0)
        .count();
    isolated as f64 / n as f64
}

/// Max total degree divided by the number of nodes.
pub fn vertex_centralization_index(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0);
    max_deg as f64 / n as f64
}

/// Share of total degree concentrated in the `k` highest-degree nodes.
pub fn sum_top_k_degree_share(g: &Graph, k: usize) -> f64 {
    let mut degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let total: usize = degrees.iter().sum();
    if total == 0 {
        return 0.0;
    }
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    let top: usize = degrees.iter().take(k).sum();
    top as f64 / total as f64
}

/// Undirected neighbor view: sorted, deduplicated union of in/out neighbors
/// excluding `v` itself.
fn undirected_neighbors(g: &Graph, v: NodeId) -> Vec<NodeId> {
    let mut nbrs: Vec<NodeId> = g
        .out_neighbors(v)
        .iter()
        .chain(g.in_neighbors(v))
        .copied()
        .filter(|&u| u != v)
        .collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    nbrs
}

/// Average local clustering coefficient over nodes with degree >= 2 in the
/// undirected view, averaged over *all* nodes (degree < 2 contributes 0),
/// matching the common SNAP definition.
pub fn average_clustering(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let adj: Vec<Vec<NodeId>> = g.nodes().map(|v| undirected_neighbors(g, v)).collect();
    let mut total = 0.0f64;
    for v in 0..n {
        let nbrs = &adj[v];
        let d = nbrs.len();
        if d < 2 {
            continue;
        }
        let mut links = 0usize;
        for (i, &a) in nbrs.iter().enumerate() {
            let a_nbrs = &adj[a as usize];
            for &b in &nbrs[i + 1..] {
                if a_nbrs.binary_search(&b).is_ok() {
                    links += 1;
                }
            }
        }
        total += 2.0 * links as f64 / (d * (d - 1)) as f64;
    }
    total / n as f64
}

/// Global transitivity: `3 * triangles / open-or-closed wedges`.
pub fn global_transitivity(g: &Graph) -> f64 {
    let n = g.num_nodes();
    let adj: Vec<Vec<NodeId>> = g.nodes().map(|v| undirected_neighbors(g, v)).collect();
    let mut triangles = 0u64; // counted 3x, once per corner ordering below
    let mut wedges = 0u64;
    for v in 0..n {
        let nbrs = &adj[v];
        let d = nbrs.len() as u64;
        wedges += d * d.saturating_sub(1) / 2;
        for (i, &a) in nbrs.iter().enumerate() {
            let a_nbrs = &adj[a as usize];
            for &b in &nbrs[i + 1..] {
                if a_nbrs.binary_search(&b).is_ok() {
                    triangles += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        triangles as f64 / wedges as f64
    }
}

/// BFS distances from `src` over the undirected view; unreachable nodes get
/// `usize::MAX`.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<usize> {
    let n = g.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Estimates (diameter, 90%-effective diameter) by BFS from up to
/// `samples` non-isolated sources chosen deterministically from `seed`.
pub fn estimate_diameters(g: &Graph, samples: usize, seed: u64) -> (usize, f64) {
    use rand::seq::SliceRandom;
    let candidates: Vec<NodeId> = g
        .nodes()
        .filter(|&v| g.out_degree(v) > 0 || g.in_degree(v) > 0)
        .collect();
    if candidates.is_empty() {
        return (0, 0.0);
    }
    let mut rng = crate::generators::rng(seed);
    let sources: Vec<NodeId> = candidates
        .choose_multiple(&mut rng, samples.min(candidates.len()))
        .copied()
        .collect();

    let mut all_dists: Vec<usize> = Vec::new();
    let mut diameter = 0usize;
    for &s in &sources {
        let dist = bfs_distances(g, s);
        for d in dist.into_iter().filter(|&d| d != usize::MAX && d > 0) {
            diameter = diameter.max(d);
            all_dists.push(d);
        }
    }
    if all_dists.is_empty() {
        return (0, 0.0);
    }
    all_dists.sort_unstable();
    let idx = ((all_dists.len() as f64) * 0.9).ceil() as usize;
    let idx = idx.clamp(1, all_dists.len()) - 1;
    (diameter, all_dists[idx] as f64)
}

/// Average weighted out-degree: mean over nodes of the sum of outgoing edge
/// weights (Tab. 4 middle section, metric 10).
pub fn average_weighted_degree(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        return 0.0;
    }
    let total: f64 = g
        .nodes()
        .map(|v| g.out_weights(v).iter().map(|&w| w as f64).sum::<f64>())
        .sum();
    total / n as f64
}

/// Average edge weight across all arcs (Tab. 4 middle section, metric 11).
pub fn average_edge_weight(g: &Graph) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        return 0.0;
    }
    let total: f64 = g.edges().map(|e| e.weight as f64).sum();
    total / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{Edge, GraphBuilder};

    fn undirected_triangle_plus_tail() -> Graph {
        // Triangle 0-1-2 plus pendant 2-3 and isolated node 4.
        let mut b = GraphBuilder::new(5);
        b.add_undirected(0, 1, 1.0)
            .add_undirected(1, 2, 1.0)
            .add_undirected(0, 2, 1.0)
            .add_undirected(2, 3, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn clustering_of_triangle() {
        let g = undirected_triangle_plus_tail();
        // Nodes 0,1 have cc 1.0; node 2 has cc 1/3; nodes 3,4 contribute 0.
        let cc = average_clustering(&g);
        assert!((cc - (1.0 + 1.0 + 1.0 / 3.0) / 5.0).abs() < 1e-9, "{cc}");
    }

    #[test]
    fn transitivity_of_triangle_with_tail() {
        let g = undirected_triangle_plus_tail();
        // wedges: node0:1, node1:1, node2:3, node3:0 => 5; closed: 3 (one per corner).
        let t = global_transitivity(&g);
        assert!((t - 3.0 / 5.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn isolated_and_vci() {
        let g = undirected_triangle_plus_tail();
        assert!((isolated_fraction(&g) - 0.2).abs() < 1e-9);
        // Max total degree: node 2 has out 3 + in 3 = 6 -> 6/5.
        assert!((vertex_centralization_index(&g) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn bfs_distances_on_path() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 1.0)
            .add_undirected(1, 2, 1.0)
            .add_undirected(2, 3, 1.0);
        let g = b.build().unwrap();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn diameter_of_path() {
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_undirected(i, i + 1, 1.0);
        }
        let g = b.build().unwrap();
        let (d, eff) = estimate_diameters(&g, 5, 0);
        assert_eq!(d, 4);
        assert!(eff >= 2.0 && eff <= 4.0, "{eff}");
    }

    #[test]
    fn bfs_ignores_direction() {
        let g = Graph::from_edges(3, &[Edge::unweighted(1, 0), Edge::unweighted(1, 2)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn sum10_on_star() {
        // Star: hub holds half the total degree.
        let mut b = GraphBuilder::new(12);
        for v in 1..12u32 {
            b.add_undirected(0, v, 1.0);
        }
        let g = b.build().unwrap();
        let share = sum_top_k_degree_share(&g, 1);
        assert!((share - 0.5).abs() < 1e-9, "{share}");
    }

    #[test]
    fn weighted_degree_stats() {
        let g = Graph::from_edges(2, &[Edge::new(0, 1, 0.5), Edge::new(1, 0, 0.25)]).unwrap();
        assert!((average_weighted_degree(&g) - 0.375).abs() < 1e-9);
        assert!((average_edge_weight(&g) - 0.375).abs() < 1e-9);
    }

    #[test]
    fn stats_struct_is_consistent() {
        let g = undirected_triangle_plus_tail();
        let s = graph_stats(&g, 8, 1);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 8);
        assert!((s.density - 1.6).abs() < 1e-9);
        assert!((s.isolated_pct - 20.0).abs() < 1e-9);
        assert!(s.diameter >= 2);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let s = graph_stats(&g, 4, 0);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.density, 0.0);
    }
}
