//! Connected components over the undirected view, used to sanity-check the
//! catalog stand-ins' giant-component size.

use crate::csr::{Graph, NodeId};
use std::collections::VecDeque;

/// A labeling of nodes into (weakly) connected components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component id per node, compacted to `0..count`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Sizes per component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.label {
            sizes[l as usize] += 1;
        }
        sizes
    }

    /// Size of the largest (giant) component; 0 for an empty graph.
    // audit:allow(MCPB017) crates/graph/tests/catalog_integrity.rs checks every stand-in's giant component
    pub fn giant_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Computes weakly connected components by BFS.
// audit:allow(MCPB017) crates/graph/tests/catalog_integrity.rs checks every stand-in's giant component
pub fn connected_components(g: &Graph) -> Components {
    let n = g.num_nodes();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = count;
        queue.push_back(start as NodeId);
        while let Some(v) = queue.pop_front() {
            for &u in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    Components {
        label,
        count: count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators;

    #[test]
    fn components_of_two_cliques() {
        let mut b = GraphBuilder::new(7);
        for base in [0u32, 3] {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    b.add_undirected(base + i, base + j, 1.0);
                }
            }
        }
        let g = b.build().unwrap(); // node 6 isolated
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.giant_size(), 3);
        assert_eq!(c.label[0], c.label[1]);
        assert_ne!(c.label[0], c.label[3]);
        assert_eq!(c.label[6], 2);
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 3]);
    }

    #[test]
    fn components_ignore_direction() {
        let g = Graph::from_edges(
            3,
            &[
                crate::csr::Edge::unweighted(1, 0),
                crate::csr::Edge::unweighted(1, 2),
            ],
        )
        .unwrap();
        assert_eq!(connected_components(&g).count, 1);
    }

    #[test]
    fn ba_graph_is_connected() {
        let g = generators::barabasi_albert(200, 2, 1);
        let c = connected_components(&g);
        assert_eq!(c.count, 1, "preferential attachment is connected");
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(connected_components(&g).count, 0);
        assert_eq!(connected_components(&g).giant_size(), 0);
        let g = Graph::from_edges(3, &[]).unwrap();
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
    }
}
