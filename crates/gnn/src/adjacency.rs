//! Conversions from [`mcpb_graph::Graph`] into the sparse operators GNN
//! layers consume.

use mcpb_graph::{Graph, NodeId};
use mcpb_nn::SparseMatrix;

/// Undirected neighbor-sum operator: `A[v][u] = 1` if `u` and `v` are
/// connected in either direction. Used by Struc2Vec's neighbor pooling.
pub fn neighbor_sum(g: &Graph) -> SparseMatrix {
    let n = g.num_nodes();
    let mut triplets: Vec<(u32, u32, f32)> = Vec::with_capacity(2 * g.num_edges());
    for v in 0..n as NodeId {
        let mut nbrs: Vec<NodeId> = g
            .out_neighbors(v)
            .iter()
            .chain(g.in_neighbors(v))
            .copied()
            .filter(|&u| u != v)
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        for u in nbrs {
            triplets.push((v, u, 1.0));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// GCN-normalized adjacency with self-loops:
/// `Â = D^{-1/2} (A + I) D^{-1/2}` over the undirected view (Kipf & Welling).
pub fn gcn_normalized(g: &Graph) -> SparseMatrix {
    let n = g.num_nodes();
    // Undirected unweighted view + self loops.
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for e in g.edges() {
        if e.src != e.dst {
            adj[e.src as usize].push(e.dst);
            adj[e.dst as usize].push(e.src);
        }
    }
    for (v, list) in adj.iter_mut().enumerate() {
        list.push(v as NodeId);
        list.sort_unstable();
        list.dedup();
    }
    let degree: Vec<f32> = adj.iter().map(|l| l.len() as f32).collect();
    let mut triplets = Vec::new();
    for v in 0..n {
        for &u in &adj[v] {
            let norm = 1.0 / (degree[v] * degree[u as usize]).sqrt();
            triplets.push((v as u32, u, norm));
        }
    }
    SparseMatrix::from_triplets(n, n, &triplets)
}

/// Node-by-edge incidence operator mapping per-edge rows to node rows by
/// summation over *in-edges*: `(N x E)` with `M[v][e] = 1` when edge `e`
/// points at `v`. Paired with an `(E x d)` per-edge feature matrix this
/// aggregates edge features into nodes (Struc2Vec's θ4 term).
pub fn in_edge_incidence(g: &Graph) -> (SparseMatrix, Vec<f32>) {
    let n = g.num_nodes();
    let mut triplets = Vec::with_capacity(g.num_edges());
    let mut edge_weights = Vec::with_capacity(g.num_edges());
    for (eid, e) in g.edges().enumerate() {
        triplets.push((e.dst, eid as u32, 1.0));
        edge_weights.push(e.weight);
    }
    (
        SparseMatrix::from_triplets(n, g.num_edges(), &triplets),
        edge_weights,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::Edge;
    use mcpb_nn::Tensor;

    fn path() -> Graph {
        Graph::from_edges(3, &[Edge::new(0, 1, 0.5), Edge::new(1, 2, 2.0)]).unwrap()
    }

    #[test]
    fn neighbor_sum_is_symmetric() {
        let s = neighbor_sum(&path());
        let x = Tensor::column(&[1.0, 10.0, 100.0]);
        let y = s.matmul_dense(&x);
        // node0 <- node1; node1 <- node0 + node2; node2 <- node1.
        assert_eq!(y.data, vec![10.0, 101.0, 10.0]);
    }

    #[test]
    fn gcn_rows_are_normalized() {
        let a = gcn_normalized(&path());
        // D^{-1/2}(A+I)D^{-1/2} row sums equal 1 exactly only for regular
        // graphs; in general they stay within (0, sqrt(d_max)]. For the
        // 3-path: row 1 sums to 2/sqrt(6) + 1/3 ~= 1.15.
        let x = Tensor::column(&[1.0, 1.0, 1.0]);
        let y = a.matmul_dense(&x);
        assert!((y.data[1] - (2.0 / 6.0f32.sqrt() + 1.0 / 3.0)).abs() < 1e-5);
        for (&v, i) in y.data.iter().zip(0..) {
            assert!(v > 0.0 && v <= 2.0, "row {i} -> {v}");
        }
    }

    #[test]
    fn incidence_aggregates_edge_features() {
        let (inc, w) = in_edge_incidence(&path());
        assert_eq!(w, vec![0.5, 2.0]);
        // One feature per edge: its weight.
        let ef = Tensor::column(&w);
        let agg = inc.matmul_dense(&ef);
        // node1 receives edge (0,1), node2 receives edge (1,2).
        assert_eq!(agg.data, vec![0.0, 0.5, 2.0]);
    }

    #[test]
    fn empty_graph_operators() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(neighbor_sum(&g).values.len(), 0);
        assert_eq!(gcn_normalized(&g).values.len(), 0);
    }
}
