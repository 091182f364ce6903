//! Struc2Vec / structure2vec (Dai et al. 2016) — the embedding network of
//! S2V-DQN and RL4IM.
//!
//! The embedding recursion (T synchronous rounds, starting from zeros):
//!
//! ```text
//! mu_v <- relu( theta1 * x_v
//!             + theta2 * sum_{u in N(v)} mu_u
//!             + theta3 * sum_{(u,v) in E} relu(theta4 * w_uv) )
//! ```
//!
//! where `x_v` is a scalar node tag (e.g. the "already in the solution"
//! indicator S2V-DQN uses).

use crate::adjacency::{in_edge_incidence, neighbor_sum};
use mcpb_graph::Graph;
use mcpb_nn::prelude::*;
use std::sync::Arc;

/// Per-graph fixed operators the S2V forward pass needs.
#[derive(Debug, Clone)]
pub struct S2vGraph {
    /// Undirected neighbor-sum operator (`n x n`).
    pub nsum: Arc<SparseMatrix>,
    /// In-edge incidence operator (`n x E`).
    pub incidence: Arc<SparseMatrix>,
    /// Edge weights (`E x 1`, so `0 x 1` without edges) aligned with the
    /// incidence columns.
    pub edge_weights: Tensor,
    /// Node count.
    pub n: usize,
}

impl S2vGraph {
    /// Precomputes the operators for `g`.
    pub fn new(g: &Graph) -> Self {
        let (incidence, weights) = in_edge_incidence(g);
        Self {
            nsum: Arc::new(neighbor_sum(g)),
            incidence: Arc::new(incidence),
            edge_weights: Tensor::column(&weights),
            n: g.num_nodes(),
        }
    }
}

/// The Struc2Vec parameter set.
#[derive(Debug, Clone, Copy)]
pub struct S2v {
    theta1: ParamId,
    theta2: ParamId,
    theta3: ParamId,
    theta4: ParamId,
    /// Embedding dimension.
    pub dim: usize,
    /// Number of message-passing rounds.
    pub rounds: usize,
}

impl S2v {
    /// Registers parameters for embedding dimension `dim` and `rounds`
    /// rounds of message passing.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize, rounds: usize) -> Self {
        Self {
            theta1: store.register_xavier(&format!("{name}.theta1"), 1, dim),
            theta2: store.register_xavier(&format!("{name}.theta2"), dim, dim),
            theta3: store.register_xavier(&format!("{name}.theta3"), dim, dim),
            theta4: store.register_xavier(&format!("{name}.theta4"), 1, dim),
            dim,
            rounds,
        }
    }

    /// Runs the embedding recursion on the tape. `x` is the `n x 1`
    /// node-tag input already on the tape. Returns `n x dim` embeddings.
    ///
    /// This is the gradient path; no-gradient callers use
    /// [`S2vEmbedding`], which this serves as the reference for.
    pub fn embed(&self, tape: &mut Tape, store: &ParamStore, sg: &S2vGraph, x: Var) -> Var {
        let _span = mcpb_trace::span("nn.forward");
        let t1 = tape.param(store, self.theta1);
        let t2 = tape.param(store, self.theta2);
        let t3 = tape.param(store, self.theta3);
        let t4 = tape.param(store, self.theta4);

        // Edge term is loop-invariant: incidence * relu(w_e * theta4) * theta3.
        let we = tape.input(sg.edge_weights.clone());
        let edge_feat = tape.matmul(we, t4);
        let edge_relu = tape.relu(edge_feat);
        let edge_agg = tape.spmm(sg.incidence.clone(), edge_relu);
        let edge_term = tape.matmul(edge_agg, t3);

        // Node-tag term is loop-invariant too.
        let tag_term = tape.matmul(x, t1);

        let mut mu = tape.input(Tensor::zeros(sg.n, self.dim));
        for _ in 0..self.rounds {
            // audit:allow(MCPB013) — Arc refcount bump, not a buffer copy
            let pooled = tape.spmm(sg.nsum.clone(), mu);
            let msg = tape.matmul(pooled, t2);
            let sum1 = tape.add(tag_term, msg);
            let sum2 = tape.add(sum1, edge_term);
            mu = tape.relu(sum2);
        }
        mu
    }

    /// The tag-independent edge term `incidence * relu(w_e * theta4) *
    /// theta3` (`n x dim`), without a tape. It depends only on the graph
    /// and the parameters, so a greedy rollout computes it once and hands
    /// it to every [`S2vEmbedding`] it builds.
    pub fn edge_term(&self, store: &ParamStore, sg: &S2vGraph) -> Tensor {
        let mut edge_feat = sg.edge_weights.matmul(store.value(self.theta4));
        for v in edge_feat.data.iter_mut() {
            *v = v.max(0.0);
        }
        sg.incidence
            .matmul_dense(&edge_feat)
            .matmul(store.value(self.theta3))
    }
}

/// The embedding recursion without a tape, kept per round so re-tagging
/// node `v` recomputes only the rows it reaches: `v` in round 1, then `v`
/// and the rows that read the previous round's, which are their `nsum`
/// neighbours as `nsum` is symmetric (DESIGN.md, "Dirty-ball rule").
pub struct S2vEmbedding<'a> {
    s2v: &'a S2v,
    store: &'a ParamStore,
    sg: &'a S2vGraph,
    edge_term: &'a Tensor,
    /// The `n x 1` node tags.
    tags: Tensor,
    /// `mu[t]`: the embeddings after `t` rounds (`mu[0]` is the zero start).
    mu: Vec<Tensor>,
}

impl<'a> S2vEmbedding<'a> {
    /// Embeds `sg` from scratch, bit-identically to [`S2v::embed`];
    /// `edge_term` is [`S2v::edge_term`] for the same `store` and `sg`.
    pub fn new(
        s2v: &'a S2v,
        store: &'a ParamStore,
        sg: &'a S2vGraph,
        edge_term: &'a Tensor,
        tags: &[f32],
    ) -> Self {
        let _span = mcpb_trace::span("nn.forward");
        assert_eq!(tags.len(), sg.n, "one tag per node");
        let shape = (edge_term.rows, edge_term.cols);
        assert_eq!(shape, (sg.n, s2v.dim), "edge term shape");
        let tags = Tensor::column(tags);
        let tag_term = tags.matmul(store.value(s2v.theta1));
        let mut mu = vec![Tensor::zeros(sg.n, s2v.dim)];
        for t in 0..s2v.rounds {
            let mut h = sg.nsum.matmul_dense(&mu[t]).matmul(store.value(s2v.theta2));
            // The tape's `relu((tag_term + msg) + edge_term)`.
            for ((h, &x), &e) in h.data.iter_mut().zip(&tag_term.data).zip(&edge_term.data) {
                *h = (x + *h + e).max(0.0);
            }
            mu.push(h);
        }
        Self {
            s2v,
            store,
            sg,
            edge_term,
            tags,
            mu,
        }
    }

    /// The output embeddings (`n x dim`).
    pub fn mu(&self) -> &Tensor {
        &self.mu[self.s2v.rounds]
    }

    /// One tag per node.
    pub fn tags(&self) -> &[f32] {
        &self.tags.data
    }

    /// Sets `v`'s tag; returns the output rows it recomputed, ascending.
    pub fn retag(&mut self, v: u32, tag: f32) -> Vec<u32> {
        let _span = mcpb_trace::span("nn.forward");
        self.tags.data[v as usize] = tag;
        let nsum = &self.sg.nsum;
        let mut rows = Vec::new();
        for t in 1..=self.s2v.rounds {
            let readers = rows.iter().flat_map(|&c: &u32| {
                &nsum.indices[nsum.offsets[c as usize]..nsum.offsets[c as usize + 1]]
            });
            rows = std::iter::once(v).chain(readers.copied()).collect();
            rows.sort_unstable();
            rows.dedup();
            self.recompute(t, &rows);
        }
        rows
    }

    /// Recomputes `rows` of round `t` through the kernels [`Self::new`]
    /// runs on every row.
    fn recompute(&mut self, t: usize, rows: &[u32]) {
        let (d, s2v, store) = (self.s2v.dim, self.s2v, self.store);
        let x: Vec<f32> = rows.iter().map(|&r| self.tags.data[r as usize]).collect();
        let tag_term = Tensor::column(&x).matmul(store.value(s2v.theta1));
        let (done, rest) = self.mu.split_at_mut(t);
        let nsum_mu = self.sg.nsum.matmul_dense_rows(rows, &done[t - 1]);
        let msg = nsum_mu.matmul(store.value(s2v.theta2));
        for (i, &r) in rows.iter().enumerate() {
            let r = r as usize;
            let terms = tag_term.row_slice(i).iter().zip(msg.row_slice(i));
            let terms = terms.zip(self.edge_term.row_slice(r));
            for (o, ((&x, &h), &e)) in rest[0].data[r * d..(r + 1) * d].iter_mut().zip(terms) {
                *o = (x + h + e).max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_graph::weights::{assign_weights, WeightModel};
    use mcpb_nn::optim::Adam;

    #[test]
    fn embeddings_have_requested_shape() {
        let g = generators::barabasi_albert(25, 2, 1);
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(0);
        let s2v = S2v::new(&mut store, "s2v", 8, 3);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(25, 1));
        let mu = s2v.embed(&mut tape, &store, &sg, x);
        assert_eq!((tape.value(mu).rows, tape.value(mu).cols), (25, 8));
    }

    #[test]
    fn node_tags_change_embeddings() {
        let g = generators::barabasi_albert(20, 2, 2);
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(1);
        let s2v = S2v::new(&mut store, "s2v", 4, 2);

        let run = |tag: f32| -> Tensor {
            let mut tape = Tape::new();
            let mut tags = Tensor::zeros(20, 1);
            tags.data[0] = tag;
            let x = tape.input(tags);
            let mu = s2v.embed(&mut tape, &store, &sg, x);
            tape.value(mu).clone()
        };
        let a = run(0.0);
        let b = run(1.0);
        assert_ne!(a, b, "tagging node 0 must perturb embeddings");
    }

    #[test]
    fn s2v_is_trainable_end_to_end() {
        // Regress pooled embedding -> number of edges across random graphs.
        let graphs: Vec<_> = (0..6u64)
            .map(|s| {
                assign_weights(
                    &generators::erdos_renyi(15, 15 + (s as usize) * 8, s),
                    WeightModel::Constant,
                    0,
                )
            })
            .collect();
        let mut store = ParamStore::new(3);
        let s2v = S2v::new(&mut store, "s2v", 8, 2);
        let head = Linear::new(&mut store, "head", 8, 1);
        let mut adam = Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let mut total = 0.0;
            for g in &graphs {
                let sg = S2vGraph::new(g);
                let target = g.num_edges() as f32 / 100.0;
                let mut tape = Tape::new();
                let x = tape.input(Tensor::zeros(g.num_nodes(), 1));
                let mu = s2v.embed(&mut tape, &store, &sg, x);
                let pooled = tape.sum_rows(mu);
                let pred = head.forward(&mut tape, &store, pooled);
                let loss = tape.mse_loss(pred, Tensor::scalar(target));
                tape.backward(loss);
                total += tape.value(loss).item();
                let grads = tape.param_grads();
                adam.step(&mut store, &grads);
            }
            first.get_or_insert(total);
            last = total;
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {:?} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn empty_graph_embeds_without_panic() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let sg = S2vGraph::new(&g);
        let mut store = ParamStore::new(0);
        let s2v = S2v::new(&mut store, "s2v", 4, 2);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(0, 1));
        let mu = s2v.embed(&mut tape, &store, &sg, x);
        assert_eq!(tape.value(mu).rows, 0);
    }
}
