//! Graph Convolutional Network layers (Kipf & Welling 2017) — the encoder
//! used by GCOMB, Geometric-QN, and LeNSE.

use mcpb_nn::prelude::*;
use std::sync::Arc;

/// One GCN layer: `H' = act(Â H W + b)`.
#[derive(Debug, Clone, Copy)]
pub struct GcnLayer {
    linear: Linear,
    activation: Activation,
}

impl GcnLayer {
    /// Registers the layer's parameters.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        Self {
            linear: Linear::new(store, name, in_dim, out_dim),
            activation,
        }
    }

    /// Applies the layer given the (normalized) adjacency `adj`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        adj: Arc<SparseMatrix>,
        h: Var,
    ) -> Var {
        let agg = tape.spmm(adj, h);
        let lin = self.linear.forward(tape, store, agg);
        self.activation.apply(tape, lin)
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.linear.out_dim
    }
}

/// A stack of GCN layers.
#[derive(Debug, Clone)]
pub struct GcnEncoder {
    layers: Vec<GcnLayer>,
}

impl GcnEncoder {
    /// Builds an encoder with the given dimensions, ReLU between layers and
    /// a linear (identity) final layer.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "encoder needs at least two dims");
        let last = dims.len() - 2;
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i == last {
                    Activation::Identity
                } else {
                    Activation::Relu
                };
                GcnLayer::new(store, &format!("{name}.gcn{i}"), w[0], w[1], act)
            })
            .collect();
        Self { layers }
    }

    /// Encodes node features `x` (`n x in_dim`) into embeddings
    /// (`n x out_dim`).
    pub fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        adj: Arc<SparseMatrix>,
        mut x: Var,
    ) -> Var {
        let _span = mcpb_trace::span("nn.forward");
        for layer in &self.layers {
            // audit:allow(MCPB013) — Arc refcount bump, not a buffer copy
            x = layer.forward(tape, store, adj.clone(), x);
        }
        x
    }

    /// [`GcnEncoder::forward`] without a tape, through the same kernels,
    /// for every forward that needs no gradient.
    pub fn eval(&self, store: &ParamStore, adj: &SparseMatrix, mut x: Tensor) -> Tensor {
        let _span = mcpb_trace::span("nn.forward");
        for layer in &self.layers {
            x = layer.linear.eval(store, &adj.matmul_dense(&x));
            layer.activation.apply_in_place(&mut x);
        }
        x
    }

    /// Embedding dimension of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("encoder has layers").out_dim()
    }
}

/// Mean-pool readout: node embeddings (`n x d`) -> graph embedding (`1 x d`).
pub fn readout_mean(tape: &mut Tape, h: Var) -> Var {
    let n = tape.value(h).rows.max(1);
    let s = tape.sum_rows(h);
    tape.scale(s, 1.0 / n as f32)
}

/// [`readout_mean`] without a tape, through the same kernels.
pub fn readout_mean_eval(h: &Tensor) -> Tensor {
    let mut s = h.sum_rows();
    s.scale_assign(1.0 / h.rows.max(1) as f32);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::gcn_normalized;
    use mcpb_graph::generators;
    use mcpb_nn::optim::Adam;

    #[test]
    fn forward_shapes() {
        let g = generators::barabasi_albert(30, 2, 1);
        let adj = Arc::new(gcn_normalized(&g));
        let mut store = ParamStore::new(0);
        let enc = GcnEncoder::new(&mut store, "enc", &[4, 8, 5]);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(30, 4));
        let h = enc.forward(&mut tape, &store, adj, x);
        assert_eq!((tape.value(h).rows, tape.value(h).cols), (30, 5));
        assert_eq!(enc.out_dim(), 5);
    }

    #[test]
    fn readout_mean_shape_and_scale() {
        let mut tape = Tape::new();
        let x = tape.input(Tensor::from_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]));
        let m = readout_mean(&mut tape, x);
        assert_eq!(tape.value(m).data, vec![2.0, 3.0]);
    }

    #[test]
    fn gcn_can_learn_degree_regression() {
        // Train a 2-layer GCN to predict (normalized) node degree from a
        // constant input feature — a task solvable from the adjacency alone.
        let g = generators::barabasi_albert(40, 2, 3);
        let adj = Arc::new(gcn_normalized(&g));
        let n = g.num_nodes();
        let target: Vec<f32> = (0..n as u32).map(|v| g.degree(v) as f32 / 10.0).collect();
        let target = Tensor::column(&target);
        let mut store = ParamStore::new(5);
        let enc = GcnEncoder::new(&mut store, "enc", &[1, 16, 1]);
        let mut adam = Adam::new(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            let mut tape = Tape::new();
            let x = tape.input(Tensor::column(&vec![1.0; n]));
            let h = enc.forward(&mut tape, &store, adj.clone(), x);
            let loss = tape.mse_loss(h, target.clone());
            tape.backward(loss);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            let grads = tape.param_grads();
            adam.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(last < first * 0.3, "loss {first} -> {last}");
    }
}
