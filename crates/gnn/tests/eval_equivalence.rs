//! `GcnEncoder::eval` and `readout_mean_eval` must reproduce the tape's
//! forward bit for bit: GCOMB's scores, LeNSE's quality estimate and
//! Geometric-QN's embedding come from them.

use mcpb_gnn::gcn::{readout_mean, readout_mean_eval, GcnEncoder};
use mcpb_gnn::gcn_normalized;
use mcpb_graph::generators;
use mcpb_nn::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn assert_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
    for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

#[test]
fn gcn_eval_matches_tape() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6C1);
    let adjs = [
        gcn_normalized(&generators::barabasi_albert(40, 2, 5)),
        SparseMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]),
        SparseMatrix::from_triplets(0, 0, &[]),
    ];
    for adj in adjs {
        let n = adj.rows;
        let mut store = ParamStore::new(n as u64);
        let enc = GcnEncoder::new(&mut store, "enc", &[4, 12, 12, 6]);
        // Signed features: the ReLU layers see negative pre-activations.
        let data: Vec<f32> = (0..n * 4).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let x = Tensor::from_slice(n, 4, &data);
        let adj = Arc::new(adj);
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let h = enc.forward(&mut tape, &store, adj.clone(), xv);
        let eager = enc.eval(&store, &adj, x);
        assert_bits(&eager, tape.value(h), &format!("encoder n={n}"));
        let pooled = readout_mean(&mut tape, h);
        assert_bits(&readout_mean_eval(&eager), tape.value(pooled), "readout");
    }
}
