//! The gradient-free `eval` path must reproduce the tape's forward bit for
//! bit: both run the same matmul and the same in-place bias and activation
//! kernels in the same order, so every no-grad caller (DQN Q values, the
//! target bootstrap) sees exactly what a tape forward would have produced.

use mcpb_nn::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ACTIVATIONS: [Activation; 2] = [Activation::Relu, Activation::Identity];

fn assert_bits(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols), "{what}: shape");
    for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

fn random(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-3.0..3.0)).collect();
    Tensor::from_slice(rows, cols, &data)
}

#[test]
fn mlp_eval_matches_tape_for_every_activation() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE7A1);
    for act in ACTIVATIONS {
        for rows in [0usize, 1, 3, 7, 64] {
            let mut store = ParamStore::new(rows as u64 + 17);
            let mlp = Mlp::new(&mut store, "m", &[5, 16, 16, 3], act);
            let x = random(rows, 5, &mut rng);
            let mut tape = Tape::new();
            let xv = tape.input(x.clone());
            let y = mlp.forward(&mut tape, &store, xv);
            let what = format!("{act:?} rows={rows}");
            assert_bits(&mlp.eval(&store, x), tape.value(y), &what);
        }
    }
}

#[test]
fn activations_match_the_tape_on_negative_pre_activations() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4E6);
    let mut store = ParamStore::new(3);
    let lin = Linear::new(&mut store, "l", 4, 9);
    store.value_mut(lin.bias).data.fill(-0.25);
    let x = random(6, 4, &mut rng);
    let pre = lin.eval(&store, &x);
    assert!(
        pre.data.iter().any(|&v| v < 0.0),
        "no negative pre-activation"
    );
    assert!(
        pre.data.iter().any(|&v| v > 0.0),
        "no positive pre-activation"
    );
    for act in ACTIVATIONS {
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let lv = lin.forward(&mut tape, &store, xv);
        assert_bits(&pre, tape.value(lv), "linear");
        let y = act.apply(&mut tape, lv);
        let mut eager = pre.clone();
        act.apply_in_place(&mut eager);
        assert_bits(&eager, tape.value(y), &format!("{act:?}"));
    }
}
