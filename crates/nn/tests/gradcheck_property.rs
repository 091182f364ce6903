//! Property-based gradient checking: random MLP architectures, random
//! inputs, random losses — the analytical gradients must match central
//! finite differences everywhere.

use mcpb_nn::prelude::*;
use proptest::prelude::*;

fn finite_diff_param(
    store: &mut ParamStore,
    id: ParamId,
    f: &mut dyn FnMut(&ParamStore) -> f32,
    eps: f32,
) -> Tensor {
    let base = store.value(id).clone();
    let mut grad = Tensor::zeros(base.rows, base.cols);
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus.data[i] += eps;
        store.value_mut(id).data[i] = plus.data[i];
        let fp = f(store);
        let mut minus = base.clone();
        minus.data[i] -= eps;
        store.value_mut(id).data[i] = minus.data[i];
        let fm = f(store);
        store.value_mut(id).data[i] = base.data[i];
        grad.data[i] = (fp - fm) / (2.0 * eps);
    }
    grad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every parameter gradient of a random ReLU MLP + MSE matches finite
    /// differences.
    #[test]
    fn mlp_param_grads_match_finite_differences(
        seed in 0u64..500,
        in_dim in 1usize..4,
        hidden in 1usize..6,
        out_dim in 1usize..3,
        batch in 1usize..4,
    ) {
        let mut store = ParamStore::new(seed);
        let mlp = Mlp::new(&mut store, "g", &[in_dim, hidden, out_dim], Activation::Relu);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xabc);
        let x = Tensor::xavier(batch, in_dim, &mut rng);
        let y = Tensor::xavier(batch, out_dim, &mut rng);

        // Analytical gradients.
        let mut tape = Tape::new();
        let xv = tape.input(x.clone());
        let out = mlp.forward(&mut tape, &store, xv);
        let loss = tape.mse_loss(out, y.clone());
        tape.backward(loss);
        let grads = mcpb_nn::optim::merge_grads(tape.param_grads());

        let mut eval = |s: &ParamStore| -> f32 {
            let mut t = Tape::new();
            let xv = t.input(x.clone());
            let out = mlp.forward(&mut t, s, xv);
            let loss = t.mse_loss(out, y.clone());
            t.value(loss).item()
        };
        for (id, g) in grads {
            let fd = finite_diff_param(&mut store, id, &mut eval, 1e-3);
            for i in 0..g.len() {
                let diff = (g.data[i] - fd.data[i]).abs();
                let scale = g.data[i].abs().max(fd.data[i].abs()).max(1.0);
                prop_assert!(
                    diff / scale < 2e-2,
                    "param {} [{}]: analytic {} vs fd {}",
                    store.name(id), i, g.data[i], fd.data[i]
                );
            }
        }
    }

    /// Adam monotonically reduces a convex quadratic from any start.
    #[test]
    fn adam_descends_quadratics(start in -5.0f32..5.0, target in -5.0f32..5.0) {
        let mut store = ParamStore::new(0);
        let w = store.register("w", Tensor::scalar(start));
        let mut adam = Adam::new(0.1);
        let loss_at = |store: &ParamStore| {
            let v = store.value(w).item();
            (v - target) * (v - target)
        };
        let initial = loss_at(&store);
        for _ in 0..200 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let loss = tape.mse_loss(wv, Tensor::scalar(target));
            tape.backward(loss);
            let grads = tape.param_grads();
            adam.step(&mut store, &grads);
        }
        let final_loss = loss_at(&store);
        prop_assert!(final_loss <= initial.max(1e-6), "{initial} -> {final_loss}");
        prop_assert!(final_loss < 0.05, "did not converge: {final_loss}");
    }
}
