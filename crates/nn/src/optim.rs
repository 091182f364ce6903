//! The Adam optimizer, applying tape-collected gradients to a
//! [`ParamStore`].

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Adam (Kingma & Ba) with bias correction and optional global-norm clip.
#[derive(Debug, Clone, Copy)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Global-norm clip threshold (`None` disables clipping).
    pub clip_norm: Option<f32>,
    /// Step counter (drives bias correction); increment happens in `step`.
    pub t: u64,
}

impl Adam {
    /// Adam with standard hyper-parameters.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            t: 0,
        }
    }

    /// Applies one Adam step for every `(param, grad)` pair.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        self.t += 1;
        let scale = clip_scale(grads, self.clip_norm);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads {
            let (value, m, v) = store.adam_buffers(*id);
            for i in 0..value.len() {
                let gv = g.data[i] * scale;
                m.data[i] = self.beta1 * m.data[i] + (1.0 - self.beta1) * gv;
                v.data[i] = self.beta2 * v.data[i] + (1.0 - self.beta2) * gv * gv;
                let mhat = m.data[i] / bc1;
                let vhat = v.data[i] / bc2;
                value.data[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Sums gradients that share a [`ParamId`] — required before an optimizer
/// step whenever gradients were collected across several tapes (e.g. one
/// tape per replay transition), or when a parameter leaf was registered
/// more than once on a tape.
pub fn merge_grads(grads: Vec<(ParamId, Tensor)>) -> Vec<(ParamId, Tensor)> {
    let mut merged: Vec<(ParamId, Tensor)> = Vec::new();
    for (id, g) in grads {
        match merged.iter_mut().find(|(mid, _)| *mid == id) {
            Some((_, acc)) => acc.add_assign(&g),
            None => merged.push((id, g)),
        }
    }
    merged
}

fn clip_scale(grads: &[(ParamId, Tensor)], clip: Option<f32>) -> f32 {
    let Some(clip) = clip else { return 1.0 };
    let total: f32 = grads
        .iter()
        .map(|(_, g)| g.data.iter().map(|&v| v * v).sum::<f32>())
        .sum();
    let norm = total.sqrt();
    if norm > clip && norm > 0.0 {
        clip / norm
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Fits y = w*x + b to a line with Adam.
    fn fit_line() -> (f32, f32) {
        let mut store = ParamStore::new(3);
        let w = store.register("w", Tensor::scalar(0.0));
        let b = store.register("b", Tensor::scalar(0.0));
        let mut adam = Adam::new(0.05);
        let xs = [-2.0f32, -1.0, 0.0, 1.0, 2.0];
        // Ground truth: y = 3x - 1.
        let ys: Vec<f32> = xs.iter().map(|&x| 3.0 * x - 1.0).collect();
        for _ in 0..2000 {
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let bv = tape.param(&store, b);
            let x = tape.input(Tensor::column(&xs));
            let wx = tape.matmul(x, wv);
            let ones = tape.input(Tensor::column(&[1.0; 5]));
            let bcol = tape.matmul(ones, bv);
            let pred = tape.add(wx, bcol);
            let loss = tape.mse_loss(pred, Tensor::column(&ys));
            tape.backward(loss);
            let grads = tape.param_grads();
            adam.step(&mut store, &grads);
        }
        (store.value(w).item(), store.value(b).item())
    }

    #[test]
    fn adam_fits_linear_regression() {
        let (w, b) = fit_line();
        assert!((w - 3.0).abs() < 0.05, "w {w}");
        assert!((b + 1.0).abs() < 0.05, "b {b}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new(0);
        let w = store.register("w", Tensor::scalar(0.0));
        let huge = Tensor::scalar(1e6);
        let mut adam = Adam::new(0.1);
        adam.clip_norm = Some(1.0);
        adam.step(&mut store, &[(w, huge)]);
        assert!(
            store.value(w).item().abs() <= 0.2,
            "{}",
            store.value(w).item()
        );
    }

    #[test]
    fn adam_step_counter_advances() {
        let mut store = ParamStore::new(0);
        let w = store.register("w", Tensor::scalar(1.0));
        let mut adam = Adam::new(0.01);
        adam.step(&mut store, &[(w, Tensor::scalar(1.0))]);
        adam.step(&mut store, &[(w, Tensor::scalar(1.0))]);
        assert_eq!(adam.t, 2);
        assert!(store.value(w).item() < 1.0);
    }
}
