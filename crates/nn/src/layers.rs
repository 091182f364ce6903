//! Layer abstractions over the tape: `Linear` and `Mlp`.

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};

/// A dense affine layer `y = x W + b` whose parameters live in a store.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight parameter (`in_dim x out_dim`).
    pub weight: ParamId,
    /// Bias parameter (`1 x out_dim`).
    pub bias: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Registers weight and bias in `store`.
    pub fn new(store: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        let weight = store.register_xavier(&format!("{name}.weight"), in_dim, out_dim);
        let bias = store.register_zeros(&format!("{name}.bias"), 1, out_dim);
        Self {
            weight,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `x` (`n x in_dim`) on `tape`.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.weight);
        let b = tape.param(store, self.bias);
        let xw = tape.matmul(x, w);
        tape.add_bias(xw, b)
    }
}

/// Activation applied between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    /// Applies the activation to `x` on `tape`.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
            Activation::Tanh => tape.tanh(x),
            Activation::Identity => x,
        }
    }
}

/// A multilayer perceptron with a shared hidden activation and a linear
/// output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer dimensions, e.g. `[in, h, out]`.
    pub fn new(store: &mut ParamStore, name: &str, dims: &[usize], activation: Activation) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1]))
            .collect();
        Self { layers, activation }
    }

    /// Forward pass: hidden activations between layers, linear final layer.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, mut x: Var) -> Var {
        let _span = mcpb_trace::span("nn.forward");
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(tape, store, x);
            if i != last {
                x = self.activation.apply(tape, x);
            }
        }
        x
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("mlp has layers").out_dim
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("mlp has layers").in_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new(0);
        let lin = Linear::new(&mut store, "l", 4, 3);
        let mut tape = Tape::new();
        let x = tape.input(Tensor::zeros(5, 4));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!((tape.value(y).rows, tape.value(y).cols), (5, 3));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut store = ParamStore::new(11);
        let mlp = Mlp::new(&mut store, "xor", &[2, 8, 1], Activation::Tanh);
        let mut adam = Adam::new(0.05);
        let xs = Tensor::from_slice(4, 2, &[0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Tensor::column(&[0., 1., 1., 0.]);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            let mut tape = Tape::new();
            let x = tape.input(xs.clone());
            let out = mlp.forward(&mut tape, &store, x);
            let s = tape.sigmoid(out);
            let loss = tape.mse_loss(s, ys.clone());
            tape.backward(loss);
            final_loss = tape.value(loss).item();
            let grads = tape.param_grads();
            adam.step(&mut store, &grads);
        }
        assert!(final_loss < 0.03, "xor loss {final_loss}");
    }

    #[test]
    fn mlp_dims() {
        let mut store = ParamStore::new(0);
        let mlp = Mlp::new(&mut store, "m", &[3, 5, 7, 2], Activation::Relu);
        assert_eq!(mlp.in_dim(), 3);
        assert_eq!(mlp.out_dim(), 2);
        // 3 layers x 2 params each.
        assert_eq!(store.len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_rejects_single_dim() {
        let mut store = ParamStore::new(0);
        let _ = Mlp::new(&mut store, "m", &[3], Activation::Relu);
    }
}
