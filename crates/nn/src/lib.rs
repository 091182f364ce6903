//! # mcpb-nn
//!
//! A minimal from-scratch neural-network substrate: dense tensors, a
//! define-by-run reverse-mode autodiff [`tape::Tape`], parameter storage,
//! layers, and the Adam optimizer.
//!
//! This replaces the PyTorch/GPU stack the paper's Deep-RL methods were
//! built on (see DESIGN.md's substitution table): the op set covers exactly
//! the GCN / Struc2Vec message passing, Q-value heads, and TD-regression
//! losses those methods need, and every op is gradient-checked against
//! finite differences. The tape is the gradient path only: [`Mlp::eval`]
//! runs every no-grad forward off it, through the same kernels, bit for bit.
//!
//! ```
//! use mcpb_nn::prelude::*;
//!
//! let mut store = ParamStore::new(0);
//! let mlp = Mlp::new(&mut store, "demo", &[2, 4, 1], Activation::Relu);
//! let mut tape = Tape::new();
//! let x = tape.input(Tensor::from_slice(1, 2, &[0.5, -0.5]));
//! let y = mlp.forward(&mut tape, &store, x);
//! assert_eq!(tape.value(y).cols, 1);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod params;
pub mod reference;
pub mod tape;
pub mod tensor;

pub use gradcheck::{grad_check, GradCheckError, GradCheckReport};
pub use layers::{Activation, Linear, Mlp};
pub use optim::{merge_grads, Adam};
pub use params::{ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use tensor::{SparseMatrix, Tensor};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::layers::{Activation, Linear, Mlp};
    pub use crate::optim::{merge_grads, Adam};
    pub use crate::params::{ParamId, ParamStore};
    pub use crate::tape::{Tape, Var};
    pub use crate::tensor::{SparseMatrix, Tensor};
}
