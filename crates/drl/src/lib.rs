//! # mcpb-drl
//!
//! Rust reimplementations of the five Deep-RL methods the paper benchmarks
//! (§3.2): S2V-DQN, GCOMB, RL4IM, Geometric-QN, and LeNSE. Each follows the
//! original architecture stage by stage on the `mcpb-nn` / `mcpb-gnn` /
//! `mcpb-rl` substrates, exposes `train` with validation checkpoints (for
//! the §5.2/§5.3 training-time and data-size studies), and implements the
//! common `McpSolver` / `ImSolver` traits for the harness.

#![warn(missing_docs)]

pub mod common;
pub mod gcomb;
pub mod geometric_qn;
pub mod lense;
pub mod rl4im;
pub mod s2v_dqn;

pub use common::{RewardOracle, Task, TrainError, TrainReport};
pub use gcomb::{Gcomb, GcombConfig, NoisePredictor};
pub use geometric_qn::{GeometricQn, GeometricQnConfig};
pub use lense::{Lense, LenseConfig};
pub use rl4im::{synthetic_training_pool, Rl4Im, Rl4ImConfig};
pub use s2v_dqn::{S2vDqn, S2vDqnConfig, S2vQNet};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::common::{RewardOracle, Task, TrainError, TrainReport};
    pub use crate::gcomb::{Gcomb, GcombConfig, NoisePredictor};
    pub use crate::geometric_qn::{GeometricQn, GeometricQnConfig};
    pub use crate::lense::{Lense, LenseConfig};
    pub use crate::rl4im::{synthetic_training_pool, Rl4Im, Rl4ImConfig};
    pub use crate::s2v_dqn::{S2vDqn, S2vDqnConfig, S2vQNet};
}
