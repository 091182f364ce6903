//! # mcpb-rl
//!
//! Reinforcement-learning substrate (§3.1): experience replay, exploration
//! schedules, and a generic per-action-feature DQN agent with target
//! network — the shared machinery underneath the five Deep-RL methods of
//! `mcpb-drl`. The episode loop that trains them lives in
//! `mcpb_drl::common::train_loop`.

#![warn(missing_docs)]

pub mod dqn;
pub mod replay;
pub mod schedule;

pub use dqn::{argmax, DqnAgent, DqnConfig, Transition};
pub use replay::ReplayBuffer;
pub use schedule::EpsilonSchedule;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::dqn::{argmax, DqnAgent, DqnConfig, Transition};
    pub use crate::replay::ReplayBuffer;
    pub use crate::schedule::EpsilonSchedule;
}
