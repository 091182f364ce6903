//! # mcpb-im
//!
//! Influence Maximization (Problem 2 of the paper) under the Independent
//! Cascade model: Monte-Carlo diffusion, the RIS/RR-set polling machinery,
//! and every traditional solver the benchmark uses — IMM, OPIM, Degree
//! Discount, Single Discount, CELF greedy, and the CHANGE baseline of the
//! RL4IM comparison.
//!
//! ```
//! use mcpb_graph::{generators, weights::{assign_weights, WeightModel}};
//! use mcpb_im::prelude::*;
//!
//! let g = assign_weights(
//!     &generators::barabasi_albert(100, 3, 0),
//!     WeightModel::WeightedCascade,
//!     0,
//! );
//! let (sol, _rr) = Imm::paper_default(0).run(&g, 5);
//! assert_eq!(sol.seeds.len(), 5);
//! ```

#![warn(missing_docs)]

pub mod annealing;
pub mod cascade;
pub mod celf;
pub mod celfpp;
pub mod change;
pub mod discount;
pub mod imm;
pub mod lt;
pub mod opim;
pub mod reference;
pub mod rrset;
pub mod scratch;
pub mod shard;
pub mod solver;
pub mod tim;

pub use annealing::SimulatedAnnealing;
pub use cascade::influence_mc;
pub use celf::CelfGreedy;
pub use celfpp::CelfPlusPlus;
pub use change::Change;
pub use discount::{DegreeDiscount, SingleDiscount};
pub use imm::{Imm, ImmParams};
pub use lt::{influence_mc_lt, LtRisGreedy};
pub use opim::{Opim, OpimParams};
pub use rrset::{sample_collection, sample_rr_set, RrCollection, SetsView};
pub use scratch::CascadeScratch;
pub use solver::{ImSolution, ImSolver};
pub use tim::TimPlus;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::annealing::SimulatedAnnealing;
    pub use crate::cascade::influence_mc;
    pub use crate::celf::CelfGreedy;
    pub use crate::celfpp::CelfPlusPlus;
    pub use crate::change::Change;
    pub use crate::discount::{DegreeDiscount, SingleDiscount};
    pub use crate::imm::{Imm, ImmParams};
    pub use crate::lt::{influence_mc_lt, LtRisGreedy};
    pub use crate::opim::{Opim, OpimParams};
    pub use crate::rrset::{sample_collection, sample_rr_set, RrCollection, SetsView};
    pub use crate::scratch::CascadeScratch;
    pub use crate::solver::{ImSolution, ImSolver};
    pub use crate::tim::TimPlus;
}
