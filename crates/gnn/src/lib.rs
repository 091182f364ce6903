//! # mcpb-gnn
//!
//! Graph-neural-network substrate (§3.1): adjacency operators, GCN layers
//! (Kipf & Welling), the Struc2Vec embedding network (Dai et al.) used by
//! S2V-DQN/RL4IM, and DeepWalk features (Perozzi et al.) used by
//! Geometric-QN. Everything runs on the `mcpb-nn` autodiff tape.

#![warn(missing_docs)]

pub mod adjacency;
pub mod deepwalk;
pub mod gcn;
pub mod s2v;

pub use adjacency::{gcn_normalized, in_edge_incidence, neighbor_sum};
pub use deepwalk::deepwalk_features;
pub use gcn::{readout_mean, GcnEncoder, GcnLayer};
pub use s2v::{S2v, S2vGraph};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::adjacency::{gcn_normalized, in_edge_incidence, neighbor_sum};
    pub use crate::deepwalk::deepwalk_features;
    pub use crate::gcn::{readout_mean, GcnEncoder, GcnLayer};
    pub use crate::s2v::{S2v, S2vGraph};
}
