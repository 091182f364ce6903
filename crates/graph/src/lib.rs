//! # mcpb-graph
//!
//! Graph substrate for the MCP/IM benchmark suite: CSR graphs, random-graph
//! generators, the 20-dataset catalog of Table 1 (synthetic stand-ins),
//! topology statistics, IM edge-weight models, and the graph-similarity
//! metrics of §5.1 (PageRank, Louvain communities, the WL kernel, and
//! Spearman correlation).
//!
//! ```
//! use mcpb_graph::prelude::*;
//!
//! let g = generators::barabasi_albert(200, 3, 42);
//! let weighted = weights::assign_weights(&g, WeightModel::WeightedCascade, 0);
//! let stats = stats::graph_stats(&weighted, 16, 0);
//! assert_eq!(stats.nodes, 200);
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod catalog;
pub mod compact;
pub mod components;
pub mod convert;
pub mod csr;
pub mod diskcache;
pub mod generators;
pub mod io;
pub mod louvain;
pub mod pagerank;
pub mod spearman;
pub mod stats;
pub mod stream;
pub mod tier;
pub mod weights;
pub mod wl;

pub use bitset::BitSet;
pub use compact::CompactWeights;
pub use components::{connected_components, Components};
pub use convert::IdOverflow;
pub use csr::{Edge, Graph, GraphBuilder, GraphError, NodeId};
pub use stream::{StreamFamily, StreamSpec};
pub use tier::{large_catalog, large_config, LargeConfig};
pub use weights::WeightModel;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bitset::BitSet;
    pub use crate::catalog::{self, Dataset};
    pub use crate::compact::CompactWeights;
    pub use crate::components::{connected_components, Components};
    pub use crate::csr::{Edge, Graph, GraphBuilder, GraphError, NodeId};
    pub use crate::generators;
    pub use crate::io;
    pub use crate::louvain;
    pub use crate::pagerank;
    pub use crate::spearman;
    pub use crate::stats;
    pub use crate::stream::{StreamFamily, StreamSpec};
    pub use crate::tier::{large_catalog, large_config, LargeConfig};
    pub use crate::weights::{self, WeightModel};
    pub use crate::wl;
}
