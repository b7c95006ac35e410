//! Graph substrate for the `congest-hardness` workspace.
//!
//! This crate provides the undirected ([`Graph`]) and directed ([`DiGraph`])
//! weighted graph types that every other crate builds on, together with
//! generators ([`generators`]) and structural metrics ([`metrics`]).
//!
//! Both graph types use dense `usize` node identifiers in `0..n` and
//! insertion-order adjacency lists for traversal. Beside them, each node
//! keeps a sorted row of `(neighbor, edge weight)` pairs (out-neighbors
//! for [`DiGraph`]), so edge and weight queries are binary searches and
//! `edges()` yields ascending `(u, v)`. The graph storage hashes nothing:
//! [`Csr`], the flat compressed-sparse-row snapshot with dense
//! [`EdgeId`]s for hot loops, is read straight off the sorted rows. Edge
//! and node weights are `i64` (all constructions in the paper use
//! integral weights; see Section 2.4 of the paper where weights such as
//! `k⁴` appear).
//!
//! # Examples
//!
//! ```
//! use congest_graph::Graph;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1);
//! g.add_weighted_edge(1, 2, 5);
//! assert!(g.has_edge(0, 1));
//! assert_eq!(g.edge_weight(1, 2), Some(5));
//! assert_eq!(g.num_edges(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod directed;
pub mod dot;
mod error;
pub mod generators;
pub mod metrics;
mod undirected;

pub use csr::{Csr, EdgeId, NodePartition};
pub use directed::DiGraph;
pub use error::GraphError;
pub use undirected::Graph;

/// Node identifier: a dense index in `0..n`.
pub type NodeId = usize;

/// Edge/vertex weight type used throughout the workspace.
pub type Weight = i64;
