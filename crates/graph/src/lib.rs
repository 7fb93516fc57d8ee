//! Graph containers and utilities for the Edge-Parallel GEE reproduction.
//!
//! This crate provides the substrate the Ligra-style engine and the GEE
//! algorithm run on:
//!
//! * [`EdgeList`] — the `E ∈ R^{s×3}` representation Algorithm 1 of the paper
//!   consumes: a flat list of `(source, destination, weight)` triples.
//! * [`CsrGraph`] — a compressed-sparse-row adjacency structure with optional
//!   per-edge weights and an optionally materialized transpose, the
//!   representation the Ligra engine traverses.
//! * [`builder::GraphBuilder`] — deduplicating/validating construction.
//! * [`io`] — plain edge-list text, SNAP-style text, and a compact binary
//!   format.
//! * [`transform`] — symmetrization, self-loop removal, vertex compaction.
//! * [`partition`] — contiguous source ranges of equal edge count, the
//!   unit of work of the edge-parallel traversals.
//! * [`stats`] — degree statistics used by the benchmark harness to describe
//!   workloads the way the paper's Table I does.
//!
//! Vertex ids are `u32` ([`VertexId`]): the paper's largest graph has 65M
//! vertices, comfortably inside `u32`, and halving index width matters for a
//! memory-bound workload (§IV of the paper).

pub mod builder;
pub mod compressed;
pub mod csr;
pub mod edge_list;
pub mod io;
pub mod ordering;
pub mod partition;
pub mod stats;
pub mod transform;

pub use builder::GraphBuilder;
pub use compressed::CompressedCsr;
pub use csr::{rows_in_edge_order, CsrGraph};
pub use edge_list::{Edge, EdgeList};
pub use partition::edge_balanced_ranges;

/// Vertex identifier. 32 bits: the paper's graphs top out at 65M vertices.
pub type VertexId = u32;

/// Edge weight type. The paper's Algorithm 1 is formulated for weighted
/// directed graphs with `f64` weights; unweighted graphs use unit weights.
pub type Weight = f64;

/// Errors produced while building or loading graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id `>= n`.
    VertexOutOfRange {
        /// Offending vertex id.
        vertex: u64,
        /// Number of vertices in the graph.
        n: u64,
    },
    /// A weight was NaN or infinite.
    InvalidWeight {
        /// Edge index in the input order.
        edge_index: usize,
    },
    /// An I/O error wrapped from `std::io`.
    Io(std::io::Error),
    /// A parse error with line number context.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable message.
        message: String,
    },
    /// Binary format violation.
    Format(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex id {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::InvalidWeight { edge_index } => {
                write!(f, "edge {edge_index} has a non-finite weight")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
