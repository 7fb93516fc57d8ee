//! Graph file formats.
//!
//! * [`edgelist`] — whitespace-separated `u v [w]` lines, one edge per line.
//! * [`snap`] — the SNAP repository text format (`#`-comments, tab-separated
//!   pairs, arbitrary sparse vertex ids which are compacted on load).
//! * [`binary`] — a compact little-endian binary CSR dump for fast reload of
//!   generated benchmark graphs.
//! * [`frame`] — length-prefixed, CRC-checksummed binary frames and the
//!   little-endian scalar primitives shared by [`binary`] and the
//!   `gee-serve` durability subsystem (WAL + checkpoints).

pub mod binary;
pub mod edge_stream;
pub mod edgelist;
pub mod frame;
pub mod mtx;
pub mod snap;

use crate::GraphError;

/// A binary header's vertex count, refused past `2^32`: vertex ids are
/// `u32`, so a larger count can only be a corrupt or hostile header.
pub(crate) fn header_vertex_count(n: u64) -> crate::Result<usize> {
    if n > 1 << 32 {
        return Err(GraphError::Format(format!(
            "header declares {n} vertices; vertex ids are u32"
        )));
    }
    Ok(n as usize)
}
