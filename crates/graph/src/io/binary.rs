//! Compact binary CSR format for fast reload of generated benchmark graphs.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   : 8 bytes  = b"GEECSR1\0"
//! flags   : u64      (bit 0: weighted)
//! n       : u64      (at most 2^32: vertex ids are u32)
//! s       : u64
//! offsets : (n+1) × u64
//! targets : s × u32
//! weights : s × f64   (only if weighted)
//! ```
//!
//! This is ~12 bytes/edge unweighted — Friendster-scale stand-ins reload in
//! seconds instead of re-generating.

use std::io::{Read, Write};

use super::frame::read_u64;
use super::header_vertex_count;
use crate::{CsrGraph, GraphError};

const MAGIC: &[u8; 8] = b"GEECSR1\0";
const FLAG_WEIGHTED: u64 = 1;
/// Most elements reserved up front per array. The header's counts are not
/// trusted for allocation: past this, arrays grow as their bytes arrive,
/// so a short file ends in an EOF error instead of a huge allocation.
const MAX_RESERVE: usize = 1 << 20;

/// Serialize a [`CsrGraph`] (transpose, if any, is not written).
pub fn write<W: Write>(mut w: W, g: &CsrGraph) -> crate::Result<()> {
    w.write_all(MAGIC)?;
    let flags: u64 = if g.is_weighted() { FLAG_WEIGHTED } else { 0 };
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    for &o in g.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    if let Some(ws) = g.weights() {
        for &x in ws {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Deserialize a [`CsrGraph`] written by [`write()`].
pub fn read<R: Read>(mut r: R) -> crate::Result<CsrGraph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(GraphError::Format("bad magic; not a GEECSR1 file".into()));
    }
    let flags = read_u64(&mut r)?;
    let weighted = flags & FLAG_WEIGHTED != 0;
    let n = header_vertex_count(read_u64(&mut r)?)?;
    let s = read_u64(&mut r)? as usize;
    let mut offsets = Vec::with_capacity((n + 1).min(MAX_RESERVE));
    for _ in 0..=n {
        offsets.push(read_u64(&mut r)? as usize);
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&s) {
        return Err(GraphError::Format(
            "offset array does not span edge count".into(),
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GraphError::Format("offsets not monotone".into()));
    }
    let mut targets = Vec::with_capacity(s.min(MAX_RESERVE));
    let mut buf4 = [0u8; 4];
    for _ in 0..s {
        r.read_exact(&mut buf4)?;
        let t = u32::from_le_bytes(buf4);
        if t as usize >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: t as u64,
                n: n as u64,
            });
        }
        targets.push(t);
    }
    let weights = if weighted {
        let mut ws = Vec::with_capacity(s.min(MAX_RESERVE));
        let mut buf8 = [0u8; 8];
        for _ in 0..s {
            r.read_exact(&mut buf8)?;
            ws.push(f64::from_le_bytes(buf8));
        }
        Some(ws)
    } else {
        None
    };
    Ok(CsrGraph::from_raw_parts(n, offsets, targets, weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, EdgeList};

    fn sample(weighted: bool) -> CsrGraph {
        let w = |i: usize| if weighted { i as f64 + 0.5 } else { 1.0 };
        let el = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1, w(0)),
                Edge::new(1, 2, w(1)),
                Edge::new(2, 0, w(2)),
                Edge::new(3, 3, w(3)),
            ],
        )
        .unwrap();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn round_trip_unweighted() {
        let g = sample(false);
        let mut buf = Vec::new();
        write(&mut buf, &g).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back.offsets(), g.offsets());
        assert_eq!(back.targets(), g.targets());
        assert!(!back.is_weighted());
    }

    #[test]
    fn round_trip_weighted() {
        let g = sample(true);
        let mut buf = Vec::new();
        write(&mut buf, &g).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(back.weights(), g.weights());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read(&b"NOTAFILE________"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn rejects_truncated() {
        let g = sample(false);
        let mut buf = Vec::new();
        write(&mut buf, &g).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read(buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_target_out_of_range() {
        let g = sample(false);
        let mut buf = Vec::new();
        write(&mut buf, &g).unwrap();
        // Corrupt the first target to a huge value. Header = 8 + 8 + 8 + 8 +
        // (n+1)*8 bytes.
        let target_start = 32 + 5 * 8;
        buf[target_start..target_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read(buf.as_slice()),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    /// A 32-byte header with counts `n` and `s`, then `body`.
    fn header(n: u64, s: u64, body: &[u64]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for x in [0, n, s].iter().chain(body) {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        buf
    }

    #[test]
    fn rejects_vertex_counts_past_u32_ids() {
        for n in [1 << 40, 1 << 61, u64::MAX] {
            let err = read(header(n, 0, &[]).as_slice()).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "n = {n}: {err}");
        }
    }

    #[test]
    fn huge_counts_in_a_short_file_end_in_eof() {
        // The largest legal n, and an edge count the offsets agree with:
        // both must fail on the missing bytes, not on the allocation.
        for buf in [header(1 << 32, 0, &[0]), header(1, 1 << 40, &[0, 1 << 40])] {
            let err = read(buf.as_slice()).unwrap_err();
            assert!(matches!(err, GraphError::Io(_)), "{err}");
        }
    }
}
