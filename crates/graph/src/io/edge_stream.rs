//! Streaming binary edge format — `(u, v, w)` records read in bounded
//! chunks, so graphs larger than memory can feed a single-pass algorithm
//! like GEE without materializing the edge list.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic : 8 bytes = b"GEEES1\0\0"
//! n     : u64      (at most 2^32: vertex ids are u32)
//! s     : u64
//! edges : s × (u32 u, u32 v, f64 w)   — 16 bytes each
//! ```

use std::io::{Read, Write};

use super::header_vertex_count;
use crate::{Edge, EdgeList, GraphError};

const MAGIC: &[u8; 8] = b"GEEES1\0\0";

/// Write an edge list as a streamable binary file.
pub fn write<W: Write>(mut w: W, el: &EdgeList) -> crate::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(el.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(el.num_edges() as u64).to_le_bytes())?;
    for e in el.edges() {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
        w.write_all(&e.w.to_le_bytes())?;
    }
    Ok(())
}

/// Incremental reader over a streamed edge file.
pub struct EdgeStreamReader<R: Read> {
    inner: R,
    num_vertices: usize,
    num_edges: usize,
    remaining: usize,
}

impl<R: Read> EdgeStreamReader<R> {
    /// Open the stream, validating the header.
    pub fn new(mut inner: R) -> crate::Result<Self> {
        let mut magic = [0u8; 8];
        inner.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(GraphError::Format("bad magic; not a GEEES1 stream".into()));
        }
        let mut b = [0u8; 8];
        inner.read_exact(&mut b)?;
        let n = header_vertex_count(u64::from_le_bytes(b))?;
        inner.read_exact(&mut b)?;
        let s = u64::from_le_bytes(b) as usize;
        Ok(EdgeStreamReader {
            inner,
            num_vertices: n,
            num_edges: s,
            remaining: s,
        })
    }

    /// Declared vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Declared edge count. It comes from the file's header: do not size an
    /// allocation by it before the edges have been read.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Edges not yet consumed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Read up to `max` edges into `buf` (cleared first). Returns the count
    /// read; `0` means the stream is exhausted. Endpoints are validated
    /// against the declared vertex count.
    pub fn read_chunk(&mut self, buf: &mut Vec<Edge>, max: usize) -> crate::Result<usize> {
        buf.clear();
        let take = max.min(self.remaining);
        let mut rec = [0u8; 16];
        for _ in 0..take {
            self.inner.read_exact(&mut rec)?;
            let u = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
            let v = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
            let w = f64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
            if u as usize >= self.num_vertices || v as usize >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: u.max(v) as u64,
                    n: self.num_vertices as u64,
                });
            }
            buf.push(Edge::new(u, v, w));
        }
        self.remaining -= take;
        Ok(take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(
            5,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 2.5),
                Edge::new(3, 4, -0.5),
                Edge::unit(4, 0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_in_chunks() {
        let el = sample();
        let mut bytes = Vec::new();
        write(&mut bytes, &el).unwrap();
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.num_vertices(), 5);
        assert_eq!(r.num_edges(), 4);
        let mut buf = Vec::new();
        let mut all = Vec::new();
        loop {
            let got = r.read_chunk(&mut buf, 3).unwrap();
            if got == 0 {
                break;
            }
            all.extend_from_slice(&buf);
        }
        assert_eq!(all, el.edges());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn chunk_boundaries_exact() {
        let el = sample();
        let mut bytes = Vec::new();
        write(&mut bytes, &el).unwrap();
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        assert_eq!(r.read_chunk(&mut buf, 2).unwrap(), 2);
        assert_eq!(r.read_chunk(&mut buf, 2).unwrap(), 2);
        assert_eq!(r.read_chunk(&mut buf, 2).unwrap(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(EdgeStreamReader::new(&b"WRONGMAGIC______"[..]).is_err());
    }

    #[test]
    fn rejects_truncated_stream() {
        let el = sample();
        let mut bytes = Vec::new();
        write(&mut bytes, &el).unwrap();
        bytes.truncate(bytes.len() - 5);
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        assert!(r.read_chunk(&mut buf, 10).is_err());
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let el = sample();
        let mut bytes = Vec::new();
        write(&mut bytes, &el).unwrap();
        // Corrupt first record's u to a huge id: header is 24 bytes.
        bytes[24..28].copy_from_slice(&999u32.to_le_bytes());
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            r.read_chunk(&mut buf, 10),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    /// A header with counts `n` and `s` and no edge records.
    fn header(n: u64, s: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&s.to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_vertex_counts_past_u32_ids() {
        for n in [1 << 40, 1 << 61, u64::MAX] {
            let err = EdgeStreamReader::new(header(n, 0).as_slice()).err();
            assert!(matches!(err, Some(GraphError::Format(_))), "n = {n}");
        }
    }

    #[test]
    fn huge_edge_count_in_a_short_file_ends_in_eof() {
        let bytes = header(4, 1 << 40);
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            r.read_chunk(&mut buf, 1 << 20),
            Err(GraphError::Io(_))
        ));
    }
}
