//! Byte-compressed CSR (Ligra+-style): varint delta-encoded adjacency
//! lists, decoded on the fly during traversal.
//!
//! §IV of the paper concludes GEE is memory-bound ("two fused-multiply
//! adds per edge and two memory writes"), citing compressed structures
//! (CPMA, ref. 18 of the paper) as the direction for such workloads. This module provides
//! the classic compression the Ligra+ system applied to Ligra: per-vertex
//! neighbor lists sorted ascending, first neighbor stored as a
//! zigzag-encoded delta from the vertex id, the rest as gaps, all in
//! LEB128 varints. Typical social graphs compress to ~40–60% of the raw
//! 4-byte-per-target CSR, trading decode ALU work for memory bandwidth.
//! The `ablation-compression` bench measures that trade on GEE.
//!
//! Weights are not compressed (the paper's evaluation graphs are
//! unweighted); weighted graphs keep an uncompressed parallel array.

use rayon::prelude::*;

use crate::{CsrGraph, VertexId, Weight};

/// Byte-compressed adjacency.
#[derive(Debug, Clone)]
pub struct CompressedCsr {
    num_vertices: usize,
    num_edges: usize,
    /// Byte offset of each vertex's encoded list (`n+1` entries).
    offsets: Vec<usize>,
    /// Concatenated varint streams.
    data: Vec<u8>,
    /// Optional uncompressed weights, aligned with decode order.
    weights: Option<Vec<Weight>>,
    /// Edge-rank offsets (`n+1`): index of each vertex's first edge in
    /// decode order — needed to find a vertex's weights.
    edge_offsets: Vec<usize>,
}

/// Zigzag-encode a signed delta.
#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Zigzag-decode.
#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Append a LEB128 varint.
#[inline]
fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns (value, bytes consumed).
#[inline]
fn get_varint(data: &[u8]) -> (u64, usize) {
    let mut x = 0u64;
    let mut shift = 0;
    for (i, &b) in data.iter().enumerate() {
        x |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return (x, i + 1);
        }
        shift += 7;
    }
    panic!("truncated varint");
}

impl CompressedCsr {
    /// Compress a CSR graph. Neighbor lists are sorted ascending (weights,
    /// if any, are permuted alongside), which GEE permits: addition order
    /// within a vertex's list only reorders FP sums.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        // Encode each vertex independently (parallel), then concatenate.
        let encoded: Vec<(Vec<u8>, Vec<Weight>)> = (0..n as u32)
            .into_par_iter()
            .map(|v| {
                let nbrs = g.neighbors(v);
                let mut order: Vec<usize> = (0..nbrs.len()).collect();
                order.sort_unstable_by_key(|&i| nbrs[i]);
                let mut bytes = Vec::with_capacity(nbrs.len());
                let mut ws = Vec::new();
                let mut prev: Option<u32> = None;
                for &i in &order {
                    let t = nbrs[i];
                    match prev {
                        None => put_varint(&mut bytes, zigzag(t as i64 - v as i64)),
                        Some(p) => put_varint(&mut bytes, (t - p) as u64),
                    }
                    prev = Some(t);
                    if g.is_weighted() {
                        ws.push(g.weight_at(v, i));
                    }
                }
                (bytes, ws)
            })
            .collect();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edge_offsets = Vec::with_capacity(n + 1);
        let mut data = Vec::new();
        let mut weights = g.is_weighted().then(Vec::new);
        let mut edge_acc = 0usize;
        for (v, (bytes, ws)) in encoded.iter().enumerate() {
            offsets.push(data.len());
            edge_offsets.push(edge_acc);
            data.extend_from_slice(bytes);
            edge_acc += g.out_degree(v as u32);
            if let Some(w) = &mut weights {
                w.extend_from_slice(ws);
            }
        }
        offsets.push(data.len());
        edge_offsets.push(edge_acc);
        CompressedCsr {
            num_vertices: n,
            num_edges: g.num_edges(),
            offsets,
            data,
            weights,
            edge_offsets,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.edge_offsets[v + 1] - self.edge_offsets[v]
    }

    /// Edge-rank offsets (`n+1` entries, the prefix sums of the
    /// out-degrees) — what [`crate::edge_balanced_ranges`] cuts by.
    #[inline]
    pub fn edge_offsets(&self) -> &[usize] {
        &self.edge_offsets
    }

    /// Bytes used by the adjacency encoding.
    pub fn adjacency_bytes(&self) -> usize {
        self.data.len()
    }

    /// Ratio of compressed adjacency bytes to the raw 4-byte-per-target
    /// CSR (< 1 means compression won).
    pub fn compression_ratio(&self) -> f64 {
        if self.num_edges == 0 {
            return 1.0;
        }
        self.data.len() as f64 / (self.num_edges * 4) as f64
    }

    /// Decode the out-neighbors of `v`, calling `f(target, weight)` per
    /// edge in ascending target order.
    #[inline]
    pub fn for_each_out<F: FnMut(VertexId, Weight)>(&self, v: VertexId, mut f: F) {
        let vi = v as usize;
        let mut cursor = self.offsets[vi];
        let end = self.offsets[vi + 1];
        let mut e = self.edge_offsets[vi];
        let mut prev: Option<u32> = None;
        while cursor < end {
            let (raw, used) = get_varint(&self.data[cursor..]);
            cursor += used;
            let t = match prev {
                None => (v as i64 + unzigzag(raw)) as u32,
                Some(p) => p + raw as u32,
            };
            prev = Some(t);
            let w = match &self.weights {
                Some(ws) => ws[e],
                None => 1.0,
            };
            e += 1;
            f(t, w);
        }
    }

    /// Decode back to an uncompressed CSR (neighbors in sorted order).
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.num_edges);
        for v in 0..self.num_vertices as u32 {
            self.for_each_out(v, |t, w| edges.push(crate::Edge::new(v, t, w)));
        }
        CsrGraph::build(self.num_vertices, &edges, self.weights.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, EdgeList};

    fn round_trip(el: &EdgeList) -> (CsrGraph, CompressedCsr) {
        let g = CsrGraph::from_edge_list(el);
        let c = CompressedCsr::from_csr(&g);
        (g, c)
    }

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, x);
            let (y, used) = get_varint(&buf);
            assert_eq!(x, y);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for x in [-5i64, -1, 0, 1, 7, i64::MAX / 2, i64::MIN / 2] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn preserves_edges_sorted() {
        let el = EdgeList::new(
            6,
            vec![
                Edge::unit(0, 5),
                Edge::unit(0, 2),
                Edge::unit(0, 3),
                Edge::unit(4, 1),
            ],
        )
        .unwrap();
        let (_, c) = round_trip(&el);
        let mut out = Vec::new();
        c.for_each_out(0, |t, _| out.push(t));
        assert_eq!(out, vec![2, 3, 5]);
        assert_eq!(c.out_degree(0), 3);
        assert_eq!(c.out_degree(4), 1);
        assert_eq!(c.num_edges(), 4);
    }

    #[test]
    fn weighted_edges_follow_sort() {
        let el = EdgeList::new(3, vec![Edge::new(0, 2, 9.0), Edge::new(0, 1, 4.0)]).unwrap();
        let (_, c) = round_trip(&el);
        let mut out = Vec::new();
        c.for_each_out(0, |t, w| out.push((t, w)));
        assert_eq!(out, vec![(1, 4.0), (2, 9.0)]);
    }

    #[test]
    fn round_trips_random_graph() {
        let el = gee_gen_like(500, 6000, 3);
        let (g, c) = round_trip(&el);
        let back = c.to_csr();
        let mut a: Vec<(u32, u32)> = g.iter_edges().map(|(u, v, _)| (u, v)).collect();
        let mut b: Vec<(u32, u32)> = back.iter_edges().map(|(u, v, _)| (u, v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn compresses_clustered_ids() {
        // Path graph: deltas are ±1, one byte each → 4× compression.
        let edges: Vec<Edge> = (0..10_000u32).map(|v| Edge::unit(v, v + 1)).collect();
        let el = EdgeList::new(10_001, edges).unwrap();
        let (_, c) = round_trip(&el);
        assert!(
            c.compression_ratio() < 0.3,
            "ratio {}",
            c.compression_ratio()
        );
    }

    #[test]
    fn duplicate_edges_survive() {
        let el = EdgeList::new(2, vec![Edge::unit(0, 1), Edge::unit(0, 1)]).unwrap();
        let (_, c) = round_trip(&el);
        let mut count = 0;
        c.for_each_out(0, |t, _| {
            assert_eq!(t, 1);
            count += 1;
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::new(0, vec![]).unwrap();
        let (_, c) = round_trip(&el);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.compression_ratio(), 1.0);
    }

    /// Local helper: deterministic pseudo-random edge list without a dev
    /// dependency on gee-gen (which depends on this crate).
    fn gee_gen_like(n: usize, m: usize, seed: u64) -> EdgeList {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32
        };
        let edges = (0..m)
            .map(|_| Edge::unit(next() % n as u32, next() % n as u32))
            .collect();
        EdgeList::new_unchecked(n, edges)
    }
}
