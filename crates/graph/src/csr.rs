//! Compressed-sparse-row adjacency — the representation the Ligra-style
//! engine traverses.
//!
//! Layout follows Ligra: a `n+1`-entry offset array into a flat target array,
//! with an optional parallel weight array. The transpose (in-edges) can be
//! materialized once and cached for pull-style (`edgeMapDense`) traversal.
//!
//! Construction is parallel (rayon) and deterministic: a stable, chunked
//! counting sort ([`rows_in_edge_order`]) — per-chunk degree counts, a
//! prefix sum over degrees, and a per-chunk scatter — the three-phase
//! build Ligra's `graphIO` performs, minus the atomics that made its
//! neighbor order depend on thread timing.

use rayon::prelude::*;

use crate::{Edge, EdgeList, VertexId, Weight};

/// CSR adjacency for a weighted directed graph.
///
/// Undirected graphs are stored as two symmetric directed edges (build from
/// [`EdgeList::symmetrized`]), matching §II of the paper.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    num_vertices: usize,
    /// `offsets[v]..offsets[v+1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    /// `None` means every edge has unit weight (saves 8 bytes/edge on the
    /// memory-bound traversals of §IV).
    weights: Option<Vec<Weight>>,
    /// Cached transpose for pull-style traversal; built on demand.
    transpose: Option<Box<CsrGraph>>,
}

impl CsrGraph {
    /// Build from an edge list, preserving duplicate edges and self-loops
    /// (GEE sums contributions per edge occurrence, so duplicates matter).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::build(el.num_vertices(), el.edges(), !el.is_unit_weighted())
    }

    /// Build from raw parts. `store_weights = false` drops the weight array
    /// and treats every edge as unit weight. Every vertex's out-edges keep
    /// their edge-list order, at any thread count.
    pub fn build(num_vertices: usize, edges: &[Edge], store_weights: bool) -> Self {
        let (offsets, targets, weights) =
            rows_in_edge_order(num_vertices, edges, false, store_weights, 0);
        CsrGraph {
            num_vertices,
            offsets,
            targets,
            weights: store_weights.then_some(weights),
            transpose: None,
        }
    }

    /// Assemble from pre-validated CSR arrays (used by the binary loader).
    ///
    /// Panics (debug) if the invariants don't hold; the binary reader
    /// validates before calling.
    pub fn from_raw_parts(
        num_vertices: usize,
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), num_vertices + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), targets.len());
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == targets.len()));
        CsrGraph {
            num_vertices,
            offsets,
            targets,
            weights,
            transpose: None,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges `s`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Weights of out-edges of `v`, if the graph stores explicit weights.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> Option<&[Weight]> {
        self.weights.as_ref().map(|w| {
            let v = v as usize;
            &w[self.offsets[v]..self.offsets[v + 1]]
        })
    }

    /// Weight of the `i`-th out-edge of `v` (unit if weights are elided).
    #[inline]
    pub fn weight_at(&self, v: VertexId, i: usize) -> Weight {
        match &self.weights {
            Some(w) => w[self.offsets[v as usize] + i],
            None => 1.0,
        }
    }

    /// True when the graph stores an explicit weight array.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Offset array (`n+1` entries). Exposed for engine internals.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Flat target array. Exposed for engine internals.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Flat weight array if stored.
    #[inline]
    pub fn weights(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Iterate `(u, v, w)` for all edges in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        (0..self.num_vertices as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .enumerate()
                .map(move |(i, &v)| (u, v, self.weight_at(u, i)))
        })
    }

    /// Reconstruct the edge list (CSR order).
    pub fn to_edge_list(&self) -> EdgeList {
        let edges = self
            .iter_edges()
            .map(|(u, v, w)| Edge::new(u, v, w))
            .collect();
        EdgeList::new_unchecked(self.num_vertices, edges)
    }

    /// Materialize and cache the transpose (in-edge CSR). Pull-style
    /// `edgeMapDense` iterates a vertex's *in*-edges; this provides them.
    pub fn ensure_transpose(&mut self) {
        if self.transpose.is_none() {
            let rev: Vec<Edge> = self
                .iter_edges()
                .map(|(u, v, w)| Edge::new(v, u, w))
                .collect();
            let t = CsrGraph::build(self.num_vertices, &rev, self.weights.is_some());
            self.transpose = Some(Box::new(t));
        }
    }

    /// The cached transpose, if [`CsrGraph::ensure_transpose`] has run.
    #[inline]
    pub fn transpose(&self) -> Option<&CsrGraph> {
        self.transpose.as_deref()
    }

    /// Sum of all edge weights (count of edges when unweighted).
    pub fn total_weight(&self) -> f64 {
        match &self.weights {
            Some(w) => w.iter().sum(),
            None => self.targets.len() as f64,
        }
    }
}

/// Group the entries `edges` make into per-vertex rows, each row in edge
/// order; the result is the same at any thread count.
///
/// Edge `(u, v, w)` puts `(v, w)` in row `u`; with `incident` it also puts
/// `(u, w)` in row `v` right after it, so a self-loop appears twice in its
/// own row. Every row is followed by `gap` unused, zeroed entries, room
/// for appends. Returns `(offsets, targets, weights)`: row `x` is
/// `offsets[x]..offsets[x + 1] - gap` of `targets` and `weights`, and
/// `weights` is empty unless `with_weights`.
///
/// A stable counting sort in three passes. Every chunk of edges (one per
/// worker) counts its own entries per row. One serial pass over the rows
/// turns those counts into per-(chunk, row) cursors, lower chunks first.
/// Every chunk then scatters its edges in order through its own cursors.
/// There are no atomics and no intermediate copy of the entries.
///
/// Panics if an edge names a vertex `>= n`.
pub fn rows_in_edge_order(
    n: usize,
    edges: &[Edge],
    incident: bool,
    with_weights: bool,
    gap: usize,
) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
    let chunk_len = edges
        .len()
        .div_ceil(rayon::current_num_threads().max(1))
        .max(1);
    let mut cursors: Vec<Vec<usize>> = edges
        .par_chunks(chunk_len)
        .map(|chunk| {
            let mut count = vec![0usize; n];
            for e in chunk {
                count[e.u as usize] += 1;
                if incident {
                    count[e.v as usize] += 1;
                }
            }
            count
        })
        .collect();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut next = 0usize;
    for x in 0..n {
        offsets.push(next);
        for cursor in &mut cursors {
            let count = cursor[x];
            cursor[x] = next;
            next += count;
        }
        next += gap;
    }
    offsets.push(next);
    let mut targets = vec![0 as VertexId; next];
    let mut weights = if with_weights {
        vec![0.0; next]
    } else {
        Vec::new()
    };
    let (target_ptr, weight_ptr) = (SendPtr(targets.as_mut_ptr()), SendPtr(weights.as_mut_ptr()));
    edges
        .par_chunks(chunk_len)
        .zip(cursors)
        .for_each(|(chunk, mut cursor)| {
            let mut put = |row: VertexId, target: VertexId, w: Weight| {
                let slot = &mut cursor[row as usize];
                // SAFETY: this chunk counted exactly this entry for `row` in
                // the first pass, so `*slot` lies inside the range the prefix
                // pass reserved for this (chunk, row) pair: below `next`,
                // the length of both arrays (`weights` is only written when
                // it was allocated), and disjoint from every other chunk's
                // and row's range. Each slot is written once.
                unsafe {
                    *target_ptr.get().add(*slot) = target;
                    if with_weights {
                        *weight_ptr.get().add(*slot) = w;
                    }
                }
                *slot += 1;
            };
            for e in chunk {
                put(e.u, e.v, e.w);
                if incident {
                    put(e.v, e.u, e.w);
                }
            }
        });
    (offsets, targets, weights)
}

/// Raw pointer wrapper that is `Send + Sync` so rayon closures can scatter
/// into disjoint slots. Safety argument lives at each use site.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Access the pointer through the (Sync) wrapper so closures capture the
    /// wrapper rather than the raw pointer field.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EdgeList;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (weights 1..4)
        let el = EdgeList::new(
            4,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(0, 2, 2.0),
                Edge::new(1, 3, 3.0),
                Edge::new(2, 3, 4.0),
            ],
        )
        .unwrap();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn neighbors_and_weights_align() {
        let g = diamond();
        let nb = g.neighbors(0);
        let mut pairs: Vec<(u32, f64)> = nb
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, g.weight_at(0, i)))
            .collect();
        pairs.sort_by_key(|a| a.0);
        assert_eq!(pairs, vec![(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn unit_weight_graph_elides_weights() {
        let el = EdgeList::new(3, vec![Edge::unit(0, 1), Edge::unit(1, 2)]).unwrap();
        let g = CsrGraph::from_edge_list(&el);
        assert!(!g.is_weighted());
        assert_eq!(g.weight_at(0, 0), 1.0);
    }

    #[test]
    fn duplicates_and_loops_preserved() {
        let el = EdgeList::new(
            2,
            vec![Edge::unit(0, 1), Edge::unit(0, 1), Edge::unit(1, 1)],
        )
        .unwrap();
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let mut g = diamond();
        g.ensure_transpose();
        let t = g.transpose().unwrap();
        assert_eq!(t.out_degree(3), 2);
        assert_eq!(t.out_degree(0), 0);
        let mut inn: Vec<u32> = t.neighbors(3).to_vec();
        inn.sort_unstable();
        assert_eq!(inn, vec![1, 2]);
    }

    #[test]
    fn round_trip_edge_list() {
        let g = diamond();
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el);
        assert_eq!(g.offsets(), g2.offsets());
        // CSR order within a vertex may differ after round trip only if the
        // scatter ordered differently; compare as multisets.
        let mut a: Vec<_> = g
            .iter_edges()
            .map(|(u, v, w)| (u, v, w.to_bits()))
            .collect();
        let mut b: Vec<_> = g2
            .iter_edges()
            .map(|(u, v, w)| (u, v, w.to_bits()))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn total_weight() {
        assert_eq!(diamond().total_weight(), 10.0);
    }

    #[test]
    fn iter_edges_covers_all() {
        let g = diamond();
        assert_eq!(g.iter_edges().count(), 4);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::build(0, &[], false);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let el = EdgeList::new(10, vec![Edge::unit(0, 9)]).unwrap();
        let g = CsrGraph::from_edge_list(&el);
        for v in 1..9 {
            assert_eq!(g.out_degree(v), 0);
        }
        assert_eq!(g.neighbors(0), &[9]);
    }
}
