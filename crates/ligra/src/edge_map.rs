//! `edgeMap` — Ligra's central traversal operator, in three flavours.
//!
//! * **Sparse (push)**: one task per frontier vertex; atomic updates because
//!   several sources may hit one destination concurrently.
//! * **Dense (pull)**: one task per *destination*; iterates in-edges from
//!   the transpose, uses the non-atomic `update` because only one task
//!   writes per destination, and early-exits when `cond(d)` turns false.
//! * **Dense-forward (push over everything)**: one task per contiguous
//!   range of *sources* — the ranges cut by edge count, not vertex count —
//!   each source's out-edge list processed sequentially, atomic updates.
//!   This is
//!   `edgeMapDense` in the write-direction the GEE paper describes in §III:
//!   "schedules one worker for the edge list of each node to process all
//!   edges sourced from that node sequentially", keeping `Z(u, ·)` and
//!   `W(u, ·)` in cache.
//!
//! [`edge_map`] auto-selects sparse vs dense-forward by Ligra's
//! `|F| + outdeg(F) > m/20` rule (pull-dense is opt-in because it needs the
//! transpose materialized).

use std::sync::atomic::{AtomicBool, Ordering};

use gee_graph::{edge_balanced_ranges, CsrGraph, VertexId, Weight};
use rayon::prelude::*;

use crate::prim::pack_indices;
use crate::vertex_subset::VertexSubset;

/// User function applied to traversed edges, mirroring Ligra's
/// `(update, updateAtomic, cond)` triple.
pub trait EdgeMapFn: Sync {
    /// Apply the edge `(s, d, w)` without synchronization (single writer per
    /// `d` guaranteed by the caller). Returns `true` to add `d` to the
    /// output frontier.
    fn update(&self, s: VertexId, d: VertexId, w: Weight) -> bool;

    /// Apply the edge with synchronization (concurrent writers possible).
    /// Returns `true` to add `d` to the output frontier — must return `true`
    /// at most once per `d` per traversal (use CAS) if exact frontiers
    /// matter.
    fn update_atomic(&self, s: VertexId, d: VertexId, w: Weight) -> bool;

    /// Skip destinations where this returns `false`; dense-pull traversal
    /// early-exits a destination's edge loop when it flips to `false`.
    fn cond(&self, _d: VertexId) -> bool {
        true
    }
}

/// Traversal strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraversalKind {
    /// Choose sparse vs dense-forward by the `m/20` threshold.
    #[default]
    Auto,
    /// Force sparse push traversal.
    Sparse,
    /// Force dense-forward push traversal.
    DenseForward,
    /// Force dense pull traversal (requires the transpose; falls back to
    /// dense-forward if absent).
    DensePull,
}

/// Options for [`edge_map`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeMapOptions {
    /// Strategy override.
    pub kind: TraversalKind,
    /// Skip building the output frontier (GEE needs none; saves a pass).
    pub no_output: bool,
}

/// Apply `f` to every out-edge of `frontier`, returning the output frontier
/// (vertices for which an update returned `true`), or an empty subset when
/// `opts.no_output` is set.
pub fn edge_map(
    g: &CsrGraph,
    frontier: &VertexSubset,
    f: &impl EdgeMapFn,
    opts: EdgeMapOptions,
) -> VertexSubset {
    let kind = match opts.kind {
        TraversalKind::Auto => {
            let deg: usize = frontier.iter().map(|v| g.out_degree(v)).sum();
            if frontier.should_traverse_dense(deg, g.num_edges()) {
                TraversalKind::DenseForward
            } else {
                TraversalKind::Sparse
            }
        }
        k => k,
    };
    match kind {
        TraversalKind::Sparse => edge_map_sparse(g, frontier, f, opts.no_output),
        TraversalKind::DenseForward => edge_map_dense_forward(g, frontier, f, opts.no_output),
        TraversalKind::DensePull => match g.transpose() {
            Some(t) => edge_map_dense_pull(g, t, frontier, f, opts.no_output),
            None => edge_map_dense_forward(g, frontier, f, opts.no_output),
        },
        TraversalKind::Auto => unreachable!("resolved above"),
    }
}

/// Push-style sparse traversal: parallel over frontier vertices, atomic
/// updates, output frontier deduplicated with per-vertex flags.
pub fn edge_map_sparse(
    g: &CsrGraph,
    frontier: &VertexSubset,
    f: &impl EdgeMapFn,
    no_output: bool,
) -> VertexSubset {
    let n = g.num_vertices();
    let ids = frontier.to_ids();
    if no_output {
        ids.par_iter().for_each(|&u| {
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                if f.cond(v) {
                    f.update_atomic(u, v, g.weight_at(u, i));
                }
            }
        });
        return VertexSubset::empty(n);
    }
    let out_flags: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    ids.par_iter().for_each(|&u| {
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            if f.cond(v) && f.update_atomic(u, v, g.weight_at(u, i)) {
                out_flags[v as usize].store(true, Ordering::Relaxed);
            }
        }
    });
    subset_from_atomic_flags(n, &out_flags)
}

/// Dense-forward traversal: parallel over contiguous ranges of sources
/// holding equal shares of the *edges* (splitting by vertex hands one
/// worker the hubs of a skewed graph), each source's out-edge list walked
/// sequentially so updates to `Z(u, ·)` never self-conflict and stay
/// cache-resident (§III of the paper). Uses `update_atomic` since
/// distinct sources can still write the same destination row.
pub fn edge_map_dense_forward(
    g: &CsrGraph,
    frontier: &VertexSubset,
    f: &impl EdgeMapFn,
    no_output: bool,
) -> VertexSubset {
    let n = g.num_vertices();
    let full = frontier.len() == n;
    let out_flags: Option<Vec<AtomicBool>> =
        (!no_output).then(|| (0..n).map(|_| AtomicBool::new(false)).collect());
    let visit = |u: VertexId, v: VertexId, w: Weight| {
        if f.cond(v) && f.update_atomic(u, v, w) {
            if let Some(flags) = &out_flags {
                flags[v as usize].store(true, Ordering::Relaxed);
            }
        }
    };
    edge_balanced_ranges(g.offsets(), rayon::current_num_threads())
        .into_par_iter()
        .for_each(|sources| {
            let sources = sources.map(|u| u as VertexId);
            for u in sources.filter(|&u| full || frontier.contains(u)) {
                let targets = g.neighbors(u).iter();
                // Weighted or not is asked once per source, not per edge.
                match g.edge_weights(u) {
                    Some(ws) => targets.zip(ws).for_each(|(&v, &w)| visit(u, v, w)),
                    None => targets.for_each(|&v| visit(u, v, 1.0)),
                }
            }
        });
    match out_flags {
        Some(flags) => subset_from_atomic_flags(n, &flags),
        None => VertexSubset::empty(n),
    }
}

/// Pull-style dense traversal over the transpose: parallel over
/// destinations, sequential over their in-edges, non-atomic `update`,
/// early-exit when `cond` flips.
fn edge_map_dense_pull(
    _g: &CsrGraph,
    transpose: &CsrGraph,
    frontier: &VertexSubset,
    f: &impl EdgeMapFn,
    no_output: bool,
) -> VertexSubset {
    let n = transpose.num_vertices();
    let mut dense = frontier.clone();
    dense.densify();
    let in_frontier = |v: u32| dense.contains(v);
    let next: Vec<bool> = (0..n as u32)
        .into_par_iter()
        .map(|d| {
            let mut added = false;
            if f.cond(d) {
                for (i, &s) in transpose.neighbors(d).iter().enumerate() {
                    if in_frontier(s) && f.update(s, d, transpose.weight_at(d, i)) {
                        added = true;
                    }
                    if !f.cond(d) {
                        break;
                    }
                }
            }
            added
        })
        .collect();
    if no_output {
        return VertexSubset::empty(n);
    }
    VertexSubset::from_ids(n, pack_indices(&next))
}

fn subset_from_atomic_flags(n: usize, flags: &[AtomicBool]) -> VertexSubset {
    let plain: Vec<bool> = flags.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    VertexSubset::from_ids(n, pack_indices(&plain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_graph::{Edge, EdgeList};
    use std::sync::atomic::AtomicU32;

    /// Counts visits per destination; returns true (adds to frontier) on
    /// every visit.
    struct CountVisits {
        counts: Vec<AtomicU32>,
    }

    impl CountVisits {
        fn new(n: usize) -> Self {
            CountVisits {
                counts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            }
        }
        fn count(&self, v: u32) -> u32 {
            self.counts[v as usize].load(Ordering::Relaxed)
        }
    }

    impl EdgeMapFn for CountVisits {
        fn update(&self, _s: VertexId, d: VertexId, _w: Weight) -> bool {
            self.counts[d as usize].fetch_add(1, Ordering::Relaxed);
            true
        }
        fn update_atomic(&self, s: VertexId, d: VertexId, w: Weight) -> bool {
            self.update(s, d, w)
        }
    }

    fn path_graph() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3
        let el = EdgeList::new(
            4,
            vec![Edge::unit(0, 1), Edge::unit(1, 2), Edge::unit(2, 3)],
        )
        .unwrap();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn sparse_traversal_visits_out_edges() {
        let g = path_graph();
        let f = CountVisits::new(4);
        let frontier = VertexSubset::single(4, 0);
        let next = edge_map(
            &g,
            &frontier,
            &f,
            EdgeMapOptions {
                kind: TraversalKind::Sparse,
                no_output: false,
            },
        );
        assert_eq!(f.count(1), 1);
        assert_eq!(f.count(2), 0);
        assert_eq!(next.to_ids(), vec![1]);
    }

    #[test]
    fn dense_forward_full_frontier_visits_every_edge() {
        let g = path_graph();
        let f = CountVisits::new(4);
        let frontier = VertexSubset::full(4);
        edge_map(
            &g,
            &frontier,
            &f,
            EdgeMapOptions {
                kind: TraversalKind::DenseForward,
                no_output: true,
            },
        );
        assert_eq!(f.count(0), 0);
        assert_eq!(f.count(1), 1);
        assert_eq!(f.count(2), 1);
        assert_eq!(f.count(3), 1);
    }

    #[test]
    fn dense_forward_partial_frontier() {
        let g = path_graph();
        let f = CountVisits::new(4);
        let frontier = VertexSubset::from_ids(4, vec![1, 2]);
        let next = edge_map_dense_forward(&g, &frontier, &f, false);
        assert_eq!(f.count(1), 0);
        assert_eq!(f.count(2), 1);
        assert_eq!(f.count(3), 1);
        let mut ids = next.to_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    /// The ranged runner on a skewed, weighted graph: every out-edge of
    /// the frontier exactly once with its own weight, at thread counts
    /// below, at and above the number of ranges worth cutting.
    #[test]
    fn dense_forward_visits_each_frontier_edge_once_at_any_thread_count() {
        struct CountAndSum(CountVisits, crate::atomics::AtomicF64Vec);
        impl EdgeMapFn for CountAndSum {
            fn update(&self, s: u32, d: u32, w: f64) -> bool {
                self.1.fetch_add(d as usize, w);
                self.0.update(s, d, w)
            }
            fn update_atomic(&self, s: u32, d: u32, w: f64) -> bool {
                self.update(s, d, w)
            }
        }
        let base = gee_gen::rmat(8, 4000, gee_gen::RmatParams::default(), 3);
        let edges: Vec<Edge> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 1.0 + (i % 7) as f64))
            .collect();
        let n = base.num_vertices();
        let g = CsrGraph::from_edge_list(&EdgeList::new(n, edges.clone()).unwrap());
        let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
        for frontier in [VertexSubset::full(n), VertexSubset::from_ids(n, evens)] {
            let mut count = vec![0u32; n];
            let mut sum = vec![0.0f64; n];
            for e in edges.iter().filter(|e| frontier.contains(e.u)) {
                count[e.v as usize] += 1;
                sum[e.v as usize] += e.w;
            }
            for threads in [1, 2, 3, 8, 300] {
                let f = CountAndSum(CountVisits::new(n), crate::atomics::AtomicF64Vec::zeros(n));
                let next = crate::with_threads(threads, || {
                    edge_map_dense_forward(&g, &frontier, &f, false)
                });
                for v in 0..n {
                    assert_eq!(
                        f.0.count(v as u32),
                        count[v],
                        "vertex {v}, {threads} threads"
                    );
                    // Small integers: the sum is exact in any order.
                    assert_eq!(f.1.load(v), sum[v], "vertex {v}, {threads} threads");
                    assert_eq!(next.contains(v as u32), count[v] > 0);
                }
            }
        }
    }

    #[test]
    fn dense_pull_matches_forward() {
        let mut g = path_graph();
        g.ensure_transpose();
        let f1 = CountVisits::new(4);
        let f2 = CountVisits::new(4);
        let frontier = VertexSubset::full(4);
        edge_map(
            &g,
            &frontier,
            &f1,
            EdgeMapOptions {
                kind: TraversalKind::DensePull,
                no_output: true,
            },
        );
        edge_map(
            &g,
            &frontier,
            &f2,
            EdgeMapOptions {
                kind: TraversalKind::DenseForward,
                no_output: true,
            },
        );
        for v in 0..4 {
            assert_eq!(f1.count(v), f2.count(v), "vertex {v}");
        }
    }

    #[test]
    fn auto_picks_sparse_for_tiny_frontier() {
        // Large graph, single-vertex frontier: auto must behave like sparse
        // (we can only observe equivalence of results here).
        let el = gee_gen::erdos_renyi_gnm(1000, 30_000, 5);
        let g = CsrGraph::from_edge_list(&el);
        let f = CountVisits::new(1000);
        let frontier = VertexSubset::single(1000, 0);
        edge_map(&g, &frontier, &f, EdgeMapOptions::default());
        let visited: u32 = (0..1000).map(|v| f.count(v)).sum();
        assert_eq!(visited as usize, g.out_degree(0));
    }

    #[test]
    fn cond_filters_destinations() {
        struct OnlyOdd;
        impl EdgeMapFn for OnlyOdd {
            fn update(&self, _s: u32, d: u32, _w: f64) -> bool {
                assert!(d % 2 == 1, "visited even vertex {d}");
                true
            }
            fn update_atomic(&self, s: u32, d: u32, w: f64) -> bool {
                self.update(s, d, w)
            }
            fn cond(&self, d: u32) -> bool {
                d % 2 == 1
            }
        }
        let g = path_graph();
        let frontier = VertexSubset::full(4);
        let next = edge_map(
            &g,
            &frontier,
            &OnlyOdd,
            EdgeMapOptions {
                kind: TraversalKind::DenseForward,
                no_output: false,
            },
        );
        let mut ids = next.to_ids();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn no_output_returns_empty() {
        let g = path_graph();
        let f = CountVisits::new(4);
        let next = edge_map(
            &g,
            &VertexSubset::full(4),
            &f,
            EdgeMapOptions {
                kind: TraversalKind::Sparse,
                no_output: true,
            },
        );
        assert!(next.is_empty());
    }

    #[test]
    fn weights_passed_through() {
        struct SumW(crate::atomics::AtomicF64Vec);
        impl EdgeMapFn for SumW {
            fn update(&self, _s: u32, d: u32, w: f64) -> bool {
                self.0.fetch_add(d as usize, w);
                false
            }
            fn update_atomic(&self, s: u32, d: u32, w: f64) -> bool {
                self.update(s, d, w)
            }
        }
        let el = EdgeList::new(2, vec![Edge::new(0, 1, 2.5), Edge::new(0, 1, 0.5)]).unwrap();
        let g = CsrGraph::from_edge_list(&el);
        let f = SumW(crate::atomics::AtomicF64Vec::zeros(2));
        edge_map_dense_forward(&g, &VertexSubset::full(2), &f, true);
        assert_eq!(f.0.load(1), 3.0);
    }
}
