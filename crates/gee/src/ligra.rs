//! GEE-Ligra — Algorithm 2 of the paper.
//!
//! The edge loop becomes an `edgeMap` over the full frontier with the
//! `updateEmb` functor; the two `Z` accumulations are lock-free atomic
//! `writeAdd`s. Traversal is *dense-forward*: one task per edge-balanced
//! range of source vertices, each out-edge list processed sequentially, so
//!
//! * successive updates through `Z(u, ·)` hit the processor cache (§III),
//! * updates `Z(u, Y(v1))`, `Z(u, Y(v2))` from one source never conflict —
//!   they are serialized within the task — and only cross-source updates
//!   to a shared destination row contend, which the paper expects (and we
//!   measure) to be rare.
//!
//! The `AtomicsMode::Racy` path reproduces the paper's "atomics off" run:
//! same schedule, relaxed read+write instead of CAS.

use gee_graph::{edge_balanced_ranges, CompressedCsr, CsrGraph, VertexId, Weight};
use gee_ligra::{
    edge_map, AtomicF64Vec, AtomicsMode, EdgeMapFn, EdgeMapOptions, TraversalKind, VertexSubset,
};
use rayon::prelude::*;

use crate::embedding::Embedding;
use crate::labels::Labels;

/// The `updateEmb` functor of Algorithm 2.
///
/// `W` has one non-zero per row and it depends only on the row's class:
/// `W(v, Y(v)) = 1 / |class Y(v)|`. So the functor keeps the `K`
/// reciprocals ([`Labels::inv_class_counts`], resident in L1) and indexes
/// them by the label it has already loaded, instead of gathering a
/// per-vertex coefficient (a second random 8 B read per endpoint, and an
/// O(n) array to build before every call). Same `f64`, same bits.
struct UpdateEmb<'a> {
    z: &'a AtomicF64Vec,
    inv_count: &'a [f64],
    y: &'a [i32],
    k: usize,
    mode: AtomicsMode,
}

impl UpdateEmb<'_> {
    /// Lines 10–11 of Algorithm 2:
    /// `writeAdd(Z(u, Y(v)), W(v, Y(v))·w)`;
    /// `writeAdd(Z(v, Y(u)), W(u, Y(u))·w)`.
    #[inline]
    fn apply(&self, u: VertexId, v: VertexId, w: Weight) {
        let yv = self.y[v as usize];
        if yv >= 0 {
            self.z.add(
                self.mode,
                u as usize * self.k + yv as usize,
                self.inv_count[yv as usize] * w,
            );
        }
        let yu = self.y[u as usize];
        if yu >= 0 {
            self.z.add(
                self.mode,
                v as usize * self.k + yu as usize,
                self.inv_count[yu as usize] * w,
            );
        }
    }
}

impl EdgeMapFn for UpdateEmb<'_> {
    fn update(&self, s: VertexId, d: VertexId, w: Weight) -> bool {
        self.apply(s, d, w);
        false
    }
    fn update_atomic(&self, s: VertexId, d: VertexId, w: Weight) -> bool {
        self.apply(s, d, w);
        false
    }
}

/// Algorithm 2 around a traversal: the class reciprocals (lines 2–6),
/// a zeroed `Z`, `traverse` applying the functor to every edge, and `Z`
/// handed over as the embedding.
fn embed_with(
    n: usize,
    labels: &Labels,
    mode: AtomicsMode,
    traverse: impl FnOnce(&UpdateEmb<'_>),
) -> Embedding {
    assert_eq!(n, labels.len(), "labels must cover every vertex");
    let k = labels.num_classes();
    let inv_count = labels.inv_class_counts();
    let z = AtomicF64Vec::zeros(n * k);
    traverse(&UpdateEmb {
        z: &z,
        inv_count: &inv_count,
        y: labels.raw_slice(),
        k,
        mode,
    });
    Embedding::from_vec(n, k, z.into_vec())
}

/// GEE-Ligra (Algorithm 2): an edge map with atomic `writeAdd` over the
/// full frontier. Runs on the ambient rayon pool — wrap in
/// [`gee_ligra::with_threads`] to control the worker count (the paper's
/// Fig. 3 sweep).
pub fn embed(g: &CsrGraph, labels: &Labels, mode: AtomicsMode) -> Embedding {
    let n = g.num_vertices();
    embed_with(n, labels, mode, |functor| {
        // Line 7: EdgeMap(updateEmb, Z, W, Y, frontier = n).
        edge_map(
            g,
            &VertexSubset::full(n),
            functor,
            EdgeMapOptions {
                kind: TraversalKind::DenseForward,
                no_output: true,
            },
        );
    })
}

/// GEE-Ligra over a byte-compressed graph ([`gee_graph::CompressedCsr`]):
/// the same dense-forward edge-parallel kernel over the same
/// edge-balanced source ranges, decoding each source's neighbor list on
/// the fly. Trades decode ALU work for memory bandwidth — the direction
/// §IV's memory-bound analysis points at (CPMA, ref. 18 of the paper); the
/// `ablation-compression` bench quantifies it.
pub fn embed_compressed(g: &CompressedCsr, labels: &Labels, mode: AtomicsMode) -> Embedding {
    embed_with(g.num_vertices(), labels, mode, |functor| {
        edge_balanced_ranges(g.edge_offsets(), rayon::current_num_threads())
            .into_par_iter()
            .for_each(|sources| {
                for u in sources {
                    let u = u as VertexId;
                    g.for_each_out(u, |v, w| functor.apply(u, v, w));
                }
            });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_reference;
    use gee_gen::LabelSpec;
    use gee_graph::EdgeList;
    use proptest::prelude::*;

    fn setup(n: usize, m: usize, k: usize, frac: f64, seed: u64) -> (EdgeList, Labels) {
        let el = gee_gen::erdos_renyi_gnm(n, m, seed);
        let labels = Labels::from_options(&gee_gen::random_labels(
            n,
            LabelSpec {
                num_classes: k,
                labeled_fraction: frac,
            },
            seed ^ 0xABCD,
        ));
        (el, labels)
    }

    #[test]
    fn matches_reference_up_to_fp_reordering() {
        let (el, labels) = setup(400, 4000, 8, 0.3, 11);
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let z = embed(&g, &labels, AtomicsMode::Atomic);
        reference.assert_close(&z, 1e-9);
    }

    #[test]
    fn serial_pool_matches_reference() {
        let (el, labels) = setup(200, 2000, 5, 0.5, 3);
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let z = gee_ligra::with_threads(1, || embed(&g, &labels, AtomicsMode::Atomic));
        reference.assert_close(&z, 1e-9);
    }

    #[test]
    fn racy_mode_single_thread_is_exact() {
        // On one thread the racy path has no races: must equal atomic mode.
        let (el, labels) = setup(150, 1500, 4, 0.4, 7);
        let g = CsrGraph::from_edge_list(&el);
        let a = gee_ligra::with_threads(1, || embed(&g, &labels, AtomicsMode::Atomic));
        let b = gee_ligra::with_threads(1, || embed(&g, &labels, AtomicsMode::Racy));
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn racy_mode_parallel_is_approximately_right() {
        // The paper's "atomics off" run computes *approximately* the same
        // embedding (lost updates are rare). Verify mass is within 1%.
        let (el, labels) = setup(500, 20_000, 6, 0.5, 13);
        let g = CsrGraph::from_edge_list(&el);
        let exact = embed(&g, &labels, AtomicsMode::Atomic);
        let racy = embed(&g, &labels, AtomicsMode::Racy);
        let lost = (exact.total_mass() - racy.total_mass()).abs();
        assert!(
            lost <= 0.01 * exact.total_mass().max(1.0),
            "lost {lost} of {}",
            exact.total_mass()
        );
    }

    #[test]
    fn weighted_graph_matches_reference() {
        use gee_graph::Edge;
        let edges: Vec<Edge> = (0..2000u32)
            .map(|i| {
                Edge::new(
                    i % 100,
                    (i * 13 + 1) % 100,
                    ((i % 17) as f64).exp().min(10.0),
                )
            })
            .collect();
        let el = EdgeList::new(100, edges).unwrap();
        let labels = Labels::from_options(&gee_gen::full_labels(100, 7, 5));
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let z = embed(&g, &labels, AtomicsMode::Atomic);
        reference.assert_close(&z, 1e-9);
    }

    #[test]
    fn compressed_matches_reference() {
        let (el, labels) = setup(300, 5000, 6, 0.4, 21);
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let c = gee_graph::CompressedCsr::from_csr(&g);
        let z = embed_compressed(&c, &labels, AtomicsMode::Atomic);
        reference.assert_close(&z, 1e-9);
    }

    #[test]
    fn compressed_weighted_matches() {
        use gee_graph::Edge;
        let edges: Vec<Edge> = (0..1500u32)
            .map(|i| Edge::new(i % 60, (i * 11 + 2) % 60, 0.5 + (i % 5) as f64))
            .collect();
        let el = EdgeList::new(60, edges).unwrap();
        let labels = Labels::from_options(&gee_gen::full_labels(60, 4, 3));
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let c = gee_graph::CompressedCsr::from_csr(&g);
        let z = embed_compressed(&c, &labels, AtomicsMode::Atomic);
        reference.assert_close(&z, 1e-9);
    }

    /// On a skewed graph the compressed kernel's source ranges are cut
    /// by edges, not vertices, and it still computes the embedding at
    /// any worker count.
    #[test]
    fn compressed_ranges_are_edge_balanced_on_rmat() {
        let el = gee_gen::rmat(10, 40_000, gee_gen::RmatParams::default(), 9);
        let n = el.num_vertices();
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                n,
                LabelSpec {
                    num_classes: 6,
                    labeled_fraction: 0.3,
                },
                5,
            ),
            6,
        );
        let c = CompressedCsr::from_csr(&CsrGraph::from_edge_list(&el));
        let (m, offsets) = (c.num_edges(), c.edge_offsets());
        let max_degree = (0..n as u32).map(|v| c.out_degree(v)).max().unwrap();
        // The vertex split this replaces: the first half owns the hubs.
        assert!(
            offsets[n / 2] > m * 6 / 10,
            "not skewed: {}",
            offsets[n / 2]
        );
        for parts in [2, 3, 8, 17] {
            let ranges = edge_balanced_ranges(offsets, parts);
            let largest = ranges
                .iter()
                .map(|r| offsets[r.end] - offsets[r.start])
                .max()
                .unwrap();
            assert!(
                largest <= m / parts + max_degree,
                "{parts} parts: {largest}"
            );
        }
        let reference = serial_reference::embed(&el, &labels);
        for threads in [1, 2, 3, 17] {
            let z = gee_ligra::with_threads(threads, || {
                embed_compressed(&c, &labels, AtomicsMode::Atomic)
            });
            reference.assert_close(&z, 1e-9);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Property: GEE-Ligra equals the serial reference for arbitrary
        /// graphs and labelings (within FP-reassociation tolerance).
        #[test]
        fn prop_matches_reference(
            n in 2usize..60,
            seed in 0u64..500,
            k in 1usize..5,
            frac in 0.0f64..1.0,
        ) {
            let (el, labels) = setup(n, n * 5, k, frac, seed);
            let reference = serial_reference::embed(&el, &labels);
            let g = CsrGraph::from_edge_list(&el);
            let z = embed(&g, &labels, AtomicsMode::Atomic);
            reference.assert_close(&z, 1e-9);
        }
    }
}
