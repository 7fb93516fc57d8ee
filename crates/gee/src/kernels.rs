//! Alternative parallel kernels for the GEE edge pass — ablations on the
//! paper's design choice of push-style traversal with atomic `writeAdd`.
//!
//! * [`embed_pull`] — **atomics-free** GEE for symmetric graphs. The paper
//!   resolves write conflicts with `writeAdd`; but Ligra's pull-style
//!   `edgeMapDense` gives each *destination* a single owner task. For a
//!   symmetric graph every edge appears in both directions, so performing
//!   only the line-10 update `Z(d, Y(s)) += W(s)·w` while pulling over
//!   each `d`'s in-edges (= out-edges, by symmetry) covers both updates of
//!   Algorithm 1 — with plain, unsynchronized writes into `Z(d, ·)`.
//!   It is the fastest kernel of `ablation-kernels` on symmetric inputs,
//!   which is why it is kept beside the binned one.
//! * [`embed_binned`] — propagation blocking (Beamer et al.): phase 1
//!   routes each edge's two contributions into per-destination-range bins
//!   (sequential appends); phase 2 drains each bin with exclusive
//!   ownership of its `Z` range. Converts the paper's "one write likely
//!   misses" random traffic into two streaming passes, again without
//!   atomics. Each entry receives its additions in edge order, so this is
//!   the crate's one deterministic edge-list kernel: bit-identical to the
//!   serial loop at any thread count, for one labeling, for several
//!   labelings fused (`crate::batch`), and per chunk of an edge stream
//!   (`crate::streaming`).
//!
//! Both are validated against the serial reference and raced against the
//! atomic kernel in `ablation-kernels`.

use gee_graph::{CsrGraph, Edge};
use rayon::prelude::*;

use crate::batch::{self, Lane};
use crate::embedding::Embedding;
use crate::labels::Labels;
use crate::projection::Projection;

/// Atomics-free pull GEE over a **symmetric** graph (each undirected edge
/// stored in both directions — the encoding §II prescribes). Parallel over
/// destinations; each task owns its `Z` row exclusively.
///
/// Panics (debug builds) if the graph is visibly asymmetric; correctness
/// for directed inputs requires the transpose trick instead. The check is
/// sampled: CSR neighbor lists are in scatter order, not sorted, so a
/// mirror is found by scanning a list, and only up to 1024 evenly spaced
/// stored edges are looked up (every edge of a graph that small).
pub fn embed_pull(g: &CsrGraph, labels: &Labels) -> Embedding {
    assert_eq!(
        g.num_vertices(),
        labels.len(),
        "labels must cover every vertex"
    );
    debug_assert!(
        looks_symmetric(g),
        "embed_pull needs a symmetric graph: a stored edge has no mirror of equal weight"
    );
    let n = g.num_vertices();
    let k = labels.num_classes();
    let proj = Projection::build_parallel(labels);
    let coeff = proj.as_slice();
    let y = labels.raw_slice();
    let mut z = vec![0.0f64; n * k];
    // Each task writes exactly the rows of its chunk — no synchronization.
    z.par_chunks_mut(k.max(1)).enumerate().for_each(|(d, row)| {
        let d = d as u32;
        for (i, &s) in g.neighbors(d).iter().enumerate() {
            // Symmetric graph: the out-edge (d→s) mirrors the in-edge
            // (s→d); apply line 10 of Algorithm 1 for that in-edge.
            let ys = y[s as usize];
            if ys >= 0 {
                // Algorithm 1 over the symmetric list updates Z(d, Y(s))
                // twice per undirected edge: line 10 of the stored edge
                // (s→d) and line 11 of its mirror (d→s). One pull visit
                // covers both, hence the factor 2 (self-loops included:
                // stored once, both lines hit the same entry).
                row[ys as usize] += 2.0 * coeff[s as usize] * g.weight_at(d, i);
            }
        }
    });
    Embedding::from_vec(n, k, z)
}

/// Whether each of up to `SAMPLES` evenly spaced stored edges `(d, s, w)`
/// has a mirror `(s, d, w)`.
fn looks_symmetric(g: &CsrGraph) -> bool {
    const SAMPLES: usize = 1024;
    let (m, offsets) = (g.num_edges(), g.offsets());
    (0..m).step_by((m / SAMPLES).max(1)).all(|e| {
        let d = offsets.partition_point(|&o| o <= e) - 1;
        let s = g.targets()[e];
        let w = g.weights().map_or(1.0, |ws| ws[e]);
        let mut back = g.neighbors(s).iter().enumerate();
        back.any(|(i, &t)| t as usize == d && g.weight_at(s, i) == w)
    })
}

/// Destination rows per bin, as a power of two: 2^16 rows, a 25 MiB `Z`
/// stripe at K = 50.
pub(crate) const BIN_BITS: u32 = 16;

/// Edges per phase-1 task. Any split into contiguous chunks keeps each
/// entry's additions in edge order; this one bounds a task's bins.
const CHUNK_EDGES: usize = 1 << 16;

/// Propagation-blocking GEE for one or more labelings of one edge list.
/// Works for arbitrary (directed, weighted) inputs, and each embedding is
/// bit-identical to [`crate::serial_reference::embed`] at any thread
/// count. Several labelings share one edge pass over fused rows
/// (`crate::batch`'s layout).
pub fn embed_binned(num_vertices: usize, edges: &[Edge], labelings: &[&Labels]) -> Vec<Embedding> {
    embed_binned_with(num_vertices, edges, labelings, BIN_BITS)
}

/// [`embed_binned`] with `2^bin_bits` rows per bin.
pub(crate) fn embed_binned_with(
    n: usize,
    edges: &[Edge],
    labelings: &[&Labels],
    bin_bits: u32,
) -> Vec<Embedding> {
    let offsets = batch::offsets(n, labelings);
    let projections: Vec<Projection> = labelings
        .iter()
        .map(|l| Projection::build_parallel(l))
        .collect();
    let lanes = batch::lanes(labelings, &projections, &offsets);
    let stride = offsets[labelings.len()];
    let mut z = vec![0.0f64; n * stride];
    match lanes[..] {
        [lane] => add_binned(&mut z, stride, edges, [lane], bin_bits),
        _ => add_binned(&mut z, stride, edges, &lanes[..], bin_bits),
    }
    batch::unpack(z, n, &offsets)
}

/// Add `edges`' contributions for every lane into the rows of `z`
/// (`stride` columns each), by propagation blocking (Beamer et al.):
///
/// 1. Each fixed chunk of [`CHUNK_EDGES`] edges appends its contributions,
///    in edge order, to per-chunk bins by destination row range.
/// 2. One task per bin owns that bin's `Z` stripe and adds the bin's
///    contributions chunk by chunk, without atomics.
///
/// Every entry thus receives its additions in the serial loop's order,
/// so the sums are the serial loop's, bit for bit, at any thread count.
///
/// A single lane is passed as an array, which keeps it in registers
/// across the edge loop: ~10 % of the pass on R-MAT 2^17 × 2^22 at
/// K = 50 on 2 threads.
pub(crate) fn add_binned<'a>(
    z: &mut [f64],
    stride: usize,
    edges: &[Edge],
    lanes: impl AsRef<[Lane<'a>]> + Sync,
    bin_bits: u32,
) {
    if z.is_empty() {
        return;
    }
    let stripe = stride << bin_bits;
    let num_bins = z.len().div_ceil(stripe);
    let locals: Vec<Vec<Vec<(usize, f64)>>> = edges
        .par_chunks(CHUNK_EDGES)
        .map(|es| {
            let mut bins = vec![Vec::new(); num_bins];
            for e in es {
                let (u, v, w) = (e.u as usize, e.v as usize, e.w);
                let (bu, bv) = (u >> bin_bits, v >> bin_bits);
                for &(off, y, coeff) in lanes.as_ref() {
                    let yv = y[v];
                    if yv >= 0 {
                        bins[bu].push((u * stride + off + yv as usize, coeff[v] * w));
                    }
                    let yu = y[u];
                    if yu >= 0 {
                        bins[bv].push((v * stride + off + yu as usize, coeff[u] * w));
                    }
                }
            }
            bins
        })
        .collect();
    z.par_chunks_mut(stripe).enumerate().for_each(|(b, zs)| {
        let base = b * stripe;
        for bins in &locals {
            for &(i, x) in &bins[b] {
                zs[i - base] += x;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_reference;
    use gee_gen::LabelSpec;
    use gee_graph::EdgeList;

    /// The binned kernel for one labeling, `2^bits` rows per bin.
    fn binned(el: &EdgeList, labels: &Labels, bits: u32) -> Embedding {
        let mut z = embed_binned_with(el.num_vertices(), el.edges(), &[labels], bits);
        z.pop().unwrap()
    }

    fn symmetric_setup(n: usize, m: usize, seed: u64) -> (EdgeList, Labels) {
        let el = gee_gen::erdos_renyi_gnm(n, m, seed).symmetrized();
        let labels = Labels::from_options(&gee_gen::random_labels(
            n,
            LabelSpec {
                num_classes: 7,
                labeled_fraction: 0.3,
            },
            seed ^ 0xF00D,
        ));
        (el, labels)
    }

    #[test]
    fn pull_matches_reference_on_symmetric_graph() {
        let (el, labels) = symmetric_setup(300, 2500, 3);
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        let z = embed_pull(&g, &labels);
        reference.assert_close(&z, 1e-9);
    }

    #[test]
    fn pull_matches_on_weighted_symmetric() {
        use gee_graph::Edge;
        let mut edges = Vec::new();
        for i in 0..800u32 {
            let (u, v, w) = (i % 50, (i * 7 + 3) % 50, 0.5 + (i % 9) as f64);
            edges.push(Edge::new(u, v, w));
            edges.push(Edge::new(v, u, w));
        }
        let el = EdgeList::new(50, edges).unwrap();
        let labels = Labels::from_options(&gee_gen::full_labels(50, 4, 1));
        let reference = serial_reference::embed(&el, &labels);
        let g = CsrGraph::from_edge_list(&el);
        embed_pull(&g, &labels).assert_close(&reference, 1e-9);
        reference.assert_close(&embed_pull(&g, &labels), 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs a symmetric graph")]
    fn pull_refuses_a_directed_path() {
        // 0 -> 1 -> 2: no edge has its mirror.
        let el = EdgeList::new(
            3,
            vec![gee_graph::Edge::unit(0, 1), gee_graph::Edge::unit(1, 2)],
        )
        .unwrap();
        let labels = Labels::from_options(&[Some(0), Some(1), None]);
        embed_pull(&CsrGraph::from_edge_list(&el), &labels);
    }

    #[test]
    fn symmetry_check_wants_the_mirror_weight_too() {
        use gee_graph::Edge;
        let csr = |edges| CsrGraph::from_edge_list(&EdgeList::new(2, edges).unwrap());
        assert!(looks_symmetric(&csr(vec![
            Edge::new(0, 1, 2.0),
            Edge::new(1, 0, 2.0)
        ])));
        assert!(!looks_symmetric(&csr(vec![
            Edge::new(0, 1, 2.0),
            Edge::new(1, 0, 3.0)
        ])));
        assert!(looks_symmetric(&csr(vec![Edge::unit(1, 1)])));
        assert!(looks_symmetric(&csr(vec![])));
    }

    #[test]
    fn binned_matches_reference_directed() {
        // Binned kernel handles plain directed inputs.
        let el = gee_gen::erdos_renyi_gnm(500, 6000, 11);
        let labels = Labels::from_options(&gee_gen::random_labels(
            500,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.4,
            },
            13,
        ));
        let reference = serial_reference::embed(&el, &labels);
        for bits in [4u32, 8, 16] {
            assert_eq!(reference.as_slice(), binned(&el, &labels, bits).as_slice());
        }
    }

    #[test]
    fn binned_matches_on_symmetric_weighted() {
        let (el, labels) = symmetric_setup(200, 1500, 21);
        let reference = serial_reference::embed(&el, &labels);
        assert_eq!(reference.as_slice(), binned(&el, &labels, 6).as_slice());
    }

    #[test]
    fn all_kernels_agree() {
        let (el, labels) = symmetric_setup(400, 4000, 31);
        let g = CsrGraph::from_edge_list(&el);
        let a = crate::ligra::embed(&g, &labels, gee_ligra::AtomicsMode::Atomic);
        let b = embed_pull(&g, &labels);
        let c = binned(&el, &labels, 10);
        a.assert_close(&b, 1e-9);
        a.assert_close(&c, 1e-9);
    }

    #[test]
    fn empty_graph_kernels() {
        let labels = Labels::from_options(&[None, None]);
        let g = CsrGraph::build(2, &[], false);
        assert_eq!(embed_pull(&g, &labels).as_slice().len(), 0);
        assert!(embed_binned(2, &[], &[&labels])[0].as_slice().is_empty());
    }
}
