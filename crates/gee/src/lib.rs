//! One-Hot Graph Encoder Embedding (GEE) — serial reference, optimized
//! serial, and the edge-parallel Ligra formulation of the paper.
//!
//! GEE (Shen, Wang & Priebe, TPAMI 2023) embeds an `n`-vertex graph with
//! edge list `E ∈ R^{s×3}` and partial class labels `Y ∈ {unknown, 0..K}`
//! into `Z ∈ R^{n×K}` with a *single pass over the edges*:
//!
//! 1. Build the projection matrix `W` where `W(v, Y(v)) = 1 / |class(Y(v))|`
//!    for labeled `v` (zero elsewhere) — O(nK) as a dense matrix, O(n) in
//!    the sparse form every real implementation uses.
//! 2. For each edge `(u, v, w)`:
//!    `Z(u, Y(v)) += W(v, Y(v))·w` and `Z(v, Y(u)) += W(u, Y(u))·w`.
//!
//! The paper ("Edge-Parallel Graph Encoder Embedding", IPDPS 2024)
//! contributes the parallel formulation: map `updateEmb` over all edges
//! with a full frontier and protect the `Z` accumulations with lock-free
//! atomic `writeAdd`. This crate provides four implementations whose
//! outputs agree (bit-exactly for the serial pair; up to FP-addition
//! reordering for the parallel ones):
//!
//! | paper name      | function                          |
//! |-----------------|-----------------------------------|
//! | GEE (Python)    | [`serial_reference::embed`] — plus the `gee-interp` boxed-value executor as the cost model |
//! | Numba serial    | [`serial_optimized::embed`]       |
//! | GEE-Ligra serial| [`ligra::embed`] on 1 thread      |
//! | GEE-Ligra par.  | [`ligra::embed`] on N threads     |
//!
//! Extensions beyond the paper's evaluation, from the GEE literature it
//! builds on: the Laplacian variant ([`laplacian`]), unsupervised /
//! iterative GEE clustering ([`unsupervised`]), a bit-reproducible
//! parallel kernel ([`kernels::embed_binned`], also behind the fused
//! multi-labeling pass of [`batch`] and the out-of-core pass of
//! [`streaming`]), and incremental maintenance under edge/label updates
//! ([`dynamic`]).

pub mod batch;
pub mod diagnostics;
pub mod dynamic;
pub mod embedding;
pub mod kernels;
pub mod labels;
pub mod laplacian;
pub mod ligra;
pub mod projection;
pub mod serial_optimized;
pub mod serial_reference;
pub mod streaming;
pub mod unsupervised;

/// The bit-reproducibility contract of the deterministic path
/// ([`kernels::embed_binned`], what `gee embed --impl deterministic`
/// runs): bit-identical to the serial reference at any thread count.
#[cfg(test)]
mod deterministic {
    mod tests {
        use crate::{kernels, serial_reference, Embedding, Labels};
        use gee_gen::LabelSpec;
        use gee_graph::EdgeList;

        fn setup(n: usize, m: usize, seed: u64, frac: f64) -> (EdgeList, Labels) {
            let el = gee_gen::erdos_renyi_gnm(n, m, seed);
            let labels = Labels::from_options(&gee_gen::random_labels(
                n,
                LabelSpec {
                    num_classes: 6,
                    labeled_fraction: frac,
                },
                seed ^ 0xBEEF,
            ));
            (el, labels)
        }

        fn embed(el: &EdgeList, labels: &Labels) -> Embedding {
            kernels::embed_binned(el.num_vertices(), el.edges(), &[labels])
                .pop()
                .unwrap()
        }

        #[test]
        fn bit_identical_to_reference() {
            let (el, labels) = setup(400, 4000, 9, 0.3);
            let a = serial_reference::embed(&el, &labels);
            let b = embed(&el, &labels);
            assert_eq!(a.as_slice(), b.as_slice());
        }

        #[test]
        fn bit_identical_across_thread_counts() {
            let (el, labels) = setup(300, 3000, 21, 0.5);
            let reference = serial_reference::embed(&el, &labels);
            for threads in [1, 2, 4, 7] {
                let z = gee_ligra::with_threads(threads, || embed(&el, &labels));
                assert_eq!(
                    reference.as_slice(),
                    z.as_slice(),
                    "bit mismatch at {threads} threads"
                );
            }
        }
    }
}

pub use dynamic::{DynamicGee, DynamicGeeState};
pub use embedding::Embedding;
pub use gee_ligra::AtomicsMode;
pub use labels::Labels;
pub use projection::Projection;

use gee_graph::{CsrGraph, EdgeList};

/// Which GEE implementation to run — the four columns of the paper's
/// Table I (the interpreted "GEE-Python" cost model lives in `gee-interp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// Algorithm 1 verbatim with a dense `n×K` projection matrix.
    Reference,
    /// Flat-array serial ("Numba analog").
    Optimized,
    /// Edge-map formulation on 1 thread ("GEE-Ligra serial").
    LigraSerial,
    /// Edge-map formulation on all (or `threads`) threads.
    LigraParallel,
}

/// Options shared by all implementations.
#[derive(Debug, Clone, Copy)]
pub struct GeeOptions {
    /// Graph variant: raw adjacency (paper default) or Laplacian-normalized.
    pub variant: Variant,
    /// Synchronization mode for the parallel implementation (the paper's
    /// atomics on/off ablation).
    pub atomics: AtomicsMode,
    /// Thread count for `LigraParallel` (0 = rayon default). Ignored by the
    /// serial implementations.
    pub threads: usize,
}

impl Default for GeeOptions {
    fn default() -> Self {
        GeeOptions {
            variant: Variant::Adjacency,
            atomics: AtomicsMode::Atomic,
            threads: 0,
        }
    }
}

/// Adjacency vs Laplacian preprocessing (§II: "our description does not
/// include the preprocessing steps needed to compute the Laplacian version
/// of the algorithm" — we do include them, see [`laplacian`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variant {
    /// Use edge weights as given.
    #[default]
    Adjacency,
    /// Rescale each edge `(u,v,w)` to `w / sqrt(deg(u)·deg(v))` first.
    Laplacian,
}

/// Embed an edge list with the selected implementation. Dispatcher used by
/// examples and the bench harness; performance-sensitive callers can call
/// the per-implementation `embed` functions directly.
pub fn embed(el: &EdgeList, labels: &Labels, imp: Implementation, opts: GeeOptions) -> Embedding {
    let prepared;
    let input = match opts.variant {
        Variant::Adjacency => el,
        Variant::Laplacian => {
            prepared = laplacian::normalize(el);
            &prepared
        }
    };
    match imp {
        Implementation::Reference => serial_reference::embed(input, labels),
        Implementation::Optimized => serial_optimized::embed(input, labels),
        Implementation::LigraSerial => {
            let g = CsrGraph::from_edge_list(input);
            gee_ligra::with_threads(1, || ligra::embed(&g, labels, opts.atomics))
        }
        Implementation::LigraParallel => {
            let g = CsrGraph::from_edge_list(input);
            gee_ligra::with_threads(opts.threads, || ligra::embed(&g, labels, opts.atomics))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_gen::LabelSpec;

    #[test]
    fn all_implementations_agree() {
        let el = gee_gen::erdos_renyi_gnm(300, 3000, 42);
        let labels = Labels::from_options(&gee_gen::random_labels(
            300,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.3,
            },
            7,
        ));
        let opts = GeeOptions::default();
        let a = embed(&el, &labels, Implementation::Reference, opts);
        let b = embed(&el, &labels, Implementation::Optimized, opts);
        let c = embed(&el, &labels, Implementation::LigraSerial, opts);
        let d = embed(&el, &labels, Implementation::LigraParallel, opts);
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "reference vs optimized must be bit-identical"
        );
        a.assert_close(&c, 1e-9);
        a.assert_close(&d, 1e-9);
    }

    #[test]
    fn laplacian_variant_dispatches() {
        let el = gee_gen::erdos_renyi_gnm(100, 800, 3);
        let labels = Labels::from_options(&gee_gen::full_labels(100, 4, 5));
        let opts = GeeOptions {
            variant: Variant::Laplacian,
            ..Default::default()
        };
        let a = embed(&el, &labels, Implementation::Reference, opts);
        let b = embed(&el, &labels, Implementation::LigraParallel, opts);
        a.assert_close(&b, 1e-9);
        // Laplacian output differs from adjacency output.
        let adj = embed(
            &el,
            &labels,
            Implementation::Reference,
            GeeOptions::default(),
        );
        assert_ne!(a.as_slice(), adj.as_slice());
    }
}
