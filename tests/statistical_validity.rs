//! Cross-crate integration: the *statistical* premise of the paper — GEE
//! embeddings carry community structure (GEE → spectral convergence, §I) —
//! holds for the parallel implementation on planted-partition graphs.

use gee_repro::eval::{adjusted_rand_index, kmeans_best_of, purity, scatter_ratio, KMeansOptions};
use gee_repro::prelude::*;

/// Embed an SBM with a fraction of ground-truth labels and cluster the
/// result; returns the ARI against the planted truth.
fn sbm_recovery_ari(blocks: usize, per_block: usize, label_frac: f64, seed: u64) -> f64 {
    let sbm = gee_gen::sbm(&SbmParams::balanced(blocks, per_block, 0.25, 0.01), seed);
    let n = sbm.edges.num_vertices();
    let labels = Labels::from_options_with_k(
        &gee_gen::subsample_labels(&sbm.truth, label_frac, seed ^ 0x77),
        blocks,
    );
    let g = CsrGraph::from_edge_list(&sbm.edges);
    let mut z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    z.normalize_rows();
    let km = kmeans_best_of(
        z.as_slice(),
        n,
        blocks,
        KMeansOptions::new(blocks, seed ^ 0x11),
        8,
    );
    adjusted_rand_index(&km.assignment, &sbm.truth)
}

#[test]
fn semi_supervised_recovery_on_sbm() {
    let ari = sbm_recovery_ari(4, 200, 0.10, 42);
    assert!(
        ari > 0.85,
        "10% labels should recover a well-separated SBM; ARI = {ari:.3}"
    );
}

#[test]
fn more_labels_do_not_hurt() {
    let lo = sbm_recovery_ari(3, 150, 0.05, 7);
    let hi = sbm_recovery_ari(3, 150, 0.5, 7);
    assert!(
        hi >= lo - 0.05,
        "more supervision should not hurt: 5% → {lo:.3}, 50% → {hi:.3}"
    );
}

#[test]
fn embedding_separates_classes_geometrically() {
    let sbm = gee_gen::sbm(&SbmParams::balanced(3, 150, 0.12, 0.004), 19);
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.2, 3), 3);
    let g = CsrGraph::from_edge_list(&sbm.edges);
    let mut z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    z.normalize_rows();
    let r = scatter_ratio(z.as_slice(), z.num_vertices(), z.dim(), &sbm.truth);
    assert!(
        r < 0.5,
        "within/between scatter should be small; got {r:.3}"
    );
}

#[test]
fn purity_of_labeled_vertices_embedding() {
    // Labeled vertices' strongest coordinate should usually be their own
    // class on an assortative graph.
    let sbm = gee_gen::sbm(&SbmParams::balanced(4, 100, 0.2, 0.01), 31);
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.5, 1), 4);
    let g = CsrGraph::from_edge_list(&sbm.edges);
    let z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    let argmax: Vec<u32> = (0..z.num_vertices() as u32)
        .map(|v| {
            z.row(v)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap()
        })
        .collect();
    let p = purity(&argmax, &sbm.truth);
    assert!(p > 0.9, "argmax-class purity {p:.3}");
}

#[test]
fn laplacian_variant_also_recovers() {
    let sbm = gee_gen::sbm(&SbmParams::balanced(3, 150, 0.12, 0.006), 47);
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.15, 2), 3);
    let norm = gee_core::laplacian::normalize(&sbm.edges);
    let g = CsrGraph::from_edge_list(&norm);
    let mut z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    z.normalize_rows();
    // Multiple restarts: a single Lloyd run from one seed can land in a
    // local optimum just under the threshold.
    let km = kmeans_best_of(
        z.as_slice(),
        z.num_vertices(),
        3,
        KMeansOptions::new(3, 9),
        5,
    );
    let ari = adjusted_rand_index(&km.assignment, &sbm.truth);
    assert!(ari > 0.8, "laplacian-variant ARI {ari:.3}");
}
