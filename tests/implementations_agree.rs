//! Cross-crate integration: all five executors of the GEE semantics (the
//! four Table I implementations plus the bytecode interpreter) and the
//! propagation-blocking kernel agree on every workload family the
//! benchmarks use.

use gee_repro::prelude::*;
use proptest::prelude::*;

/// The propagation-blocking kernel on `threads` workers.
fn binned(el: &EdgeList, labels: &Labels, threads: usize) -> Embedding {
    let mut z = with_threads(threads, || {
        gee_core::kernels::embed_binned(el.num_vertices(), el.edges(), &[labels])
    });
    z.pop().unwrap()
}

/// Propagation blocking sends each `Z` entry's contributions through one
/// bin in edge order, so it adds what the serial loop adds, in the same
/// order, at any thread count.
fn assert_binned_bit_exact(el: &EdgeList, labels: &Labels, threads: &[usize]) {
    let reference = gee_core::serial_reference::embed(el, labels);
    for &t in threads {
        assert_eq!(
            reference.as_slice(),
            binned(el, labels, t).as_slice(),
            "binned must be bit-identical at {t} threads"
        );
    }
}

fn check_agreement(el: &EdgeList, labels: &Labels) {
    let reference = gee_core::serial_reference::embed(el, labels);
    let optimized = gee_core::serial_optimized::embed(el, labels);
    assert_eq!(
        reference.as_slice(),
        optimized.as_slice(),
        "optimized must be bit-identical"
    );
    let interp = gee_repro::interp::embed(el, labels);
    assert_eq!(
        reference.as_slice(),
        interp.as_slice(),
        "interpreter must be bit-identical"
    );
    let g = CsrGraph::from_edge_list(el);
    let ligra = |threads, mode| with_threads(threads, || gee_core::ligra::embed(&g, labels, mode));
    // The paper's invariant at any thread count: fewer than the cores,
    // more than the cores, more than some graphs here have vertices.
    for threads in [1, 2, 3, 8, 17] {
        reference.assert_close(&ligra(threads, AtomicsMode::Atomic), 1e-9);
    }
    // One worker walks the sources in CSR order, so the sums are those of
    // the plain loop over the CSR-ordered edge list, bit for bit.
    assert_eq!(
        ligra(1, AtomicsMode::Atomic).as_slice(),
        gee_core::serial_optimized::embed(&g.to_edge_list(), labels).as_slice(),
        "ligra on one thread must be bit-identical to the serial loop in CSR order"
    );
    let parallel = gee_core::ligra::embed(&g, labels, AtomicsMode::Atomic);
    reference.assert_close(&parallel, 1e-9);
    // With one thread nothing races, so "atomics off" loses nothing.
    assert_eq!(
        ligra(1, AtomicsMode::Racy).as_slice(),
        ligra(1, AtomicsMode::Atomic).as_slice(),
        "racy mode on one thread must be bit-identical to atomic"
    );
    assert_binned_bit_exact(el, labels, &[1, 2, 3, 17]);
}

/// R-MAT over 2^17 vertices (more than one bin of the binned kernel) with
/// 2,000 self-loops and 2,000 repeated edges appended, under log-normal
/// weights: a self-loop sends both of its contributions to one `Z` entry,
/// and a repeat adds to its original's entries from a later edge chunk.
fn rmat_with_loops_and_duplicates() -> EdgeList {
    let base = gee_gen::rmat(17, 100_000, RmatParams::default(), 41);
    let n = base.num_vertices();
    let mut edges = base.edges().to_vec();
    for i in 0..2_000usize {
        let v = (i * 65_537 % n) as u32;
        edges.push(Edge::unit(v, v));
        edges.push(base.edges()[i * 37 % base.num_edges()]);
    }
    let dist = gee_gen::WeightDistribution::LogNormal {
        mu: 0.0,
        sigma: 1.0,
    };
    gee_gen::assign_weights(&EdgeList::new_unchecked(n, edges), dist, 43)
}

#[test]
fn agree_on_rmat_with_self_loops_duplicates_and_lognormal_weights() {
    let el = rmat_with_loops_and_duplicates();
    for labeled_fraction in [0.0, 0.1, 1.0] {
        let spec = LabelSpec {
            num_classes: 8,
            labeled_fraction,
        };
        let labels =
            Labels::from_options_with_k(&gee_gen::random_labels(el.num_vertices(), spec, 47), 8);
        check_agreement(&el, &labels);
    }
}

#[test]
fn agree_on_watts_strogatz() {
    let el = gee_gen::watts_strogatz(
        WsParams {
            n: 1_000,
            k: 8,
            beta: 0.2,
        },
        9,
    );
    let spec = LabelSpec {
        num_classes: 12,
        labeled_fraction: 0.2,
    };
    let labels = Labels::from_options_with_k(&gee_gen::random_labels(1_000, spec, 3), 12);
    check_agreement(&el, &labels);
}

/// `n` vertices, `m` uniform edges, 6 classes at `frac` labelled.
fn er_setup(n: usize, m: usize, seed: u64, frac: f64) -> (EdgeList, Labels) {
    let el = gee_gen::erdos_renyi_gnm(n, m, seed);
    let spec = LabelSpec {
        num_classes: 6,
        labeled_fraction: frac,
    };
    let labels = Labels::from_options(&gee_gen::random_labels(n, spec, seed ^ 0xBEEF));
    (el, labels)
}

#[test]
fn agree_on_weighted_self_loops_and_duplicates_by_hand() {
    // A labelled self-loop adds both of its contributions to one `Z`
    // entry; the repeated (0, 1) adds twice to two entries.
    let el = EdgeList::new(
        3,
        vec![
            Edge::new(0, 0, 2.5),
            Edge::new(0, 1, 1.0),
            Edge::new(0, 1, 3.0),
            Edge::new(2, 0, 0.125),
        ],
    )
    .unwrap();
    check_agreement(&el, &Labels::from_options(&[Some(0), Some(0), Some(1)]));
}

#[test]
fn agree_with_no_classes() {
    let el = gee_gen::erdos_renyi_gnm(50, 300, 2);
    let labels = Labels::from_options(&[None; 50]);
    assert_eq!(labels.num_classes(), 0);
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_an_empty_edge_list() {
    let el = EdgeList::new(2, vec![]).unwrap();
    check_agreement(&el, &Labels::from_options(&[Some(0), Some(1)]));
}

proptest! {
    /// Property: the binned kernel is bit-identical to the serial
    /// reference for arbitrary graphs and labelings.
    #[test]
    fn prop_binned_bit_identical(
        n in 2usize..50,
        seed in 0u64..500,
        frac in 0.0f64..1.0,
    ) {
        let (el, labels) = er_setup(n, n * 5, seed, frac);
        let a = gee_core::serial_reference::embed(&el, &labels);
        prop_assert_eq!(a.as_slice(), binned(&el, &labels, 3).as_slice());
    }
}

#[test]
fn agree_on_a_graph_with_fewer_vertices_than_threads() {
    let el = gee_gen::erdos_renyi_gnm(12, 40, 29);
    let spec = LabelSpec {
        num_classes: 3,
        labeled_fraction: 0.5,
    };
    let labels = Labels::from_options_with_k(&gee_gen::random_labels(12, spec, 31), 3);
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_erdos_renyi() {
    let el = gee_gen::erdos_renyi_gnm(2_000, 30_000, 17);
    let labels =
        Labels::from_options_with_k(&gee_gen::random_labels(2_000, LabelSpec::default(), 3), 50);
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_rmat() {
    let el = gee_gen::rmat(12, 50_000, RmatParams::default(), 23);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            el.num_vertices(),
            LabelSpec {
                num_classes: 50,
                labeled_fraction: 0.1,
            },
            5,
        ),
        50,
    );
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_sbm_with_truth_labels() {
    let sbm = gee_gen::sbm(&SbmParams::balanced(5, 100, 0.2, 0.01), 7);
    let labels = Labels::from_options(&gee_gen::subsample_labels(&sbm.truth, 0.3, 9));
    check_agreement(&sbm.edges, &labels);
}

#[test]
fn agree_on_preferential_attachment() {
    let el = gee_gen::preferential_attachment(3_000, 4, 31).symmetrized();
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            3_000,
            LabelSpec {
                num_classes: 10,
                labeled_fraction: 0.2,
            },
            13,
        ),
        10,
    );
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_weighted_graph() {
    let base = gee_gen::erdos_renyi_gnm(500, 8_000, 3);
    let el = EdgeList::new_unchecked(
        500,
        base.edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 0.1 + (i % 31) as f64 * 0.13))
            .collect(),
    );
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            500,
            LabelSpec {
                num_classes: 8,
                labeled_fraction: 0.5,
            },
            21,
        ),
        8,
    );
    check_agreement(&el, &labels);
}

#[test]
fn agree_on_laplacian_variant() {
    let el = gee_gen::erdos_renyi_gnm(800, 10_000, 5);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            800,
            LabelSpec {
                num_classes: 6,
                labeled_fraction: 0.3,
            },
            2,
        ),
        6,
    );
    let norm = gee_core::laplacian::normalize(&el);
    check_agreement(&norm, &labels);
}

#[test]
fn agree_under_many_seeds() {
    for seed in 0..10u64 {
        let el = gee_gen::erdos_renyi_gnm(300, 3_000, seed);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                300,
                LabelSpec {
                    num_classes: 4,
                    labeled_fraction: 0.25,
                },
                seed,
            ),
            4,
        );
        check_agreement(&el, &labels);
    }
}

#[test]
fn dispatcher_covers_every_implementation() {
    let el = gee_gen::erdos_renyi_gnm(200, 2_000, 3);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            200,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.4,
            },
            4,
        ),
        5,
    );
    let opts = GeeOptions::default();
    let a = gee_core::embed(&el, &labels, Implementation::Reference, opts);
    for imp in [
        Implementation::Optimized,
        Implementation::LigraSerial,
        Implementation::LigraParallel,
    ] {
        let z = gee_core::embed(&el, &labels, imp, opts);
        a.assert_close(&z, 1e-9);
    }
}
