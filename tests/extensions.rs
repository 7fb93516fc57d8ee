//! Cross-crate integration for the extension features: dynamic updates,
//! bucketed algorithms, new generators, and the downstream-inference
//! evaluation stack — every extension validated
//! end-to-end on generated workloads.

use gee_core::dynamic::DynamicGee;
use gee_repro::prelude::*;

/// A long random stream of dynamic updates must track the static oracle.
#[test]
fn dynamic_gee_tracks_static_recompute_through_long_stream() {
    let el = gee_gen::erdos_renyi_gnm(500, 4_000, 11);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            500,
            LabelSpec {
                num_classes: 8,
                labeled_fraction: 0.3,
            },
            13,
        ),
        8,
    );
    let mut dg = DynamicGee::new(&el, &labels);
    // Deterministic pseudo-random op stream.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inserted: Vec<(u32, u32, f64)> = Vec::new();
    for step in 0..400 {
        match next() % 4 {
            0 | 1 => {
                let (u, v) = ((next() % 500) as u32, (next() % 500) as u32);
                let w = 1.0 + (next() % 5) as f64;
                dg.insert_edge(u, v, w);
                inserted.push((u, v, w));
            }
            2 if !inserted.is_empty() => {
                let (u, v, w) = inserted.swap_remove((next() as usize) % inserted.len());
                assert!(
                    dg.remove_edge(u, v, w),
                    "step {step}: tracked edge must exist"
                );
            }
            _ => {
                let v = (next() % 500) as u32;
                let label = if next() % 5 == 0 {
                    None
                } else {
                    Some((next() % 8) as u32)
                };
                dg.set_label(v, label);
            }
        }
        // Spot-check against the oracle at intervals (full check per step
        // would be O(steps · s)).
        if step % 100 == 99 {
            let fresh = gee_core::serial_optimized::embed(&dg.edge_list(), &dg.labels());
            fresh.assert_close(&dg.embedding(), 1e-9);
        }
    }
}

/// Bucketed k-core must agree with the level-scan implementation on every
/// generator family.
#[test]
fn bucketed_kcore_agrees_across_generators() {
    let graphs = [
        gee_gen::erdos_renyi_gnm(800, 6_000, 17).symmetrized(),
        gee_gen::rmat(10, 15_000, RmatParams::default(), 19).symmetrized(),
        gee_gen::watts_strogatz(
            gee_gen::WsParams {
                n: 600,
                k: 6,
                beta: 0.3,
            },
            21,
        ),
        gee_gen::config_model(&gee_gen::power_law_degrees(500, 2.3, 1, 60, 23), 23),
    ];
    for (i, el) in graphs.iter().enumerate() {
        let g = CsrGraph::from_edge_list(el);
        assert_eq!(
            gee_repro::algos::kcore_bucketed(&g),
            gee_repro::algos::kcore(&g),
            "family {i}"
        );
    }
}

/// Δ-stepping must agree with frontier Bellman-Ford on weighted R-MAT.
#[test]
fn delta_stepping_agrees_with_bellman_ford() {
    let base = gee_gen::rmat(10, 12_000, RmatParams::default(), 29).symmetrized();
    // Derive deterministic positive weights from the endpoints.
    let edges: Vec<Edge> = base
        .edges()
        .iter()
        .map(|e| Edge::new(e.u, e.v, 0.25 + f64::from((e.u ^ e.v) % 16)))
        .collect();
    let g = CsrGraph::from_edge_list(&EdgeList::new_unchecked(base.num_vertices(), edges));
    let a = gee_repro::algos::delta_stepping(&g, 0, gee_repro::algos::suggest_delta(&g));
    let b = gee_repro::algos::sssp(&g, 0);
    for v in 0..g.num_vertices() {
        if a[v].is_finite() || b[v].is_finite() {
            assert!(
                (a[v] - b[v]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                a[v],
                b[v]
            );
        }
    }
}

/// End-to-end inference: GEE embedding of an SBM feeds a linear
/// classifier that must beat chance by a wide margin on held-out
/// vertices, and internal validity indices must prefer the truth
/// clustering over a random one.
#[test]
fn embedding_supports_downstream_inference() {
    let params = SbmParams::balanced(4, 250, 0.08, 0.005);
    let sbm = gee_gen::sbm(&params, 31);
    let n = sbm.edges.num_vertices();
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.2, 33), 4);
    let mut z = gee_core::serial_optimized::embed(&sbm.edges, &labels);
    z.normalize_rows();

    // Train on the labeled vertices, evaluate on the unlabeled rest.
    let (mut xtr, mut ytr, mut xte, mut yte) = (vec![], vec![], vec![], vec![]);
    for v in 0..n as u32 {
        let row = z.row(v).to_vec();
        match labels.get(v) {
            Some(c) => {
                xtr.push(row);
                ytr.push(c);
            }
            None => {
                xte.push(row);
                yte.push(sbm.truth[v as usize]);
            }
        }
    }
    let model = gee_repro::eval::LogisticRegression::fit(
        &xtr,
        &ytr,
        4,
        gee_repro::eval::LogRegOptions::default(),
    );
    let pred = model.predict_batch(&xte);
    let acc = pred.iter().zip(&yte).filter(|(a, b)| a == b).count() as f64 / yte.len() as f64;
    assert!(
        acc > 0.9,
        "logistic regression accuracy {acc} (chance = 0.25)"
    );

    // Internal validity: the truth partition of the embedding must score
    // better than a rotated (shifted) partition.
    let points: Vec<Vec<f64>> = (0..n as u32).take(400).map(|v| z.row(v).to_vec()).collect();
    let truth: Vec<u32> = sbm.truth[..400].to_vec();
    let shifted: Vec<u32> = truth.iter().map(|&c| (c + 1) % 4).collect();
    let mixed: Vec<u32> = (0..400u32).map(|i| i % 4).collect();
    let sil_truth = gee_repro::eval::silhouette(&points, &truth);
    let sil_mixed = gee_repro::eval::silhouette(&points, &mixed);
    assert!(
        sil_truth > sil_mixed + 0.2,
        "silhouette {sil_truth} vs mixed {sil_mixed}"
    );
    // Relabeling (a permutation) scores identically — silhouette is
    // label-invariant.
    let sil_shifted = gee_repro::eval::silhouette(&points, &shifted);
    assert!((sil_truth - sil_shifted).abs() < 1e-12);
}

/// Energy test on GEE embeddings: different SBM blocks reject the null,
/// same block does not (the §I hypothesis-testing use case end-to-end).
#[test]
fn energy_test_separates_blocks_end_to_end() {
    let sbm = gee_gen::sbm(&SbmParams::balanced(2, 300, 0.1, 0.01), 37);
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.25, 39), 2);
    let mut z = gee_core::serial_optimized::embed(&sbm.edges, &labels);
    z.normalize_rows();
    let rows = |block: u32| -> Vec<Vec<f64>> {
        (0..sbm.edges.num_vertices() as u32)
            .filter(|&v| sbm.truth[v as usize] == block && labels.get(v).is_none())
            .take(80)
            .map(|v| z.row(v).to_vec())
            .collect()
    };
    let (a, b) = (rows(0), rows(1));
    assert!(gee_repro::eval::energy_test(&a, &b, 200, 41).rejects_at(0.01));
    let (a1, a2) = a.split_at(a.len() / 2);
    assert!(!gee_repro::eval::energy_test(a1, a2, 200, 43).rejects_at(0.01));
}

/// Generators compose with the full pipeline: every new family embeds,
/// and the mass invariant holds.
#[test]
fn new_generators_flow_through_pipeline() {
    let families: Vec<(&str, EdgeList)> = vec![
        (
            "watts-strogatz",
            gee_gen::watts_strogatz(
                gee_gen::WsParams {
                    n: 2_000,
                    k: 10,
                    beta: 0.1,
                },
                45,
            ),
        ),
        (
            "config-model",
            gee_gen::config_model(&gee_gen::power_law_degrees(2_000, 2.4, 1, 100, 47), 47),
        ),
        (
            "config-simple",
            gee_gen::config_model_simple(&gee_gen::power_law_degrees(1_000, 2.2, 2, 50, 49), 49),
        ),
    ];
    for (name, el) in families {
        let n = el.num_vertices();
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                n,
                LabelSpec {
                    num_classes: 10,
                    labeled_fraction: 0.15,
                },
                51,
            ),
            10,
        );
        let g = CsrGraph::from_edge_list(&el);
        let z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
        gee_core::diagnostics::assert_healthy(&z, &el, &labels, 1e-6);
        let _ = name;
    }
}

/// The GEE→spectral convergence claim, checked with the alignment tool
/// spectral theory requires: both embeddings are identifiable only up to
/// an orthogonal transform, so they are compared after Procrustes
/// alignment. With correct vertex correspondence the aligned residual
/// must be far below the residual of a correspondence-destroying row
/// rotation of the same matrix.
#[test]
fn gee_aligns_with_spectral_embedding_up_to_rotation() {
    let k = 3usize;
    let sbm = gee_gen::sbm(&SbmParams::balanced(k, 200, 0.15, 0.01), 61);
    let n = sbm.edges.num_vertices();
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.3, 63), k);
    let mut gee = gee_core::serial_optimized::embed(&sbm.edges, &labels);
    gee.normalize_rows();

    let g = CsrGraph::from_edge_list(&sbm.edges);
    let spectral = gee_repro::eval::spectral_embedding(
        &g,
        gee_repro::eval::SpectralOptions {
            k,
            iterations: 80,
            seed: 65,
            scale_by_eigenvalues: true,
        },
    );
    // Row-normalize the spectral embedding the same way.
    let mut spec = spectral;
    for row in spec.chunks_mut(k) {
        let norm: f64 = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            row.iter_mut().for_each(|x| *x /= norm);
        }
    }

    let aligned = gee_repro::eval::orthogonal_procrustes(gee.as_slice(), &spec, n, k);
    // Destroy the vertex correspondence with a pseudo-random row
    // permutation (a *block-consistent* shift would not do: permuting
    // symmetric block centroids is itself an orthogonal transform).
    let shuffled: Vec<f64> = {
        let mut s = vec![0.0; n * k];
        for v in 0..n {
            let w = (v * 7 + 13) % n;
            s[w * k..(w + 1) * k].copy_from_slice(&gee.as_slice()[v * k..(v + 1) * k]);
        }
        s
    };
    let broken = gee_repro::eval::orthogonal_procrustes(&shuffled, &spec, n, k);
    assert!(
        aligned.relative_residual < 0.6 * broken.relative_residual,
        "aligned {} vs broken {}",
        aligned.relative_residual,
        broken.relative_residual
    );
}

/// Buckets + engine: Δ-stepping on a Watts–Strogatz ring with unit
/// weights equals BFS depth (every bucket is one BFS level when Δ = 1).
#[test]
fn delta_stepping_on_unit_weights_is_bfs() {
    let el = gee_gen::watts_strogatz(
        gee_gen::WsParams {
            n: 800,
            k: 6,
            beta: 0.05,
        },
        53,
    );
    let g = CsrGraph::from_edge_list(&el);
    let d = gee_repro::algos::delta_stepping(&g, 0, 1.0);
    let bfs = gee_repro::algos::bfs_distances(&g, 0);
    for v in 0..800 {
        if bfs[v] == u32::MAX {
            assert!(d[v].is_infinite());
        } else {
            assert_eq!(d[v], f64::from(bfs[v]), "vertex {v}");
        }
    }
}
