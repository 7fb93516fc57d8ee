//! Cross-crate integration: the Ligra-style engine substrate behaves
//! correctly under composition — algorithms from `gee-algos` and a
//! frontier algorithm written inline against `edge_map` on generated
//! graphs, I/O round trips feeding the engine, and thread-count
//! independence of results.

use std::sync::atomic::{AtomicU32, Ordering};

use gee_repro::algos;
use gee_repro::graph::io::{binary, edgelist};
use gee_repro::ligra::atomics::cas_u32;
use gee_repro::ligra::{edge_map, EdgeMapFn, EdgeMapOptions};
use gee_repro::prelude::*;

/// One BFS round: claim each unvisited destination once, by Ligra's CAS.
struct Visit<'a> {
    depth: &'a [AtomicU32],
    round: u32,
}

impl EdgeMapFn for Visit<'_> {
    fn update(&self, s: u32, d: u32, w: f64) -> bool {
        self.update_atomic(s, d, w)
    }

    fn update_atomic(&self, _s: u32, d: u32, _w: f64) -> bool {
        cas_u32(&self.depth[d as usize], u32::MAX, self.round)
    }

    fn cond(&self, d: u32) -> bool {
        self.depth[d as usize].load(Ordering::Relaxed) == u32::MAX
    }
}

/// BFS depths from `source` (`u32::MAX` = unreached) as a Ligra program:
/// the frontier starts as one sparse vertex and `edge_map` picks the
/// traversal per round from the frontier's out-degree.
fn bfs_depths(g: &CsrGraph, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let depth: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    depth[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(n, source);
    let mut round = 0;
    while !frontier.is_empty() {
        round += 1;
        let visit = Visit {
            depth: &depth,
            round,
        };
        frontier = edge_map(g, &frontier, &visit, EdgeMapOptions::default());
    }
    depth.into_iter().map(AtomicU32::into_inner).collect()
}

#[test]
fn bfs_pagerank_cc_compose_on_generated_graph() {
    let el = gee_gen::rmat(11, 20_000, RmatParams::default(), 3).symmetrized();
    let g = CsrGraph::from_edge_list(&el);
    let n = g.num_vertices();

    let cc = algos::connected_components(&g);
    let dist = algos::bfs_distances(&g, 0);
    // BFS reachability from 0 must be exactly the component of 0.
    for v in 0..n as u32 {
        let same_component = cc[v as usize] == cc[0];
        let reached = dist[v as usize] != u32::MAX;
        assert_eq!(same_component, reached, "vertex {v}");
    }

    let pr = algos::pagerank(&g, algos::PageRankOptions::default());
    assert!((pr.iter().sum::<f64>() - 1.0).abs() < 1e-6);
}

#[test]
fn results_independent_of_thread_count() {
    let el = gee_gen::rmat(10, 10_000, RmatParams::default(), 5).symmetrized();
    let g = CsrGraph::from_edge_list(&el);
    let d1 = with_threads(1, || bfs_depths(&g, 0));
    let d8 = with_threads(8, || bfs_depths(&g, 0));
    assert_eq!(d1, d8, "BFS depths must not depend on parallelism");
    // They are BFS depths: no edge skips a level, and every reached
    // vertex but the source has a neighbour one level up (the graph is
    // symmetric, so out-neighbours are in-neighbours).
    assert_eq!(d1[0], 0);
    for u in 0..g.num_vertices() as u32 {
        let du = d1[u as usize];
        let nbrs = g.neighbors(u);
        for &v in nbrs {
            assert!(du == u32::MAX || d1[v as usize] <= du + 1, "edge {u}->{v}");
        }
        if du != 0 && du != u32::MAX {
            assert!(nbrs.iter().any(|&v| d1[v as usize] == du - 1), "vertex {u}");
        }
    }
    assert!(d1.iter().any(|&d| d > 1), "the search must go past one hop");

    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            g.num_vertices(),
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.3,
            },
            7,
        ),
        5,
    );
    let z1 = with_threads(1, || {
        gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic)
    });
    let z8 = with_threads(8, || {
        gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic)
    });
    z1.assert_close(&z8, 1e-9);
}

#[test]
fn io_round_trip_feeds_engine() {
    let el = gee_gen::erdos_renyi_gnm(400, 4_000, 9);
    // Text round trip.
    let mut text = Vec::new();
    edgelist::write(&mut text, &el).unwrap();
    let back = edgelist::read(std::io::Cursor::new(text), Some(400)).unwrap();
    assert_eq!(back, el);
    // Binary round trip through CSR.
    let g = CsrGraph::from_edge_list(&el);
    let mut bin = Vec::new();
    binary::write(&mut bin, &g).unwrap();
    let g2 = binary::read(bin.as_slice()).unwrap();
    // Same embedding from both.
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            400,
            LabelSpec {
                num_classes: 4,
                labeled_fraction: 0.5,
            },
            1,
        ),
        4,
    );
    let z1 = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    let z2 = gee_core::ligra::embed(&g2, &labels, AtomicsMode::Atomic);
    z1.assert_close(&z2, 1e-12);
}

#[test]
fn triangle_count_and_kcore_on_cliques() {
    // 3 disjoint K_5s: 10 triangles and core 4 each.
    let mut builder = GraphBuilder::new(15);
    for c in 0..3u32 {
        for i in 0..5 {
            for j in (i + 1)..5 {
                builder = builder.add_unit_edge(c * 5 + i, c * 5 + j);
            }
        }
    }
    let g = builder.symmetrize(true).build_csr().unwrap();
    assert_eq!(algos::triangle_count(&g), 30);
    assert!(algos::kcore(&g).iter().all(|&c| c == 4));
    assert_eq!(
        algos::cc::num_components(&algos::connected_components(&g)),
        3
    );
}

#[test]
fn betweenness_on_barbell() {
    // Two K_4s joined by a path through vertex 8: the bridge dominates.
    let mut b = GraphBuilder::new(9);
    for i in 0..4u32 {
        for j in (i + 1)..4 {
            b = b.add_unit_edge(i, j).add_unit_edge(4 + i, 4 + j);
        }
    }
    b = b.add_unit_edge(0, 8).add_unit_edge(8, 4);
    let g = b.symmetrize(true).build_csr().unwrap();
    // From source 0 the bridge vertex 8 relays all four far-clique targets.
    let dep = algos::betweenness(&g, 0);
    assert!(
        (dep[8] - 4.0).abs() < 1e-9,
        "bridge dependency should be 4: {dep:?}"
    );
    // Exclude the source itself: Brandes' δ_s(s) is defined but never
    // counted toward centrality.
    let max_other = (1..8u32).map(|v| dep[v as usize]).fold(0.0, f64::max);
    assert!(
        dep[8] >= max_other,
        "bridge vertex should dominate: {dep:?}"
    );
}
