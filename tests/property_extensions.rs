//! Property-based tests for the extension features, driven by random
//! operation sequences and graph shapes: dynamic GEE against static
//! recompute, frontier Bellman-Ford SSSP against Dijkstra, the
//! generators' invariants and GEE's linearity in the edge set.

use proptest::prelude::*;

use gee_repro::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dynamic GEE equals a static recompute after any random update
    /// stream (small instances; the oracle is O(s) per check).
    #[test]
    fn dynamic_matches_static_after_random_stream(
        seed in 0u64..200,
        ops in proptest::collection::vec((0u8..4, 0u32..30, 0u32..30, 1u32..4), 0..60),
    ) {
        let n = 30usize;
        let k = 4usize;
        let el = gee_gen::erdos_renyi_gnm(n, 90, seed);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(n, LabelSpec { num_classes: k, labeled_fraction: 0.5 }, seed ^ 1),
            k,
        );
        let mut dg = gee_core::dynamic::DynamicGee::new(&el, &labels);
        let mut tracked: Vec<(u32, u32, f64)> = Vec::new();
        for (kind, a, b, w) in ops {
            let w = f64::from(w);
            match kind {
                0 => {
                    dg.insert_edge(a, b, w);
                    tracked.push((a, b, w));
                }
                1 if !tracked.is_empty() => {
                    let (u, v, w) = tracked.swap_remove(a as usize % tracked.len());
                    prop_assert!(dg.remove_edge(u, v, w));
                }
                2 => dg.set_label(a, Some(b % k as u32)),
                _ => dg.set_label(a, None),
            }
        }
        let fresh = gee_core::serial_optimized::embed(&dg.edge_list(), &dg.labels());
        let dynamic = dg.embedding();
        let scale = fresh.as_slice().iter().fold(1.0f64, |m, x| m.max(x.abs()));
        prop_assert!(fresh.max_abs_diff(&dynamic) <= 1e-9 * scale);
    }

    /// Frontier Bellman-Ford equals Dijkstra for random graphs and weights.
    #[test]
    fn sssp_matches_dijkstra(
        seed in 0u64..100,
        n in 10usize..80,
    ) {
        let el = gee_gen::erdos_renyi_gnm(n, n * 4, seed);
        let edges: Vec<Edge> = el
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| Edge::new(e.u, e.v, 0.1 + ((i * 7 + seed as usize) % 13) as f64 * 0.4))
            .collect();
        let g = CsrGraph::from_edge_list(&EdgeList::new_unchecked(n, edges));
        let fast = gee_repro::algos::sssp(&g, 0);
        // Dijkstra oracle.
        let mut dist = vec![f64::INFINITY; n];
        dist[0] = 0.0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push((std::cmp::Reverse(0u64), 0u32));
        while let Some((std::cmp::Reverse(db), u)) = heap.pop() {
            let d = f64::from_bits(db);
            if d > dist[u as usize] {
                continue;
            }
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                let nd = d + g.weight_at(u, i);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push((std::cmp::Reverse(nd.to_bits()), v));
                }
            }
        }
        for v in 0..n {
            if fast[v].is_finite() || dist[v].is_finite() {
                prop_assert!((fast[v] - dist[v]).abs() < 1e-9, "vertex {}: {} vs {}", v, fast[v], dist[v]);
            }
        }
    }

    /// The configuration model reproduces its degree sequence exactly.
    #[test]
    fn config_model_degree_sequence_exact(
        seed in 0u64..200,
        mut degrees in proptest::collection::vec(0usize..8, 2..40),
    ) {
        if degrees.iter().sum::<usize>() % 2 == 1 {
            degrees[0] += 1;
        }
        let el = gee_gen::config_model(&degrees, seed);
        let mut out = vec![0usize; degrees.len()];
        for e in el.edges() {
            out[e.u as usize] += 1;
        }
        prop_assert_eq!(out, degrees);
    }

    /// Watts–Strogatz never loses edges and never produces self-loops.
    #[test]
    fn watts_strogatz_invariants(
        n in 5usize..60,
        half_k in 1usize..3,
        beta in 0.0f64..1.0,
        seed in 0u64..100,
    ) {
        let k = 2 * half_k;
        prop_assume!(k < n);
        let el = gee_gen::watts_strogatz(gee_gen::WsParams { n, k, beta }, seed);
        prop_assert_eq!(el.num_edges(), n * k);
        prop_assert!(el.edges().iter().all(|e| e.u != e.v));
    }

    /// GEE is linear in the edge set: embedding(kept) + embedding(dropped)
    /// equals embedding(all), entrywise up to FP reassociation.
    #[test]
    fn gee_is_linear_in_the_edge_set(
        seed in 0u64..100,
        p in 0.0f64..1.0,
    ) {
        let n = 40usize;
        let el = gee_gen::erdos_renyi_gnm(n, 200, seed);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(n, LabelSpec { num_classes: 4, labeled_fraction: 0.5 }, seed ^ 3),
            4,
        );
        let kept = gee_graph::transform::sample_edges(&el, p, seed ^ 7);
        // sample_edges keeps each *occurrence* independently; rebuild the
        // dropped multiset by decrementing kept occurrences.
        let mut counts = std::collections::HashMap::new();
        for e in kept.edges() {
            *counts.entry((e.u, e.v, e.w.to_bits())).or_insert(0u32) += 1;
        }
        let mut dropped = Vec::new();
        for e in el.edges() {
            let key = (e.u, e.v, e.w.to_bits());
            match counts.get_mut(&key) {
                Some(c) if *c > 0 => *c -= 1,
                _ => dropped.push(*e),
            }
        }
        let dropped_el = EdgeList::new_unchecked(n, dropped);
        let z_kept = gee_core::serial_optimized::embed(&kept, &labels);
        let z_dropped = gee_core::serial_optimized::embed(&dropped_el, &labels);
        let z_full = gee_core::serial_optimized::embed(&el, &labels);
        for ((a, b), c) in z_kept.as_slice().iter().zip(z_dropped.as_slice()).zip(z_full.as_slice()) {
            prop_assert!((a + b - c).abs() < 1e-9, "linearity violated: {} + {} != {}", a, b, c);
        }
    }
}
