//! Property-based tests of the graph substrate's core invariants.

use gee_graph::{edge_balanced_ranges, rows_in_edge_order, CsrGraph, Edge, EdgeList};
use proptest::prelude::*;

/// An R-MAT graph (duplicates and self-loops kept) with a few distinct
/// weights, so an entry out of order shows in the weights too.
fn rmat_fixture() -> EdgeList {
    let base = gee_gen::rmat(9, 6_000, gee_gen::RmatParams::default(), 41);
    let edges: Vec<Edge> = base
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| Edge::new(e.u, e.v, 0.5 + (i % 7) as f64))
        .collect();
    assert!(edges.iter().any(|e| e.u == e.v), "fixture needs self-loops");
    EdgeList::new_unchecked(base.num_vertices(), edges)
}

fn on_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

/// Every vertex's CSR row is the edge-order filter of the edge list, at
/// any thread count — the scatter is stable, not first-come.
#[test]
fn csr_rows_keep_edge_order_at_any_thread_count() {
    let el = rmat_fixture();
    for threads in [1, 2, 3, 17] {
        let g = on_threads(threads, || CsrGraph::from_edge_list(&el));
        for v in 0..el.num_vertices() as u32 {
            let (targets, weights): (Vec<u32>, Vec<f64>) = el
                .edges()
                .iter()
                .filter(|e| e.u == v)
                .map(|e| (e.v, e.w))
                .unzip();
            assert_eq!(g.neighbors(v), targets, "vertex {v}, {threads} threads");
            assert_eq!(
                g.edge_weights(v).unwrap(),
                weights,
                "vertex {v}, {threads} threads"
            );
        }
    }
}

/// The incident rows (both endpoints of every edge, source entry first)
/// are the edge-order filter too, at any thread count.
#[test]
fn incident_rows_keep_edge_order_at_any_thread_count() {
    let el = rmat_fixture();
    let n = el.num_vertices();
    let mut expected = vec![Vec::new(); n];
    for e in el.edges() {
        expected[e.u as usize].push((e.v, e.w.to_bits()));
        expected[e.v as usize].push((e.u, e.w.to_bits()));
    }
    for threads in [1, 2, 3, 17] {
        let (offsets, targets, weights) =
            on_threads(threads, || rows_in_edge_order(n, el.edges(), true, true, 2));
        assert_eq!(offsets.len(), n + 1);
        for (x, want) in expected.iter().enumerate() {
            let row = offsets[x]..offsets[x + 1] - 2;
            assert_eq!(targets[row.end..offsets[x + 1]], [0, 0], "gap of {x}");
            let got: Vec<(u32, u64)> = targets[row.clone()]
                .iter()
                .zip(&weights[row])
                .map(|(&t, w)| (t, w.to_bits()))
                .collect();
            assert_eq!(&got, want, "vertex {x}, {threads} threads");
        }
    }
    let (offsets, targets, weights) = rows_in_edge_order(3, &[], true, true, 1);
    assert_eq!(
        (offsets, targets, weights),
        (vec![0, 1, 2, 3], vec![0; 3], vec![0.0; 3])
    );
}

/// Strategy: an arbitrary small graph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f64..10.0), 0..200).prop_map(
            move |triples| {
                let edges = triples
                    .into_iter()
                    .map(|(u, v, w)| Edge::new(u, v, w))
                    .collect();
                EdgeList::new_unchecked(n, edges)
            },
        )
    })
}

/// Strategy: a degree sequence with the shapes the range helper must
/// survive — no vertices, no edges, one hub owning every edge, ordinary.
fn arb_degrees() -> impl Strategy<Value = Vec<usize>> {
    let degrees = proptest::collection::vec(0usize..30, 0..40);
    (0usize..4, 0usize..40, degrees).prop_map(|(shape, hub, mut degrees)| {
        let m: usize = degrees.iter().sum();
        if shape < 2 {
            degrees.iter_mut().for_each(|d| *d = 0);
        }
        if shape == 1 && !degrees.is_empty() {
            let hub = hub % degrees.len();
            degrees[hub] = m;
        }
        degrees
    })
}

proptest! {
    /// The edge-balanced ranges are non-empty, ordered and contiguous,
    /// cover `0..n` exactly once with at most `parts` pieces (more parts
    /// than vertices included), and none holds more than
    /// `⌈m / parts⌉ + max degree` edges.
    #[test]
    fn edge_balanced_ranges_cover_and_balance(degrees in arb_degrees(), parts in 1usize..70) {
        let n = degrees.len();
        let mut offsets = vec![0usize];
        for d in &degrees {
            offsets.push(offsets.last().unwrap() + d);
        }
        let m = offsets[n];
        let max_degree = degrees.iter().copied().max().unwrap_or(0);
        let ranges = edge_balanced_ranges(&offsets, parts);
        prop_assert!(ranges.len() <= parts);
        let mut next = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
            prop_assert!(offsets[r.end] - offsets[r.start] <= m.div_ceil(parts) + max_degree);
        }
        prop_assert_eq!(next, n);
    }

    /// CSR preserves the edge multiset exactly.
    #[test]
    fn csr_preserves_edge_multiset(el in arb_graph()) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert_eq!(g.num_edges(), el.num_edges());
        let mut a: Vec<(u32, u32, u64)> =
            el.iter().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut b: Vec<(u32, u32, u64)> =
            g.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Degrees sum to the edge count and match per-vertex counts.
    #[test]
    fn degrees_consistent(el in arb_graph()) {
        let g = CsrGraph::from_edge_list(&el);
        let total: usize = (0..g.num_vertices() as u32).map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(total, g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(g.out_degree(v), g.neighbors(v).len());
        }
    }

    /// Transposing twice restores the original edge multiset.
    #[test]
    fn transpose_is_involution(el in arb_graph()) {
        let mut g = CsrGraph::from_edge_list(&el);
        g.ensure_transpose();
        let mut t = g.transpose().unwrap().clone();
        t.ensure_transpose();
        let tt = t.transpose().unwrap();
        let mut a: Vec<(u32, u32, u64)> =
            g.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut b: Vec<(u32, u32, u64)> =
            tt.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Symmetrization makes in-degree equal out-degree for every vertex.
    #[test]
    fn symmetrize_balances_degrees(el in arb_graph()) {
        let loopless: Vec<Edge> = el.edges().iter().copied().filter(|e| e.u != e.v).collect();
        let sym = EdgeList::new_unchecked(el.num_vertices(), loopless).symmetrized();
        let mut g = CsrGraph::from_edge_list(&sym);
        g.ensure_transpose();
        let t = g.transpose().unwrap();
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(g.out_degree(v), t.out_degree(v), "vertex {}", v);
        }
    }

    /// Binary round trip is exact.
    #[test]
    fn binary_round_trip(el in arb_graph()) {
        let g = CsrGraph::from_edge_list(&el);
        let mut bytes = Vec::new();
        gee_graph::io::binary::write(&mut bytes, &g).unwrap();
        let back = gee_graph::io::binary::read(bytes.as_slice()).unwrap();
        prop_assert_eq!(g.offsets(), back.offsets());
        prop_assert_eq!(g.targets(), back.targets());
        prop_assert_eq!(g.weights(), back.weights());
    }

    /// Text edge-list round trip preserves the list exactly (weights in
    /// this strategy are short decimals that survive f64 printing).
    #[test]
    fn text_round_trip(el in arb_graph()) {
        let mut buf = Vec::new();
        gee_graph::io::edgelist::write(&mut buf, &el).unwrap();
        let back = gee_graph::io::edgelist::read(buf.as_slice(), Some(el.num_vertices())).unwrap();
        prop_assert_eq!(back.num_edges(), el.num_edges());
        for (a, b) in back.edges().iter().zip(el.edges()) {
            prop_assert_eq!(a.u, b.u);
            prop_assert_eq!(a.v, b.v);
            prop_assert!((a.w - b.w).abs() < 1e-12);
        }
    }

    /// Edge-stream round trip is bit-exact.
    #[test]
    fn stream_round_trip(el in arb_graph()) {
        let mut bytes = Vec::new();
        gee_graph::io::edge_stream::write(&mut bytes, &el).unwrap();
        let mut r = gee_graph::io::edge_stream::EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let mut buf = Vec::new();
        let mut all = Vec::new();
        while r.read_chunk(&mut buf, 13).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        prop_assert_eq!(all.as_slice(), el.edges());
    }

    /// Compression round-trips the edge multiset exactly.
    #[test]
    fn compression_round_trip(el in arb_graph()) {
        let g = CsrGraph::from_edge_list(&el);
        let c = gee_graph::CompressedCsr::from_csr(&g);
        prop_assert_eq!(c.num_edges(), g.num_edges());
        let back = c.to_csr();
        let mut a: Vec<(u32, u32, u64)> =
            g.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        let mut b: Vec<(u32, u32, u64)> =
            back.iter_edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Per-vertex degrees survive too.
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(c.out_degree(v), g.out_degree(v));
        }
    }

    /// Compressed decode yields ascending targets per vertex.
    #[test]
    fn compression_decodes_sorted(el in arb_graph()) {
        let g = CsrGraph::from_edge_list(&el);
        let c = gee_graph::CompressedCsr::from_csr(&g);
        for v in 0..g.num_vertices() as u32 {
            let mut prev = None;
            c.for_each_out(v, |t, _| {
                if let Some(p) = prev {
                    assert!(t >= p, "vertex {v}: {t} after {p}");
                }
                prev = Some(t);
            });
        }
    }

    /// Every ordering is a true permutation, and applying it preserves the
    /// degree multiset.
    #[test]
    fn orderings_are_permutations(el in arb_graph(), seed in 0u64..100) {
        use gee_graph::ordering;
        let g = CsrGraph::from_edge_list(&el);
        let n = g.num_vertices();
        for perm in [
            ordering::degree_order(&g),
            ordering::bfs_order(&g),
            ordering::random_order(n, seed),
        ] {
            let mut seen = vec![false; n];
            for &p in &perm {
                prop_assert!(!seen[p as usize], "duplicate target id");
                seen[p as usize] = true;
            }
            let permuted = ordering::apply(&el, &perm);
            let g2 = CsrGraph::from_edge_list(&permuted);
            let mut d1: Vec<usize> = (0..n as u32).map(|v| g.out_degree(v)).collect();
            let mut d2: Vec<usize> = (0..n as u32).map(|v| g2.out_degree(v)).collect();
            d1.sort_unstable();
            d2.sort_unstable();
            prop_assert_eq!(d1, d2);
        }
    }

    /// Matrix Market round trip preserves topology (weights as printed
    /// decimals survive f64 round trip for this strategy's values).
    #[test]
    fn mtx_round_trip(el in arb_graph()) {
        let mut buf = Vec::new();
        gee_graph::io::mtx::write(&mut buf, &el).unwrap();
        let back = gee_graph::io::mtx::read(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.num_edges(), el.num_edges());
        for (a, b) in back.edges().iter().zip(el.edges()) {
            prop_assert_eq!(a.u, b.u);
            prop_assert_eq!(a.v, b.v);
            prop_assert!((a.w - b.w).abs() < 1e-12);
        }
    }
}
