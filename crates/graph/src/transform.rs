//! Graph transforms: self-loop removal, vertex compaction, permutation,
//! parallel-edge coalescing, edge sampling.

use std::collections::HashMap;

use crate::{Edge, EdgeList, VertexId};

/// Remove self-loops from an edge list.
pub fn remove_self_loops(el: &EdgeList) -> EdgeList {
    let edges: Vec<Edge> = el.edges().iter().copied().filter(|e| e.u != e.v).collect();
    EdgeList::new_unchecked(el.num_vertices(), edges)
}

/// Relabel vertices so that only vertices that appear on at least one edge
/// get ids, in order of first appearance. Returns the compacted edge list
/// and the old→new id map (dense vector with `u32::MAX` for absent ids).
///
/// SNAP files frequently have sparse, non-contiguous ids; Table I's graph
/// sizes count only active vertices, so the loaders compact by default.
pub fn compact(el: &EdgeList) -> (EdgeList, Vec<VertexId>) {
    let mut map: Vec<VertexId> = vec![VertexId::MAX; el.num_vertices()];
    let mut next: VertexId = 0;
    let mut edges = Vec::with_capacity(el.num_edges());
    for e in el.edges() {
        for endpoint in [e.u, e.v] {
            if map[endpoint as usize] == VertexId::MAX {
                map[endpoint as usize] = next;
                next += 1;
            }
        }
        edges.push(Edge::new(map[e.u as usize], map[e.v as usize], e.w));
    }
    (EdgeList::new_unchecked(next as usize, edges), map)
}

/// Apply an arbitrary vertex permutation `perm` (new id of vertex `v` is
/// `perm[v]`). `perm` must be a bijection on `0..n`.
pub fn permute(el: &EdgeList, perm: &[VertexId]) -> EdgeList {
    assert_eq!(
        perm.len(),
        el.num_vertices(),
        "permutation length must equal vertex count"
    );
    debug_assert!({
        let mut seen = vec![false; perm.len()];
        perm.iter().all(|&p| {
            let fresh = !seen[p as usize];
            seen[p as usize] = true;
            fresh
        })
    });
    let edges = el
        .edges()
        .iter()
        .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize], e.w))
        .collect();
    EdgeList::new_unchecked(el.num_vertices(), edges)
}

/// Merge parallel edges by summing weights. Output order is by first
/// occurrence of each `(u, v)` pair.
pub fn coalesce(el: &EdgeList) -> EdgeList {
    let mut slot: HashMap<(VertexId, VertexId), usize> = HashMap::new();
    let mut merged: Vec<Edge> = Vec::new();
    for e in el.edges() {
        match slot.entry((e.u, e.v)) {
            std::collections::hash_map::Entry::Occupied(o) => merged[*o.get()].w += e.w,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(merged.len());
                merged.push(*e);
            }
        }
    }
    EdgeList::new_unchecked(el.num_vertices(), merged)
}

/// Deterministically keep each edge with probability `p`, decided by a
/// SplitMix64 hash of `(seed, edge index)` — no RNG dependency and stable
/// under re-runs. Vertex ids are preserved (not compacted), so sampled
/// graphs stay comparable to the original.
pub fn sample_edges(el: &EdgeList, p: f64, seed: u64) -> EdgeList {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let threshold = (p * u64::MAX as f64) as u64;
    let edges: Vec<Edge> = el
        .edges()
        .iter()
        .enumerate()
        .filter(|(i, _)| splitmix64(seed ^ (*i as u64).wrapping_mul(0x9E37_79B9)) <= threshold)
        .map(|(_, e)| *e)
        .collect();
    EdgeList::new_unchecked(el.num_vertices(), edges)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        EdgeList::new(
            10,
            vec![
                Edge::unit(3, 3),
                Edge::unit(3, 7),
                Edge::new(7, 3, 2.0),
                Edge::new(7, 3, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn self_loop_removal() {
        let el = remove_self_loops(&sample());
        assert_eq!(el.num_edges(), 3);
        assert!(el.edges().iter().all(|e| e.u != e.v));
    }

    #[test]
    fn compact_renumbers_in_appearance_order() {
        let (el, map) = compact(&sample());
        assert_eq!(el.num_vertices(), 2);
        assert_eq!(map[3], 0);
        assert_eq!(map[7], 1);
        assert_eq!(map[0], VertexId::MAX);
        assert_eq!(el.edges()[1], Edge::unit(0, 1));
    }

    #[test]
    fn coalesce_sums_parallel_edges() {
        let el = coalesce(&sample());
        assert_eq!(el.num_edges(), 3);
        let w: f64 = el.edges().iter().find(|e| e.u == 7).unwrap().w;
        assert_eq!(w, 2.5);
    }

    #[test]
    fn permute_is_bijective_relabel() {
        let el = EdgeList::new(3, vec![Edge::unit(0, 1), Edge::unit(1, 2)]).unwrap();
        let out = permute(&el, &[2, 0, 1]);
        assert_eq!(out.edges()[0], Edge::unit(2, 0));
        assert_eq!(out.edges()[1], Edge::unit(0, 1));
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn permute_rejects_wrong_length() {
        let el = EdgeList::new(3, vec![Edge::unit(0, 1)]).unwrap();
        permute(&el, &[0, 1]);
    }

    #[test]
    fn sample_edges_extremes() {
        let el = EdgeList::new(5, (0..4).map(|i| Edge::unit(i, i + 1)).collect()).unwrap();
        assert_eq!(sample_edges(&el, 1.0, 7).num_edges(), 4);
        assert_eq!(sample_edges(&el, 0.0, 7).num_edges(), 0);
        // Vertex universe preserved.
        assert_eq!(sample_edges(&el, 0.5, 7).num_vertices(), 5);
    }

    #[test]
    fn sample_edges_rate_and_determinism() {
        let edges: Vec<Edge> = (0..10_000u32)
            .map(|i| Edge::unit(i % 100, (i + 1) % 100))
            .collect();
        let el = EdgeList::new(100, edges).unwrap();
        let a = sample_edges(&el, 0.3, 11);
        let b = sample_edges(&el, 0.3, 11);
        assert_eq!(a.num_edges(), b.num_edges());
        let rate = a.num_edges() as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
        let c = sample_edges(&el, 0.3, 12);
        assert_ne!(a.num_edges(), 0);
        // Different seed almost surely differs in the selected multiset.
        assert!(a.num_edges() != c.num_edges() || a.edges() != c.edges());
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn sample_edges_validates_p() {
        let el = EdgeList::new(2, vec![Edge::unit(0, 1)]).unwrap();
        sample_edges(&el, 1.5, 0);
    }
}
