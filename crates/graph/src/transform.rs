//! Graph transforms: vertex permutation and edge sampling.

use crate::{Edge, EdgeList, VertexId};

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
