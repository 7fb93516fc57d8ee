//! Edge-weight assigners — turn any generated unit-weight graph into a
//! weighted workload (GEE's Algorithm 1 is defined for weighted graphs).

use gee_graph::{Edge, EdgeList};
use rand::Rng;

use crate::stream_rng;

/// The weight distribution to draw from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightDistribution {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive; must exceed `lo`).
        hi: f64,
    },
    /// `exp(N(mu, sigma²))` approximated by a 12-uniform sum — heavy right
    /// tail, the standard model for latency/capacity-like weights.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal (≥ 0).
        sigma: f64,
    },
    /// Zipf-like discrete weights `1..=max` with `P(w) ∝ w^-alpha`.
    Zipf {
        /// Largest weight value.
        max: usize,
        /// Skew exponent (> 0).
        alpha: f64,
    },
}

/// Assign weights drawn from `dist` to every edge, preserving topology
/// and edge order. Deterministic in `seed`.
///
/// For **symmetrized** graphs, mirrored directions are assigned
/// independently; use [`assign_weights_symmetric`] to keep the two
/// directions of each undirected edge equal.
pub fn assign_weights(el: &EdgeList, dist: WeightDistribution, seed: u64) -> EdgeList {
    let mut rng = stream_rng(seed, 0x5747); // "WG"
    let mut draw = make_sampler(dist);
    let edges: Vec<Edge> = el
        .edges()
        .iter()
        .map(|e| Edge::new(e.u, e.v, draw(&mut rng)))
        .collect();
    EdgeList::new_unchecked(el.num_vertices(), edges)
}

/// Assign weights so that `(u, v)` and `(v, u)` always receive the same
/// value: the weight is drawn from a hash-seeded stream of the unordered
/// pair, so mirrored edges agree no matter where they sit in the list.
pub fn assign_weights_symmetric(el: &EdgeList, dist: WeightDistribution, seed: u64) -> EdgeList {
    let mut draw = make_sampler(dist);
    let edges: Vec<Edge> = el
        .edges()
        .iter()
        .map(|e| {
            let (a, b) = (e.u.min(e.v) as u64, e.u.max(e.v) as u64);
            let mut rng = stream_rng(seed, (a << 32) | b);
            Edge::new(e.u, e.v, draw(&mut rng))
        })
        .collect();
    EdgeList::new_unchecked(el.num_vertices(), edges)
}

fn make_sampler(dist: WeightDistribution) -> impl FnMut(&mut rand::rngs::StdRng) -> f64 {
    match dist {
        WeightDistribution::Uniform { lo, hi } => {
            assert!(hi > lo, "need lo < hi");
        }
        WeightDistribution::LogNormal { sigma, .. } => {
            assert!(sigma >= 0.0, "sigma must be non-negative");
        }
        WeightDistribution::Zipf { max, alpha } => {
            assert!(max >= 1, "zipf needs max >= 1");
            assert!(alpha > 0.0, "zipf needs alpha > 0");
        }
    }
    // Zipf CDF precomputed once.
    let zipf_cdf: Vec<f64> = if let WeightDistribution::Zipf { max, alpha } = dist {
        let weights: Vec<f64> = (1..=max).map(|w| (w as f64).powf(-alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    } else {
        Vec::new()
    };
    move |rng| match dist {
        WeightDistribution::Uniform { lo, hi } => rng.gen_range(lo..hi),
        WeightDistribution::LogNormal { mu, sigma } => {
            let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            (mu + sigma * z).exp()
        }
        WeightDistribution::Zipf { .. } => {
            let u: f64 = rng.gen();
            (1 + zipf_cdf.partition_point(|&c| c < u)) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EdgeList {
        crate::erdos_renyi_gnm(100, 1_000, 3)
    }

    #[test]
    fn uniform_weights_in_range() {
        let el = assign_weights(&base(), WeightDistribution::Uniform { lo: 2.0, hi: 5.0 }, 7);
        assert!(el.edges().iter().all(|e| (2.0..5.0).contains(&e.w)));
        assert_eq!(el.num_edges(), 1_000);
    }

    #[test]
    fn topology_preserved() {
        let b = base();
        let el = assign_weights(&b, WeightDistribution::Uniform { lo: 0.0, hi: 1.0 }, 7);
        assert!(b
            .edges()
            .iter()
            .zip(el.edges())
            .all(|(x, y)| x.u == y.u && x.v == y.v));
    }

    #[test]
    fn lognormal_is_positive_and_skewed() {
        let el = assign_weights(
            &base(),
            WeightDistribution::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            9,
        );
        assert!(el.edges().iter().all(|e| e.w > 0.0));
        let mean: f64 = el.edges().iter().map(|e| e.w).sum::<f64>() / 1_000.0;
        let median = {
            let mut ws: Vec<f64> = el.edges().iter().map(|e| e.w).collect();
            ws.sort_by(f64::total_cmp);
            ws[500]
        };
        assert!(
            mean > median,
            "right-skew: mean {mean} must exceed median {median}"
        );
    }

    #[test]
    fn zipf_discrete_and_skewed() {
        let el = assign_weights(
            &base(),
            WeightDistribution::Zipf {
                max: 10,
                alpha: 1.5,
            },
            11,
        );
        assert!(el
            .edges()
            .iter()
            .all(|e| e.w >= 1.0 && e.w <= 10.0 && e.w.fract() == 0.0));
        let ones = el.edges().iter().filter(|e| e.w == 1.0).count();
        assert!(ones > 300, "w=1 should dominate, got {ones}/1000");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = assign_weights(
            &base(),
            WeightDistribution::Uniform { lo: 0.0, hi: 1.0 },
            13,
        );
        let b = assign_weights(
            &base(),
            WeightDistribution::Uniform { lo: 0.0, hi: 1.0 },
            13,
        );
        assert!(a.edges().iter().zip(b.edges()).all(|(x, y)| x.w == y.w));
        let c = assign_weights(
            &base(),
            WeightDistribution::Uniform { lo: 0.0, hi: 1.0 },
            14,
        );
        assert!(a.edges().iter().zip(c.edges()).any(|(x, y)| x.w != y.w));
    }

    #[test]
    fn symmetric_assigner_mirrors_weights() {
        let el = base().symmetrized();
        let w = assign_weights_symmetric(&el, WeightDistribution::Uniform { lo: 1.0, hi: 9.0 }, 15);
        let mut by_pair = std::collections::HashMap::new();
        for e in w.edges() {
            let key = (e.u.min(e.v), e.u.max(e.v));
            let prev = by_pair.insert(key, e.w);
            if let Some(p) = prev {
                assert_eq!(p, e.w, "mirrored edge {key:?} weights differ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_validates_bounds() {
        assign_weights(&base(), WeightDistribution::Uniform { lo: 1.0, hi: 1.0 }, 0);
    }
}
