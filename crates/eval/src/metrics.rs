//! Clustering agreement metrics: ARI, purity, scatter ratio.

use std::collections::HashMap;

/// Joint label-pair counts.
type JointCounts = HashMap<(u32, u32), f64>;
/// Per-label marginal counts.
type MarginalCounts = HashMap<u32, f64>;

/// Contingency table between two labelings (rows: `a`, cols: `b`).
fn contingency(a: &[u32], b: &[u32]) -> (JointCounts, MarginalCounts, MarginalCounts) {
    assert_eq!(a.len(), b.len(), "labelings must cover the same points");
    let mut joint: HashMap<(u32, u32), f64> = HashMap::new();
    let mut ma: HashMap<u32, f64> = HashMap::new();
    let mut mb: HashMap<u32, f64> = HashMap::new();
    for (&x, &y) in a.iter().zip(b) {
        *joint.entry((x, y)).or_default() += 1.0;
        *ma.entry(x).or_default() += 1.0;
        *mb.entry(y).or_default() += 1.0;
    }
    (joint, ma, mb)
}

fn choose2(x: f64) -> f64 {
    x * (x - 1.0) / 2.0
}

/// Adjusted Rand Index (Hubert & Arabie). 1 = identical partitions,
/// ~0 = chance agreement; can be negative.
pub fn adjusted_rand_index(a: &[u32], b: &[u32]) -> f64 {
    let n = a.len() as f64;
    if a.is_empty() {
        return 1.0;
    }
    let (joint, ma, mb) = contingency(a, b);
    let sum_ij: f64 = joint.values().map(|&c| choose2(c)).sum();
    let sum_a: f64 = ma.values().map(|&c| choose2(c)).sum();
    let sum_b: f64 = mb.values().map(|&c| choose2(c)).sum();
    let total = choose2(n);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-15 {
        return 1.0; // both partitions trivial (all-singletons or all-one)
    }
    (sum_ij - expected) / (max_index - expected)
}

/// Purity: fraction of points whose cluster's majority truth class matches
/// their own.
pub fn purity(clusters: &[u32], truth: &[u32]) -> f64 {
    assert_eq!(clusters.len(), truth.len());
    if clusters.is_empty() {
        return 1.0;
    }
    let (joint, ma, _) = contingency(clusters, truth);
    let mut correct = 0.0;
    for &c in ma.keys() {
        let best = joint
            .iter()
            .filter(|(&(x, _), _)| x == c)
            .map(|(_, &cnt)| cnt)
            .fold(0.0f64, f64::max);
        correct += best;
    }
    correct / clusters.len() as f64
}

/// Ratio of mean within-class squared distance to mean between-class
/// squared distance of an `n × dim` row-major embedding under `labels`.
/// Lower = better class separation. Classes with one member contribute no
/// within-class pairs.
pub fn scatter_ratio(data: &[f64], n: usize, dim: usize, labels: &[u32]) -> f64 {
    assert_eq!(data.len(), n * dim);
    assert_eq!(labels.len(), n);
    let row = |i: usize| &data[i * dim..(i + 1) * dim];
    // Class means and global mean.
    let mut sums: HashMap<u32, (Vec<f64>, f64)> = HashMap::new();
    #[allow(clippy::needless_range_loop)] // i indexes both rows and labels
    for i in 0..n {
        let e = sums
            .entry(labels[i])
            .or_insert_with(|| (vec![0.0; dim], 0.0));
        for (s, &x) in e.0.iter_mut().zip(row(i)) {
            *s += x;
        }
        e.1 += 1.0;
    }
    let mut within = 0.0;
    for i in 0..n {
        let (s, c) = &sums[&labels[i]];
        within += row(i)
            .iter()
            .zip(s)
            .map(|(&x, &m)| {
                let mu = m / c;
                (x - mu) * (x - mu)
            })
            .sum::<f64>();
    }
    within /= n as f64;
    // Between: variance of class means weighted by size.
    let mut global = vec![0.0; dim];
    for i in 0..n {
        for (g, &x) in global.iter_mut().zip(row(i)) {
            *g += x;
        }
    }
    for g in global.iter_mut() {
        *g /= n as f64;
    }
    let mut between = 0.0;
    for (s, c) in sums.values() {
        let d2: f64 = s
            .iter()
            .zip(&global)
            .map(|(&m, &g)| {
                let mu = m / c;
                (mu - g) * (mu - g)
            })
            .sum();
        between += c * d2;
    }
    between /= n as f64;
    if between < 1e-300 {
        return f64::INFINITY;
    }
    within / between
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ari_identical_is_one() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((adjusted_rand_index(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_permuted_labels_is_one() {
        let a = vec![0, 0, 1, 1];
        let b = vec![5, 5, 9, 9];
        assert!((adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ari_independent_near_zero() {
        // Balanced checkerboard disagreement.
        let a = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let b = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari.abs() < 0.3, "ari {ari}");
    }

    #[test]
    fn ari_known_value() {
        // Classic example: one point moved between clusters.
        let a = vec![0, 0, 0, 1, 1, 1];
        let b = vec![0, 0, 1, 1, 1, 1];
        let ari = adjusted_rand_index(&a, &b);
        assert!(ari > 0.2 && ari < 1.0);
    }

    #[test]
    fn purity_perfect_and_half() {
        let truth = vec![0, 0, 1, 1];
        assert_eq!(purity(&[0, 0, 1, 1], &truth), 1.0);
        assert_eq!(purity(&[0, 0, 0, 0], &truth), 0.5);
    }

    #[test]
    fn scatter_separated_blobs_small() {
        // Two tight blobs far apart: ratio ~ 0.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            data.extend_from_slice(&[(i % 3) as f64 * 0.01, 0.0]);
            labels.push(0);
        }
        for i in 0..10 {
            data.extend_from_slice(&[100.0 + (i % 3) as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let r = scatter_ratio(&data, 20, 2, &labels);
        assert!(r < 1e-4, "ratio {r}");
    }

    #[test]
    fn scatter_mixed_is_large() {
        // Random labels on a single blob: between ≈ 0 → huge ratio.
        let data: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let labels: Vec<u32> = (0..20).map(|i| (i % 2) as u32).collect();
        let r = scatter_ratio(&data, 20, 2, &labels);
        assert!(r > 1.0, "ratio {r}");
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(adjusted_rand_index(&[], &[]), 1.0);
        assert_eq!(purity(&[], &[]), 1.0);
    }
}
