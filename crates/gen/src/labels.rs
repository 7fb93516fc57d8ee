//! Label generators matching the paper's experimental configuration:
//! "We generated the Y labels uniformly at random from [0, K = 50] for 10%
//! of nodes, which were also selected uniformly at random" (§IV).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::stream_rng;

/// Specification of the semi-supervised labeling experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelSpec {
    /// Number of classes K.
    pub num_classes: usize,
    /// Fraction of vertices that receive a label (paper: 0.10).
    pub labeled_fraction: f64,
}

impl Default for LabelSpec {
    /// The paper's configuration: K = 50, 10% labeled.
    fn default() -> Self {
        LabelSpec {
            num_classes: 50,
            labeled_fraction: 0.10,
        }
    }
}

/// Generate per-vertex labels: a uniformly random `labeled_fraction` subset
/// of vertices gets a uniform class in `0..num_classes`; the rest are
/// unknown (`None`, encoded as `-1` by the GEE crate's `Labels` type).
pub fn random_labels(n: usize, spec: LabelSpec, seed: u64) -> Vec<Option<u32>> {
    assert!(spec.num_classes >= 1, "need at least one class");
    assert!(
        (0.0..=1.0).contains(&spec.labeled_fraction),
        "labeled_fraction must be a probability"
    );
    let mut rng = stream_rng(seed, 0);
    let num_labeled = ((n as f64) * spec.labeled_fraction).round() as usize;
    let mut ids: Vec<u32> = (0..n as u32).collect();
    ids.partial_shuffle(&mut rng, num_labeled);
    let mut out = vec![None; n];
    for &v in ids.iter().take(num_labeled) {
        out[v as usize] = Some(rng.gen_range(0..spec.num_classes as u32));
    }
    out
}

/// Fully-labeled variant (used by correctness tests where every vertex must
/// contribute).
pub fn full_labels(n: usize, num_classes: usize, seed: u64) -> Vec<Option<u32>> {
    assert!(num_classes >= 1);
    let mut rng = stream_rng(seed, 1);
    (0..n)
        .map(|_| Some(rng.gen_range(0..num_classes as u32)))
        .collect()
}

/// Corrupt ground-truth labels: keep each with probability `keep`, set the
/// rest to unknown. Used to study semi-supervision strength vs embedding
/// quality (extension experiment).
pub fn subsample_labels(truth: &[u32], keep: f64, seed: u64) -> Vec<Option<u32>> {
    assert!((0.0..=1.0).contains(&keep));
    let mut rng = stream_rng(seed, 2);
    truth
        .iter()
        .map(|&t| {
            if rng.gen::<f64>() < keep {
                Some(t)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_respected_exactly() {
        let labels = random_labels(
            1000,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.1,
            },
            3,
        );
        let labeled = labels.iter().filter(|l| l.is_some()).count();
        assert_eq!(labeled, 100);
    }

    #[test]
    fn classes_in_range() {
        let labels = random_labels(
            500,
            LabelSpec {
                num_classes: 7,
                labeled_fraction: 0.5,
            },
            4,
        );
        assert!(labels.iter().flatten().all(|&c| c < 7));
    }

    #[test]
    fn deterministic() {
        let s = LabelSpec::default();
        assert_eq!(random_labels(100, s, 9), random_labels(100, s, 9));
        assert_ne!(random_labels(100, s, 9), random_labels(100, s, 10));
    }

    #[test]
    fn all_classes_used_eventually() {
        let labels = random_labels(
            5000,
            LabelSpec {
                num_classes: 10,
                labeled_fraction: 1.0,
            },
            5,
        );
        let mut seen = [false; 10];
        for l in labels.iter().flatten() {
            seen[*l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn full_labels_all_present() {
        assert!(full_labels(100, 3, 1).iter().all(|l| l.is_some()));
    }

    #[test]
    fn subsample_extremes() {
        let truth = vec![1u32; 50];
        assert!(subsample_labels(&truth, 1.0, 1).iter().all(|l| l.is_some()));
        assert!(subsample_labels(&truth, 0.0, 1).iter().all(|l| l.is_none()));
    }

    #[test]
    fn zero_fraction_labels_nothing() {
        let labels = random_labels(
            100,
            LabelSpec {
                num_classes: 5,
                labeled_fraction: 0.0,
            },
            2,
        );
        assert!(labels.iter().all(|l| l.is_none()));
    }
}
