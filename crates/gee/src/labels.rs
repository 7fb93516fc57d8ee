//! Class labels `Y ∈ {unknown, 0, …, K-1}` for semi-supervised GEE.
//!
//! Algorithm 1 encodes "class unknown" as `k = 0` and classes as `1..=K`;
//! we use the equivalent but less error-prone encoding `Option<u32>` at the
//! API boundary and `-1` internally (a dense `i32` vector keeps the hot
//! loop branch-free: `y[v] < 0` is the unknown test).

use gee_graph::VertexId;

/// Per-vertex class labels with precomputed class sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Labels {
    /// `-1` = unknown, otherwise the class in `0..k`.
    y: Vec<i32>,
    /// Number of classes `K`.
    k: usize,
    /// Labeled-vertex count per class.
    counts: Vec<u64>,
}

impl Labels {
    /// Build from optional labels; `K` is inferred as `1 + max label`
    /// (zero classes if nothing is labeled).
    pub fn from_options(y: &[Option<u32>]) -> Self {
        let k = y.iter().flatten().max().map_or(0, |&m| m as usize + 1);
        Self::from_options_with_k(y, k)
    }

    /// Build with an explicit class count (labels must be `< k`).
    pub fn from_options_with_k(y: &[Option<u32>], k: usize) -> Self {
        let mut counts = vec![0u64; k];
        let y: Vec<i32> = y
            .iter()
            .map(|l| match l {
                None => -1,
                Some(c) => {
                    assert!((*c as usize) < k, "label {c} out of range for K={k}");
                    counts[*c as usize] += 1;
                    *c as i32
                }
            })
            .collect();
        Labels { y, k, counts }
    }

    /// Build from a fully-labeled vector.
    pub fn from_full(y: &[u32]) -> Self {
        let opts: Vec<Option<u32>> = y.iter().map(|&c| Some(c)).collect();
        Self::from_options(&opts)
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when no vertices are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Number of classes `K` (the embedding dimension).
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.k
    }

    /// Label of `v` (`None` = unknown).
    #[inline]
    pub fn get(&self, v: VertexId) -> Option<u32> {
        let raw = self.y[v as usize];
        (raw >= 0).then_some(raw as u32)
    }

    /// Raw `-1`-encoded label — the hot-loop accessor.
    #[inline]
    pub fn raw(&self, v: VertexId) -> i32 {
        self.y[v as usize]
    }

    /// Raw label slice.
    #[inline]
    pub fn raw_slice(&self) -> &[i32] {
        &self.y
    }

    /// Labeled-vertex count of class `c`.
    #[inline]
    pub fn class_count(&self, c: u32) -> u64 {
        self.counts[c as usize]
    }

    /// All class counts.
    #[inline]
    pub fn class_counts(&self) -> &[u64] {
        &self.counts
    }

    /// `1 / |class c|` per class, `0.0` for a class nobody carries: the
    /// non-zero of every row of the projection matrix `W` whose vertex is
    /// labeled `c` (Algorithm 1 lines 2–6).
    pub fn inv_class_counts(&self) -> Vec<f64> {
        self.counts
            .iter()
            .map(|&c| if c > 0 { 1.0 / c as f64 } else { 0.0 })
            .collect()
    }

    /// Number of labeled vertices.
    pub fn num_labeled(&self) -> usize {
        self.counts.iter().sum::<u64>() as usize
    }

    /// Iterate `(vertex, class)` over labeled vertices.
    pub fn iter_labeled(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.y
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= 0)
            .map(|(v, &c)| (v as VertexId, c as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infers_k_from_max_label() {
        let l = Labels::from_options(&[Some(0), None, Some(3)]);
        assert_eq!(l.num_classes(), 4);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn counts_per_class() {
        let l = Labels::from_options(&[Some(1), Some(1), Some(0), None]);
        assert_eq!(l.class_count(0), 1);
        assert_eq!(l.class_count(1), 2);
        assert_eq!(l.num_labeled(), 3);
    }

    #[test]
    fn get_and_raw_agree() {
        let l = Labels::from_options(&[Some(2), None]);
        assert_eq!(l.get(0), Some(2));
        assert_eq!(l.get(1), None);
        assert_eq!(l.raw(0), 2);
        assert_eq!(l.raw(1), -1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_k_validates() {
        Labels::from_options_with_k(&[Some(5)], 3);
    }

    #[test]
    fn from_full_covers_everything() {
        let l = Labels::from_full(&[0, 1, 2, 1]);
        assert_eq!(l.num_labeled(), 4);
        assert_eq!(l.num_classes(), 3);
    }

    #[test]
    fn iter_labeled_skips_unknown() {
        let l = Labels::from_options(&[None, Some(0), None, Some(1)]);
        let pairs: Vec<_> = l.iter_labeled().collect();
        assert_eq!(pairs, vec![(1, 0), (3, 1)]);
    }

    #[test]
    fn empty_labels() {
        let l = Labels::from_options(&[]);
        assert!(l.is_empty());
        assert_eq!(l.num_classes(), 0);
    }

    #[test]
    fn all_unknown() {
        let l = Labels::from_options(&[None, None]);
        assert_eq!(l.num_classes(), 0);
        assert_eq!(l.num_labeled(), 0);
    }
}
