//! The projection matrix `W` (Algorithm 1 lines 2–6 / Algorithm 2's
//! `ParallelFor`), in both the dense form the reference pseudocode writes
//! and the sparse form every real implementation uses.
//!
//! `W` has at most one non-zero per row: `W(v, Y(v)) = 1 / count(Y = Y(v))`
//! for labeled `v`. The sparse form stores just that coefficient per vertex.
//! §III of the paper: "We also parallelize the initialization of the
//! projection matrix, which costs O(nk) … O(nk) becomes the dominant
//! component of the runtime when graphs have a high n and a very low
//! average degree" — [`Projection::build_parallel`] is that parallel
//! initialization, and the `ablation-init` bench measures the claim.

use rayon::prelude::*;

use crate::labels::Labels;

/// Sparse per-vertex projection coefficients.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    /// `coeff[v] = 1 / |class(Y(v))|` for labeled `v`, else `0.0`.
    coeff: Vec<f64>,
}

impl Projection {
    /// Serial construction (the "Numba analog" path).
    pub fn build_serial(labels: &Labels) -> Self {
        let inv = labels.inv_class_counts();
        let coeff = labels
            .raw_slice()
            .iter()
            .map(|&y| if y >= 0 { inv[y as usize] } else { 0.0 })
            .collect();
        Projection { coeff }
    }

    /// Parallel construction (Algorithm 2 lines 3–6).
    pub fn build_parallel(labels: &Labels) -> Self {
        // The K reciprocals are too few to be worth a parallel region.
        let inv = labels.inv_class_counts();
        let coeff = labels
            .raw_slice()
            .par_iter()
            .map(|&y| if y >= 0 { inv[y as usize] } else { 0.0 })
            .collect();
        Projection { coeff }
    }

    /// Coefficient of vertex `v` (`0.0` when unlabeled).
    #[inline]
    pub fn coeff(&self, v: u32) -> f64 {
        self.coeff[v as usize]
    }

    /// Flat coefficient slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.coeff
    }

    /// Materialize the dense `n × K` matrix of Algorithm 1 (reference /
    /// test use only — O(nK) memory).
    pub fn to_dense(&self, labels: &Labels) -> Vec<f64> {
        let k = labels.num_classes();
        let n = labels.len();
        let mut w = vec![0.0; n * k];
        for (v, c) in labels.iter_labeled() {
            w[v as usize * k + c as usize] = self.coeff[v as usize];
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// What lets the edge-parallel kernel drop the per-vertex array:
        /// the coefficient of a labeled vertex is, bit for bit, the
        /// reciprocal of its class's size — empty classes and K = 0
        /// included.
        #[test]
        fn coeff_is_the_class_reciprocal(
            y in proptest::collection::vec(0u32..9, 0..80),
            spare_classes in 0usize..3,
        ) {
            // 0 encodes "unlabeled"; some classes in 0..k stay empty.
            let y: Vec<Option<u32>> = y.into_iter().map(|c| c.checked_sub(1)).collect();
            let k = y.iter().flatten().max().map_or(0, |&c| c as usize + 1) + spare_classes;
            let labels = Labels::from_options_with_k(&y, k);
            let inv_count = labels.inv_class_counts();
            prop_assert_eq!(inv_count.len(), k);
            for proj in [Projection::build_serial(&labels), Projection::build_parallel(&labels)] {
                for (v, &c) in labels.raw_slice().iter().enumerate() {
                    let table = if c >= 0 { inv_count[c as usize] } else { 0.0 };
                    prop_assert_eq!(table.to_bits(), proj.coeff(v as u32).to_bits());
                }
            }
        }
    }

    fn labels() -> Labels {
        Labels::from_options(&[Some(0), Some(0), Some(1), None])
    }

    #[test]
    fn serial_coefficients() {
        let p = Projection::build_serial(&labels());
        assert_eq!(p.coeff(0), 0.5);
        assert_eq!(p.coeff(1), 0.5);
        assert_eq!(p.coeff(2), 1.0);
        assert_eq!(p.coeff(3), 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let l = labels();
        assert_eq!(Projection::build_serial(&l), Projection::build_parallel(&l));
    }

    #[test]
    fn parallel_matches_serial_large() {
        let y: Vec<Option<u32>> = (0..10_000)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some((i % 13) as u32)
                }
            })
            .collect();
        let l = Labels::from_options(&y);
        assert_eq!(Projection::build_serial(&l), Projection::build_parallel(&l));
    }

    #[test]
    fn dense_matrix_shape_and_content() {
        let l = labels();
        let p = Projection::build_serial(&l);
        let w = p.to_dense(&l);
        assert_eq!(w.len(), 4 * 2);
        assert_eq!(w[0], 0.5); // W(0, 0)
        assert_eq!(w[2 * 2 + 1], 1.0); // W(2, 1)
        assert_eq!(w[3 * 2], 0.0); // unlabeled row all zero
        assert_eq!(w[3 * 2 + 1], 0.0);
    }

    #[test]
    fn empty_class_has_zero_coeff() {
        // Class 1 declared (k=2) but never used.
        let l = Labels::from_options_with_k(&[Some(0)], 2);
        let p = Projection::build_serial(&l);
        assert_eq!(p.coeff(0), 1.0);
    }
}
