//! Batch GEE — embed several labelings of the *same* graph in one fused
//! edge pass.
//!
//! §IV of the paper argues the edge pass is **memory bound**: "two
//! fused-multiply adds per edge and two memory writes, one of which is
//! likely to miss". When several embeddings are needed (label-propagation
//! seeding sweeps, bootstrap resampling of the known labels, γ-sweeps of
//! community labels), running L separate passes pays the edge-stream
//! traffic L times. The fused pass reads each edge once and applies all L
//! updates while the endpoints' metadata is hot, so edge traffic is paid
//! once.
//!
//! The trade-off (measured by the `ablation-batch` bench): fusing pays
//! for an L-times-larger `Z` working set with interleaved rows. It wins
//! when the per-labeling footprint `n·K·8 B` is small (low K, so the
//! edge stream dominates traffic) and loses at the paper's K = 50 where
//! `Z` writes dominate — the same footprint reasoning as §IV.
//!
//! Layout: one row-major accumulator per vertex holding the L per-labeling
//! blocks back to back (`row(v) = [Z₀(v,·) | Z₁(v,·) | …]`), so a vertex's
//! entire update footprint is one contiguous stripe. This module holds the
//! serial fused pass and the layout; the parallel one is
//! [`crate::kernels::embed_binned`], which is bit-identical to it.

use gee_graph::EdgeList;

use crate::embedding::Embedding;
use crate::labels::Labels;
use crate::projection::Projection;

/// One labeling's lane in a fused row: its column offset, labels and
/// projection coefficients, hoisted out of the edge loop.
pub(crate) type Lane<'a> = (usize, &'a [i32], &'a [f64]);

/// Serial fused pass: bit-identical to running
/// [`crate::serial_optimized::embed`] once per labeling. The parallel
/// fused pass is [`crate::kernels::embed_binned`].
pub fn embed_many(el: &EdgeList, labelings: &[&Labels]) -> Vec<Embedding> {
    let n = el.num_vertices();
    let offsets = offsets(n, labelings);
    let projections: Vec<Projection> = labelings
        .iter()
        .map(|l| Projection::build_serial(l))
        .collect();
    let lanes = lanes(labelings, &projections, &offsets);
    let stride = offsets[labelings.len()];
    let mut z = vec![0.0f64; n * stride];
    for e in el.edges() {
        let (u, v, w) = (e.u as usize, e.v as usize, e.w);
        for &(off, y, coeff) in &lanes {
            let yv = y[v];
            if yv >= 0 {
                z[u * stride + off + yv as usize] += coeff[v] * w;
            }
            let yu = y[u];
            if yu >= 0 {
                z[v * stride + off + yu as usize] += coeff[u] * w;
            }
        }
    }
    unpack(z, n, &offsets)
}

/// Each labeling's column offset in a fused row, then the row's width.
pub(crate) fn offsets(n: usize, labelings: &[&Labels]) -> Vec<usize> {
    let mut offsets = vec![0];
    for l in labelings {
        assert_eq!(n, l.len(), "every labeling must cover every vertex");
        offsets.push(offsets[offsets.len() - 1] + l.num_classes());
    }
    offsets
}

/// The lanes of `labelings` under their `projections`.
pub(crate) fn lanes<'a>(
    labelings: &[&'a Labels],
    projections: &'a [Projection],
    offsets: &[usize],
) -> Vec<Lane<'a>> {
    labelings
        .iter()
        .zip(projections)
        .zip(offsets)
        .map(|((l, p), &off)| (off, l.raw_slice(), p.as_slice()))
        .collect()
}

/// Split the fused accumulator back into one embedding per labeling; a
/// single labeling's rows are the fused rows.
pub(crate) fn unpack(z: Vec<f64>, n: usize, offsets: &[usize]) -> Vec<Embedding> {
    if let &[0, k] = offsets {
        return vec![Embedding::from_vec(n, k, z)];
    }
    let stride = offsets[offsets.len() - 1];
    offsets
        .windows(2)
        .map(|w| {
            let (off, k) = (w[0], w[1] - w[0]);
            let mut data = Vec::with_capacity(n * k);
            for v in 0..n {
                data.extend_from_slice(&z[v * stride + off..v * stride + off + k]);
            }
            Embedding::from_vec(n, k, data)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::embed_binned_with;
    use crate::serial_optimized;
    use gee_gen::LabelSpec;

    fn three_labelings(n: usize, seed: u64) -> Vec<Labels> {
        (0..3)
            .map(|i| {
                Labels::from_options(&gee_gen::random_labels(
                    n,
                    LabelSpec {
                        num_classes: 3 + i,
                        labeled_fraction: 0.2 + 0.2 * i as f64,
                    },
                    seed + i as u64,
                ))
            })
            .collect()
    }

    #[test]
    fn fused_serial_matches_individual_passes() {
        let el = gee_gen::erdos_renyi_gnm(300, 2500, 7);
        let labelings = three_labelings(300, 9);
        let refs: Vec<&Labels> = labelings.iter().collect();
        let batch = embed_many(&el, &refs);
        for (l, z) in labelings.iter().zip(&batch) {
            let single = serial_optimized::embed(&el, l);
            assert_eq!(
                single.as_slice(),
                z.as_slice(),
                "fused pass must be bit-identical"
            );
        }
    }

    #[test]
    fn fused_parallel_matches_serial_bit_exact() {
        let el = gee_gen::erdos_renyi_gnm(250, 2000, 11);
        let labelings = three_labelings(250, 13);
        let refs: Vec<&Labels> = labelings.iter().collect();
        let serial = embed_many(&el, &refs);
        for bits in [6u32, 12] {
            let parallel = embed_binned_with(250, el.edges(), &refs, bits);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.as_slice(), b.as_slice(), "bin_bits={bits}");
            }
        }
    }

    #[test]
    fn single_labeling_degenerates_to_plain_embed() {
        let el = gee_gen::erdos_renyi_gnm(100, 700, 17);
        let l = Labels::from_options(&gee_gen::full_labels(100, 5, 19));
        let batch = embed_many(&el, &[&l]);
        assert_eq!(batch.len(), 1);
        assert_eq!(
            batch[0].as_slice(),
            serial_optimized::embed(&el, &l).as_slice()
        );
    }

    #[test]
    fn empty_labeling_list() {
        let el = gee_gen::erdos_renyi_gnm(10, 30, 1);
        assert!(embed_many(&el, &[]).is_empty());
        assert!(embed_binned_with(10, el.edges(), &[], 8).is_empty());
    }

    #[test]
    fn mixed_dimensions_unpack_correctly() {
        let el = gee_gen::erdos_renyi_gnm(80, 500, 23);
        let a = Labels::from_options(&gee_gen::full_labels(80, 2, 1));
        let b = Labels::from_options(&gee_gen::full_labels(80, 7, 2));
        let out = embed_many(&el, &[&a, &b]);
        assert_eq!(out[0].dim(), 2);
        assert_eq!(out[1].dim(), 7);
        assert_eq!(out[0].num_vertices(), 80);
    }

    #[test]
    fn all_unlabeled_labelings() {
        let el = gee_gen::erdos_renyi_gnm(20, 60, 3);
        let l = Labels::from_options(&[None; 20]);
        let out = embed_binned_with(20, el.edges(), &[&l, &l], 4);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dim(), 0);
    }
}
