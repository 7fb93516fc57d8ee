//! Cutting the vertex range into pieces of equal *edge* count.
//!
//! A traversal that hands each worker the same number of sources gives
//! one worker the hubs: on R-MAT the first half of the ids owns three
//! quarters of the edges. The CSR offsets are the prefix sums of the
//! degrees, so the balanced cut points are a binary search away.

use std::ops::Range;

/// Split the sources `0..n` (`offsets` has `n + 1` entries, the prefix
/// sums of the out-degrees) into at most `parts` contiguous, ordered,
/// non-empty ranges that together cover `0..n` exactly once, each
/// holding fewer than `⌈m / parts⌉ + max degree` edges.
///
/// Cut `i` falls before the first source whose offset reaches
/// `i · m / parts`; a source's edge list is never split. Ranges that
/// would be empty (a hub swallowing several cuts, more parts than
/// sources) are left out, so fewer than `parts` ranges may come back —
/// none at all when `n = 0`.
pub fn edge_balanced_ranges(offsets: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len().saturating_sub(1);
    let m = offsets.last().copied().unwrap_or(0);
    let parts = parts.max(1);
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 1..=parts {
        let end = if i == parts {
            n
        } else {
            // In u128: `m · i` may not fit a usize on a 32-bit target.
            let goal = (m as u128 * i as u128 / parts as u128) as usize;
            offsets[..n].partition_point(|&o| o < goal)
        };
        if end > start {
            ranges.push(start..end);
            start = end;
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_degrees_split_evenly() {
        let offsets: Vec<usize> = (0..=8).map(|v| v * 3).collect();
        assert_eq!(edge_balanced_ranges(&offsets, 4), [0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn a_hub_gets_a_range_of_its_own() {
        // Vertex 0 owns 90 of 100 edges.
        let offsets = [0, 90, 92, 94, 96, 98, 100];
        assert_eq!(edge_balanced_ranges(&offsets, 2), [0..1, 1..6]);
    }

    #[test]
    fn degenerate_shapes() {
        assert!(edge_balanced_ranges(&[], 4).is_empty());
        assert!(edge_balanced_ranges(&[0], 4).is_empty());
        // No edges: one range, nothing to balance.
        assert_eq!(edge_balanced_ranges(&[0, 0, 0, 0], 4), vec![(0..3)]);
        // parts = 0 is read as 1.
        assert_eq!(edge_balanced_ranges(&[0, 1, 2], 0), vec![(0..2)]);
        // More parts than sources.
        assert_eq!(edge_balanced_ranges(&[0, 1, 2], 8), [0..1, 1..2]);
    }
}
