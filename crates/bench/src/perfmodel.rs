//! A first-order memory-traffic model for the GEE edge pass — the
//! quantitative form of §IV's claim: "We expect this workload to be
//! memory bound, because there is so little computation per edge.
//! GEE-Ligra performs two fused-multiply adds per edge and two memory
//! writes, one of which is likely to miss."
//!
//! [`measure_bandwidth`] times a streaming triad to estimate the
//! machine's sustainable bandwidth, [`gee_bytes_per_edge`] counts the
//! traffic the kernel's access pattern implies, and
//! [`predicted_edge_pass_seconds`] combines them into a roofline-style
//! lower bound that the strong-scaling harness prints next to measured
//! runtimes.

use std::time::Instant;

use rayon::prelude::*;

/// Estimated memory traffic per directed edge of the GEE-Ligra kernel,
/// in bytes.
///
/// Per edge `(u, v, w)` the dense-forward traversal touches:
/// * the CSR target entry (4 B) and weight (8 B if stored);
/// * labels `Y(u)`, `Y(v)` (4 B each) — `u`'s is cache-resident during
///   its edge list (§III), so only `Y(v)` (4 B) counts as traffic; the
///   coefficients `W(u)`, `W(v)` are hits in the K-entry table of class
///   reciprocals the functor indexes by those labels, charged at 0;
/// * the `Z(u, Y(v))` accumulator: resident while `u`'s list drains
///   (charged at 0) — and `Z(v, Y(u))`: a 16 B read-modify-write that
///   "is likely to miss" (a 64 B line fill + eventual write-back; we
///   charge the 16 B the CAS actually moves, the cache-line pessimistic
///   bound being 128 B).
pub fn gee_bytes_per_edge(weighted: bool) -> f64 {
    let csr = 4.0 + if weighted { 8.0 } else { 0.0 };
    let remote_metadata = 4.0; // Y(v); W(v) is a table hit
    let remote_z = 16.0; // read + write of the missing accumulator
    csr + remote_metadata + remote_z
}

/// Measure sustainable memory bandwidth (bytes/second) with a parallel
/// triad `a[i] = b[i] + s·c[i]` over three arrays of `n` `f64`s, median
/// of `runs` sweeps. The caller sizes `n` so the arrays are out of cache
/// like the graph it is compared with (`1 << 24` is 3 × 128 MiB).
pub fn measure_bandwidth(n: usize, runs: usize) -> f64 {
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut rates = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        a.par_chunks_mut(1 << 16)
            .zip(b.par_chunks(1 << 16))
            .zip(c.par_chunks(1 << 16))
            .for_each(|((ac, bc), cc)| {
                for ((x, &y), &z) in ac.iter_mut().zip(bc).zip(cc) {
                    *x = y + 3.0 * z;
                }
            });
        let dt = t0.elapsed().as_secs_f64();
        // Triad traffic: read b, read c, write a (write-allocate charges
        // a read too, but we report the optimistic 24 B/elem figure).
        rates.push(24.0 * n as f64 / dt);
    }
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// Roofline lower bound for one edge pass: traffic / bandwidth.
pub fn predicted_edge_pass_seconds(num_edges: usize, weighted: bool, bandwidth: f64) -> f64 {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    num_edges as f64 * gee_bytes_per_edge(weighted) / bandwidth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_edge_ordering() {
        assert!(gee_bytes_per_edge(true) > gee_bytes_per_edge(false));
        assert_eq!(gee_bytes_per_edge(false), 24.0);
        assert_eq!(gee_bytes_per_edge(true), 32.0);
    }

    #[test]
    fn prediction_scales_linearly() {
        let bw = 1e10;
        let one = predicted_edge_pass_seconds(1_000_000, false, bw);
        let ten = predicted_edge_pass_seconds(10_000_000, false, bw);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn prediction_validates_bandwidth() {
        predicted_edge_pass_seconds(1, false, 0.0);
    }

    #[test]
    fn bandwidth_measurement_is_plausible() {
        // One quick sweep over 3 × 8 MiB; any real machine lands between
        // 100 MB/s and 1 TB/s.
        let bw = measure_bandwidth(1 << 20, 1);
        assert!(bw > 1e8 && bw < 1e12, "measured {bw:.3e} B/s");
    }
}
