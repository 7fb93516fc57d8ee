//! Bit-reproducible parallel GEE: the atomic kernel's output depends on
//! the scheduler's addition order; the propagation-blocking kernel's does
//! not.
//!
//! ```text
//! cargo run --release --example deterministic_embedding
//! ```

use std::time::Instant;

use gee_core::{kernels, serial_reference};
use gee_repro::prelude::*;

fn main() {
    let n = 100_000;
    let m = 1_500_000;
    println!("graph: Erdős–Rényi n = {n}, s = {m}, K = 50");
    let el = gee_gen::erdos_renyi_gnm(n, m, 3);
    let labels =
        Labels::from_options_with_k(&gee_gen::random_labels(n, LabelSpec::default(), 9), 50);

    let t0 = Instant::now();
    let reference = serial_reference::embed(&el, &labels);
    println!("serial reference: {:?}", t0.elapsed());

    let g = CsrGraph::from_edge_list(&el);
    let t1 = Instant::now();
    let atomic = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    println!("atomic writeAdd kernel: {:?}", t1.elapsed());

    let binned = || kernels::embed_binned(el.num_vertices(), el.edges(), &[&labels]);
    let t2 = Instant::now();
    let _ = binned();
    println!("propagation-blocking kernel: {:?}", t2.elapsed());

    // The atomic kernel is correct to FP-reordering tolerance…
    reference.assert_close(&atomic, 1e-9);
    let atomic_drift = reference.max_abs_diff(&atomic);
    // …while the binned kernel is bit-exact at any thread count.
    for threads in [1, 2, 4] {
        let z = with_threads(threads, binned);
        assert_eq!(
            z[0].as_slice(),
            reference.as_slice(),
            "bit mismatch at {threads} threads"
        );
    }
    println!("atomic kernel drift from serial: {atomic_drift:.3e} (FP reordering)");
    println!("propagation-blocking kernel: bit-identical to serial at 1, 2 and 4 threads ✓");
}
