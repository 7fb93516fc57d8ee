//! Regenerates **Figure 3** of the paper: strong-scaling speedup of
//! GEE-Ligra on the largest graph as the core count grows (paper: 11× on
//! 24 cores, flattening as the workload turns memory-bound).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- fig3 --scale 64
//! ```

use gee_core::AtomicsMode;

use crate::report::{col, shown, Cell, Report};
use crate::table::fmt_secs;
use crate::{largest, time_ligra, verify_embedding, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let max_threads = if args.threads > 0 {
        args.threads
    } else {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(8)
    };
    let mut report = Report::new(
        "fig3",
        format!(
            "Figure 3 reproduction — GEE-Ligra strong scaling on the {} stand-in (1/{} scale), 1..{} threads",
            w.name, args.scale, max_threads
        ),
        vec![
            col("Threads", "threads"),
            col("Runtime", "seconds"),
            col("Speedup", "speedup"),
            shown("Efficiency"),
        ],
    );
    let input = w.input(args, 0xBEEF);
    // Sweep thread counts: 1, 2, 3, … up to max (odd counts included to
    // mirror the paper's 1..25 x-axis).
    let mut t1 = 0.0f64;
    for threads in 1..=max_threads {
        let (secs, z) = time_ligra(&input.g, &input.labels, args, threads, AtomicsMode::Atomic);
        verify_embedding(&z, &input.el, &input.labels, "fig3");
        if threads == 1 {
            t1 = secs;
        }
        let speedup = t1 / secs;
        let efficiency = speedup / threads as f64;
        report.push(vec![
            Cell::int(threads),
            Cell::secs(secs),
            Cell::new(speedup, format!("{speedup:.2}×")),
            Cell::new(efficiency, format!("{:.0}%", 100.0 * efficiency)),
        ]);
        eprintln!("done: {threads} threads");
    }
    report.note("paper reference: 11× speedup at 24 cores (hyperthreading disabled)".into());
    // §IV's memory-bound explanation, made quantitative: a roofline lower
    // bound from measured bandwidth and the kernel's bytes/edge. Scaling
    // must flatten as measured runtime approaches this bound. The probe's
    // arrays shrink with the graph: 3 × 128 MiB at the default scale.
    let weighted = !input.el.is_unit_weighted();
    let probe_len = ((1usize << 30) / args.scale).clamp(1 << 18, 1 << 24);
    let bandwidth = crate::measure_bandwidth(probe_len, args.runs);
    let bytes_per_edge = crate::gee_bytes_per_edge(weighted);
    let bound = crate::predicted_edge_pass_seconds(input.el.num_edges(), weighted, bandwidth);
    report.note(format!(
        "\nmemory-bound roofline: {:.2} GB/s sustainable × {:.0} B/edge → ≥ {} for the edge pass",
        bandwidth / 1e9,
        bytes_per_edge,
        fmt_secs(bound)
    ));
    report.scalar("roofline.bandwidth_bytes_per_sec", bandwidth);
    report.scalar("roofline.bytes_per_edge", bytes_per_edge);
    report.scalar("roofline.lower_bound_seconds", bound);
    report
}
