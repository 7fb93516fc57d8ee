//! **Extension ablation: the price of bit-reproducibility.** The paper's
//! `writeAdd` kernel is numerically schedule-dependent; the deterministic
//! sort-reduce kernel (`gee_core::deterministic`) is bit-identical to the
//! serial reference at any thread count. This bench measures what that
//! guarantee costs relative to the atomic kernel and the propagation-
//! blocking kernel (which is also deterministic, as a fixed-chunk
//! two-phase pipeline).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-determinism --scale 64
//! ```

use gee_core::{deterministic, kernels, serial_reference, AtomicsMode};

use crate::report::{shown, Cell, Report};
use crate::{largest, time_ligra, timed, verify_embedding, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "ablation_determinism",
        format!(
            "determinism ablation — {} stand-in (1/{} scale), K = {}",
            w.name, args.scale, args.k
        ),
        vec![
            shown("Kernel"),
            shown("Runtime"),
            shown("Max |Δ| vs serial"),
            shown("Reproducibility"),
        ],
    );
    let input = w.input(args, 0xD00D);
    let (el, labels) = (&input.el, &input.labels);
    let reference = serial_reference::embed(el, labels);

    let (t_atomic, z_atomic) =
        time_ligra(&input.g, labels, args, args.threads, AtomicsMode::Atomic);
    verify_embedding(&z_atomic, el, labels, "atomic");
    let (t_binned, z_binned) = timed(args.runs, || {
        gee_ligra::with_threads(args.threads, || {
            kernels::embed_binned(el.num_vertices(), el.edges(), labels, 16)
        })
    });
    verify_embedding(&z_binned, el, labels, "binned");
    let (t_det, z_det) = timed(args.runs, || {
        gee_ligra::with_threads(args.threads, || {
            deterministic::embed(el.num_vertices(), el.edges(), labels)
        })
    });
    let det_exact = z_det.as_slice() == reference.as_slice();
    assert!(
        det_exact,
        "deterministic kernel must be bit-identical to serial"
    );
    let drift_atomic = reference.max_abs_diff(&z_atomic);
    let drift_binned = reference.max_abs_diff(&z_binned);

    let drift = |d: f64| Cell::new(d, format!("{d:.1e}"));
    report.push(vec![
        Cell::text("atomic writeAdd (paper)"),
        Cell::secs(t_atomic),
        drift(drift_atomic),
        Cell::text("schedule-dependent"),
    ]);
    report.push(vec![
        Cell::text("propagation blocking"),
        Cell::secs(t_binned),
        drift(drift_binned),
        Cell::text("deterministic (fixed chunks)"),
    ]);
    report.push(vec![
        Cell::text("sort-reduce"),
        Cell::secs(t_det),
        Cell::new(0.0, "0 (bit-exact)".into()),
        Cell::text("deterministic (any threads)"),
    ]);
    report.note(format!(
        "reproducibility overhead: sort-reduce is {:.2}× the atomic kernel",
        t_det / t_atomic
    ));
    report.scalar("ablation_determinism.atomic_seconds", t_atomic);
    report.scalar("ablation_determinism.binned_seconds", t_binned);
    report.scalar("ablation_determinism.sort_reduce_seconds", t_det);
    report.scalar("ablation_determinism.atomic_max_drift", drift_atomic);
    report.scalar("ablation_determinism.binned_max_drift", drift_binned);
    report.scalar("ablation_determinism.sort_reduce_bit_exact", det_exact);
    report
}
