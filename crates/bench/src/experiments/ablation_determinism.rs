//! **Extension ablation: the price of bit-reproducibility.** The paper's
//! `writeAdd` kernel is numerically schedule-dependent; the propagation-
//! blocking kernel (`gee_core::kernels::embed_binned`) adds each `Z`
//! entry's contributions in edge order, so it is bit-identical to the
//! serial reference at any thread count. This bench measures what that
//! guarantee costs relative to the atomic kernel.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-determinism --scale 64
//! ```

use gee_core::{kernels, serial_reference, AtomicsMode};

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
            kernels::embed_binned(el.num_vertices(), el.edges(), &[labels])
        })
    });
    assert_eq!(
        z_binned[0].as_slice(),
        reference.as_slice(),
        "propagation blocking must be bit-identical to serial"
    );
    let drift_atomic = reference.max_abs_diff(&z_atomic);

    report.push(vec![
        Cell::text("atomic writeAdd (paper)"),
        Cell::secs(t_atomic),
        Cell::new(drift_atomic, format!("{drift_atomic:.1e}")),
        Cell::text("schedule-dependent"),
    ]);
    report.push(vec![
        Cell::text("propagation blocking"),
        Cell::secs(t_binned),
        Cell::new(0.0, "0 (bit-exact)".into()),
        Cell::text("bit-exact at any thread count"),
    ]);
    report.note(format!(
        "reproducibility overhead: propagation blocking is {:.2}× the atomic kernel",
        t_binned / t_atomic
    ));
    report.scalar("ablation_determinism.atomic_seconds", t_atomic);
    report.scalar("ablation_determinism.binned_seconds", t_binned);
    report.scalar("ablation_determinism.atomic_max_drift", drift_atomic);
    report
}
