//! Regenerates the **§IV atomics ablation**: "we ran the program with
//! atomics off, performing unsafe updates, and saw no appreciable
//! performance difference". Times GEE-Ligra parallel with CAS `writeAdd`
//! vs relaxed load+store, and reports the accuracy cost of the racy mode
//! (lost updates as a fraction of total mass).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-atomics --scale 64
//! ```

use gee_core::AtomicsMode;

use crate::report::{shown, Cell, Report};
use crate::{largest, time_ligra, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "ablation_atomics",
        format!(
            "§IV atomics ablation — GEE-Ligra parallel on the {} stand-in (1/{} scale)",
            w.name, args.scale
        ),
        vec![shown("Mode"), shown("Runtime"), shown("Accuracy")],
    );
    let input = w.input(args, 0xBEEF);
    let (g, labels) = (&input.g, &input.labels);
    // Untimed warm-up: fault in the allocator pools for the n×K embedding
    // so the first timed mode doesn't pay the one-time page-fault cost.
    let _ = gee_core::ligra::embed(g, labels, AtomicsMode::Atomic);
    let (t_atomic, z_atomic) = time_ligra(g, labels, args, args.threads, AtomicsMode::Atomic);
    let (t_racy, z_racy) = time_ligra(g, labels, args, args.threads, AtomicsMode::Racy);
    let mass_atomic = z_atomic.total_mass();
    let lost = (mass_atomic - z_racy.total_mass()).abs() / mass_atomic.max(1e-300);
    let overhead = (t_atomic - t_racy) / t_racy;
    report.push(vec![
        Cell::text("atomic writeAdd (CAS)"),
        Cell::secs(t_atomic),
        Cell::text("exact"),
    ]);
    report.push(vec![
        Cell::text("racy (relaxed ld/st)"),
        Cell::secs(t_racy),
        Cell::new(lost, format!("{lost:.3e} mass lost")),
    ]);
    report.note(format!(
        "overhead of atomics: {:+.1}% (paper: \"no appreciable performance difference\")",
        100.0 * overhead
    ));
    report.scalar("ablation_atomics.atomic_seconds", t_atomic);
    report.scalar("ablation_atomics.racy_seconds", t_racy);
    report.scalar("ablation_atomics.overhead_fraction", overhead);
    report.scalar("ablation_atomics.racy_mass_lost_fraction", lost);
    report
}
