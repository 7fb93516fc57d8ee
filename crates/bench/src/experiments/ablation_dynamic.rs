//! **Extension ablation: incremental vs recompute.** GEE is a linear
//! sketch, so `gee_core::dynamic::DynamicGee` applies edge/label updates
//! in O(1)/O(deg). This bench measures update throughput and finds the
//! batch size at which a full O(s) recompute would be cheaper — the
//! operating envelope for streaming deployments of the paper's kernel.
//! The writer is checked against a recompute at 1e-9 after the bulk
//! init and again after every update batch has run.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-dynamic --scale 64
//! ```

use std::time::Instant;

use gee_core::dynamic::DynamicGee;
use gee_core::serial_optimized;

use crate::report::{shown, Cell, Report};
use crate::{labels, largest, timed, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "ablation_dynamic",
        format!(
            "dynamic-update ablation — {} stand-in (1/{} scale), K = {}",
            w.name, args.scale, args.k
        ),
        vec![
            shown("Operation"),
            shown("Cost"),
            shown("Crossover vs recompute"),
        ],
    );
    let el = w.generate(args.scale, args.seed);
    let n = el.num_vertices() as u32;
    let labels = labels(args, el.num_vertices(), args.k, args.seed ^ 0xD1);

    let t0 = Instant::now();
    let mut dg = DynamicGee::new(&el, &labels);
    let init_seconds = t0.elapsed().as_secs_f64();

    // Recompute cost for the same state (the alternative to deltas).
    let (recompute_seconds, fresh) = timed(args.runs, || serial_optimized::embed(&el, &labels));
    fresh.assert_close(&dg.embedding(), 1e-9);

    // Measure per-update cost over batches of inserts, label moves, and
    // insert+remove churn.
    let batch = 100_000u32;
    let time_batch = |dg: &mut DynamicGee, op: &dyn Fn(&mut DynamicGee, u32)| -> f64 {
        let t = Instant::now();
        for i in 0..batch {
            op(dg, i);
        }
        t.elapsed().as_secs_f64() / f64::from(batch)
    };
    // Fibonacci-hashed sources: the product is meant to wrap.
    let ins = time_batch(&mut dg, &|dg, i| {
        let u = i.wrapping_mul(2_654_435_761) % n;
        dg.insert_edge(u, (i * 40_503 + 1) % n, 1.0)
    });
    let lbl = time_batch(&mut dg, &|dg, i| dg.set_label((i * 97) % n, Some(i % 7)));
    let churn = time_batch(&mut dg, &|dg, i| {
        let (u, v) = (i % n, (i + 1) % n);
        dg.insert_edge(u, v, 3.0);
        assert!(dg.remove_edge(u, v, 3.0));
    });
    // The updated writer still equals a recompute of what it now holds.
    serial_optimized::embed(&dg.edge_list(), &dg.labels()).assert_close(&dg.embedding(), 1e-9);

    for (what, seconds) in [
        ("bulk init (O(s))", init_seconds),
        ("full recompute (O(s))", recompute_seconds),
    ] {
        report.push(vec![Cell::text(what), Cell::secs(seconds), Cell::text("-")]);
    }
    for (what, unit, seconds) in [
        ("edge insert", "inserts", ins),
        ("label move (O(deg))", "moves", lbl),
        ("insert+remove churn", "churns", churn),
    ] {
        let crossover = recompute_seconds / seconds;
        report.push(vec![
            Cell::text(what),
            Cell::new(seconds * 1e9, format!("{:.0} ns", seconds * 1e9)),
            Cell::new(crossover, format!("{crossover:.1e} {unit} ≈ 1 recompute")),
        ]);
    }
    report.scalar("ablation_dynamic.init_seconds", init_seconds);
    report.scalar("ablation_dynamic.recompute_seconds", recompute_seconds);
    report.scalar("ablation_dynamic.insert_ns", ins * 1e9);
    report.scalar("ablation_dynamic.label_move_ns", lbl * 1e9);
    report.scalar("ablation_dynamic.churn_ns", churn * 1e9);
    report
}
