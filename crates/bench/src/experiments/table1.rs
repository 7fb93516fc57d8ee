//! Regenerates **Table I** of the paper: runtime of the four GEE
//! implementations on the six social-graph workloads, plus the three
//! speedup columns (parallel vs interp / optimized / ligra-serial).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- table1 --scale 64
//! ```

use crate::report::{col, keyed, shown, Cell, Report};
use crate::runner::Impl;
use crate::{table1_workloads, time_implementation, Args};

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(
        "table1",
        format!(
            "Table I reproduction — R-MAT stand-ins at 1/{} scale, K={}, {}% labeled, median of {} runs",
            args.scale,
            args.k,
            args.labeled_fraction * 100.0,
            args.runs
        ),
        vec![
            shown("Graph (n, s)"),
            keyed("graph"),
            keyed("n"),
            keyed("s"),
            keyed("paper.python"),
            keyed("paper.numba"),
            keyed("paper.ligra_serial"),
            keyed("paper.ligra_parallel"),
            keyed("paper.speedup_vs_python"),
            keyed("paper.speedup_vs_numba"),
            keyed("paper.speedup_vs_ligra_serial"),
            col("GEE-Py(model)", "measured.interp"),
            col("Numba-analog", "measured.optimized"),
            col("Ligra serial", "measured.ligra_serial"),
            col("Ligra parallel", "measured.ligra_parallel"),
            col("Spd v. Py", "measured.speedup_vs_interp"),
            col("Spd v. Numba", "measured.speedup_vs_optimized"),
            col("Spd v. Serial", "measured.speedup_vs_ligra_serial"),
        ],
    );
    for w in table1_workloads() {
        let input = w.input(args, 0xBEEF);
        let (n, s) = (input.el.num_vertices(), input.el.num_edges());
        let t = Impl::ALL.map(|i| time_implementation(i, &input, args));
        let p = w.paper_runtimes;
        let mut row = vec![
            Cell::text(format!(
                "{} ({}K, {:.1}M)",
                w.name,
                n / 1000,
                s as f64 / 1e6
            )),
            Cell::text(w.name),
            Cell::int(n),
            Cell::int(s),
        ];
        for times in [p, t] {
            row.extend(times.map(Cell::secs));
            row.extend(times[..3].iter().map(|x| Cell::speedup(x / times[3])));
        }
        report.push(row);
        eprintln!("done: {}", w.name);
    }
    report
}
