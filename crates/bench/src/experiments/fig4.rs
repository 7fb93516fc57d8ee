//! Regenerates **Figure 4** of the paper: runtime of all four
//! implementations as Erdős–Rényi graphs grow from 2^13 edges (paper: to
//! 2^29; default here 2^23, raise with `--max-log2`). The paper's claim is
//! linearity in the edge count on a log-log plot.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- fig4 --max-log2 23
//! ```

use crate::report::{col, Cell, Report};
use crate::runner::Impl;
use crate::{time_implementation, Args, Input};

/// The paper holds average degree roughly constant while growing edges.
const AVG_DEGREE: usize = 16;

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(
        "fig4",
        format!(
            "Figure 4 reproduction — Erdős–Rényi sweep, 2^13..2^{} edges, K={}, avg degree {}",
            args.max_log2, args.k, AVG_DEGREE
        ),
        vec![
            col("log2(s)", "log2_edges"),
            col("edges", "edges"),
            col("GEE-Py(model)", "interp"),
            col("Numba-analog", "optimized"),
            col("Ligra serial", "ligra_serial"),
            col("Ligra parallel", "ligra_parallel"),
        ],
    );
    let mut parallel = Vec::new();
    for log2_edges in 13..=args.max_log2 {
        let el = gee_gen::er::fig4_graph(log2_edges, AVG_DEGREE, args.seed + log2_edges as u64);
        let input = Input::new(el, args, args.seed ^ log2_edges as u64);
        // The interpreter is ~2 decades slower; skip it past 2^21 edges so
        // the sweep completes (the paper similarly reports GEE-Python only
        // where feasible). Reported as null in JSON.
        let mut row = vec![
            Cell::int(log2_edges as usize),
            Cell::int(input.el.num_edges()),
        ];
        for which in Impl::ALL {
            if which == Impl::Interp && log2_edges > 21 {
                row.push(Cell::missing());
                continue;
            }
            let seconds = time_implementation(which, &input, args);
            row.push(Cell::secs(seconds));
            if which == Impl::LigraParallel {
                parallel.push(seconds);
            }
        }
        report.push(row);
        eprintln!("done: 2^{log2_edges} edges");
    }
    // Linearity check: runtime ratio between consecutive doublings should
    // approach 2 for the compiled implementations at large sizes.
    if let [.., _, _, a, b] = parallel[..] {
        report.note(format!(
            "last doubling ratio (ligra parallel): {:.2} (linear scaling → 2.0)",
            b / a
        ));
    }
    report
}
