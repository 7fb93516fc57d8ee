//! Regenerates **Figure 2** of the paper: runtimes on the largest graph
//! (Friendster stand-in) normalized to the Numba-serial analog.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- fig2 --scale 64
//! ```

use crate::report::{col, Cell, Report};
use crate::runner::Impl;
use crate::{largest, time_implementation, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "fig2",
        format!(
            "Figure 2 reproduction — {} stand-in at 1/{} scale, normalized to the Numba analog",
            w.name, args.scale
        ),
        vec![
            col("Implementation", "impl"),
            col("Runtime", "seconds"),
            col("Normalized (ours)", "normalized"),
            col("Normalized (paper)", "paper_normalized"),
        ],
    );
    let input = w.input(args, 0xBEEF);
    let seconds = Impl::ALL.map(|i| time_implementation(i, &input, args));
    // The paper's Figure 2 values relative to Numba serial = 1:
    // Python ≈ 30, Ligra serial ≈ 0.69, Ligra parallel ≈ 1/17.
    let fixed3 = |x: f64| Cell::new(x, format!("{x:.3}"));
    for (i, which) in Impl::ALL.iter().enumerate() {
        report.push(vec![
            Cell::text(which.label()),
            Cell::secs(seconds[i]),
            fixed3(seconds[i] / seconds[1]),
            fixed3(w.paper_runtimes[i] / w.paper_runtimes[1]),
        ]);
    }
    report
}
