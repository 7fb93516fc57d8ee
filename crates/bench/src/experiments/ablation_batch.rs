//! **Extension ablation: fused multi-labeling passes.** §IV's analysis
//! says the edge pass is memory bound; when L embeddings of one graph
//! are needed, L separate passes pay the edge-stream traffic L times
//! while the fused batch kernel (`gee_core::batch`) pays it once. This
//! bench sweeps L and reports the fused-over-separate saving; the fused
//! parallel column is `gee_core::kernels::embed_binned` over all L
//! labelings.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-batch --scale 128
//! ```

use gee_core::{batch, kernels, serial_optimized, Labels};

use crate::report::{col, shown, Cell, Report};
use crate::{labels, largest, timed, Args};

pub fn run(args: &Args) -> Report {
    let w = largest();
    let mut report = Report::new(
        "ablation_batch",
        format!(
            "batch-embedding ablation — {} stand-in (1/{} scale), K = {} and 4",
            w.name, args.scale, args.k
        ),
        vec![
            col("K", "k"),
            col("L", "labelings"),
            col("L separate passes", "separate_seconds"),
            col("fused serial", "fused_seconds"),
            col("fused parallel", "fused_parallel_seconds"),
            shown("saving (serial)"),
        ],
    );
    let el = w.generate(args.scale, args.seed);
    let n = el.num_vertices();
    // Two regimes: the paper's K=50 (Z traffic dominates — fusing dilates
    // the random-access footprint and LOSES) and a small K (edge-stream
    // traffic dominates — fusing amortizes it and wins).
    for k in [args.k, 4] {
        for l in [1usize, 2, 4, 8] {
            let labelings: Vec<Labels> = (0..l)
                .map(|i| labels(args, n, k, args.seed ^ (i as u64 + 1)))
                .collect();
            let refs: Vec<&Labels> = labelings.iter().collect();
            let (t_sep, separate) = timed(args.runs, || {
                labelings
                    .iter()
                    .map(|lab| serial_optimized::embed(&el, lab))
                    .collect::<Vec<_>>()
            });
            let (t_fused, fused) = timed(args.runs, || batch::embed_many(&el, &refs));
            let (t_fused_par, fused_par) =
                timed(args.runs, || kernels::embed_binned(n, el.edges(), &refs));
            // Correctness: fused results must be bit-identical to separate.
            for ((a, b), c) in separate.iter().zip(&fused).zip(&fused_par) {
                assert_eq!(a.as_slice(), b.as_slice(), "fused result diverged");
                assert_eq!(b.as_slice(), c.as_slice(), "parallel fused result diverged");
            }
            report.push(vec![
                Cell::int(k),
                Cell::int(l),
                Cell::secs(t_sep),
                Cell::secs(t_fused),
                Cell::secs(t_fused_par),
                Cell::new(t_sep / t_fused, format!("{:.2}×", t_sep / t_fused)),
            ]);
        }
    }
    report.note(
        "expected shape: fusing wins when the per-labeling Z footprint (n·K·8 B) is small\n\
         relative to the edge stream, and loses once the fused Z working set (×L) blows\n\
         the cache — the same footprint trade-off as §IV's memory-bound analysis."
            .into(),
    );
    report
}
