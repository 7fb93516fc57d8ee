//! Extension sweep (beyond the paper's evaluation): how label fraction
//! affects runtime and embedding quality. The paper fixes 10% labels; this
//! sweep shows runtime is insensitive to supervision (the edge pass always
//! touches every edge) while quality rises with it — evidence that the
//! 10% configuration is a quality choice, not a performance one.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- sweep-labels
//! ```

use gee_core::{AtomicsMode, Labels};
use gee_graph::CsrGraph;

use crate::report::{col, Cell, Report};
use crate::{time_ligra, Args};

pub fn run(args: &Args) -> Report {
    let blocks = 8usize;
    let per_block = (200_000 / args.scale).clamp(200, 50_000);
    let sbm = gee_gen::sbm(
        &gee_gen::SbmParams::balanced(blocks, per_block, 0.02, 0.001),
        args.seed,
    );
    let g = CsrGraph::from_edge_list(&sbm.edges);
    let n = g.num_vertices();
    let mut report = Report::new(
        "sweep_labels",
        format!(
            "Label-fraction sweep — SBM {blocks}×{per_block} ({} edges), K = {blocks}",
            g.num_edges()
        ),
        vec![
            col("labeled", "labeled_fraction"),
            col("vertices", "labeled"),
            col("embed time", "seconds"),
            col("ARI vs truth", "ari"),
        ],
    );
    for frac in [0.01, 0.02, 0.05, 0.10, 0.25, 0.5, 1.0] {
        let labels = Labels::from_options_with_k(
            &gee_gen::subsample_labels(&sbm.truth, frac, args.seed ^ 0x55),
            blocks,
        );
        let (secs, mut z) = time_ligra(&g, &labels, args, args.threads, AtomicsMode::Atomic);
        z.normalize_rows();
        let options = gee_eval::KMeansOptions::new(blocks, args.seed);
        let km = gee_eval::kmeans_best_of(z.as_slice(), n, blocks, options, 4).assignment;
        let ari = gee_eval::adjusted_rand_index(&km, &sbm.truth);
        report.push(vec![
            Cell::new(frac, format!("{:.0}%", frac * 100.0)),
            Cell::int(labels.num_labeled()),
            Cell::secs(secs),
            Cell::new(ari, format!("{ari:.3}")),
        ]);
        eprintln!("done: {:.0}% labels", frac * 100.0);
    }
    report.note("expected shape: flat runtime, rising ARI.".into());
    report
}
