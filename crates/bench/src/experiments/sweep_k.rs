//! Extension sweep (beyond the paper's evaluation): embedding dimension K.
//! The edge pass is O(s) regardless of K (each edge touches one Z entry
//! per direction), but the projection init and the Z allocation are O(nK)
//! — so runtime should be flat in K until nK rivals s (§III's crossover).
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- sweep-k
//! ```

use gee_core::AtomicsMode;
use gee_graph::CsrGraph;

use crate::report::{col, Cell, Report};
use crate::{labels, time_ligra, Args};

pub fn run(args: &Args) -> Report {
    let n = (2_000_000 / args.scale).max(20_000);
    let m = n * 16;
    let el = gee_gen::erdos_renyi_gnm(n, m, args.seed);
    let g = CsrGraph::from_edge_list(&el);
    let mut report = Report::new(
        "sweep_k",
        format!(
            "K sweep — ER graph n = {n}, s = {m}, {}% labeled",
            args.labeled_fraction * 100.0
        ),
        vec![
            col("K", "k"),
            col("nK / s", "nk_over_s"),
            col("embed time", "seconds"),
            col("Z memory", "z_mebibytes"),
        ],
    );
    for k in [2usize, 8, 32, 50, 128, 512] {
        let labels = labels(args, n, k, args.seed ^ k as u64);
        let (secs, z) = time_ligra(&g, &labels, args, args.threads, AtomicsMode::Atomic);
        assert_eq!(z.dim(), k);
        let z_mebibytes = (n * k * 8) as f64 / (1024.0 * 1024.0);
        report.push(vec![
            Cell::int(k),
            Cell::ratio((n * k) as f64 / m as f64),
            Cell::secs(secs),
            Cell::new(z_mebibytes, format!("{z_mebibytes:.1} MiB")),
        ]);
        eprintln!("done: K = {k}");
    }
    report.note(
        "expected shape: near-flat until nK/s approaches 1, then the O(nK) terms dominate.".into(),
    );
    report
}
