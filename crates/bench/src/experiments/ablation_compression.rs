//! Extension ablation: byte-compressed (Ligra+-style) adjacency vs raw
//! CSR for the GEE kernel. §IV's memory-bound analysis (and its CPMA
//! citation) predicts that trading decode ALU work for memory bandwidth
//! can pay off once the graph exceeds cache.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- ablation-compression --scale 128
//! ```

use gee_core::AtomicsMode;
use gee_graph::CompressedCsr;

use crate::report::{col, Cell, Report};
use crate::{table1_workloads, time_ligra, timed, Args};

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(
        "ablation_compression",
        format!(
            "Compression ablation — GEE kernel on raw vs byte-compressed adjacency (1/{} scale)",
            args.scale
        ),
        vec![
            col("Graph", "graph"),
            col("edges", "edges"),
            col("raw adj", "raw_adjacency_bytes"),
            col("compressed", "compressed_adjacency_bytes"),
            col("ratio", "compression_ratio"),
            col("GEE raw", "raw_seconds"),
            col("GEE compressed", "compressed_seconds"),
            col("time ratio", "slowdown"),
        ],
    );
    let mebibytes = |bytes: usize| {
        Cell::new(
            bytes,
            format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0)),
        )
    };
    for w in table1_workloads() {
        let input = w.input(args, 0xBEEF);
        let (g, labels) = (&input.g, &input.labels);
        let c = CompressedCsr::from_csr(g);
        // Warm-up both paths.
        let _ = gee_core::ligra::embed(g, labels, AtomicsMode::Atomic);
        let _ = gee_core::ligra::embed_compressed(&c, labels, AtomicsMode::Atomic);
        let (t_raw, z_raw) = time_ligra(g, labels, args, args.threads, AtomicsMode::Atomic);
        let (t_cmp, z_cmp) = timed(args.runs, || {
            gee_ligra::with_threads(args.threads, || {
                gee_core::ligra::embed_compressed(&c, labels, AtomicsMode::Atomic)
            })
        });
        z_raw.assert_close(&z_cmp, 1e-9);
        report.push(vec![
            Cell::text(w.name),
            Cell::new(
                g.num_edges(),
                format!("{:.1}M", g.num_edges() as f64 / 1e6),
            ),
            mebibytes(g.num_edges() * 4),
            mebibytes(c.adjacency_bytes()),
            Cell::ratio(c.compression_ratio()),
            Cell::secs(t_raw),
            Cell::secs(t_cmp),
            Cell::ratio(t_cmp / t_raw),
        ]);
        eprintln!("done: {}", w.name);
    }
    report.note(
        "ratio < 1 in column 5 = space saved; column 8 shows the decode-time cost on this machine."
            .into(),
    );
    report
}
