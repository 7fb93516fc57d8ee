//! Out-of-core embedding: write a graph to the streaming binary edge
//! format, then embed it from disk in bounded-memory chunks — the paper's
//! memory-efficiency angle (§I) taken to its logical end.
//!
//! ```text
//! cargo run --release --example streaming_embedding
//! ```

use std::io::{BufReader, BufWriter};
use std::path::PathBuf;

use gee_repro::core::streaming::embed_stream;
use gee_repro::graph::io::edge_stream::{self, EdgeStreamReader};
use gee_repro::prelude::*;

/// Removes the spill file when dropped, so it goes away even when an
/// assertion below panics.
struct SpillFile(PathBuf);

impl Drop for SpillFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn main() {
    let n = 500_000;
    let m = 8_000_000;
    println!("generating R-MAT graph: ~{n} vertices, {m} edges");
    let el = gee_gen::rmat(19, m, RmatParams::default(), 13);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(el.num_vertices(), LabelSpec::default(), 5),
        50,
    );

    // Spill the edges to disk (16 bytes per edge).
    let spill = SpillFile(std::env::temp_dir().join("gee_stream_demo.edges"));
    let path = &spill.0;
    let t0 = std::time::Instant::now();
    edge_stream::write(
        BufWriter::new(std::fs::File::create(path).expect("create")),
        &el,
    )
    .expect("write stream");
    let bytes = std::fs::metadata(path).expect("stat").len();
    println!(
        "wrote {} ({:.1} MiB) in {:.2?}",
        path.display(),
        bytes as f64 / (1024.0 * 1024.0),
        t0.elapsed()
    );

    // In-memory baseline.
    let t0 = std::time::Instant::now();
    let expected = gee_repro::core::serial_optimized::embed(&el, &labels);
    println!("in-memory serial pass: {:.2?}", t0.elapsed());

    // Streamed passes at two chunk sizes; each chunk is added by the
    // propagation-blocking kernel, so the bits are the in-memory pass's.
    for chunk in [1usize << 16, 1 << 20] {
        let t0 = std::time::Instant::now();
        let mut reader =
            EdgeStreamReader::new(BufReader::new(std::fs::File::open(path).expect("open")))
                .expect("header");
        let z = embed_stream(&mut reader, &labels, chunk).expect("stream embed");
        let dt = t0.elapsed();
        assert_eq!(z.as_slice(), expected.as_slice());
        println!(
            "streamed, {chunk}-edge chunks: {dt:.2?} — bit-identical to the in-memory result ✓"
        );
    }
    println!(
        "\nresident set during the streamed pass: Z ({} MiB) + projection + one chunk — \
         the edge list itself never needs to fit in memory.",
        el.num_vertices() * 50 * 8 / (1024 * 1024)
    );
}
