//! Vertex classification — the "subsequent inference task" GEE exists for
//! (§I): embed with 10% known labels, then classify the other 90% by k-NN
//! in embedding space and by the argmax of each embedding row.
//!
//! ```text
//! cargo run --release --example vertex_classification
//! ```

use gee_repro::eval::{accuracy, knn_classify};
use gee_repro::prelude::*;

fn main() {
    let k = 6;
    let sbm = gee_gen::sbm(&SbmParams::balanced(k, 300, 0.12, 0.005), 2024);
    let n = sbm.edges.num_vertices();
    let g = CsrGraph::from_edge_list(&sbm.edges);
    println!("SBM: {k} classes × 300, {} directed edges", g.num_edges());

    let seeds = gee_gen::subsample_labels(&sbm.truth, 0.10, 7);
    let labels = Labels::from_options_with_k(&seeds, k);
    println!("seeds: {} labeled of {n}", labels.num_labeled());

    // Split: labeled vertices train, the rest are queries.
    let train: Vec<(u32, u32)> = labels.iter_labeled().collect();
    let queries: Vec<u32> = (0..n as u32).filter(|&v| labels.get(v).is_none()).collect();
    let truth_queries: Vec<u32> = queries.iter().map(|&v| sbm.truth[v as usize]).collect();

    // Method 1: GEE embedding + k-NN.
    let t0 = std::time::Instant::now();
    let mut z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
    z.normalize_rows();
    let predicted = knn_classify(z.as_slice(), z.dim(), &train, &queries, 5);
    let gee_time = t0.elapsed();
    let gee_acc = accuracy(&predicted, &truth_queries);
    println!(
        "\nGEE + 5-NN            : accuracy {:.3} in {gee_time:.2?}",
        gee_acc
    );

    // Method 2: argmax of the embedding row (zero extra cost).
    let argmax: Vec<u32> = queries
        .iter()
        .map(|&v| {
            z.row(v)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(c, _)| c as u32)
                .unwrap()
        })
        .collect();
    println!(
        "GEE row-argmax        : accuracy {:.3} (free with the embedding)",
        accuracy(&argmax, &truth_queries)
    );

    assert!(
        gee_acc > 0.8,
        "GEE classification should work on a separated SBM"
    );
}
