//! Out-of-core GEE: embed from a bounded-memory edge stream.
//!
//! §I of the paper: "The remaining gap this paper addresses is parallelism
//! and **memory efficiency**." GEE is a single pass over the edges, so the
//! edge list never needs to be resident: this module embeds directly from
//! a [`gee_graph::io::edge_stream`] reader, holding only `Z` (`n×K`), the
//! sparse projection (`n`), and one edge chunk in memory. Each chunk is
//! added by the propagation-blocking kernel, so the output is
//! bit-identical to `serial_optimized` at any chunk size and thread count.

use std::io::Read;

use gee_graph::io::edge_stream::EdgeStreamReader;
use gee_graph::Edge;

use crate::embedding::Embedding;
use crate::kernels;
use crate::labels::Labels;
use crate::projection::Projection;

/// Embed from a streamed edge file with O(nK + chunk) memory.
pub fn embed_stream<R: Read>(
    reader: &mut EdgeStreamReader<R>,
    labels: &Labels,
    chunk_edges: usize,
) -> gee_graph::Result<Embedding> {
    assert!(chunk_edges >= 1, "chunk size must be positive");
    assert_eq!(
        reader.num_vertices(),
        labels.len(),
        "labels must cover every vertex"
    );
    let n = reader.num_vertices();
    let k = labels.num_classes();
    let proj = Projection::build_parallel(labels);
    let lane = (0, labels.raw_slice(), proj.as_slice());
    let mut z = vec![0.0f64; n * k];
    let mut buf: Vec<Edge> = Vec::with_capacity(chunk_edges);
    while reader.read_chunk(&mut buf, chunk_edges)? > 0 {
        kernels::add_binned(&mut z, k, &buf, [lane], kernels::BIN_BITS);
    }
    Ok(Embedding::from_vec(n, k, z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial_optimized;
    use gee_gen::LabelSpec;
    use gee_graph::io::edge_stream;
    use gee_graph::EdgeList;

    fn setup(n: usize, m: usize, seed: u64) -> (EdgeList, Labels, Vec<u8>) {
        let el = gee_gen::erdos_renyi_gnm(n, m, seed);
        let labels = Labels::from_options(&gee_gen::random_labels(
            n,
            LabelSpec {
                num_classes: 6,
                labeled_fraction: 0.3,
            },
            seed ^ 0xFACE,
        ));
        let mut bytes = Vec::new();
        edge_stream::write(&mut bytes, &el).unwrap();
        (el, labels, bytes)
    }

    #[test]
    fn serial_stream_bit_identical_to_in_memory() {
        let (el, labels, bytes) = setup(300, 4000, 3);
        let expected = serial_optimized::embed(&el, &labels);
        for chunk in [1usize, 7, 100, 4000, 10_000] {
            let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
            let z = gee_ligra::with_threads(1, || embed_stream(&mut r, &labels, chunk)).unwrap();
            assert_eq!(z.as_slice(), expected.as_slice(), "chunk size {chunk}");
        }
    }

    /// Each chunk goes through the binned kernel, so the parallel stream
    /// matches within a tolerance of zero: bit for bit.
    #[test]
    fn parallel_stream_matches_within_tolerance() {
        let (el, labels, bytes) = setup(500, 10_000, 9);
        let expected = serial_optimized::embed(&el, &labels);
        for chunk in [7usize, 1 << 12, 10_000] {
            for threads in [2, 3] {
                let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
                let z = gee_ligra::with_threads(threads, || embed_stream(&mut r, &labels, chunk))
                    .unwrap();
                assert_eq!(
                    z.as_slice(),
                    expected.as_slice(),
                    "chunk size {chunk}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_stream_gives_zero_embedding() {
        let el = EdgeList::new(4, vec![]).unwrap();
        let labels = Labels::from_full(&[0, 1, 0, 1]);
        let mut bytes = Vec::new();
        edge_stream::write(&mut bytes, &el).unwrap();
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        let z = embed_stream(&mut r, &labels, 16).unwrap();
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn io_error_propagates() {
        let (_, labels, mut bytes) = setup(100, 1000, 5);
        bytes.truncate(bytes.len() / 2);
        let mut r = EdgeStreamReader::new(bytes.as_slice()).unwrap();
        assert!(embed_stream(&mut r, &labels, 1 << 8).is_err());
    }
}
