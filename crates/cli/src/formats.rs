//! File-format detection and unified read/write by extension.

use std::io::{BufReader, BufWriter};
use std::path::Path;

use gee_graph::{io, CsrGraph, EdgeList};

use crate::CliError;

/// Supported graph file formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Whitespace `u v [w]` lines (`.txt`, `.el`, `.edgelist`).
    EdgeListText,
    /// SNAP repository text (`.snap`).
    Snap,
    /// Matrix Market coordinate (`.mtx`).
    MatrixMarket,
    /// Binary CSR dump (`.csr`).
    BinaryCsr,
    /// Streaming binary edges (`.edges`).
    EdgeStream,
}

/// Pick a format from the file extension.
pub fn detect_format(path: &Path) -> crate::Result<Format> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    match ext.to_ascii_lowercase().as_str() {
        "txt" | "el" | "edgelist" => Ok(Format::EdgeListText),
        "snap" => Ok(Format::Snap),
        "mtx" => Ok(Format::MatrixMarket),
        "csr" => Ok(Format::BinaryCsr),
        "edges" => Ok(Format::EdgeStream),
        other => Err(CliError::Usage(format!(
            "cannot infer format from extension {other:?} (known: .txt/.el/.edgelist, .snap, .mtx, .csr, .edges)"
        ))),
    }
}

/// Load a graph file (any supported format) as an edge list.
pub fn read_graph(path: &Path) -> crate::Result<EdgeList> {
    let format = detect_format(path)?;
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    Ok(match format {
        Format::EdgeListText => io::edgelist::read(reader, None)?,
        Format::Snap => io::snap::read(reader, io::snap::SnapOptions::default())?,
        Format::MatrixMarket => io::mtx::read(reader)?,
        Format::BinaryCsr => io::binary::read(&mut reader)?.to_edge_list(),
        Format::EdgeStream => {
            let mut r = io::edge_stream::EdgeStreamReader::new(reader)?;
            let mut buf = Vec::new();
            // Not sized by the header's edge count: a short file must end
            // in an EOF error, not in a huge allocation.
            let mut all = Vec::new();
            while r.read_chunk(&mut buf, 1 << 20)? > 0 {
                all.extend_from_slice(&buf);
            }
            EdgeList::new_unchecked(r.num_vertices(), all)
        }
    })
}

/// Write an edge list to a graph file (format from extension).
pub fn write_graph(path: &Path, el: &EdgeList) -> crate::Result<()> {
    let format = detect_format(path)?;
    let file = std::fs::File::create(path)?;
    let mut writer = BufWriter::new(file);
    match format {
        Format::EdgeListText => io::edgelist::write(writer, el)?,
        Format::Snap => {
            return Err(CliError::Usage(
                "writing SNAP format is not supported; use .txt".into(),
            ))
        }
        Format::MatrixMarket => io::mtx::write(writer, el)?,
        Format::BinaryCsr => io::binary::write(&mut writer, &CsrGraph::from_edge_list(el))?,
        Format::EdgeStream => io::edge_stream::write(writer, el)?,
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_graph::Edge;

    #[test]
    fn detection_by_extension() {
        assert_eq!(
            detect_format(Path::new("a.txt")).unwrap(),
            Format::EdgeListText
        );
        assert_eq!(
            detect_format(Path::new("a.mtx")).unwrap(),
            Format::MatrixMarket
        );
        assert_eq!(
            detect_format(Path::new("a.csr")).unwrap(),
            Format::BinaryCsr
        );
        assert_eq!(
            detect_format(Path::new("a.edges")).unwrap(),
            Format::EdgeStream
        );
        assert!(detect_format(Path::new("a.xyz")).is_err());
    }

    #[test]
    fn round_trip_all_writable_formats() {
        let el = EdgeList::new(4, vec![Edge::new(0, 1, 2.0), Edge::unit(3, 2)]).unwrap();
        let dir = std::env::temp_dir();
        for name in [
            "gee_cli_t.txt",
            "gee_cli_t.mtx",
            "gee_cli_t.csr",
            "gee_cli_t.edges",
        ] {
            let p = dir.join(name);
            write_graph(&p, &el).unwrap();
            let back = read_graph(&p).unwrap();
            assert_eq!(back.num_edges(), el.num_edges(), "{name}");
            assert_eq!(back.num_vertices(), el.num_vertices(), "{name}");
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn hostile_binary_headers_are_graph_errors() {
        // A GEECSR1 header claiming 2^40 vertices, and a GEEES1 header
        // claiming 2^40 edges over 4 vertices; neither file has a body.
        let csr = [
            &b"GEECSR1\0"[..],
            &[0; 8],
            &(1u64 << 40).to_le_bytes(),
            &[0; 8],
        ]
        .concat();
        let edges = [
            &b"GEEES1\0\0"[..],
            &4u64.to_le_bytes(),
            &(1u64 << 40).to_le_bytes(),
        ]
        .concat();
        for (name, bytes) in [
            ("gee_cli_hostile.csr", csr),
            ("gee_cli_hostile.edges", edges),
        ] {
            let p = std::env::temp_dir().join(name);
            std::fs::write(&p, bytes).unwrap();
            let r = read_graph(&p);
            std::fs::remove_file(&p).ok();
            assert!(matches!(r, Err(CliError::Graph(_))), "{name}: {r:?}");
        }
    }

    #[test]
    fn snap_write_rejected() {
        let el = EdgeList::new(2, vec![Edge::unit(0, 1)]).unwrap();
        assert!(write_graph(&std::env::temp_dir().join("x.snap"), &el).is_err());
    }
}
