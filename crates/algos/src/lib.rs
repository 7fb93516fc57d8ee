//! Reference graph algorithms on the Ligra-style engine.
//!
//! §II of the paper: "[the edgeMap/vertexMap interface] captures almost all
//! modern graph algorithms, including PageRank, Connected Components, and
//! Betweenness Centrality. The frontier subset enables search-style
//! algorithms like breadth-first search."
//!
//! These implementations exist to validate the engine substrate the GEE
//! port runs on — each has a serial oracle in its tests — and to serve as
//! working examples of the engine API.

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod coloring;
pub mod diameter;
pub mod kcore;
pub mod label_prop;
pub mod matching;
pub mod mis;
pub mod pagerank;
pub mod radii;
pub mod sssp;
pub mod triangles;

pub use bc::betweenness;
pub use bfs::{bfs, bfs_distances};
pub use cc::connected_components;
pub use coloring::color;
pub use diameter::{double_sweep_diameter, DiameterEstimate};
pub use kcore::kcore;
pub use label_prop::label_propagation;
pub use matching::maximal_matching;
pub use mis::maximal_independent_set;
pub use pagerank::{pagerank, PageRankOptions};
pub use radii::radii_estimate;
pub use sssp::sssp;
pub use triangles::triangle_count;
