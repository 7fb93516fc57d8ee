//! Embedding quality evaluation for the GEE reproduction.
//!
//! The paper's evaluation is purely about runtime, but its premise is that
//! GEE "converges asymptotically to the spectral embedding" and is
//! "consistent for subsequent inference tasks such as hypothesis testing
//! and community detection" (§I). This crate provides the tooling to check
//! that premise on synthetic graphs with known structure:
//!
//! * [`kmeans()`] — Lloyd's algorithm with k-means++ seeding, parallel
//!   assignment step.
//! * [`knn`] — k-nearest-neighbour vertex classification over embedding
//!   rows (the semantics the serving engine's `Classify` reproduces).
//! * [`metrics`] — Adjusted Rand Index, Normalized Mutual Information,
//!   purity, within/between scatter ratio.
//! * [`spectral`] — adjacency spectral embedding via block power iteration
//!   (the statistical baseline GEE converges toward), compared with GEE up
//!   to rotation by [`procrustes`].

pub mod kmeans;
pub mod knn;
pub mod metrics;
pub mod procrustes;
pub mod spectral;

pub use kmeans::{kmeans, kmeans_best_of, KMeansOptions, KMeansResult};
pub use knn::{accuracy, knn_classify};
pub use metrics::{adjusted_rand_index, normalized_mutual_information, purity, scatter_ratio};
pub use procrustes::{orthogonal_procrustes, ProcrustesResult};
pub use spectral::{spectral_embedding, SpectralOptions};
