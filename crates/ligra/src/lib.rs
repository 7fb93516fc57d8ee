//! A Ligra-style shared-memory graph engine (Shun & Blelloch, PPoPP 2013)
//! in safe-by-default Rust over rayon.
//!
//! The paper reformulates GEE as an *edge-map program* in this interface:
//! a [`VertexSubset`] frontier selects active vertices, [`edge_map()`] applies
//! a function to every out-edge of the frontier, and lock-free atomic
//! [`atomics::AtomicF64Vec::fetch_add`] (`writeAdd` in Ligra) prevents data
//! races on the embedding matrix.
//!
//! Engine components:
//!
//! * [`vertex_subset`] — dense-bitmap / sparse-list frontier with the
//!   standard representation-switch threshold.
//! * [`edge_map()`] — push-style sparse traversal, pull-style dense traversal,
//!   and the *dense-forward* traversal GEE uses (one task per range of
//!   sources holding an equal share of the edges, each source's edge list
//!   processed sequentially — §III of the paper).
//! * [`vertex_map()`] — parallel map/filter over a frontier.
//! * [`atomics`] — `writeAdd` (f64 CAS loop), `write_min`, `cas`, and the
//!   deliberately racy non-atomic mode used for the paper's "atomics off"
//!   ablation.
//! * [`prim`] — parallel scan / pack / filter primitives.

pub mod atomics;
pub mod edge_map;
pub mod prim;
pub mod vertex_map;
pub mod vertex_subset;

pub use atomics::{AtomicF64Vec, AtomicsMode};
pub use edge_map::{edge_map, edge_map_dense_forward, EdgeMapFn, EdgeMapOptions, TraversalKind};
pub use vertex_map::{vertex_filter, vertex_map};
pub use vertex_subset::VertexSubset;

/// Run `f` on a rayon pool with exactly `threads` workers.
///
/// The strong-scaling experiment (paper Fig. 3) sweeps this from 1 to the
/// machine's core count. `threads = 0` means "rayon default".
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        return f();
    }
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_closure() {
        let r = with_threads(2, rayon::current_num_threads);
        assert_eq!(r, 2);
    }

    #[test]
    fn with_threads_zero_uses_default_pool() {
        let r = with_threads(0, || 41 + 1);
        assert_eq!(r, 42);
    }
}
