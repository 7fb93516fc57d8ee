//! The workloads: one seeded graph each, put through the same session
//! (kernel window, static serve window, churn serve window, recovery).
//! Sizes are for a 2-core sandbox and a driver that makes 70 runs in
//! under an hour; see README.md for how each was chosen.

use crate::gen::GraphSpec;

pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    /// Embedding dimension `K`.
    pub classes: usize,
    pub shards: usize,
    /// Committed WAL records between automatic checkpoints, chosen so
    /// several checkpoints complete inside one churn window.
    pub checkpoint_every: u64,
    /// IVF lists probed by the ANN `Similar` requests.
    pub nprobe: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "embed_large",
        graph: GraphSpec::Rmat {
            scale: 17,
            edges: 1 << 22,
        },
        classes: 50,
        shards: 8,
        checkpoint_every: 500,
        nprobe: 32,
    },
    Workload {
        name: "embed_small",
        graph: GraphSpec::Rmat {
            scale: 12,
            edges: 106_496,
        },
        classes: 50,
        shards: 8,
        checkpoint_every: 2_000,
        nprobe: 32,
    },
    Workload {
        name: "serve_sbm",
        graph: GraphSpec::Sbm {
            blocks: 8,
            per_block: 6_250,
            intra_pairs: 475_000,
            inter_pairs: 50_000,
        },
        classes: 8,
        shards: 8,
        checkpoint_every: 1_500,
        nprobe: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
