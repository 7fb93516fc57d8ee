//! The `paper` binary: regenerates each table and figure of "Edge-Parallel
//! Graph Encoder Embedding", plus the extension sweeps and ablations
//! around them.
//!
//! ```text
//! cargo run --release -p gee-bench --bin paper -- table1 fig2 fig3 fig4
//! cargo run --release -p gee-bench --bin paper -- --list
//! ```
//!
//! | experiment             | artifact |
//! |------------------------|----------|
//! | `table1`               | Table I: four implementations × six graphs |
//! | `fig2`                 | Figure 2: largest graph, normalized to Numba |
//! | `fig3`                 | Figure 3: strong scaling + memory roofline |
//! | `fig4`                 | Figure 4: Erdős–Rényi edge-count sweep |
//! | `ablation-atomics`     | §IV atomics-off experiment |
//! | `ablation-init`        | §III O(nK) projection-init claim |
//! | `sweep-k`              | extension: embedding dimension K |
//! | `sweep-labels`         | extension: labeled fraction vs runtime and ARI |
//! | `ablation-batch`       | extension: fused multi-labeling passes |
//! | `ablation-compression` | extension: byte-compressed adjacency |
//! | `ablation-determinism` | extension: cost of the bit-reproducible (binned) kernel |
//! | `ablation-dynamic`     | extension: incremental updates vs recompute |
//! | `ablation-kernels`     | extension: push / racy / pull / binned kernels |
//! | `ablation-reorder`     | extension: vertex order vs miss rate |
//!
//! Any subset runs in the order named. `--scale <divisor>` shrinks the
//! paper's graph sizes (default 64), `--runs <r>` is the median-of-r
//! timing (default 3); [`args::USAGE`] lists the rest. Each experiment is
//! a function returning one [`Report`], printed as an aligned table and,
//! unless `--no-json`, a JSON block with the same cells.
//!
//! This crate measures the paper's kernel only. The serving stack's
//! numbers (and the kernel's per-layer ledger) come from the repository
//! benchmark, `BENCHMARK.json` + `benchmark/`.

pub mod args;
pub mod experiments;
pub mod perfmodel;
pub mod report;
pub mod runner;
pub mod table;
pub mod workloads;

pub use args::Args;
pub use perfmodel::{gee_bytes_per_edge, measure_bandwidth, predicted_edge_pass_seconds};
pub use report::Report;
pub use runner::{time_implementation, time_ligra, timed, verify_embedding};
pub use workloads::{labels, largest, table1_workloads, Input, Workload};
