//! # gee-repro — Edge-Parallel Graph Encoder Embedding in Rust
//!
//! Facade crate for the full reproduction of *"Edge-Parallel Graph Encoder
//! Embedding"* (Lubonja, Shen, Priebe, Burns — 2024, arXiv:2402.04403).
//! Re-exports every workspace crate under one roof and hosts the runnable
//! examples.
//!
//! ## Quick start
//!
//! ```
//! use gee_repro::prelude::*;
//!
//! // A small random graph with 10% random labels, K = 5.
//! let el = gee_gen::erdos_renyi_gnm(1_000, 8_000, 42);
//! let labels = Labels::from_options_with_k(
//!     &gee_gen::random_labels(1_000, LabelSpec { num_classes: 5, labeled_fraction: 0.1 }, 7),
//!     5,
//! );
//! // The paper's parallel embedding:
//! let g = CsrGraph::from_edge_list(&el);
//! let z = gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic);
//! assert_eq!(z.num_vertices(), 1_000);
//! assert_eq!(z.dim(), 5);
//! ```
//!
//! ## Serving
//!
//! The [`serve`] subsystem (`gee-serve`) turns the pipeline into a
//! long-lived, queryable service: a [`serve::Registry`] owns named graphs
//! with epoch-versioned embedding snapshots, a [`serve::ShardLayout`]
//! partitions vertices so recompute and kNN scans run shard-parallel, and
//! a [`serve::Engine`] answers typed requests (`Classify`, `Similar`,
//! `EmbedRow`, `ApplyUpdates`, `Stats`) — coalescing batches of reads
//! against one consistent snapshot while writes stream through
//! [`DynamicGee`](gee_core::DynamicGee) and publish new epochs. See
//! `examples/serving_pipeline.rs` for the end-to-end flow and the
//! repository benchmark's `read_qps` for queries/sec.
//!
//! ### Copy-on-write epochs, pinning, and back-pressure
//!
//! A [`serve::Snapshot`] is a set of per-shard [`serve::ShardBlock`]s
//! published **copy-on-write**: an update batch re-materializes only the
//! shards it dirtied (edge ops → their endpoints' shards; a label move →
//! every shard's rows but one shard's labels, because class counts
//! rescale whole columns) and structurally shares the rest with the
//! parent epoch. Two policies on [`serve::RegistryConfig`] govern the
//! epoch lifecycle:
//!
//! * [`serve::HistoryPolicy`] keeps the `N` newest epochs in a ring, and
//!   every read request takes an optional `at_epoch` pin (or the `*_at`
//!   methods on `Engine`/`Client`): a pinned read answers against
//!   exactly that retained epoch — time-travel, byte-stable for as long
//!   as the epoch is retained — and a pin outside the ring fails typed
//!   as [`serve::ServeError::EpochEvicted`] (code 13) naming the
//!   retained range. CoW sharing makes retention cheap: consecutive
//!   epochs share every untouched block.
//! * [`serve::BackpressurePolicy`] bounds update batches in flight per
//!   graph: writers beyond the bound are rejected before taking any
//!   lock with [`serve::ServeError::Overloaded`] (code 14) — guaranteed
//!   unapplied and unlogged, so a retry is always safe. Reads are never
//!   throttled; `Registry::hold_write_slot` doubles as a write fence.
//!
//! The concurrency stress suite (`crates/serve/tests/concurrency.rs`)
//! proves snapshots stay internally consistent, reader-observed epochs
//! are monotone, and every published epoch equals a sequential replay;
//! the CoW property suite (`crates/serve/tests/cow_property.rs`) proves
//! CoW publication element-wise equal to from-scratch rebuilds with
//! exactly the untouched blocks shared.
//!
//! ### Approximate search (IVF)
//!
//! Past a few hundred thousand vertices the exact `Similar`/`Classify`
//! scans stop holding up, so the engine can answer from per-shard
//! **IVF indexes** ([`serve::IvfIndex`], [`serve::SearchPolicy`]): each
//! shard block lazily builds and caches a k-means coarse quantizer over
//! its own rows, and a query ranks every shard's centroids globally and
//! scans only the `nprobe` nearest inverted lists. CoW publication means
//! an update batch re-indexes only the shards it dirtied — clean shards
//! share the parent epoch's cached index by pointer — and the build is
//! deterministic in block content, so crash recovery reproduces the same
//! index and the same answers. Approximation stays honest: recall is
//! continuously measured against the exact scan as an oracle
//! (`crates/serve/tests/ann_recall.rs`, plus the benchmark's
//! `ann_recall_at_10` beside `ann_p50_us` / `similar_p50_us` and the
//! in-process `engine.similar_{exact,ann}_us`), small shards and oversized
//! `top`/`k` fall back to the exact scan automatically, and
//! [`serve::SearchPolicy::Exact`] per request (`gee query --exact`) is
//! an escape hatch no server default can override. On the command line:
//! `gee serve --index ivf --nprobe N` and `gee query --nprobe N |
//! --exact true`.
//!
//! ### Wire protocol
//!
//! The serve types double as a network contract ([`serve::wire`]): a
//! frame is a CRC-checked binary body ([`serve::codec`] — the one
//! encoding, handshake included), length-prefixed with a big-endian
//! `u32` on TCP, and exchanged over any [`serve::Transport`] —
//! loopback-free in-process [`serve::duplex`] or
//! [`serve::TcpTransport`]. A connection opens with a `Hello` handshake:
//! the server speaks exactly one version ([`serve::PROTOCOL_VERSION`])
//! and refuses any advertised range that does not contain it with a
//! typed `VersionUnsupported`. The connection then carries pipelined
//! request batches; failures travel as typed [`serve::ServeError`] values
//! with stable numeric [`serve::ErrorCode`]s. A [`serve::Server`] feeds
//! decoded batches to `Engine::execute_batch`, and the blocking
//! [`serve::Client`] mirrors `Engine`'s methods one-for-one, so remote
//! answers are provably `==` in-process answers —
//! `examples/network_serving.rs` demonstrates exactly that, and the
//! benchmark's `codec.*_ns` and `transport.{duplex_rtt,tcp_rtt,
//! tcp_residual}_us` price each hop. On the command line: `gee serve --graph G
//! --listen ADDR` and `gee query --connect ADDR ...`.
//!
//! ### Durable serving
//!
//! With [`serve::Durability::Wal`] a registry survives process death:
//! every registration and update batch is committed to an append-only,
//! CRC-checksummed write-ahead log ([`serve::wal`]) before in-memory
//! state changes, and checkpoints ([`serve::checkpoint`]) of the full
//! writer state periodically compact the log. Recovery replays
//! checkpoint + WAL tail to answers **bit-identical** to the
//! uninterrupted process; corruption surfaces as typed
//! [`serve::ServeError::Corrupt`], never a panic.
//! `examples/durable_serving.rs` crashes and recovers a serving
//! pipeline end-to-end; the benchmark's `wal.{append,sync}_us`,
//! `registry.commit_wait_us`, `wal.scan_s`, `checkpoint.load_s` and
//! `recover_s` price the fsync and what a checkpoint buys. On the
//! command line: `gee serve --data-dir DIR ...` and `gee recover
//! --data-dir DIR`.
//!
//! ### Replication
//!
//! The WAL doubles as a replication stream: a leader attaches a
//! [`serve::ReplicationListener`] that ships committed log records —
//! raw, CRC-framed, in commit order — to any number of followers, and
//! a [`serve::Follower`] pulls that stream into its **own** durable
//! log and replays it through the same dirty-tracking apply path
//! recovery uses, so every epoch a follower publishes is
//! **fingerprint-identical** to the leader's. A follower that starts
//! empty (or falls behind the leader's compaction horizon) bootstraps
//! from a checkpoint mid-stream; one that crashes resumes from its own
//! durable high-water LSN. While trailing, a follower serves the full
//! read surface — `Classify`/`Similar`/`EmbedRow`/`Stats`/`Metrics`,
//! `at_epoch` pins, ANN policies — and rejects writes with
//! [`serve::ServeError::ReadOnlyReplica`] (code 15) naming the leader.
//! Lag (epochs and LSNs) and ship counters surface through the
//! `replication` block on `Stats`/`Metrics`
//! ([`serve::ReplicationReport`]). Corruption on the stream — torn
//! frames, bit flips, LSN discontinuities — surfaces typed as
//! `Corrupt` and is never applied
//! (`crates/serve/tests/replication_frames.rs`); convergence under
//! writer churn, crash-resume, and leader restart are pinned by
//! `crates/serve/tests/replication.rs`. On the command line:
//! `gee serve --data-dir DIR --replicate ADDR` on the leader and
//! `gee serve --follow ADDR --data-dir DIR2 --listen ADDR2` on the
//! replica; `gee recover` prints the WAL high-water and latest
//! checkpoint LSNs (and stored leader epoch) of any durable directory.
//!
//! ### Promotion & fencing
//!
//! When a leader dies, any caught-up follower can take over:
//! [`serve::Follower::promote`] stops the pull loop at the durable
//! high-water LSN, mints the next **leader epoch** — a monotonically
//! increasing fencing token, durably persisted (checkpoint header plus
//! a dedicated `leader-epoch` file) and recovered on open — flips the
//! registry out of read-only replica mode, and optionally warms a
//! fresh [`serve::ReplicationListener`] so surviving followers can
//! re-point. The epoch rides the v2 replication-stream handshake in
//! both directions: a follower refuses to apply anything from a leader
//! older than the highest epoch it has durably seen, and a leader
//! greeted by a follower that has seen a *newer* epoch fences itself —
//! writes fail typed with [`serve::ServeError::StaleLeader`] (code 16)
//! and the `fenced` flag surfaces in [`serve::ReplicationReport`].
//! Split-brain is thereby impossible: at most one epoch's leader can
//! ever take writes that followers accept, pinned end to end by
//! `crates/serve/tests/replication.rs`. On the command line: `gee
//! promote --data-dir DIR [--replicate ADDR]` promotes an offline
//! directory, and `gee serve --follow ADDR --promote-file PATH`
//! promotes a live replica in place when `PATH` appears.
//!
//! ### Benchmarking & observability
//!
//! Three things measure and one reports from inside, each with one job:
//!
//! * **The repository benchmark** — `BENCHMARK.json` + the standalone
//!   `benchmark/` package is the gate: three seeded workloads, 13 bounded
//!   end-to-end metrics (`read_qps`, `write_p50_us`, `recover_s`, …) and
//!   a per-layer ledger (`ligra.*`, `gee.*`, `registry.*`, `wal.*`,
//!   `engine.*`, `index.*`, `codec.*`, `transport.*`) timed from outside
//!   through public functions. A speed claim is a parent/change
//!   comparison of those names, nothing else.
//! * **The paper's artifacts** — `crates/bench`'s one binary,
//!   `paper table1 fig2 fig3 fig4 …`, regenerates Table I, Figs. 2–4 and
//!   the ablations on the edge pass (see the repo-root `README.md`).
//! * **Server metrics** — the `Metrics` request
//!   ([`serve::MetricsReport`], `Engine::metrics` / `Client::metrics`,
//!   `gee query --metrics true`) returns the counters every serving
//!   registry maintains atomically on the hot path: per-request-type
//!   counts and log2-bucketed latency histograms
//!   ([`serve::HistogramReport`]), batch-coalesce sizes, `Overloaded`
//!   rejections, epoch-history depth, WAL fsyncs, and IVF build/hit
//!   counters. `Metrics` and `Stats` describe the same snapshot and the
//!   same counters — `crates/serve/tests/metrics_consistency.rs` pins
//!   that they never disagree, even under writer churn.
//! * **The load generator** — the `gee-loadgen` crate ([`loadgen`])
//!   drives a live server over the ordinary wire protocol: `gee bench
//!   --connect ADDR --mix read=90,write=5,timetravel=3,ann=2 --clients N`
//!   runs N closed-loop (or `--qps`-paced open-loop) client threads with
//!   a deterministic seeded request mix, interleaves server-side metrics
//!   samples into the per-request CSV, and streams the result through
//!   single-pass analytics ([`loadgen::Analysis`], P² quantile
//!   estimation — no reservoir) into a `gee-bench-v1` JSON report
//!   (`gee bench-report` re-runs the same analytics over a saved CSV).
//!   Determinism is pinned by `crates/loadgen/tests/deterministic.rs`: a
//!   seeded run's request-type sequence is exactly replayable.
//!
//! See `examples/` for end-to-end scenarios.

pub use gee_algos as algos;
pub use gee_core as core;
pub use gee_eval as eval;
pub use gee_gen as gen;
pub use gee_graph as graph;
pub use gee_interp as interp;
pub use gee_ligra as ligra;
pub use gee_loadgen as loadgen;
pub use gee_serve as serve;

/// Most-used items in one import.
pub mod prelude {
    pub use gee_core;
    pub use gee_core::{
        AtomicsMode, DynamicGee, Embedding, GeeOptions, Implementation, Labels, Variant,
    };
    pub use gee_gen::{self, LabelSpec, RmatParams, SbmParams, WsParams};
    pub use gee_graph::{CsrGraph, Edge, EdgeList, GraphBuilder};
    pub use gee_ligra::{with_threads, BucketOrder, Buckets, VertexSubset};
    pub use gee_loadgen::{Analysis as BenchAnalysis, BenchConfig, Mix as BenchMix};
    pub use gee_serve::{
        BackpressurePolicy, Client as ServeClient, Durability, Engine as ServeEngine, Envelope,
        ErrorCode, Follower, HistoryPolicy, MetricsReport, Promotion, Registry, RegistryConfig,
        ReplicationListener, ReplicationReport, Request, Response, SearchPolicy, ServeError,
        Server as ServeServer, SyncPolicy, Update,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let el = gee_gen::erdos_renyi_gnm(100, 500, 1);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                100,
                LabelSpec {
                    num_classes: 3,
                    labeled_fraction: 0.2,
                },
                2,
            ),
            3,
        );
        let z = gee_core::embed(
            &el,
            &labels,
            Implementation::LigraParallel,
            GeeOptions::default(),
        );
        assert_eq!(z.dim(), 3);
    }
}
