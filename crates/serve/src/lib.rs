//! `gee-serve` — a sharded, batch-serving embedding query engine.
//!
//! The paper frames GEE as the fast front half of a pipeline whose back
//! half is *subsequent inference*: vertex classification and clustering
//! over the embedding. This crate is that back half as a long-lived
//! service. It stitches the workspace's ingredients — [`gee_core`]'s
//! embeddings and [`DynamicGee`](gee_core::DynamicGee) incremental
//! maintenance, [`gee_eval`]'s kNN semantics — into an in-memory,
//! multi-graph store plus query engine:
//!
//! * [`Registry`] owns named graphs, their labels, and epoch-versioned
//!   [`Snapshot`]s of the embedding. Writes serialize through a
//!   `DynamicGee` writer (O(1) per edge op — GEE is a linear sketch) and
//!   publish a new epoch atomically; readers holding a snapshot are never
//!   disturbed.
//! * [`ShardLayout`] partitions vertices across `S` contiguous shards so
//!   snapshot materialization, kNN scans, and `Similar` sweeps run
//!   shard-parallel via rayon.
//! * A [`Snapshot`] is a set of per-shard [`ShardBlock`]s published
//!   **copy-on-write**: an update batch re-materializes only the shards
//!   it dirtied and structurally shares the rest with the parent epoch
//!   (see `registry`'s module docs for the exact dirty rules).
//! * [`Engine`] answers typed requests — [`Request::Classify`],
//!   [`Request::Similar`], [`Request::EmbedRow`],
//!   [`Request::ApplyUpdates`], [`Request::Stats`] — and
//!   [`Engine::execute_batch`] coalesces read runs against one consistent
//!   snapshot per graph while keeping batch results identical to
//!   one-at-a-time execution.
//!
//! # Wire protocol
//!
//! Every serve type doubles as a public wire contract, so the engine
//! can be driven across a process boundary with answers provably equal
//! to in-process execution:
//!
//! * **Frame layout** — a frame is one [`wire::ClientFrame`] or
//!   [`wire::ServerFrame`] in the CRC-guarded binary encoding of
//!   [`codec`], the only encoding there is (handshake included). On
//!   stream transports (TCP) each frame is length-prefixed with a
//!   big-endian `u32` byte count, capped at [`wire::MAX_FRAME_LEN`]; the
//!   in-process [`transport::duplex`] moves the encoded frames through
//!   a channel without copying.
//! * **Version negotiation** — a connection starts with
//!   `ClientFrame::Hello { min_version, max_version }`; the server
//!   speaks exactly one version ([`wire::PROTOCOL_VERSION`]) and answers
//!   `ServerFrame::HelloAck` when the range contains it, or a typed
//!   [`ServeError::VersionUnsupported`] and closes.
//! * **Requests** — `ClientFrame::Batch { id, requests }` carries an
//!   ordered [`Envelope`] batch that the server feeds to
//!   [`Engine::execute_batch`]; the response echoes the `id`, which lets
//!   a client pipeline many batches on one connection before reading any
//!   reply ([`Client::pipeline`]).
//! * **Errors** — failures travel as [`ServeError`] values with stable
//!   numeric [`ErrorCode`]s (see [`ErrorCode::as_u16`]), never as bare
//!   strings, so clients can branch without parsing messages.
//!
//! [`Server`] accepts connections (any [`Transport`]) — the TCP listener
//! multiplexes them over a fixed worker pool of nonblocking readiness
//! loops ([`Server::listen_with`], `gee serve --workers N`) — and
//! [`Client`] mirrors [`Engine`]'s methods one-for-one (`classify`, `similar`,
//! `embed_row`, `apply_updates`, `stats`, `metrics`, `execute_batch`),
//! which makes Engine-vs-Client equivalence property-testable. The
//! serving stack also keeps registry-wide observability counters
//! ([`metrics`]) snapshotted by the [`Request::Metrics`]
//! probe as a [`MetricsReport`] — the data source for `gee bench`'s
//! server-side samples. See
//! `examples/network_serving.rs` for the end-to-end proof and the
//! benchmark's `codec.*_ns` / `transport.{duplex_rtt,tcp_rtt}_us` layer
//! metrics for in-process vs duplex vs loopback-TCP cost.
//!
//! # Epoch pinning and back-pressure
//!
//! A registry opened via [`Registry::with_config`] takes two serving
//! policies alongside durability:
//!
//! * **[`HistoryPolicy`]** — how many published epochs each graph
//!   retains (default 1: newest only). Read requests carry an optional
//!   `at_epoch` pin ([`Request::Classify`], [`Request::Similar`],
//!   [`Request::EmbedRow`], [`Request::Stats`], or the `*_at` methods on
//!   [`Engine`]/[`Client`]): a pinned read answers against exactly that
//!   retained epoch — time-travel — no matter how many writes have
//!   landed since. Repeated reads of the same pinned epoch are
//!   byte-identical for as long as the epoch is retained. A pin outside
//!   the retained ring (evicted *or* not yet published) fails with the
//!   typed [`ServeError::EpochEvicted`] ([`ErrorCode::EpochEvicted`] =
//!   13) naming the retained range, so clients can re-pin. Retention is
//!   cheap: consecutive epochs share every [`ShardBlock`] their batch
//!   did not dirty.
//! * **[`BackpressurePolicy`]** — a bound on update batches in flight
//!   per graph. Writers that outpace publication are rejected up front
//!   with [`ServeError::Overloaded`] ([`ErrorCode::Overloaded`] = 14)
//!   *before* taking any lock, instead of queueing unboundedly on the
//!   writer mutex; the batch is guaranteed unapplied (and, on a durable
//!   registry, unlogged), so the caller can simply retry. Reads are
//!   never back-pressured. [`Registry::hold_write_slot`] reserves a
//!   slot as a write fence for maintenance windows.
//!
//! `tests/concurrency.rs` stress-tests both policies under concurrent
//! writers and readers, and `tests/cow_property.rs` property-tests that
//! CoW-published epochs are element-wise identical to from-scratch
//! rebuilds with exactly the untouched blocks shared.
//!
//! # Approximate search (IVF)
//!
//! `Similar` and `Classify` are exact scans by default — O(n) per query
//! (O(distinct rows) for `Similar`), which stops holding up at millions
//! of vertices. A
//! registry configured with [`SearchPolicy::Ann`] (or a request carrying
//! a `search` override) answers from per-shard
//! **IVF indexes** instead ([`index`], [`IvfIndex`]): each
//! [`ShardBlock`] lazily builds and caches a k-means coarse quantizer
//! over its own rows, and a query ranks every shard's centroids in one
//! global ordering and scans only the `nprobe` nearest inverted lists.
//! The trade-off dial is explicit: more probes → higher recall, more
//! work; the `refine` factor sets a minimum candidate pool
//! (`refine × top`); and probing everything *equals* the exact scan,
//! ties included, because candidates are ranked by the same
//! `(distance, id)` total order. Guard rails keep approximation honest:
//! shards under [`ANN_MIN_SHARD_ROWS`] rows and queries whose `top`/`k`
//! covers the pool **fall back to the exact scan automatically**, and
//! [`SearchPolicy::Exact`] per request (`gee query --exact`) is the
//! escape hatch no server configuration can override. Because CoW
//! publication shares clean blocks between epochs, an update batch
//! re-indexes only the shards it dirtied — clean shards carry the parent
//! epoch's cached index (`Arc::ptr_eq`-provable), and a pinned epoch's
//! ANN answers are frozen for as long as it is retained. The build is
//! deterministic in block content, so crash recovery reproduces the same
//! index structure and the same ANN answers. `tests/ann_recall.rs`
//! measures recall@top against the exact oracle across graphs, shard
//! counts, and `nprobe` budgets; the benchmark reports `ann_p50_us`
//! against `similar_p50_us` **with** measured `ann_recall_at_10`.
//!
//! # Durability
//!
//! A registry opened with [`Durability::Wal`] survives process death.
//! Every mutation is committed to an append-only, CRC-checksummed
//! **write-ahead log** ([`wal`] documents the exact record layout —
//! magic `GEEWAL1\0`, version 1, length-prefixed frames) *before*
//! in-memory state changes; every N batches the complete writer state is
//! captured in an atomically-renamed **checkpoint** ([`checkpoint`]) and
//! the covered WAL segments are retired. Recovery
//! ([`Registry::open`]/[`Engine::open`]) loads the latest checkpoint,
//! truncates a torn tail left by a crash mid-append, replays the WAL
//! tail, and arrives at snapshots **bit-identical** to the pre-crash
//! process — `tests/durability.rs` is a reusable crash harness (fault
//! injection at every byte offset, flipped bytes, stray segments) that
//! proves it on encoded wire frames. Damaged durable state is a typed
//! [`ServeError::Corrupt`] ([`ErrorCode::Corrupt`] = 11), storage I/O
//! failure a [`ServeError::Storage`] (12); recovery never panics. See
//! `examples/durable_serving.rs`, the benchmark's `wal.*` /
//! `checkpoint.*` / `recover_s` metrics, and `gee serve --data-dir` /
//! `gee recover` on the command line.
//!
//! ## Group commit
//!
//! [`SyncPolicy`] picks the commit point on the WAL:
//! [`SyncPolicy::Always`] fsyncs inside every append — each batch pays
//! the full disk round trip — while [`SyncPolicy::Never`] leaves
//! flushing to the OS. [`SyncPolicy::Group`] (`gee serve --sync group`)
//! is the middle ground for concurrent writers: a committing batch
//! appends under the log lock, releases it, and then waits for a
//! **shared fsync**. The first waiter with no sync in flight becomes
//! the leader — it sleeps out the configured window collecting
//! arrivals, samples the log's high water, and issues one fsync *with
//! the log lock released*, so other writers keep appending (and queue
//! for the next sync) while the disk works. Every waiter below the
//! sampled high water is acknowledged by that single fsync; the
//! durability guarantee is unchanged (no batch is acknowledged before
//! an fsync covers it — only the fsync is shared). The coalescing is
//! observable as the `wal_fsyncs` metric staying far below
//! the committed batch count (`tests/durability.rs` pins it at 8
//! writers; the benchmark reports it as `wal.fsyncs_per_batch`).
//!
//! # Replication
//!
//! The WAL doubles as a replication stream ([`replicate`]): a durable
//! **leader** exposes a [`ReplicationListener`] that ships committed WAL
//! records — CRC-framed, LSN-addressed — to any number of
//! **followers**, each a [`Follower`] opened with its own
//! [`Durability::Wal`] directory (`gee serve --follow <addr>` on the
//! command line). A follower persists every shipped record through its
//! own WAL before replaying it through the same dirty-tracking apply
//! path the leader ran, so every published epoch on the follower is
//! **fingerprint-identical** to the leader's — epoch-pinned reads answer
//! byte-for-byte the same on either node. A follower that requests
//! history behind the leader's compaction horizon is bootstrapped from
//! the leader's latest checkpoint first. Followers serve all reads
//! (pins, ANN policies, `Stats`/`Metrics`) while trailing, reject writes
//! with the typed [`ServeError::ReadOnlyReplica`]
//! ([`ErrorCode::ReadOnlyReplica`] = 15), reconnect with backoff, and
//! resume from their durable high-water LSN after a crash. Replication
//! lag (epochs and LSNs) and shipped-record counters surface through the
//! `replication` block of [`GraphReport`]/[`MetricsReport`].
//! `tests/replication.rs` proves convergence under
//! concurrent writer churn; `tests/replication_frames.rs` fuzzes the
//! stream framing and injects torn/bit-flipped streams.
//!
//! ## Promotion & fencing
//!
//! When a leader dies, any follower can take over:
//! [`Follower::promote`] stops the pull loop at the durable high water,
//! durably bumps the **leader epoch** — a monotonically increasing
//! fencing token persisted in the data dir and carried in every
//! replication handshake and heartbeat — and flips the
//! registry writable, optionally warming a fresh [`ReplicationListener`]
//! so the surviving followers re-point and resume from their own LSNs
//! (`gee promote` on the command line). The epoch makes split brain
//! impossible: a follower rejects any leader advertising an epoch below
//! the highest it has durably seen, and a deposed leader greeted by a
//! follower that names a newer epoch **self-fences** — it stops shipping,
//! refuses writes, and both sides surface the typed
//! [`ServeError::StaleLeader`] ([`ErrorCode::StaleLeader`] = 16, with
//! `fenced: true` in the leader's `replication` report). What fencing
//! does *not* change: replication stays asynchronous, so writes the old
//! leader acknowledged but never shipped are lost on failover (the
//! quorum-ack follow-on in ROADMAP.md addresses that); promotion is
//! manual/operator-driven — there is no failure detector or election.
//!
//! ```
//! use std::sync::Arc;
//! use gee_core::Labels;
//! use gee_serve::{Engine, Envelope, Registry, Request, Response, Update};
//!
//! let sbm = gee_gen::sbm(&gee_gen::SbmParams::balanced(3, 40, 0.3, 0.02), 7);
//! let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.5, 1), 3);
//!
//! let registry = Arc::new(Registry::new(4)); // 4 shards
//! registry.register("social", &sbm.edges, &labels).unwrap();
//! let engine = Engine::new(registry);
//!
//! let answers = engine.execute_batch(vec![
//!     Envelope::new("social", Request::classify(vec![0, 1, 2], 5)),
//!     Envelope::new("social", Request::ApplyUpdates {
//!         updates: vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }],
//!     }),
//!     Envelope::new("social", Request::similar(0, 3)),
//! ]);
//! assert!(answers.iter().all(Result::is_ok));
//! # if let Ok(Response::Classes(c)) = &answers[0] { assert_eq!(c.len(), 3); }
//! ```

pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod engine;
pub mod index;
pub mod metrics;
pub(crate) mod poller;
pub mod registry;
pub mod replicate;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod transport;
pub mod wal;
pub mod wire;

pub use client::Client;
pub use engine::{Engine, Envelope, GraphReport, Request, Response};
pub use index::{IvfIndex, SearchPolicy, ANN_MIN_SHARD_ROWS};
pub use metrics::{HistogramReport, MetricsReport, ReplicationReport, ReplicationRole};
pub use registry::{
    BackpressurePolicy, HistoryPolicy, Registry, RegistryConfig, Update, WriteSlot,
};
pub use replicate::{Follower, Promotion, ReplicationListener};
pub use server::{Server, ServerHandle};
pub use shard::ShardLayout;
pub use snapshot::{ShardBlock, Snapshot};
pub use transport::{duplex, DuplexTransport, TcpTransport, Transport};
pub use wal::{Durability, FaultPoint, SyncPolicy};
pub use wire::{ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// Errors a serving request can produce.
///
/// Every variant is part of the wire contract: it maps to a stable
/// numeric [`ErrorCode`] (its tag in [`codec`]), so remote clients get
/// the same typed failures as in-process callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No graph registered under this name.
    UnknownGraph { graph: String },
    /// A vertex id at or beyond the graph's vertex count.
    VertexOutOfRange { vertex: u32, num_vertices: usize },
    /// A class label at or beyond the registered `K`.
    ClassOutOfRange { class: u32, num_classes: usize },
    /// A count parameter (`k`, `top`, …) that must be >= 1 was 0.
    ZeroLimit { param: String },
    /// `Classify` against a graph whose train set is empty.
    NoLabeledVertices { graph: String },
    /// A numeric parameter that must be finite was NaN or infinite
    /// (e.g. an update weight — a NaN weight would poison every
    /// distance computation).
    NonFinite { param: String },
    /// A batch's encoded response exceeded the frame-size cap; resend as
    /// smaller batches. The request itself was valid — every result slot
    /// of the batch carries this error and the connection stays open.
    ResponseTooLarge { bytes: usize, max_bytes: usize },
    /// Handshake failure: no protocol version in the client's range is
    /// supported by the server.
    VersionUnsupported {
        client_min: u32,
        client_max: u32,
        server_min: u32,
        server_max: u32,
    },
    /// The peer violated the wire protocol (malformed frame, oversized
    /// frame, missing handshake, out-of-order response, …).
    Protocol { detail: String },
    /// The underlying transport failed (connection reset, closed pipe).
    Transport { detail: String },
    /// Durable state failed validation during recovery: a WAL segment or
    /// checkpoint with a checksum mismatch, an undecodable record,
    /// segments that do not tile the LSN space, or history that was
    /// retired without a covering checkpoint. Recovery refuses to guess —
    /// it reports exactly what is damaged and where.
    Corrupt { path: String, detail: String },
    /// Durable storage I/O failed (WAL append, fsync, checkpoint write,
    /// directory scan). With [`SyncPolicy::Always`] an update batch that
    /// returns this error was *not* committed.
    Storage { detail: String },
    /// An `at_epoch`-pinned read named an epoch outside the graph's
    /// retained history ring — either evicted (older than `oldest`) or
    /// not yet published (newer than `newest`). Retention is set by
    /// [`HistoryPolicy`]; re-issue without `at_epoch` for the newest
    /// state.
    EpochEvicted {
        graph: String,
        epoch: u64,
        oldest: u64,
        newest: u64,
    },
    /// An update batch was rejected by back-pressure: the graph already
    /// has [`BackpressurePolicy::max_pending_batches`] batches in
    /// flight. The batch was **not** applied (and not WAL-logged);
    /// retry later or batch coarser.
    Overloaded {
        graph: String,
        pending: usize,
        max_pending: usize,
    },
    /// A write (`ApplyUpdates`, `register`, `deregister`) was sent to a
    /// read-only replica. Replicas apply mutations only through the
    /// replication stream from their leader ([`replicate`]); direct
    /// writes must go to the leader named here.
    ReadOnlyReplica { graph: String, leader: String },
    /// The leader epoch (replication fencing token) `leader_epoch` is
    /// stale: a peer proved epoch `seen_epoch` (higher) exists. A
    /// deposed leader returns this for writes after it is fenced; a
    /// follower returns it to a deposed leader's replication stream
    /// before applying anything. See [`replicate`] on promotion.
    StaleLeader { leader_epoch: u64, seen_epoch: u64 },
}

impl ServeError {
    pub(crate) fn protocol(detail: impl Into<String>) -> ServeError {
        ServeError::Protocol {
            detail: detail.into(),
        }
    }

    pub(crate) fn transport(detail: impl Into<String>) -> ServeError {
        ServeError::Transport {
            detail: detail.into(),
        }
    }

    pub(crate) fn storage(detail: impl Into<String>) -> ServeError {
        ServeError::Storage {
            detail: detail.into(),
        }
    }

    /// The stable error code for this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::UnknownGraph { .. } => ErrorCode::UnknownGraph,
            ServeError::VertexOutOfRange { .. } => ErrorCode::VertexOutOfRange,
            ServeError::ClassOutOfRange { .. } => ErrorCode::ClassOutOfRange,
            ServeError::ZeroLimit { .. } => ErrorCode::ZeroLimit,
            ServeError::NoLabeledVertices { .. } => ErrorCode::NoLabeledVertices,
            ServeError::NonFinite { .. } => ErrorCode::NonFinite,
            ServeError::ResponseTooLarge { .. } => ErrorCode::ResponseTooLarge,
            ServeError::VersionUnsupported { .. } => ErrorCode::VersionUnsupported,
            ServeError::Protocol { .. } => ErrorCode::Protocol,
            ServeError::Transport { .. } => ErrorCode::Transport,
            ServeError::Corrupt { .. } => ErrorCode::Corrupt,
            ServeError::Storage { .. } => ErrorCode::Storage,
            ServeError::EpochEvicted { .. } => ErrorCode::EpochEvicted,
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::ReadOnlyReplica { .. } => ErrorCode::ReadOnlyReplica,
            ServeError::StaleLeader { .. } => ErrorCode::StaleLeader,
        }
    }
}

/// Stable numeric identifiers for [`ServeError`] variants — the wire
/// contract clients may branch on. Values are append-only: a code is
/// never renumbered or reused once a protocol version has shipped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    UnknownGraph,
    VertexOutOfRange,
    ClassOutOfRange,
    ZeroLimit,
    NoLabeledVertices,
    VersionUnsupported,
    Protocol,
    Transport,
    NonFinite,
    ResponseTooLarge,
    Corrupt,
    Storage,
    EpochEvicted,
    Overloaded,
    ReadOnlyReplica,
    StaleLeader,
}

impl ErrorCode {
    /// The stable numeric code.
    pub const fn as_u16(self) -> u16 {
        match self {
            ErrorCode::UnknownGraph => 1,
            ErrorCode::VertexOutOfRange => 2,
            ErrorCode::ClassOutOfRange => 3,
            ErrorCode::ZeroLimit => 4,
            ErrorCode::NoLabeledVertices => 5,
            ErrorCode::VersionUnsupported => 6,
            ErrorCode::Protocol => 7,
            ErrorCode::Transport => 8,
            ErrorCode::NonFinite => 9,
            ErrorCode::ResponseTooLarge => 10,
            ErrorCode::Corrupt => 11,
            ErrorCode::Storage => 12,
            ErrorCode::EpochEvicted => 13,
            ErrorCode::Overloaded => 14,
            ErrorCode::ReadOnlyReplica => 15,
            ErrorCode::StaleLeader => 16,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownGraph { graph } => write!(f, "unknown graph {graph:?}"),
            ServeError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (graph has {num_vertices} vertices)"
                )
            }
            ServeError::ClassOutOfRange { class, num_classes } => {
                write!(f, "class {class} out of range (graph has K={num_classes})")
            }
            ServeError::ZeroLimit { param } => {
                write!(f, "parameter {param:?} must be at least 1")
            }
            ServeError::NoLabeledVertices { graph } => {
                write!(
                    f,
                    "graph {graph:?} has no labeled vertices to classify against"
                )
            }
            ServeError::VersionUnsupported {
                client_min,
                client_max,
                server_min,
                server_max,
            } => {
                write!(
                    f,
                    "no common protocol version: client supports {client_min}..={client_max}, \
                     server supports {server_min}..={server_max}"
                )
            }
            ServeError::NonFinite { param } => {
                write!(
                    f,
                    "parameter {param:?} must be finite (got NaN or infinity)"
                )
            }
            ServeError::ResponseTooLarge { bytes, max_bytes } => {
                write!(
                    f,
                    "encoded response is {bytes} bytes (max {max_bytes}); resend as smaller batches"
                )
            }
            ServeError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            ServeError::Transport { detail } => write!(f, "transport failure: {detail}"),
            ServeError::Corrupt { path, detail } => {
                write!(f, "durable state corrupt at {path}: {detail}")
            }
            ServeError::Storage { detail } => write!(f, "durable storage failure: {detail}"),
            ServeError::EpochEvicted {
                graph,
                epoch,
                oldest,
                newest,
            } => {
                write!(
                    f,
                    "epoch {epoch} of graph {graph:?} is not retained \
                     (history holds {oldest}..={newest})"
                )
            }
            ServeError::Overloaded {
                graph,
                pending,
                max_pending,
            } => {
                write!(
                    f,
                    "graph {graph:?} is overloaded: {pending} update batch(es) already in \
                     flight (max {max_pending}); retry later"
                )
            }
            ServeError::ReadOnlyReplica { graph, leader } => {
                write!(
                    f,
                    "graph {graph:?} is served by a read-only replica; \
                     send writes to the leader at {leader}"
                )
            }
            ServeError::StaleLeader {
                leader_epoch,
                seen_epoch,
            } => {
                write!(
                    f,
                    "leader epoch {leader_epoch} is stale: a newer leader at \
                     epoch {seen_epoch} exists (this node is fenced)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_codes_are_stable() {
        // The wire contract: these numbers must never change.
        let expected: [(ErrorCode, u16); 16] = [
            (ErrorCode::UnknownGraph, 1),
            (ErrorCode::VertexOutOfRange, 2),
            (ErrorCode::ClassOutOfRange, 3),
            (ErrorCode::ZeroLimit, 4),
            (ErrorCode::NoLabeledVertices, 5),
            (ErrorCode::VersionUnsupported, 6),
            (ErrorCode::Protocol, 7),
            (ErrorCode::Transport, 8),
            (ErrorCode::NonFinite, 9),
            (ErrorCode::ResponseTooLarge, 10),
            (ErrorCode::Corrupt, 11),
            (ErrorCode::Storage, 12),
            (ErrorCode::EpochEvicted, 13),
            (ErrorCode::Overloaded, 14),
            (ErrorCode::ReadOnlyReplica, 15),
            (ErrorCode::StaleLeader, 16),
        ];
        for (code, n) in expected {
            assert_eq!(code.as_u16(), n, "{code:?}");
        }
    }

    #[test]
    fn every_error_maps_to_its_code() {
        let cases = [
            (
                ServeError::UnknownGraph { graph: "g".into() },
                ErrorCode::UnknownGraph,
            ),
            (
                ServeError::VertexOutOfRange {
                    vertex: 9,
                    num_vertices: 3,
                },
                ErrorCode::VertexOutOfRange,
            ),
            (
                ServeError::ClassOutOfRange {
                    class: 9,
                    num_classes: 3,
                },
                ErrorCode::ClassOutOfRange,
            ),
            (
                ServeError::ZeroLimit { param: "k".into() },
                ErrorCode::ZeroLimit,
            ),
            (
                ServeError::NoLabeledVertices { graph: "g".into() },
                ErrorCode::NoLabeledVertices,
            ),
            (
                ServeError::VersionUnsupported {
                    client_min: 2,
                    client_max: 3,
                    server_min: 1,
                    server_max: 1,
                },
                ErrorCode::VersionUnsupported,
            ),
            (ServeError::protocol("x"), ErrorCode::Protocol),
            (ServeError::transport("x"), ErrorCode::Transport),
            (
                ServeError::NonFinite { param: "w".into() },
                ErrorCode::NonFinite,
            ),
            (
                ServeError::ResponseTooLarge {
                    bytes: 99,
                    max_bytes: 9,
                },
                ErrorCode::ResponseTooLarge,
            ),
            (
                ServeError::Corrupt {
                    path: "wal-0.log".into(),
                    detail: "x".into(),
                },
                ErrorCode::Corrupt,
            ),
            (ServeError::storage("x"), ErrorCode::Storage),
            (
                ServeError::EpochEvicted {
                    graph: "g".into(),
                    epoch: 1,
                    oldest: 3,
                    newest: 7,
                },
                ErrorCode::EpochEvicted,
            ),
            (
                ServeError::Overloaded {
                    graph: "g".into(),
                    pending: 4,
                    max_pending: 4,
                },
                ErrorCode::Overloaded,
            ),
            (
                ServeError::ReadOnlyReplica {
                    graph: "g".into(),
                    leader: "10.0.0.1:7070".into(),
                },
                ErrorCode::ReadOnlyReplica,
            ),
            (
                ServeError::StaleLeader {
                    leader_epoch: 1,
                    seen_epoch: 2,
                },
                ErrorCode::StaleLeader,
            ),
        ];
        for (err, code) in cases {
            assert_eq!(err.code(), code, "{err}");
        }
    }
}
