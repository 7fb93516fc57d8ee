//! Multi-graph store: named graphs, their write state, and published
//! epoch snapshots — copy-on-write, history-bounded, back-pressured,
//! and optionally durable.
//!
//! Each registered graph owns
//!
//! * a **writer** — the [`DynamicGee`] accumulator, guarded by a `Mutex` so
//!   update batches serialize;
//! * a **published history** — a ring of `Arc<Snapshot>`s behind an
//!   `RwLock`, newest last. Publishing pushes the next epoch and evicts
//!   the oldest beyond [`HistoryPolicy::keep`]; readers that already
//!   cloned an `Arc` keep their consistent view regardless;
//! * a [`ShardLayout`] used for shard-parallel materialization and scans.
//!
//! # Copy-on-write publication
//!
//! [`Registry::apply_updates`] tracks which shards a batch dirties while
//! applying it (edge ops dirty their endpoints' shards; a label move
//! dirties every shard's rows — the class-count rescale touches whole
//! columns — but only one shard's labels), then publishes a snapshot
//! that rebuilds **only the dirty blocks** and structurally shares the
//! rest with the parent epoch. A single-shard edge batch on an S-shard
//! graph re-materializes 1/S of the embedding; the other `S - 1` blocks
//! are the parent's blocks, `Arc::ptr_eq`-identical. Blocks rebuilt for
//! rows alone additionally share the parent's labels slice and train
//! set, skipping the `group_by_shard` regrouping.
//!
//! # Back-pressure
//!
//! Update batches for one graph serialize on the writer lock. Under a
//! bounded [`BackpressurePolicy`], a batch that would exceed
//! `max_pending_batches` in-flight batches is rejected up front with a
//! typed [`ServeError::Overloaded`] instead of queueing unboundedly —
//! the caller retries, sheds load, or batches coarser.
//!
//! GEE's linearity is what makes all of this cheap: an update batch
//! costs O(1) per edge op and O(deg) per label move in the writer, and
//! publishing an epoch costs O(nK/S) per dirty shard — never a full
//! O(s) edge pass.
//!
//! # Durability
//!
//! A registry opened with [`Durability::Wal`] writes every mutation —
//! [`Registry::register`] (the full epoch-0 input), each
//! [`Registry::apply_updates`] batch, [`Registry::deregister`] — to a
//! write-ahead log ([`crate::wal`]) *before* mutating in-memory state;
//! the append (fsynced under [`SyncPolicy::Always`](crate::SyncPolicy::Always)) is the commit
//! point. Every `checkpoint_every` committed records (batches,
//! registrations, deregistrations) the full writer state is
//! checkpointed ([`crate::checkpoint`]) and fully-covered WAL segments
//! are retired. [`Registry::open`] recovers by loading the latest
//! checkpoint and replaying the WAL tail, arriving at writers and
//! snapshots **bit-identical** to the pre-crash process (same
//! floating-point accumulation order, same adjacency order, same
//! epochs) — `tests/durability.rs` proves it query-by-query. Replay
//! runs the same dirty-tracking apply loop as live traffic, but
//! materializes only the epochs the history ring still holds when
//! recovery returns: the last [`HistoryPolicy::keep`] publishes of each
//! graph. For those *retained* epochs the recovered ring has the same
//! epochs, the same bits and the same per-shard sharing structure as the
//! uninterrupted process (given the same [`HistoryPolicy`]). Earlier
//! replayed epochs are applied to the writer and never materialized —
//! the first retained epoch is published over their union of dirty
//! shards — and, like epochs older than the replayed tail, answer
//! [`ServeError::EpochEvicted`]: history is in-memory, not logged.
//!
//! Durable mutations serialize on one log lock (WAL order must equal
//! apply order); reads never touch it. `queries_served` is a read-side
//! counter and intentionally resets on recovery; `updates_applied`
//! survives (it is recomputed by replay and carried by checkpoints).
//! A deregistered graph's durable lineage is dropped from the log at the
//! next checkpoint compaction; until then its records remain but replay
//! removes the graph, so re-registering the same name starts a fresh
//! epoch-0 lineage either way.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use gee_core::{DynamicGee, Labels};
use gee_graph::{Edge, EdgeList, VertexId, Weight};

use crate::checkpoint::{self, Checkpoint, GraphCheckpoint};
use crate::index::SearchPolicy;
use crate::metrics::{ReplicationReport, ReplicationRole, ServeMetrics};
use crate::replicate::ReplicationStatus;
use crate::shard::ShardLayout;
use crate::snapshot::{ShardBlock, Snapshot};
use crate::wal::{self, Durability, SyncPolicy, WalRecord, WalWriter};
use crate::ServeError;

/// One streaming graph/label mutation. Part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert edge `(u, v, w)` (one direction; symmetric graphs send both).
    InsertEdge { u: VertexId, v: VertexId, w: Weight },
    /// Remove one occurrence of edge `(u, v, w)`.
    RemoveEdge { u: VertexId, v: VertexId, w: Weight },
    /// Set (or clear) the label of `v`.
    SetLabel { v: VertexId, label: Option<u32> },
}

/// How many published epochs a graph retains for time-travel reads.
///
/// The newest epoch is always retained; `keep = 1` (the default) is the
/// classic latest-only behavior. With `keep = N`, reads pinned with
/// `at_epoch` succeed for the `N` most recent epochs and fail with a
/// typed [`ServeError::EpochEvicted`] beyond that. Memory cost is
/// bounded by CoW sharing: consecutive epochs share every block their
/// batch did not dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryPolicy {
    /// Number of epochs retained (clamped to at least 1).
    pub keep: usize,
}

impl HistoryPolicy {
    /// Retain the `keep` most recent epochs.
    pub fn keep(keep: usize) -> Self {
        HistoryPolicy { keep: keep.max(1) }
    }
}

impl Default for HistoryPolicy {
    fn default() -> Self {
        HistoryPolicy { keep: 1 }
    }
}

/// Bound on update batches in flight per graph (applying + queued on
/// the writer lock). A batch beyond the bound is rejected with
/// [`ServeError::Overloaded`] before it takes any lock. The default is
/// unbounded — today's queue-forever behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackpressurePolicy {
    /// Maximum batches in flight per graph.
    pub max_pending_batches: usize,
}

impl BackpressurePolicy {
    /// Reject the `(max + 1)`-th concurrent batch per graph.
    pub fn max_pending(max: usize) -> Self {
        BackpressurePolicy {
            max_pending_batches: max.max(1),
        }
    }

    /// No bound (the default).
    pub fn unbounded() -> Self {
        BackpressurePolicy {
            max_pending_batches: usize::MAX,
        }
    }
}

impl Default for BackpressurePolicy {
    fn default() -> Self {
        BackpressurePolicy::unbounded()
    }
}

/// Everything [`Registry::with_config`] needs: sharding, history,
/// back-pressure, and durability in one place.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Shards per graph unless overridden at registration.
    pub default_shards: usize,
    /// Epoch retention for time-travel reads.
    pub history: HistoryPolicy,
    /// Bound on in-flight update batches per graph.
    pub backpressure: BackpressurePolicy,
    /// WAL + checkpoint persistence.
    pub durability: Durability,
    /// Default search policy for `Similar`/`Classify` reads. Individual
    /// requests may override it; [`SearchPolicy::Exact`] (the default)
    /// keeps pre-index behavior bit-identical.
    pub search: SearchPolicy,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            default_shards: 4,
            history: HistoryPolicy::default(),
            backpressure: BackpressurePolicy::default(),
            durability: Durability::None,
            search: SearchPolicy::Exact,
        }
    }
}

/// Per-graph serving state.
pub(crate) struct Entry {
    pub(crate) layout: ShardLayout,
    /// Shard count as requested at registration (the layout clamps it;
    /// checkpoints persist the request so restore re-clamps identically).
    requested_shards: u32,
    writer: Mutex<DynamicGee>,
    /// Published epochs, oldest first, newest (the published epoch) last.
    history: RwLock<VecDeque<Arc<Snapshot>>>,
    keep: usize,
    /// Update batches currently inside `apply_updates` (the
    /// back-pressure gauge).
    pending: AtomicU64,
    max_pending: u64,
    pub(crate) queries_served: AtomicU64,
    pub(crate) updates_applied: AtomicU64,
}

impl Entry {
    /// The currently published snapshot (cheap `Arc` clone).
    pub(crate) fn snapshot(&self) -> Arc<Snapshot> {
        self.history
            .read()
            .expect("history lock poisoned")
            .back()
            .expect("history is never empty")
            .clone()
    }

    /// Retained epochs in the history ring right now (the
    /// `history_depth` metric; at most [`HistoryPolicy::keep`]).
    pub(crate) fn history_depth(&self) -> usize {
        self.history.read().expect("history lock poisoned").len()
    }

    /// The retained epoch range `(oldest, newest)`.
    pub(crate) fn epoch_range(&self) -> (u64, u64) {
        let ring = self.history.read().expect("history lock poisoned");
        (
            ring.front().expect("history is never empty").epoch,
            ring.back().expect("history is never empty").epoch,
        )
    }

    /// The retained snapshot at `epoch`, or [`ServeError::EpochEvicted`]
    /// naming the retained range.
    pub(crate) fn snapshot_at(&self, graph: &str, epoch: u64) -> Result<Arc<Snapshot>, ServeError> {
        let ring = self.history.read().expect("history lock poisoned");
        let oldest = ring.front().expect("history is never empty").epoch;
        // Epochs are consecutive, so the ring is indexable — but bound
        // the u64 offset before the usize cast, or a wire-supplied epoch
        // could wrap on 32-bit targets and silently hit the wrong slot.
        if epoch >= oldest && epoch - oldest < ring.len() as u64 {
            let snap = &ring[(epoch - oldest) as usize];
            debug_assert_eq!(snap.epoch, epoch);
            return Ok(snap.clone());
        }
        Err(ServeError::EpochEvicted {
            graph: graph.to_string(),
            epoch,
            oldest,
            newest: ring.back().expect("history is never empty").epoch,
        })
    }

    /// Resolve `at_epoch`: `None` → the published snapshot.
    pub(crate) fn snapshot_sel(
        &self,
        graph: &str,
        at_epoch: Option<u64>,
    ) -> Result<Arc<Snapshot>, ServeError> {
        match at_epoch {
            None => Ok(self.snapshot()),
            Some(epoch) => self.snapshot_at(graph, epoch),
        }
    }

    /// Publish the epoch `skipped + 1` past the published one,
    /// copy-on-write over it (rebuilding the blocks `dirty` names), and
    /// evict beyond the retention bound. Live writes pass `skipped = 0`.
    /// Recovery passes the count of replayed epochs it applied without
    /// materializing, with `dirty` their union: those epochs, and every
    /// one the ring still holds, are evicted by definition, so the ring
    /// restarts at the new epoch.
    fn publish_next(&self, writer: &DynamicGee, dirty: &Dirty, skipped: u64) -> Arc<Snapshot> {
        let parent = self.snapshot();
        let snapshot = Arc::new(publish_cow(
            writer,
            &self.layout,
            parent.epoch + skipped + 1,
            &parent,
            dirty,
        ));
        let mut ring = self.history.write().expect("history lock poisoned");
        if skipped > 0 {
            ring.clear();
        }
        debug_assert!(ring.back().is_none_or(|b| b.epoch + 1 == snapshot.epoch));
        ring.push_back(snapshot.clone());
        while ring.len() > self.keep {
            ring.pop_front();
        }
        snapshot
    }
}

/// A held write slot, counting against
/// [`BackpressurePolicy::max_pending_batches`] until dropped. Returned
/// by [`Registry::hold_write_slot`]; also used internally by every
/// `apply_updates`.
pub struct WriteSlot {
    entry: Arc<Entry>,
}

impl WriteSlot {
    /// Reserve a slot or fail with [`ServeError::Overloaded`].
    fn acquire(graph: &str, entry: Arc<Entry>) -> Result<WriteSlot, ServeError> {
        let prev = entry.pending.fetch_add(1, Ordering::AcqRel);
        if prev >= entry.max_pending {
            entry.pending.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Overloaded {
                graph: graph.to_string(),
                pending: prev as usize,
                max_pending: entry.max_pending as usize,
            });
        }
        Ok(WriteSlot { entry })
    }
}

impl Drop for WriteSlot {
    fn drop(&mut self) {
        self.entry.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The durable half of a registry: the WAL writer plus checkpoint
/// cadence. One lock serializes all durable mutations so WAL order is
/// apply order.
struct DurableLog {
    writer: WalWriter,
    dir: PathBuf,
    checkpoint_every: u64,
    records_since_checkpoint: u64,
    /// Held for the life of the registry; releases the data-dir lock
    /// file on drop.
    _lock: wal::DirLock,
}

impl DurableLog {
    /// Snapshot every graph's writer state and write a checkpoint at the
    /// current WAL position, then rotate the log and retire covered
    /// segments and older checkpoints. Caller holds the log lock, so no
    /// durable mutation can interleave.
    fn take_checkpoint(
        &mut self,
        entries: &HashMap<String, Arc<Entry>>,
        leader_epoch: u64,
    ) -> Result<u64, ServeError> {
        let lsn = self.writer.next_lsn();
        let mut graphs: Vec<GraphCheckpoint> = entries
            .iter()
            .map(|(name, entry)| {
                let writer = entry.writer.lock().expect("writer lock poisoned");
                GraphCheckpoint {
                    name: name.clone(),
                    shards: entry.requested_shards,
                    epoch: entry.snapshot().epoch,
                    updates_applied: entry.updates_applied.load(Ordering::Relaxed),
                    state: writer.export_state(),
                }
            })
            .collect();
        graphs.sort_by(|a, b| a.name.cmp(&b.name));
        checkpoint::save(
            &self.dir,
            &Checkpoint {
                lsn,
                leader_epoch,
                graphs,
            },
        )?;
        self.writer.rotate()?;
        checkpoint::retire_older_than(&self.dir, lsn)?;
        self.records_since_checkpoint = 0;
        Ok(lsn)
    }
}

/// Group-commit coordination for [`SyncPolicy::Group`]: writers whose
/// record is appended (and applied) but not yet fsynced wait here. One
/// waiter at a time elects itself **leader**: it collects arrivals for
/// the window, takes the log lock, issues a single
/// [`WalWriter::sync`](crate::wal::WalWriter::sync) covering every LSN
/// assigned so far, and wakes everyone whose LSN the sync covered.
/// Writers arriving while a sync is in flight queue for the next round,
/// so even a zero-length window coalesces under concurrency.
struct GroupCommit {
    window: Duration,
    state: Mutex<GroupState>,
    cv: Condvar,
}

struct GroupState {
    /// Every record with `lsn < durable_lsn` is known fsynced (or
    /// covered by a durable checkpoint taken at segment rotation).
    durable_lsn: u64,
    /// A leader is currently collecting arrivals or syncing.
    sync_running: bool,
}

impl GroupCommit {
    fn new(window: Duration) -> GroupCommit {
        GroupCommit {
            window,
            state: Mutex::new(GroupState {
                durable_lsn: 0,
                sync_running: false,
            }),
            cv: Condvar::new(),
        }
    }
}

/// Owner of all served graphs.
pub struct Registry {
    entries: RwLock<HashMap<String, Arc<Entry>>>,
    default_shards: usize,
    history: HistoryPolicy,
    backpressure: BackpressurePolicy,
    search: SearchPolicy,
    durable: Option<Mutex<DurableLog>>,
    /// `Some` when the WAL runs under [`SyncPolicy::Group`]: the shared
    /// fsync coordination durable writers wait on after releasing the
    /// log lock.
    group: Option<GroupCommit>,
    /// `Some` on a read-only replica: the public write entry points are
    /// rejected with [`ServeError::ReadOnlyReplica`] and only the
    /// replication pull loop mutates (via [`Registry::apply_replicated`]
    /// / [`Registry::install_bootstrap`]). See [`crate::replicate`].
    /// Behind a lock so [`Follower::promote`](crate::Follower::promote)
    /// can atomically flip the registry out of replica mode.
    replica: RwLock<Option<Arc<ReplicationStatus>>>,
    /// The leader epoch (replication fencing token) this node serves or
    /// replicates under — the highest value it has durably recorded.
    /// Recovered from the `leader-epoch` file / checkpoint on open;
    /// `0` on an in-memory registry or a node that never led/followed.
    leader_epoch: AtomicU64,
    /// Non-zero once a replication peer proved a newer leader epoch
    /// exists: this deposed leader refuses writes with
    /// [`ServeError::StaleLeader`] and ends follower connections.
    fenced_by: AtomicU64,
    /// Registry-wide observability counters (see [`crate::metrics`]).
    metrics: ServeMetrics,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("graphs", &self.graph_names())
            .field("default_shards", &self.default_shards)
            .field("history", &self.history)
            .field("backpressure", &self.backpressure)
            .field("search", &self.search)
            .field("durable", &self.durable.is_some())
            .field("replica", &self.is_replica())
            .field("leader_epoch", &self.leader_epoch.load(Ordering::Acquire))
            .finish()
    }
}

impl Registry {
    /// An in-memory registry whose graphs default to `default_shards`
    /// shards, with default history (latest epoch only) and no
    /// back-pressure bound.
    pub fn new(default_shards: usize) -> Self {
        Self::with_config(RegistryConfig {
            default_shards,
            ..RegistryConfig::default()
        })
        .expect("an in-memory registry cannot fail to open")
    }

    /// Open a registry under the given durability policy with default
    /// history and back-pressure. See [`Registry::with_config`].
    pub fn open(default_shards: usize, durability: Durability) -> Result<Self, ServeError> {
        Self::with_config(RegistryConfig {
            default_shards,
            durability,
            ..RegistryConfig::default()
        })
    }

    /// Open a registry under a full [`RegistryConfig`]. With
    /// [`Durability::Wal`] this **recovers**: the data directory is
    /// created if missing, the latest valid checkpoint is loaded, the
    /// WAL tail is replayed on top (a torn final record — a crash
    /// mid-append — is truncated away), and the registry resumes exactly
    /// where the last committed batch left it. Damaged durable state
    /// (checksum mismatches, non-tiling segments, retired history)
    /// surfaces as [`ServeError::Corrupt`]; it never panics and never
    /// silently serves a shortened history.
    pub fn with_config(config: RegistryConfig) -> Result<Self, ServeError> {
        Self::open_inner(config, None)
    }

    /// Open a **read-only replica** registry: same recovery as
    /// [`Registry::with_config`] (the config must be durable — a replica
    /// without its own WAL could not resume after a crash), plus two
    /// bootstrap crash-window repairs, with all public write entry
    /// points rejected as [`ServeError::ReadOnlyReplica`]. Used by
    /// [`crate::replicate::Follower`].
    pub(crate) fn open_replica(
        config: RegistryConfig,
        status: Arc<ReplicationStatus>,
    ) -> Result<Self, ServeError> {
        Self::open_inner(config, Some(status))
    }

    fn open_inner(
        config: RegistryConfig,
        replica: Option<Arc<ReplicationStatus>>,
    ) -> Result<Self, ServeError> {
        let RegistryConfig {
            default_shards,
            history,
            backpressure,
            durability,
            search,
        } = config;
        // Reject a nonsensical default search policy now, not on the
        // first read: a server that starts cleanly and then fails every
        // Classify/Similar with ZeroLimit — naming a parameter the
        // client never sent — is a misconfiguration, not a query error.
        search.validate()?;
        let history = HistoryPolicy::keep(history.keep);
        let Durability::Wal {
            dir,
            sync,
            checkpoint_every,
        } = durability
        else {
            assert!(
                replica.is_none(),
                "a replica registry must be durable (its WAL is the resume point)"
            );
            return Ok(Registry {
                entries: RwLock::new(HashMap::new()),
                default_shards: default_shards.max(1),
                history,
                backpressure,
                search,
                durable: None,
                group: None,
                replica: RwLock::new(None),
                leader_epoch: AtomicU64::new(0),
                fenced_by: AtomicU64::new(0),
                metrics: ServeMetrics::new(),
            });
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::storage(format!("creating {}: {e}", dir.display())))?;
        // One process at a time: concurrent writers would interleave
        // frames in the same segment and destroy the log.
        let lock = wal::DirLock::acquire(&dir)?;
        // A crash between a checkpoint's temp write and its rename can
        // orphan a state-sized *.tmp file; nothing else ever reads one.
        checkpoint::sweep_orphaned_temps(&dir)?;
        let loaded = checkpoint::load_latest(&dir)?;
        let min_lsn = loaded.as_ref().map_or(0, |(c, _)| c.lsn);
        // The leader epoch (fencing token) is persisted in two places —
        // a dedicated `leader-epoch` file and the checkpoint payload.
        // Either may lag the other across a crash (the file is written
        // first on promotion; the checkpoint stamps it lazily), so
        // recovery takes the max.
        let leader_epoch =
            wal::load_leader_epoch(&dir)?.max(loaded.as_ref().map_or(0, |(c, _)| c.leader_epoch));
        // Replica bootstrap crash window #1: a follower installing a
        // shipped checkpoint wipes its superseded log *before* creating
        // the fresh segment ([`WalWriter::reset_to`]); a crash in
        // between leaves a durable checkpoint and no segments at all.
        // The checkpoint is self-contained, so restart the log there.
        // Leaders keep the strict behavior — for them a segment-less
        // non-empty dir means someone deleted log history.
        let scan = if replica.is_some() && min_lsn > 0 && wal::segment_paths(&dir)?.is_empty() {
            wal::LogScan {
                records: Vec::new(),
                next_lsn: min_lsn,
                last_segment_start: None,
                truncated_bytes: 0,
            }
        } else {
            wal::scan(&dir, min_lsn)?
        };
        let mut entries: HashMap<String, Arc<Entry>> = HashMap::new();
        if let Some((ckpt, path)) = loaded {
            for g in ckpt.graphs {
                let writer =
                    DynamicGee::from_state(g.state).map_err(|detail| ServeError::Corrupt {
                        path: path.display().to_string(),
                        detail: format!("graph {:?}: {detail}", g.name),
                    })?;
                entries.insert(
                    g.name,
                    Arc::new(make_entry(
                        writer,
                        g.shards,
                        g.epoch,
                        g.updates_applied,
                        history,
                        backpressure,
                    )),
                );
            }
        }
        // Materialize only the epochs the ring will still hold: the rest
        // are applied to the writers and evicted before anyone could
        // read them.
        let plan = retention_plan(&scan.records, min_lsn, history.keep);
        let mut deferred = HashMap::new();
        for ((lsn, record), publish) in scan.records.iter().zip(plan) {
            if *lsn < min_lsn {
                continue;
            }
            replay(
                &mut entries,
                &mut deferred,
                record,
                publish,
                history,
                backpressure,
            )
            .map_err(|detail| ServeError::Corrupt {
                path: dir.display().to_string(),
                detail: format!("replaying lsn {lsn}: {detail}"),
            })?;
        }
        debug_assert!(
            deferred.is_empty(),
            "every live graph's last replayed record is retained"
        );
        let mut writer = WalWriter::open(&dir, sync, &scan)?;
        // Replica bootstrap crash window #2: the shipped checkpoint hit
        // disk but the log reset did not finish — the surviving log is
        // the follower's superseded pre-bootstrap history, ending before
        // the checkpoint's LSN. Finish the reset now (every record the
        // old log held is covered by the checkpoint). On a leader this
        // state is unreachable: its checkpoints are always taken at the
        // log head.
        if replica.is_some() && writer.next_lsn() < min_lsn {
            writer.reset_to(min_lsn)?;
        }
        let group = match sync {
            SyncPolicy::Group { window } => Some(GroupCommit::new(window)),
            SyncPolicy::Always | SyncPolicy::Never => None,
        };
        Ok(Registry {
            entries: RwLock::new(entries),
            default_shards: default_shards.max(1),
            history,
            backpressure,
            search,
            durable: Some(Mutex::new(DurableLog {
                writer,
                dir,
                checkpoint_every,
                records_since_checkpoint: 0,
                _lock: lock,
            })),
            group,
            replica: RwLock::new(replica),
            leader_epoch: AtomicU64::new(leader_epoch),
            fenced_by: AtomicU64::new(0),
            metrics: ServeMetrics::new(),
        })
    }

    /// The registry-wide observability counters (shared with the
    /// engine's request timing; snapshotted by `Request::Metrics`).
    pub(crate) fn serve_metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Data fsyncs the WAL writer has issued for appends since open —
    /// the `wal_fsyncs` metric. `0` on an in-memory
    /// registry (and under [`SyncPolicy::Never`](crate::SyncPolicy),
    /// which never syncs on the append path).
    pub fn wal_fsyncs(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.lock().expect("log lock poisoned").writer.fsyncs())
    }

    /// Whether this registry persists its state.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durable data directory, if any.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.durable
            .as_ref()
            .map(|d| d.lock().expect("log lock poisoned").dir.clone())
    }

    /// The configured epoch retention.
    pub fn history_policy(&self) -> HistoryPolicy {
        self.history
    }

    /// The configured back-pressure bound.
    pub fn backpressure_policy(&self) -> BackpressurePolicy {
        self.backpressure
    }

    /// The default search policy for `Similar`/`Classify` reads
    /// (requests may override it per query).
    pub fn search_policy(&self) -> SearchPolicy {
        self.search
    }

    /// Arm a WAL crash point for the crash-recovery harness: the next
    /// durable append writes a chosen prefix of its record, flushes it,
    /// and fails — the on-disk outcome of a process killed mid-append.
    /// No-op on an in-memory registry.
    pub fn inject_wal_fault(&self, fault: crate::wal::FaultPoint) {
        if let Some(durable) = &self.durable {
            durable
                .lock()
                .expect("log lock poisoned")
                .writer
                .inject_fault(fault);
        }
    }

    /// Force a checkpoint now (compacting the WAL). Returns the covered
    /// LSN, or `None` on an in-memory registry.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, ServeError> {
        let Some(durable) = &self.durable else {
            return Ok(None);
        };
        let mut log = durable.lock().expect("log lock poisoned");
        let entries = self.entries.read().expect("registry lock poisoned").clone();
        log.take_checkpoint(&entries, self.leader_epoch.load(Ordering::Acquire))
            .map(Some)
    }

    /// Register `name`, computing the epoch-0 embedding from the edge
    /// list and labels. Replaces any previous graph of the same name.
    /// On a durable registry the full input is WAL-logged (commit point)
    /// before the graph becomes visible; the only error source is that
    /// durable append.
    pub fn register(
        &self,
        name: &str,
        el: &EdgeList,
        labels: &Labels,
    ) -> Result<Arc<Snapshot>, ServeError> {
        self.register_with_shards(name, el, labels, self.default_shards)
    }

    /// [`Registry::register`] with an explicit shard count.
    pub fn register_with_shards(
        &self,
        name: &str,
        el: &EdgeList,
        labels: &Labels,
        shards: usize,
    ) -> Result<Arc<Snapshot>, ServeError> {
        self.check_writable(name)?;
        assert_eq!(
            el.num_vertices(),
            labels.len(),
            "labels must cover every vertex"
        );
        let log = self
            .durable
            .as_ref()
            .map(|d| d.lock().expect("log lock poisoned"));
        if let Some(mut log) = log {
            let lsn = log.writer.append(&WalRecord::Register {
                name: name.to_string(),
                shards: shards.min(u32::MAX as usize) as u32,
                num_vertices: el.num_vertices() as u64,
                num_classes: labels.num_classes() as u32,
                labels: labels.raw_slice().to_vec(),
                edges: el.edges().iter().map(|e| (e.u, e.v, e.w)).collect(),
            })?;
            let snapshot = self.register_in_memory(name, el, labels, shards);
            self.bump_and_maybe_checkpoint(&mut log)?;
            drop(log);
            self.group_commit_wait(lsn)?;
            Ok(snapshot)
        } else {
            Ok(self.register_in_memory(name, el, labels, shards))
        }
    }

    fn register_in_memory(
        &self,
        name: &str,
        el: &EdgeList,
        labels: &Labels,
        shards: usize,
    ) -> Arc<Snapshot> {
        let writer = DynamicGee::new(el, labels);
        let entry = Arc::new(make_entry(
            writer,
            shards.min(u32::MAX as usize) as u32,
            0,
            0,
            self.history,
            self.backpressure,
        ));
        let snapshot = entry.snapshot();
        self.entries
            .write()
            .expect("registry lock poisoned")
            .insert(name.to_string(), entry);
        snapshot
    }

    /// Drop a graph. Returns `Ok(false)` if it was not registered. On a
    /// durable registry the removal is WAL-logged, so recovery drops the
    /// graph too, and its durable lineage (Register/Batch records) is
    /// physically retired at the next checkpoint compaction.
    /// Re-registering the same name afterwards starts a fresh epoch-0
    /// lineage.
    pub fn deregister(&self, name: &str) -> Result<bool, ServeError> {
        self.check_writable(name)?;
        // The log lock must be held across the in-memory removal (as
        // register/apply_updates hold it across their mutations):
        // releasing it in between would let a concurrent durable write
        // log a Batch/Register *after* the Deregister record while the
        // graph is still visible, and replay of that order fails.
        let log = self
            .durable
            .as_ref()
            .map(|d| d.lock().expect("log lock poisoned"));
        if let Some(mut log) = log {
            let present = self
                .entries
                .read()
                .expect("registry lock poisoned")
                .contains_key(name);
            if !present {
                return Ok(false);
            }
            let lsn = log.writer.append(&WalRecord::Deregister {
                name: name.to_string(),
            })?;
            let removed = self
                .entries
                .write()
                .expect("registry lock poisoned")
                .remove(name)
                .is_some();
            self.bump_and_maybe_checkpoint(&mut log)?;
            drop(log);
            self.group_commit_wait(lsn)?;
            Ok(removed)
        } else {
            Ok(self
                .entries
                .write()
                .expect("registry lock poisoned")
                .remove(name)
                .is_some())
        }
    }

    /// Names of registered graphs, sorted.
    pub fn graph_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .read()
            .expect("registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    pub(crate) fn entry(&self, name: &str) -> Result<Arc<Entry>, ServeError> {
        self.entries
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownGraph {
                graph: name.to_string(),
            })
    }

    /// The published snapshot of `name`.
    pub fn snapshot(&self, name: &str) -> Result<Arc<Snapshot>, ServeError> {
        Ok(self.entry(name)?.snapshot())
    }

    /// The retained snapshot of `name` at `epoch`
    /// ([`ServeError::EpochEvicted`] when the history ring has dropped
    /// it — or not yet published it).
    pub fn snapshot_at(&self, name: &str, epoch: u64) -> Result<Arc<Snapshot>, ServeError> {
        self.entry(name)?.snapshot_at(name, epoch)
    }

    /// The retained epoch range `(oldest, newest)` of `name`.
    pub fn epoch_range(&self, name: &str) -> Result<(u64, u64), ServeError> {
        Ok(self.entry(name)?.epoch_range())
    }

    /// Update batches currently in flight for `name` (the back-pressure
    /// gauge; includes held [`WriteSlot`]s).
    pub fn pending_batches(&self, name: &str) -> Result<u64, ServeError> {
        Ok(self.entry(name)?.pending.load(Ordering::Acquire))
    }

    /// Reserve one of `name`'s write slots without applying anything —
    /// a write fence: while held, it counts against
    /// [`BackpressurePolicy::max_pending_batches`], so with
    /// `max_pending_batches = 1` all concurrent `apply_updates` calls
    /// are rejected with [`ServeError::Overloaded`] until the slot
    /// drops. Useful to quiesce writes around maintenance (and to test
    /// back-pressure deterministically).
    pub fn hold_write_slot(&self, name: &str) -> Result<WriteSlot, ServeError> {
        let entry = self.entry(name)?;
        self.acquire_write_slot(name, entry)
    }

    /// [`WriteSlot::acquire`] with the rejection counted toward the
    /// `overloaded` metric (every acquisition path goes through here so
    /// the counter misses nothing).
    fn acquire_write_slot(&self, graph: &str, entry: Arc<Entry>) -> Result<WriteSlot, ServeError> {
        let slot = WriteSlot::acquire(graph, entry);
        if slot.is_err() {
            self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// Apply an update batch through the writer and publish the next
    /// epoch copy-on-write. The whole batch becomes visible atomically:
    /// readers see either the old epoch or the new one, never a
    /// half-applied state.
    ///
    /// Returns `(applied, snapshot)`; `applied` counts updates that took
    /// effect (`RemoveEdge` of a missing edge is a no-op and doesn't
    /// count). An empty batch is a no-op: it returns the currently
    /// published snapshot without publishing a new epoch (and writes
    /// nothing to the WAL).
    ///
    /// Under a bounded [`BackpressurePolicy`], a batch that would exceed
    /// the in-flight bound fails fast with [`ServeError::Overloaded`]
    /// — checked before any lock is taken, so an overloaded graph
    /// rejects instead of queueing.
    ///
    /// On a durable registry the batch is validated, WAL-appended
    /// (fsynced under [`SyncPolicy::Always`](crate::SyncPolicy::Always) — the commit point), then
    /// applied; a [`ServeError::Storage`] means the batch did **not**
    /// commit. If the automatic post-commit checkpoint fails, its
    /// `Storage` error is returned even though the batch itself is
    /// durable and applied — the next successful batch retries the
    /// checkpoint.
    pub fn apply_updates(
        &self,
        name: &str,
        updates: &[Update],
    ) -> Result<(usize, Arc<Snapshot>), ServeError> {
        self.check_writable(name)?;
        // Back-pressure gate, before any lock: an overloaded graph
        // rejects immediately rather than joining the queue on the
        // writer/log locks.
        let gate = self.entry(name)?;
        if updates.is_empty() {
            return Ok((0, gate.snapshot()));
        }
        let mut slot = self.acquire_write_slot(name, gate)?;
        // On a durable registry the entry must be resolved *under* the
        // log lock: resolving first would let a concurrent deregister or
        // re-register commit its record between our lookup and our
        // append, making the WAL order diverge from the apply order (a
        // Batch after a Deregister fails replay).
        let log = self
            .durable
            .as_ref()
            .map(|d| d.lock().expect("log lock poisoned"));
        let entry = self.entry(name)?;
        // The graph may have been deregistered and re-registered between
        // the gate and here; re-home the slot so the bound (and the
        // pending gauge) applies to the entry this batch actually writes.
        if !Arc::ptr_eq(&slot.entry, &entry) {
            slot = self.acquire_write_slot(name, entry.clone())?;
        }
        let _slot = slot;
        let mut writer = entry.writer.lock().expect("writer lock poisoned");
        validate_batch(&writer, updates)?;
        if let Some(mut log) = log {
            let lsn = log.writer.append(&WalRecord::Batch {
                name: name.to_string(),
                updates: updates.to_vec(),
            })?;
            let result = apply_batch(&entry, &mut writer, updates);
            drop(writer);
            self.bump_and_maybe_checkpoint(&mut log)?;
            // Group commit waits with every lock released, so other
            // writers append (and share the next fsync) meanwhile.
            drop(log);
            self.group_commit_wait(lsn)?;
            Ok(result)
        } else {
            Ok(apply_batch(&entry, &mut writer, updates))
        }
    }

    /// Block until an fsync covers `lsn` (no-op unless the WAL runs
    /// under [`SyncPolicy::Group`]). Called *after* the log lock is
    /// released: the appended record is already applied and visible, and
    /// the caller is only waiting for durability. The first waiter to
    /// find no sync in flight becomes leader — it sleeps out the window
    /// (collecting concurrent arrivals), samples the tail under the log
    /// lock, fsyncs it once with the lock *released* (appends overlap
    /// the disk wait and join the next sync), and wakes everyone. LSNs
    /// below the sampled
    /// high water that live in retired segments were covered by the
    /// durable checkpoint taken at rotation, so `durable_lsn = high` is
    /// sound across compaction.
    fn group_commit_wait(&self, lsn: u64) -> Result<(), ServeError> {
        let (Some(group), Some(durable)) = (&self.group, &self.durable) else {
            return Ok(());
        };
        let mut state = group.state.lock().expect("group-commit lock poisoned");
        loop {
            if state.durable_lsn > lsn {
                return Ok(());
            }
            if state.sync_running {
                state = group.cv.wait(state).expect("group-commit lock poisoned");
                continue;
            }
            state.sync_running = true;
            drop(state);
            if !group.window.is_zero() {
                std::thread::sleep(group.window);
            }
            // Sample the high water and dup the tail handle under the
            // log lock, but run the fsync with the lock released:
            // writers append (and join the next window) while the disk
            // works, which is where group commit's scaling comes from.
            let synced = {
                let mut log = durable.lock().expect("log lock poisoned");
                log.writer.begin_group_sync()
            }
            .and_then(|(high, file)| {
                file.sync_data()
                    .map(|()| high)
                    .map_err(|e| ServeError::storage(format!("syncing WAL: {e}")))
            });
            state = group.state.lock().expect("group-commit lock poisoned");
            state.sync_running = false;
            group.cv.notify_all();
            match synced {
                // `high > lsn` always holds — our own append preceded
                // the sample — so the next loop turn returns Ok.
                Ok(high) => state.durable_lsn = state.durable_lsn.max(high),
                // The leader surfaces its own error; woken waiters
                // re-elect and surface theirs.
                Err(e) => return Err(e),
            }
        }
    }

    /// Count one committed record toward the checkpoint cadence and
    /// compact when it is reached. Caller holds the log lock.
    fn bump_and_maybe_checkpoint(&self, log: &mut DurableLog) -> Result<(), ServeError> {
        log.records_since_checkpoint += 1;
        if log.checkpoint_every > 0 && log.records_since_checkpoint >= log.checkpoint_every {
            let entries = self.entries.read().expect("registry lock poisoned").clone();
            log.take_checkpoint(&entries, self.leader_epoch.load(Ordering::Acquire))?;
        }
        Ok(())
    }

    /// Reject the public durable write entry points on a read-only
    /// replica (only the replication pull loop may mutate, or WAL order
    /// would diverge from the leader's) and on a fenced deposed leader
    /// (a newer leader epoch exists; accepting the write would fork
    /// history — the split brain fencing exists to prevent).
    fn check_writable(&self, graph: &str) -> Result<(), ServeError> {
        if let Some(status) = &*self.replica.read().expect("replica lock poisoned") {
            return Err(ServeError::ReadOnlyReplica {
                graph: graph.to_string(),
                leader: status.leader().to_string(),
            });
        }
        if let Some(seen) = self.fenced_by() {
            return Err(ServeError::StaleLeader {
                leader_epoch: self.leader_epoch.load(Ordering::Acquire),
                seen_epoch: seen,
            });
        }
        Ok(())
    }

    /// Apply one record shipped by the leader: durably append it at
    /// exactly the expected LSN, then run it through the same `replay`
    /// path recovery uses — but publishing every record, through the
    /// live entries map, so followers materialize each of the leader's
    /// epochs with identical dirty-tracking structure
    /// (fingerprint-identical snapshots, epoch by epoch). The follower
    /// takes its own checkpoints on its own cadence, exactly like a
    /// leader applying live traffic.
    pub(crate) fn apply_replicated(&self, lsn: u64, record: &WalRecord) -> Result<(), ServeError> {
        let durable = self
            .durable
            .as_ref()
            .expect("replica registries are always durable");
        let mut log = durable.lock().expect("log lock poisoned");
        let next = log.writer.next_lsn();
        if lsn != next {
            return Err(ServeError::Corrupt {
                path: log.dir.display().to_string(),
                detail: format!("replication stream sent lsn {lsn}, local log expects {next}"),
            });
        }
        log.writer.append(record)?;
        {
            let mut entries = self.entries.write().expect("registry lock poisoned");
            replay(
                &mut entries,
                &mut HashMap::new(),
                record,
                true,
                self.history,
                self.backpressure,
            )
            .map_err(|detail| ServeError::Corrupt {
                path: log.dir.display().to_string(),
                detail: format!("applying replicated lsn {lsn}: {detail}"),
            })?;
        }
        self.bump_and_maybe_checkpoint(&mut log)?;
        // A follower configured with `SyncPolicy::Group` coalesces its
        // fsyncs too; its pull loop is sequential, so this just bounds
        // durability lag to the window.
        drop(log);
        self.group_commit_wait(lsn)
    }

    /// Install a leader-shipped bootstrap checkpoint, replacing all
    /// local state: the follower's log is behind the leader's compaction
    /// horizon, so its own history is unreachable from the stream.
    /// Durable-first ordering — the checkpoint hits disk before the
    /// local log is reset to its LSN — so every crash window recovers to
    /// the checkpoint (see the replica repairs in `open_inner`).
    pub(crate) fn install_bootstrap(&self, mut ckpt: Checkpoint) -> Result<(), ServeError> {
        let durable = self
            .durable
            .as_ref()
            .expect("replica registries are always durable");
        let mut log = durable.lock().expect("log lock poisoned");
        let lsn = ckpt.lsn;
        // Never let a shipped checkpoint roll the locally-seen leader
        // epoch backward: the fencing token is monotone per data dir.
        ckpt.leader_epoch = ckpt
            .leader_epoch
            .max(self.leader_epoch.load(Ordering::Acquire));
        checkpoint::save(&log.dir, &ckpt)?;
        let mut entries: HashMap<String, Arc<Entry>> = HashMap::new();
        for g in ckpt.graphs {
            let writer = DynamicGee::from_state(g.state).map_err(|detail| ServeError::Corrupt {
                path: format!("bootstrap checkpoint at lsn {lsn}"),
                detail: format!("graph {:?}: {detail}", g.name),
            })?;
            entries.insert(
                g.name,
                Arc::new(make_entry(
                    writer,
                    g.shards,
                    g.epoch,
                    g.updates_applied,
                    self.history,
                    self.backpressure,
                )),
            );
        }
        log.writer.reset_to(lsn)?;
        checkpoint::retire_older_than(&log.dir, lsn)?;
        log.records_since_checkpoint = 0;
        *self.entries.write().expect("registry lock poisoned") = entries;
        Ok(())
    }

    /// The WAL high-water mark — the LSN the next durable record will
    /// be assigned (also a follower's resume point). `None` on an
    /// in-memory registry.
    pub fn wal_high_water(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|d| d.lock().expect("log lock poisoned").writer.next_lsn())
    }

    /// The LSN covered by the latest on-disk checkpoint — the stream
    /// floor a leader can serve without a bootstrap. `None` on an
    /// in-memory registry or before the first checkpoint.
    pub fn latest_checkpoint_lsn(&self) -> Result<Option<u64>, ServeError> {
        let Some(dir) = self.data_dir() else {
            return Ok(None);
        };
        Ok(checkpoint::checkpoint_paths(&dir)?
            .pop()
            .map(|(lsn, _)| lsn))
    }

    /// Published epoch of every graph, sorted by name (the leader's
    /// heartbeat payload; what follower lag is measured against).
    pub fn published_epochs(&self) -> Vec<(String, u64)> {
        let entries = self.entries.read().expect("registry lock poisoned");
        let mut epochs: Vec<(String, u64)> = entries
            .iter()
            .map(|(name, entry)| (name.clone(), entry.snapshot().epoch))
            .collect();
        drop(entries);
        epochs.sort();
        epochs
    }

    /// Whether this registry is a read-only replica.
    pub fn is_replica(&self) -> bool {
        self.replica
            .read()
            .expect("replica lock poisoned")
            .is_some()
    }

    /// The leader epoch (replication fencing token) this registry has
    /// durably recorded: the epoch it serves writes under (leader) or
    /// replicates under (follower). `0` until the data dir has ever led
    /// or followed a promoted leader.
    pub fn leader_epoch(&self) -> u64 {
        self.leader_epoch.load(Ordering::Acquire)
    }

    /// `Some(epoch)` once a replication peer proved a leader epoch newer
    /// than [`Registry::leader_epoch`] exists — this deposed leader is
    /// **fenced**: writes fail with [`ServeError::StaleLeader`] and its
    /// follower connections are ended.
    pub fn fenced_by(&self) -> Option<u64> {
        match self.fenced_by.load(Ordering::Acquire) {
            0 => None,
            epoch => Some(epoch),
        }
    }

    /// Fence this registry: a peer proved `epoch` (newer than ours) is
    /// live. Monotone — a later, even newer epoch wins; an older or
    /// equal call is a no-op.
    pub(crate) fn fence(&self, epoch: u64) {
        self.fenced_by.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Durably record a leader epoch observed on the replication stream
    /// (no-op unless it is newer than the highest seen). Persists the
    /// `leader-epoch` file before publishing, so a crash cannot forget
    /// an epoch this follower already accepted records under.
    pub(crate) fn note_leader_epoch(&self, epoch: u64) -> Result<(), ServeError> {
        if epoch <= self.leader_epoch.load(Ordering::Acquire) {
            return Ok(());
        }
        let durable = self
            .durable
            .as_ref()
            .expect("replicating registries are always durable");
        let log = durable.lock().expect("log lock poisoned");
        wal::save_leader_epoch(&log.dir, epoch)?;
        self.leader_epoch.fetch_max(epoch, Ordering::AcqRel);
        Ok(())
    }

    /// Promote this registry to leader of a new epoch: durably bump the
    /// fencing token past every epoch this node has seen, then flip out
    /// of replica mode so writes start passing. Returns the new epoch.
    /// Usually reached via [`Follower::promote`](crate::Follower::promote)
    /// (which stops the pull loop first); also valid on a registry
    /// re-opened from a stopped follower's data dir (`gee promote`).
    /// Requires a durable registry.
    pub fn promote_to_leader(&self) -> Result<u64, ServeError> {
        let durable = self.durable.as_ref().ok_or_else(|| {
            ServeError::storage("promotion requires a durable registry (Durability::Wal)")
        })?;
        let log = durable.lock().expect("log lock poisoned");
        let epoch = self.leader_epoch.load(Ordering::Acquire) + 1;
        wal::save_leader_epoch(&log.dir, epoch)?;
        self.leader_epoch.store(epoch, Ordering::Release);
        drop(log);
        *self.replica.write().expect("replica lock poisoned") = None;
        // A fence by an older epoch is superseded by our own promotion.
        if self.fenced_by.load(Ordering::Acquire) < epoch {
            self.fenced_by.store(0, Ordering::Release);
        }
        Ok(epoch)
    }

    /// The `replication` block carried by `Stats` and
    /// `Metrics`, or `None` when this registry neither leads nor
    /// follows. Both endpoints call this, so they never disagree at
    /// quiescence.
    pub fn replication_report(&self) -> Option<ReplicationReport> {
        let leader_epoch = self.leader_epoch.load(Ordering::Acquire);
        if let Some(status) = &*self.replica.read().expect("replica lock poisoned") {
            let last_durable_lsn = self.wal_high_water().unwrap_or(0);
            let leader_next = status.leader_next_lsn();
            let leader_epochs = status.leader_epochs();
            let entries = self.entries.read().expect("registry lock poisoned");
            let mut lag_epochs = 0u64;
            for (name, leader_epoch) in &leader_epochs {
                let local = entries.get(name).map_or(0, |e| e.snapshot().epoch);
                lag_epochs = lag_epochs.max(leader_epoch.saturating_sub(local));
            }
            Some(ReplicationReport {
                role: ReplicationRole::Follower,
                connected: status.is_connected(),
                shipped_records: 0,
                shipped_bytes: 0,
                follower_conns: 0,
                lag_epochs,
                lag_lsns: leader_next.saturating_sub(last_durable_lsn),
                last_durable_lsn,
                leader_epoch,
                fenced: false,
            })
        } else if self.metrics.replicating.load(Ordering::Acquire) {
            let follower_conns = self.metrics.follower_conns.load(Ordering::Acquire);
            Some(ReplicationReport {
                role: ReplicationRole::Leader,
                connected: follower_conns > 0,
                shipped_records: self.metrics.shipped_records.load(Ordering::Relaxed),
                shipped_bytes: self.metrics.shipped_bytes.load(Ordering::Relaxed),
                follower_conns,
                lag_epochs: 0,
                lag_lsns: 0,
                last_durable_lsn: self.wal_high_water().unwrap_or(0),
                leader_epoch,
                fenced: self.fenced_by().is_some(),
            })
        } else {
            None
        }
    }
}

/// Build an entry (and publish its snapshot) from a writer at `epoch`.
fn make_entry(
    writer: DynamicGee,
    requested_shards: u32,
    epoch: u64,
    updates_applied: u64,
    history: HistoryPolicy,
    backpressure: BackpressurePolicy,
) -> Entry {
    let layout = ShardLayout::new(writer.num_vertices(), requested_shards as usize);
    let snapshot = Arc::new(publish_full(&writer, &layout, epoch));
    let mut ring = VecDeque::with_capacity(history.keep.min(64));
    ring.push_back(snapshot);
    Entry {
        layout,
        requested_shards,
        writer: Mutex::new(writer),
        history: RwLock::new(ring),
        keep: history.keep.max(1),
        pending: AtomicU64::new(0),
        max_pending: backpressure.max_pending_batches.min(u64::MAX as usize) as u64,
        queries_served: AtomicU64::new(0),
        updates_applied: AtomicU64::new(updates_applied),
    }
}

/// Check a batch against writer dimensions without mutating anything, so
/// a mid-batch failure can't leave the writer half-mutated (and, on a
/// durable registry, so an invalid batch never reaches the WAL).
fn validate_batch(writer: &DynamicGee, updates: &[Update]) -> Result<(), ServeError> {
    let n = writer.num_vertices();
    let k = writer.dim();
    for u in updates {
        match *u {
            Update::InsertEdge { u, v, w } | Update::RemoveEdge { u, v, w } => {
                for x in [u, v] {
                    if x as usize >= n {
                        return Err(ServeError::VertexOutOfRange {
                            vertex: x,
                            num_vertices: n,
                        });
                    }
                }
                // A NaN/Inf weight would poison every distance the
                // embedding later feeds.
                if !w.is_finite() {
                    return Err(ServeError::NonFinite {
                        param: format!("weight of edge ({u}, {v})"),
                    });
                }
            }
            Update::SetLabel { v, label } => {
                if v as usize >= n {
                    return Err(ServeError::VertexOutOfRange {
                        vertex: v,
                        num_vertices: n,
                    });
                }
                if let Some(c) = label {
                    if c as usize >= k {
                        return Err(ServeError::ClassOutOfRange {
                            class: c,
                            num_classes: k,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Which per-shard state a batch invalidated, tracked while applying.
struct Dirty {
    rows: Vec<bool>,
    labels: Vec<bool>,
}

impl Dirty {
    fn clean(num_shards: usize) -> Dirty {
        Dirty {
            rows: vec![false; num_shards],
            labels: vec![false; num_shards],
        }
    }
}

/// Apply a validated batch and publish the next epoch copy-on-write.
fn apply_batch(
    entry: &Entry,
    writer: &mut DynamicGee,
    updates: &[Update],
) -> (usize, Arc<Snapshot>) {
    let mut dirty = Dirty::clean(entry.layout.num_shards());
    let applied = apply_ops(&entry.layout, writer, updates, &mut dirty);
    let snapshot = entry.publish_next(writer, &dirty, 0);
    entry
        .updates_applied
        .fetch_add(applied as u64, Ordering::Relaxed);
    (applied, snapshot)
}

/// Apply a validated batch to the writer, marking in `dirty` (never
/// clearing) the shards it invalidates; returns the updates that took
/// effect. Shared verbatim by the live path and WAL replay, which is
/// what makes replay bit-exact *and* structure-exact (same blocks
/// rebuilt, same blocks shared).
fn apply_ops(
    layout: &ShardLayout,
    writer: &mut DynamicGee,
    updates: &[Update],
    dirty: &mut Dirty,
) -> usize {
    let mut applied = 0usize;
    for u in updates {
        match *u {
            Update::InsertEdge { u, v, w } => {
                writer.insert_edge(u, v, w);
                applied += 1;
                dirty.rows[layout.shard_of(u)] = true;
                dirty.rows[layout.shard_of(v)] = true;
            }
            Update::RemoveEdge { u, v, w } => {
                if writer.remove_edge(u, v, w) {
                    applied += 1;
                    dirty.rows[layout.shard_of(u)] = true;
                    dirty.rows[layout.shard_of(v)] = true;
                }
            }
            Update::SetLabel { v, label } => {
                // A real label move changes class counts, which rescale
                // the old and new class columns of *every* row — all
                // shards' rows are dirty, but only v's shard's labels.
                if writer.label(v) != label {
                    dirty.rows.iter_mut().for_each(|d| *d = true);
                    dirty.labels[layout.shard_of(v)] = true;
                }
                writer.set_label(v, label);
                applied += 1;
            }
        }
    }
    applied
}

/// Which replayed records recovery materializes, one flag per record of
/// `records`: `true` for a publish whose epoch the history ring still
/// holds when recovery returns — fewer than `keep` publishes of the same
/// graph lineage follow it. A `Register` publishes epoch 0 of a new
/// lineage and ends the previous one; a `Deregister` ends one and
/// publishes nothing. Records below `min_lsn` (covered by the
/// checkpoint) are not replayed and get `false`.
pub(crate) fn retention_plan(records: &[(u64, WalRecord)], min_lsn: u64, keep: usize) -> Vec<bool> {
    // Publishes of each name's live lineage after the current record,
    // saturated at `keep`; an ended lineage reads `keep`.
    let mut later: HashMap<&str, usize> = HashMap::new();
    let mut plan = vec![false; records.len()];
    for (i, (lsn, record)) in records.iter().enumerate().rev() {
        if *lsn < min_lsn {
            continue;
        }
        let later = later.entry(record.graph()).or_insert(0);
        match record {
            WalRecord::Register { .. } => {
                plan[i] = *later < keep;
                *later = keep;
            }
            WalRecord::Batch { .. } => {
                plan[i] = *later < keep;
                *later = (*later + 1).min(keep);
            }
            WalRecord::Deregister { .. } => *later = keep,
        }
    }
    plan
}

/// A recovering graph's replayed batches that were applied to its
/// writer but not materialized: their count and union of dirty shards.
struct Deferred {
    epochs: u64,
    dirty: Dirty,
}

/// Apply one WAL record to the recovering entry map. A batch with
/// `publish` unset is applied to the writer only and its epoch deferred
/// in `deferred`; the graph's next published batch then publishes over
/// every deferred epoch at once. A `Register` always materializes its
/// epoch 0, the parent of the lineage's first published batch. Errors
/// are strings; the caller wraps them with the offending LSN into
/// [`ServeError::Corrupt`].
fn replay(
    entries: &mut HashMap<String, Arc<Entry>>,
    deferred: &mut HashMap<String, Deferred>,
    record: &WalRecord,
    publish: bool,
    history: HistoryPolicy,
    backpressure: BackpressurePolicy,
) -> Result<(), String> {
    if !matches!(record, WalRecord::Batch { .. }) {
        // A (re-)registration or removal ends the lineage whose epochs
        // were deferred.
        deferred.remove(record.graph());
    }
    match record {
        WalRecord::Register {
            name,
            shards,
            num_vertices,
            num_classes,
            labels,
            edges,
        } => {
            let n = *num_vertices as usize;
            let k = *num_classes as usize;
            if labels.len() != n {
                return Err(format!("{} labels for {n} vertices", labels.len()));
            }
            let opts: Vec<Option<u32>> = labels
                .iter()
                .map(|&c| match c {
                    -1 => Ok(None),
                    c if c >= 0 && (c as usize) < k => Ok(Some(c as u32)),
                    c => Err(format!("label {c} outside K={k}")),
                })
                .collect::<Result<_, _>>()?;
            let mut edge_vec = Vec::with_capacity(edges.len());
            for &(u, v, w) in edges {
                if u as usize >= n || v as usize >= n {
                    return Err(format!("edge ({u}, {v}) outside n={n}"));
                }
                edge_vec.push(Edge::new(u, v, w));
            }
            let el = EdgeList::new_unchecked(n, edge_vec);
            let writer = DynamicGee::new(&el, &Labels::from_options_with_k(&opts, k));
            entries.insert(
                name.clone(),
                Arc::new(make_entry(writer, *shards, 0, 0, history, backpressure)),
            );
            Ok(())
        }
        WalRecord::Batch { name, updates } => {
            let entry = entries
                .get(name)
                .ok_or_else(|| format!("batch for unregistered graph {name:?}"))?
                .clone();
            let mut writer = entry.writer.lock().expect("writer lock poisoned");
            validate_batch(&writer, updates).map_err(|e| format!("invalid logged batch: {e}"))?;
            let mut pending = deferred.remove(name).unwrap_or_else(|| Deferred {
                epochs: 0,
                dirty: Dirty::clean(entry.layout.num_shards()),
            });
            let applied = apply_ops(&entry.layout, &mut writer, updates, &mut pending.dirty);
            if publish {
                entry.publish_next(&writer, &pending.dirty, pending.epochs);
            } else {
                pending.epochs += 1;
                deferred.insert(name.clone(), pending);
            }
            entry
                .updates_applied
                .fetch_add(applied as u64, Ordering::Relaxed);
            Ok(())
        }
        WalRecord::Deregister { name } => match entries.remove(name) {
            Some(_) => Ok(()),
            None => Err(format!("deregister of unregistered graph {name:?}")),
        },
    }
}

/// Raw labels of `lo..hi` from the writer (`-1` = unknown).
fn writer_labels(writer: &DynamicGee, lo: u32, hi: u32) -> Vec<i32> {
    (lo..hi)
        .map(|v| writer.label(v).map_or(-1, |c| c as i32))
        .collect()
}

/// Materialize a full snapshot from the writer state, one shard per
/// thread (registration and checkpoint restore — no parent to share
/// with).
fn publish_full(writer: &DynamicGee, layout: &ShardLayout, epoch: u64) -> Snapshot {
    let k = writer.dim();
    let blocks: Vec<Arc<ShardBlock>> = layout.par_map(|_, lo, hi| {
        Arc::new(ShardBlock::build(
            lo,
            hi,
            k,
            writer.embedding_rows(lo as usize, hi as usize),
            writer_labels(writer, lo, hi),
        ))
    });
    Snapshot::from_blocks(epoch, writer.num_vertices(), k, blocks)
}

/// Publish the next epoch copy-on-write: rebuild the dirty blocks (rows
/// always; labels and train set only where labels moved) and share the
/// rest with the parent epoch. Clean rows are bit-identical to a full
/// rebuild — edge ops touch only their endpoints' `Ẑ` rows and label
/// moves mark everything dirty — which `tests/cow_property.rs` verifies
/// element-wise against a from-scratch rebuild.
fn publish_cow(
    writer: &DynamicGee,
    layout: &ShardLayout,
    epoch: u64,
    parent: &Snapshot,
    dirty: &Dirty,
) -> Snapshot {
    let k = writer.dim();
    let blocks: Vec<Arc<ShardBlock>> = layout.par_map(|i, lo, hi| {
        let parent_block = &parent.blocks()[i];
        if !dirty.rows[i] && !dirty.labels[i] {
            return parent_block.clone();
        }
        let rows = writer.embedding_rows(lo as usize, hi as usize);
        if dirty.labels[i] {
            Arc::new(
                ShardBlock::build(lo, hi, k, rows, writer_labels(writer, lo, hi))
                    .inheriting(parent_block),
            )
        } else {
            // Labels untouched: share the labels slice and skip the
            // train-set regrouping.
            Arc::new(parent_block.with_rows(rows))
        }
    });
    Snapshot::from_blocks(epoch, writer.num_vertices(), k, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_gen::LabelSpec;

    fn setup() -> (Registry, EdgeList, Labels) {
        let el = gee_gen::erdos_renyi_gnm(80, 400, 9);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                80,
                LabelSpec {
                    num_classes: 4,
                    labeled_fraction: 0.4,
                },
                5,
            ),
            4,
        );
        (Registry::new(4), el, labels)
    }

    #[test]
    fn register_publishes_epoch_zero_matching_static_embed() {
        let (reg, el, labels) = setup();
        let snap = reg.register("g", &el, &labels).unwrap();
        assert_eq!(snap.epoch, 0);
        let statik = gee_core::serial_optimized::embed(&el, &labels);
        statik.assert_close(&snap.to_embedding(), 1e-12);
    }

    #[test]
    fn apply_updates_bumps_epoch_and_matches_recompute() {
        let (reg, el, labels) = setup();
        reg.register("g", &el, &labels).unwrap();
        let (applied, snap) = reg
            .apply_updates(
                "g",
                &[
                    Update::InsertEdge { u: 1, v: 2, w: 2.0 },
                    Update::SetLabel {
                        v: 3,
                        label: Some(0),
                    },
                    Update::RemoveEdge { u: 1, v: 2, w: 2.0 },
                    Update::RemoveEdge {
                        u: 0,
                        v: 1,
                        w: 555.0,
                    }, // missing: no-op
                ],
            )
            .unwrap();
        assert_eq!(applied, 3);
        assert_eq!(snap.epoch, 1);
        // Oracle: fresh static recompute over the mutated graph/labels.
        let mut dg = DynamicGee::new(&el, &labels);
        dg.set_label(3, Some(0));
        let oracle = gee_core::serial_optimized::embed(&dg.edge_list(), &dg.labels());
        oracle.assert_close(&snap.to_embedding(), 1e-11);
    }

    #[test]
    fn batch_is_atomic_on_validation_failure() {
        let (reg, el, labels) = setup();
        reg.register("g", &el, &labels).unwrap();
        let before = reg.snapshot("g").unwrap();
        let err = reg
            .apply_updates(
                "g",
                &[
                    Update::InsertEdge { u: 0, v: 1, w: 1.0 },
                    Update::InsertEdge {
                        u: 0,
                        v: 10_000,
                        w: 1.0,
                    }, // invalid
                ],
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::VertexOutOfRange { .. }));
        let after = reg.snapshot("g").unwrap();
        assert_eq!(after.epoch, before.epoch, "failed batch must not publish");
        assert_eq!(
            after.to_embedding().as_slice(),
            before.to_embedding().as_slice()
        );
    }

    #[test]
    fn old_snapshots_stay_consistent_after_writes() {
        let (reg, el, labels) = setup();
        let old = reg.register("g", &el, &labels).unwrap();
        let frozen = old.to_embedding().as_slice().to_vec();
        // Insert an edge to a *labeled* vertex so the write provably
        // changes the embedding (an edge between two unlabeled vertices
        // contributes nothing).
        let (t, _) = labels
            .iter_labeled()
            .next()
            .expect("some vertex is labeled");
        reg.apply_updates(
            "g",
            &[Update::InsertEdge {
                u: 0,
                v: t,
                w: 10.0,
            }],
        )
        .unwrap();
        assert_eq!(
            old.to_embedding().as_slice(),
            &frozen[..],
            "held snapshot must not move"
        );
        assert_ne!(
            reg.snapshot("g").unwrap().to_embedding().as_slice(),
            &frozen[..],
            "published snapshot must reflect the write"
        );
    }

    #[test]
    fn unknown_graph_is_an_error() {
        let (reg, ..) = setup();
        assert!(matches!(
            reg.snapshot("nope"),
            Err(ServeError::UnknownGraph { .. })
        ));
    }

    #[test]
    fn non_finite_weights_are_rejected_atomically() {
        let (reg, el, labels) = setup();
        reg.register("g", &el, &labels).unwrap();
        let before = reg.snapshot("g").unwrap();
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = reg
                .apply_updates(
                    "g",
                    &[
                        Update::InsertEdge { u: 0, v: 1, w: 1.0 },
                        Update::InsertEdge { u: 2, v: 3, w },
                    ],
                )
                .unwrap_err();
            assert!(matches!(err, ServeError::NonFinite { .. }), "{w}: {err}");
        }
        assert_eq!(
            reg.snapshot("g").unwrap().epoch,
            before.epoch,
            "nothing published"
        );
    }

    #[test]
    fn empty_update_batch_does_not_publish_an_epoch() {
        let (reg, el, labels) = setup();
        reg.register("g", &el, &labels).unwrap();
        let before = reg.snapshot("g").unwrap();
        let (applied, snap) = reg.apply_updates("g", &[]).unwrap();
        assert_eq!(applied, 0);
        assert!(
            Arc::ptr_eq(&snap, &before),
            "no-op must return the published snapshot as-is"
        );
        assert_eq!(reg.snapshot("g").unwrap().epoch, before.epoch);
        // A real batch afterwards still publishes the next epoch.
        let (_, snap) = reg
            .apply_updates("g", &[Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
            .unwrap();
        assert_eq!(snap.epoch, before.epoch + 1);
    }

    #[test]
    fn deregister_and_names() {
        let (reg, el, labels) = setup();
        reg.register("b", &el, &labels).unwrap();
        reg.register("a", &el, &labels).unwrap();
        assert_eq!(reg.graph_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(reg.deregister("a").unwrap());
        assert!(!reg.deregister("a").unwrap());
        assert_eq!(reg.graph_names(), vec!["b".to_string()]);
    }

    #[test]
    fn in_memory_registry_reports_no_durability() {
        let (reg, ..) = setup();
        assert!(!reg.is_durable());
        assert_eq!(reg.data_dir(), None);
        assert_eq!(reg.checkpoint_now().unwrap(), None);
        let reg = Registry::open(4, Durability::None).unwrap();
        assert!(!reg.is_durable());
    }

    #[test]
    fn edge_batch_shares_untouched_blocks() {
        let (reg, el, labels) = setup();
        let parent = reg.register("g", &el, &labels).unwrap();
        // Both endpoints inside shard 0 (80 vertices / 4 shards = 20 per
        // shard): exactly one block republishes.
        let (_, snap) = reg
            .apply_updates("g", &[Update::InsertEdge { u: 1, v: 2, w: 3.0 }])
            .unwrap();
        let shared: Vec<bool> = snap
            .blocks()
            .iter()
            .zip(parent.blocks())
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared, vec![false, true, true, true]);
        // The rebuilt block still shares its labels slice (no label
        // moved — no regrouping).
        assert!(snap.blocks()[0].shares_labels_with(&parent.blocks()[0]));
    }

    #[test]
    fn label_move_rebuilds_all_rows_but_one_labels_slice() {
        let (reg, el, labels) = setup();
        let parent = reg.register("g", &el, &labels).unwrap();
        let v = 25u32; // shard 1 of 4 × 20
        let new_label = match labels.get(v) {
            Some(0) => Some(1),
            _ => Some(0),
        };
        let (_, snap) = reg
            .apply_updates(
                "g",
                &[Update::SetLabel {
                    v,
                    label: new_label,
                }],
            )
            .unwrap();
        for (i, (a, b)) in snap.blocks().iter().zip(parent.blocks()).enumerate() {
            assert!(!Arc::ptr_eq(a, b), "shard {i}: rows rescale everywhere");
            assert_eq!(
                a.shares_labels_with(b),
                i != 1,
                "only shard 1's labels moved"
            );
        }
    }

    #[test]
    fn history_ring_retains_and_evicts_in_order() {
        let (_, el, labels) = setup();
        let reg = Registry::with_config(RegistryConfig {
            default_shards: 4,
            history: HistoryPolicy::keep(3),
            ..RegistryConfig::default()
        })
        .unwrap();
        reg.register("g", &el, &labels).unwrap();
        for i in 0..5u32 {
            reg.apply_updates(
                "g",
                &[Update::InsertEdge {
                    u: i,
                    v: i + 1,
                    w: 1.0,
                }],
            )
            .unwrap();
        }
        assert_eq!(reg.epoch_range("g").unwrap(), (3, 5));
        for epoch in 3..=5 {
            assert_eq!(reg.snapshot_at("g", epoch).unwrap().epoch, epoch);
        }
        for epoch in [0, 1, 2, 6, u64::MAX] {
            let err = reg.snapshot_at("g", epoch).unwrap_err();
            assert_eq!(
                err,
                ServeError::EpochEvicted {
                    graph: "g".into(),
                    epoch,
                    oldest: 3,
                    newest: 5,
                },
                "epoch {epoch}"
            );
        }
    }

    #[test]
    fn backpressure_rejects_when_slots_are_held() {
        let (_, el, labels) = setup();
        let reg = Registry::with_config(RegistryConfig {
            default_shards: 2,
            backpressure: BackpressurePolicy::max_pending(1),
            ..RegistryConfig::default()
        })
        .unwrap();
        reg.register("g", &el, &labels).unwrap();
        assert_eq!(reg.pending_batches("g").unwrap(), 0);
        let slot = reg.hold_write_slot("g").unwrap();
        assert_eq!(reg.pending_batches("g").unwrap(), 1);
        let err = reg
            .apply_updates("g", &[Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                graph: "g".into(),
                pending: 1,
                max_pending: 1,
            }
        );
        // Reads are never back-pressured.
        assert!(reg.snapshot("g").is_ok());
        // Empty batches don't consume a slot.
        assert!(reg.apply_updates("g", &[]).is_ok());
        drop(slot);
        assert_eq!(reg.pending_batches("g").unwrap(), 0);
        let (applied, snap) = reg
            .apply_updates("g", &[Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
            .unwrap();
        assert_eq!((applied, snap.epoch), (1, 1));
    }

    fn register(name: &str) -> WalRecord {
        WalRecord::Register {
            name: name.into(),
            shards: 1,
            num_vertices: 0,
            num_classes: 1,
            labels: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn batch(name: &str) -> WalRecord {
        WalRecord::Batch {
            name: name.into(),
            updates: Vec::new(),
        }
    }

    fn deregister(name: &str) -> WalRecord {
        WalRecord::Deregister { name: name.into() }
    }

    /// The retention plan of `records` logged at LSNs 0, 1, 2, ….
    fn plan(records: Vec<WalRecord>, min_lsn: u64, keep: usize) -> Vec<bool> {
        let records: Vec<(u64, WalRecord)> = (0..).zip(records).collect();
        retention_plan(&records, min_lsn, keep)
    }

    #[test]
    fn retention_plan_keeps_the_last_keep_publishes() {
        // A checkpointed graph's tail: keep − 1 and keep batches are all
        // retained; keep + 1 evicts exactly the first.
        let keep = 3;
        for (tail, want) in [
            (keep - 1, vec![true; keep - 1]),
            (keep, vec![true; keep]),
            (keep + 1, vec![false, true, true, true]),
        ] {
            assert_eq!(plan(vec![batch("g"); tail], 0, keep), want, "{tail}");
        }
        // The registration is a publish too: epoch 0 is the keep-th
        // newest of R B B, and evicted under R B B B.
        assert_eq!(
            plan(vec![register("g"), batch("g"), batch("g")], 0, keep),
            vec![true; 3]
        );
        assert_eq!(
            plan(
                vec![register("g"), batch("g"), batch("g"), batch("g")],
                0,
                keep
            ),
            vec![false, true, true, true]
        );
    }

    #[test]
    fn retention_plan_with_keep_one_publishes_each_lineages_last_record() {
        assert_eq!(
            plan(vec![batch("g"), batch("g"), batch("g")], 0, 1),
            vec![false, false, true]
        );
        assert_eq!(
            plan(vec![register("g"), batch("g"), batch("g")], 0, 1),
            vec![false, false, true]
        );
        assert_eq!(plan(vec![register("g")], 0, 1), vec![true]);
    }

    #[test]
    fn retention_plan_counts_each_graph_apart() {
        // g: 3 batches, h: 4 batches, interleaved; keep 2 of each.
        let records = ["g", "g", "h", "g", "h", "h", "h"].map(batch).to_vec();
        assert_eq!(
            plan(records, 0, 2),
            vec![false, true, false, true, false, true, true]
        );
    }

    #[test]
    fn retention_plan_ends_a_lineage_at_deregister_and_reregister() {
        // The first lineage of g is gone when recovery returns; the
        // second one starts at its Register.
        assert_eq!(
            plan(
                vec![
                    register("g"),
                    batch("g"),
                    deregister("g"),
                    register("g"),
                    batch("g")
                ],
                0,
                2
            ),
            vec![false, false, false, true, true]
        );
        assert_eq!(
            plan(vec![batch("g"), batch("g"), deregister("g")], 0, 8),
            vec![false; 3]
        );
        // A Register replaces the lineage before it even without a
        // Deregister; another graph's lineage is untouched.
        assert_eq!(
            plan(
                vec![batch("g"), batch("h"), register("g"), batch("g")],
                0,
                8
            ),
            vec![false, true, true, true]
        );
    }

    #[test]
    fn retention_plan_skips_records_the_checkpoint_covers() {
        assert_eq!(
            plan(vec![batch("g"); 5], 2, 8),
            vec![false, false, true, true, true]
        );
        assert_eq!(
            plan(vec![register("g"), batch("g"), batch("g")], 1, 1),
            vec![false, false, true]
        );
    }

    #[test]
    fn noop_label_set_keeps_blocks_shared() {
        let (reg, el, labels) = setup();
        let parent = reg.register("g", &el, &labels).unwrap();
        let (v, c) = labels.iter_labeled().next().expect("a labeled vertex");
        // Re-assert the same label: counted as applied, but no state
        // changed — every block stays shared.
        let (applied, snap) = reg
            .apply_updates("g", &[Update::SetLabel { v, label: Some(c) }])
            .unwrap();
        assert_eq!(applied, 1);
        assert_eq!(snap.epoch, 1);
        assert!(snap
            .blocks()
            .iter()
            .zip(parent.blocks())
            .all(|(a, b)| Arc::ptr_eq(a, b)));
    }
}
