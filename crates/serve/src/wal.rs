//! Write-ahead log: the append-only, checksummed record of every durable
//! mutation a [`Registry`](crate::Registry) accepts.
//!
//! # On-disk format
//!
//! A WAL lives in a data directory as one or more *segment* files named
//! `wal-{start_lsn:016x}.log`, where the LSN (log sequence number) of a
//! record is its zero-based position in the whole log and a segment's
//! file name carries the LSN of its first record. Segments tile the LSN
//! space contiguously; a new segment is started (and fully-covered old
//! segments are retired) each time a checkpoint is taken.
//!
//! ```text
//! segment  = magic (8 bytes, b"GEEWAL1\0")
//!            version (u32 LE, = 1)
//!            record*
//! record   = len (u32 LE)  crc32 (u32 LE, IEEE, over payload)  payload
//! payload  = tag (u8) + tag-specific fields, little-endian:
//!   tag 1  Register    name, shards u32, n u64, K u32, n × label i32,
//!                      edge count u64, edges as (u u32, v u32, w f64-bits)
//!   tag 2  Batch       name, update count u32, updates:
//!                        1 InsertEdge  u u32, v u32, w f64-bits
//!                        2 RemoveEdge  u u32, v u32, w f64-bits
//!                        3 SetLabel    v u32, has u8, label u32 (if has)
//!   tag 3  Deregister  name
//! name     = u32 LE byte length + UTF-8 bytes
//! ```
//!
//! Register records carry the *entire* epoch-0 input (edge list in
//! original order plus labels), so a log whose segments reach back to
//! LSN 0 is self-contained: replaying it from scratch reproduces the
//! exact floating-point accumulation order of the original process and
//! therefore a bit-identical engine. Checkpoints
//! ([`crate::checkpoint`]) only shortcut the replay.
//!
//! # Commit and recovery semantics
//!
//! A record is **committed** once its bytes are on disk
//! ([`SyncPolicy::Always`] fsyncs every append before the in-memory state
//! mutates; [`SyncPolicy::Never`] leaves flushing to the OS and trades
//! the tail of the log for throughput; [`SyncPolicy::Group`] batches
//! concurrent writers behind one shared fsync per commit window — the
//! same power-loss guarantee as `Always` at a fraction of the syncs).
//! On open, the log is scanned front to back:
//!
//! * a record that ends *exactly* at end-of-file closes a valid log;
//! * a final record cut short by a crash (header or payload incomplete —
//!   a *torn tail*) is truncated away, in the last segment only;
//! * a complete record whose CRC mismatches, a torn tail in an interior
//!   segment, an undecodable payload, or segments that do not tile the
//!   LSN space (duplicated/overlapping/missing files) are **corruption**
//!   and surface as [`ServeError::Corrupt`] — never a panic.
//!
//! Fault injection for the crash-recovery harness is first-class:
//! [`WalWriter::inject_fault`] makes the next append stop after a chosen
//! byte count, flush, and fail — exactly what a process kill mid-append
//! leaves on disk.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use gee_graph::io::frame::{self, Cursor, FrameError};

use crate::registry::Update;
use crate::ServeError;

/// Segment-file magic.
pub const MAGIC: &[u8; 8] = b"GEEWAL1\0";

/// WAL format version.
pub const VERSION: u32 = 1;

/// Segment header length: magic + version.
pub const HEADER_LEN: u64 = 12;

/// Upper bound on one record's payload (a Register of a ~10M-edge graph
/// fits; a corrupt length prefix cannot demand more).
pub const MAX_RECORD_LEN: usize = 1 << 30;

/// Cap on graph-name length inside WAL records and checkpoints. One
/// shared constant: [`WalWriter::append`] enforces it at write time
/// precisely so anything committed can always decode — a drift between
/// write-side and read-side caps (or between the WAL and checkpoint
/// decoders) would make committed state unrecoverable.
pub const MAX_NAME_LEN: usize = 1 << 16;

/// When appended records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync every append before acknowledging — a committed batch
    /// survives power loss.
    Always,
    /// Let the OS flush when it pleases — committed batches survive a
    /// process crash but the log tail may be lost on power failure.
    Never,
    /// Group commit: appends are acknowledged only after an fsync covers
    /// them, but concurrent writers share fsyncs — one leader waits up
    /// to `window`, collecting arrivals, then issues a single
    /// `sync_data` covering every record appended so far and wakes all
    /// waiters. Same power-loss guarantee as [`SyncPolicy::Always`]
    /// (`Ok` still means durable); the difference is that readers may
    /// observe a batch's effects during the window before its fsync
    /// lands (visibility before durability), and durable throughput
    /// scales with writer count instead of disk sync latency. The
    /// waiting machinery lives in the registry
    /// ([`Registry`](crate::Registry) owns the leader election); the
    /// [`WalWriter`] itself treats `Group` like [`SyncPolicy::Never`]
    /// on append and exposes [`WalWriter::sync`] for the leader.
    Group {
        /// How long a leader collects arrivals before syncing. `0` still
        /// coalesces: writers arriving while an fsync is in flight share
        /// the next one.
        window: std::time::Duration,
    },
}

impl SyncPolicy {
    /// Group commit with the default 1 ms window — long enough to
    /// coalesce a burst of concurrent writers, short enough to be
    /// invisible next to a disk sync.
    pub fn group() -> SyncPolicy {
        SyncPolicy::Group {
            window: std::time::Duration::from_millis(1),
        }
    }
}

/// Whether (and how) a [`Registry`](crate::Registry) persists its state.
#[derive(Debug, Clone)]
pub enum Durability {
    /// In-memory only (the pre-durability behavior).
    None,
    /// Write-ahead log + periodic checkpoints under `dir`.
    Wal {
        /// Data directory holding `wal-*.log` segments and `ckpt-*.ckpt`
        /// snapshots. Created if missing.
        dir: PathBuf,
        /// fsync policy for WAL appends.
        sync: SyncPolicy,
        /// Take a checkpoint (and retire fully-covered WAL segments)
        /// after this many committed records — update batches,
        /// registrations, and deregistrations all count, so a
        /// register-heavy log still compacts. `0` disables automatic
        /// checkpoints; [`Registry::checkpoint_now`](crate::Registry::checkpoint_now)
        /// still works.
        checkpoint_every: u64,
    },
}

impl Durability {
    /// WAL durability with the safe defaults: fsync on every commit,
    /// checkpoint every 64 batches.
    pub fn wal(dir: impl Into<PathBuf>) -> Durability {
        Durability::Wal {
            dir: dir.into(),
            sync: SyncPolicy::Always,
            checkpoint_every: 64,
        }
    }
}

/// One durable mutation. The WAL is an ordered sequence of these.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A graph (re-)registration: the complete epoch-0 input, edge order
    /// preserved so replay reproduces the original accumulation order.
    Register {
        name: String,
        shards: u32,
        num_vertices: u64,
        num_classes: u32,
        /// Raw label per vertex (`-1` = unlabeled), length `num_vertices`.
        labels: Vec<i32>,
        /// `(u, v, w)` in original submission order.
        edges: Vec<(u32, u32, f64)>,
    },
    /// One committed update batch (publishes the graph's next epoch).
    Batch { name: String, updates: Vec<Update> },
    /// Removal of a graph and its durable lineage.
    Deregister { name: String },
}

impl WalRecord {
    /// The graph this record concerns.
    pub fn graph(&self) -> &str {
        match self {
            WalRecord::Register { name, .. }
            | WalRecord::Batch { name, .. }
            | WalRecord::Deregister { name } => name,
        }
    }
}

const TAG_REGISTER: u8 = 1;
const TAG_BATCH: u8 = 2;
const TAG_DEREGISTER: u8 = 3;

const UPDATE_INSERT: u8 = 1;
const UPDATE_REMOVE: u8 = 2;
const UPDATE_SET_LABEL: u8 = 3;

/// Encode a record payload (framing — length prefix and CRC — is added
/// by the writer).
pub fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match record {
        WalRecord::Register {
            name,
            shards,
            num_vertices,
            num_classes,
            labels,
            edges,
        } => {
            frame::put_u8(&mut buf, TAG_REGISTER);
            frame::put_str(&mut buf, name);
            frame::put_u32(&mut buf, *shards);
            frame::put_u64(&mut buf, *num_vertices);
            frame::put_u32(&mut buf, *num_classes);
            for &y in labels {
                frame::put_i32(&mut buf, y);
            }
            frame::put_u64(&mut buf, edges.len() as u64);
            for &(u, v, w) in edges {
                frame::put_u32(&mut buf, u);
                frame::put_u32(&mut buf, v);
                frame::put_f64(&mut buf, w);
            }
        }
        WalRecord::Batch { name, updates } => {
            frame::put_u8(&mut buf, TAG_BATCH);
            frame::put_str(&mut buf, name);
            frame::put_u32(&mut buf, updates.len() as u32);
            for u in updates {
                encode_update(&mut buf, u);
            }
        }
        WalRecord::Deregister { name } => {
            frame::put_u8(&mut buf, TAG_DEREGISTER);
            frame::put_str(&mut buf, name);
        }
    }
    buf
}

/// Encode one [`Update`] in the tagged binary layout. Shared with the
/// wire codec ([`crate::codec`]) so an update has exactly one binary
/// encoding in the system.
pub(crate) fn encode_update(buf: &mut Vec<u8>, update: &Update) {
    match *update {
        Update::InsertEdge { u, v, w } => {
            frame::put_u8(buf, UPDATE_INSERT);
            frame::put_u32(buf, u);
            frame::put_u32(buf, v);
            frame::put_f64(buf, w);
        }
        Update::RemoveEdge { u, v, w } => {
            frame::put_u8(buf, UPDATE_REMOVE);
            frame::put_u32(buf, u);
            frame::put_u32(buf, v);
            frame::put_f64(buf, w);
        }
        Update::SetLabel { v, label } => {
            frame::put_u8(buf, UPDATE_SET_LABEL);
            frame::put_u32(buf, v);
            frame::put_u8(buf, u8::from(label.is_some()));
            frame::put_u32(buf, label.unwrap_or(0));
        }
    }
}

/// Decode a record payload. Every malformation is a typed error.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, FrameError> {
    let mut c = Cursor::new(payload);
    let record = match c.take_u8("record tag")? {
        TAG_REGISTER => {
            let name = c.take_str(MAX_NAME_LEN, "graph name")?;
            let shards = c.take_u32("shards")?;
            let num_vertices = c.take_u64("vertex count")?;
            if num_vertices.saturating_mul(4) > c.remaining() as u64 {
                return Err(FrameError::malformed(format!(
                    "vertex count {num_vertices} overruns payload"
                )));
            }
            let num_classes = c.take_u32("class count")?;
            let mut labels = Vec::with_capacity(num_vertices as usize);
            for _ in 0..num_vertices {
                labels.push(c.take_i32("label")?);
            }
            let num_edges = c.take_u64("edge count")?;
            if num_edges.saturating_mul(16) > c.remaining() as u64 {
                return Err(FrameError::malformed(format!(
                    "edge count {num_edges} overruns payload"
                )));
            }
            let mut edges = Vec::with_capacity(num_edges as usize);
            for _ in 0..num_edges {
                let u = c.take_u32("edge u")?;
                let v = c.take_u32("edge v")?;
                let w = c.take_f64("edge w")?;
                edges.push((u, v, w));
            }
            WalRecord::Register {
                name,
                shards,
                num_vertices,
                num_classes,
                labels,
                edges,
            }
        }
        TAG_BATCH => {
            let name = c.take_str(MAX_NAME_LEN, "graph name")?;
            let count = c.take_count(6, "update count")?;
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(decode_update(&mut c)?);
            }
            WalRecord::Batch { name, updates }
        }
        TAG_DEREGISTER => WalRecord::Deregister {
            name: c.take_str(MAX_NAME_LEN, "graph name")?,
        },
        other => {
            return Err(FrameError::malformed(format!("unknown record tag {other}")));
        }
    };
    c.finish("wal record")?;
    Ok(record)
}

/// Decode one [`Update`] (the inverse of [`encode_update`]).
pub(crate) fn decode_update(c: &mut Cursor<'_>) -> Result<Update, FrameError> {
    Ok(match c.take_u8("update tag")? {
        UPDATE_INSERT => Update::InsertEdge {
            u: c.take_u32("u")?,
            v: c.take_u32("v")?,
            w: c.take_f64("w")?,
        },
        UPDATE_REMOVE => Update::RemoveEdge {
            u: c.take_u32("u")?,
            v: c.take_u32("v")?,
            w: c.take_f64("w")?,
        },
        UPDATE_SET_LABEL => {
            let v = c.take_u32("v")?;
            let has = c.take_u8("label presence")?;
            let label = c.take_u32("label")?;
            match has {
                0 => Update::SetLabel { v, label: None },
                1 => Update::SetLabel {
                    v,
                    label: Some(label),
                },
                other => {
                    return Err(FrameError::malformed(format!(
                        "label presence byte {other}"
                    )));
                }
            }
        }
        other => {
            return Err(FrameError::malformed(format!("unknown update tag {other}")));
        }
    })
}

/// File name of the segment whose first record has `start_lsn`.
pub fn segment_file_name(start_lsn: u64) -> String {
    format!("wal-{start_lsn:016x}.log")
}

/// Parse a segment file name back to its start LSN.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

/// Sorted `(start_lsn, path)` list of the directory's WAL segments.
pub fn segment_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
        let name = entry.file_name();
        if let Some(lsn) = parse_segment_name(&name.to_string_lossy()) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// Name of the leader-epoch file inside a data directory: 8 bytes of
/// magic plus the epoch as a u64 LE. The epoch is the replication
/// fencing token (see [`crate::replicate`]): a follower durably records
/// the highest epoch it has replicated under before applying anything
/// from that leader, and promotion bumps it, so a deposed leader can
/// never be mistaken for a live one after a restart. The same value
/// also rides in every checkpoint (format v2), so either survives the
/// loss of the other.
pub const LEADER_EPOCH_FILE: &str = "leader-epoch";

/// Leader-epoch file magic.
pub const LEADER_EPOCH_MAGIC: &[u8; 8] = b"GEELEPO1";

/// Durably persist the leader epoch: temp file → fsync → atomic rename
/// → directory fsync, the same discipline checkpoints use.
pub fn save_leader_epoch(dir: &Path, epoch: u64) -> Result<(), ServeError> {
    let final_path = dir.join(LEADER_EPOCH_FILE);
    let tmp_path = dir.join(format!("{LEADER_EPOCH_FILE}.tmp"));
    let io_err =
        |e: std::io::Error| ServeError::storage(format!("writing {}: {e}", tmp_path.display()));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)
        .map_err(io_err)?;
    file.write_all(LEADER_EPOCH_MAGIC).map_err(io_err)?;
    file.write_all(&epoch.to_le_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| {
        ServeError::storage(format!(
            "renaming {} → {}: {e}",
            tmp_path.display(),
            final_path.display()
        ))
    })?;
    sync_dir(dir)
}

/// Read the stored leader epoch; `0` when the file does not exist (a
/// data dir that predates fencing, or was never promoted/replicated). A
/// file that exists but fails magic or length checks is damage and
/// surfaces as [`ServeError::Corrupt`] — never silently epoch 0, which
/// would let a deposed leader back in.
pub fn load_leader_epoch(dir: &Path) -> Result<u64, ServeError> {
    let path = dir.join(LEADER_EPOCH_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => {
            return Err(ServeError::storage(format!(
                "reading {}: {e}",
                path.display()
            )))
        }
    };
    let corrupt = |detail: String| ServeError::Corrupt {
        path: path.display().to_string(),
        detail,
    };
    if bytes.len() != 16 {
        return Err(corrupt(format!(
            "leader-epoch file is {} bytes, expected 16",
            bytes.len()
        )));
    }
    if &bytes[..8] != LEADER_EPOCH_MAGIC {
        return Err(corrupt("bad magic; not a GEELEPO1 file".into()));
    }
    Ok(u64::from_le_bytes(
        bytes[8..16].try_into().expect("8 bytes"),
    ))
}

/// Everything recovery learned from scanning the log directory.
#[derive(Debug)]
pub struct LogScan {
    /// All readable records as `(lsn, record)`, ascending.
    pub records: Vec<(u64, WalRecord)>,
    /// The LSN the next append will get.
    pub next_lsn: u64,
    /// Start LSN of the segment appends continue into (`None` → the
    /// directory has no segments yet).
    pub last_segment_start: Option<u64>,
    /// Torn-tail bytes truncated from the last segment, if any.
    pub truncated_bytes: u64,
}

/// Scan every segment under `dir` front to back, validating tiling and
/// checksums, truncating a torn tail of the final segment. `min_lsn` is
/// the oldest LSN the caller needs (the latest checkpoint's coverage):
/// the first segment may start at or before it; records below it are
/// still returned (callers skip them cheaply) so tiling validation covers
/// the whole directory.
pub fn scan(dir: &Path, min_lsn: u64) -> Result<LogScan, ServeError> {
    let segments = segment_paths(dir)?;
    let mut records = Vec::new();
    let mut truncated_bytes = 0u64;
    let Some(&(first_lsn, _)) = segments.first() else {
        if min_lsn > 0 {
            return Err(ServeError::Corrupt {
                path: dir.display().to_string(),
                detail: format!("no WAL segments, but history before lsn {min_lsn} is needed"),
            });
        }
        return Ok(LogScan {
            records,
            next_lsn: 0,
            last_segment_start: None,
            truncated_bytes: 0,
        });
    };
    if first_lsn > min_lsn {
        return Err(ServeError::Corrupt {
            path: dir.display().to_string(),
            detail: format!(
                "oldest segment starts at lsn {first_lsn}, but history from lsn {min_lsn} is needed \
                 (segments retired without a covering checkpoint?)"
            ),
        });
    }
    let mut expected_start = first_lsn;
    for (i, (start_lsn, path)) in segments.iter().enumerate() {
        let corrupt = |detail: String| ServeError::Corrupt {
            path: path.display().to_string(),
            detail,
        };
        if *start_lsn != expected_start {
            return Err(corrupt(format!(
                "segment starts at lsn {start_lsn}, expected {expected_start} \
                 (duplicate, overlapping, or missing segment)"
            )));
        }
        let is_last = i == segments.len() - 1;
        let mut file = File::open(path)
            .map_err(|e| ServeError::storage(format!("opening {}: {e}", path.display())))?;
        let mut lsn = *start_lsn;
        match read_header(&mut file) {
            Ok(()) => {}
            Err(FrameError::TornTail { .. }) | Err(FrameError::Eof) if is_last => {
                // Crash while creating the segment: no record in it can
                // exist; rewrite the header and continue appending here.
                drop(file);
                truncated_bytes += header_shortfall(path)?;
                rewrite_header(path)?;
                return Ok(LogScan {
                    records,
                    next_lsn: lsn,
                    last_segment_start: Some(lsn),
                    truncated_bytes,
                });
            }
            // A transient read failure is not evidence of damage.
            Err(FrameError::Io(e)) => {
                return Err(ServeError::storage(format!(
                    "reading {}: {e}",
                    path.display()
                )));
            }
            Err(e) => return Err(corrupt(format!("bad segment header: {e}"))),
        }
        let mut offset = HEADER_LEN;
        loop {
            match frame::read_frame(&mut file, MAX_RECORD_LEN) {
                Ok(payload) => {
                    let record = decode_record(&payload)
                        .map_err(|e| corrupt(format!("record at lsn {lsn}: {e}")))?;
                    offset += 8 + payload.len() as u64;
                    records.push((lsn, record));
                    lsn += 1;
                }
                Err(FrameError::Eof) => break,
                Err(FrameError::TornTail { .. }) if is_last => {
                    // A record the crash cut short: it was never
                    // acknowledged, so drop it.
                    drop(file);
                    truncated_bytes += truncate_file(path, offset)?;
                    break;
                }
                Err(FrameError::Io(e)) => {
                    return Err(ServeError::storage(format!(
                        "reading {}: {e}",
                        path.display()
                    )));
                }
                Err(e) => {
                    return Err(corrupt(format!("record at lsn {lsn}: {e}")));
                }
            }
        }
        expected_start = lsn;
    }
    let last = segments.last().expect("nonempty").0;
    Ok(LogScan {
        records,
        next_lsn: expected_start,
        last_segment_start: Some(last),
        truncated_bytes,
    })
}

fn read_header<R: Read>(r: &mut R) -> Result<(), FrameError> {
    let mut head = [0u8; HEADER_LEN as usize];
    let filled = frame::read_up_to(r, &mut head)?;
    if filled < head.len() {
        return Err(if filled == 0 {
            FrameError::Eof
        } else {
            FrameError::TornTail {
                expected: head.len(),
                got: filled,
            }
        });
    }
    if &head[..8] != MAGIC {
        return Err(FrameError::malformed("bad magic; not a GEEWAL1 segment"));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(FrameError::malformed(format!(
            "unsupported WAL version {version} (this build speaks {VERSION})"
        )));
    }
    Ok(())
}

fn header_shortfall(path: &Path) -> Result<u64, ServeError> {
    let len = std::fs::metadata(path)
        .map_err(|e| ServeError::storage(format!("stat {}: {e}", path.display())))?
        .len();
    Ok(HEADER_LEN.saturating_sub(len))
}

/// Truncate `path` to `keep` bytes; returns how many bytes were dropped.
fn truncate_file(path: &Path, keep: u64) -> Result<u64, ServeError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| ServeError::storage(format!("opening {}: {e}", path.display())))?;
    let len = file
        .metadata()
        .map_err(|e| ServeError::storage(format!("stat {}: {e}", path.display())))?
        .len();
    file.set_len(keep)
        .map_err(|e| ServeError::storage(format!("truncating {}: {e}", path.display())))?;
    file.sync_all()
        .map_err(|e| ServeError::storage(format!("syncing {}: {e}", path.display())))?;
    Ok(len.saturating_sub(keep))
}

fn rewrite_header(path: &Path) -> Result<(), ServeError> {
    let mut file = OpenOptions::new()
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(|e| ServeError::storage(format!("opening {}: {e}", path.display())))?;
    write_header(&mut file, path)?;
    file.sync_all()
        .map_err(|e| ServeError::storage(format!("syncing {}: {e}", path.display())))?;
    Ok(())
}

fn write_header(file: &mut File, path: &Path) -> Result<(), ServeError> {
    file.write_all(MAGIC)
        .and_then(|()| file.write_all(&VERSION.to_le_bytes()))
        .map_err(|e| ServeError::storage(format!("writing header of {}: {e}", path.display())))
}

/// fsync the directory so file creations/renames inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), ServeError> {
    #[cfg(unix)]
    {
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| ServeError::storage(format!("syncing dir {}: {e}", dir.display())))?;
    }
    Ok(())
}

/// Name of the data-directory lock file.
pub const LOCK_FILE: &str = "LOCK";

/// Single-writer guard on a data directory. Two processes appending to
/// the same WAL would interleave frames at arbitrary byte boundaries and
/// destroy the log, so opening a durable registry takes this lock and
/// holds it until drop.
///
/// The lock is a file holding the owner's PID. A crashed owner leaves
/// the file behind, but its PID is dead, so the next open reclaims the
/// lock — crash recovery never needs manual cleanup. (Liveness is
/// checked via `/proc`; on non-Linux targets a leftover lock is assumed
/// stale. PID reuse can in principle defeat the check — this is a
/// best-effort guard against operational accidents, not Byzantine
/// peers.)
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Take the lock, reclaiming it from a dead owner; a live owner is a
    /// typed [`ServeError::Storage`].
    pub fn acquire(dir: &Path) -> Result<DirLock, ServeError> {
        let path = dir.join(LOCK_FILE);
        // Two attempts: the initial create, and one retry after
        // reclaiming a stale lock.
        for _ in 0..2 {
            match OpenOptions::new().create_new(true).write(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(std::process::id().to_string().as_bytes())
                        .and_then(|()| file.sync_all())
                        .map_err(|e| {
                            ServeError::storage(format!("writing {}: {e}", path.display()))
                        })?;
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let content = std::fs::read_to_string(&path).unwrap_or_default();
                    match content.trim().parse::<u32>() {
                        Ok(pid) if pid_alive(pid) => {
                            return Err(ServeError::storage(format!(
                                "data dir {} is locked by running process {pid}; \
                                 only one process may serve it at a time",
                                dir.display()
                            )));
                        }
                        Ok(_) => {
                            // Dead owner: reclaim by atomic rename —
                            // remove_file here could race with a
                            // concurrent opener and delete *its* fresh
                            // lock; a rename succeeds for exactly one
                            // reclaimer.
                            let graveyard =
                                dir.join(format!("{LOCK_FILE}.stale.{}", std::process::id()));
                            if std::fs::rename(&path, &graveyard).is_ok() {
                                std::fs::remove_file(&graveyard).ok();
                            }
                        }
                        Err(_) => {
                            // Unreadable content: possibly a concurrent
                            // opener between its create and its PID
                            // write. Failing is the safe call; reclaiming
                            // could steal a live lock.
                            return Err(ServeError::storage(format!(
                                "data dir {} has an unreadable lock file; if no process \
                                 is serving it, delete {}",
                                dir.display(),
                                path.display()
                            )));
                        }
                    }
                }
                Err(e) => {
                    return Err(ServeError::storage(format!(
                        "locking data dir {}: {e}",
                        dir.display()
                    )));
                }
            }
        }
        Err(ServeError::storage(format!(
            "data dir {} is locked and another process is racing to reclaim it",
            dir.display()
        )))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        false
    }
}

/// A crash-point the test harness can arm on a [`WalWriter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The next append writes only the first `keep_bytes` bytes of its
    /// encoded record frame, flushes them, and fails — the on-disk
    /// outcome of a process killed mid-append. The writer is poisoned
    /// afterwards: every further append fails, as it would after a real
    /// crash.
    TornAppend { keep_bytes: usize },
}

/// The append half of the log: owns the open tail segment.
pub struct WalWriter {
    dir: PathBuf,
    file: File,
    segment_start: u64,
    next_lsn: u64,
    sync: SyncPolicy,
    fault: Option<FaultPoint>,
    poisoned: bool,
    /// Data fsyncs issued by appends over this writer's lifetime
    /// (rotation keeps the count; see [`WalWriter::fsyncs`]).
    fsyncs: u64,
}

impl WalWriter {
    /// Open the writer at the position a [`scan`] reported: append into
    /// the existing tail segment, or create the first segment.
    pub fn open(dir: &Path, sync: SyncPolicy, scan: &LogScan) -> Result<WalWriter, ServeError> {
        match scan.last_segment_start {
            Some(start) => {
                let path = dir.join(segment_file_name(start));
                let file = OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(|e| ServeError::storage(format!("opening {}: {e}", path.display())))?;
                Ok(WalWriter {
                    dir: dir.to_path_buf(),
                    file,
                    segment_start: start,
                    next_lsn: scan.next_lsn,
                    sync,
                    fault: None,
                    poisoned: false,
                    fsyncs: 0,
                })
            }
            None => Self::create_segment(dir, sync, scan.next_lsn),
        }
    }

    fn create_segment(
        dir: &Path,
        sync: SyncPolicy,
        start_lsn: u64,
    ) -> Result<WalWriter, ServeError> {
        let path = dir.join(segment_file_name(start_lsn));
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| ServeError::storage(format!("creating {}: {e}", path.display())))?;
        write_header(&mut file, &path)?;
        file.sync_all()
            .map_err(|e| ServeError::storage(format!("syncing {}: {e}", path.display())))?;
        sync_dir(dir)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            file,
            segment_start: start_lsn,
            next_lsn: start_lsn,
            sync,
            fault: None,
            poisoned: false,
            fsyncs: 0,
        })
    }

    /// The LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Start LSN of the segment currently being appended to.
    pub fn segment_start(&self) -> u64 {
        self.segment_start
    }

    /// Data fsyncs issued by appends since this writer opened (the
    /// `wal_fsyncs` metric). Resets with the process, like
    /// every serving counter; segment rotation does not reset it.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Arm a crash point for the crash-recovery harness; the next append
    /// trips it.
    pub fn inject_fault(&mut self, fault: FaultPoint) {
        self.fault = Some(fault);
    }

    /// Append and commit one record; returns its LSN. With
    /// [`SyncPolicy::Always`] the record is fsynced before this returns —
    /// the caller may then mutate in-memory state knowing replay will
    /// reproduce it.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, ServeError> {
        if self.poisoned {
            return Err(ServeError::storage(
                "WAL writer poisoned by an earlier failed append; reopen to recover",
            ));
        }
        // Enforce the read-side caps at write time: a record that commits
        // but cannot be decoded on the next open would make the directory
        // permanently unrecoverable.
        if record.graph().len() > MAX_NAME_LEN {
            return Err(ServeError::storage(format!(
                "graph name is {} bytes (max {MAX_NAME_LEN})",
                record.graph().len()
            )));
        }
        let payload = encode_record(record);
        if payload.len() > MAX_RECORD_LEN {
            return Err(ServeError::storage(format!(
                "record is {} bytes (max {MAX_RECORD_LEN}); a graph this large \
                 cannot be WAL-logged",
                payload.len()
            )));
        }
        let bytes = frame::encode_frame(&payload);
        if let Some(FaultPoint::TornAppend { keep_bytes }) = self.fault.take() {
            self.poisoned = true;
            let keep = keep_bytes.min(bytes.len());
            self.file
                .write_all(&bytes[..keep])
                .and_then(|()| self.file.sync_data())
                .map_err(|e| ServeError::storage(format!("torn append: {e}")))?;
            self.fsyncs += 1;
            return Err(ServeError::storage(format!(
                "injected crash: append stopped after {keep} of {} bytes",
                bytes.len()
            )));
        }
        self.file
            .write_all(&bytes)
            .map_err(|e| ServeError::storage(format!("appending to WAL: {e}")))?;
        // `Group` appends are OS-buffered here like `Never`; the group
        // leader (in the registry) calls [`WalWriter::sync`] once per
        // window before any writer in the window is acknowledged.
        if self.sync == SyncPolicy::Always {
            self.file
                .sync_data()
                .map_err(|e| ServeError::storage(format!("syncing WAL: {e}")))?;
            self.fsyncs += 1;
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// fsync the tail segment, covering every record appended so far.
    /// The group-commit leader calls this once per window; records in
    /// retired segments were already covered by the durable checkpoint
    /// taken at rotation, so after this returns every assigned LSN is
    /// durable.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file
            .sync_data()
            .map_err(|e| ServeError::storage(format!("syncing WAL: {e}")))?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Start a group-commit sync: returns the current high water and a
    /// duplicated tail-segment handle so the leader can run the fsync
    /// itself *after releasing the log lock* — concurrent writers keep
    /// appending (and queueing for the next sync) while the disk works.
    ///
    /// The returned high water is sampled before the handle escapes, so
    /// a successful `sync_data` on it covers every assigned LSN below
    /// it: later appends land after the sample and are not claimed, and
    /// if a rotation retires the segment mid-sync the retired records
    /// were already made durable by the rotation checkpoint (fsyncing
    /// the stale handle is then a harmless no-op). The fsync is counted
    /// here, at issue time, so the [`WalWriter::fsyncs`] gauge does not
    /// need the lock when the sync completes.
    pub fn begin_group_sync(&mut self) -> Result<(u64, File), ServeError> {
        let file = self
            .file
            .try_clone()
            .map_err(|e| ServeError::storage(format!("duping WAL tail for sync: {e}")))?;
        self.fsyncs += 1;
        Ok((self.next_lsn, file))
    }

    /// Discard the entire log and restart it at `start_lsn`, as if the
    /// directory had been cleanly rotated there. Used by a replica
    /// installing a checkpoint bootstrap from its leader: the shipped
    /// checkpoint covers all history before `start_lsn`, superseding
    /// whatever (older) log the replica had.
    ///
    /// Crash ordering: old segments are removed newest-first *before*
    /// the fresh segment is created, so an interruption leaves either a
    /// front-tiling prefix of the old log (recovery repairs it by
    /// resetting again — the covering checkpoint is already durable) or
    /// no segments at all (recovery synthesizes an empty log at the
    /// checkpoint's LSN). See `Registry`'s replica recovery path.
    pub fn reset_to(&mut self, start_lsn: u64) -> Result<(), ServeError> {
        let mut segments = segment_paths(&self.dir)?;
        segments.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
        for (_, path) in segments {
            std::fs::remove_file(&path)
                .map_err(|e| ServeError::storage(format!("removing {}: {e}", path.display())))?;
        }
        sync_dir(&self.dir)?;
        let fresh = Self::create_segment(&self.dir, self.sync, start_lsn)?;
        let fsyncs = self.fsyncs;
        *self = fresh;
        self.fsyncs = fsyncs;
        Ok(())
    }

    /// Roll to a fresh segment starting at the current `next_lsn` (called
    /// right after a checkpoint covering everything before it) and retire
    /// the fully-covered older segments.
    pub fn rotate(&mut self) -> Result<(), ServeError> {
        let fresh = Self::create_segment(&self.dir, self.sync, self.next_lsn)?;
        let old_start = self.segment_start;
        self.file = fresh.file;
        self.segment_start = fresh.segment_start;
        self.poisoned = false;
        for (start, path) in segment_paths(&self.dir)? {
            if start <= old_start && start != self.segment_start {
                std::fs::remove_file(&path).map_err(|e| {
                    ServeError::storage(format!("retiring {}: {e}", path.display()))
                })?;
            }
        }
        sync_dir(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gee_wal_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Register {
                name: "g".into(),
                shards: 4,
                num_vertices: 3,
                num_classes: 2,
                labels: vec![0, -1, 1],
                edges: vec![(0, 1, 1.0), (1, 2, 2.5)],
            },
            WalRecord::Batch {
                name: "g".into(),
                updates: vec![
                    Update::InsertEdge { u: 0, v: 2, w: 1.0 },
                    Update::SetLabel { v: 1, label: None },
                    Update::SetLabel {
                        v: 1,
                        label: Some(1),
                    },
                    Update::RemoveEdge { u: 0, v: 1, w: 1.0 },
                ],
            },
            WalRecord::Batch {
                name: "g".into(),
                updates: vec![],
            },
            WalRecord::Deregister { name: "g".into() },
        ]
    }

    #[test]
    fn leader_epoch_round_trips_and_rejects_damage() {
        let dir = tmp_dir("epoch");
        assert_eq!(load_leader_epoch(&dir).unwrap(), 0);
        save_leader_epoch(&dir, 7).unwrap();
        assert_eq!(load_leader_epoch(&dir).unwrap(), 7);
        save_leader_epoch(&dir, 8).unwrap();
        assert_eq!(load_leader_epoch(&dir).unwrap(), 8);
        let path = dir.join(LEADER_EPOCH_FILE);
        std::fs::write(&path, b"GEELEPO1\x01").unwrap(); // truncated
        assert!(matches!(
            load_leader_epoch(&dir),
            Err(ServeError::Corrupt { .. })
        ));
        std::fs::write(&path, b"NOTMAGIC\x01\0\0\0\0\0\0\0").unwrap();
        assert!(matches!(
            load_leader_epoch(&dir),
            Err(ServeError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_round_trip() {
        for r in sample_records() {
            let back = decode_record(&encode_record(&r)).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn append_scan_round_trip() {
        let dir = tmp_dir("roundtrip");
        let scan0 = scan(&dir, 0).unwrap();
        assert!(scan0.records.is_empty());
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &scan0).unwrap();
        for (i, r) in sample_records().iter().enumerate() {
            assert_eq!(w.append(r).unwrap(), i as u64);
        }
        let rescan = scan(&dir, 0).unwrap();
        assert_eq!(rescan.next_lsn, 4);
        assert_eq!(
            rescan.records.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        let back: Vec<WalRecord> = rescan.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(back, sample_records());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_append_continues() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &scan(&dir, 0).unwrap()).unwrap();
        let records = sample_records();
        w.append(&records[0]).unwrap();
        w.append(&records[1]).unwrap();
        w.inject_fault(FaultPoint::TornAppend { keep_bytes: 5 });
        let err = w.append(&records[2]).unwrap_err();
        assert!(matches!(err, ServeError::Storage { .. }), "{err}");
        // Poisoned: no further appends.
        assert!(w.append(&records[2]).is_err());
        drop(w);
        let rescan = scan(&dir, 0).unwrap();
        assert_eq!(rescan.next_lsn, 2, "torn record dropped");
        assert!(rescan.truncated_bytes > 0);
        // The log is clean again: appends resume at lsn 2.
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &rescan).unwrap();
        assert_eq!(w.append(&records[2]).unwrap(), 2);
        let rescan = scan(&dir, 0).unwrap();
        assert_eq!(rescan.next_lsn, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_corrupt_not_torn() {
        let dir = tmp_dir("flip");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &scan(&dir, 0).unwrap()).unwrap();
        for r in &sample_records() {
            w.append(r).unwrap();
        }
        drop(w);
        let path = dir.join(segment_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&dir, 0).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_retires_old_segments_and_tiling_is_validated() {
        let dir = tmp_dir("rotate");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &scan(&dir, 0).unwrap()).unwrap();
        let records = sample_records();
        w.append(&records[0]).unwrap();
        w.append(&records[1]).unwrap();
        w.rotate().unwrap();
        assert_eq!(w.segment_start(), 2);
        w.append(&records[2]).unwrap();
        drop(w);
        assert_eq!(segment_paths(&dir).unwrap().len(), 1, "old segment retired");
        // History before lsn 2 is gone: a scan needing lsn 0 must fail.
        let err = scan(&dir, 0).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        // …but a scan that only needs lsn 2 onward succeeds.
        let ok = scan(&dir, 2).unwrap();
        assert_eq!(ok.records.len(), 1);
        assert_eq!(ok.next_lsn, 3);
        // A duplicated segment breaks tiling.
        std::fs::copy(
            dir.join(segment_file_name(2)),
            dir.join(segment_file_name(7)),
        )
        .unwrap();
        let err = scan(&dir, 2).unwrap_err();
        assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_names_are_rejected_before_reaching_the_log() {
        // A record that committed but cannot decode would make the
        // directory unrecoverable, so the cap is enforced on append.
        let dir = tmp_dir("bigname");
        let mut w = WalWriter::open(&dir, SyncPolicy::Always, &scan(&dir, 0).unwrap()).unwrap();
        w.append(&sample_records()[0]).unwrap();
        let err = w
            .append(&WalRecord::Deregister {
                name: "x".repeat(MAX_NAME_LEN + 1),
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Storage { .. }), "{err}");
        drop(w);
        // Nothing of the rejected record reached the log.
        let rescan = scan(&dir, 0).unwrap();
        assert_eq!(rescan.next_lsn, 1);
        assert_eq!(rescan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_payload_decodes_to_typed_error() {
        for bad in [
            &b""[..],
            b"\x09",
            b"\x01\xff\xff\xff\xff",
            b"\x02\x00\x00\x00\x00\xff\xff\xff\xff",
            b"\x03\x02\x00\x00\x00\xff\xfe",
        ] {
            assert!(decode_record(bad).is_err());
        }
        // Trailing bytes after a valid record are corruption too.
        let mut bytes = encode_record(&WalRecord::Deregister { name: "g".into() });
        bytes.push(0);
        assert!(decode_record(&bytes).is_err());
    }
}
