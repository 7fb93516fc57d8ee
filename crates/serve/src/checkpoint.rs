//! Snapshot checkpoints: the full-state shortcut that bounds WAL replay.
//!
//! A checkpoint file captures, for every registered graph, the complete
//! [`DynamicGee`](gee_core::DynamicGee) writer state (`Ẑ` accumulator bit patterns, labels,
//! class counts, the adjacency mirror in insertion order), the published
//! epoch, the shard count, and the `updates_applied` counter — i.e.
//! everything [`Registry`](crate::Registry) recovery needs to continue
//! *bit-identically*, because the published
//! [`Snapshot`](crate::Snapshot) is a deterministic function of writer state and
//! shard layout. WAL records at LSN ≥ the checkpoint's `lsn` are replayed
//! on top; everything older is fully covered and its segments can be
//! retired.
//!
//! # On-disk format
//!
//! One file per checkpoint, named `ckpt-{lsn:016x}.ckpt`:
//!
//! ```text
//! magic    (8 bytes, b"GEECKPT1")
//! version  (u32 LE, = 2)
//! frame    [len u32 LE][crc32 u32 LE][payload]   (io::frame layout)
//! payload  = lsn u64, leader_epoch u64, graph count u32, then per graph:
//!   name (u32 len + UTF-8), shards u32, epoch u64, updates_applied u64,
//!   n u64, K u32, n×K × f64-bits (Ẑ), n × i32 (labels), K × u64 (counts),
//!   per vertex: degree u32, degree × (vertex u32, w f64-bits)
//! ```
//!
//! The per-vertex lists are the writer's flat incident-edge mirror
//! ([`DynamicGeeState`]'s `offsets`/`targets`/`weights`) written list by
//! list; decoding fills those arrays directly. This is the same byte
//! layout builds that kept one `Vec` per vertex wrote, so `VERSION` did
//! not change when the mirror became flat.
//!
//! Checkpoints are written to a temp file, fsynced, then atomically
//! renamed into place — a crash mid-checkpoint leaves no file under the
//! final name, so a checkpoint that *does* exist but fails its CRC or
//! shape checks is disk corruption and surfaces as
//! [`ServeError::Corrupt`], never a panic and never a silently shorter
//! history.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use gee_core::DynamicGeeState;
use gee_graph::io::frame::{self, Cursor, FrameError};

use crate::wal::{sync_dir, MAX_NAME_LEN};
use crate::ServeError;

/// Checkpoint-file magic.
pub const MAGIC: &[u8; 8] = b"GEECKPT1";

/// Checkpoint format version. v2 added `leader_epoch` to the payload
/// (the replication fencing token; see [`crate::replicate`]) — v1 files
/// written by pre-fencing builds are refused as unsupported rather than
/// misread.
pub const VERSION: u32 = 2;

/// Upper bound on a checkpoint payload: the u32 frame-length limit
/// (~4 GiB, enough for ~40M-row states) — it guards the allocation a
/// corrupt length prefix could demand on load, and [`save`] refuses to
/// write anything larger (it would wrap the length prefix and be
/// unloadable).
pub const MAX_CHECKPOINT_LEN: usize = u32::MAX as usize;

/// One graph's durable state inside a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphCheckpoint {
    pub name: String,
    /// Requested shard count (re-clamped by `ShardLayout` on restore,
    /// exactly as registration did).
    pub shards: u32,
    /// Epoch of the published snapshot at checkpoint time.
    pub epoch: u64,
    /// Lifetime applied-update counter (survives restarts; the
    /// query counter intentionally does not — reads are not logged).
    pub updates_applied: u64,
    /// Complete writer state.
    pub state: DynamicGeeState,
}

/// A consistent image of the whole registry at WAL position `lsn`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// WAL records with LSN < `lsn` are covered; replay starts here.
    pub lsn: u64,
    /// The leader epoch (replication fencing token) the registry held
    /// when the checkpoint was taken; recovery takes the max of this
    /// and the `leader-epoch` file, so the token survives the loss of
    /// either. `0` on a node that never led or followed.
    pub leader_epoch: u64,
    /// Every registered graph, in registry iteration order.
    pub graphs: Vec<GraphCheckpoint>,
}

/// File name for a checkpoint covering up to `lsn`.
pub fn file_name(lsn: u64) -> String {
    format!("ckpt-{lsn:016x}.ckpt")
}

fn parse_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    (hex.len() == 16).then(|| u64::from_str_radix(hex, 16).ok())?
}

/// Sorted `(lsn, path)` list of the directory's checkpoint files.
pub fn checkpoint_paths(dir: &Path) -> Result<Vec<(u64, PathBuf)>, ServeError> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
        if let Some(lsn) = parse_file_name(&entry.file_name().to_string_lossy()) {
            out.push((lsn, entry.path()));
        }
    }
    out.sort_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// Encode the checkpoint payload (framing and header are added by
/// [`save`]).
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::new();
    frame::put_u64(&mut buf, ckpt.lsn);
    frame::put_u64(&mut buf, ckpt.leader_epoch);
    frame::put_u32(&mut buf, ckpt.graphs.len() as u32);
    for g in &ckpt.graphs {
        frame::put_str(&mut buf, &g.name);
        frame::put_u32(&mut buf, g.shards);
        frame::put_u64(&mut buf, g.epoch);
        frame::put_u64(&mut buf, g.updates_applied);
        let s = &g.state;
        frame::put_u64(&mut buf, s.num_vertices as u64);
        frame::put_u32(&mut buf, s.num_classes as u32);
        for &z in &s.zhat {
            frame::put_f64(&mut buf, z);
        }
        for &y in &s.labels {
            frame::put_i32(&mut buf, y);
        }
        for &c in &s.class_counts {
            frame::put_u64(&mut buf, c);
        }
        for list in s.offsets.windows(2) {
            frame::put_u32(&mut buf, (list[1] - list[0]) as u32);
            for i in list[0]..list[1] {
                frame::put_u32(&mut buf, s.targets[i]);
                frame::put_f64(&mut buf, s.weights[i]);
            }
        }
    }
    buf
}

/// Decode a checkpoint payload. Every malformation is a typed error.
pub fn decode(payload: &[u8]) -> Result<Checkpoint, FrameError> {
    let mut c = Cursor::new(payload);
    let lsn = c.take_u64("checkpoint lsn")?;
    let leader_epoch = c.take_u64("leader epoch")?;
    let graph_count = c.take_count(1, "graph count")?;
    let mut graphs = Vec::with_capacity(graph_count);
    for _ in 0..graph_count {
        let name = c.take_str(MAX_NAME_LEN, "graph name")?;
        let shards = c.take_u32("shards")?;
        let epoch = c.take_u64("epoch")?;
        let updates_applied = c.take_u64("updates applied")?;
        let n64 = c.take_u64("vertex count")?;
        let k64 = u64::from(c.take_u32("class count")?);
        // Every allocation below must be justified by remaining bytes
        // before it happens — `cells` alone is not enough (n×0 or 0×k is
        // zero cells, yet the labels/counts/adjacency loops still scale
        // with n and k), and an unguarded with_capacity on a corrupt
        // count would panic instead of returning a typed error.
        let remaining = c.remaining() as u64;
        if n64.saturating_mul(k64).saturating_mul(8) > remaining
            || n64.saturating_mul(8) > remaining // labels (4) + adjacency degrees (4)
            || k64.saturating_mul(8) > remaining
        {
            return Err(FrameError::malformed(format!(
                "{n64}×{k64} state overruns payload"
            )));
        }
        let (n, k) = (n64 as usize, k64 as usize);
        let zhat = c
            .take(n * k * 8, "zhat")?
            .chunks_exact(8)
            .map(|cell| f64::from_le_bytes(cell.try_into().expect("8 bytes")))
            .collect();
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(c.take_i32("label")?);
        }
        let mut class_counts = Vec::with_capacity(k);
        for _ in 0..k {
            class_counts.push(c.take_u64("class count")?);
        }
        // The lists go straight into the flat mirror arrays; at 12 bytes
        // an entry, what is left of the payload bounds their length.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(c.remaining() / 12);
        let mut weights = Vec::with_capacity(c.remaining() / 12);
        offsets.push(0);
        for _ in 0..n {
            let deg = c.take_count(12, "degree")?;
            for entry in c.take(deg * 12, "adjacency list")?.chunks_exact(12) {
                let (target, weight) = entry.split_at(4);
                targets.push(u32::from_le_bytes(target.try_into().expect("4 bytes")));
                weights.push(f64::from_le_bytes(weight.try_into().expect("8 bytes")));
            }
            offsets.push(targets.len());
        }
        graphs.push(GraphCheckpoint {
            name,
            shards,
            epoch,
            updates_applied,
            state: DynamicGeeState {
                num_vertices: n,
                num_classes: k,
                zhat,
                labels,
                class_counts,
                offsets,
                targets,
                weights,
            },
        });
    }
    c.finish("checkpoint")?;
    Ok(Checkpoint {
        lsn,
        leader_epoch,
        graphs,
    })
}

/// Write a checkpoint durably: temp file → fsync → atomic rename → fsync
/// of the directory. Returns the final path.
pub fn save(dir: &Path, ckpt: &Checkpoint) -> Result<PathBuf, ServeError> {
    let payload = encode(ckpt);
    if payload.len() > MAX_CHECKPOINT_LEN {
        return Err(ServeError::storage(format!(
            "checkpoint is {} bytes (max {MAX_CHECKPOINT_LEN}); state this large \
             cannot be checkpointed",
            payload.len()
        )));
    }
    let final_path = dir.join(file_name(ckpt.lsn));
    let tmp_path = dir.join(format!("{}.tmp", file_name(ckpt.lsn)));
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)
        .map_err(|e| ServeError::storage(format!("creating {}: {e}", tmp_path.display())))?;
    let io_err =
        |e: std::io::Error| ServeError::storage(format!("writing {}: {e}", tmp_path.display()));
    file.write_all(MAGIC).map_err(io_err)?;
    file.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
    frame::write_frame(&mut file, &payload).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| {
        ServeError::storage(format!(
            "renaming {} → {}: {e}",
            tmp_path.display(),
            final_path.display()
        ))
    })?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Load one checkpoint file, verifying magic, version, CRC, and shape.
pub fn load(path: &Path) -> Result<Checkpoint, ServeError> {
    let corrupt = |detail: String| ServeError::Corrupt {
        path: path.display().to_string(),
        detail,
    };
    let mut file = File::open(path)
        .map_err(|e| ServeError::storage(format!("opening {}: {e}", path.display())))?;
    let mut head = [0u8; 12];
    file.read_exact(&mut head).map_err(|e| {
        // A short file is damage (rename makes partial writes
        // unreachable); any other I/O failure is transient storage
        // trouble, not evidence of corruption.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt(format!("header unreadable: {e}"))
        } else {
            ServeError::storage(format!("reading {}: {e}", path.display()))
        }
    })?;
    if &head[..8] != MAGIC {
        return Err(corrupt("bad magic; not a GEECKPT1 file".into()));
    }
    let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported checkpoint version {version} (this build speaks {VERSION})"
        )));
    }
    let payload = frame::read_frame(&mut file, MAX_CHECKPOINT_LEN).map_err(|e| match e {
        FrameError::Io(e) => ServeError::storage(format!("reading {}: {e}", path.display())),
        e => corrupt(format!("body: {e}")),
    })?;
    decode(&payload).map_err(|e| corrupt(format!("body: {e}")))
}

/// Load the newest checkpoint under `dir`, or `None` if there is none.
pub fn load_latest(dir: &Path) -> Result<Option<(Checkpoint, PathBuf)>, ServeError> {
    match checkpoint_paths(dir)?.pop() {
        Some((_, path)) => Ok(Some((load(&path)?, path))),
        None => Ok(None),
    }
}

/// Delete orphaned `*.ckpt.tmp` files — the leftovers of a crash between
/// a checkpoint's temp write and its atomic rename. Nothing ever reads
/// one (`checkpoint_paths` ignores the suffix), so without this sweep
/// each such crash would leak a state-sized file forever. Called by
/// recovery before anything else touches the directory.
pub fn sweep_orphaned_temps(dir: &Path) -> Result<(), ServeError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::storage(format!("reading {}: {e}", dir.display())))?;
        if entry.file_name().to_string_lossy().ends_with(".ckpt.tmp") {
            let path = entry.path();
            std::fs::remove_file(&path)
                .map_err(|e| ServeError::storage(format!("sweeping {}: {e}", path.display())))?;
        }
    }
    Ok(())
}

/// Delete checkpoints older than `keep_lsn` (called after a newer one is
/// durably in place).
pub fn retire_older_than(dir: &Path, keep_lsn: u64) -> Result<(), ServeError> {
    for (lsn, path) in checkpoint_paths(dir)? {
        if lsn < keep_lsn {
            std::fs::remove_file(&path)
                .map_err(|e| ServeError::storage(format!("retiring {}: {e}", path.display())))?;
        }
    }
    sync_dir(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_core::{DynamicGee, Labels};
    use gee_graph::EdgeList;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gee_ckpt_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Checkpoint {
        let el = gee_gen::erdos_renyi_gnm(40, 160, 5);
        let labels = Labels::from_options_with_k(
            &(0..40)
                .map(|v| (v % 3 == 0).then_some(v as u32 % 4))
                .collect::<Vec<_>>(),
            4,
        );
        let mut dg = DynamicGee::new(&el, &labels);
        dg.insert_edge(0, 1, 2.5);
        dg.set_label(2, Some(1));
        Checkpoint {
            lsn: 17,
            leader_epoch: 3,
            graphs: vec![
                GraphCheckpoint {
                    name: "main".into(),
                    shards: 4,
                    epoch: 9,
                    updates_applied: 123,
                    state: dg.export_state(),
                },
                GraphCheckpoint {
                    name: "empty".into(),
                    shards: 1,
                    epoch: 0,
                    updates_applied: 0,
                    state: DynamicGee::new(
                        &EdgeList::new_unchecked(0, vec![]),
                        &Labels::from_options_with_k(&[], 1),
                    )
                    .export_state(),
                },
            ],
        }
    }

    #[test]
    fn payload_round_trips() {
        let ckpt = sample();
        assert_eq!(decode(&encode(&ckpt)).unwrap(), ckpt);
    }

    /// The byte layout, pinned: a 4-vertex state with a duplicate edge, a
    /// self-loop and an empty list encodes to exactly these bytes.
    #[test]
    fn payload_bytes_are_pinned() {
        let el = EdgeList::new_unchecked(
            4,
            vec![
                gee_graph::Edge::new(0, 1, 1.0),
                gee_graph::Edge::new(0, 1, 1.0),
                gee_graph::Edge::new(2, 2, 0.5),
            ],
        );
        let labels = Labels::from_options_with_k(&[Some(0), Some(1), None, Some(0)], 2);
        let ckpt = Checkpoint {
            lsn: 1,
            leader_epoch: 2,
            graphs: vec![GraphCheckpoint {
                name: "g".into(),
                shards: 3,
                epoch: 4,
                updates_applied: 5,
                state: DynamicGee::new(&el, &labels).export_state(),
            }],
        };
        const ZERO: [u8; 8] = [0; 8];
        const TWO: [u8; 8] = [0, 0, 0, 0, 0, 0, 0, 0x40];
        const ONE: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xF0, 0x3F];
        const HALF: [u8; 8] = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
        let expected: Vec<u8> = [
            &[1, 0, 0, 0, 0, 0, 0, 0][..], // lsn
            &[2, 0, 0, 0, 0, 0, 0, 0],     // leader epoch
            &[1, 0, 0, 0],                 // one graph
            &[1, 0, 0, 0, b'g'],           // name
            &[3, 0, 0, 0],                 // shards
            &[4, 0, 0, 0, 0, 0, 0, 0],     // epoch
            &[5, 0, 0, 0, 0, 0, 0, 0],     // updates applied
            &[4, 0, 0, 0, 0, 0, 0, 0],     // n
            &[2, 0, 0, 0],                 // K
            // Ẑ, row by row: the duplicate edge twice into (0, Y(1)) and
            // (1, Y(0)); the self-loop's endpoint is unlabeled.
            &ZERO,
            &TWO,
            &TWO,
            &ZERO,
            &ZERO,
            &ZERO,
            &ZERO,
            &ZERO,
            &[0, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0], // labels
            &[2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0],             // class counts
            // Vertex 0: degree 2, (1, 1.0) twice.
            &[2, 0, 0, 0, 1, 0, 0, 0],
            &ONE,
            &[1, 0, 0, 0],
            &ONE,
            // Vertex 1: degree 2, (0, 1.0) twice.
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &ONE,
            &[0, 0, 0, 0],
            &ONE,
            // Vertex 2: the self-loop, (2, 0.5) twice.
            &[2, 0, 0, 0, 2, 0, 0, 0],
            &HALF,
            &[2, 0, 0, 0],
            &HALF,
            &[0, 0, 0, 0], // vertex 3: no entries
        ]
        .concat();
        assert_eq!(encode(&ckpt), expected);
        assert_eq!(decode(&expected).unwrap(), ckpt);
    }

    #[test]
    fn save_load_latest_and_retire() {
        let dir = tmp_dir("saveload");
        let mut old = sample();
        old.lsn = 3;
        save(&dir, &old).unwrap();
        let ckpt = sample();
        save(&dir, &ckpt).unwrap();
        let (latest, path) = load_latest(&dir).unwrap().unwrap();
        assert_eq!(latest, ckpt);
        assert_eq!(path, dir.join(file_name(17)));
        retire_older_than(&dir, 17).unwrap();
        assert_eq!(checkpoint_paths(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmp_dir("none");
        assert!(load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_counts_with_zero_cells_are_typed_errors_not_panics() {
        // n×0 or 0×k makes `cells` zero, but labels/counts/adjacency
        // still scale with n and k — a crafted payload must not reach
        // with_capacity. (Regression: capacity-overflow panic.)
        for (n, k) in [(u64::MAX, 0u32), (0, u32::MAX), (u64::MAX / 8, 1)] {
            let mut payload = Vec::new();
            frame::put_u64(&mut payload, 1); // lsn
            frame::put_u64(&mut payload, 0); // leader epoch
            frame::put_u32(&mut payload, 1); // one graph
            frame::put_str(&mut payload, "g");
            frame::put_u32(&mut payload, 4); // shards
            frame::put_u64(&mut payload, 0); // epoch
            frame::put_u64(&mut payload, 0); // updates_applied
            frame::put_u64(&mut payload, n);
            frame::put_u32(&mut payload, k);
            let err = decode(&payload).unwrap_err();
            assert!(
                matches!(err, FrameError::Malformed { .. }),
                "n={n} k={k}: {err}"
            );
        }
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let dir = tmp_dir("corrupt");
        let ckpt = sample();
        let path = save(&dir, &ckpt).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one byte at a time across header, frame header, and body.
        for i in [0usize, 9, 13, 20, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { .. }),
                "flip at {i}: {err}"
            );
        }
        // Truncations corrupt a checkpoint too (rename makes partial
        // files unreachable, so a short file is damage, not a torn write).
        for cut in [5usize, 12, 30, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, ServeError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
        }
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load(&path).unwrap(), ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }
}
