//! WAL-shipping replication: leader → follower log streaming with
//! epoch-consistent replica reads.
//!
//! A **leader** is any durable registry with a
//! [`ReplicationListener`] attached: a second TCP listener, separate
//! from the client-facing [`Server`](crate::Server), that streams the
//! leader's WAL to followers. A **follower** ([`Follower`]) runs its
//! own durable [`Registry`](crate::Registry) in read-only mode, pulls
//! the stream, persists every record through its own WAL *before*
//! applying it, and replays it through the same dirty-tracking apply
//! path recovery uses — so every epoch the follower publishes is
//! fingerprint-identical to the leader's epoch of the same number, and
//! epoch-pinned reads answer byte-identically on either side.
//!
//! # Stream protocol
//!
//! The replication stream is **not** the client wire protocol
//! ([`crate::wire`]): it is a binary stream of length+CRC frames
//! ([`gee_graph::io::frame`] — the same framing the WAL and checkpoint
//! files use on disk), each carrying one [`ReplFrame`]:
//!
//! 1. follower → leader: [`ReplFrame::Hello`] with the stream-protocol
//!    version and the follower's durable high-water LSN (its resume
//!    point — after a crash it simply reconnects with the new high
//!    water);
//! 2. leader → follower, when the requested LSN is behind the
//!    compaction horizon (oldest on-disk segment):
//!    [`ReplFrame::Bootstrap`] followed by one raw frame holding the
//!    leader's latest checkpoint ([`crate::checkpoint::encode`]); the
//!    follower installs it, replacing all local state;
//! 3. leader → follower: [`ReplFrame::Stream`] confirming the first
//!    LSN it will ship, then any number of [`ReplFrame::Record`]s (the
//!    exact WAL record payloads, re-framed) interleaved with
//!    [`ReplFrame::Heartbeat`]s (leader append head + published epochs,
//!    the follower's lag oracle), and finally [`ReplFrame::End`] when
//!    the leader shuts down or cannot continue (e.g. compaction retired
//!    a segment mid-stream — the follower reconnects and bootstraps).
//!
//! Every frame is CRC-checked; a corrupt or torn frame surfaces as
//! [`ServeError::Corrupt`] on the follower and is **never** applied —
//! the follower drops the connection and resumes from its durable high
//! water. `tests/replication_frames.rs` injects torn streams and bit
//! flips to pin this down.
//!
//! # Promotion & fencing
//!
//! Every session carries a **leader epoch**: a monotonically increasing
//! fencing token, durably persisted in each node's data dir (a
//! `leader-epoch` file plus every checkpoint — see
//! [`crate::wal::save_leader_epoch`]) and recovered on open. The
//! follower's [`ReplFrame::Hello`] carries the highest epoch it has
//! ever replicated under; the leader advertises its own epoch on
//! [`ReplFrame::Bootstrap`], [`ReplFrame::Stream`], and every
//! [`ReplFrame::Heartbeat`]. Both sides enforce the same rule —
//! **never follow, and never serve past, a lower epoch**:
//!
//! - a follower that sees a leader advertise an epoch *below* its own
//!   record rejects the session with the typed
//!   [`ServeError::StaleLeader`] before applying anything;
//! - a leader greeted by a follower claiming a *higher* epoch has been
//!   deposed: it self-fences ([`crate::Registry::fenced_by`]) — writes
//!   are refused with [`ServeError::StaleLeader`], every follower
//!   connection is ended, and the fenced state is surfaced through
//!   `replication_report()` in the Stats/Metrics `replication` block.
//!
//! [`Follower::promote`] turns a follower into the new leader: it stops
//! the pull loop at the durable high water, bumps and persists the
//! epoch, flips the registry writable, and (optionally) warms a
//! [`ReplicationListener`] so surviving followers re-point and resume
//! from their own LSNs. The epoch is mandatory on the wire: a frame
//! without one does not decode, so nothing can be applied unfenced.
//!
//! # Consistency
//!
//! The leader ships records only up to its durable high-water LSN
//! (sampled under the log lock), reading them back from its own
//! segment files — it never ships an unapplied or torn record. The
//! follower appends each record to its own WAL at the *same LSN* (a
//! mismatch is `Corrupt`), then applies it via
//! `Registry::apply_replicated`. Since WAL replay is bit-exact (PR 3's
//! crash harness), leader and follower converge to bit-identical
//! snapshots epoch-for-epoch; `tests/replication.rs` asserts it by
//! snapshot fingerprint under concurrent writer churn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use gee_graph::io::frame::{Cursor, FrameError};

use crate::wal;

pub mod follower;
pub mod leader;

pub use follower::{Follower, Promotion};
pub use leader::ReplicationListener;

/// Identifies a replication Hello; a peer that speaks anything else
/// (e.g. a client wire connection to the wrong port) fails the
/// handshake instead of desynchronizing the stream.
pub const REPL_MAGIC: &[u8; 8] = b"GEEREPL1";

/// The one version of the replication stream protocol this build speaks
/// (independent of the client wire protocol's
/// [`crate::wire::PROTOCOL_VERSION`]); a leader ends any other `Hello`
/// with a typed `End`.
pub const REPL_STREAM_VERSION: u32 = 2;

/// Cap on one replication frame: a WAL record plus framing slack.
/// (The bootstrap checkpoint frame is read under
/// [`crate::checkpoint::MAX_CHECKPOINT_LEN`] instead.)
pub const MAX_REPL_FRAME_LEN: usize = wal::MAX_RECORD_LEN + 64;

const TAG_HELLO: u8 = 1;
const TAG_BOOTSTRAP: u8 = 2;
const TAG_STREAM: u8 = 3;
const TAG_RECORD: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_END: u8 = 6;

/// Longest `End` detail accepted (a peer cannot force a large alloc).
const MAX_DETAIL_LEN: usize = 1 << 16;

/// One frame of the replication stream. See the module docs for the
/// exchange order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplFrame {
    /// Follower → leader: magic + stream version + resume LSN + the
    /// highest leader epoch the follower has durably replicated under.
    Hello {
        version: u32,
        start_lsn: u64,
        max_epoch_seen: u64,
    },
    /// Leader → follower: a checkpoint at `lsn` follows as one raw
    /// frame; install it, then expect `Stream { from_lsn: lsn }`.
    Bootstrap { lsn: u64, leader_epoch: u64 },
    /// Leader → follower: records ship from `from_lsn` (must equal the
    /// follower's high water once any bootstrap is installed).
    Stream { from_lsn: u64, leader_epoch: u64 },
    /// One WAL record: `record` is the exact
    /// [`wal::encode_record`] payload the leader's log holds at `lsn`.
    Record { lsn: u64, record: Vec<u8> },
    /// Leader liveness + lag oracle: the leader's append head and its
    /// published epoch per graph (sorted by name), plus the leader
    /// epoch so a mid-stream deposition is caught at the next beat.
    Heartbeat {
        next_lsn: u64,
        epochs: Vec<(String, u64)>,
        leader_epoch: u64,
    },
    /// The leader is done with this connection (shutdown, or it cannot
    /// serve the requested range); the follower reconnects with
    /// backoff.
    End { detail: String },
}

impl ReplFrame {
    /// Encode to a frame payload (the caller wraps it in length+CRC
    /// framing via [`gee_graph::io::frame::write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        use gee_graph::io::frame::{put_str, put_u32, put_u64, put_u8};
        let mut buf = Vec::new();
        match self {
            ReplFrame::Hello {
                version,
                start_lsn,
                max_epoch_seen,
            } => {
                put_u8(&mut buf, TAG_HELLO);
                buf.extend_from_slice(REPL_MAGIC);
                put_u32(&mut buf, *version);
                put_u64(&mut buf, *start_lsn);
                put_u64(&mut buf, *max_epoch_seen);
            }
            ReplFrame::Bootstrap { lsn, leader_epoch } => {
                put_u8(&mut buf, TAG_BOOTSTRAP);
                put_u64(&mut buf, *lsn);
                put_u64(&mut buf, *leader_epoch);
            }
            ReplFrame::Stream {
                from_lsn,
                leader_epoch,
            } => {
                put_u8(&mut buf, TAG_STREAM);
                put_u64(&mut buf, *from_lsn);
                put_u64(&mut buf, *leader_epoch);
            }
            ReplFrame::Record { lsn, record } => {
                put_u8(&mut buf, TAG_RECORD);
                put_u64(&mut buf, *lsn);
                buf.extend_from_slice(record);
            }
            ReplFrame::Heartbeat {
                next_lsn,
                epochs,
                leader_epoch,
            } => {
                put_u8(&mut buf, TAG_HEARTBEAT);
                put_u64(&mut buf, *next_lsn);
                put_u32(&mut buf, epochs.len() as u32);
                for (name, epoch) in epochs {
                    put_str(&mut buf, name);
                    put_u64(&mut buf, *epoch);
                }
                put_u64(&mut buf, *leader_epoch);
            }
            ReplFrame::End { detail } => {
                put_u8(&mut buf, TAG_END);
                put_str(&mut buf, detail);
            }
        }
        buf
    }

    /// Decode a frame payload. Anything unexpected — unknown tag, bad
    /// magic, trailing bytes — is [`FrameError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<ReplFrame, FrameError> {
        let mut c = Cursor::new(payload);
        match c.take_u8("replication frame tag")? {
            TAG_HELLO => {
                let mut magic = [0u8; 8];
                for b in &mut magic {
                    *b = c.take_u8("replication magic")?;
                }
                if &magic != REPL_MAGIC {
                    return Err(FrameError::malformed(format!(
                        "bad replication magic {magic:02x?}"
                    )));
                }
                let version = c.take_u32("stream version")?;
                let start_lsn = c.take_u64("start lsn")?;
                let max_epoch_seen = c.take_u64("max epoch seen")?;
                c.finish("Hello frame")?;
                Ok(ReplFrame::Hello {
                    version,
                    start_lsn,
                    max_epoch_seen,
                })
            }
            TAG_BOOTSTRAP => {
                let lsn = c.take_u64("bootstrap lsn")?;
                let leader_epoch = c.take_u64("bootstrap leader epoch")?;
                c.finish("Bootstrap frame")?;
                Ok(ReplFrame::Bootstrap { lsn, leader_epoch })
            }
            TAG_STREAM => {
                let from_lsn = c.take_u64("stream start lsn")?;
                let leader_epoch = c.take_u64("stream leader epoch")?;
                c.finish("Stream frame")?;
                Ok(ReplFrame::Stream {
                    from_lsn,
                    leader_epoch,
                })
            }
            TAG_RECORD => {
                let lsn = c.take_u64("record lsn")?;
                // The rest of the payload is the record, verbatim; the
                // outer frame's length (and CRC) already bounds it.
                Ok(ReplFrame::Record {
                    lsn,
                    record: payload[9..].to_vec(),
                })
            }
            TAG_HEARTBEAT => {
                let next_lsn = c.take_u64("heartbeat lsn")?;
                let count = c.take_count(12, "heartbeat epochs")?;
                let mut epochs = Vec::with_capacity(count);
                for _ in 0..count {
                    let name = c.take_str(wal::MAX_NAME_LEN, "graph name")?;
                    let epoch = c.take_u64("graph epoch")?;
                    epochs.push((name, epoch));
                }
                let leader_epoch = c.take_u64("heartbeat leader epoch")?;
                c.finish("Heartbeat frame")?;
                Ok(ReplFrame::Heartbeat {
                    next_lsn,
                    epochs,
                    leader_epoch,
                })
            }
            TAG_END => {
                let detail = c.take_str(MAX_DETAIL_LEN, "end detail")?;
                c.finish("End frame")?;
                Ok(ReplFrame::End { detail })
            }
            tag => Err(FrameError::malformed(format!(
                "unknown replication frame tag {tag}"
            ))),
        }
    }
}

/// Shared live view of a follower's pull loop: the registry reads it to
/// build the `replication` report
/// ([`crate::Registry`]`::replication_report`), tests and operators
/// read it through [`Follower::status`].
pub struct ReplicationStatus {
    leader: String,
    connected: AtomicBool,
    leader_next_lsn: AtomicU64,
    leader_epochs: RwLock<Vec<(String, u64)>>,
    last_error: Mutex<Option<String>>,
    last_end: Mutex<Option<String>>,
    backoff_ms: AtomicU64,
}

impl ReplicationStatus {
    pub(crate) fn new(leader: String) -> ReplicationStatus {
        ReplicationStatus {
            leader,
            connected: AtomicBool::new(false),
            leader_next_lsn: AtomicU64::new(0),
            leader_epochs: RwLock::new(Vec::new()),
            last_error: Mutex::new(None),
            last_end: Mutex::new(None),
            backoff_ms: AtomicU64::new(0),
        }
    }

    /// The leader address this follower replicates from (what the
    /// `ReadOnlyReplica` error tells writers to retry against).
    pub fn leader(&self) -> &str {
        &self.leader
    }

    /// Whether the pull loop currently holds a live leader connection.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
    }

    pub(crate) fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::Release);
        // On disconnect the last heartbeat's head/epochs describe a
        // leader that may no longer exist; clear them so
        // `replication_report()` never presents a dead leader's state
        // as live lag.
        if !connected {
            self.leader_next_lsn.store(0, Ordering::Release);
            self.leader_epochs
                .write()
                .expect("status lock poisoned")
                .clear();
        }
    }

    /// The leader's append head from the last heartbeat (0 before the
    /// first one, and reset to 0 whenever the connection drops).
    pub fn leader_next_lsn(&self) -> u64 {
        self.leader_next_lsn.load(Ordering::Acquire)
    }

    /// The leader's published epochs from the last heartbeat, sorted by
    /// graph name.
    pub fn leader_epochs(&self) -> Vec<(String, u64)> {
        self.leader_epochs
            .read()
            .expect("status lock poisoned")
            .clone()
    }

    pub(crate) fn update_leader(&self, next_lsn: u64, epochs: Vec<(String, u64)>) {
        *self.leader_epochs.write().expect("status lock poisoned") = epochs;
        self.leader_next_lsn.store(next_lsn, Ordering::Release);
    }

    /// The most recent pull-loop failure (the loop keeps reconnecting
    /// regardless; this is for diagnostics). An orderly stream end —
    /// the leader shutting down, a clean failover — is **not** an
    /// error; see [`ReplicationStatus::last_graceful_end`].
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .expect("status lock poisoned")
            .clone()
    }

    pub(crate) fn record_error(&self, error: String) {
        *self.last_error.lock().expect("status lock poisoned") = Some(error);
    }

    /// Detail of the most recent orderly [`ReplFrame::End`] from the
    /// leader (e.g. "leader shutting down"). Tracked separately from
    /// [`ReplicationStatus::last_error`] so operators can tell a clean
    /// failover from a fault.
    pub fn last_graceful_end(&self) -> Option<String> {
        self.last_end.lock().expect("status lock poisoned").clone()
    }

    pub(crate) fn record_end(&self, detail: String) {
        *self.last_end.lock().expect("status lock poisoned") = Some(detail);
    }

    /// The reconnect backoff the pull loop last slept (zero before the
    /// first session ends). A healthy follower of an idle leader stays
    /// at the 100 ms minimum — any successful `Stream` handshake earns
    /// a fresh backoff, whether or not records were shipped.
    pub fn reconnect_backoff(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.backoff_ms.load(Ordering::Acquire))
    }

    pub(crate) fn set_backoff(&self, backoff: std::time::Duration) {
        self.backoff_ms
            .store(backoff.as_millis() as u64, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: ReplFrame) {
        let payload = frame.encode();
        assert_eq!(ReplFrame::decode(&payload).unwrap(), frame);
    }

    #[test]
    fn frames_round_trip() {
        roundtrip(ReplFrame::Hello {
            version: REPL_STREAM_VERSION,
            start_lsn: u64::MAX,
            max_epoch_seen: 17,
        });
        roundtrip(ReplFrame::Bootstrap {
            lsn: 12,
            leader_epoch: 4,
        });
        roundtrip(ReplFrame::Stream {
            from_lsn: 42,
            leader_epoch: u64::MAX,
        });
        roundtrip(ReplFrame::Record {
            lsn: 7,
            record: vec![1, 2, 3, 255, 0],
        });
        roundtrip(ReplFrame::Record {
            lsn: 8,
            record: Vec::new(),
        });
        roundtrip(ReplFrame::Heartbeat {
            next_lsn: 99,
            epochs: vec![("a".into(), 3), ("graph-ü".into(), u64::MAX)],
            leader_epoch: 2,
        });
        roundtrip(ReplFrame::Heartbeat {
            next_lsn: 0,
            epochs: Vec::new(),
            leader_epoch: 0,
        });
        roundtrip(ReplFrame::End {
            detail: "leader shutting down".into(),
        });
    }

    /// The fencing token is mandatory: a frame missing its 8-byte epoch
    /// is a decode error, never "a session without fencing".
    #[test]
    fn epochless_frames_are_malformed() {
        let frames = [
            // Without its epoch, 21 bytes: tag + magic + version +
            // start_lsn.
            ReplFrame::Hello {
                version: 1,
                start_lsn: 9,
                max_epoch_seen: 0,
            },
            ReplFrame::Bootstrap {
                lsn: 12,
                leader_epoch: 0,
            },
            ReplFrame::Stream {
                from_lsn: 42,
                leader_epoch: 0,
            },
            ReplFrame::Heartbeat {
                next_lsn: 99,
                epochs: vec![("a".into(), 3)],
                leader_epoch: 0,
            },
        ];
        for frame in frames {
            let full = frame.encode();
            let epochless = &full[..full.len() - 8];
            assert!(
                matches!(
                    ReplFrame::decode(epochless),
                    Err(FrameError::Malformed { .. })
                ),
                "{frame:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_unknown_tags_are_malformed() {
        let mut hello = ReplFrame::Hello {
            version: 1,
            start_lsn: 5,
            max_epoch_seen: 0,
        }
        .encode();
        hello[3] ^= 0xff; // inside the magic
        assert!(matches!(
            ReplFrame::decode(&hello),
            Err(FrameError::Malformed { .. })
        ));
        assert!(matches!(
            ReplFrame::decode(&[99, 0, 0]),
            Err(FrameError::Malformed { .. })
        ));
        assert!(ReplFrame::decode(&[]).is_err());
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut stream = ReplFrame::Stream {
            from_lsn: 1,
            leader_epoch: 0,
        }
        .encode();
        stream.push(0);
        assert!(matches!(
            ReplFrame::decode(&stream),
            Err(FrameError::Malformed { .. })
        ));
    }
}
