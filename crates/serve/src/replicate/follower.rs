//! Follower side: a read-only replica that pulls the leader's WAL
//! stream.
//!
//! [`Follower::start`] opens a replica-mode durable
//! [`Registry`](crate::Registry) (recovering whatever it already holds)
//! and spawns a pull loop: connect to the leader, send `Hello` with the
//! local durable high-water LSN, then install the bootstrap checkpoint
//! and/or apply streamed records. Every record is WAL-appended locally
//! *before* it is applied (the same commit ordering the leader used),
//! so a crashed follower restarts, recovers its own log, and resumes
//! from exactly where durability left off — no record is ever applied
//! twice or skipped.
//!
//! The loop reconnects with exponential backoff (100 ms doubling to
//! 2 s) on any failure: connection refused, a dead socket, or a corrupt
//! frame. A successful `Stream` handshake resets the backoff — an
//! idle-but-healthy leader is not a fault. Corruption (CRC mismatch, torn
//! frame, undecodable record, LSN discontinuity) is **never applied** —
//! the connection is dropped, the error lands in
//! [`ReplicationStatus::last_error`], and the next attempt resumes from
//! the durable high water. A graceful leader `End` (e.g. orderly
//! shutdown before failover) is tracked separately in
//! [`ReplicationStatus::last_graceful_end`], never as an error.
//!
//! When the leader is gone for good, [`Follower::promote`] turns this
//! replica into the new leader of a bumped, durably-persisted leader
//! epoch (see the crate docs on fencing).

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gee_graph::io::frame::{self, crc32};

use crate::registry::{Registry, RegistryConfig};
use crate::wal::{self, Durability};
use crate::{checkpoint, ServeError};

use super::{
    ReplFrame, ReplicationListener, ReplicationStatus, MAX_REPL_FRAME_LEN, REPL_STREAM_VERSION,
};

const MIN_BACKOFF: Duration = Duration::from_millis(100);
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Socket read timeout: how often a blocked read rechecks the stop
/// flag.
const READ_TICK: Duration = Duration::from_millis(50);

/// A running follower: a read-only replica [`Registry`] plus the pull
/// thread keeping it converged with the leader. Serve reads from it by
/// wrapping [`Follower::registry`] in an
/// [`Engine`](crate::Engine) / [`Server`](crate::Server) as usual;
/// writes are rejected with
/// [`ServeError::ReadOnlyReplica`](crate::ServeError::ReadOnlyReplica).
/// Dropping the follower stops the pull loop (the registry lives on
/// while other `Arc`s hold it).
pub struct Follower {
    registry: Arc<Registry>,
    status: Arc<ReplicationStatus>,
    stop: Arc<AtomicBool>,
    pull_thread: Option<JoinHandle<()>>,
}

impl Follower {
    /// Open a replica registry under `config` (which must be
    /// [`Durability::Wal`] — the local log is the resume point) and
    /// start pulling from `leader` (a `host:port` replication-listener
    /// address).
    pub fn start(
        config: RegistryConfig,
        leader: impl Into<String>,
    ) -> Result<Follower, ServeError> {
        if !matches!(config.durability, Durability::Wal { .. }) {
            return Err(ServeError::storage(
                "a follower requires Durability::Wal: its own log is the replication resume point",
            ));
        }
        let leader = leader.into();
        let status = Arc::new(ReplicationStatus::new(leader.clone()));
        let registry = Arc::new(Registry::open_replica(config, status.clone())?);
        let stop = Arc::new(AtomicBool::new(false));
        let pull_thread = {
            let registry = registry.clone();
            let status = status.clone();
            let stop = stop.clone();
            std::thread::spawn(move || pull_loop(&registry, &status, &stop, &leader))
        };
        Ok(Follower {
            registry,
            status,
            stop,
            pull_thread: Some(pull_thread),
        })
    }

    /// The replica registry (serve reads from it; `at_epoch` pins and
    /// ANN policies work exactly as on the leader).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Live replication status (connection state, leader head, last
    /// error).
    pub fn status(&self) -> &Arc<ReplicationStatus> {
        &self.status
    }

    /// Stop the pull loop and wait for it; the registry remains usable
    /// (read-only, no longer advancing).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Promote this follower to leader: stop the pull loop at the
    /// durable high water, durably bump the leader epoch (the fencing
    /// token every surviving follower will hold the old leader to), and
    /// flip the registry writable. With `replicate: Some(addr)` a fresh
    /// [`ReplicationListener`] is warmed on `addr` so the surviving
    /// followers re-point and resume from their own LSNs.
    ///
    /// Writes the old leader acknowledged but never shipped are **not**
    /// recovered — replication is asynchronous; promotion continues
    /// from this follower's durable history.
    pub fn promote(mut self, replicate: Option<&str>) -> Result<Promotion, ServeError> {
        self.shutdown_in_place();
        let registry = self.registry.clone();
        let epoch = registry.promote_to_leader()?;
        let listener = match replicate {
            Some(addr) => Some(ReplicationListener::listen(registry.clone(), addr)?),
            None => None,
        };
        Ok(Promotion {
            registry,
            epoch,
            listener,
        })
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.pull_thread.take() {
            let _ = t.join();
        }
    }
}

/// The result of [`Follower::promote`]: the same registry, now leading
/// under `epoch` (writes pass; [`Registry::leader_epoch`] reports it),
/// plus the replication listener when one was requested.
pub struct Promotion {
    /// The promoted registry — writable, durable, same data dir.
    pub registry: Arc<Registry>,
    /// The new leader epoch (old epoch + 1, durably persisted before
    /// the first write is accepted).
    pub epoch: u64,
    /// Warm listener for surviving followers to re-point at, when
    /// [`Follower::promote`] was given an address.
    pub listener: Option<ReplicationListener>,
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Reconnect-with-backoff shell around [`pull_once`].
fn pull_loop(
    registry: &Arc<Registry>,
    status: &Arc<ReplicationStatus>,
    stop: &AtomicBool,
    leader: &str,
) {
    let mut backoff = MIN_BACKOFF;
    while !stop.load(Ordering::SeqCst) {
        match pull_once(registry, status, stop, leader) {
            // A session that completed the Stream handshake earns a
            // fresh backoff: the leader was healthy, even if idle — a
            // quiescent leader must not push clean reconnects toward
            // the max backoff.
            Ok(true) => backoff = MIN_BACKOFF,
            Ok(false) => {}
            Err(e) => status.record_error(e.to_string()),
        }
        status.set_connected(false);
        status.set_backoff(backoff);
        // Interruptible backoff sleep.
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        backoff = (backoff * 2).min(MAX_BACKOFF);
    }
}

/// One connection's worth of replication: handshake, then apply frames
/// until the stream ends, something corrupts, or the follower stops.
/// Returns whether the `Stream` handshake completed — the healthy-leader
/// signal the reconnect backoff resets on.
fn pull_once(
    registry: &Arc<Registry>,
    status: &Arc<ReplicationStatus>,
    stop: &AtomicBool,
    leader: &str,
) -> Result<bool, ServeError> {
    let mut stream = TcpStream::connect(leader)
        .map_err(|e| ServeError::storage(format!("connecting to leader {leader}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let start_lsn = registry
        .wal_high_water()
        .expect("followers are always durable");
    frame::write_frame(
        &mut stream,
        &ReplFrame::Hello {
            version: REPL_STREAM_VERSION,
            start_lsn,
            // The fencing half of the handshake: a leader below this
            // epoch self-fences instead of serving us.
            max_epoch_seen: registry.leader_epoch(),
        }
        .encode(),
    )
    .map_err(|e| ServeError::storage(format!("replication hello: {e}")))?;
    let mut streamed = false;
    loop {
        let payload = match read_stream_frame(&mut stream, MAX_REPL_FRAME_LEN, stop, leader)? {
            NetRead::Frame(payload) => payload,
            NetRead::Eof | NetRead::Stopped => return Ok(streamed),
        };
        match ReplFrame::decode(&payload).map_err(|e| corrupt(leader, format!("{e}")))? {
            ReplFrame::Bootstrap { lsn, leader_epoch } => {
                accept_leader_epoch(registry, leader_epoch)?;
                // The checkpoint rides as one raw frame right behind.
                let ckpt_bytes = match read_stream_frame(
                    &mut stream,
                    checkpoint::MAX_CHECKPOINT_LEN,
                    stop,
                    leader,
                )? {
                    NetRead::Frame(p) => p,
                    NetRead::Stopped => return Ok(streamed),
                    NetRead::Eof => {
                        return Err(corrupt(leader, "stream ended inside bootstrap".into()))
                    }
                };
                let ckpt = checkpoint::decode(&ckpt_bytes)
                    .map_err(|e| corrupt(leader, format!("bootstrap checkpoint: {e}")))?;
                if ckpt.lsn != lsn {
                    return Err(corrupt(
                        leader,
                        format!(
                            "bootstrap announced lsn {lsn}, checkpoint is at {}",
                            ckpt.lsn
                        ),
                    ));
                }
                registry.install_bootstrap(ckpt)?;
            }
            ReplFrame::Stream {
                from_lsn,
                leader_epoch,
            } => {
                accept_leader_epoch(registry, leader_epoch)?;
                let local = registry
                    .wal_high_water()
                    .expect("followers are always durable");
                if from_lsn != local {
                    return Err(corrupt(
                        leader,
                        format!("leader streams from lsn {from_lsn}, local log expects {local}"),
                    ));
                }
                streamed = true;
                status.set_connected(true);
            }
            ReplFrame::Record { lsn, record } => {
                // Records are only valid inside a fenced-checked
                // session: a stale leader must not sneak one in before
                // its Stream frame is vetted.
                if !streamed {
                    return Err(corrupt(leader, "record before Stream handshake".into()));
                }
                let record = wal::decode_record(&record)
                    .map_err(|e| corrupt(leader, format!("record at lsn {lsn}: {e}")))?;
                registry.apply_replicated(lsn, &record)?;
            }
            ReplFrame::Heartbeat {
                next_lsn,
                epochs,
                leader_epoch,
            } => {
                accept_leader_epoch(registry, leader_epoch)?;
                status.update_leader(next_lsn, epochs);
            }
            ReplFrame::End { detail } => {
                // An orderly goodbye, not a fault: keep it out of
                // `last_error` so operators can tell a clean failover
                // from a broken stream.
                status.record_end(format!("leader ended stream: {detail}"));
                return Ok(streamed);
            }
            ReplFrame::Hello { .. } => {
                return Err(corrupt(leader, "unexpected Hello from leader".into()));
            }
        }
    }
}

/// Vet the leader epoch advertised on a handshake/heartbeat frame: a
/// stale epoch is the typed split-brain rejection (nothing from this
/// session is applied after it); a newer epoch is durably noted so this
/// follower holds every future leader to it.
fn accept_leader_epoch(registry: &Arc<Registry>, epoch: u64) -> Result<(), ServeError> {
    let seen = registry.leader_epoch();
    if epoch < seen {
        return Err(ServeError::StaleLeader {
            leader_epoch: epoch,
            seen_epoch: seen,
        });
    }
    registry.note_leader_epoch(epoch)
}

fn corrupt(leader: &str, detail: String) -> ServeError {
    ServeError::Corrupt {
        path: format!("replication stream from {leader}"),
        detail,
    }
}

/// Outcome of one interruptible frame read.
enum NetRead {
    Frame(Vec<u8>),
    /// Clean close at a frame boundary.
    Eof,
    /// The follower is shutting down; abandon the connection.
    Stopped,
}

/// Read one `[len][crc32][payload]` frame off a read-timeout socket.
/// Unlike [`frame::read_frame`], read timeouts are not errors — they
/// re-check `stop` and resume, preserving partial progress — so a
/// shutdown never has to wait out a quiet leader. A close *inside* a
/// frame, a CRC mismatch, or an oversized length is `Corrupt`: the
/// torn-stream/bit-flip injection suite pins that none of these ever
/// reach the apply path.
fn read_stream_frame(
    stream: &mut TcpStream,
    max_len: usize,
    stop: &AtomicBool,
    leader: &str,
) -> Result<NetRead, ServeError> {
    let mut head = [0u8; 8];
    match fill(stream, &mut head, stop, leader)? {
        Filled::Full => {}
        Filled::CleanEof => return Ok(NetRead::Eof),
        Filled::TornEof { got } => {
            return Err(corrupt(
                leader,
                format!("torn frame header: stream ended after {got} of 8 bytes"),
            ))
        }
        Filled::Stopped => return Ok(NetRead::Stopped),
    }
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(corrupt(
            leader,
            format!("frame length {len} exceeds cap {max_len}"),
        ));
    }
    let mut payload = vec![0u8; len];
    match fill(stream, &mut payload, stop, leader)? {
        Filled::Full => {}
        Filled::CleanEof | Filled::TornEof { .. } => {
            return Err(corrupt(leader, format!("torn frame: expected {len} bytes")))
        }
        Filled::Stopped => return Ok(NetRead::Stopped),
    }
    let computed = crc32(&payload);
    if computed != stored {
        return Err(corrupt(
            leader,
            format!("checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    Ok(NetRead::Frame(payload))
}

enum Filled {
    Full,
    /// 0 bytes then close: a frame boundary.
    CleanEof,
    /// Close mid-buffer.
    TornEof {
        got: usize,
    },
    Stopped,
}

fn fill(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    leader: &str,
) -> Result<Filled, ServeError> {
    use std::io::ErrorKind;
    let mut filled = 0usize;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return Ok(Filled::Stopped);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    Filled::CleanEof
                } else {
                    Filled::TornEof { got: filled }
                })
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                return Err(ServeError::storage(format!(
                    "replication read from {leader}: {e}"
                )))
            }
        }
    }
    Ok(Filled::Full)
}
