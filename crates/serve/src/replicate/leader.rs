//! Leader side: a TCP listener that streams the registry's WAL to
//! followers.
//!
//! Each follower connection gets its own thread (the same accept-loop
//! scaffolding the client [`Server`](crate::Server) uses). The ship
//! loop samples the durable high-water LSN under the log lock, reads
//! the records below it back from the leader's own segment files —
//! appends hit the OS page cache unbuffered, so a record is readable
//! the moment its LSN is assigned — and re-frames them onto the
//! socket. Compaction can retire a segment mid-stream; the loop then
//! ends the connection cleanly and the follower reconnects, landing on
//! the bootstrap path.

use std::fs::File;
use std::io::{Seek, SeekFrom};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gee_graph::io::frame::{self, FrameError};

use crate::metrics::ServeMetrics;
use crate::registry::Registry;
use crate::server::{spawn_accept_loop, ServerHandle};
use crate::{checkpoint, wal, ServeError};

use super::{ReplFrame, MAX_REPL_FRAME_LEN, REPL_STREAM_VERSION};

/// How often an idle leader proves liveness (and refreshes the
/// follower's lag oracle).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Idle poll cadence while caught up.
const POLL: Duration = Duration::from_millis(20);

/// The replication listener: attach to a durable [`Registry`] and
/// serve the WAL stream to any number of followers until shut down.
/// Dropping the listener shuts it down (in-flight connections get an
/// [`ReplFrame::End`] at their next loop turn).
pub struct ReplicationListener {
    handle: ServerHandle,
}

impl ReplicationListener {
    /// Bind `addr` and serve follower connections on background
    /// threads. The registry must be durable (the WAL *is* the stream)
    /// and must not itself be a replica (no chaining — promote first).
    pub fn listen(
        registry: Arc<Registry>,
        addr: impl ToSocketAddrs,
    ) -> Result<ReplicationListener, ServeError> {
        if !registry.is_durable() {
            return Err(ServeError::storage(
                "replication requires a durable (WAL) registry: there is no log to ship",
            ));
        }
        if registry.is_replica() {
            return Err(ServeError::storage(
                "cannot attach a replication listener to a replica (chaining is unsupported)",
            ));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| ServeError::storage(format!("binding replication listener: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::storage(format!("replication listener addr: {e}")))?;
        registry
            .serve_metrics()
            .replicating
            .store(true, Ordering::Release);
        let stop = Arc::new(AtomicBool::new(false));
        let conn_stop = stop.clone();
        let accept_thread = spawn_accept_loop(listener, stop.clone(), None, move |stream| {
            let _gauge = ConnGauge::attach(registry.serve_metrics());
            // A follower-caused failure ends only this connection; the
            // follower reconnects with backoff.
            let _ = serve_follower(&registry, stream, &conn_stop);
        });
        Ok(ReplicationListener {
            handle: ServerHandle::from_parts(local_addr, stop, accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Stop accepting and end follower connections.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// RAII increment of the `follower_conns` gauge.
struct ConnGauge<'a> {
    metrics: &'a ServeMetrics,
}

impl<'a> ConnGauge<'a> {
    fn attach(metrics: &'a ServeMetrics) -> ConnGauge<'a> {
        metrics.follower_conns.fetch_add(1, Ordering::AcqRel);
        ConnGauge { metrics }
    }
}

impl Drop for ConnGauge<'_> {
    fn drop(&mut self) {
        self.metrics.follower_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

fn send(stream: &mut TcpStream, frame: &ReplFrame) -> Result<(), ServeError> {
    frame::write_frame(stream, &frame.encode())
        .map_err(|e| ServeError::storage(format!("replication send: {e}")))
}

/// Best-effort `End` before closing: the socket may already be gone.
fn end(stream: &mut TcpStream, detail: &str) {
    let _ = frame::write_frame(
        stream,
        &ReplFrame::End {
            detail: detail.to_string(),
        }
        .encode(),
    );
}

/// Drive one follower connection: handshake, optional bootstrap, then
/// ship records and heartbeats until the leader stops or the range
/// becomes unservable.
fn serve_follower(
    registry: &Arc<Registry>,
    mut stream: TcpStream,
    stop: &AtomicBool,
) -> Result<(), ServeError> {
    let _ = stream.set_nodelay(true);
    // Bound the handshake read so an idle connection cannot pin this
    // thread past shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let hello = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN)
        .map_err(|e| ServeError::protocol(format!("replication handshake: {e}")))?;
    let mut next = match ReplFrame::decode(&hello) {
        Ok(ReplFrame::Hello {
            version: REPL_STREAM_VERSION,
            start_lsn,
            max_epoch_seen,
        }) => {
            // The deposed-leader self-fence: a follower that has
            // durably seen a newer leader epoch proves we were
            // superseded while partitioned. Fence before shipping a
            // single record — a stale leader's log may already have
            // forked from the new epoch's history.
            if max_epoch_seen > registry.leader_epoch() {
                registry.fence(max_epoch_seen);
                end(
                    &mut stream,
                    &format!(
                        "leader fenced: follower has seen epoch {max_epoch_seen}, \
                         this leader is at epoch {}",
                        registry.leader_epoch()
                    ),
                );
                return Err(ServeError::StaleLeader {
                    leader_epoch: registry.leader_epoch(),
                    seen_epoch: max_epoch_seen,
                });
            }
            start_lsn
        }
        Ok(ReplFrame::Hello { version, .. }) => {
            end(
                &mut stream,
                &format!("unsupported stream version {version}"),
            );
            return Err(ServeError::protocol(format!(
                "replication stream version {version} (this build speaks \
                 {REPL_STREAM_VERSION})"
            )));
        }
        Ok(_) | Err(_) => {
            end(&mut stream, "first frame must be a replication Hello");
            return Err(ServeError::protocol(
                "replication connection did not start with Hello",
            ));
        }
    };
    // A leader fenced by an earlier connection must not serve late
    // followers either: they would replicate a superseded history.
    if let Some(seen) = registry.fenced_by() {
        end(
            &mut stream,
            &format!("leader fenced by epoch {seen}; re-point at the new leader"),
        );
        return Err(ServeError::StaleLeader {
            leader_epoch: registry.leader_epoch(),
            seen_epoch: seen,
        });
    }
    let my_epoch = registry.leader_epoch();
    let dir = registry.data_dir().expect("listener requires durability");
    let high = registry
        .wal_high_water()
        .expect("listener requires durability");
    if next > high {
        end(
            &mut stream,
            &format!("follower at lsn {next} is ahead of leader at {high}"),
        );
        return Ok(());
    }
    // Bootstrap when the follower is behind the compaction horizon: the
    // oldest on-disk segment is the stream floor (after a rotation it
    // starts exactly at the covering checkpoint's LSN).
    let floor = wal::segment_paths(&dir)?.first().map_or(0, |&(lsn, _)| lsn);
    if next < floor {
        let Some((ckpt, _)) = checkpoint::load_latest(&dir)? else {
            end(&mut stream, "leader has no checkpoint to bootstrap from");
            return Err(ServeError::storage(
                "compacted WAL without a checkpoint: cannot serve replication bootstrap",
            ));
        };
        send(
            &mut stream,
            &ReplFrame::Bootstrap {
                lsn: ckpt.lsn,
                leader_epoch: my_epoch,
            },
        )?;
        frame::write_frame(&mut stream, &checkpoint::encode(&ckpt))
            .map_err(|e| ServeError::storage(format!("shipping bootstrap checkpoint: {e}")))?;
        next = ckpt.lsn;
    }
    send(
        &mut stream,
        &ReplFrame::Stream {
            from_lsn: next,
            leader_epoch: my_epoch,
        },
    )?;
    let metrics = registry.serve_metrics();
    let mut last_beat = None::<Instant>;
    loop {
        if stop.load(Ordering::SeqCst) {
            end(&mut stream, "leader shutting down");
            return Ok(());
        }
        // Another connection may have fenced us mid-stream; stop
        // shipping a superseded history immediately.
        if let Some(seen) = registry.fenced_by() {
            end(
                &mut stream,
                &format!("leader fenced by epoch {seen}; re-point at the new leader"),
            );
            return Err(ServeError::StaleLeader {
                leader_epoch: registry.leader_epoch(),
                seen_epoch: seen,
            });
        }
        let high = registry
            .wal_high_water()
            .expect("listener requires durability");
        if next < high {
            match ship_range(metrics, &dir, &mut stream, next, high) {
                Ok(shipped_to) => next = shipped_to,
                Err(detail) => {
                    // Typically compaction retired a segment under us;
                    // the follower reconnects and bootstraps.
                    end(&mut stream, &detail);
                    return Err(ServeError::storage(detail));
                }
            }
            last_beat = None; // heartbeat immediately after catching up
        }
        if last_beat.is_none_or(|t| t.elapsed() >= HEARTBEAT_EVERY) {
            send(
                &mut stream,
                &ReplFrame::Heartbeat {
                    next_lsn: high,
                    epochs: registry.published_epochs(),
                    leader_epoch: my_epoch,
                },
            )?;
            last_beat = Some(Instant::now());
        }
        std::thread::sleep(POLL);
    }
}

/// Ship records `[from, to)` from the on-disk segments. Returns the
/// next LSN to ship (= `to`), or a human-readable reason the range is
/// unservable.
fn ship_range(
    metrics: &ServeMetrics,
    dir: &Path,
    stream: &mut TcpStream,
    from: u64,
    to: u64,
) -> Result<u64, String> {
    let segments = wal::segment_paths(dir).map_err(|e| format!("listing segments: {e}"))?;
    // The segment holding `from` is the last one starting at or below
    // it; earlier segments are fully below the range.
    let first = segments.partition_point(|&(start, _)| start <= from);
    if first == 0 {
        return Err(format!("no segment covers lsn {from} (compacted away)"));
    }
    let mut next = from;
    for (start, path) in &segments[first - 1..] {
        if next >= to {
            break;
        }
        if *start > next {
            return Err(format!(
                "segment gap: need lsn {next}, next segment starts at {start}"
            ));
        }
        let mut file = File::open(path)
            .map_err(|e| format!("opening {} (compacted?): {e}", path.display()))?;
        file.seek(SeekFrom::Start(wal::HEADER_LEN))
            .map_err(|e| format!("seeking past header of {}: {e}", path.display()))?;
        let mut reader = std::io::BufReader::new(file);
        let mut lsn = *start;
        while next < to {
            match frame::read_frame(&mut reader, wal::MAX_RECORD_LEN) {
                Ok(payload) => {
                    if lsn == next {
                        ship_record(metrics, stream, lsn, payload)?;
                        next += 1;
                    }
                    lsn += 1;
                }
                // Segment exhausted; the next one continues the range.
                // (A torn tail can only exist beyond the sampled high
                // water, which the `next < to` bound never reaches.)
                Err(FrameError::Eof) => break,
                Err(e) => return Err(format!("reading {} at lsn {lsn}: {e}", path.display())),
            }
        }
    }
    if next < to {
        return Err(format!(
            "segments end at lsn {next}, expected records through {to}"
        ));
    }
    Ok(next)
}

fn ship_record(
    metrics: &ServeMetrics,
    stream: &mut TcpStream,
    lsn: u64,
    record: Vec<u8>,
) -> Result<(), String> {
    let bytes = record.len() as u64;
    let payload = ReplFrame::Record { lsn, record }.encode();
    frame::write_frame(&mut *stream, &payload).map_err(|e| format!("shipping lsn {lsn}: {e}"))?;
    metrics.shipped_records.fetch_add(1, Ordering::Relaxed);
    metrics.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
    Ok(())
}
