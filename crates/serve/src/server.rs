//! Network front end: accept connections, decode batches, feed the
//! engine.
//!
//! [`Server`] is transport-agnostic — [`Server::serve_connection`] drives
//! the full protocol (handshake, batch loop, typed errors) over any
//! [`Transport`], so the same code path is exercised by in-process duplex
//! tests and real sockets. Both it and the TCP front end share one
//! frame-at-a-time state machine (`ConnProtocol`), so the protocol has
//! exactly one implementation regardless of how bytes arrive.
//!
//! [`Server::listen`] adds the TCP shell: a fixed **worker pool** of
//! [`--workers`](Server::listen_with) threads, each multiplexing many
//! nonblocking connections via readiness polling (`poller`).
//! An accept thread hands each new connection to a worker round-robin;
//! the worker owns it until close. Compared to the thread-per-connection
//! design this replaces, idle connections cost a pollfd instead of a
//! thread stack, the thread count is a constant chosen at bind time
//! rather than one per connection ever accepted, and there is no
//! per-burst `JoinHandle` backlog to reap. Connections stay independent;
//! batches *within* one connection still execute in order (the worker
//! services one frame at a time per connection), which is what makes
//! client-side pipelining safe.
//!
//! Epoch-pinned reads (`at_epoch`) and back-pressure need
//! no special handling here: pins resolve inside
//! [`Engine::execute_batch`] against the registry's history ring, and an
//! overloaded write comes back as a per-request
//! [`ServeError::Overloaded`](crate::ServeError::Overloaded) result —
//! the connection itself is never throttled.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::codec::{decode_client_frame, encode_server_frame};
use crate::engine::Engine;
use crate::poller::{self, Interest, Source, WakeRx, Waker};
use crate::transport::Transport;
use crate::wire::{self, ClientFrame, ServerFrame, MAX_FRAME_LEN};
use crate::ServeError;

/// Serves an [`Engine`] over the wire protocol.
#[derive(Clone)]
pub struct Server {
    engine: Arc<Engine>,
}

/// What one connection did, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionReport {
    /// Batch frames answered.
    pub batches: u64,
    /// Individual requests executed across those batches.
    pub requests: u64,
}

/// What [`ConnProtocol::step`] wants done with the connection after one
/// frame.
pub(crate) enum Step {
    /// Send these bytes; the connection stays open.
    Reply(Vec<u8>),
    /// Peer said goodbye: close cleanly, nothing to send.
    Goodbye,
    /// Send these bytes, then close; the error is connection-fatal.
    Fatal(Vec<u8>, ServeError),
}

/// The per-connection protocol state machine, shared by the blocking
/// [`Server::serve_connection`] and the worker pool: one encoded client
/// frame in, one [`Step`] out.
pub(crate) struct ConnProtocol {
    server: Server,
    handshaken: bool,
    report: ConnectionReport,
}

impl ConnProtocol {
    pub(crate) fn new(server: Server) -> ConnProtocol {
        ConnProtocol {
            server,
            handshaken: false,
            report: ConnectionReport {
                batches: 0,
                requests: 0,
            },
        }
    }

    /// Advance the connection by one frame.
    pub(crate) fn step(&mut self, frame: &[u8]) -> Step {
        let frame = match decode_client_frame(frame) {
            Ok(frame) => frame,
            // The stream may be desynchronized; close rather than guess
            // at the next frame boundary.
            Err(error) => return fatal(error),
        };
        match frame {
            ClientFrame::Hello {
                min_version,
                max_version,
            } if !self.handshaken => match wire::negotiate(min_version, max_version) {
                Ok(version) => {
                    self.handshaken = true;
                    Step::Reply(encode_server_frame(&ServerFrame::HelloAck { version }))
                }
                Err(error) => fatal(error),
            },
            _ if !self.handshaken => fatal(ServeError::protocol("first frame must be Hello")),
            ClientFrame::Hello { .. } => {
                fatal(ServeError::protocol("duplicate Hello after handshake"))
            }
            ClientFrame::Batch { id, requests } => self.batch(id, requests),
            ClientFrame::Goodbye => Step::Goodbye,
        }
    }

    fn batch(&mut self, id: u64, requests: Vec<crate::engine::Envelope>) -> Step {
        self.report.batches += 1;
        self.report.requests += requests.len() as u64;
        let num_requests = requests.len();
        let results = self.server.engine.execute_batch(requests);
        let mut frame = encode_server_frame(&ServerFrame::Batch { id, results });
        if frame.len() > MAX_FRAME_LEN {
            // A valid request can legitimately produce an over-cap
            // response (e.g. many EmbedRow queries on a wide embedding).
            // Keep the connection: put a typed error in every result
            // slot so the count still matches and the client can resend
            // in smaller batches.
            let error = ServeError::ResponseTooLarge {
                bytes: frame.len(),
                max_bytes: MAX_FRAME_LEN,
            };
            let results: Vec<Result<crate::engine::Response, ServeError>> =
                (0..num_requests).map(|_| Err(error.clone())).collect();
            frame = encode_server_frame(&ServerFrame::Batch { id, results });
            if frame.len() > MAX_FRAME_LEN {
                // Even the substituted errors overflow (astronomically
                // many requests): fatal.
                return fatal(error);
            }
        }
        Step::Reply(frame)
    }
}

/// A connection-fatal error: tell the peer, then close.
fn fatal(error: ServeError) -> Step {
    let frame = encode_server_frame(&ServerFrame::Error {
        error: error.clone(),
    });
    Step::Fatal(frame, error)
}

impl Server {
    pub fn new(engine: Arc<Engine>) -> Server {
        Server { engine }
    }

    /// The served engine (shared with any in-process callers).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Drive one connection to completion: handshake, then answer batch
    /// frames until the peer says goodbye or closes.
    ///
    /// Returns an error only for connection-fatal conditions (handshake
    /// failure, malformed frame, transport failure); per-request errors
    /// travel back inside `ServerFrame::Batch` results.
    pub fn serve_connection(
        &self,
        transport: &mut dyn Transport,
    ) -> Result<ConnectionReport, ServeError> {
        let mut proto = ConnProtocol::new(self.clone());
        while let Some(frame) = transport.recv()? {
            match proto.step(&frame) {
                Step::Reply(bytes) => transport.send(bytes)?,
                Step::Goodbye => return Ok(proto.report),
                Step::Fatal(bytes, error) => {
                    transport.send(bytes)?;
                    return Err(error);
                }
            }
        }
        if !proto.handshaken {
            return Err(ServeError::protocol("connection closed before Hello"));
        }
        Ok(proto.report)
    }

    /// Bind `addr` and serve connections on the default-sized worker
    /// pool until the returned handle is shut down (or, with
    /// `max_conns`, until that many connections have been accepted and
    /// served).
    pub fn listen(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        max_conns: Option<usize>,
    ) -> std::io::Result<ServerHandle> {
        Self::listen_with(engine, addr, max_conns, default_workers())
    }

    /// [`Server::listen`] with an explicit worker-pool size (`gee serve
    /// --workers N`). Each worker multiplexes its share of the
    /// connections; `workers` is clamped to at least 1.
    pub fn listen_with(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        max_conns: Option<usize>,
        workers: usize,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = Server::new(engine);
        let pool = Arc::new(PoolShared {
            draining: AtomicBool::new(false),
            live: AtomicUsize::new(0),
        });

        let workers = workers.max(1);
        let mut lanes = Vec::with_capacity(workers);
        let mut worker_threads = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (waker, wake_rx) = poller::wake_channel()?;
            let queue: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            lanes.push(Lane {
                waker,
                queue: queue.clone(),
            });
            let server = server.clone();
            let pool = pool.clone();
            worker_threads.push(std::thread::spawn(move || {
                worker_loop(server, pool, queue, wake_rx)
            }));
        }

        let accept_pool = pool.clone();
        let accept_stop = stop.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut accepted = 0usize;
            let mut next_lane = 0usize;
            while max_conns.is_none_or(|m| accepted < m) {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(_) => {
                        // Persistent accept failures (EMFILE under fd
                        // pressure, EINTR storms) must not busy-spin the
                        // core; back off briefly and retry.
                        if accept_stop.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                };
                if accept_stop.load(Ordering::SeqCst) {
                    break; // the shutdown self-connection
                }
                accepted += 1;
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                accept_pool.live.fetch_add(1, Ordering::SeqCst);
                let lane = &lanes[next_lane % lanes.len()];
                next_lane = next_lane.wrapping_add(1);
                lane.queue.lock().expect("lane queue poisoned").push(stream);
                lane.waker.wake();
            }
            // Drain: workers finish their live connections, then exit.
            accept_pool.draining.store(true, Ordering::SeqCst);
            for lane in &lanes {
                lane.waker.wake();
            }
            for t in worker_threads {
                let _ = t.join();
            }
        });

        Ok(ServerHandle {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            pool: Some(PoolStats {
                shared: pool,
                workers,
            }),
        })
    }
}

/// Default worker-pool size: one worker per available core, bounded so
/// a huge machine doesn't spawn hundreds of mostly-idle pollers.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// State shared between the accept thread and every worker.
struct PoolShared {
    /// No more connections will arrive; finish the live ones and exit.
    draining: AtomicBool,
    /// Connections currently owned by some worker (accepted, not yet
    /// closed) — the at-rest gauge the reap regression test watches.
    live: AtomicUsize,
}

/// The accept thread's handle on one worker.
struct Lane {
    waker: Waker,
    queue: Arc<Mutex<Vec<TcpStream>>>,
}

/// One multiplexed connection owned by a worker.
struct Conn {
    stream: TcpStream,
    proto: ConnProtocol,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// No more input will be processed (Goodbye, fatal error, or EOF);
    /// flush `outbuf`, then close.
    closing: bool,
    /// Torn down now, regardless of unflushed output.
    dead: bool,
}

const READ_CHUNK: usize = 64 * 1024;

impl Conn {
    fn new(stream: TcpStream, server: Server) -> Conn {
        Conn {
            stream,
            proto: ConnProtocol::new(server),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            closing: false,
            dead: false,
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: !self.closing,
            writable: !self.outbuf.is_empty(),
        }
    }

    fn finished(&self) -> bool {
        self.dead || (self.closing && self.outbuf.is_empty())
    }

    /// Queue one already-encoded frame behind the transport's
    /// big-endian length prefix (mirrors [`TcpTransport::send`]).
    fn push_frame(&mut self, frame: Vec<u8>) {
        if frame.len() > MAX_FRAME_LEN {
            // Nothing valid can be sent; the peer would reject it too.
            self.dead = true;
            return;
        }
        self.outbuf
            .extend_from_slice(&(frame.len() as u32).to_be_bytes());
        self.outbuf.extend_from_slice(&frame);
    }

    /// Pull whatever the socket has, then run complete frames through
    /// the protocol.
    fn service_readable(&mut self) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF between frames is a clean close; mid-frame,
                    // the peer crashed — either way input is over.
                    self.closing = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.process_frames();
    }

    fn process_frames(&mut self) {
        while !self.closing && self.inbuf.len() >= 4 {
            let len =
                u32::from_be_bytes([self.inbuf[0], self.inbuf[1], self.inbuf[2], self.inbuf[3]])
                    as usize;
            if len > MAX_FRAME_LEN {
                let error = ServeError::protocol(format!(
                    "peer announced {len}-byte frame (max {MAX_FRAME_LEN})"
                ));
                let frame = encode_server_frame(&ServerFrame::Error { error });
                self.push_frame(frame);
                self.closing = true;
                break;
            }
            if self.inbuf.len() < 4 + len {
                break;
            }
            let frame: Vec<u8> = self.inbuf.drain(..4 + len).skip(4).collect();
            match self.proto.step(&frame) {
                Step::Reply(bytes) => self.push_frame(bytes),
                Step::Goodbye => self.closing = true,
                Step::Fatal(bytes, _) => {
                    self.push_frame(bytes);
                    self.closing = true;
                }
            }
        }
    }

    /// Flush as much of `outbuf` as the socket accepts.
    fn service_writable(&mut self) {
        let mut written = 0usize;
        while written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.outbuf.drain(..written);
    }
}

fn worker_loop(
    server: Server,
    pool: Arc<PoolShared>,
    queue: Arc<Mutex<Vec<TcpStream>>>,
    wake: WakeRx,
) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        // Adopt newly-assigned connections.
        for stream in queue.lock().expect("lane queue poisoned").drain(..) {
            conns.push(Conn::new(stream, server.clone()));
        }
        if conns.is_empty() {
            if pool.draining.load(Ordering::SeqCst)
                && queue.lock().expect("lane queue poisoned").is_empty()
            {
                break;
            }
        }

        let mut sources: Vec<(Source<'_>, Interest)> = Vec::with_capacity(conns.len() + 1);
        let wake_slots = match wake.source() {
            Some(source) => {
                sources.push((
                    source,
                    Interest {
                        readable: true,
                        writable: false,
                    },
                ));
                1
            }
            None => 0,
        };
        for conn in &conns {
            sources.push((Source::Tcp(&conn.stream), conn.interest()));
        }
        let ready = poller::wait(&sources, Duration::from_millis(200));
        drop(sources);
        wake.drain();

        for (i, conn) in conns.iter_mut().enumerate() {
            let r = ready[wake_slots + i];
            if r.error {
                // Hangup may still have final bytes queued in the
                // kernel; a read drains them (and observes EOF).
                conn.service_readable();
                if !conn.outbuf.is_empty() {
                    conn.service_writable();
                }
                if conn.closing && !conn.dead && !conn.outbuf.is_empty() {
                    conn.dead = true; // peer is gone; don't wait to flush
                }
                continue;
            }
            if r.writable {
                conn.service_writable();
            }
            if r.readable {
                conn.service_readable();
                // Replies produced by the frames just processed: try an
                // eager flush so the common request→reply cycle needs
                // no second poll round.
                if !conn.outbuf.is_empty() {
                    conn.service_writable();
                }
            }
        }
        let before = conns.len();
        conns.retain(|c| !c.finished());
        let closed = before - conns.len();
        if closed > 0 {
            pool.live.fetch_sub(closed, Ordering::SeqCst);
        }
    }
}

/// TCP accept-loop scaffolding for the replication listener
/// ([`ReplicationListener`](crate::replicate::ReplicationListener)),
/// which keeps thread-per-connection: follower connections are few,
/// long-lived, and block in `send` back-pressure. Accept until `stop`
/// is raised (or `max_conns` connections have been accepted), back off
/// on accept errors, and hand each stream to `handle` on its own
/// thread, reaping finished threads as it goes. Raising `stop` takes
/// effect at the next accept; the owner unblocks the loop with a
/// self-connection (see [`ServerHandle`]).
pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    max_conns: Option<usize>,
    handle: impl Fn(TcpStream) + Clone + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        let mut accepted = 0usize;
        while max_conns.is_none_or(|m| accepted < m) {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            };
            if stop.load(Ordering::SeqCst) {
                break; // the shutdown self-connection
            }
            accepted += 1;
            // Reap handles of finished connections so a long-lived
            // listener doesn't accumulate one JoinHandle per connection
            // ever accepted.
            conn_threads.retain(|t| !t.is_finished());
            let handle = handle.clone();
            conn_threads.push(std::thread::spawn(move || handle(stream)));
        }
        for t in conn_threads {
            let _ = t.join();
        }
    })
}

/// Pool observability carried by the handle.
struct PoolStats {
    shared: Arc<PoolShared>,
    workers: usize,
}

/// Owner of a listening server; dropping it shuts the server down.
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<PoolStats>,
}

impl ServerHandle {
    /// Assemble a handle around an accept loop spawned with
    /// [`spawn_accept_loop`] (used by the replication listener).
    pub(crate) fn from_parts(
        local_addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        accept_thread: JoinHandle<()>,
    ) -> ServerHandle {
        ServerHandle {
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            pool: None,
        }
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Connections currently open on the worker pool (0 for
    /// non-pooled listeners). At rest this returns to 0 no matter how
    /// large the preceding burst — connections are owned by the fixed
    /// workers, not by per-connection threads.
    pub fn live_connections(&self) -> usize {
        self.pool
            .as_ref()
            .map_or(0, |p| p.shared.live.load(Ordering::SeqCst))
    }

    /// Size of the worker pool serving this listener (0 for non-pooled
    /// listeners).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, |p| p.workers)
    }

    /// Stop accepting, wait for in-flight connections to finish.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    /// Wait for the accept loop to end on its own (only terminates when
    /// `listen` was given `max_conns`).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    fn shutdown_in_place(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` so the loop observes the stop flag. A socket
        // bound to an unspecified address (`0.0.0.0:p` / `[::]:p`) is
        // not connectable *to* that address on every platform, so aim
        // the self-connection at the matching loopback instead.
        let mut target = self.local_addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(target);
        let _ = accept_thread.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_server_frame, encode_client_frame};
    use crate::engine::{Envelope, Request};
    use crate::wire::PROTOCOL_VERSION;
    use crate::{duplex, Registry};

    fn server() -> Server {
        Server::new(Arc::new(Engine::new(Arc::new(Registry::new(1)))))
    }

    fn hello(min_version: u32, max_version: u32) -> Vec<u8> {
        encode_client_frame(&ClientFrame::Hello {
            min_version,
            max_version,
        })
    }

    fn batch(id: u64, requests: usize) -> Vec<u8> {
        encode_client_frame(&ClientFrame::Batch {
            id,
            requests: vec![Envelope::new("g", Request::stats()); requests],
        })
    }

    fn reply(proto: &mut ConnProtocol, frame: &[u8]) -> ServerFrame {
        match proto.step(frame) {
            Step::Reply(bytes) => decode_server_frame(&bytes).unwrap(),
            _ => panic!("expected a reply"),
        }
    }

    #[test]
    fn a_connection_is_hello_then_batches_then_goodbye() {
        let mut proto = ConnProtocol::new(server());
        assert_eq!(
            reply(&mut proto, &hello(1, PROTOCOL_VERSION + 2)),
            ServerFrame::HelloAck {
                version: PROTOCOL_VERSION
            }
        );
        // Ids echo in order; each request fails on its own (no graph "g"
        // here) without costing the connection.
        for (id, requests) in [(4, 3), (9, 2)] {
            match reply(&mut proto, &batch(id, requests)) {
                ServerFrame::Batch { id: got, results } => {
                    assert_eq!(got, id);
                    assert_eq!(results.len(), requests);
                    assert!(results.iter().all(Result::is_err));
                }
                other => panic!("expected Batch, got {other:?}"),
            }
        }
        let goodbye = encode_client_frame(&ClientFrame::Goodbye);
        assert!(matches!(proto.step(&goodbye), Step::Goodbye));
        assert_eq!((proto.report.batches, proto.report.requests), (2, 5));
    }

    /// Feed `frames` in order; the last one must be connection-fatal.
    /// Returns what it died of, having checked the peer is told the
    /// same thing in a frame it can decode.
    fn dies_of(frames: &[Vec<u8>]) -> ServeError {
        let mut proto = ConnProtocol::new(server());
        let (last, before) = frames.split_last().unwrap();
        for frame in before {
            assert!(matches!(proto.step(frame), Step::Reply(_)));
        }
        let Step::Fatal(bytes, error) = proto.step(last) else {
            panic!("expected a fatal step");
        };
        assert_eq!(
            decode_server_frame(&bytes).unwrap(),
            ServerFrame::Error {
                error: error.clone()
            }
        );
        error
    }

    #[test]
    fn protocol_violations_are_fatal_and_typed() {
        let current = hello(PROTOCOL_VERSION, PROTOCOL_VERSION);
        let garbage = b"not a frame".to_vec();
        // A well-formed JSON Hello is garbage too: the one codec is the
        // only parser, from the first byte.
        let json_hello = br#"{"Hello":{"min_version":1,"max_version":6}}"#.to_vec();
        let goodbye = encode_client_frame(&ClientFrame::Goodbye);
        for (frames, needle) in [
            (vec![garbage.clone()], "checksum"),
            (vec![json_hello], "checksum"),
            (vec![batch(0, 1)], "first frame must be Hello"),
            (vec![goodbye], "first frame must be Hello"),
            (vec![current.clone(), current.clone()], "duplicate Hello"),
            (vec![current, garbage], "checksum"),
        ] {
            let error = dies_of(&frames);
            assert!(
                matches!(&error, ServeError::Protocol { detail } if detail.contains(needle)),
                "{error}"
            );
        }
        // A range that stops short of this version is refused by name.
        assert_eq!(
            dies_of(&[hello(1, PROTOCOL_VERSION - 1)]),
            ServeError::VersionUnsupported {
                client_min: 1,
                client_max: PROTOCOL_VERSION - 1,
                server_min: PROTOCOL_VERSION,
                server_max: PROTOCOL_VERSION,
            }
        );
    }

    #[test]
    fn hanging_up_before_hello_is_a_protocol_error() {
        let (mut server_end, client_end) = duplex();
        drop(client_end);
        let served = server().serve_connection(&mut server_end);
        assert_eq!(
            served,
            Err(ServeError::protocol("connection closed before Hello"))
        );
    }
}
