//! Transport abstraction: how encoded wire frames cross a boundary.
//!
//! [`Transport`] is the one seam between the typed protocol
//! ([`crate::wire`]) and bytes-in-flight. Two implementations ship:
//!
//! * [`duplex`] — an in-process pair connected by channels. Frames move
//!   as owned `Vec<u8>`s with no copying and no framing bytes, which
//!   makes it the zero-overhead harness for tests, property checks, and
//!   the benchmark's `transport.duplex_rtt_us` (it isolates encode/decode
//!   cost from kernel socket cost).
//! * [`TcpTransport`] — a buffered `TcpStream` where each frame is
//!   length-prefixed with a big-endian `u32`. `TCP_NODELAY` is set so
//!   small request frames are not Nagle-delayed behind earlier replies.
//!
//! `recv` distinguishes a *clean* close (peer finished between frames →
//! `Ok(None)`) from a *torn* one (EOF mid-frame → `Protocol` error), so
//! callers can tell an orderly goodbye from a crashed peer.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::wire::MAX_FRAME_LEN;
use crate::ServeError;

/// A bidirectional, blocking frame pipe.
pub trait Transport: Send {
    /// Send one encoded frame.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ServeError>;

    /// Receive the next frame; `Ok(None)` means the peer closed cleanly.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError>;
}

// ----------------------------------------------------------- in-process

/// One end of an in-process transport pair (see [`duplex`]).
pub struct DuplexTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// A connected pair of in-process transports: frames sent on one end
/// arrive on the other, zero-copy, in order. Dropping an end reads as a
/// clean close on its peer.
pub fn duplex() -> (DuplexTransport, DuplexTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        DuplexTransport { tx: a_tx, rx: a_rx },
        DuplexTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for DuplexTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ServeError> {
        self.tx
            .send(frame)
            .map_err(|_| ServeError::transport("duplex peer closed"))
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        // A disconnected channel is the duplex notion of a clean close.
        Ok(self.rx.recv().ok())
    }
}

// ------------------------------------------------------------------ TCP

/// Length-prefix framing over a buffered `TcpStream`.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpTransport {
    /// Connect to a listening [`Server`](crate::Server).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpTransport, ServeError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ServeError::transport(format!("connect: {e}")))?;
        Self::from_stream(stream)
    }

    /// Wrap an accepted stream.
    pub fn from_stream(stream: TcpStream) -> Result<TcpTransport, ServeError> {
        stream
            .set_nodelay(true)
            .map_err(|e| ServeError::transport(format!("set_nodelay: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| ServeError::transport(format!("clone stream: {e}")))?;
        Ok(TcpTransport {
            reader: BufReader::new(stream),
            writer: BufWriter::new(writer),
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), ServeError> {
        if frame.len() > MAX_FRAME_LEN {
            return Err(ServeError::protocol(format!(
                "refusing to send {}-byte frame (max {MAX_FRAME_LEN})",
                frame.len()
            )));
        }
        let send = |e: std::io::Error| ServeError::transport(format!("send: {e}"));
        self.writer
            .write_all(&(frame.len() as u32).to_be_bytes())
            .map_err(send)?;
        self.writer.write_all(&frame).map_err(send)?;
        self.writer.flush().map_err(send)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, ServeError> {
        // First prefix byte by hand so clean EOF (0 bytes) is
        // distinguishable from a frame torn mid-read. Retry EINTR like
        // `read_exact` does — a signal must not tear the connection.
        let mut prefix = [0u8; 4];
        let n = loop {
            match self.reader.read(&mut prefix[..1]) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServeError::transport(format!("recv: {e}"))),
            }
        };
        if n == 0 {
            return Ok(None);
        }
        let torn = |e: std::io::Error| ServeError::protocol(format!("frame torn mid-read: {e}"));
        self.reader.read_exact(&mut prefix[1..]).map_err(torn)?;
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServeError::protocol(format!(
                "peer announced {len}-byte frame (max {MAX_FRAME_LEN})"
            )));
        }
        let mut frame = vec![0u8; len];
        self.reader.read_exact(&mut frame).map_err(torn)?;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn duplex_round_trips_in_order() {
        let (mut a, mut b) = duplex();
        a.send(b"one".to_vec()).unwrap();
        a.send(b"two".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"one");
        b.send(b"reply".to_vec()).unwrap();
        assert_eq!(b.recv().unwrap().unwrap(), b"two");
        assert_eq!(a.recv().unwrap().unwrap(), b"reply");
        drop(a);
        assert_eq!(b.recv().unwrap(), None, "dropped peer reads as clean close");
        assert!(matches!(b.send(vec![1]), Err(ServeError::Transport { .. })));
    }

    #[test]
    fn tcp_frames_round_trip_and_eof_is_clean() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::from_stream(stream).unwrap();
            while let Some(frame) = t.recv().unwrap() {
                t.send(frame).unwrap(); // echo
            }
        });
        let mut t = TcpTransport::connect(addr).unwrap();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![0xAB; 1], vec![7; 100_000]];
        for p in &payloads {
            t.send(p.clone()).unwrap();
        }
        for p in &payloads {
            assert_eq!(&t.recv().unwrap().unwrap(), p, "echoed in order");
        }
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn tcp_rejects_oversized_announcements() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // An adversarial 4 GiB length prefix, then nothing.
            s.write_all(&u32::MAX.to_be_bytes()).unwrap();
            s.flush().unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_stream(stream).unwrap();
        assert!(matches!(t.recv(), Err(ServeError::Protocol { .. })));
        drop(client.join().unwrap());
    }

    #[test]
    fn tcp_torn_frame_is_a_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Announce 100 bytes, deliver 3, hang up.
            s.write_all(&100u32.to_be_bytes()).unwrap();
            s.write_all(b"abc").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut t = TcpTransport::from_stream(stream).unwrap();
        assert!(matches!(t.recv(), Err(ServeError::Protocol { .. })));
        client.join().unwrap();
    }
}
