//! Wire protocol: the frame vocabulary and version negotiation.
//!
//! A *frame* is one [`ClientFrame`] or [`ServerFrame`], encoded by
//! [`crate::codec`] — a CRC-checked tagged binary body, the only encoding
//! there is, handshake included. Framing — how frame boundaries are found
//! in a byte stream — belongs to the
//! [`Transport`](crate::transport::Transport): TCP length-prefixes each
//! frame with a big-endian `u32` (capped at [`MAX_FRAME_LEN`]), the
//! in-process duplex moves the encoded `Vec<u8>` through a channel
//! untouched.
//!
//! The server speaks exactly one version, [`PROTOCOL_VERSION`]: every
//! caller (CLI, load generator, followers, the benchmark) is built from
//! this tree, so there is no downlevel peer to stay compatible with.
//! [`negotiate`] accepts any advertised range that contains it and
//! refuses every other with a typed
//! [`ServeError::VersionUnsupported`] naming both ranges.
//!
//! # Connection lifecycle
//!
//! 1. client sends [`ClientFrame::Hello`] advertising the protocol
//!    versions it can speak;
//! 2. server answers [`ServerFrame::HelloAck`] with the negotiated
//!    version, or [`ServerFrame::Error`] with
//!    [`ServeError::VersionUnsupported`] and closes;
//! 3. client sends any number of [`ClientFrame::Batch`] frames — each an
//!    ordered [`Envelope`] batch with a client-chosen `id` — without
//!    waiting for replies (pipelining); the server executes each batch
//!    through [`Engine::execute_batch`](crate::Engine::execute_batch) and
//!    answers [`ServerFrame::Batch`] frames echoing the `id`s in order;
//! 4. client sends [`ClientFrame::Goodbye`] (or just closes) to end the
//!    connection.
//!
//! Per-request failures ride *inside* `ServerFrame::Batch` as
//! `Err(ServeError)` results, identified by the append-only
//! [`ErrorCode`](crate::ErrorCode) registry; `ServerFrame::Error` is
//! reserved for connection-fatal conditions (handshake failure,
//! malformed frame).
//!
//! The leader→follower replication stream does *not* ride this protocol
//! — it is a separate CRC-framed stream documented in
//! [`crate::replicate`].
//!
//! # Changing the protocol
//!
//! Adding a field is one edit in [`crate::codec`] (the encode and decode
//! arm of the type that owns it) plus a bump of [`PROTOCOL_VERSION`];
//! old and new builds then refuse each other at the handshake instead of
//! misreading each other's frames.

use crate::engine::{Envelope, Response};
use crate::ServeError;

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 7;

/// Upper bound on one frame's encoded size (64 MiB). Both sides reject
/// larger frames as a protocol violation instead of allocating blindly.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Frames a client may send.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Handshake: the closed version range the client can speak.
    Hello { min_version: u32, max_version: u32 },
    /// One ordered request batch; `id` is echoed by the response.
    Batch { id: u64, requests: Vec<Envelope> },
    /// Clean shutdown of this connection.
    Goodbye,
}

/// Frames a server may send.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Handshake accepted at `version`.
    HelloAck { version: u32 },
    /// Results for the batch with the same `id`, in request order; each
    /// request fails or succeeds independently.
    Batch {
        id: u64,
        results: Vec<Result<Response, ServeError>>,
    },
    /// Connection-fatal error; the server closes after sending this.
    Error { error: ServeError },
}

/// Pick the protocol version for a connection: [`PROTOCOL_VERSION`] if
/// the client's range contains it, or a typed error naming both ranges.
pub fn negotiate(client_min: u32, client_max: u32) -> Result<u32, ServeError> {
    if (client_min..=client_max).contains(&PROTOCOL_VERSION) {
        Ok(PROTOCOL_VERSION)
    } else {
        Err(ServeError::VersionUnsupported {
            client_min,
            client_max,
            server_min: PROTOCOL_VERSION,
            server_max: PROTOCOL_VERSION,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_accepts_exactly_the_ranges_containing_this_version() {
        let v = PROTOCOL_VERSION;
        assert_eq!(negotiate(v, v), Ok(v));
        assert_eq!(negotiate(1, v), Ok(v), "older client floor is fine");
        assert_eq!(negotiate(1, v + 2), Ok(v), "future-proof client settles");
        assert_eq!(negotiate(0, u32::MAX), Ok(v));
        // Below, above, empty-at-zero, and inverted around it.
        for (min, max) in [(1, v - 1), (v + 1, v + 2), (0, 0), (v + 1, v - 1)] {
            assert_eq!(
                negotiate(min, max),
                Err(ServeError::VersionUnsupported {
                    client_min: min,
                    client_max: max,
                    server_min: v,
                    server_max: v,
                }),
                "{min}..={max}"
            );
        }
    }
}
