//! Blocking wire-protocol client mirroring [`Engine`]'s API.
//!
//! [`Client`] exposes the same methods with the same signatures as the
//! in-process engine — `classify`, `similar`, `embed_row`,
//! `apply_updates`, `stats`, `execute`, `execute_batch` — so the two are
//! interchangeable behind the protocol and their equivalence is directly
//! property-testable (`tests/network.rs` does exactly that). The only
//! additions are transport-shaped: [`Client::connect`]/[`Client::over`]
//! to establish and handshake a connection, and [`Client::pipeline`] to
//! exploit the protocol's request pipelining by sending many batches
//! before reading any reply.

use std::net::ToSocketAddrs;

use crate::codec::{decode_server_frame, encode_client_frame};
use crate::engine::{Envelope, GraphReport, Request, Response};
use crate::index::SearchPolicy;
use crate::metrics::MetricsReport;
use crate::registry::Update;
use crate::transport::{TcpTransport, Transport};
use crate::wire::{ClientFrame, ServerFrame, PROTOCOL_VERSION};
use crate::ServeError;

/// A connected, handshaken wire-protocol client.
pub struct Client {
    transport: Box<dyn Transport>,
    next_id: u64,
}

impl Client {
    /// Connect over TCP and handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Self::over(TcpTransport::connect(addr)?)
    }

    /// Handshake over an already-established transport (e.g. one end of
    /// [`duplex`](crate::transport::duplex)).
    pub fn over(transport: impl Transport + 'static) -> Result<Client, ServeError> {
        let mut transport: Box<dyn Transport> = Box::new(transport);
        transport.send(encode_client_frame(&ClientFrame::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        }))?;
        let reply = transport
            .recv()?
            .ok_or_else(|| ServeError::protocol("server closed during handshake"))?;
        match decode_server_frame(&reply)? {
            ServerFrame::HelloAck { version } if version == PROTOCOL_VERSION => Ok(Client {
                transport,
                next_id: 0,
            }),
            // A peer must pick from the range it was offered; anything
            // else would have us speak a protocol we do not implement.
            ServerFrame::HelloAck { version } => Err(ServeError::protocol(format!(
                "server acknowledged protocol v{version}, but only v{PROTOCOL_VERSION} was offered"
            ))),
            ServerFrame::Error { error } => Err(error),
            other => Err(ServeError::protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// The protocol version negotiated in the handshake (the only one
    /// [`Client::over`] offers or accepts).
    pub fn protocol_version(&self) -> u32 {
        PROTOCOL_VERSION
    }

    /// Execute an ordered batch remotely. Mirrors
    /// [`Engine::execute_batch`](crate::Engine::execute_batch): responses
    /// come back in request order and each request fails independently.
    /// The outer `Result` carries connection-level failures only.
    pub fn execute_batch(
        &mut self,
        batch: Vec<Envelope>,
    ) -> Result<Vec<Result<Response, ServeError>>, ServeError> {
        let expected = batch.len();
        let id = self.send_batch(batch)?;
        self.recv_batch(id, expected)
    }

    /// How many batches [`Client::pipeline`] keeps in flight. A blocking
    /// transport with a synchronous peer deadlocks if both sides fill
    /// their send buffers at once, so in-flight volume must stay bounded:
    /// after this many unanswered batches the client drains a reply
    /// before sending the next request.
    pub const PIPELINE_WINDOW: usize = 8;

    /// Pipelined execution: keep up to [`Client::PIPELINE_WINDOW`]
    /// batches in flight, collecting replies in order. Round-trip latency
    /// is paid once per window instead of once per batch. For batches so
    /// large that a single window could overflow both socket buffers,
    /// use [`Client::execute_batch`] (strict alternation) instead.
    pub fn pipeline(
        &mut self,
        batches: Vec<Vec<Envelope>>,
    ) -> Result<Vec<Vec<Result<Response, ServeError>>>, ServeError> {
        let mut results = Vec::with_capacity(batches.len());
        let mut in_flight: std::collections::VecDeque<(u64, usize)> =
            std::collections::VecDeque::with_capacity(Self::PIPELINE_WINDOW);
        for batch in batches {
            if in_flight.len() == Self::PIPELINE_WINDOW {
                let (id, expected) = in_flight.pop_front().expect("window is nonempty");
                results.push(self.recv_batch(id, expected)?);
            }
            let expected = batch.len();
            let id = self.send_batch(batch)?;
            in_flight.push_back((id, expected));
        }
        for (id, expected) in in_flight {
            results.push(self.recv_batch(id, expected)?);
        }
        Ok(results)
    }

    /// Execute one request. Mirrors [`Engine::execute`](crate::Engine::execute).
    pub fn execute(&mut self, graph: &str, request: Request) -> Result<Response, ServeError> {
        self.execute_batch(vec![Envelope::new(graph, request)])?
            .pop()
            .expect("one request in, one response out")
    }

    /// Mirrors [`Engine::classify`](crate::Engine::classify).
    pub fn classify(
        &mut self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
    ) -> Result<Vec<u32>, ServeError> {
        self.classify_at(graph, vertices, k, None)
    }

    /// Mirrors [`Engine::classify_at`](crate::Engine::classify_at):
    /// classify against a pinned retained epoch.
    pub fn classify_at(
        &mut self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
        at_epoch: Option<u64>,
    ) -> Result<Vec<u32>, ServeError> {
        self.classify_with(graph, vertices, k, at_epoch, None)
    }

    /// Mirrors [`Engine::classify_with`](crate::Engine::classify_with):
    /// classify with an epoch pin and/or a search-policy override.
    pub fn classify_with(
        &mut self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
        at_epoch: Option<u64>,
        search: Option<SearchPolicy>,
    ) -> Result<Vec<u32>, ServeError> {
        match self.execute(
            graph,
            Request::Classify {
                vertices,
                k,
                at_epoch,
                search,
            },
        )? {
            Response::Classes(classes) => Ok(classes),
            other => Err(unexpected("Classes", &other)),
        }
    }

    /// Mirrors [`Engine::similar`](crate::Engine::similar).
    pub fn similar(
        &mut self,
        graph: &str,
        vertex: u32,
        top: usize,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        self.similar_at(graph, vertex, top, None)
    }

    /// Mirrors [`Engine::similar_at`](crate::Engine::similar_at).
    pub fn similar_at(
        &mut self,
        graph: &str,
        vertex: u32,
        top: usize,
        at_epoch: Option<u64>,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        self.similar_with(graph, vertex, top, at_epoch, None)
    }

    /// Mirrors [`Engine::similar_with`](crate::Engine::similar_with).
    pub fn similar_with(
        &mut self,
        graph: &str,
        vertex: u32,
        top: usize,
        at_epoch: Option<u64>,
        search: Option<SearchPolicy>,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        match self.execute(
            graph,
            Request::Similar {
                vertex,
                top,
                at_epoch,
                search,
            },
        )? {
            Response::Neighbors(neighbors) => Ok(neighbors),
            other => Err(unexpected("Neighbors", &other)),
        }
    }

    /// Mirrors [`Engine::embed_row`](crate::Engine::embed_row).
    pub fn embed_row(&mut self, graph: &str, vertex: u32) -> Result<Vec<f64>, ServeError> {
        self.embed_row_at(graph, vertex, None)
    }

    /// Mirrors [`Engine::embed_row_at`](crate::Engine::embed_row_at).
    pub fn embed_row_at(
        &mut self,
        graph: &str,
        vertex: u32,
        at_epoch: Option<u64>,
    ) -> Result<Vec<f64>, ServeError> {
        match self.execute(graph, Request::EmbedRow { vertex, at_epoch })? {
            Response::Row(row) => Ok(row),
            other => Err(unexpected("Row", &other)),
        }
    }

    /// Mirrors [`Engine::apply_updates`](crate::Engine::apply_updates):
    /// returns `(applied, epoch)`.
    pub fn apply_updates(
        &mut self,
        graph: &str,
        updates: Vec<Update>,
    ) -> Result<(usize, u64), ServeError> {
        match self.execute(graph, Request::ApplyUpdates { updates })? {
            Response::Applied { applied, epoch } => Ok((applied, epoch)),
            other => Err(unexpected("Applied", &other)),
        }
    }

    /// Mirrors [`Engine::stats`](crate::Engine::stats).
    pub fn stats(&mut self, graph: &str) -> Result<GraphReport, ServeError> {
        self.stats_at(graph, None)
    }

    /// Mirrors [`Engine::stats_at`](crate::Engine::stats_at).
    pub fn stats_at(
        &mut self,
        graph: &str,
        at_epoch: Option<u64>,
    ) -> Result<GraphReport, ServeError> {
        match self.execute(graph, Request::Stats { at_epoch })? {
            Response::Stats(report) => Ok(report),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Mirrors [`Engine::metrics`](crate::Engine::metrics): the server's
    /// observability counters.
    pub fn metrics(&mut self, graph: &str) -> Result<MetricsReport, ServeError> {
        match self.execute(graph, Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Tell the server this connection is done (politer than dropping).
    pub fn goodbye(mut self) -> Result<(), ServeError> {
        self.transport
            .send(encode_client_frame(&ClientFrame::Goodbye))
    }

    fn send_batch(&mut self, requests: Vec<Envelope>) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.transport
            .send(encode_client_frame(&ClientFrame::Batch { id, requests }))?;
        Ok(id)
    }

    fn recv_batch(
        &mut self,
        id: u64,
        expected: usize,
    ) -> Result<Vec<Result<Response, ServeError>>, ServeError> {
        let reply = self
            .transport
            .recv()?
            .ok_or_else(|| ServeError::protocol("server closed with a batch in flight"))?;
        match decode_server_frame(&reply)? {
            ServerFrame::Batch { id: got, results } if got == id => {
                if results.len() != expected {
                    return Err(ServeError::protocol(format!(
                        "batch {id}: sent {expected} requests, got {} results",
                        results.len()
                    )));
                }
                Ok(results)
            }
            ServerFrame::Batch { id: got, .. } => Err(ServeError::protocol(format!(
                "response for batch {got} while awaiting {id}"
            ))),
            ServerFrame::Error { error } => Err(error),
            other => Err(ServeError::protocol(format!(
                "expected Batch, got {other:?}"
            ))),
        }
    }
}

fn unexpected(expected: &str, got: &Response) -> ServeError {
    ServeError::protocol(format!("expected {expected} response, got {got:?}"))
}
