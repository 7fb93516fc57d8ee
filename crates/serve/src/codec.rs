//! The frame codec: the one encoding of [`ClientFrame`] and
//! [`ServerFrame`], from the first byte of a connection (handshake
//! included) to the last.
//!
//! # Layout
//!
//! A frame body is
//!
//! ```text
//! [crc32 u32 LE over payload][payload]
//! ```
//!
//! checked on decode (the transport's big-endian length prefix is the
//! stream framing, see [`crate::wire`]). The checksum catches line
//! noise, not malice: everything behind it is still parsed as hostile
//! input — counts are bounded by the bytes that remain, names by
//! [`MAX_NAME_LEN`], and the cursor must drain exactly. The payload is
//! built from the same primitives as the WAL and replication streams
//! ([`gee_graph::io::frame`]): little-endian fixed-width integers,
//! `u32`-length-prefixed UTF-8 strings, and one leading tag byte per
//! enum. `Option` fields carry a presence byte; errors are tagged by
//! their stable [`ErrorCode`](crate::ErrorCode). Update batches reuse the
//! WAL's update encoding verbatim ([`crate::wal`]), so an update has
//! exactly one binary encoding in the system.
//!
//! Each type is written once here as an `encode_*`/`decode_*` pair; to
//! add a field, edit that pair and bump
//! [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION).

use gee_graph::io::frame::{self, Cursor, FrameError};

use crate::engine::{Envelope, GraphReport, Request, Response};
use crate::metrics::{HistogramReport, MetricsReport, ReplicationReport, ReplicationRole};
use crate::registry::Update;
use crate::wal::{decode_update, encode_update, MAX_NAME_LEN};
use crate::wire::{ClientFrame, ServerFrame, MAX_FRAME_LEN};
use crate::{SearchPolicy, ServeError};

// Frame tags.
const CF_HELLO: u8 = 1;
const CF_BATCH: u8 = 2;
const CF_GOODBYE: u8 = 3;
const SF_HELLO_ACK: u8 = 1;
const SF_BATCH: u8 = 2;
const SF_ERROR: u8 = 3;

// Request tags.
const REQ_CLASSIFY: u8 = 1;
const REQ_SIMILAR: u8 = 2;
const REQ_EMBED_ROW: u8 = 3;
const REQ_APPLY_UPDATES: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_METRICS: u8 = 6;

// Response tags.
const RESP_CLASSES: u8 = 1;
const RESP_NEIGHBORS: u8 = 2;
const RESP_ROW: u8 = 3;
const RESP_APPLIED: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_METRICS: u8 = 6;

// SearchPolicy tags.
const SEARCH_EXACT: u8 = 1;
const SEARCH_ANN: u8 = 2;

// ReplicationRole tags.
const ROLE_LEADER: u8 = 1;
const ROLE_FOLLOWER: u8 = 2;

/// Wrap a payload with its CRC-32 (the binary frame body).
fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload.len() + 4);
    frame::put_u32(&mut body, frame::crc32(&payload));
    body.extend_from_slice(&payload);
    body
}

/// Strip and verify the CRC-32, returning the payload.
fn unseal(bytes: &[u8]) -> Result<&[u8], ServeError> {
    if bytes.len() < 4 {
        return Err(ServeError::protocol(format!(
            "binary frame of {} bytes cannot hold a checksum",
            bytes.len()
        )));
    }
    let want = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let payload = &bytes[4..];
    let got = frame::crc32(payload);
    if want != got {
        return Err(ServeError::protocol(format!(
            "binary frame checksum mismatch: header {want:#010x}, payload {got:#010x}"
        )));
    }
    Ok(payload)
}

fn protocol(e: FrameError) -> ServeError {
    ServeError::protocol(format!("undecodable binary frame: {e}"))
}

/// Encode a [`ClientFrame`] as a frame body.
pub fn encode_client_frame(frame: &ClientFrame) -> Vec<u8> {
    let mut p = Vec::new();
    match frame {
        ClientFrame::Hello {
            min_version,
            max_version,
        } => {
            frame::put_u8(&mut p, CF_HELLO);
            frame::put_u32(&mut p, *min_version);
            frame::put_u32(&mut p, *max_version);
        }
        ClientFrame::Batch { id, requests } => {
            frame::put_u8(&mut p, CF_BATCH);
            frame::put_u64(&mut p, *id);
            frame::put_u32(&mut p, requests.len() as u32);
            for envelope in requests {
                encode_envelope(&mut p, envelope);
            }
        }
        ClientFrame::Goodbye => frame::put_u8(&mut p, CF_GOODBYE),
    }
    seal(p)
}

/// Decode a [`ClientFrame`] body (inverse of [`encode_client_frame`]).
pub fn decode_client_frame(bytes: &[u8]) -> Result<ClientFrame, ServeError> {
    let payload = unseal(bytes)?;
    let mut c = Cursor::new(payload);
    let frame = (|| -> Result<ClientFrame, FrameError> {
        let frame = match c.take_u8("client frame tag")? {
            CF_HELLO => ClientFrame::Hello {
                min_version: c.take_u32("min_version")?,
                max_version: c.take_u32("max_version")?,
            },
            CF_BATCH => {
                let id = c.take_u64("batch id")?;
                let count = c.take_count(2, "request count")?;
                let mut requests = Vec::with_capacity(count);
                for _ in 0..count {
                    requests.push(decode_envelope(&mut c)?);
                }
                ClientFrame::Batch { id, requests }
            }
            CF_GOODBYE => ClientFrame::Goodbye,
            other => {
                return Err(FrameError::malformed(format!(
                    "unknown client frame tag {other}"
                )));
            }
        };
        c.finish("client frame")?;
        Ok(frame)
    })();
    frame.map_err(protocol)
}

/// Encode a [`ServerFrame`] as a frame body.
pub fn encode_server_frame(frame: &ServerFrame) -> Vec<u8> {
    let mut p = Vec::new();
    match frame {
        ServerFrame::HelloAck { version } => {
            frame::put_u8(&mut p, SF_HELLO_ACK);
            frame::put_u32(&mut p, *version);
        }
        ServerFrame::Batch { id, results } => {
            frame::put_u8(&mut p, SF_BATCH);
            frame::put_u64(&mut p, *id);
            frame::put_u32(&mut p, results.len() as u32);
            for result in results {
                match result {
                    Ok(response) => {
                        frame::put_u8(&mut p, 1);
                        encode_response(&mut p, response);
                    }
                    Err(error) => {
                        frame::put_u8(&mut p, 0);
                        encode_error(&mut p, error);
                    }
                }
            }
        }
        ServerFrame::Error { error } => {
            frame::put_u8(&mut p, SF_ERROR);
            encode_error(&mut p, error);
        }
    }
    seal(p)
}

/// Decode a [`ServerFrame`] body (inverse of [`encode_server_frame`]).
pub fn decode_server_frame(bytes: &[u8]) -> Result<ServerFrame, ServeError> {
    let payload = unseal(bytes)?;
    let mut c = Cursor::new(payload);
    let frame = (|| -> Result<ServerFrame, FrameError> {
        let frame = match c.take_u8("server frame tag")? {
            SF_HELLO_ACK => ServerFrame::HelloAck {
                version: c.take_u32("version")?,
            },
            SF_BATCH => {
                let id = c.take_u64("batch id")?;
                let count = c.take_count(1, "result count")?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    results.push(match c.take_u8("result discriminant")? {
                        1 => Ok(decode_response(&mut c)?),
                        0 => Err(decode_error(&mut c)?),
                        other => {
                            return Err(FrameError::malformed(format!(
                                "result discriminant {other}"
                            )));
                        }
                    });
                }
                ServerFrame::Batch { id, results }
            }
            SF_ERROR => ServerFrame::Error {
                error: decode_error(&mut c)?,
            },
            other => {
                return Err(FrameError::malformed(format!(
                    "unknown server frame tag {other}"
                )));
            }
        };
        c.finish("server frame")?;
        Ok(frame)
    })();
    frame.map_err(protocol)
}

fn encode_envelope(p: &mut Vec<u8>, envelope: &Envelope) {
    frame::put_str(p, &envelope.graph);
    encode_request(p, &envelope.request);
}

fn decode_envelope(c: &mut Cursor<'_>) -> Result<Envelope, FrameError> {
    Ok(Envelope {
        graph: c.take_str(MAX_NAME_LEN, "graph name")?,
        request: decode_request(c)?,
    })
}

fn encode_opt_u64(p: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            frame::put_u8(p, 1);
            frame::put_u64(p, v);
        }
        None => frame::put_u8(p, 0),
    }
}

fn decode_opt_u64(c: &mut Cursor<'_>, what: &str) -> Result<Option<u64>, FrameError> {
    match c.take_u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(c.take_u64(what)?)),
        other => Err(FrameError::malformed(format!(
            "{what} presence byte {other}"
        ))),
    }
}

fn encode_opt_search(p: &mut Vec<u8>, search: &Option<SearchPolicy>) {
    match search {
        None => frame::put_u8(p, 0),
        Some(SearchPolicy::Exact) => {
            frame::put_u8(p, 1);
            frame::put_u8(p, SEARCH_EXACT);
        }
        Some(SearchPolicy::Ann { nprobe, refine }) => {
            frame::put_u8(p, 1);
            frame::put_u8(p, SEARCH_ANN);
            frame::put_u64(p, *nprobe as u64);
            frame::put_u64(p, *refine as u64);
        }
    }
}

fn decode_opt_search(c: &mut Cursor<'_>) -> Result<Option<SearchPolicy>, FrameError> {
    match c.take_u8("search presence")? {
        0 => Ok(None),
        1 => Ok(Some(match c.take_u8("search tag")? {
            SEARCH_EXACT => SearchPolicy::Exact,
            SEARCH_ANN => SearchPolicy::Ann {
                nprobe: take_usize(c, "nprobe")?,
                refine: take_usize(c, "refine")?,
            },
            other => {
                return Err(FrameError::malformed(format!("unknown search tag {other}")));
            }
        })),
        other => Err(FrameError::malformed(format!(
            "search presence byte {other}"
        ))),
    }
}

/// `usize` rides the wire as `u64`; reject values this build cannot
/// represent instead of truncating.
fn take_usize(c: &mut Cursor<'_>, what: &str) -> Result<usize, FrameError> {
    let v = c.take_u64(what)?;
    usize::try_from(v).map_err(|_| FrameError::malformed(format!("{what} {v} overflows usize")))
}

fn encode_request(p: &mut Vec<u8>, request: &Request) {
    match request {
        Request::Classify {
            vertices,
            k,
            at_epoch,
            search,
        } => {
            frame::put_u8(p, REQ_CLASSIFY);
            frame::put_u32(p, vertices.len() as u32);
            for &v in vertices {
                frame::put_u32(p, v);
            }
            frame::put_u64(p, *k as u64);
            encode_opt_u64(p, *at_epoch);
            encode_opt_search(p, search);
        }
        Request::Similar {
            vertex,
            top,
            at_epoch,
            search,
        } => {
            frame::put_u8(p, REQ_SIMILAR);
            frame::put_u32(p, *vertex);
            frame::put_u64(p, *top as u64);
            encode_opt_u64(p, *at_epoch);
            encode_opt_search(p, search);
        }
        Request::EmbedRow { vertex, at_epoch } => {
            frame::put_u8(p, REQ_EMBED_ROW);
            frame::put_u32(p, *vertex);
            encode_opt_u64(p, *at_epoch);
        }
        Request::ApplyUpdates { updates } => {
            frame::put_u8(p, REQ_APPLY_UPDATES);
            frame::put_u32(p, updates.len() as u32);
            for u in updates {
                encode_update(p, u);
            }
        }
        Request::Stats { at_epoch } => {
            frame::put_u8(p, REQ_STATS);
            encode_opt_u64(p, *at_epoch);
        }
        Request::Metrics => frame::put_u8(p, REQ_METRICS),
    }
}

fn decode_request(c: &mut Cursor<'_>) -> Result<Request, FrameError> {
    Ok(match c.take_u8("request tag")? {
        REQ_CLASSIFY => {
            let count = c.take_count(4, "vertex count")?;
            let mut vertices = Vec::with_capacity(count);
            for _ in 0..count {
                vertices.push(c.take_u32("vertex")?);
            }
            Request::Classify {
                vertices,
                k: take_usize(c, "k")?,
                at_epoch: decode_opt_u64(c, "at_epoch")?,
                search: decode_opt_search(c)?,
            }
        }
        REQ_SIMILAR => Request::Similar {
            vertex: c.take_u32("vertex")?,
            top: take_usize(c, "top")?,
            at_epoch: decode_opt_u64(c, "at_epoch")?,
            search: decode_opt_search(c)?,
        },
        REQ_EMBED_ROW => Request::EmbedRow {
            vertex: c.take_u32("vertex")?,
            at_epoch: decode_opt_u64(c, "at_epoch")?,
        },
        REQ_APPLY_UPDATES => {
            let count = c.take_count(6, "update count")?;
            let mut updates: Vec<Update> = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(decode_update(c)?);
            }
            Request::ApplyUpdates { updates }
        }
        REQ_STATS => Request::Stats {
            at_epoch: decode_opt_u64(c, "at_epoch")?,
        },
        REQ_METRICS => Request::Metrics,
        other => {
            return Err(FrameError::malformed(format!(
                "unknown request tag {other}"
            )));
        }
    })
}

fn encode_response(p: &mut Vec<u8>, response: &Response) {
    match response {
        Response::Classes(classes) => {
            frame::put_u8(p, RESP_CLASSES);
            frame::put_u32(p, classes.len() as u32);
            for &class in classes {
                frame::put_u32(p, class);
            }
        }
        Response::Neighbors(neighbors) => {
            frame::put_u8(p, RESP_NEIGHBORS);
            frame::put_u32(p, neighbors.len() as u32);
            for &(v, d) in neighbors {
                frame::put_u32(p, v);
                frame::put_f64(p, d);
            }
        }
        Response::Row(row) => {
            frame::put_u8(p, RESP_ROW);
            frame::put_u32(p, row.len() as u32);
            for &x in row {
                frame::put_f64(p, x);
            }
        }
        Response::Applied { applied, epoch } => {
            frame::put_u8(p, RESP_APPLIED);
            frame::put_u64(p, *applied as u64);
            frame::put_u64(p, *epoch);
        }
        Response::Stats(report) => {
            frame::put_u8(p, RESP_STATS);
            encode_graph_report(p, report);
        }
        Response::Metrics(report) => {
            frame::put_u8(p, RESP_METRICS);
            encode_metrics_report(p, report);
        }
    }
}

fn decode_response(c: &mut Cursor<'_>) -> Result<Response, FrameError> {
    Ok(match c.take_u8("response tag")? {
        RESP_CLASSES => {
            let count = c.take_count(4, "class count")?;
            let mut classes = Vec::with_capacity(count);
            for _ in 0..count {
                classes.push(c.take_u32("class")?);
            }
            Response::Classes(classes)
        }
        RESP_NEIGHBORS => {
            let count = c.take_count(12, "neighbor count")?;
            let mut neighbors = Vec::with_capacity(count);
            for _ in 0..count {
                let v = c.take_u32("neighbor vertex")?;
                let d = c.take_f64("neighbor distance")?;
                neighbors.push((v, d));
            }
            Response::Neighbors(neighbors)
        }
        RESP_ROW => {
            let count = c.take_count(8, "row length")?;
            let mut row = Vec::with_capacity(count);
            for _ in 0..count {
                row.push(c.take_f64("row value")?);
            }
            Response::Row(row)
        }
        RESP_APPLIED => Response::Applied {
            applied: take_usize(c, "applied")?,
            epoch: c.take_u64("epoch")?,
        },
        RESP_STATS => Response::Stats(decode_graph_report(c)?),
        RESP_METRICS => Response::Metrics(decode_metrics_report(c)?),
        other => {
            return Err(FrameError::malformed(format!(
                "unknown response tag {other}"
            )));
        }
    })
}

fn encode_opt_replication(p: &mut Vec<u8>, replication: &Option<ReplicationReport>) {
    match replication {
        None => frame::put_u8(p, 0),
        Some(r) => {
            frame::put_u8(p, 1);
            frame::put_u8(
                p,
                match r.role {
                    ReplicationRole::Leader => ROLE_LEADER,
                    ReplicationRole::Follower => ROLE_FOLLOWER,
                },
            );
            frame::put_u8(p, u8::from(r.connected));
            frame::put_u64(p, r.shipped_records);
            frame::put_u64(p, r.shipped_bytes);
            frame::put_u64(p, r.follower_conns);
            frame::put_u64(p, r.lag_epochs);
            frame::put_u64(p, r.lag_lsns);
            frame::put_u64(p, r.last_durable_lsn);
            frame::put_u64(p, r.leader_epoch);
            frame::put_u8(p, u8::from(r.fenced));
        }
    }
}

fn decode_opt_replication(c: &mut Cursor<'_>) -> Result<Option<ReplicationReport>, FrameError> {
    match c.take_u8("replication presence")? {
        0 => Ok(None),
        1 => {
            let role = match c.take_u8("replication role")? {
                ROLE_LEADER => ReplicationRole::Leader,
                ROLE_FOLLOWER => ReplicationRole::Follower,
                other => {
                    return Err(FrameError::malformed(format!(
                        "unknown replication role {other}"
                    )));
                }
            };
            let connected = match c.take_u8("connected")? {
                0 => false,
                1 => true,
                other => {
                    return Err(FrameError::malformed(format!("connected byte {other}")));
                }
            };
            Ok(Some(ReplicationReport {
                role,
                connected,
                shipped_records: c.take_u64("shipped_records")?,
                shipped_bytes: c.take_u64("shipped_bytes")?,
                follower_conns: c.take_u64("follower_conns")?,
                lag_epochs: c.take_u64("lag_epochs")?,
                lag_lsns: c.take_u64("lag_lsns")?,
                last_durable_lsn: c.take_u64("last_durable_lsn")?,
                leader_epoch: c.take_u64("leader_epoch")?,
                fenced: match c.take_u8("fenced")? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(FrameError::malformed(format!("fenced byte {other}")));
                    }
                },
            }))
        }
        other => Err(FrameError::malformed(format!(
            "replication presence byte {other}"
        ))),
    }
}

fn encode_graph_report(p: &mut Vec<u8>, r: &GraphReport) {
    frame::put_str(p, &r.graph);
    frame::put_u64(p, r.epoch);
    frame::put_u64(p, r.oldest_epoch);
    frame::put_u64(p, r.num_vertices as u64);
    frame::put_u64(p, r.dim as u64);
    frame::put_u64(p, r.num_shards as u64);
    frame::put_u64(p, r.num_labeled as u64);
    frame::put_u64(p, r.ann_indexed_shards as u64);
    frame::put_u64(p, r.queries_served);
    frame::put_u64(p, r.updates_applied);
    encode_opt_replication(p, &r.replication);
}

fn decode_graph_report(c: &mut Cursor<'_>) -> Result<GraphReport, FrameError> {
    Ok(GraphReport {
        graph: c.take_str(MAX_NAME_LEN, "graph name")?,
        epoch: c.take_u64("epoch")?,
        oldest_epoch: c.take_u64("oldest_epoch")?,
        num_vertices: take_usize(c, "num_vertices")?,
        dim: take_usize(c, "dim")?,
        num_shards: take_usize(c, "num_shards")?,
        num_labeled: take_usize(c, "num_labeled")?,
        ann_indexed_shards: take_usize(c, "ann_indexed_shards")?,
        queries_served: c.take_u64("queries_served")?,
        updates_applied: c.take_u64("updates_applied")?,
        replication: decode_opt_replication(c)?,
    })
}

fn encode_histogram(p: &mut Vec<u8>, h: &HistogramReport) {
    frame::put_u32(p, h.buckets.len() as u32);
    for &b in &h.buckets {
        frame::put_u64(p, b);
    }
    frame::put_u64(p, h.count);
    frame::put_u64(p, h.sum);
}

fn decode_histogram(c: &mut Cursor<'_>) -> Result<HistogramReport, FrameError> {
    let count = c.take_count(8, "bucket count")?;
    let mut buckets = Vec::with_capacity(count);
    for _ in 0..count {
        buckets.push(c.take_u64("bucket")?);
    }
    Ok(HistogramReport {
        buckets,
        count: c.take_u64("histogram count")?,
        sum: c.take_u64("histogram sum")?,
    })
}

fn encode_metrics_report(p: &mut Vec<u8>, r: &MetricsReport) {
    frame::put_str(p, &r.graph);
    frame::put_u64(p, r.epoch);
    frame::put_u64(p, r.oldest_epoch);
    frame::put_u64(p, r.history_depth as u64);
    frame::put_u64(p, r.ann_indexed_shards as u64);
    frame::put_u64(p, r.queries_served);
    frame::put_u64(p, r.updates_applied);
    encode_histogram(p, &r.classify_us);
    encode_histogram(p, &r.similar_us);
    encode_histogram(p, &r.embed_row_us);
    encode_histogram(p, &r.stats_us);
    encode_histogram(p, &r.metrics_us);
    encode_histogram(p, &r.apply_updates_us);
    encode_histogram(p, &r.coalesce);
    frame::put_u64(p, r.overloaded);
    frame::put_u64(p, r.wal_fsyncs);
    frame::put_u64(p, r.ivf_builds);
    frame::put_u64(p, r.ivf_hits);
    encode_opt_replication(p, &r.replication);
}

fn decode_metrics_report(c: &mut Cursor<'_>) -> Result<MetricsReport, FrameError> {
    Ok(MetricsReport {
        graph: c.take_str(MAX_NAME_LEN, "graph name")?,
        epoch: c.take_u64("epoch")?,
        oldest_epoch: c.take_u64("oldest_epoch")?,
        history_depth: take_usize(c, "history_depth")?,
        ann_indexed_shards: take_usize(c, "ann_indexed_shards")?,
        queries_served: c.take_u64("queries_served")?,
        updates_applied: c.take_u64("updates_applied")?,
        classify_us: decode_histogram(c)?,
        similar_us: decode_histogram(c)?,
        embed_row_us: decode_histogram(c)?,
        stats_us: decode_histogram(c)?,
        metrics_us: decode_histogram(c)?,
        apply_updates_us: decode_histogram(c)?,
        coalesce: decode_histogram(c)?,
        overloaded: c.take_u64("overloaded")?,
        wal_fsyncs: c.take_u64("wal_fsyncs")?,
        ivf_builds: c.take_u64("ivf_builds")?,
        ivf_hits: c.take_u64("ivf_hits")?,
        replication: decode_opt_replication(c)?,
    })
}

/// The stable [`ErrorCode`](crate::ErrorCode) doubles as the binary
/// tag, so the numeric wire contract and the binary encoding can never
/// disagree.
fn encode_error(p: &mut Vec<u8>, error: &ServeError) {
    frame::put_u32(p, u32::from(error.code().as_u16()));
    match error {
        ServeError::UnknownGraph { graph } => frame::put_str(p, graph),
        ServeError::VertexOutOfRange {
            vertex,
            num_vertices,
        } => {
            frame::put_u32(p, *vertex);
            frame::put_u64(p, *num_vertices as u64);
        }
        ServeError::ClassOutOfRange { class, num_classes } => {
            frame::put_u32(p, *class);
            frame::put_u64(p, *num_classes as u64);
        }
        ServeError::ZeroLimit { param } => frame::put_str(p, param),
        ServeError::NoLabeledVertices { graph } => frame::put_str(p, graph),
        ServeError::NonFinite { param } => frame::put_str(p, param),
        ServeError::ResponseTooLarge { bytes, max_bytes } => {
            frame::put_u64(p, *bytes as u64);
            frame::put_u64(p, *max_bytes as u64);
        }
        ServeError::VersionUnsupported {
            client_min,
            client_max,
            server_min,
            server_max,
        } => {
            frame::put_u32(p, *client_min);
            frame::put_u32(p, *client_max);
            frame::put_u32(p, *server_min);
            frame::put_u32(p, *server_max);
        }
        ServeError::Protocol { detail }
        | ServeError::Transport { detail }
        | ServeError::Storage { detail } => frame::put_str(p, detail),
        ServeError::Corrupt { path, detail } => {
            frame::put_str(p, path);
            frame::put_str(p, detail);
        }
        ServeError::EpochEvicted {
            graph,
            epoch,
            oldest,
            newest,
        } => {
            frame::put_str(p, graph);
            frame::put_u64(p, *epoch);
            frame::put_u64(p, *oldest);
            frame::put_u64(p, *newest);
        }
        ServeError::Overloaded {
            graph,
            pending,
            max_pending,
        } => {
            frame::put_str(p, graph);
            frame::put_u64(p, *pending as u64);
            frame::put_u64(p, *max_pending as u64);
        }
        ServeError::ReadOnlyReplica { graph, leader } => {
            frame::put_str(p, graph);
            frame::put_str(p, leader);
        }
        ServeError::StaleLeader {
            leader_epoch,
            seen_epoch,
        } => {
            frame::put_u64(p, *leader_epoch);
            frame::put_u64(p, *seen_epoch);
        }
    }
}

/// Cap for free-form detail strings inside error frames — generous, but
/// bounded below the frame cap.
const MAX_DETAIL_LEN: usize = 1 << 20;

fn decode_error(c: &mut Cursor<'_>) -> Result<ServeError, FrameError> {
    let code = c.take_u32("error code")?;
    Ok(match code {
        1 => ServeError::UnknownGraph {
            graph: c.take_str(MAX_NAME_LEN, "graph name")?,
        },
        2 => ServeError::VertexOutOfRange {
            vertex: c.take_u32("vertex")?,
            num_vertices: take_usize(c, "num_vertices")?,
        },
        3 => ServeError::ClassOutOfRange {
            class: c.take_u32("class")?,
            num_classes: take_usize(c, "num_classes")?,
        },
        4 => ServeError::ZeroLimit {
            param: c.take_str(MAX_DETAIL_LEN, "param")?,
        },
        5 => ServeError::NoLabeledVertices {
            graph: c.take_str(MAX_NAME_LEN, "graph name")?,
        },
        6 => ServeError::VersionUnsupported {
            client_min: c.take_u32("client_min")?,
            client_max: c.take_u32("client_max")?,
            server_min: c.take_u32("server_min")?,
            server_max: c.take_u32("server_max")?,
        },
        7 => ServeError::Protocol {
            detail: c.take_str(MAX_DETAIL_LEN, "detail")?,
        },
        8 => ServeError::Transport {
            detail: c.take_str(MAX_DETAIL_LEN, "detail")?,
        },
        9 => ServeError::NonFinite {
            param: c.take_str(MAX_DETAIL_LEN, "param")?,
        },
        10 => ServeError::ResponseTooLarge {
            bytes: take_usize(c, "bytes")?,
            max_bytes: take_usize(c, "max_bytes")?,
        },
        11 => ServeError::Corrupt {
            path: c.take_str(MAX_DETAIL_LEN, "path")?,
            detail: c.take_str(MAX_DETAIL_LEN, "detail")?,
        },
        12 => ServeError::Storage {
            detail: c.take_str(MAX_DETAIL_LEN, "detail")?,
        },
        13 => ServeError::EpochEvicted {
            graph: c.take_str(MAX_NAME_LEN, "graph name")?,
            epoch: c.take_u64("epoch")?,
            oldest: c.take_u64("oldest")?,
            newest: c.take_u64("newest")?,
        },
        14 => ServeError::Overloaded {
            graph: c.take_str(MAX_NAME_LEN, "graph name")?,
            pending: take_usize(c, "pending")?,
            max_pending: take_usize(c, "max_pending")?,
        },
        15 => ServeError::ReadOnlyReplica {
            graph: c.take_str(MAX_NAME_LEN, "graph name")?,
            leader: c.take_str(MAX_DETAIL_LEN, "leader")?,
        },
        16 => ServeError::StaleLeader {
            leader_epoch: c.take_u64("leader_epoch")?,
            seen_epoch: c.take_u64("seen_epoch")?,
        },
        other => {
            return Err(FrameError::malformed(format!("unknown error code {other}")));
        }
    })
}

// Keep the compiler honest about the cap relationship the decoder
// relies on: a sealed frame must fit the transport bound.
const _: () = assert!(MAX_DETAIL_LEN < MAX_FRAME_LEN);

#[cfg(test)]
mod tests {
    use super::*;

    // Round trips and hostile-input properties over every frame variant
    // live in `tests/wire_roundtrip.rs`.

    #[test]
    fn corrupted_binary_frame_fails_the_checksum() {
        let mut bytes = encode_client_frame(&ClientFrame::Goodbye);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = decode_client_frame(&bytes).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol { detail } if detail.contains("checksum")),
            "{err:?}"
        );
        // Truncation below the checksum is typed too.
        assert!(matches!(
            decode_client_frame(&[1, 2]),
            Err(ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let f = ClientFrame::Goodbye;
        let sealed = encode_client_frame(&f);
        // Re-seal with an extra payload byte so the CRC passes but the
        // cursor does not drain.
        let mut payload = sealed[4..].to_vec();
        payload.push(0);
        let bytes = seal(payload);
        assert!(matches!(
            decode_client_frame(&bytes),
            Err(ServeError::Protocol { .. })
        ));
    }
}
