//! The wire codec, from both sides.
//!
//! Round trip: `decode(encode(x)) == x` for every `Request` / `Response`
//! / `ServeError` / frame variant (handshake frames included), over
//! seeded random instances plus the empty and maximal-size payloads the
//! generators would rarely hit.
//!
//! Never panic: whatever bytes reach `decode_client_frame` /
//! `decode_server_frame` — arbitrary, truncated, mutated behind a
//! recomputed checksum, or with a count field forced to `u32::MAX` — the
//! result is a typed `Protocol` error or a value that re-encodes, with
//! no allocation larger than the input accounts for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gee_graph::io::frame::crc32;
use gee_serve::codec::{
    decode_client_frame, decode_server_frame, encode_client_frame, encode_server_frame,
};
use gee_serve::{
    ClientFrame, Envelope, GraphReport, HistogramReport, MetricsReport, ReplicationReport,
    ReplicationRole, Request, Response, SearchPolicy, ServeError, ServerFrame, Update,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Characters chosen to stress string handling: quotes, backslashes,
/// control characters, multi-byte UTF-8.
const CHAR_PALETTE: [char; 16] = [
    'a', 'Z', '0', '_', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '🦀', '{',
];

fn arb_string() -> impl Strategy<Value = String> {
    vec(0usize..CHAR_PALETTE.len(), 0..12)
        .prop_map(|ids| ids.into_iter().map(|i| CHAR_PALETTE[i]).collect())
}

fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e9f64..1e9,
        Just(0.0),
        Just(-1.0),
        Just(1e308),
        Just(5e-324),
        Just(1e18), // integral float beyond the integer-print cutoff
    ]
}

fn arb_update() -> impl Strategy<Value = Update> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), arb_f64()).prop_map(|(u, v, w)| Update::InsertEdge {
            u,
            v,
            w
        }),
        (any::<u32>(), any::<u32>(), arb_f64()).prop_map(|(u, v, w)| Update::RemoveEdge {
            u,
            v,
            w
        }),
        (
            any::<u32>(),
            prop_oneof![Just(None), any::<u32>().prop_map(Some)]
        )
            .prop_map(|(v, label)| Update::SetLabel { v, label }),
    ]
}

fn arb_epoch_pin() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        any::<u64>().prop_map(Some),
        Just(Some(0)),
        Just(Some(u64::MAX)),
    ]
}

fn arb_search() -> impl Strategy<Value = Option<SearchPolicy>> {
    prop_oneof![
        Just(None),
        Just(Some(SearchPolicy::Exact)),
        (any::<usize>(), any::<usize>())
            .prop_map(|(nprobe, refine)| Some(SearchPolicy::Ann { nprobe, refine })),
        Just(Some(SearchPolicy::Ann {
            nprobe: 0,
            refine: usize::MAX,
        })),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            vec(any::<u32>(), 0..8),
            any::<usize>(),
            arb_epoch_pin(),
            arb_search()
        )
            .prop_map(|(vertices, k, at_epoch, search)| Request::Classify {
                vertices,
                k,
                at_epoch,
                search,
            }),
        (any::<u32>(), any::<usize>(), arb_epoch_pin(), arb_search()).prop_map(
            |(vertex, top, at_epoch, search)| {
                Request::Similar {
                    vertex,
                    top,
                    at_epoch,
                    search,
                }
            }
        ),
        (any::<u32>(), arb_epoch_pin())
            .prop_map(|(vertex, at_epoch)| Request::EmbedRow { vertex, at_epoch }),
        vec(arb_update(), 0..6).prop_map(|updates| Request::ApplyUpdates { updates }),
        arb_epoch_pin().prop_map(|at_epoch| Request::Stats { at_epoch }),
        Just(Request::Metrics),
    ]
}

fn arb_replication() -> impl Strategy<Value = Option<ReplicationReport>> {
    prop_oneof![
        Just(None),
        (
            any::<bool>(),
            any::<bool>(),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<u64>(), any::<u64>()),
            (any::<u64>(), any::<bool>()),
        )
            .prop_map(
                |(
                    leader,
                    connected,
                    (shipped_records, shipped_bytes, follower_conns),
                    lags,
                    (leader_epoch, fenced),
                )| {
                    Some(ReplicationReport {
                        role: if leader {
                            ReplicationRole::Leader
                        } else {
                            ReplicationRole::Follower
                        },
                        connected,
                        shipped_records,
                        shipped_bytes,
                        follower_conns,
                        lag_epochs: lags.0,
                        lag_lsns: lags.1,
                        last_durable_lsn: lags.2,
                        leader_epoch,
                        fenced,
                    })
                }
            ),
    ]
}

fn arb_report() -> impl Strategy<Value = GraphReport> {
    (
        arb_string(),
        (any::<u64>(), any::<u64>()),
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
        ),
        (any::<u64>(), any::<u64>()),
        arb_replication(),
    )
        .prop_map(
            |(
                graph,
                (epoch, oldest_epoch),
                (num_vertices, dim, num_shards, num_labeled, ann_indexed_shards),
                (q, u),
                replication,
            )| {
                GraphReport {
                    graph,
                    epoch,
                    oldest_epoch,
                    num_vertices,
                    dim,
                    num_shards,
                    num_labeled,
                    ann_indexed_shards,
                    queries_served: q,
                    updates_applied: u,
                    replication,
                }
            },
        )
}

fn arb_histogram() -> impl Strategy<Value = HistogramReport> {
    prop_oneof![
        Just(HistogramReport::empty()),
        (vec(any::<u64>(), 0..8), any::<u64>(), any::<u64>()).prop_map(|(buckets, count, sum)| {
            HistogramReport {
                buckets,
                count,
                sum,
            }
        }),
    ]
}

fn arb_metrics_report() -> impl Strategy<Value = MetricsReport> {
    (
        (arb_string(), any::<u64>(), any::<u64>(), any::<usize>()),
        (any::<usize>(), any::<u64>(), any::<u64>()),
        vec(arb_histogram(), 7..8),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        arb_replication(),
    )
        .prop_map(
            |(
                (graph, epoch, oldest_epoch, history_depth),
                (ann_indexed_shards, queries_served, updates_applied),
                mut hists,
                (overloaded, wal_fsyncs, ivf_builds, ivf_hits),
                replication,
            )| {
                MetricsReport {
                    graph,
                    epoch,
                    oldest_epoch,
                    history_depth,
                    ann_indexed_shards,
                    queries_served,
                    updates_applied,
                    classify_us: hists.pop().unwrap(),
                    similar_us: hists.pop().unwrap(),
                    embed_row_us: hists.pop().unwrap(),
                    stats_us: hists.pop().unwrap(),
                    metrics_us: hists.pop().unwrap(),
                    apply_updates_us: hists.pop().unwrap(),
                    coalesce: hists.pop().unwrap(),
                    overloaded,
                    wal_fsyncs,
                    ivf_builds,
                    ivf_hits,
                    replication,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        vec(any::<u32>(), 0..10).prop_map(Response::Classes),
        vec((any::<u32>(), arb_f64()), 0..10).prop_map(Response::Neighbors),
        vec(arb_f64(), 0..10).prop_map(Response::Row),
        (any::<usize>(), any::<u64>())
            .prop_map(|(applied, epoch)| Response::Applied { applied, epoch }),
        arb_report().prop_map(Response::Stats),
        arb_metrics_report().prop_map(Response::Metrics),
    ]
}

fn arb_error() -> impl Strategy<Value = ServeError> {
    prop_oneof![
        arb_string().prop_map(|graph| ServeError::UnknownGraph { graph }),
        (any::<u32>(), any::<usize>()).prop_map(|(vertex, num_vertices)| {
            ServeError::VertexOutOfRange {
                vertex,
                num_vertices,
            }
        }),
        (any::<u32>(), any::<usize>())
            .prop_map(|(class, num_classes)| ServeError::ClassOutOfRange { class, num_classes }),
        arb_string().prop_map(|param| ServeError::ZeroLimit { param }),
        arb_string().prop_map(|graph| ServeError::NoLabeledVertices { graph }),
        arb_string().prop_map(|param| ServeError::NonFinite { param }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(bytes, max_bytes)| ServeError::ResponseTooLarge { bytes, max_bytes }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(client_min, client_max, server_min, server_max)| ServeError::VersionUnsupported {
                client_min,
                client_max,
                server_min,
                server_max,
            }
        ),
        arb_string().prop_map(|detail| ServeError::Protocol { detail }),
        arb_string().prop_map(|detail| ServeError::Transport { detail }),
        (arb_string(), arb_string())
            .prop_map(|(path, detail)| ServeError::Corrupt { path, detail }),
        arb_string().prop_map(|detail| ServeError::Storage { detail }),
        (arb_string(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(graph, epoch, oldest, newest)| ServeError::EpochEvicted {
                graph,
                epoch,
                oldest,
                newest,
            }
        ),
        (arb_string(), any::<usize>(), any::<usize>()).prop_map(|(graph, pending, max_pending)| {
            ServeError::Overloaded {
                graph,
                pending,
                max_pending,
            }
        }),
        (arb_string(), arb_string())
            .prop_map(|(graph, leader)| ServeError::ReadOnlyReplica { graph, leader }),
        (any::<u64>(), any::<u64>()).prop_map(|(leader_epoch, seen_epoch)| {
            ServeError::StaleLeader {
                leader_epoch,
                seen_epoch,
            }
        }),
    ]
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (arb_string(), arb_request()).prop_map(|(graph, request)| Envelope { graph, request })
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(min_version, max_version)| ClientFrame::Hello {
            min_version,
            max_version
        }),
        (any::<u64>(), vec(arb_envelope(), 0..5))
            .prop_map(|(id, requests)| ClientFrame::Batch { id, requests }),
        Just(ClientFrame::Goodbye),
    ]
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    let result = prop_oneof![arb_response().prop_map(Ok), arb_error().prop_map(Err),];
    prop_oneof![
        any::<u32>().prop_map(|version| ServerFrame::HelloAck { version }),
        (any::<u64>(), vec(result, 0..5))
            .prop_map(|(id, results)| ServerFrame::Batch { id, results }),
        arb_error().prop_map(|error| ServerFrame::Error { error }),
    ]
}

fn assert_client_frame_round_trips(frame: &ClientFrame) {
    let bytes = encode_client_frame(frame);
    let back = decode_client_frame(&bytes)
        .unwrap_or_else(|e| panic!("decode failed for {frame:?}: {e} (frame: {bytes:02x?})"));
    assert_eq!(&back, frame);
}

fn assert_server_frame_round_trips(frame: &ServerFrame) {
    let bytes = encode_server_frame(frame);
    let back = decode_server_frame(&bytes)
        .unwrap_or_else(|e| panic!("decode failed for {frame:?}: {e} (frame: {bytes:02x?})"));
    assert_eq!(&back, frame);
}

/// A request rides the wire inside a batch envelope.
fn assert_request_round_trips(request: Request) {
    assert_client_frame_round_trips(&ClientFrame::Batch {
        id: 0,
        requests: vec![Envelope::new("g", request)],
    });
}

/// A response or per-request error rides the wire as a batch result.
fn assert_result_round_trips(result: Result<Response, ServeError>) {
    assert_server_frame_round_trips(&ServerFrame::Batch {
        id: 0,
        results: vec![result],
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(x in arb_request()) {
        assert_request_round_trips(x);
    }

    #[test]
    fn responses_round_trip(x in arb_response()) {
        assert_result_round_trips(Ok(x));
    }

    #[test]
    fn errors_round_trip(x in arb_error()) {
        // Per-request and connection-fatal positions both.
        assert_result_round_trips(Err(x.clone()));
        assert_server_frame_round_trips(&ServerFrame::Error { error: x });
    }

    #[test]
    fn error_codes_ride_the_wire_as_their_stable_number(x in arb_error()) {
        // Body = crc (4) + frame tag (1) + the error's code as a u32: the
        // number clients branch on is the number on the wire.
        let bytes = encode_server_frame(&ServerFrame::Error { error: x.clone() });
        let code = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
        prop_assert_eq!(code, u32::from(x.code().as_u16()));
    }

    #[test]
    fn client_frames_round_trip(x in arb_client_frame()) {
        assert_client_frame_round_trips(&x);
    }

    #[test]
    fn server_frames_round_trip(x in arb_server_frame()) {
        assert_server_frame_round_trips(&x);
    }
}

#[test]
fn empty_payloads_round_trip() {
    assert_request_round_trips(Request::classify(vec![], 0));
    assert_request_round_trips(Request::ApplyUpdates { updates: vec![] });
    assert_result_round_trips(Ok(Response::Classes(vec![])));
    assert_result_round_trips(Ok(Response::Neighbors(vec![])));
    assert_result_round_trips(Ok(Response::Row(vec![])));
    assert_client_frame_round_trips(&ClientFrame::Batch {
        id: 0,
        requests: vec![Envelope::new("", Request::stats())],
    });
    assert_client_frame_round_trips(&ClientFrame::Batch {
        id: 0,
        requests: vec![],
    });
    assert_server_frame_round_trips(&ServerFrame::Batch {
        id: 0,
        results: vec![],
    });
}

#[test]
fn extreme_integers_round_trip() {
    assert_result_round_trips(Ok(Response::Applied {
        applied: usize::MAX,
        epoch: u64::MAX,
    }));
    assert_client_frame_round_trips(&ClientFrame::Batch {
        id: u64::MAX,
        requests: vec![],
    });
    assert_result_round_trips(Err(ServeError::VertexOutOfRange {
        vertex: u32::MAX,
        num_vertices: usize::MAX,
    }));
    assert_client_frame_round_trips(&ClientFrame::Hello {
        min_version: 0,
        max_version: u32::MAX,
    });
    assert_server_frame_round_trips(&ServerFrame::HelloAck { version: u32::MAX });
}

#[test]
fn maximal_size_payloads_round_trip() {
    // A frame the size of a real bulk answer: 100k-row classify, a 50k-f64
    // embedding row, and a dense neighbor list.
    let vertices: Vec<u32> = (0..100_000u32).collect();
    assert_request_round_trips(Request::classify(vertices, usize::MAX));
    let row: Vec<f64> = (0..50_000).map(|i| (i as f64).sin() * 1e6).collect();
    assert_result_round_trips(Ok(Response::Row(row)));
    let neighbors: Vec<(u32, f64)> = (0..20_000u32).map(|v| (v, f64::from(v) * 0.125)).collect();
    assert_result_round_trips(Ok(Response::Neighbors(neighbors)));
    let updates: Vec<Update> = (0..30_000u32)
        .map(|i| Update::InsertEdge {
            u: i,
            v: i.wrapping_mul(2_654_435_761),
            w: 1.0,
        })
        .collect();
    assert_client_frame_round_trips(&ClientFrame::Batch {
        id: 1,
        requests: vec![Envelope::new("bulk", Request::ApplyUpdates { updates })],
    });
}

#[test]
fn builders_that_do_not_apply_leave_the_frame_untouched() {
    // `pinned`/`with_search` are no-ops on requests that cannot carry
    // them, so no optional field can leak into their frames.
    let bytes = |request: Request| {
        encode_client_frame(&ClientFrame::Batch {
            id: 0,
            requests: vec![Envelope::new("g", request)],
        })
    };
    assert_eq!(
        bytes(Request::embed_row(9).with_search(SearchPolicy::ann(2))),
        bytes(Request::embed_row(9)),
    );
    assert_eq!(
        bytes(Request::stats().with_search(SearchPolicy::Exact)),
        bytes(Request::stats()),
    );
    assert_eq!(
        bytes(Request::Metrics.pinned(7).with_search(SearchPolicy::ann(2))),
        bytes(Request::Metrics),
    );
}

#[test]
fn new_error_frames_round_trip_with_stable_codes() {
    let evicted = ServeError::EpochEvicted {
        graph: "g".into(),
        epoch: 2,
        oldest: 5,
        newest: 9,
    };
    let overloaded = ServeError::Overloaded {
        graph: "g".into(),
        pending: 32,
        max_pending: 32,
    };
    assert_eq!(evicted.code().as_u16(), 13);
    assert_eq!(overloaded.code().as_u16(), 14);
    // Inside a server Batch frame, the position a client sees them.
    assert_server_frame_round_trips(&ServerFrame::Batch {
        id: 7,
        results: vec![Err(evicted), Err(overloaded)],
    });
}

#[test]
fn read_only_replica_error_has_code_15() {
    let err = ServeError::ReadOnlyReplica {
        graph: "g".into(),
        leader: "10.0.0.1:7777".into(),
    };
    assert_eq!(err.code().as_u16(), 15);
    assert_result_round_trips(Err(err));
}

#[test]
fn stale_leader_error_has_code_16() {
    let err = ServeError::StaleLeader {
        leader_epoch: 1,
        seen_epoch: 4,
    };
    assert_eq!(err.code().as_u16(), 16);
    assert!(err.to_string().contains("stale"), "{err}");
    assert_result_round_trips(Err(err));
}

// ---------------------------------------------------------------------
// Never-panic: the decoders against hostile bytes.
// ---------------------------------------------------------------------

/// Records the largest single allocation each thread requests, so a
/// decode can be held to "no allocation the input does not account for".
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    // `try_with`: allocations during thread teardown are not ours to judge.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// The largest single allocation `f` requested on this thread.
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The decoders pre-size a `Vec` from a count field only after bounding
/// the count by the bytes that remain, so the worst a hostile frame can
/// ask for is one in-memory element per input byte — plus the few
/// hundred bytes of an error message.
fn alloc_bound(input_len: usize) -> usize {
    let element =
        std::mem::size_of::<Result<Response, ServeError>>().max(std::mem::size_of::<Envelope>());
    input_len * element + 1024
}

/// Feed `bytes` to one decoder: a typed `Protocol` error or a value
/// that re-encodes to a fixed point, within the allocation bound.
/// (Compared on bytes, not values: a mutated `f64` may be a NaN.)
fn check_decoder<T>(
    bytes: &[u8],
    decode: fn(&[u8]) -> Result<T, ServeError>,
    encode: fn(&T) -> Vec<u8>,
) {
    let (outcome, largest) = largest_alloc_during(|| decode(bytes));
    assert!(
        largest <= alloc_bound(bytes.len()),
        "decoding {} bytes allocated {largest} at once",
        bytes.len()
    );
    match outcome {
        Err(ServeError::Protocol { .. }) => {}
        Err(other) => panic!("decode failures must be Protocol, got {other:?}"),
        Ok(value) => {
            let canonical = encode(&value);
            let again = decode(&canonical)
                .unwrap_or_else(|e| panic!("re-encoded frame does not decode: {e}"));
            assert_eq!(encode(&again), canonical);
        }
    }
}

/// Hostile bytes could arrive at either end.
fn check_both_decoders(bytes: &[u8]) {
    check_decoder(bytes, decode_client_frame, encode_client_frame);
    check_decoder(bytes, decode_server_frame, encode_server_frame);
}

/// A frame body around `payload` with a *valid* checksum: the CRC is an
/// integrity check, not a trust boundary, so the parser behind it must
/// hold on its own.
fn sealed(payload: &[u8]) -> Vec<u8> {
    let mut body = crc32(payload).to_le_bytes().to_vec();
    body.extend_from_slice(payload);
    body
}

/// Every hostile variant of one valid frame body.
fn check_hostile_variants(body: &[u8], mask: u8) {
    for cut in 0..body.len() {
        check_both_decoders(&body[..cut]);
    }
    let payload = &body[4..];
    for pos in 0..payload.len() {
        let mut mutated = payload.to_vec();
        mutated[pos] ^= mask;
        check_both_decoders(&sealed(&mutated));
        // Wherever a count field sits, it now claims u32::MAX items.
        if let Some(field) = mutated.get_mut(pos..pos + 4) {
            field.fill(0xff);
            check_both_decoders(&sealed(&mutated));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(raw in vec(any::<u8>(), 0..96)) {
        // As-is (the checksum all but surely fails) and behind a valid
        // checksum (the parser itself sees the garbage).
        check_both_decoders(&raw);
        check_both_decoders(&sealed(&raw));
    }

    #[test]
    fn hostile_client_frames_never_panic_a_decoder(x in arb_client_frame(), mask in 1u8..255) {
        check_hostile_variants(&encode_client_frame(&x), mask);
    }

    #[test]
    fn hostile_server_frames_never_panic_a_decoder(x in arb_server_frame(), mask in 1u8..255) {
        check_hostile_variants(&encode_server_frame(&x), mask);
    }
}

#[test]
fn a_huge_count_in_a_tiny_frame_is_refused_before_allocating() {
    // tag Batch, id 0, then "u32::MAX results follow" — and nothing does.
    let mut payload = vec![2u8];
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let body = sealed(&payload);
    let (outcome, largest) = largest_alloc_during(|| decode_server_frame(&body));
    assert!(matches!(outcome, Err(ServeError::Protocol { .. })));
    assert!(largest < 1024, "allocated {largest} for a 17-byte frame");
    let (outcome, largest) = largest_alloc_during(|| decode_client_frame(&body));
    assert!(matches!(outcome, Err(ServeError::Protocol { .. })));
    assert!(largest < 1024, "allocated {largest} for a 17-byte frame");
}
