//! Engine-vs-Client equivalence: the same workload executed in-process
//! and across the wire must produce identical (`==`) results — over the
//! in-process duplex transport, over loopback TCP, and under pipelining.

use std::sync::Arc;

use gee_core::Labels;
use gee_serve::codec::{
    decode_client_frame, decode_server_frame, encode_client_frame, encode_server_frame,
};
use gee_serve::{
    duplex, Client, ClientFrame, Engine, Envelope, Registry, Request, Response, ServeError, Server,
    ServerFrame, TcpTransport, Transport, Update, PROTOCOL_VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;

const N: usize = 120;
const K: usize = 5;

/// Two engines built from identical inputs: one to serve remotely, one to
/// answer in-process as the oracle.
fn twin_engines(shards: usize) -> (Arc<Engine>, Engine) {
    let make = || {
        let el = gee_gen::erdos_renyi_gnm(N, 900, 21);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                N,
                gee_gen::LabelSpec {
                    num_classes: K,
                    labeled_fraction: 0.3,
                },
                3,
            ),
            K,
        );
        let reg = Registry::new(shards);
        reg.register("g", &el, &labels).unwrap();
        Engine::new(Arc::new(reg))
    };
    (Arc::new(make()), make())
}

/// Serve `server_engine` on one end of a duplex pair in a background
/// thread; return a handshaken client on the other end.
fn duplex_client(server_engine: Arc<Engine>) -> (Client, std::thread::JoinHandle<()>) {
    let (server_end, client_end) = duplex();
    let handle = std::thread::spawn(move || {
        let mut transport = server_end;
        let _ = Server::new(server_engine).serve_connection(&mut transport);
    });
    (
        Client::over(client_end).expect("handshake succeeds"),
        handle,
    )
}

/// The byte oracle: results as the server would frame them, so every
/// `f64` bit counts.
fn wire_bytes(results: &[Result<Response, ServeError>]) -> Vec<u8> {
    encode_server_frame(&ServerFrame::Batch {
        id: 0,
        results: results.to_vec(),
    })
}

/// A mixed read/write/error workload batch, deterministic in `case`.
fn workload_batch(case: u32) -> Vec<Envelope> {
    let v = |i: u32| (case.wrapping_mul(31).wrapping_add(i * 7)) % N as u32;
    let mut batch = vec![
        Envelope::new("g", Request::classify(vec![v(0), v(1), v(2)], 3)),
        Envelope::new("g", Request::similar(v(3), 5)),
        Envelope::new("g", Request::embed_row(v(4))),
        Envelope::new(
            "g",
            Request::ApplyUpdates {
                updates: vec![
                    Update::InsertEdge {
                        u: v(5),
                        v: v(6),
                        w: 1.0 + f64::from(case % 4),
                    },
                    Update::SetLabel {
                        v: v(7),
                        label: Some(case % K as u32),
                    },
                ],
            },
        ),
        Envelope::new("g", Request::classify(vec![v(0), v(1), v(2)], 3)),
        Envelope::new("g", Request::stats()),
    ];
    if case % 3 == 0 {
        // Per-request failures must be equivalent too.
        batch.push(Envelope::new("missing", Request::stats()));
        batch.push(Envelope::new("g", Request::embed_row(u32::MAX)));
        batch.push(Envelope::new("g", Request::similar(v(8), 0)));
    }
    batch
}

#[test]
fn duplex_client_equals_engine_on_scripted_workload() {
    let (remote, local) = twin_engines(4);
    let (mut client, server_thread) = duplex_client(remote);
    assert_eq!(client.protocol_version(), PROTOCOL_VERSION);
    for case in 0..12u32 {
        let batch = workload_batch(case);
        let over_wire = client.execute_batch(batch.clone()).unwrap();
        let in_process = local.execute_batch(batch);
        assert_eq!(over_wire, in_process, "case {case}");
    }
    client.goodbye().unwrap();
    server_thread.join().unwrap();
}

#[test]
fn duplex_client_equals_engine_on_random_batches() {
    // Property check over random envelope batches (including nonsense
    // parameters — equivalence must hold for errors as much as answers).
    let arb_batch = vec(
        (
            0usize..5,
            vec(0u32..(2 * N as u32), 0..4),
            0usize..4,
            1usize..7,
        )
            .prop_map(|(kind, vs, top, k)| {
                let graph = if kind == 4 { "nope" } else { "g" };
                let request = match kind {
                    0 => Request::classify(vs, k),
                    1 => Request::similar(vs.first().copied().unwrap_or(0), top),
                    2 => Request::embed_row(vs.first().copied().unwrap_or(0)),
                    3 => Request::ApplyUpdates {
                        updates: vs
                            .iter()
                            .map(|&u| Update::InsertEdge {
                                u: u % N as u32,
                                v: (u / 2) % N as u32,
                                w: 1.0,
                            })
                            .collect(),
                    },
                    _ => Request::stats(),
                };
                Envelope::new(graph, request)
            }),
        0..8,
    );
    let (remote, local) = twin_engines(3);
    let (mut client, server_thread) = duplex_client(remote);
    for case in 0..64u32 {
        let mut rng = proptest::case_rng(case);
        let batch = arb_batch.new_value(&mut rng);
        let over_wire = client.execute_batch(batch.clone()).unwrap();
        let in_process = local.execute_batch(batch.clone());
        assert_eq!(over_wire, in_process, "case {case}: {batch:?}");
    }
    drop(client);
    server_thread.join().unwrap();
}

#[test]
fn named_client_methods_equal_named_engine_methods() {
    let (remote, local) = twin_engines(2);
    let (mut client, server_thread) = duplex_client(remote);
    assert_eq!(
        client.classify("g", vec![0, 1, 2], 5),
        local.classify("g", vec![0, 1, 2], 5)
    );
    assert_eq!(client.similar("g", 7, 10), local.similar("g", 7, 10));
    assert_eq!(client.embed_row("g", 3), local.embed_row("g", 3));
    let updates = vec![Update::InsertEdge { u: 1, v: 2, w: 2.0 }];
    assert_eq!(
        client.apply_updates("g", updates.clone()),
        local.apply_updates("g", updates)
    );
    assert_eq!(client.stats("g"), local.stats("g"));
    // Typed errors come through the named methods unchanged too.
    assert_eq!(client.similar("g", 0, 0), local.similar("g", 0, 0));
    assert_eq!(client.stats("missing"), local.stats("missing"));
    // Non-finite weights are rejected with the same typed error on both
    // paths — equivalence holds even here.
    let nan_update = vec![Update::InsertEdge {
        u: 0,
        v: 1,
        w: f64::NAN,
    }];
    let remote_err = client.apply_updates("g", nan_update.clone());
    assert_eq!(remote_err, local.apply_updates("g", nan_update));
    assert!(
        matches!(remote_err, Err(ServeError::NonFinite { .. })),
        "{remote_err:?}"
    );
    drop(client);
    server_thread.join().unwrap();
}

#[test]
fn tcp_client_equals_engine_and_pipelines() {
    let (remote, local) = twin_engines(4);
    let handle = Server::listen(remote, "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Sequential equivalence.
    for case in 0..4u32 {
        let batch = workload_batch(case);
        assert_eq!(
            client.execute_batch(batch.clone()).unwrap(),
            local.execute_batch(batch)
        );
    }

    // Pipelined equivalence: all batches sent before any reply is read.
    let batches: Vec<Vec<Envelope>> = (4..10u32).map(workload_batch).collect();
    let over_wire = client.pipeline(batches.clone()).unwrap();
    let in_process: Vec<_> = batches
        .into_iter()
        .map(|b| local.execute_batch(b))
        .collect();
    assert_eq!(over_wire, in_process);

    // Two clients on one server: the second sees the first's writes.
    let mut second = Client::connect(handle.addr()).unwrap();
    let epoch_now = second.stats("g").unwrap().epoch;
    assert_eq!(epoch_now, local.stats("g").unwrap().epoch);

    client.goodbye().unwrap();
    second.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn handshake_rejects_unsupported_version_range() {
    let (remote, _) = twin_engines(1);
    let handle = Server::listen(remote, "127.0.0.1:0", None).unwrap();
    // Hand-rolled hello demanding a future protocol.
    let mut t = TcpTransport::connect(handle.addr()).unwrap();
    t.send(encode_client_frame(&ClientFrame::Hello {
        min_version: PROTOCOL_VERSION + 1,
        max_version: PROTOCOL_VERSION + 5,
    }))
    .unwrap();
    let reply = t.recv().unwrap().expect("server answers before closing");
    match decode_server_frame(&reply).unwrap() {
        ServerFrame::Error { error } => {
            assert_eq!(
                error,
                ServeError::VersionUnsupported {
                    client_min: PROTOCOL_VERSION + 1,
                    client_max: PROTOCOL_VERSION + 5,
                    server_min: PROTOCOL_VERSION,
                    server_max: PROTOCOL_VERSION,
                }
            );
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_eq!(
        t.recv().unwrap(),
        None,
        "server closes after rejecting the handshake"
    );
    handle.shutdown();
}

#[test]
fn malformed_frame_is_rejected_with_a_typed_error() {
    let (remote, _) = twin_engines(1);
    let (server_end, mut raw) = duplex();
    let thread = std::thread::spawn(move || {
        let mut transport = server_end;
        Server::new(remote).serve_connection(&mut transport)
    });
    raw.send(b"this is not a frame".to_vec()).unwrap();
    let reply = raw.recv().unwrap().unwrap();
    match decode_server_frame(&reply).unwrap() {
        ServerFrame::Error { error } => {
            assert!(matches!(error, ServeError::Protocol { .. }), "{error}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    let served = thread.join().unwrap();
    assert!(matches!(served, Err(ServeError::Protocol { .. })));
}

#[test]
fn responses_are_equal_when_roundtripped_through_wire_bytes() {
    // Byte-level check: frame the in-process responses with the same
    // codec the server uses and confirm the client-received values
    // decode from exactly those bytes.
    let (remote, local) = twin_engines(2);
    let (mut client, server_thread) = duplex_client(remote);
    let batch = workload_batch(1);
    let over_wire = client.execute_batch(batch.clone()).unwrap();
    let in_process = local.execute_batch(batch);
    let wire_bytes_local = wire_bytes(&in_process);
    assert_eq!(
        wire_bytes_local,
        wire_bytes(&over_wire),
        "byte-identical on the wire"
    );
    assert_eq!(
        decode_server_frame(&wire_bytes_local).unwrap(),
        ServerFrame::Batch {
            id: 0,
            results: in_process,
        }
    );
    drop(client);
    server_thread.join().unwrap();
}

#[test]
fn time_travel_reads_are_byte_identical_across_engine_duplex_and_tcp() {
    // Twin engines with a 4-epoch history ring; the same pinned reads
    // must answer identically in-process, over the in-process duplex,
    // and over loopback TCP — compared on encoded wire bytes, so every
    // f64 bit counts.
    let make = || {
        let el = gee_gen::erdos_renyi_gnm(N, 900, 21);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                N,
                gee_gen::LabelSpec {
                    num_classes: K,
                    labeled_fraction: 0.3,
                },
                3,
            ),
            K,
        );
        let engine = Engine::with_config(gee_serve::RegistryConfig {
            default_shards: 4,
            history: gee_serve::HistoryPolicy::keep(4),
            ..gee_serve::RegistryConfig::default()
        })
        .unwrap();
        engine.registry().register("g", &el, &labels).unwrap();
        for i in 0..3u32 {
            engine
                .apply_updates(
                    "g",
                    vec![
                        Update::InsertEdge {
                            u: i % N as u32,
                            v: (i * 13 + 2) % N as u32,
                            w: 1.0 + f64::from(i),
                        },
                        Update::SetLabel {
                            v: (i * 7 + 1) % N as u32,
                            label: Some(i % K as u32),
                        },
                    ],
                )
                .unwrap();
        }
        engine
    };
    // One twin engine per path: the read suites below must hit each
    // engine exactly once per round or the Stats query counters diverge.
    let local = make();
    let remote_dup = Arc::new(make());
    let remote_tcp = Arc::new(make());

    let pinned_suite = |epoch: Option<u64>| -> Vec<Envelope> {
        let reqs = vec![
            Request::classify(vec![0, 5, 9], 3),
            Request::similar(7, 6),
            Request::embed_row(11),
            Request::stats(),
        ];
        reqs.into_iter()
            .map(|r| {
                let r = match epoch {
                    Some(e) => r.pinned(e),
                    None => r,
                };
                Envelope::new("g", r)
            })
            .collect()
    };

    let handle = Server::listen(remote_tcp, "127.0.0.1:0", None).unwrap();
    let mut tcp = Client::connect(handle.addr()).unwrap();
    assert_eq!(tcp.protocol_version(), PROTOCOL_VERSION);
    let (mut dup, server_thread) = duplex_client(remote_dup);

    // Every retained epoch, plus the unpinned present, plus two evicted
    // pins (one too old once epochs advance past keep, one future).
    for epoch in [None, Some(0), Some(1), Some(2), Some(3), Some(9)] {
        let batch = pinned_suite(epoch);
        let in_process = local.execute_batch(batch.clone());
        let over_duplex = dup.execute_batch(batch.clone()).unwrap();
        let over_tcp = tcp.execute_batch(batch).unwrap();
        assert_eq!(
            wire_bytes(&in_process),
            wire_bytes(&over_duplex),
            "duplex, epoch {epoch:?}"
        );
        assert_eq!(
            wire_bytes(&in_process),
            wire_bytes(&over_tcp),
            "tcp, epoch {epoch:?}"
        );
        if epoch == Some(9) {
            for r in &in_process {
                assert!(
                    matches!(r, Err(ServeError::EpochEvicted { newest: 3, .. })),
                    "{r:?}"
                );
            }
        }
    }

    // Named *_at methods agree across the three paths too. (These are
    // asymmetric — they don't hit every engine — so the stats check
    // below compares snapshot-shaped fields, not query counters.)
    assert_eq!(
        local.classify_at("g", vec![0, 1], 3, Some(1)),
        dup.classify_at("g", vec![0, 1], 3, Some(1))
    );
    assert_eq!(
        local.embed_row_at("g", 4, Some(2)),
        tcp.embed_row_at("g", 4, Some(2))
    );
    assert_eq!(
        local.similar_at("g", 3, 5, Some(0)),
        tcp.similar_at("g", 3, 5, Some(0))
    );
    let l = local.stats_at("g", Some(3)).unwrap();
    let d = dup.stats_at("g", Some(3)).unwrap();
    assert_eq!(
        (l.epoch, l.oldest_epoch, l.num_labeled, l.num_shards),
        (d.epoch, d.oldest_epoch, d.num_labeled, d.num_shards)
    );
    // Writes keep flowing while pinned readers look at the past: the
    // new epoch enters the ring, the oldest leaves.
    local
        .apply_updates("g", vec![Update::InsertEdge { u: 0, v: 1, w: 9.0 }])
        .unwrap();
    tcp.apply_updates("g", vec![Update::InsertEdge { u: 0, v: 1, w: 9.0 }])
        .unwrap();
    assert_eq!(
        local.stats("g").unwrap().oldest_epoch,
        tcp.stats("g").unwrap().oldest_epoch
    );
    assert!(matches!(
        tcp.embed_row_at("g", 0, Some(0)),
        Err(ServeError::EpochEvicted { .. })
    ));

    dup.goodbye().unwrap();
    server_thread.join().unwrap();
    tcp.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn overloaded_travels_the_wire_as_a_typed_per_request_error() {
    let el = gee_gen::erdos_renyi_gnm(N, 500, 5);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            N,
            gee_gen::LabelSpec {
                num_classes: K,
                labeled_fraction: 0.3,
            },
            3,
        ),
        K,
    );
    let engine = Arc::new(
        Engine::with_config(gee_serve::RegistryConfig {
            default_shards: 2,
            backpressure: gee_serve::BackpressurePolicy::max_pending(1),
            ..gee_serve::RegistryConfig::default()
        })
        .unwrap(),
    );
    engine.registry().register("g", &el, &labels).unwrap();
    let slot = engine.registry().hold_write_slot("g").unwrap();
    let (mut client, server_thread) = duplex_client(engine.clone());
    let err = client
        .apply_updates("g", vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::Overloaded {
            graph: "g".into(),
            pending: 1,
            max_pending: 1,
        }
    );
    assert_eq!(err.code().as_u16(), 14);
    // The connection survives the rejection; reads still flow.
    assert!(client.stats("g").is_ok());
    drop(slot);
    assert_eq!(
        client
            .apply_updates("g", vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
            .unwrap(),
        (1, 1)
    );
    drop(client);
    server_thread.join().unwrap();
}

#[test]
fn ann_search_is_byte_identical_across_engine_duplex_and_tcp() {
    // Approximate search is still a deterministic function of the
    // snapshot (the index is built deterministically from block
    // content), so twin engines must answer ANN requests identically
    // in-process, over duplex, and over TCP — compared on encoded wire
    // bytes. The graph is large enough that every shard really indexes.
    use gee_serve::SearchPolicy;
    const AN: usize = 1600;
    let make = || {
        let el = gee_gen::erdos_renyi_gnm(AN, AN * 5, 43);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                AN,
                gee_gen::LabelSpec {
                    num_classes: K,
                    labeled_fraction: 0.3,
                },
                3,
            ),
            K,
        );
        let engine = Engine::with_config(gee_serve::RegistryConfig {
            default_shards: 4,
            search: SearchPolicy::ann(4),
            ..gee_serve::RegistryConfig::default()
        })
        .unwrap();
        engine.registry().register("g", &el, &labels).unwrap();
        engine
    };
    let local = make();
    let remote_dup = Arc::new(make());
    let remote_tcp = Arc::new(make());
    let handle = Server::listen(remote_tcp, "127.0.0.1:0", None).unwrap();
    let mut tcp = Client::connect(handle.addr()).unwrap();
    assert_eq!(tcp.protocol_version(), PROTOCOL_VERSION);
    let (mut dup, server_thread) = duplex_client(remote_dup);

    // Default (ANN) policy, per-request ANN overrides, the exact escape
    // hatch, and an invalid nprobe that must fail typed on every path.
    let suite: Vec<Envelope> = vec![
        Envelope::new("g", Request::similar(7, 10)),
        Envelope::new("g", Request::classify(vec![0, 5, 9, 1000], 5)),
        Envelope::new(
            "g",
            Request::similar(9, 10).with_search(SearchPolicy::ann(2)),
        ),
        Envelope::new(
            "g",
            Request::similar(9, 10).with_search(SearchPolicy::Exact),
        ),
        Envelope::new(
            "g",
            Request::classify(vec![3, 4], 3).with_search(SearchPolicy::Ann {
                nprobe: 1,
                refine: 64,
            }),
        ),
        Envelope::new(
            "g",
            Request::similar(2, 4).with_search(SearchPolicy::Ann {
                nprobe: 0,
                refine: 1,
            }),
        ),
    ];
    let in_process = local.execute_batch(suite.clone());
    let over_duplex = dup.execute_batch(suite.clone()).unwrap();
    let over_tcp = tcp.execute_batch(suite).unwrap();
    assert_eq!(wire_bytes(&in_process), wire_bytes(&over_duplex), "duplex");
    assert_eq!(wire_bytes(&in_process), wire_bytes(&over_tcp), "tcp");
    assert!(matches!(in_process[5], Err(ServeError::ZeroLimit { .. })));

    // The named *_with mirrors agree across paths too.
    assert_eq!(
        local.similar_with("g", 11, 8, None, Some(SearchPolicy::ann(3))),
        dup.similar_with("g", 11, 8, None, Some(SearchPolicy::ann(3))),
    );
    assert_eq!(
        local.classify_with("g", vec![1, 2], 3, None, Some(SearchPolicy::Exact)),
        tcp.classify_with("g", vec![1, 2], 3, None, Some(SearchPolicy::Exact)),
    );

    dup.goodbye().unwrap();
    server_thread.join().unwrap();
    tcp.goodbye().unwrap();
    handle.shutdown();
}

/// Handshake a client against a scripted peer that answers its `Hello`
/// with `reply` (or hangs up without one).
fn handshake_against(reply: Option<ServerFrame>) -> Result<Client, ServeError> {
    let (mut peer, client_end) = duplex();
    let script = std::thread::spawn(move || {
        let hello = peer.recv().unwrap().expect("client sends Hello first");
        match decode_client_frame(&hello).unwrap() {
            ClientFrame::Hello {
                min_version,
                max_version,
            } => assert_eq!(
                (min_version, max_version),
                (PROTOCOL_VERSION, PROTOCOL_VERSION)
            ),
            other => panic!("expected Hello, got {other:?}"),
        }
        if let Some(reply) = reply {
            peer.send(encode_server_frame(&reply)).unwrap();
        }
    });
    let outcome = Client::over(client_end);
    script.join().unwrap();
    outcome
}

#[test]
fn client_rejects_an_ack_outside_its_advertised_range() {
    // Taking a version it never offered would mean speaking a protocol
    // this build does not implement, so the handshake must fail typed.
    let refused = handshake_against(Some(ServerFrame::HelloAck {
        version: PROTOCOL_VERSION + 1,
    }))
    .err()
    .expect("handshake must fail");
    let named = format!("v{}", PROTOCOL_VERSION + 1);
    assert!(
        matches!(&refused, ServeError::Protocol { detail } if detail.contains(&named)),
        "{refused}"
    );
}

#[test]
fn client_fails_the_handshake_typed_on_anything_but_an_ack() {
    // The server's own refusal comes through as the error it sent...
    let refusal = ServeError::VersionUnsupported {
        client_min: PROTOCOL_VERSION,
        client_max: PROTOCOL_VERSION,
        server_min: PROTOCOL_VERSION + 1,
        server_max: PROTOCOL_VERSION + 3,
    };
    let got = handshake_against(Some(ServerFrame::Error {
        error: refusal.clone(),
    }));
    assert_eq!(got.err(), Some(refusal));
    // ...any other frame, or a hang-up, as a protocol violation.
    let not_an_ack = ServerFrame::Batch {
        id: 0,
        results: vec![],
    };
    for (reply, needle) in [
        (Some(not_an_ack), "expected HelloAck"),
        (None, "closed during handshake"),
    ] {
        let refused = handshake_against(reply).err().expect("handshake must fail");
        assert!(
            matches!(&refused, ServeError::Protocol { detail } if detail.contains(needle)),
            "{refused}"
        );
    }
}

#[test]
fn shutdown_unblocks_when_bound_to_an_unspecified_address() {
    // `0.0.0.0:0` binds every interface; the shutdown self-connection
    // must target the loopback (connecting to 0.0.0.0 fails on some
    // platforms), or this test hangs forever.
    let (remote, _) = twin_engines(2);
    let handle = Server::listen(remote, "0.0.0.0:0", None).unwrap();
    assert!(handle.addr().ip().is_unspecified());
    let port = handle.addr().port();
    let mut client = Client::connect(("127.0.0.1", port)).unwrap();
    assert!(client.stats("g").is_ok());
    client.goodbye().unwrap();
    handle.shutdown(); // must return, not hang
}

#[test]
fn connection_burst_returns_to_pool_at_rest() {
    // Regression for the unbounded-JoinHandle accept loop: after a
    // burst of connections closes, the server holds no per-connection
    // state — the live gauge returns to zero and the thread pool stays
    // at its fixed size.
    let (remote, _) = twin_engines(2);
    let handle = Server::listen_with(remote, "127.0.0.1:0", None, 2).unwrap();
    assert_eq!(handle.workers(), 2);

    for _round in 0..3 {
        let mut clients: Vec<Client> = (0..12)
            .map(|_| Client::connect(handle.addr()).unwrap())
            .collect();
        for c in &mut clients {
            assert!(c.stats("g").is_ok());
        }
        assert!(handle.live_connections() >= 1, "burst is visible");
        for c in clients {
            c.goodbye().unwrap();
        }
        // The workers observe the goodbyes/EOFs asynchronously.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.live_connections() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stuck at {} live connections",
                handle.live_connections()
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    assert_eq!(handle.workers(), 2, "pool size is burst-invariant");
    handle.shutdown();
}

#[test]
fn pipelining_survives_response_too_large_substitution() {
    // A batch whose encoded reply overflows MAX_FRAME_LEN gets a typed
    // ResponseTooLarge error in *every* slot (count preserved), and the
    // connection keeps working: a pipelined follow-up batch and further
    // sequential batches still succeed.
    const BIG_K: usize = 256; // dim == num_classes, so rows are 256 f64s
    const VERTICES: usize = 64;
    let el = gee_gen::erdos_renyi_gnm(VERTICES, 300, 11);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            VERTICES,
            gee_gen::LabelSpec {
                num_classes: BIG_K,
                labeled_fraction: 0.5,
            },
            3,
        ),
        BIG_K,
    );
    let reg = Registry::new(2);
    reg.register("g", &el, &labels).unwrap();
    let engine = Arc::new(Engine::new(Arc::new(reg)));
    let handle = Server::listen(engine, "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // ~34k rows x ~2KB each overflows the 64 MiB reply frame.
    let huge: Vec<Envelope> = (0..34_000u32)
        .map(|i| Envelope::new("g", Request::embed_row(i % VERTICES as u32)))
        .collect();
    let huge_len = huge.len();
    let small = workload_batch(1);
    let small_len = small.len();

    let mut replies = client.pipeline(vec![huge, small]).unwrap();
    assert_eq!(replies.len(), 2);
    let small_reply = replies.pop().unwrap();
    let huge_reply = replies.pop().unwrap();

    assert_eq!(huge_reply.len(), huge_len, "slot count preserved");
    for slot in &huge_reply {
        assert!(
            matches!(slot, Err(ServeError::ResponseTooLarge { max_bytes, .. })
                if *max_bytes == gee_serve::wire::MAX_FRAME_LEN),
            "{slot:?}"
        );
    }
    assert_eq!(small_reply.len(), small_len);
    assert!(small_reply[0].is_ok(), "pipelined follow-up still answered");

    // And the connection remains usable afterwards.
    assert!(client.stats("g").is_ok());
    client.goodbye().unwrap();
    handle.shutdown();
}
