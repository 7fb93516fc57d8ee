//! Replication stream-frame hardening.
//!
//! Three layers of defense are pinned here: (1) seeded proptest
//! round-trips over every [`ReplFrame`] variant, (2) a corrupted
//! transport frame (any flipped byte, any truncation point) must be
//! *rejected* — never misread as a different valid message, and (3) a
//! real [`Follower`] fed torn streams, bit flips, bad record payloads,
//! and LSN discontinuities by a scripted fake leader must surface
//! `Corrupt` and apply **nothing**, then recover cleanly when a healthy
//! leader comes back (leader-churn convergence, fingerprint-checked).

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gee_core::Labels;
use gee_gen::LabelSpec;
use gee_graph::io::frame;
use gee_serve::replicate::{ReplFrame, MAX_REPL_FRAME_LEN, REPL_STREAM_VERSION};
use gee_serve::{
    Durability, Follower, HistoryPolicy, Registry, RegistryConfig, ReplicationListener, SyncPolicy,
    Update,
};
use proptest::collection::vec;
use proptest::prelude::*;

mod common;
use common::snapshot_fingerprint;

fn arb_name() -> impl Strategy<Value = String> {
    vec(0usize..8, 0..10).prop_map(|ids| {
        ids.into_iter()
            .map(|i| ['a', 'Z', '0', '_', ' ', '"', 'é', '🦀'][i])
            .collect()
    })
}

fn arb_frame() -> impl Strategy<Value = ReplFrame> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(start_lsn, max_epoch_seen)| ReplFrame::Hello {
            version: REPL_STREAM_VERSION,
            start_lsn,
            max_epoch_seen,
        }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(version, start_lsn, max_epoch_seen)| ReplFrame::Hello {
                version,
                start_lsn,
                max_epoch_seen,
            }
        ),
        (any::<u64>(), any::<u64>())
            .prop_map(|(lsn, leader_epoch)| ReplFrame::Bootstrap { lsn, leader_epoch }),
        (any::<u64>(), any::<u64>()).prop_map(|(from_lsn, leader_epoch)| {
            ReplFrame::Stream {
                from_lsn,
                leader_epoch,
            }
        }),
        (any::<u64>(), vec(any::<u8>(), 0..64))
            .prop_map(|(lsn, record)| ReplFrame::Record { lsn, record }),
        (
            any::<u64>(),
            vec((arb_name(), any::<u64>()), 0..5),
            any::<u64>()
        )
            .prop_map(|(next_lsn, epochs, leader_epoch)| {
                ReplFrame::Heartbeat {
                    next_lsn,
                    epochs,
                    leader_epoch,
                }
            }),
        arb_name().prop_map(|detail| ReplFrame::End { detail }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn repl_frames_round_trip(x in arb_frame()) {
        let payload = x.encode();
        prop_assert_eq!(ReplFrame::decode(&payload).unwrap(), x);
    }

    /// A single flipped byte anywhere in the *transport* frame
    /// (length, CRC, or payload) must never survive the read+decode
    /// path as the original message — the CRC over the payload, and the
    /// length prefix's role in locating that CRC, see to it.
    #[test]
    fn flipped_bytes_never_round_trip(x in arb_frame(), pos in any::<usize>(), bit in 0usize..8) {
        let mut framed = frame::encode_frame(&x.encode());
        let pos = pos % framed.len();
        framed[pos] ^= 1 << bit;
        let mut cursor = &framed[..];
        match frame::read_frame(&mut cursor, MAX_REPL_FRAME_LEN) {
            Err(_) => {} // torn, too-long, or bad CRC: rejected at the transport layer
            Ok(payload) => {
                // The flip landed such that a frame still parsed (e.g. a
                // length flip that found another CRC-consistent span —
                // not constructible here, but guard anyway): it must not
                // decode back to the message we sent.
                prop_assert_ne!(ReplFrame::decode(&payload).ok().as_ref(), Some(&x));
            }
        }
    }

    /// Truncation at any byte boundary is torn, never silently short.
    #[test]
    fn truncated_frames_are_torn(x in arb_frame(), cut in any::<usize>()) {
        let framed = frame::encode_frame(&x.encode());
        let cut = cut % framed.len(); // strictly shorter than the frame
        let mut cursor = &framed[..cut];
        prop_assert!(frame::read_frame(&mut cursor, MAX_REPL_FRAME_LEN).is_err());
    }
}

// ---------------------------------------------------------------------
// Fake-leader fault injection against a real Follower.
// ---------------------------------------------------------------------

const N: usize = 40;
const K: usize = 3;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gee_repl_frames_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &PathBuf) -> RegistryConfig {
    RegistryConfig {
        default_shards: 2,
        history: HistoryPolicy::keep(4),
        durability: Durability::Wal {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            checkpoint_every: 10_000,
        },
        ..RegistryConfig::default()
    }
}

/// A durable leader registry serving one random graph "g".
fn leader_with_graph(tag: &str, edges: usize, seed: u64) -> Arc<Registry> {
    let leader = Arc::new(Registry::with_config(config(&tmp(tag))).unwrap());
    let el = gee_gen::erdos_renyi_gnm(N, edges, seed);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            N,
            LabelSpec {
                num_classes: K,
                labeled_fraction: 0.5,
            },
            seed,
        ),
        K,
    );
    leader.register("g", &el, &labels).unwrap();
    leader
}

fn wait_until(what: &str, secs: u64, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Accept one follower connection, read its Hello, answer with
/// `Stream{from_lsn: 0}`, then hand the raw socket to `sabotage`.
fn fake_leader_session(listener: &TcpListener, sabotage: impl FnOnce(&mut TcpStream)) {
    let (mut stream, _) = listener.accept().unwrap();
    let hello = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
    match ReplFrame::decode(&hello).unwrap() {
        ReplFrame::Hello {
            version,
            start_lsn,
            max_epoch_seen,
        } => {
            assert_eq!(version, REPL_STREAM_VERSION);
            assert_eq!(start_lsn, 0, "fresh follower starts at lsn 0");
            assert_eq!(max_epoch_seen, 0, "fresh follower has seen no epoch");
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    frame::write_frame(
        &mut stream,
        &ReplFrame::Stream {
            from_lsn: 0,
            leader_epoch: 0,
        }
        .encode(),
    )
    .unwrap();
    sabotage(&mut stream);
}

/// Run one sabotage script against a fresh follower and wait until it
/// reports an error containing `expect` (later reconnect failures may
/// overwrite it, so match any sample). Asserts nothing was ever
/// applied.
fn assert_sabotage_surfaces(
    tag: &str,
    expect: &str,
    sabotage: impl FnOnce(&mut TcpStream) + Send + 'static,
) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || fake_leader_session(&listener, sabotage));
    let follower = Follower::start(config(&tmp(tag)), addr).unwrap();
    let mut seen = Vec::new();
    wait_until(
        &format!("an error mentioning {expect:?} (saw {seen:?})"),
        10,
        || {
            if let Some(e) = follower.status().last_error() {
                if !seen.contains(&e) {
                    seen.push(e);
                }
            }
            seen.iter().any(|e| e.contains(expect))
        },
    );
    fake.join().unwrap();
    // Nothing may have reached the apply path.
    assert_eq!(
        follower.registry().wal_high_water(),
        Some(0),
        "corrupt stream must not append to the replica log"
    );
    assert!(follower.registry().graph_names().is_empty());
    follower.shutdown();
}

/// A syntactically valid Record frame carrying `record` at `lsn`.
fn record_frame(lsn: u64, record: &[u8]) -> Vec<u8> {
    frame::encode_frame(
        &ReplFrame::Record {
            lsn,
            record: record.to_vec(),
        }
        .encode(),
    )
}

/// A real WAL record payload (a one-edge batch) to corrupt.
fn real_record() -> Vec<u8> {
    gee_serve::wal::encode_record(&gee_serve::wal::WalRecord::Batch {
        name: "g".into(),
        updates: vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }],
    })
}

#[test]
fn bit_flip_in_transport_frame_surfaces_corrupt() {
    assert_sabotage_surfaces("flip", "checksum mismatch", |stream| {
        let mut framed = record_frame(0, &real_record());
        let last = framed.len() - 1;
        framed[last] ^= 0x10; // payload flip: CRC no longer matches
        let _ = stream.write_all(&framed);
        let _ = stream.flush();
        // Hold the socket open so the read loop sees the bad frame, not EOF.
        std::thread::sleep(Duration::from_millis(300));
    });
}

#[test]
fn torn_stream_mid_frame_surfaces_corrupt() {
    assert_sabotage_surfaces("torn", "torn frame", |stream| {
        let framed = record_frame(0, &real_record());
        let _ = stream.write_all(&framed[..framed.len() / 2]);
        let _ = stream.flush();
        // Close mid-frame: a torn tail, not a clean boundary.
    });
}

#[test]
fn undecodable_record_payload_surfaces_corrupt() {
    assert_sabotage_surfaces("badrecord", "record at lsn 0", |stream| {
        // Transport-valid frame (CRC fine) around garbage record bytes:
        // the WAL decoder is the last line of defense.
        let _ = stream.write_all(&record_frame(0, &[0xEE; 16]));
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(300));
    });
}

#[test]
fn lsn_discontinuity_surfaces_corrupt() {
    // Valid record, wrong position: the replica expects lsn 0.
    assert_sabotage_surfaces("gap", "sent lsn 7", |stream| {
        let _ = stream.write_all(&record_frame(7, &real_record()));
        let _ = stream.flush();
        std::thread::sleep(Duration::from_millis(300));
    });
}

/// A fake leader that keeps accepting sessions forever: each one gets a
/// clean `Stream` handshake and an immediate graceful `End`. Models an
/// idle-but-healthy leader that rotates connections. The thread leaks
/// (blocked in accept) when the test ends; the port frees at process
/// exit.
fn spawn_idle_leader() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || loop {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let Ok(hello) = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN) else {
            continue;
        };
        let Ok(ReplFrame::Hello { start_lsn, .. }) = ReplFrame::decode(&hello) else {
            continue;
        };
        let _ = frame::write_frame(
            &mut stream,
            &ReplFrame::Stream {
                from_lsn: start_lsn,
                leader_epoch: 0,
            }
            .encode(),
        );
        let _ = frame::write_frame(
            &mut stream,
            &ReplFrame::End {
                detail: "leader rotating connections".into(),
            }
            .encode(),
        );
    });
    addr
}

/// Regression (reconnect backoff): a follower of an idle leader used to
/// reset its backoff only when records were applied, so clean handshake
/// after clean handshake still climbed to the 2 s max. A successful
/// `Stream` handshake must reset it.
#[test]
fn idle_sessions_reset_reconnect_backoff() {
    let addr = spawn_idle_leader();
    let follower = Follower::start(config(&tmp("idle_backoff")), addr).unwrap();
    wait_until("the first graceful session", 10, || {
        follower.status().last_graceful_end().is_some()
    });
    // Let several more idle sessions churn. Pre-fix, ~1 s of clean
    // 100 ms-spaced sessions doubles the gauge to >= 400 ms; post-fix
    // every completed handshake snaps it back to the 100 ms floor.
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!(
        follower.status().reconnect_backoff(),
        Duration::from_millis(100),
        "a healthy-but-idle leader must not inflate the reconnect backoff"
    );
    follower.shutdown();
}

/// Regression (graceful End): an orderly leader goodbye used to land in
/// `last_error`, indistinguishable from a fault. It must be tracked
/// separately, leaving `last_error` clean.
#[test]
fn graceful_end_is_not_an_error() {
    let addr = spawn_idle_leader();
    let follower = Follower::start(config(&tmp("graceful_end")), addr).unwrap();
    wait_until("a graceful end to be recorded", 10, || {
        follower.status().last_graceful_end().is_some()
    });
    let end = follower.status().last_graceful_end().unwrap();
    assert!(
        end.contains("leader rotating connections"),
        "graceful end should carry the leader's detail: {end:?}"
    );
    assert_eq!(
        follower.status().last_error(),
        None,
        "an orderly End is not a fault"
    );
    follower.shutdown();
}

/// Fencing, follower side: a leader advertising an epoch *below* the
/// highest this follower has durably seen is deposed — the session is
/// rejected with the typed StaleLeader error and nothing is applied.
#[test]
fn follower_rejects_stale_leader() {
    let dir = tmp("stale_leader");
    // Durably raise the dir's seen-epoch to 2 (two offline promotions).
    {
        let registry = Registry::with_config(config(&dir)).unwrap();
        assert_eq!(registry.promote_to_leader().unwrap(), 1);
        assert_eq!(registry.promote_to_leader().unwrap(), 2);
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
        match ReplFrame::decode(&hello).unwrap() {
            ReplFrame::Hello { max_epoch_seen, .. } => {
                assert_eq!(max_epoch_seen, 2, "recovered epoch rides in the Hello")
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        // Claim a superseded epoch: the follower must refuse.
        frame::write_frame(
            &mut stream,
            &ReplFrame::Stream {
                from_lsn: 0,
                leader_epoch: 1,
            }
            .encode(),
        )
        .unwrap();
        // Hold the socket open so the rejection comes from the epoch
        // check, not a dropped connection.
        std::thread::sleep(Duration::from_millis(500));
    });
    let follower = Follower::start(config(&dir), addr).unwrap();
    wait_until("the stale-leader rejection", 10, || {
        follower
            .status()
            .last_error()
            .is_some_and(|e| e.contains("stale"))
    });
    assert_eq!(
        follower.registry().wal_high_water(),
        Some(0),
        "nothing from a stale leader may be applied"
    );
    assert_eq!(follower.registry().leader_epoch(), 2);
    fake.join().unwrap();
    follower.shutdown();
}

/// Fencing bypass regression: the leader epoch is mandatory on the wire.
/// A fake leader sends `Stream`, `Heartbeat` and `Bootstrap` payloads
/// *without* the trailing epoch — a decoder that took those for "no
/// epoch: pass" would let a stale leader through unfenced — to a
/// follower that has durably seen epoch 3. Each session must end as a
/// malformed frame with nothing applied — not even the valid `Register`
/// record riding behind the epoch-less `Stream`.
#[test]
fn epochless_frames_cannot_bypass_fencing() {
    let dir = tmp("epochless");
    {
        let registry = Registry::with_config(config(&dir)).unwrap();
        for epoch in 1..=3 {
            assert_eq!(registry.promote_to_leader().unwrap(), epoch);
        }
    }
    let epochless = |frame: ReplFrame| {
        let mut payload = frame.encode();
        payload.truncate(payload.len() - 8);
        payload
    };
    let register = gee_serve::wal::encode_record(&gee_serve::wal::WalRecord::Register {
        name: "g".into(),
        shards: 2,
        num_vertices: 10,
        num_classes: 2,
        labels: (0..10).map(|v| (v % 3) - 1).collect(),
        edges: vec![(0, 1, 1.0), (1, 2, 0.5)],
    });
    let sessions: Vec<(&str, Vec<Vec<u8>>)> = vec![
        (
            "Stream",
            vec![
                epochless(ReplFrame::Stream {
                    from_lsn: 0,
                    leader_epoch: 0,
                }),
                ReplFrame::Record {
                    lsn: 0,
                    record: register,
                }
                .encode(),
            ],
        ),
        (
            "Heartbeat",
            vec![epochless(ReplFrame::Heartbeat {
                next_lsn: 42,
                epochs: vec![("g".into(), 7)],
                leader_epoch: 0,
            })],
        ),
        (
            "Bootstrap",
            vec![epochless(ReplFrame::Bootstrap {
                lsn: 5,
                leader_epoch: 0,
            })],
        ),
    ];

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let follower = Follower::start(config(&dir), addr).unwrap();
    for (shape, payloads) in sessions {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
        match ReplFrame::decode(&hello).unwrap() {
            ReplFrame::Hello { max_epoch_seen, .. } => assert_eq!(max_epoch_seen, 3),
            other => panic!("expected Hello, got {other:?}"),
        }
        for (i, payload) in payloads.iter().enumerate() {
            let written = frame::write_frame(&mut stream, payload);
            // The follower refuses the first frame and closes the socket,
            // possibly before a later frame is written; that write then
            // fails with EPIPE or ECONNRESET. Only the first write must
            // succeed: what matters is checked below.
            if i == 0 {
                written.unwrap();
            }
        }
        // The socket stays open until the follower has refused the frame
        // on its own; the decoder names the field it could not find.
        let missing = format!("malformed payload: {} leader epoch", shape.to_lowercase());
        wait_until(&format!("the epoch-less {shape} to be refused"), 10, || {
            follower
                .status()
                .last_error()
                .is_some_and(|e| e.contains(&missing))
        });
        assert!(!follower.status().is_connected(), "{shape}");
        assert_eq!(follower.status().leader_next_lsn(), 0, "{shape}");
        assert_eq!(follower.registry().wal_high_water(), Some(0), "{shape}");
        assert!(follower.registry().graph_names().is_empty(), "{shape}");
        drop(stream);
    }
    assert_eq!(follower.registry().leader_epoch(), 3);
    follower.shutdown();
}

/// The stream speaks one version. A real listener gives a current peer
/// the leader epoch on every handshake/heartbeat frame, and ends any
/// other `Hello` — older or newer — with a typed `End` before shipping
/// anything.
#[test]
fn leader_serves_only_its_own_stream_version() {
    let leader = leader_with_graph("one_version_leader", 120, 9);
    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let hello = |version: u32| {
        let mut stream = TcpStream::connect(listener.addr()).unwrap();
        frame::write_frame(
            &mut stream,
            &ReplFrame::Hello {
                version,
                start_lsn: 0,
                max_epoch_seen: 0,
            }
            .encode(),
        )
        .unwrap();
        stream
    };

    // Expect Stream, one Record (the Register), then a Heartbeat.
    let mut stream = hello(REPL_STREAM_VERSION);
    loop {
        let payload = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
        match ReplFrame::decode(&payload).unwrap() {
            ReplFrame::Stream { leader_epoch, .. } => {
                assert_eq!(leader_epoch, leader.leader_epoch())
            }
            ReplFrame::Heartbeat { leader_epoch, .. } => {
                assert_eq!(leader_epoch, leader.leader_epoch());
                break;
            }
            ReplFrame::Record { .. } => {}
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    for version in [REPL_STREAM_VERSION - 1, REPL_STREAM_VERSION + 1] {
        let mut stream = hello(version);
        let payload = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
        assert_eq!(
            ReplFrame::decode(&payload).unwrap(),
            ReplFrame::End {
                detail: format!("unsupported stream version {version}"),
            }
        );
    }
    listener.shutdown();
}

/// Fencing, leader side: a Hello claiming a newer epoch than the leader
/// holds deposes it on the spot — the connection is ended, the registry
/// self-fences, writes start failing with the typed StaleLeader error,
/// and the replication report says so.
#[test]
fn leader_self_fences_on_newer_epoch_claim() {
    let leader = leader_with_graph("self_fence", 120, 11);
    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    assert!(!leader.replication_report().unwrap().fenced);

    let mut stream = TcpStream::connect(listener.addr()).unwrap();
    frame::write_frame(
        &mut stream,
        &ReplFrame::Hello {
            version: REPL_STREAM_VERSION,
            start_lsn: 0,
            max_epoch_seen: 5,
        }
        .encode(),
    )
    .unwrap();
    let payload = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
    match ReplFrame::decode(&payload).unwrap() {
        ReplFrame::End { detail } => {
            assert!(detail.contains("fenced"), "End should say why: {detail:?}")
        }
        other => panic!("expected End, got {other:?}"),
    }

    wait_until("the registry to fence", 5, || leader.fenced_by() == Some(5));
    let err = leader
        .apply_updates("g", &[Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
        .unwrap_err();
    assert_eq!(err.code().as_u16(), 16, "fenced writes are StaleLeader");
    assert!(err.to_string().contains("stale"), "{err}");
    let report = leader.replication_report().unwrap();
    assert!(report.fenced, "the report surfaces the fence");
    listener.shutdown();
}

/// Leader churn: the follower rides out a leader restart (new listener,
/// same data) plus injected garbage between sessions, reconnects by
/// itself, and still converges fingerprint-identically epoch for epoch.
#[test]
fn follower_converges_through_leader_churn() {
    let follower_dir = tmp("churn_follower");
    let leader = leader_with_graph("churn_leader", 180, 5);

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = listener.addr();
    let follower = Follower::start(config(&follower_dir), addr.to_string()).unwrap();

    let batch = |b: u32| {
        vec![Update::InsertEdge {
            u: b % N as u32,
            v: (b * 7 + 1) % N as u32,
            w: 1.0 + f64::from(b % 3),
        }]
    };
    for b in 0..6u32 {
        leader.apply_updates("g", &batch(b)).unwrap();
    }
    wait_until("first convergence", 10, || {
        follower.registry().wal_high_water() == leader.wal_high_water()
    });

    // Churn: kill the listener mid-life, write while it is down, then
    // bring a new one up on the SAME port so the follower's retry loop
    // finds it again.
    listener.shutdown();
    for b in 6..12u32 {
        leader.apply_updates("g", &batch(b)).unwrap();
    }
    let listener = ReplicationListener::listen(leader.clone(), addr).unwrap();
    wait_until("post-churn convergence", 10, || {
        follower.registry().wal_high_water() == leader.wal_high_water()
            && follower.status().leader_next_lsn() == leader.wal_high_water().unwrap()
    });

    // Epoch-for-epoch fingerprints.
    let (l_old, l_new) = leader.epoch_range("g").unwrap();
    let (f_old, f_new) = follower.registry().epoch_range("g").unwrap();
    assert_eq!(l_new, f_new);
    for epoch in l_old.max(f_old)..=l_new {
        assert_eq!(
            snapshot_fingerprint(&leader.snapshot_at("g", epoch).unwrap()),
            snapshot_fingerprint(&follower.registry().snapshot_at("g", epoch).unwrap()),
            "epoch {epoch} diverged across leader churn"
        );
    }

    follower.shutdown();
    listener.shutdown();
}
