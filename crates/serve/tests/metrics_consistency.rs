//! Regression: `Stats` and `Metrics` must never disagree.
//!
//! Both endpoints describe the same published snapshot and the same
//! counters; PR 6 added `ann_indexed_shards` and `oldest_epoch` to
//! `GraphReport` precisely so a dashboard polling `Metrics` and a
//! client calling `Stats` can be reconciled. This suite pins the
//! agreement exactly at quiescence and as monotone bounds under
//! concurrent writer churn.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gee_core::Labels;
use gee_graph::io::frame;
use gee_serve::replicate::{ReplFrame, MAX_REPL_FRAME_LEN};
use gee_serve::wal::{encode_record, WalRecord};
use gee_serve::{
    Durability, Engine, Follower, HistoryPolicy, Registry, RegistryConfig, ReplicationListener,
    ReplicationRole, SearchPolicy, SyncPolicy, Update,
};

const N: usize = 600;
const K: usize = 5;

/// Two big shards (300 rows each, above `ANN_MIN_SHARD_ROWS`) so ANN
/// queries actually build per-shard indexes, and history deep enough
/// that churn never evicts an epoch mid-assertion.
fn engine() -> Arc<Engine> {
    let el = gee_gen::erdos_renyi_gnm(N, 4_000, 11);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            N,
            gee_gen::LabelSpec {
                num_classes: K,
                labeled_fraction: 0.3,
            },
            5,
        ),
        K,
    );
    let reg = Registry::with_config(RegistryConfig {
        default_shards: 2,
        history: HistoryPolicy::keep(4096),
        ..RegistryConfig::default()
    })
    .expect("in-memory registry opens");
    reg.register("g", &el, &labels).unwrap();
    Arc::new(Engine::new(Arc::new(reg)))
}

/// Exact agreement with no concurrent writers: every field the two
/// reports share must match, modulo the one deterministic offset — the
/// `Stats` read itself is a served query, so the `Metrics` taken right
/// after it sees exactly one more.
fn assert_quiescent_agreement(engine: &Engine) {
    let stats = engine.stats("g").unwrap();
    let metrics = engine.metrics("g").unwrap();
    assert_eq!(metrics.graph, stats.graph);
    assert_eq!(metrics.epoch, stats.epoch, "published epoch");
    assert_eq!(metrics.oldest_epoch, stats.oldest_epoch, "retention floor");
    assert_eq!(
        metrics.ann_indexed_shards, stats.ann_indexed_shards,
        "cached IVF index count"
    );
    assert_eq!(metrics.updates_applied, stats.updates_applied);
    assert_eq!(
        metrics.queries_served,
        stats.queries_served + 1,
        "the Stats read is itself one served query"
    );
    assert!(metrics.history_depth >= 1);
    assert!(metrics.oldest_epoch <= metrics.epoch);
    // v5 replication block: both endpoints call the same
    // `Registry::replication_report`, so at quiescence the whole block
    // agrees (or is absent on both).
    assert_eq!(
        metrics.replication, stats.replication,
        "Stats and Metrics replication blocks diverged"
    );
}

#[test]
fn stats_and_metrics_agree_under_writer_churn() {
    let engine = engine();
    assert_quiescent_agreement(&engine);

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Two writers publishing single-edge batches as fast as they can.
        for w in 0..2u32 {
            let engine = &engine;
            let stop = &stop;
            s.spawn(move || {
                let mut turn = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let u = (w * 7 + turn * 13) % N as u32;
                    let v = (u + 1 + turn % 5) % N as u32;
                    engine
                        .apply_updates("g", vec![Update::InsertEdge { u, v, w: 1.0 }])
                        .unwrap();
                    turn = turn.wrapping_add(1);
                }
            });
        }

        // Reader: under churn the two reports cannot be byte-equal (a
        // publish may land between the calls), but Stats-then-Metrics
        // must stay ordered — nothing an observer derives from the pair
        // may move backwards.
        for _ in 0..300 {
            let stats = engine.stats("g").unwrap();
            let metrics = engine.metrics("g").unwrap();
            assert_eq!(metrics.graph, stats.graph);
            assert!(
                metrics.epoch >= stats.epoch,
                "published epoch is monotone: {} then {}",
                stats.epoch,
                metrics.epoch
            );
            assert!(
                metrics.oldest_epoch >= stats.oldest_epoch,
                "retention floor is monotone"
            );
            assert!(
                metrics.updates_applied >= stats.updates_applied,
                "update counter is monotone"
            );
            assert!(
                metrics.queries_served > stats.queries_served,
                "query counter strictly advances past the Stats read"
            );
            assert!(stats.oldest_epoch <= stats.epoch);
            assert!(metrics.oldest_epoch <= metrics.epoch);
            assert!(stats.ann_indexed_shards <= stats.num_shards);
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Quiescent again: churn must not have introduced any drift.
    assert_quiescent_agreement(&engine);
}

#[test]
fn ann_index_counts_agree_after_index_builds() {
    let engine = engine();
    let before = engine.stats("g").unwrap();
    assert_eq!(before.ann_indexed_shards, 0, "no index before any ANN read");

    // An ANN query forces both shard indexes to build and cache.
    engine
        .similar_with("g", 0, 5, None, Some(SearchPolicy::ann(4)))
        .unwrap();
    assert_quiescent_agreement(&engine);
    let stats = engine.stats("g").unwrap();
    assert_eq!(
        stats.ann_indexed_shards, stats.num_shards,
        "both shards are big enough to index"
    );
    let metrics = engine.metrics("g").unwrap();
    assert_eq!(
        metrics.ivf_builds, stats.num_shards as u64,
        "one build per shard"
    );

    // A write publishes a new snapshot; blocks rewritten by it lose
    // their cached index while untouched blocks keep theirs — whatever
    // the count is now, the two endpoints must agree on it.
    engine
        .apply_updates("g", vec![Update::InsertEdge { u: 0, v: 9, w: 1.0 }])
        .unwrap();
    assert_quiescent_agreement(&engine);
}

/// The v5 gauges obey the same law: once a replication listener is
/// attached, both endpoints must report the identical Leader block
/// (`None` before, `Some` after — never one of each).
#[test]
fn replication_gauges_agree_between_endpoints() {
    let dir = std::env::temp_dir().join(format!(
        "gee_metrics_repl_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let el = gee_gen::erdos_renyi_gnm(80, 300, 3);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            80,
            gee_gen::LabelSpec {
                num_classes: 3,
                labeled_fraction: 0.5,
            },
            2,
        ),
        3,
    );
    let reg = Arc::new(
        Registry::with_config(RegistryConfig {
            default_shards: 2,
            durability: Durability::Wal {
                dir,
                sync: SyncPolicy::Always,
                checkpoint_every: 10_000,
            },
            ..RegistryConfig::default()
        })
        .unwrap(),
    );
    reg.register("g", &el, &labels).unwrap();
    let engine = Engine::new(reg.clone());

    // Durable but not replicating: the block is absent from both.
    let stats = engine.stats("g").unwrap();
    let metrics = engine.metrics("g").unwrap();
    assert_eq!(stats.replication, None);
    assert_eq!(metrics.replication, None);

    let listener = ReplicationListener::listen(reg, "127.0.0.1:0").unwrap();
    let stats = engine
        .stats("g")
        .unwrap()
        .replication
        .expect("leader block");
    let metrics = engine
        .metrics("g")
        .unwrap()
        .replication
        .expect("leader block");
    assert_eq!(stats, metrics, "idle leader gauges must be identical");
    assert_eq!(stats.role, ReplicationRole::Leader);
    assert!(!stats.connected, "no follower attached");
    listener.shutdown();
}

/// Regression (stale lag): a follower that lost its leader used to keep
/// the dead leader's last heartbeat in its gauges, reporting a frozen
/// `lag_lsns`/`lag_epochs` forever. Disconnecting must clear the
/// leader-side claims — a follower with no leader has no measurable lag
/// — and `Stats`/`Metrics` must agree on the cleared block.
#[test]
fn disconnect_clears_stale_lag_gauges() {
    let dir = std::env::temp_dir().join(format!(
        "gee_metrics_stale_lag_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let wait_until = |what: &str, mut f: Box<dyn FnMut() -> bool + '_>| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    // A fake leader: one session that registers a small graph, then
    // heartbeats a far-ahead high water (lsn 42, epoch 7) and dies.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _hello = frame::read_frame(&mut stream, MAX_REPL_FRAME_LEN).unwrap();
        let register = encode_record(&WalRecord::Register {
            name: "g".into(),
            shards: 2,
            num_vertices: 10,
            num_classes: 2,
            labels: (0..10).map(|v| (v % 3) - 1).collect(),
            edges: vec![(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.5)],
        });
        for payload in [
            ReplFrame::Stream {
                from_lsn: 0,
                leader_epoch: 0,
            }
            .encode(),
            ReplFrame::Record {
                lsn: 0,
                record: register,
            }
            .encode(),
            ReplFrame::Heartbeat {
                next_lsn: 42,
                epochs: vec![("g".into(), 7)],
                leader_epoch: 0,
            }
            .encode(),
        ] {
            frame::write_frame(&mut stream, &payload).unwrap();
        }
        // Give the follower time to ingest, then drop the socket: the
        // leader is dead, its heartbeat claims now unverifiable.
        std::thread::sleep(Duration::from_millis(200));
    });

    let follower = Follower::start(
        RegistryConfig {
            default_shards: 2,
            durability: Durability::Wal {
                dir,
                sync: SyncPolicy::Always,
                checkpoint_every: 10_000,
            },
            ..RegistryConfig::default()
        },
        addr,
    )
    .unwrap();
    wait_until(
        "the far-ahead heartbeat to land",
        Box::new(|| follower.status().leader_next_lsn() == 42),
    );
    let report = follower.registry().replication_report().unwrap();
    assert!(report.lag_lsns > 0, "live heartbeat claims are real lag");
    fake.join().unwrap();
    wait_until(
        "the follower to notice the dead leader",
        Box::new(|| !follower.status().is_connected()),
    );

    let report = follower.registry().replication_report().unwrap();
    assert!(!report.connected);
    assert_eq!(report.lag_lsns, 0, "dead leader's claims must not linger");
    assert_eq!(report.lag_epochs, 0, "dead leader's claims must not linger");

    let engine = Engine::new(follower.registry().clone());
    let stats = engine
        .stats("g")
        .unwrap()
        .replication
        .expect("follower block");
    let metrics = engine
        .metrics("g")
        .unwrap()
        .replication
        .expect("follower block");
    assert_eq!(stats, metrics, "both endpoints see the cleared gauges");
    assert_eq!(stats.role, ReplicationRole::Follower);
    assert_eq!(stats.lag_lsns, 0);
    assert_eq!(stats.lag_epochs, 0);
    follower.shutdown();
}
