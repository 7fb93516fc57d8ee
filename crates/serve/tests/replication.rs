//! End-to-end replication: leader→follower WAL shipping over real TCP.
//!
//! The oracle throughout is [`snapshot_fingerprint`]: equal
//! fingerprints ⇔ bit-identical served state, so "the follower
//! converged" always means *every retained epoch* on the follower is
//! byte-identical to the leader's same epoch — not just that the counts
//! match. Scenarios: a follower started from empty under concurrent
//! writer churn, a follower restarted mid-stream that resumes from its
//! own durable log, a follower behind the compaction horizon that must
//! take the checkpoint bootstrap, write rejection (in-process and over
//! the wire), epoch-pinned replica reads compared frame-byte-for-byte
//! against the leader, the lag gauges in `Stats`/`Metrics`, and a full
//! failover: follower promotion to a new leader epoch with the deposed
//! leader fenced on its first post-comeback handshake.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gee_core::Labels;
use gee_gen::LabelSpec;
use gee_graph::EdgeList;
use gee_serve::codec::encode_server_frame;
use gee_serve::{
    Client, Durability, Engine, ErrorCode, Follower, HistoryPolicy, Registry, RegistryConfig,
    ReplicationListener, ReplicationRole, Request, Response, ServeError, Server, ServerFrame,
    SyncPolicy, Update,
};

mod common;
use common::snapshot_fingerprint;

const N: usize = 60;
const K: usize = 4;

/// One response as the server would frame it: the byte oracle for
/// "answers identically", every `f64` bit included.
fn response_bytes(response: Response) -> Vec<u8> {
    encode_server_frame(&ServerFrame::Batch {
        id: 0,
        results: vec![Ok(response)],
    })
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gee_replication_{tag}_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: &PathBuf, checkpoint_every: u64, history: usize) -> RegistryConfig {
    RegistryConfig {
        default_shards: 3,
        history: HistoryPolicy::keep(history),
        durability: Durability::Wal {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            checkpoint_every,
        },
        ..RegistryConfig::default()
    }
}

fn seed_graph() -> (EdgeList, Labels) {
    let el = gee_gen::erdos_renyi_gnm(N, 320, 11);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            N,
            LabelSpec {
                num_classes: K,
                labeled_fraction: 0.4,
            },
            7,
        ),
        K,
    );
    (el, labels)
}

fn scripted_batch(b: u32) -> Vec<Update> {
    let v = |i: u32| (b * 131 + i * 17) % N as u32;
    vec![
        Update::InsertEdge {
            u: v(0),
            v: v(1),
            w: 1.0 + f64::from(b % 5) * 0.25,
        },
        Update::SetLabel {
            v: v(2),
            label: Some(b % K as u32),
        },
        Update::RemoveEdge {
            u: v(0),
            v: v(1),
            w: 1.0 + f64::from(b % 5) * 0.25,
        },
        Update::InsertEdge {
            u: v(3),
            v: v(4),
            w: 0.5,
        },
    ]
}

/// Poll until `f` holds (≤ `secs` seconds), else panic with `what`.
fn wait_until(what: &str, secs: u64, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fully caught up: same durable LSN, and the follower has seen a
/// heartbeat proving the leader has nothing further in flight.
fn wait_converged(leader: &Registry, follower: &Follower, secs: u64) {
    wait_until("follower to converge", secs, || {
        let high = leader.wal_high_water().unwrap();
        follower.registry().wal_high_water().unwrap() == high
            && follower.status().leader_next_lsn() == high
    });
}

/// Assert every epoch retained on *both* sides is fingerprint-identical.
fn assert_epochs_match(leader: &Registry, follower: &Registry, graph: &str) {
    let (l_old, l_new) = leader.epoch_range(graph).unwrap();
    let (f_old, f_new) = follower.epoch_range(graph).unwrap();
    assert_eq!(l_new, f_new, "published epochs diverged");
    let lo = l_old.max(f_old);
    for epoch in lo..=l_new {
        let l = snapshot_fingerprint(&leader.snapshot_at(graph, epoch).unwrap());
        let f = snapshot_fingerprint(&follower.snapshot_at(graph, epoch).unwrap());
        assert_eq!(l, f, "epoch {epoch} fingerprints diverged");
    }
    assert!(lo <= l_new, "no overlapping epochs compared");
}

#[test]
fn follower_converges_from_empty_under_writer_churn() {
    let leader_dir = tmp("churn_leader");
    let follower_dir = tmp("churn_follower");
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 8)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let follower = Follower::start(
        config(&follower_dir, 10_000, 8),
        listener.addr().to_string(),
    )
    .unwrap();

    // Writer churn while the follower trails live.
    let writer = {
        let leader = leader.clone();
        std::thread::spawn(move || {
            for b in 0..30u32 {
                leader.apply_updates("g", &scripted_batch(b)).unwrap();
                if b % 10 == 0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        })
    };
    writer.join().unwrap();

    wait_converged(&leader, &follower, 10);
    assert_epochs_match(&leader, follower.registry(), "g");
    assert!(follower.status().is_connected());

    follower.shutdown();
    listener.shutdown();
}

#[test]
fn follower_restarted_mid_stream_resumes_from_durable_lsn() {
    let leader_dir = tmp("resume_leader");
    let follower_dir = tmp("resume_follower");
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 6)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();
    for b in 0..10u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = listener.addr().to_string();
    let follower = Follower::start(config(&follower_dir, 10_000, 6), addr.clone()).unwrap();
    wait_converged(&leader, &follower, 10);
    let resumed_from = follower.registry().wal_high_water().unwrap();
    assert!(resumed_from > 0);
    // Stop mid-stream (shutdown is abrupt from the leader's viewpoint:
    // the socket just closes).
    follower.shutdown();

    for b in 10..25u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }

    // Same data dir: the restart must resume from the durable high
    // water, not re-pull from zero.
    let follower = Follower::start(config(&follower_dir, 10_000, 6), addr).unwrap();
    assert_eq!(
        follower.registry().wal_high_water().unwrap(),
        resumed_from,
        "restart must recover the pre-crash durable LSN"
    );
    wait_converged(&leader, &follower, 10);
    assert_epochs_match(&leader, follower.registry(), "g");

    follower.shutdown();
    listener.shutdown();
}

#[test]
fn follower_behind_compaction_horizon_bootstraps_from_checkpoint() {
    let leader_dir = tmp("bootstrap_leader");
    let follower_dir = tmp("bootstrap_follower");
    // Aggressive checkpointing: every 4 records the leader rotates and
    // retires covered segments, so a fresh follower's start LSN of 0
    // falls below the on-disk floor.
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 4, 4)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();
    for b in 0..20u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }
    let floor = gee_serve::wal::segment_paths(&leader_dir)
        .unwrap()
        .first()
        .map_or(0, |&(lsn, _)| lsn);
    assert!(
        floor > 0,
        "test needs a compacted prefix to exercise bootstrap"
    );

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let follower =
        Follower::start(config(&follower_dir, 4, 4), listener.addr().to_string()).unwrap();
    wait_converged(&leader, &follower, 10);
    assert_epochs_match(&leader, follower.registry(), "g");
    // The follower's log provably starts at the checkpoint, not zero.
    assert!(
        follower
            .registry()
            .latest_checkpoint_lsn()
            .unwrap()
            .unwrap()
            >= floor,
        "follower should hold the bootstrap checkpoint"
    );

    follower.shutdown();
    listener.shutdown();
}

#[test]
fn replica_rejects_writes_in_process_and_over_tcp() {
    let leader_dir = tmp("readonly_leader");
    let follower_dir = tmp("readonly_follower");
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 4)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let follower = Follower::start(
        config(&follower_dir, 10_000, 4),
        listener.addr().to_string(),
    )
    .unwrap();
    wait_converged(&leader, &follower, 10);

    // In-process: every mutation path is typed ReadOnlyReplica.
    let reject = follower
        .registry()
        .apply_updates("g", &scripted_batch(0))
        .unwrap_err();
    assert!(
        matches!(&reject, ServeError::ReadOnlyReplica { graph, leader }
            if graph == "g" && leader == &listener.addr().to_string()),
        "got {reject:?}"
    );
    assert_eq!(reject.code(), ErrorCode::ReadOnlyReplica);
    assert!(matches!(
        follower.registry().register("h", &el, &labels).unwrap_err(),
        ServeError::ReadOnlyReplica { .. }
    ));
    assert!(matches!(
        follower.registry().deregister("g").unwrap_err(),
        ServeError::ReadOnlyReplica { .. }
    ));

    // Over TCP the same error arrives as a per-request typed result —
    // the connection stays healthy and reads keep working.
    let engine = Arc::new(Engine::new(follower.registry().clone()));
    let handle = Server::listen(engine, "127.0.0.1:0", None).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let err = client.apply_updates("g", scripted_batch(1)).unwrap_err();
    assert_eq!(err.code(), ErrorCode::ReadOnlyReplica);
    let classes = client.classify("g", vec![0, 1, 2], 3).unwrap();
    assert_eq!(classes.len(), 3);

    drop(client);
    handle.shutdown();
    follower.shutdown();
    listener.shutdown();
}

#[test]
fn pinned_replica_reads_are_byte_identical_to_leader_over_tcp() {
    let leader_dir = tmp("pinned_leader");
    let follower_dir = tmp("pinned_follower");
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 8)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let follower = Follower::start(
        config(&follower_dir, 10_000, 8),
        listener.addr().to_string(),
    )
    .unwrap();
    for b in 0..12u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }
    wait_converged(&leader, &follower, 10);

    let leader_srv =
        Server::listen(Arc::new(Engine::new(leader.clone())), "127.0.0.1:0", None).unwrap();
    let follower_srv = Server::listen(
        Arc::new(Engine::new(follower.registry().clone())),
        "127.0.0.1:0",
        None,
    )
    .unwrap();
    let mut on_leader = Client::connect(leader_srv.addr()).unwrap();
    let mut on_follower = Client::connect(follower_srv.addr()).unwrap();

    let (oldest, newest) = leader.epoch_range("g").unwrap();
    let (f_oldest, _) = follower.registry().epoch_range("g").unwrap();
    for epoch in oldest.max(f_oldest)..=newest {
        let requests = [
            Request::classify((0..8).collect(), 3).pinned(epoch),
            Request::similar(5, 4).pinned(epoch),
            Request::embed_row(9).pinned(epoch),
        ];
        for request in requests {
            let l = on_leader.execute("g", request.clone()).unwrap();
            let f = on_follower.execute("g", request.clone()).unwrap();
            assert_eq!(
                response_bytes(l),
                response_bytes(f),
                "pinned response bytes diverged at epoch {epoch}: {request:?}"
            );
        }
        // Stats agrees field-for-field once the role-specific
        // `replication` block (Leader on one side, Follower on the
        // other, by design) is set aside.
        let strip = |r: Response| match r {
            Response::Stats(mut report) => {
                report.replication = None;
                Response::Stats(report)
            }
            other => panic!("expected Stats, got {other:?}"),
        };
        let l = strip(
            on_leader
                .execute("g", Request::stats().pinned(epoch))
                .unwrap(),
        );
        let f = strip(
            on_follower
                .execute("g", Request::stats().pinned(epoch))
                .unwrap(),
        );
        assert_eq!(
            response_bytes(l),
            response_bytes(f),
            "stats diverged at {epoch}"
        );
    }

    drop(on_leader);
    drop(on_follower);
    leader_srv.shutdown();
    follower_srv.shutdown();
    follower.shutdown();
    listener.shutdown();
}

#[test]
fn replication_lag_is_reported_through_stats_and_metrics() {
    let leader_dir = tmp("lag_leader");
    let follower_dir = tmp("lag_follower");
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 4)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();

    // Before any listener attaches, a standalone durable registry has no
    // replication block at all (pre-v5 behavior preserved).
    assert_eq!(leader.replication_report(), None);

    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let lr = leader.replication_report().expect("leader block");
    assert_eq!(lr.role, ReplicationRole::Leader);
    assert!(!lr.connected, "no follower yet");

    let follower = Follower::start(
        config(&follower_dir, 10_000, 4),
        listener.addr().to_string(),
    )
    .unwrap();
    for b in 0..8u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }
    wait_converged(&leader, &follower, 10);

    let lr = leader.replication_report().unwrap();
    assert!(lr.connected, "one follower attached");
    assert_eq!(lr.follower_conns, 1);
    assert!(lr.shipped_records >= 9, "register + 8 batches shipped");
    assert!(lr.shipped_bytes > 0);

    let fr = follower.registry().replication_report().unwrap();
    assert_eq!(fr.role, ReplicationRole::Follower);
    assert!(fr.connected);
    assert_eq!(fr.lag_lsns, 0, "converged follower has no LSN lag");
    assert_eq!(fr.lag_epochs, 0, "converged follower has no epoch lag");
    assert_eq!(
        fr.last_durable_lsn,
        leader.wal_high_water().unwrap(),
        "durable high water matches the leader"
    );

    // The engine surfaces the identical block through both endpoints.
    let engine = Engine::new(follower.registry().clone());
    let stats = match engine.execute("g", Request::stats()).unwrap() {
        Response::Stats(r) => r.replication,
        other => panic!("expected Stats, got {other:?}"),
    };
    let metrics = match engine.execute("g", Request::Metrics).unwrap() {
        Response::Metrics(r) => r.replication,
        other => panic!("expected Metrics, got {other:?}"),
    };
    let stats = stats.expect("follower stats carry replication");
    let metrics = metrics.expect("follower metrics carry replication");
    assert_eq!(stats.role, metrics.role);
    assert_eq!(stats.last_durable_lsn, metrics.last_durable_lsn);
    assert_eq!(stats.lag_lsns, metrics.lag_lsns);

    // A dead leader flips `connected` off after the next failed pull.
    // The shutdown itself is a graceful End (not an error); the *error*
    // arrives on the follower's next refused reconnect attempt.
    listener.shutdown();
    wait_until("follower to notice the dead leader", 10, || {
        !follower.status().is_connected()
    });
    let fr = follower.registry().replication_report().unwrap();
    assert!(!fr.connected);
    assert_eq!(fr.lag_lsns, 0, "no phantom lag against a dead leader");
    assert_eq!(fr.lag_epochs, 0, "no phantom lag against a dead leader");
    wait_until("a reconnect attempt to be refused", 10, || {
        follower.status().last_error().is_some()
    });
    follower.shutdown();
}

/// The full failover story, end to end: a leader with two converged
/// followers dies mid-flight (with one unshipped batch — the classic
/// split-brain seed), one follower is promoted to epoch 1 and takes
/// writes, the survivor re-points and converges fingerprint-identically
/// against the new history, and when the deposed epoch-0 leader comes
/// back it is fenced on its first handshake with an epoch-1 follower:
/// its writes fail with the typed StaleLeader error and nothing it
/// holds ever reaches a follower. Split-brain is impossible by
/// construction.
#[test]
fn promotion_fences_deposed_leader_and_repoints_followers() {
    let leader_dir = tmp("failover_leader");
    let f1_dir = tmp("failover_f1");
    let f2_dir = tmp("failover_f2");

    // Epoch 0: a leader with two live followers, all converged.
    let leader = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 4)).unwrap());
    let (el, labels) = seed_graph();
    leader.register("g", &el, &labels).unwrap();
    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").unwrap();
    let addr = listener.addr().to_string();
    let f1 = Follower::start(config(&f1_dir, 10_000, 4), addr.clone()).unwrap();
    let f2 = Follower::start(config(&f2_dir, 10_000, 4), addr).unwrap();
    for b in 0..6u32 {
        leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }
    wait_converged(&leader, &f1, 10);
    wait_converged(&leader, &f2, 10);

    // The leader "dies": shipping stops, but it sneaks in one last
    // batch that never replicates.
    listener.shutdown();
    leader.apply_updates("g", &scripted_batch(98)).unwrap();
    let deposed_high = leader.wal_high_water().unwrap();
    drop(leader); // release the dir lock; the deposed WAL stays on disk

    // f2 re-points later; stop it cleanly at the converged LSN.
    f2.shutdown();

    // Promote f1: epoch 0 → 1, replica mode off, a fresh listener up.
    let promo = f1.promote(Some("127.0.0.1:0")).unwrap();
    assert_eq!(promo.epoch, 1, "first promotion mints epoch 1");
    let new_leader = promo.registry;
    assert_eq!(new_leader.leader_epoch(), 1);
    let new_listener = promo
        .listener
        .expect("promote with an address warms a listener");
    // Writes flow on the promoted node immediately...
    for b in 20..24u32 {
        new_leader.apply_updates("g", &scripted_batch(b)).unwrap();
    }
    let report = new_leader.replication_report().unwrap();
    assert_eq!(report.role, ReplicationRole::Leader);
    assert_eq!(report.leader_epoch, 1);
    assert!(!report.fenced);

    // ...and the surviving follower re-points and converges against the
    // epoch-1 history, fingerprint-identical, noting the epoch durably.
    let f2 = Follower::start(config(&f2_dir, 10_000, 4), new_listener.addr().to_string()).unwrap();
    wait_converged(&new_leader, &f2, 10);
    assert_epochs_match(&new_leader, f2.registry(), "g");
    assert_eq!(f2.registry().leader_epoch(), 1);
    f2.shutdown();

    // The deposed leader comes back at epoch 0 and tries to serve. The
    // first handshake from a follower that has seen epoch 1 fences it.
    let deposed = Arc::new(Registry::with_config(config(&leader_dir, 10_000, 4)).unwrap());
    assert_eq!(
        deposed.leader_epoch(),
        0,
        "the old leader never saw epoch 1"
    );
    assert_eq!(deposed.wal_high_water().unwrap(), deposed_high);
    let deposed_listener = ReplicationListener::listen(deposed.clone(), "127.0.0.1:0").unwrap();
    let f2 = Follower::start(
        config(&f2_dir, 10_000, 4),
        deposed_listener.addr().to_string(),
    )
    .unwrap();
    let f2_high = f2.registry().wal_high_water().unwrap();
    wait_until("the deposed leader to self-fence", 10, || {
        deposed.fenced_by() == Some(1)
    });
    let err = deposed.apply_updates("g", &scripted_batch(99)).unwrap_err();
    assert_eq!(err.code().as_u16(), 16, "fenced writes are StaleLeader");
    assert!(err.to_string().contains("stale"), "{err}");
    let report = deposed.replication_report().unwrap();
    assert!(report.fenced, "the fence is visible in the report");
    assert_eq!(report.leader_epoch, 0);
    // The epoch-1 follower applied nothing from the epoch-0 has-been.
    assert_eq!(f2.registry().wal_high_water().unwrap(), f2_high);
    assert_eq!(f2.registry().leader_epoch(), 1);
    f2.shutdown();
    deposed_listener.shutdown();
    new_listener.shutdown();
}
