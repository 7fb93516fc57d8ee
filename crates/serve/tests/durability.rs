//! Crash-recovery harness for the durability subsystem.
//!
//! [`CrashHarness`] drives one scripted workload — register a seeded
//! graph, stream deterministic update batches — against a durable
//! registry, then kills it in a chosen way and recovers. The oracle is
//! an in-memory engine that applied the same prefix of batches without
//! ever stopping: a recovered engine must answer the full read suite
//! (`Classify`, `Similar`, `EmbedRow`, `Stats`, plus requests that must
//! fail with typed errors) **byte-identically** — compared on encoded
//! wire frames, so every f64 bit pattern counts.
//!
//! Crash modes covered: a fault injected mid-append at every byte offset
//! of the record frame; file truncation at every byte of the log; a
//! flipped byte (CRC or payload) anywhere; duplicated WAL segments;
//! deleted checkpoints — each either recovers to the last committed
//! epoch or fails with a typed [`ServeError::Corrupt`], never a panic.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gee_core::Labels;
use gee_gen::LabelSpec;
use gee_graph::EdgeList;
use gee_serve::codec::encode_server_frame;
use gee_serve::wal::FaultPoint;
use gee_serve::{
    duplex, Client, Durability, Engine, Envelope, Registry, Request, ServeError, Server,
    ServerFrame, SyncPolicy, Update,
};

const N: usize = 60;
const K: usize = 4;
const SHARDS: usize = 3;

mod common;
use common::snapshot_fingerprint;

/// One scripted crash-recovery scenario: a data dir, the epoch-0 input,
/// and a deterministic update-batch schedule.
struct CrashHarness {
    dir: PathBuf,
    el: EdgeList,
    labels: Labels,
    batches: Vec<Vec<Update>>,
    checkpoint_every: u64,
}

impl CrashHarness {
    fn new(tag: &str, num_batches: usize, checkpoint_every: u64) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "gee_durability_{tag}_{}_{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
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
        let batches = (0..num_batches as u32).map(scripted_batch).collect();
        CrashHarness {
            dir,
            el,
            labels,
            batches,
            checkpoint_every,
        }
    }

    fn durability(&self) -> Durability {
        Durability::Wal {
            dir: self.dir.clone(),
            sync: SyncPolicy::Always,
            checkpoint_every: self.checkpoint_every,
        }
    }

    /// Fresh durable registry with `committed` batches applied.
    fn run_until(&self, committed: usize) -> Registry {
        let reg = Registry::open(SHARDS, self.durability()).unwrap();
        reg.register("g", &self.el, &self.labels).unwrap();
        for batch in &self.batches[..committed] {
            reg.apply_updates("g", batch).unwrap();
        }
        reg
    }

    /// The uninterrupted reference: an in-memory engine that applied the
    /// same `committed` prefix and never restarted.
    fn oracle(&self, committed: usize) -> Engine {
        let reg = Registry::new(SHARDS);
        reg.register("g", &self.el, &self.labels).unwrap();
        for batch in &self.batches[..committed] {
            reg.apply_updates("g", batch).unwrap();
        }
        Engine::new(Arc::new(reg))
    }

    fn recover(&self) -> Result<Registry, ServeError> {
        Registry::open(SHARDS, self.durability())
    }

    /// Recover and require byte-identical answers to the uninterrupted
    /// oracle at `committed` batches.
    fn assert_recovers_to(&self, committed: usize) {
        let reg = self.recover().unwrap();
        // Read the epoch off the snapshot, not via Stats: a Stats request
        // would bump the query counter and skew the byte comparison.
        assert_eq!(
            reg.snapshot("g").unwrap().epoch,
            committed as u64,
            "recovered epoch"
        );
        let engine = Engine::new(Arc::new(reg));
        assert_eq!(
            read_suite_bytes(&engine),
            read_suite_bytes(&self.oracle(committed)),
            "recovered engine must answer byte-identically at {committed} batches"
        );
    }

    fn wal_segments(&self) -> Vec<PathBuf> {
        sorted_files(&self.dir, "wal-")
    }

    fn checkpoints(&self) -> Vec<PathBuf> {
        sorted_files(&self.dir, "ckpt-")
    }
}

impl Drop for CrashHarness {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn sorted_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy().starts_with(prefix))
                .unwrap_or(false)
        })
        .collect();
    out.sort();
    out
}

/// Deterministic mixed batch: inserts, label moves, removes (some
/// hitting, some no-ops) — all valid for the fixture's `N`/`K`.
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
        Update::InsertEdge {
            u: v(3),
            v: v(3),
            w: 2.0,
        },
        Update::RemoveEdge {
            u: v(3),
            v: v(3),
            w: 2.0,
        },
        Update::SetLabel {
            v: v(4),
            label: None,
        },
        Update::RemoveEdge {
            u: v(5),
            v: v(6),
            w: 123.456,
        }, // almost surely a no-op
    ]
}

/// The read suite every comparison runs: one coalesced batch of reads
/// (including requests that must fail typed), then `Stats` on its own so
/// the query counter it reports is deterministic.
fn read_requests() -> Vec<Envelope> {
    let mut reqs = vec![
        Envelope::new("g", Request::classify((0..N as u32).collect(), 5)),
        Envelope::new("g", Request::classify(vec![3, 1, 4], 1)),
        Envelope::new("g", Request::similar(7, 9)),
        Envelope::new("g", Request::similar(N as u32 - 1, 1)),
        Envelope::new("g", Request::embed_row(0)),
        Envelope::new("g", Request::embed_row(N as u32 / 2)),
        // Typed failures must be preserved by recovery too.
        Envelope::new("g", Request::embed_row(N as u32 + 9)),
        Envelope::new("missing", Request::stats()),
    ];
    reqs.push(Envelope::new("g", Request::similar(0, 0)));
    reqs
}

/// Encode an engine's answers to the read suite as wire bytes, so
/// "equal" means equal down to every f64 bit.
fn read_suite_bytes(engine: &Engine) -> Vec<u8> {
    let mut results = engine.execute_batch(read_requests());
    results.push(engine.execute("g", Request::stats()));
    encode_server_frame(&ServerFrame::Batch { id: 0, results })
}

/// Client-side twin of [`read_suite_bytes`] for over-the-wire runs.
fn read_suite_bytes_via(client: &mut Client) -> Vec<u8> {
    let mut results = client.execute_batch(read_requests()).unwrap();
    results.push(client.execute("g", Request::stats()));
    encode_server_frame(&ServerFrame::Batch { id: 0, results })
}

// ---- fault-point injection (kill mid-append) ---------------------------

#[test]
fn kill_mid_append_at_every_byte_offset_recovers_to_last_commit() {
    // The record that will be torn: batch #4's frame (8-byte header +
    // payload). Injecting at every offset covers: nothing written, torn
    // length prefix, torn CRC, every torn-payload length.
    let frame_len = 8 + gee_serve::wal::encode_record(&gee_serve::wal::WalRecord::Batch {
        name: "g".into(),
        updates: scripted_batch(4),
    })
    .len();
    // Every offset of a short prefix, then a spread across the payload.
    let offsets: Vec<usize> = (0..14).chain((14..frame_len).step_by(7)).collect();
    for keep in offsets {
        let h = CrashHarness::new(&format!("kill{keep}"), 5, 0);
        let reg = h.run_until(4);
        reg.inject_wal_fault(FaultPoint::TornAppend { keep_bytes: keep });
        let err = reg.apply_updates("g", &h.batches[4]).unwrap_err();
        assert!(
            matches!(err, ServeError::Storage { .. }),
            "keep={keep}: {err}"
        );
        // The in-memory state never saw the failed batch.
        assert_eq!(reg.snapshot("g").unwrap().epoch, 4);
        drop(reg); // the "crash"
        h.assert_recovers_to(4);
    }
}

#[test]
fn poisoned_writer_refuses_appends_until_reopen() {
    let h = CrashHarness::new("poison", 3, 0);
    let reg = h.run_until(2);
    reg.inject_wal_fault(FaultPoint::TornAppend { keep_bytes: 3 });
    assert!(reg.apply_updates("g", &h.batches[2]).is_err());
    // Still poisoned: a retry must not write behind the torn bytes.
    let err = reg.apply_updates("g", &h.batches[2]).unwrap_err();
    assert!(matches!(err, ServeError::Storage { .. }), "{err}");
    drop(reg);
    // Reopen truncates the torn tail; the batch can then be applied.
    let reg = h.recover().unwrap();
    reg.apply_updates("g", &h.batches[2]).unwrap();
    drop(reg);
    h.assert_recovers_to(3);
}

// ---- file-level crashes (truncation, bit flips, stray files) -----------

#[test]
fn truncation_at_every_byte_recovers_a_committed_prefix_or_nothing() {
    let h = CrashHarness::new("trunc", 3, 0);
    drop(h.run_until(3));
    let segment = {
        let segs = h.wal_segments();
        assert_eq!(segs.len(), 1);
        segs[0].clone()
    };
    let full = std::fs::read(&segment).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&segment, &full[..cut]).unwrap();
        let reg = h.recover().unwrap_or_else(|e| {
            panic!("cut at {cut}: recovery must succeed after truncation, got {e}")
        });
        match reg.snapshot("g") {
            Ok(snap) => {
                let committed = snap.epoch as usize;
                assert!(committed <= 3, "cut at {cut}");
                drop(reg);
                h.assert_recovers_to(committed);
            }
            Err(ServeError::UnknownGraph { .. }) => {
                // The cut landed inside the Register record: the log
                // holds no committed registration at all.
                assert!(reg.graph_names().is_empty());
            }
            Err(other) => panic!("cut at {cut}: {other}"),
        }
        std::fs::write(&segment, &full).unwrap();
    }
}

#[test]
fn flipped_bytes_never_panic_and_flag_committed_damage_as_corrupt() {
    let h = CrashHarness::new("flip", 3, 0);
    drop(h.run_until(3));
    let segment = h.wal_segments()[0].clone();
    let full = std::fs::read(&segment).unwrap();
    let mut corrupt_seen = 0usize;
    for i in (0..full.len()).step_by(3) {
        let mut bad = full.clone();
        bad[i] ^= 0x08;
        std::fs::write(&segment, &bad).unwrap();
        match h.recover() {
            // A flip in a length prefix can masquerade as a torn tail;
            // recovery may then truncate — legal, but only ever to a
            // committed prefix.
            Ok(reg) => match reg.snapshot("g") {
                Ok(snap) => assert!(snap.epoch <= 3, "flip at {i}"),
                Err(ServeError::UnknownGraph { .. }) => {}
                Err(other) => panic!("flip at {i}: {other}"),
            },
            Err(ServeError::Corrupt { .. }) => corrupt_seen += 1,
            Err(other) => panic!("flip at {i}: expected Corrupt, got {other}"),
        }
    }
    assert!(
        corrupt_seen > 0,
        "bit flips over committed records must surface as Corrupt"
    );
    // The canonical satellite case — a flipped CRC byte on an interior
    // record — is deterministically Corrupt: record 0's CRC lives at
    // bytes 16..20 (12-byte segment header + 4-byte length).
    let mut bad = full.clone();
    bad[17] ^= 0xFF;
    std::fs::write(&segment, &bad).unwrap();
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
    std::fs::write(&segment, &full).unwrap();
    h.assert_recovers_to(3);
}

#[test]
fn duplicate_segment_is_corrupt() {
    let h = CrashHarness::new("dupseg", 4, 2);
    let reg = h.run_until(4);
    drop(reg);
    let segs = h.wal_segments();
    let donor = segs.last().unwrap();
    // A stray copy that breaks LSN tiling (e.g. a hand-restored backup).
    std::fs::copy(donor, h.dir.join("wal-00000000000000ff.log")).unwrap();
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
}

#[test]
fn missing_checkpoint_with_full_wal_replays_from_scratch() {
    // checkpoint_every = 0: no checkpoint is ever taken, the WAL reaches
    // back to lsn 0, and recovery is a full replay.
    let h = CrashHarness::new("nockpt", 5, 0);
    drop(h.run_until(5));
    assert!(h.checkpoints().is_empty());
    h.assert_recovers_to(5);
}

#[test]
fn deleted_checkpoint_after_compaction_is_corrupt_not_a_guess() {
    let h = CrashHarness::new("delckpt", 4, 2);
    drop(h.run_until(4));
    let ckpts = h.checkpoints();
    assert!(!ckpts.is_empty(), "compaction must have checkpointed");
    // The WAL before the checkpoint was retired; deleting the checkpoint
    // leaves a hole that recovery must refuse to paper over.
    for c in &ckpts {
        std::fs::remove_file(c).unwrap();
    }
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
}

#[test]
fn corrupted_checkpoint_is_a_typed_error() {
    let h = CrashHarness::new("badckpt", 4, 2);
    drop(h.run_until(4));
    let ckpt = h.checkpoints().pop().unwrap();
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Corrupt { .. }), "{err}");
}

// ---- replay equivalence ------------------------------------------------

#[test]
fn checkpoint_plus_tail_replay_is_bit_identical_across_cadences() {
    // Same workload under different checkpoint cadences (never, every
    // batch, every 3rd) must recover to identical bytes.
    let mut images: Vec<Vec<u8>> = Vec::new();
    for cadence in [0u64, 1, 3] {
        let h = CrashHarness::new(&format!("cadence{cadence}"), 7, cadence);
        drop(h.run_until(7));
        let engine = Engine::new(Arc::new(h.recover().unwrap()));
        images.push(read_suite_bytes(&engine));
        drop(engine); // release the dir lock before re-opening
        h.assert_recovers_to(7);
    }
    assert!(
        images.windows(2).all(|w| w[0] == w[1]),
        "checkpoint cadence must not change recovered answers"
    );
}

#[test]
fn recovery_is_idempotent() {
    let h = CrashHarness::new("idem", 6, 2);
    drop(h.run_until(6));
    for _ in 0..3 {
        h.assert_recovers_to(6);
    }
}

#[test]
fn recovered_engine_matches_uninterrupted_over_duplex_and_tcp() {
    let h = CrashHarness::new("wire", 5, 3);
    drop(h.run_until(5));
    let recovered = Arc::new(Engine::new(Arc::new(h.recover().unwrap())));
    let oracle = Arc::new(h.oracle(5));
    let expected = read_suite_bytes(&oracle);

    // In-process duplex.
    let (server_end, client_end) = duplex();
    let engine = recovered.clone();
    let server = std::thread::spawn(move || {
        let mut t = server_end;
        let _ = Server::new(engine).serve_connection(&mut t);
    });
    let mut client = Client::over(client_end).unwrap();
    assert_eq!(
        read_suite_bytes_via(&mut client),
        expected,
        "duplex answers must be byte-identical to the uninterrupted oracle"
    );
    client.goodbye().unwrap();
    server.join().unwrap();

    // Real loopback TCP. Fresh engines so query counters start equal
    // (dropping the duplex engine also releases the dir lock).
    drop(recovered);
    let recovered = Arc::new(Engine::new(Arc::new(h.recover().unwrap())));
    let handle = Server::listen(recovered, "127.0.0.1:0", Some(1)).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(
        read_suite_bytes_via(&mut client),
        read_suite_bytes(&h.oracle(5)),
        "TCP answers must be byte-identical to the uninterrupted oracle"
    );
    client.goodbye().unwrap();
    handle.wait();
}

// ---- lifecycle ---------------------------------------------------------

#[test]
fn deregister_retires_durable_state_and_reregister_starts_fresh() {
    let h = CrashHarness::new("dereg", 4, 0);
    let reg = h.run_until(2);
    assert!(reg.deregister("g").unwrap());
    assert!(!reg.deregister("g").unwrap(), "double deregister");
    // Re-register the same name: a fresh epoch-0 lineage.
    reg.register("g", &h.el, &h.labels).unwrap();
    reg.apply_updates("g", &h.batches[0]).unwrap();
    assert_eq!(reg.snapshot("g").unwrap().epoch, 1);
    drop(reg);
    // Recovery replays the deregister + re-register: one batch applied.
    h.assert_recovers_to(1);
    // After a checkpoint the old lineage is physically retired: the WAL
    // holds exactly one segment and recovery still agrees.
    let reg = h.recover().unwrap();
    reg.checkpoint_now().unwrap().unwrap();
    drop(reg);
    assert_eq!(h.wal_segments().len(), 1);
    h.assert_recovers_to(1);
    // A deregister right before the crash survives it too.
    let reg = h.recover().unwrap();
    assert!(reg.deregister("g").unwrap());
    drop(reg);
    let reg = h.recover().unwrap();
    assert!(reg.graph_names().is_empty(), "deregister must be durable");
}

#[test]
fn data_dir_is_locked_against_concurrent_opens() {
    let h = CrashHarness::new("lock", 1, 0);
    let reg = h.run_until(1);
    // While one registry owns the dir, a second open must fail typed —
    // two writers interleaving appends would destroy the log.
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Storage { .. }), "{err}");
    drop(reg);
    h.assert_recovers_to(1);
    // A lock left behind by a dead process (kill -9) is reclaimed.
    std::fs::write(h.dir.join("LOCK"), "4294967294").unwrap();
    h.assert_recovers_to(1);
    // Unreadable lock content could be a concurrent opener mid-write, so
    // it fails safe (typed, with cleanup advice) instead of reclaiming.
    std::fs::write(h.dir.join("LOCK"), "not a pid").unwrap();
    let err = h.recover().unwrap_err();
    assert!(matches!(err, ServeError::Storage { .. }), "{err}");
    std::fs::remove_file(h.dir.join("LOCK")).unwrap();
    h.assert_recovers_to(1);
}

#[test]
fn register_heavy_log_still_compacts() {
    // Register/Deregister records count toward the checkpoint cadence,
    // so a log of full-graph Register records cannot grow unboundedly.
    let h = CrashHarness::new("regheavy", 1, 3);
    let reg = Registry::open(SHARDS, h.durability()).unwrap();
    for _ in 0..4 {
        reg.register("g", &h.el, &h.labels).unwrap();
    }
    drop(reg);
    assert_eq!(h.wal_segments().len(), 1, "covered segments retired");
    assert_eq!(h.checkpoints().len(), 1, "a checkpoint was taken");
    h.assert_recovers_to(0);
}

#[test]
fn orphaned_checkpoint_temp_files_are_swept() {
    let h = CrashHarness::new("tmpsweep", 2, 0);
    drop(h.run_until(2));
    // A crash between a checkpoint's temp write and its rename leaves a
    // *.ckpt.tmp behind; recovery must remove it and proceed.
    let orphan = h.dir.join("ckpt-00000000000000aa.ckpt.tmp");
    std::fs::write(&orphan, vec![0u8; 4096]).unwrap();
    h.assert_recovers_to(2);
    assert!(!orphan.exists(), "orphaned temp file swept on open");
}

#[test]
fn checkpoint_compaction_bounds_wal_growth() {
    let h = CrashHarness::new("compact", 9, 2);
    drop(h.run_until(9));
    assert_eq!(h.wal_segments().len(), 1, "covered segments retired");
    assert_eq!(h.checkpoints().len(), 1, "older checkpoints retired");
    h.assert_recovers_to(9);
}

#[test]
fn sync_never_recovers_after_a_clean_close() {
    let h = CrashHarness::new("nosync", 4, 0);
    {
        let reg = Registry::open(
            SHARDS,
            Durability::Wal {
                dir: h.dir.clone(),
                sync: SyncPolicy::Never,
                checkpoint_every: 0,
            },
        )
        .unwrap();
        reg.register("g", &h.el, &h.labels).unwrap();
        for batch in &h.batches {
            reg.apply_updates("g", batch).unwrap();
        }
    } // dropped: the OS file close flushes buffered appends
    h.assert_recovers_to(4);
}

// ---- group commit ------------------------------------------------------

/// `writers` threads each push `per_writer` single-update batches through
/// one `SyncPolicy::group()` registry. Every batch must be acknowledged,
/// and a reopened registry must equal — epoch, counters and every f64 bit
/// — an in-memory registry fed the same batches in commit order (the
/// epoch each acknowledgement carries is the batch's place in the WAL).
/// Returns the fsyncs the batches cost.
fn group_commit_run(tag: &str, writers: u32, per_writer: u32) -> u64 {
    let h = CrashHarness::new(tag, 0, 0);
    let durability = || Durability::Wal {
        dir: h.dir.clone(),
        sync: SyncPolicy::group(),
        checkpoint_every: 64,
    };
    let batch = |b: u32| vec![scripted_batch(b).swap_remove(b as usize % 2)];
    let reg = Registry::open(SHARDS, durability()).unwrap();
    reg.register("g", &h.el, &h.labels).unwrap();
    let fsyncs_before = reg.wal_fsyncs();
    let start = std::sync::Barrier::new(writers as usize);
    let mut committed: Vec<(u64, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (reg, batch, start) = (&reg, &batch, &start);
                scope.spawn(move || {
                    start.wait();
                    let mine = w * per_writer..(w + 1) * per_writer;
                    mine.map(|b| (reg.apply_updates("g", &batch(b)).unwrap().1.epoch, b))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let fsyncs = reg.wal_fsyncs() - fsyncs_before;
    drop(reg);

    committed.sort_unstable();
    let total = u64::from(writers * per_writer);
    let epochs: Vec<u64> = committed.iter().map(|&(epoch, _)| epoch).collect();
    assert_eq!(epochs, (1..=total).collect::<Vec<_>>(), "one epoch each");
    let oracle = Registry::new(SHARDS);
    oracle.register("g", &h.el, &h.labels).unwrap();
    for &(_, b) in &committed {
        oracle.apply_updates("g", &batch(b)).unwrap();
    }
    let recovered = Registry::open(SHARDS, durability()).unwrap();
    let bits = |reg: &Registry| -> Vec<u64> {
        let snap = reg.snapshot("g").unwrap();
        assert_eq!(snap.epoch, total);
        let rows = snap.blocks().iter().flat_map(|b| b.rows().to_vec());
        rows.map(f64::to_bits).collect()
    };
    assert_eq!(bits(&recovered), bits(&oracle), "every row, bit for bit");
    let (recovered, oracle) = (
        Engine::new(Arc::new(recovered)),
        Engine::new(Arc::new(oracle)),
    );
    assert_eq!(
        recovered.stats("g").unwrap().updates_applied,
        oracle.stats("g").unwrap().updates_applied
    );
    assert_eq!(read_suite_bytes(&recovered), read_suite_bytes(&oracle));
    fsyncs
}

#[test]
fn group_commit_coalesces_fsyncs_across_writers_and_recovers_bit_identically() {
    let fsyncs = group_commit_run("group8", 8, 25);
    assert!(
        (1..200).contains(&fsyncs),
        "{fsyncs} fsyncs for 200 acknowledged batches: nothing was shared"
    );
}

#[test]
fn group_commit_with_one_writer_costs_at_most_one_fsync_per_batch() {
    let fsyncs = group_commit_run("group1", 1, 25);
    assert!((1..=25).contains(&fsyncs), "{fsyncs} fsyncs for 25 batches");
}

#[test]
fn empty_data_dir_opens_empty_and_serves() {
    let h = CrashHarness::new("fresh", 1, 0);
    let reg = h.recover().unwrap();
    assert!(reg.graph_names().is_empty());
    assert!(matches!(
        reg.snapshot("g"),
        Err(ServeError::UnknownGraph { .. })
    ));
    reg.register("g", &h.el, &h.labels).unwrap();
    drop(reg);
    h.assert_recovers_to(0);
}

// ---- CoW history × durability ------------------------------------------

/// Which blocks (and label slices) consecutive retained epochs share —
/// the CoW structure the replay path must reproduce.
fn sharing_pattern(reg: &Registry, name: &str) -> Vec<(u64, Vec<bool>, Vec<bool>)> {
    let (oldest, newest) = reg.epoch_range(name).unwrap();
    let mut out = Vec::new();
    for e in oldest..newest {
        let a = reg.snapshot_at(name, e).unwrap();
        let b = reg.snapshot_at(name, e + 1).unwrap();
        let blocks: Vec<bool> = a
            .blocks()
            .iter()
            .zip(b.blocks())
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect();
        let labels: Vec<bool> = a
            .blocks()
            .iter()
            .zip(b.blocks())
            .map(|(x, y)| y.shares_labels_with(x))
            .collect();
        out.push((e, blocks, labels));
    }
    out
}

#[test]
fn cow_history_replay_recovers_retained_epochs_bit_identically() {
    // Full-WAL replay (no checkpoint compaction) must rebuild not just
    // the newest epoch but the whole retained history ring — same
    // epochs, same bits, and the same per-shard sharing structure the
    // live process published copy-on-write.
    let h = CrashHarness::new("cow_history", 6, 1_000);
    let config = || gee_serve::RegistryConfig {
        default_shards: SHARDS,
        history: gee_serve::HistoryPolicy::keep(4),
        backpressure: gee_serve::BackpressurePolicy::default(),
        durability: h.durability(),
        search: gee_serve::SearchPolicy::Exact,
    };
    let live = Registry::with_config(config()).unwrap();
    live.register("g", &h.el, &h.labels).unwrap();
    // One single-shard edge batch among the scripted mixed batches, so
    // the sharing pattern provably contains fully-shared blocks.
    live.apply_updates("g", &[Update::InsertEdge { u: 1, v: 2, w: 0.5 }])
        .unwrap();
    for batch in &h.batches {
        live.apply_updates("g", batch).unwrap();
    }
    let live_range = live.epoch_range("g").unwrap();
    assert_eq!(live_range, (4, 7), "7 epochs published, 4 retained");
    let live_fps: Vec<u64> = (live_range.0..=live_range.1)
        .map(|e| snapshot_fingerprint(&live.snapshot_at("g", e).unwrap()))
        .collect();
    let live_sharing = sharing_pattern(&live, "g");
    drop(live); // clean close; the WAL holds the full lineage

    let recovered = Registry::with_config(config()).unwrap();
    assert_eq!(recovered.epoch_range("g").unwrap(), live_range);
    let rec_fps: Vec<u64> = (live_range.0..=live_range.1)
        .map(|e| snapshot_fingerprint(&recovered.snapshot_at("g", e).unwrap()))
        .collect();
    assert_eq!(rec_fps, live_fps, "every retained epoch is bit-identical");
    assert_eq!(
        sharing_pattern(&recovered, "g"),
        live_sharing,
        "replay must reproduce the CoW sharing structure"
    );
    // Evicted epochs stay evicted with the same typed error.
    assert!(matches!(
        recovered.snapshot_at("g", 0),
        Err(ServeError::EpochEvicted {
            oldest: 4,
            newest: 7,
            ..
        })
    ));
}

/// What a graph's retained history shows a reader: the epoch range,
/// every retained epoch's fingerprint, the CoW sharing between
/// consecutive retained epochs, and the `updates_applied` counter.
type RetainedView = ((u64, u64), Vec<u64>, Vec<(u64, Vec<bool>, Vec<bool>)>, u64);

fn retained_view(reg: &Arc<Registry>, name: &str) -> RetainedView {
    let range = reg.epoch_range(name).unwrap();
    let fps = (range.0..=range.1)
        .map(|e| snapshot_fingerprint(&reg.snapshot_at(name, e).unwrap()))
        .collect();
    let applied = Engine::new(reg.clone())
        .stats(name)
        .unwrap()
        .updates_applied;
    (range, fps, sharing_pattern(reg, name), applied)
}

#[test]
fn recovery_past_a_long_tail_materializes_only_the_retained_epochs() {
    // A checkpoint, then a tail longer than the ring: recovery applies
    // the first tail batches (a label move among them) to the writer
    // only and materializes the last `keep` epochs (single-shard edge
    // batches among them). A second graph is deregistered and
    // re-registered inside the tail. Every retained epoch must match the
    // uninterrupted process; the skipped ones are evicted.
    let h = CrashHarness::new("retained_tail", 8, 1_000);
    let config = || gee_serve::RegistryConfig {
        default_shards: SHARDS,
        history: gee_serve::HistoryPolicy::keep(4),
        backpressure: gee_serve::BackpressurePolicy::default(),
        durability: h.durability(),
        search: gee_serve::SearchPolicy::Exact,
    };
    let live = Arc::new(Registry::with_config(config()).unwrap());
    live.register("g", &h.el, &h.labels).unwrap();
    live.register("h", &h.el, &h.labels).unwrap();
    live.apply_updates("g", &h.batches[0]).unwrap();
    live.checkpoint_now().unwrap().unwrap();

    let apply = |name: &str, batch: &[Update]| {
        live.apply_updates(name, batch).unwrap();
    };
    // An edge inside the shard starting at `lo`, from a vertex labelled
    // now, so the rows it dirties really change.
    let single_shard = |lo: u32| {
        let snap = live.snapshot("g").unwrap();
        let u = (lo..lo + 19).find(|&u| snap.label(u).is_some()).unwrap();
        vec![Update::InsertEdge {
            u,
            v: u + 1,
            w: 0.5,
        }]
    };
    // Skipped on recovery: 6 batches of g, one of them a label move.
    let v = 25u32; // shard 1 of 3 × 20
    let moved = live
        .snapshot("g")
        .unwrap()
        .label(v)
        .map_or(0, |c| (c + 1) % K as u32);
    apply("g", &h.batches[1]);
    apply("h", &h.batches[1]);
    apply(
        "g",
        &[Update::SetLabel {
            v,
            label: Some(moved),
        }],
    );
    apply("g", &single_shard(40));
    apply("g", &h.batches[2]);
    apply("h", &h.batches[2]);
    apply("g", &h.batches[3]);
    apply("g", &h.batches[4]);
    // Retained on recovery: g's last 4 batches, single-shard edge
    // batches among them.
    apply("g", &single_shard(0));
    apply("g", &h.batches[5]);
    apply("g", &single_shard(20));
    apply("g", &single_shard(40));
    // h's second lineage: epoch 0 and 5 batches, so it evicts too.
    assert!(live.deregister("h").unwrap());
    live.register("h", &h.el, &h.labels).unwrap();
    for batch in &h.batches[3..8] {
        apply("h", batch);
    }

    let live_g = retained_view(&live, "g");
    let live_h = retained_view(&live, "h");
    assert_eq!(live_g.0, (8, 11), "11 epochs published, 4 retained");
    assert_eq!(live_h.0, (2, 5), "the new lineage's 6 epochs, 4 retained");
    let distinct: std::collections::HashSet<u64> = live_g.1.iter().copied().collect();
    assert_eq!(distinct.len(), 4, "every retained batch of g changes rows");
    assert!(
        live_g
            .2
            .iter()
            .any(|(_, blocks, _)| blocks.iter().filter(|&&shared| shared).count() == SHARDS - 1),
        "a single-shard batch shares every other block: {:?}",
        live_g.2
    );
    let evicted = live.snapshot_at("g", 7).unwrap_err();
    assert!(matches!(
        evicted,
        ServeError::EpochEvicted {
            epoch: 7,
            oldest: 8,
            newest: 11,
            ..
        }
    ));
    drop(live); // clean close; the WAL holds the tail past the checkpoint

    let recovered = Arc::new(Registry::with_config(config()).unwrap());
    assert_eq!(retained_view(&recovered, "g"), live_g);
    assert_eq!(retained_view(&recovered, "h"), live_h);
    assert_eq!(recovered.snapshot_at("g", 7).unwrap_err(), evicted);
}

#[test]
fn pinned_reads_survive_crash_recovery_byte_identically() {
    // Kill the process (torn tail) and recover: at_epoch reads of every
    // epoch retained by the recovered ring answer byte-identically to
    // the uninterrupted oracle pinned at the same epoch.
    let h = CrashHarness::new("cow_pinned", 5, 1_000);
    let config = |durability| gee_serve::RegistryConfig {
        default_shards: SHARDS,
        history: gee_serve::HistoryPolicy::keep(8),
        backpressure: gee_serve::BackpressurePolicy::default(),
        durability,
        search: gee_serve::SearchPolicy::Exact,
    };
    let live = Registry::with_config(config(h.durability())).unwrap();
    live.register("g", &h.el, &h.labels).unwrap();
    for batch in &h.batches[..4] {
        live.apply_updates("g", batch).unwrap();
    }
    // Crash mid-append of batch #5: the torn record must be truncated
    // away and epochs 0..=4 recovered.
    live.inject_wal_fault(FaultPoint::TornAppend { keep_bytes: 13 });
    let err = live.apply_updates("g", &h.batches[4]).unwrap_err();
    assert!(matches!(err, ServeError::Storage { .. }), "{err}");
    drop(live);

    let recovered = Engine::new(Arc::new(
        Registry::with_config(config(h.durability())).unwrap(),
    ));
    let oracle = {
        let reg = Registry::with_config(config(Durability::None)).unwrap();
        reg.register("g", &h.el, &h.labels).unwrap();
        for batch in &h.batches[..4] {
            reg.apply_updates("g", batch).unwrap();
        }
        Engine::new(Arc::new(reg))
    };
    assert_eq!(recovered.registry().epoch_range("g").unwrap(), (0, 4));
    for epoch in 0..=4u64 {
        let pinned: Vec<Envelope> = read_requests()
            .into_iter()
            .map(|env| Envelope::new(env.graph, env.request.pinned(epoch)))
            .collect();
        let got = encode_server_frame(&ServerFrame::Batch {
            id: epoch,
            results: recovered.execute_batch(pinned.clone()),
        });
        let want = encode_server_frame(&ServerFrame::Batch {
            id: epoch,
            results: oracle.execute_batch(pinned),
        });
        assert_eq!(got, want, "pinned reads at epoch {epoch}");
    }
}

#[test]
fn ann_recovery_reproduces_index_structure_and_answers() {
    // Crash recovery with ANN enabled: the recovered process must
    // rebuild per-shard IVF indexes with the *same structure* (same
    // centroids bit-for-bit, same inverted lists — proved by digest)
    // and answer ANN queries byte-identically to the uninterrupted
    // process. The fixture is larger than the harness default so every
    // shard clears ANN_MIN_SHARD_ROWS and really indexes.
    const AN: usize = 900; // 3 shards × 300 rows, all indexed
    let dir = std::env::temp_dir().join(format!(
        "gee_durability_ann_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let el = gee_gen::erdos_renyi_gnm(AN, AN * 5, 19);
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            AN,
            LabelSpec {
                num_classes: K,
                labeled_fraction: 0.4,
            },
            23,
        ),
        K,
    );
    let batch = |b: u32| -> Vec<Update> {
        let v = |i: u32| (b * 131 + i * 17) % AN as u32;
        vec![
            Update::InsertEdge {
                u: v(0),
                v: v(1),
                w: 1.0 + f64::from(b % 3) * 0.5,
            },
            Update::SetLabel {
                v: v(2),
                label: Some(b % K as u32),
            },
        ]
    };
    let config = |durability| gee_serve::RegistryConfig {
        default_shards: SHARDS,
        backpressure: gee_serve::BackpressurePolicy::default(),
        history: gee_serve::HistoryPolicy::default(),
        durability,
        search: gee_serve::SearchPolicy::ann(3),
    };
    let wal = || Durability::Wal {
        dir: dir.clone(),
        sync: SyncPolicy::Always,
        checkpoint_every: 2, // mix checkpoint restore and tail replay
    };

    let live = Registry::with_config(config(wal())).unwrap();
    live.register("g", &el, &labels).unwrap();
    for b in 0..5u32 {
        live.apply_updates("g", &batch(b)).unwrap();
    }
    // Crash mid-append of the 6th batch: it must not survive.
    live.inject_wal_fault(FaultPoint::TornAppend { keep_bytes: 9 });
    assert!(live.apply_updates("g", &batch(5)).is_err());
    drop(live);

    let oracle = {
        let reg = Registry::with_config(config(Durability::None)).unwrap();
        reg.register("g", &el, &labels).unwrap();
        for b in 0..5u32 {
            reg.apply_updates("g", &batch(b)).unwrap();
        }
        Engine::new(Arc::new(reg))
    };
    let recovered = Engine::new(Arc::new(Registry::with_config(config(wal())).unwrap()));
    assert_eq!(recovered.registry().snapshot("g").unwrap().epoch, 5);

    // Same index structure, shard by shard.
    let snap_r = recovered.registry().snapshot("g").unwrap();
    let snap_o = oracle.registry().snapshot("g").unwrap();
    assert_eq!(snap_r.warm_ann_indexes(), SHARDS);
    assert_eq!(snap_o.warm_ann_indexes(), SHARDS);
    for (i, (a, b)) in snap_r.blocks().iter().zip(snap_o.blocks()).enumerate() {
        let (a, b) = (
            a.ann_index_cached().expect("indexed"),
            b.ann_index_cached().expect("indexed"),
        );
        assert_eq!(a.nlist(), b.nlist(), "shard {i}");
        assert_eq!(a.centroids(), b.centroids(), "shard {i} centroids");
        assert_eq!(a.lists(), b.lists(), "shard {i} lists");
        assert_eq!(a.train_lists(), b.train_lists(), "shard {i} train lists");
        assert_eq!(
            a.structure_digest(),
            b.structure_digest(),
            "shard {i} digest"
        );
    }

    // Same ANN answers, byte for byte, through the default (ANN) policy
    // and the exact escape hatch alike.
    let reads: Vec<Envelope> = (0..24u32)
        .map(|i| Envelope::new("g", Request::similar((i * 113) % AN as u32, 10)))
        .chain([
            Envelope::new("g", Request::classify((0..AN as u32 / 4).collect(), 5)),
            Envelope::new(
                "g",
                Request::similar(7, 10).with_search(gee_serve::SearchPolicy::Exact),
            ),
            Envelope::new(
                "g",
                Request::classify(vec![0, 5, 9], 3).with_search(gee_serve::SearchPolicy::ann(1)),
            ),
        ])
        .collect();
    let got = encode_server_frame(&ServerFrame::Batch {
        id: 0,
        results: recovered.execute_batch(reads.clone()),
    });
    let want = encode_server_frame(&ServerFrame::Batch {
        id: 0,
        results: oracle.execute_batch(reads),
    });
    assert_eq!(got, want, "recovered ANN answers differ from oracle");

    // Recovery is idempotent for the index structure too.
    drop(recovered);
    let again = Registry::with_config(config(wal())).unwrap();
    let snap_a = again.snapshot("g").unwrap();
    snap_a.warm_ann_indexes();
    for (i, (a, b)) in snap_a.blocks().iter().zip(snap_r.blocks()).enumerate() {
        assert_eq!(
            a.ann_index_cached().unwrap().structure_digest(),
            b.ann_index_cached().unwrap().structure_digest(),
            "shard {i}: re-recovery re-indexes identically"
        );
    }
    drop(again);
    std::fs::remove_dir_all(&dir).ok();
}
