//! Durable serving: crash a WAL-backed registry and prove recovery is
//! bit-identical.
//!
//! A durable engine registers a graph and streams update batches; every
//! batch is committed to the write-ahead log (fsync before apply) and
//! periodically compacted into a checkpoint. The process then "crashes"
//! (the registry is dropped with no clean shutdown, and a torn
//! half-record of an unacknowledged batch is smeared onto the log tail,
//! exactly as a kill mid-append would leave it). Recovery = latest
//! checkpoint + WAL tail replay; the recovered engine must answer
//! `Classify` / `Similar` / `EmbedRow` / `Stats` **byte-identically** —
//! compared on encoded wire frames — to an oracle engine that applied
//! the same batches and never stopped.
//!
//! ```text
//! cargo run --release --example durable_serving
//! ```

use std::sync::Arc;
use std::time::Instant;

use gee_repro::prelude::*;
use gee_repro::serve::codec::encode_server_frame;
use gee_repro::serve::{Durability, Registry, ServerFrame, SyncPolicy};

const GRAPH: &str = "social";
const BATCHES: usize = 12;

fn fixture() -> (EdgeList, Labels) {
    let sbm = gee_gen::sbm(&SbmParams::balanced(3, 60, 0.15, 0.01), 42);
    let labels = Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.4, 7), 3);
    (sbm.edges, labels)
}

fn batch(b: u32, n: u32) -> Vec<Update> {
    let v = |i: u32| (b * 97 + i * 13) % n;
    vec![
        Update::InsertEdge {
            u: v(0),
            v: v(1),
            w: 1.0 + f64::from(b % 4) * 0.5,
        },
        Update::SetLabel {
            v: v(2),
            label: Some(b % 3),
        },
        Update::RemoveEdge {
            u: v(0),
            v: v(1),
            w: 777.0, // never present: a committed no-op
        },
    ]
}

/// The read suite both engines answer; `Stats` runs on its own so the
/// query counter it reports is deterministic.
fn answers(engine: &ServeEngine, n: u32) -> Vec<u8> {
    let mut results = engine.execute_batch(vec![
        Envelope::new(GRAPH, Request::classify((0..n).collect(), 5)),
        Envelope::new(GRAPH, Request::similar(7, 10)),
        Envelope::new(GRAPH, Request::embed_row(n / 2)),
        Envelope::new(GRAPH, Request::embed_row(n + 1)), // typed error
    ]);
    results.push(engine.execute(GRAPH, Request::stats()));
    encode_server_frame(&ServerFrame::Batch { id: 0, results })
}

fn main() {
    let data_dir = std::env::temp_dir().join(format!(
        "gee_durable_serving_{}_{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let durability = || Durability::Wal {
        dir: data_dir.clone(),
        sync: SyncPolicy::Always,
        checkpoint_every: 5,
    };
    let (el, labels) = fixture();
    let n = el.num_vertices() as u32;

    // -- Serve durably, then crash. ------------------------------------
    let t0 = Instant::now();
    {
        let engine = ServeEngine::open(4, durability()).expect("fresh data dir opens");
        engine
            .registry()
            .register(GRAPH, &el, &labels)
            .expect("registration commits to the WAL");
        for b in 0..BATCHES as u32 {
            let (applied, epoch) = engine
                .apply_updates(GRAPH, batch(b, n))
                .expect("committed batch");
            assert_eq!(epoch, u64::from(b) + 1);
            assert!(applied >= 2);
        }
        println!(
            "served {BATCHES} durable batches (fsync each, checkpoint every 5) in {:.2?}",
            t0.elapsed()
        );
        // No clean shutdown: the engine is dropped mid-flight.
    }
    // Smear a torn half-record onto the log tail — what a kill during an
    // unacknowledged append leaves behind.
    let wal_tail = std::fs::read_dir(&data_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains("wal-"))
        .max()
        .expect("a WAL segment exists");
    let mut bytes = std::fs::read(&wal_tail).unwrap();
    bytes.extend_from_slice(&[0x2A, 0x00, 0x00, 0x00, 0xDE, 0xAD]); // len=42, torn after 2 CRC bytes
    std::fs::write(&wal_tail, &bytes).unwrap();
    println!(
        "crashed: dropped the engine and tore the WAL tail ({} bytes)",
        6
    );

    // -- Recover and verify bit-identical serving. ----------------------
    let t1 = Instant::now();
    let recovered = ServeEngine::open(4, durability()).expect("recovery succeeds");
    println!(
        "recovered from checkpoint + WAL tail in {:.2?}",
        t1.elapsed()
    );

    let oracle = {
        let registry = Arc::new(Registry::new(4));
        registry.register(GRAPH, &el, &labels).unwrap();
        let engine = ServeEngine::new(registry);
        for b in 0..BATCHES as u32 {
            engine.apply_updates(GRAPH, batch(b, n)).unwrap();
        }
        engine
    };
    let stats = recovered
        .registry()
        .snapshot(GRAPH)
        .expect("graph recovered");
    assert_eq!(stats.epoch, BATCHES as u64, "all committed epochs survive");
    let recovered_bytes = answers(&recovered, n);
    let oracle_bytes = answers(&oracle, n);
    assert_eq!(
        recovered_bytes, oracle_bytes,
        "recovered answers must equal the uninterrupted oracle byte-for-byte"
    );
    println!(
        "recovered engine at epoch {} answers {} response bytes byte-identical to the oracle ✓",
        stats.epoch,
        recovered_bytes.len()
    );

    // -- A second recovery proves idempotence. --------------------------
    drop(recovered);
    let again = ServeEngine::open(4, durability()).expect("recovery is repeatable");
    assert_eq!(answers(&again, n), oracle_bytes);
    println!("second recovery is idempotent ✓");

    std::fs::remove_dir_all(&data_dir).ok();
    println!("durable serving pipeline complete");
}
