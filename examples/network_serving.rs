//! Network serving: drive `gee-serve` over the wire protocol and prove
//! the wire answers equal in-process execution.
//!
//! Two engines are built from identical inputs: one behind a TCP server,
//! one local. A scripted mixed read/write workload is executed both ways
//! — every response received over the wire must be `==` to the response
//! `Engine::execute_batch` computes in-process, and the encoded response
//! bytes must match byte-for-byte. A pipelined phase then shows many
//! batches in flight on one connection.
//!
//! ```text
//! cargo run --release --example network_serving
//! ```

use std::sync::Arc;
use std::time::Instant;

use gee_repro::prelude::*;
use gee_repro::serve::codec::encode_server_frame;
use gee_repro::serve::{Client, Server, ServerFrame};

/// Build one engine from the canonical inputs; called twice so the
/// served and oracle registries start bit-identical.
fn build_engine(blocks: usize, per_block: usize, shards: usize) -> ServeEngine {
    let sbm = gee_gen::sbm(&SbmParams::balanced(blocks, per_block, 0.02, 0.001), 42);
    let labels =
        Labels::from_options_with_k(&gee_gen::subsample_labels(&sbm.truth, 0.3, 7), blocks);
    let registry = Arc::new(Registry::new(shards));
    registry.register("social", &sbm.edges, &labels).unwrap();
    ServeEngine::new(registry)
}

/// The scripted workload: reads, epoch-publishing writes, and requests
/// that must fail with typed errors — all in one ordered stream.
fn workload(n: u32, blocks: usize) -> Vec<Vec<Envelope>> {
    (0..8u32)
        .map(|round| {
            let v = |i: u32| (round * 131 + i * 17) % n;
            vec![
                Envelope::new("social", Request::classify((0..20).map(v).collect(), 5)),
                Envelope::new("social", Request::similar(v(0), 10)),
                Envelope::new("social", Request::embed_row(v(1))),
                Envelope::new(
                    "social",
                    Request::ApplyUpdates {
                        updates: vec![
                            Update::InsertEdge {
                                u: v(2),
                                v: v(3),
                                w: 1.5,
                            },
                            Update::SetLabel {
                                v: v(4),
                                label: Some(round % blocks as u32),
                            },
                        ],
                    },
                ),
                Envelope::new("social", Request::classify(vec![v(2), v(3)], 5)),
                Envelope::new("social", Request::stats()),
                // Typed failures must cross the wire unchanged too.
                Envelope::new("social", Request::similar(v(5), 0)),
                Envelope::new("nowhere", Request::stats()),
            ]
        })
        .collect()
}

fn main() {
    let (blocks, per_block, shards) = (6, 2_000, 4);
    let server_engine = Arc::new(build_engine(blocks, per_block, shards));
    let local_engine = build_engine(blocks, per_block, shards);
    let n = (blocks * per_block) as u32;

    // -- Stand the server up on an ephemeral loopback port.
    let handle = Server::listen(server_engine, "127.0.0.1:0", None).expect("bind loopback");
    println!(
        "server listening on {} (wire protocol v{})",
        handle.addr(),
        gee_repro::serve::PROTOCOL_VERSION
    );
    let mut client = Client::connect(handle.addr()).expect("connect + handshake");
    println!("client handshake negotiated v{}", client.protocol_version());

    // -- Phase 1: batch-by-batch equivalence, checked to the byte.
    let batches = workload(n, blocks);
    let requests: usize = batches.iter().map(Vec::len).sum();
    let mut wire_bytes = 0usize;
    let t0 = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let over_wire = client.execute_batch(batch.clone()).expect("wire execution");
        let in_process = local_engine.execute_batch(batch.clone());
        assert_eq!(
            over_wire, in_process,
            "batch {i}: wire answers must equal in-process"
        );
        let frame = |results| encode_server_frame(&ServerFrame::Batch { id: 0, results });
        let encoded = frame(over_wire);
        assert_eq!(
            encoded,
            frame(in_process),
            "batch {i}: responses must be byte-identical on the wire"
        );
        wire_bytes += encoded.len();
    }
    println!(
        "phase 1: {requests} requests in {} batches over TCP == in-process, \
         byte-for-byte ({wire_bytes} response bytes, {:.2?})",
        batches.len(),
        t0.elapsed()
    );

    // -- Phase 2: pipelining — all batches in flight before any reply.
    let batches = workload(n, blocks); // same script, continues the epoch history identically
    let t1 = Instant::now();
    let over_wire = client
        .pipeline(batches.clone())
        .expect("pipelined execution");
    let pipelined = t1.elapsed();
    let in_process: Vec<_> = batches
        .iter()
        .map(|b| local_engine.execute_batch(b.clone()))
        .collect();
    assert_eq!(
        over_wire, in_process,
        "pipelined answers must equal in-process"
    );
    println!(
        "phase 2: {} pipelined batches in {pipelined:.2?}, still == in-process",
        over_wire.len()
    );

    // -- The servers agree on final state: same epoch, same stats.
    let remote_stats = client.stats("social").expect("stats over wire");
    let local_stats = local_engine.stats("social").expect("stats in-process");
    assert_eq!(
        remote_stats, local_stats,
        "served state must converge identically"
    );
    println!(
        "final state: epoch {}, {} queries served, {} updates applied — identical on both sides",
        remote_stats.epoch, remote_stats.queries_served, remote_stats.updates_applied
    );

    client.goodbye().expect("clean goodbye");
    handle.shutdown();
    println!("wire round-trip proven: TCP responses == Engine::execute_batch ✓");
}
