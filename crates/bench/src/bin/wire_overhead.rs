//! Wire-protocol overhead: queries/sec for the same workload executed
//! three ways against one engine build —
//!
//! * **in-process** — `Engine::execute_batch`, no serialization;
//! * **duplex**     — `Client` over the in-process channel transport
//!   (pays encode/decode + a thread hop, no kernel sockets);
//! * **tcp**        — `Client` over loopback TCP (adds length-prefix
//!   framing and the socket stack).
//!
//! The duplex−in-process gap prices the codec; the tcp−duplex gap
//! prices the kernel. A `pipelined` column shows how much of the TCP gap
//! request pipelining wins back for small batches.
//!
//! ```text
//! cargo run --release -p gee-bench --bin wire_overhead -- --scale 64
//! ```

use std::sync::Arc;

use gee_bench::table::render;
use gee_bench::{timed, Args};
use gee_core::Labels;
use gee_serve::{duplex, Client, Engine, Envelope, Registry, Request, Server};

fn build_engine(args: &Args, blocks: usize, per_block: usize, shards: usize) -> Arc<Engine> {
    let sbm = gee_gen::sbm(
        &gee_gen::SbmParams::balanced(blocks, per_block, 0.01, 0.0005),
        args.seed,
    );
    let labels = Labels::from_options_with_k(
        &gee_gen::subsample_labels(
            &sbm.truth,
            args.labeled_fraction.max(0.05),
            args.seed ^ 0x5E,
        ),
        blocks,
    );
    let registry = Arc::new(Registry::new(shards));
    registry.register("g", &sbm.edges, &labels).unwrap();
    Arc::new(Engine::new(registry))
}

/// One benchmark phase: `batches` batches of `queries` point reads each.
fn phase_batches(n: usize, batches: usize, queries: usize) -> Vec<Vec<Envelope>> {
    (0..batches)
        .map(|b| {
            (0..queries)
                .map(|i| {
                    let v = ((b * 131 + i * 17) % n) as u32;
                    Envelope::new("g", Request::embed_row(v))
                })
                .collect()
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let blocks = 8usize;
    let per_block = (200_000 / blocks / args.scale).max(50);
    let shards = 4usize;
    let engine = build_engine(&args, blocks, per_block, shards);
    let n = blocks * per_block;
    let (num_batches, batch_size) = (64usize, 32usize);
    let total = (num_batches * batch_size) as f64;
    println!(
        "wire-overhead — SBM {blocks}×{per_block} ({n} vertices), {shards} shards; \
         {num_batches} batches × {batch_size} EmbedRow queries per run\n"
    );

    // -- In-process baseline.
    let (inproc_secs, _, _) = timed(args.runs, || {
        for batch in phase_batches(n, num_batches, batch_size) {
            let r = engine.execute_batch(batch);
            assert!(r.iter().all(Result::is_ok));
        }
    });

    // -- Duplex transport (codec cost, no sockets).
    let (duplex_end, client_end) = duplex();
    let duplex_server = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut transport = duplex_end;
            let _ = Server::new(engine).serve_connection(&mut transport);
        })
    };
    let mut duplex_client = Client::over(client_end).expect("duplex handshake");
    let (duplex_secs, _, _) = timed(args.runs, || {
        for batch in phase_batches(n, num_batches, batch_size) {
            let r = duplex_client
                .execute_batch(batch)
                .expect("duplex execution");
            assert!(r.iter().all(Result::is_ok));
        }
    });

    // -- Loopback TCP, sequential then pipelined.
    let handle = Server::listen(engine.clone(), "127.0.0.1:0", None).expect("bind loopback");
    let mut tcp_client = Client::connect(handle.addr()).expect("tcp handshake");
    let (tcp_secs, _, _) = timed(args.runs, || {
        for batch in phase_batches(n, num_batches, batch_size) {
            let r = tcp_client.execute_batch(batch).expect("tcp execution");
            assert!(r.iter().all(Result::is_ok));
        }
    });
    let (tcp_pipe_secs, _, _) = timed(args.runs, || {
        let replies = tcp_client
            .pipeline(phase_batches(n, num_batches, batch_size))
            .expect("pipelined execution");
        assert!(replies.iter().flatten().all(Result::is_ok));
    });

    let rows: Vec<Vec<String>> = [
        ("in-process", inproc_secs),
        ("duplex", duplex_secs),
        ("tcp", tcp_secs),
        ("tcp pipelined", tcp_pipe_secs),
    ]
    .into_iter()
    .map(|(path, secs)| {
        vec![
            path.to_string(),
            format!("{:.2} ms", secs * 1e3),
            format!("{:.0}", total / secs),
            format!("{:.2}×", secs / inproc_secs),
        ]
    })
    .collect();
    println!(
        "{}",
        render(&["Path", "Run time", "Queries/s", "vs in-process"], &rows)
    );
    println!(
        "expected shape: duplex prices the codec, tcp adds the kernel, pipelining \
              claws back per-batch round trips."
    );

    if let Some(path) = &args.json_path {
        let meta = serde_json::json!({
            "scale": args.scale,
            "runs": args.runs,
            "seed": args.seed,
            "queries_per_run": total,
        });
        let mut report = gee_loadgen::bench_envelope("wire_overhead", meta);
        let rows: Vec<serde_json::Value> = [
            ("in_process", inproc_secs),
            ("duplex", duplex_secs),
            ("tcp", tcp_secs),
            ("tcp_pipelined", tcp_pipe_secs),
        ]
        .into_iter()
        .map(|(transport, secs)| {
            serde_json::json!({
                "transport": transport,
                "seconds": secs,
                "qps": total / secs,
                "vs_in_process": secs / inproc_secs,
            })
        })
        .collect();
        gee_loadgen::report::push_field(&mut report, "rows", serde_json::Value::Array(rows));
        gee_loadgen::write_json(path, &report).expect("write --json report");
        eprintln!("wrote {path}");
    }

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&serde_json::json!({ "wire_overhead": {
                "queries_per_run": total,
                "in_process_seconds": inproc_secs,
                "duplex_seconds": duplex_secs,
                "tcp_seconds": tcp_secs,
                "tcp_pipelined_seconds": tcp_pipe_secs,
            }}))
            .unwrap()
        );
    }

    drop(duplex_client);
    duplex_server.join().expect("duplex server thread");
    tcp_client.goodbye().expect("clean goodbye");
    handle.shutdown();
}
