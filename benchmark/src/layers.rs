//! The traced run: every layer timed alone, from outside, through its
//! public functions, with a span around each call. The spans go to
//! `benchmark/out/trace-<workload>.jsonl`; the per-layer metrics are
//! aggregates of them.
//!
//! Layers, bottom up: `gee_graph` (CSR build), `gee_ligra` (edge map,
//! dispatch), `gee_core` (projection, accumulator, serial baselines,
//! `DynamicGee`), then `gee_serve`'s registry, WAL, checkpoint, engine,
//! index, codec, transport and replication.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gee_core::{DynamicGee, Projection};
use gee_graph::{CsrGraph, Edge, EdgeList, VertexId, Weight};
use gee_ligra::{edge_map, AtomicF64Vec, EdgeMapFn, EdgeMapOptions, TraversalKind, VertexSubset};
use gee_serve::codec::{
    decode_client_frame, decode_server_frame, encode_client_frame, encode_server_frame,
};
use gee_serve::wal::{self, WalRecord, WalWriter};
use gee_serve::{
    checkpoint, duplex, Client, ClientFrame, Envelope, Follower, Registry, ReplicationListener,
    Request, Server, ServerFrame, SyncPolicy, Update,
};

use crate::metrics::Metrics;
use crate::requests::{Kind, Mix, RequestGen};
use crate::session::{self, Ctx, Kernel, Served, Tally, GRAPH};
use crate::spans::{durations_us, Recorder};
use crate::{stats, sysinfo};

/// Shares of `--seconds` the traced run's windows get; the probes
/// between them are fixed amounts of work.
const SHARE_KERNEL_ALL: f64 = 0.15;
const SHARE_KERNEL_ONE: f64 = 0.10;
const SHARE_SERIAL: f64 = 0.05;
const SHARE_STATIC: f64 = 0.20;
/// Untraced-then-traced pairs the static share is cut into.
const STATIC_PAIRS: usize = 3;
const SHARE_CHURN: f64 = 0.20;

const DISPATCH_CALLS: usize = 2_000;
const PROJECTION_CALLS: usize = 20;
const ALLOC_CALLS: usize = 10;
const CSR_BUILDS: usize = 3;
/// Edges the interpreted baseline is given: it is some fifty times
/// slower than the serial one, so it gets a prefix of the edge list.
const INTERP_EDGES: usize = 100_000;
const DYNAMIC_CHUNKS: usize = 20;
const DYNAMIC_CHUNK: usize = 1_000;
const LEDGER_REQUESTS: usize = 2_000;
const ROUND_TRIPS: usize = 2_000;
const PINNED_READS: usize = 500;
const APPLY_BATCHES: usize = 300;
const WAL_APPENDS: usize = 500;
const WAL_SYNCS: usize = 100;
const REPLICA_ROWS: usize = 100;
const TRIAD_PASSES: usize = 3;
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(60);

/// p99 of an ascending sample, or the highest percentile ten samples
/// lie beyond when it has fewer than 1,000.
fn p99_or_tail(sorted: &[f64]) -> f64 {
    stats::p99(sorted).unwrap_or_else(|| stats::tail(sorted).1)
}

/// Time `calls` calls of `f` as root spans called `name`; median seconds.
fn timed<R>(rec: &mut Recorder, name: &'static str, calls: usize, mut f: impl FnMut() -> R) -> f64 {
    let secs = (0..calls)
        .map(|i| {
            let span = rec.open(name, None, i as u64);
            std::hint::black_box(f());
            rec.close(span);
            rec.spans()[span as usize].duration_ns() as f64 / 1e9
        })
        .collect();
    stats::median_of(secs)
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let mut rec = Recorder::new(Instant::now());
    let dir = ctx.scratch.join("data");
    let (kernel, mut served, setup) = session::set_up(ctx, &dir);
    eprintln!("set-up: {setup}");
    session::describe_input(ctx, &kernel.input);
    m.set("registry.register_s", setup.register);
    m.set("index.build_s", setup.index_build);

    let edge_pass_bytes_per_s = kernel_layers(ctx, &kernel, &mut m, tally, &mut rec);
    request_ledger(ctx, &served, &mut m, &mut rec);
    serve_windows(ctx, &mut served, &mut m, tally, &mut rec);
    storage_layers(ctx, &kernel, served, &mut m, tally, &mut rec);
    drop(kernel);

    // The roofline: the edge pass's computed bytes per second over the
    // triad's, measured in this run. Last, so that the peak resident set
    // is the session's and not the triad's three large arrays.
    m.set("peak_rss_mb", sysinfo::peak_rss_mib());
    let bandwidth = triad_bytes_per_s(ctx, &mut rec);
    m.set("mem.triad_bytes_per_s", bandwidth);
    m.set("gee.roofline_fraction", edge_pass_bytes_per_s / bandwidth);

    let trace = crate::out_dir().join(format!("trace-{}.jsonl", ctx.workload.name));
    rec.write_jsonl(&trace).expect("write the trace");
    eprintln!("trace: {} spans in {}", rec.spans().len(), trace.display());
    m
}

/// A functor that does nothing: what is left of an `edge_map` call is
/// the cost of starting and joining one parallel region.
struct NoOp;

impl EdgeMapFn for NoOp {
    fn update(&self, _: VertexId, _: VertexId, _: Weight) -> bool {
        false
    }
    fn update_atomic(&self, _: VertexId, _: VertexId, _: Weight) -> bool {
        false
    }
}

/// Returns the bytes per second the edge pass moves, by the computed
/// count.
fn kernel_layers(
    ctx: &Ctx,
    kernel: &Kernel,
    m: &mut Metrics,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> f64 {
    let nproc = ctx.sys.nproc;
    let window = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    let edges = &kernel.input.edges;
    let labels = &kernel.input.labels;
    let (n, k, s) = (
        edges.num_vertices(),
        labels.num_classes(),
        edges.num_edges(),
    );

    // gee_graph
    m.set(
        "graph.csr_build_s",
        timed(rec, "graph.csr_build", CSR_BUILDS, || {
            CsrGraph::from_edge_list(edges)
        }),
    );
    let weight_bytes = if kernel.csr.is_weighted() { 8 } else { 0 };
    let csr_bytes = (n + 1) * 8 + s * (4 + weight_bytes);
    m.set("graph.csr_bytes", csr_bytes as f64);

    // gee_ligra + gee_core: the kernel at all threads and at one.
    let (all, z) = session::kernel_window(kernel, nproc, window(SHARE_KERNEL_ALL));
    let (one, _) = session::kernel_window(kernel, 1, window(SHARE_KERNEL_ONE));
    tally.ops((all.len() + one.len()) as u64, 0);
    m.set(
        "gee.max_rel_err_vs_reference",
        session::check_kernel(tally, &z, &kernel.input),
    );
    drop(z);
    let rate = |secs: &[f64]| s as f64 * secs.len() as f64 / secs.iter().sum::<f64>();
    m.set("ligra.tN_edges_per_s", rate(&all));
    m.set("ligra.t1_edges_per_s", rate(&one));
    let calls = all.len();
    let window_secs: f64 = all.iter().sum();
    let all_us = stats::sorted(all.iter().map(|x| x * 1e6).collect());
    let call_p50 = stats::median(&all_us);
    m.set("gee.embed_call_p50_us", call_p50);
    m.set("gee.embed_call_tail_us", stats::tail(&all_us).1);

    let dispatch_us = gee_ligra::with_threads(nproc, || {
        let tiny = CsrGraph::from_edge_list(&EdgeList::new_unchecked(2, vec![Edge::unit(0, 1)]));
        let frontier = VertexSubset::full(2);
        let options = EdgeMapOptions {
            kind: TraversalKind::DenseForward,
            no_output: true,
        };
        timed(rec, "ligra.dispatch", DISPATCH_CALLS, || {
            edge_map(&tiny, &frontier, &NoOp, options)
        }) * 1e6
    });
    m.set("ligra.dispatch_us", dispatch_us);
    let projection = gee_ligra::with_threads(nproc, || {
        timed(rec, "gee.projection", PROJECTION_CALLS, || {
            Projection::build_parallel(labels)
        })
    });
    m.set("gee.projection_s", projection);
    let z_alloc = timed(rec, "gee.z_alloc", ALLOC_CALLS, || {
        AtomicF64Vec::zeros(n * k).into_vec()
    });
    m.set("gee.z_alloc_s", z_alloc);
    // Computed: what is left of a median call once the projection and
    // the accumulator's allocation are taken out.
    let edge_pass = call_p50 / 1e6 - projection - z_alloc;
    m.set("ligra.edge_pass_s", edge_pass);
    eprintln!(
        "kernel: median call {call_p50:.1} us = projection {:.1} + accumulator {:.1} + edge pass {:.1}; \
         one parallel region costs {dispatch_us:.1} us, {:.3} % of the {calls}-call window",
        projection * 1e6,
        z_alloc * 1e6,
        edge_pass * 1e6,
        100.0 * dispatch_us / 1e6 * calls as f64 / window_secs
    );

    // The plain single-threaded baselines.
    let deadline = Instant::now() + window(SHARE_SERIAL);
    let mut serial = Vec::new();
    while serial.len() < 3 || Instant::now() < deadline {
        let t = Instant::now();
        std::hint::black_box(gee_core::serial_optimized::embed(edges, labels));
        serial.push(t.elapsed().as_secs_f64());
    }
    m.set("gee.serial_optimized_edges_per_s", rate(&serial));
    let prefix = EdgeList::new_unchecked(n, edges.edges()[..s.min(INTERP_EDGES)].to_vec());
    let interp = timed(rec, "gee.interp", 1, || gee_interp::embed(&prefix, labels));
    m.set("gee.interp_edges_per_s", prefix.num_edges() as f64 / interp);

    let bytes_per_edge = 12.0 + 16.0 + 4.0 + weight_bytes as f64;
    m.set("gee.bytes_per_edge_computed", bytes_per_edge);

    // gee_core::DynamicGee: what one inserted edge costs the writer.
    let mut writer = DynamicGee::new(edges, labels);
    let mut gen = RequestGen::new(
        ctx.seed,
        50,
        Mix::Churn,
        ctx.workload.graph,
        k,
        ctx.workload.nprobe,
    );
    let inserts: Vec<(u32, u32)> = std::iter::repeat_with(|| gen.update_batch())
        .flatten()
        .filter_map(|u| match u {
            Update::InsertEdge { u, v, .. } => Some((u, v)),
            _ => None,
        })
        .take(DYNAMIC_CHUNKS * DYNAMIC_CHUNK)
        .collect();
    let mut chunks = inserts.chunks(DYNAMIC_CHUNK);
    let per_chunk = timed(rec, "gee.dynamic_update", DYNAMIC_CHUNKS, || {
        for &(u, v) in chunks.next().expect("one chunk per call") {
            writer.insert_edge(u, v, 1.0);
        }
    });
    m.set(
        "gee.dynamic_update_us",
        per_chunk * 1e6 / DYNAMIC_CHUNK as f64,
    );
    bytes_per_edge * s as f64 / edge_pass
}

/// `a[i] = b[i] + 3·c[i]` over arrays of at least four times the
/// last-level cache each, capped so the three together stay within a
/// quarter of free memory; bytes per second, median pass, counting 24
/// bytes per element.
fn triad_bytes_per_s(ctx: &Ctx, rec: &mut Recorder) -> f64 {
    let sys = &ctx.sys;
    let wanted = 4 * sys.llc_bytes;
    let cap = sys.mem_available_bytes / 4 / 3;
    let len = (wanted.min(cap) / 8) as usize;
    eprintln!(
        "triad: three arrays of {} MiB each (LLC {} MiB, wanted {} MiB, cap {} MiB)",
        (len * 8) >> 20,
        sys.llc_bytes >> 20,
        wanted >> 20,
        cap >> 20
    );
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let chunk = len.div_ceil(sys.nproc);
    let pass = timed(rec, "mem.triad", TRIAD_PASSES, || {
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, &y), &z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + 3.0 * z;
                    }
                });
            }
        });
        a[len / 2]
    });
    24.0 * len as f64 / pass
}

/// One request at a time through the steps a round trip is made of —
/// encode, decode, execute, encode, decode — each a child span of the
/// request, then the same `EmbedRow` requests over the in-process duplex
/// transport and over loopback TCP. Reading the three side by side
/// splits a round trip into engine, codec and transport.
fn request_ledger(ctx: &Ctx, served: &Served, m: &mut Metrics, rec: &mut Recorder) {
    let w = ctx.workload;
    let engine = &served.engine;
    let mut gen = RequestGen::new(ctx.seed, 0, Mix::Static, w.graph, w.classes, w.nprobe);
    let mut kinds = Vec::with_capacity(LEDGER_REQUESTS);
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    let first = rec.spans().len();
    for id in 0..LEDGER_REQUESTS as u64 {
        let (kind, request) = gen.next_request();
        kinds.push(kind);
        let root = rec.open("request", None, id);
        let frame = ClientFrame::Batch {
            id,
            requests: vec![Envelope::new(GRAPH, request)],
        };
        let bytes = rec.child("codec.encode_req", root, id, || encode_client_frame(&frame));
        let decoded = rec.child("codec.decode_req", root, id, || decode_client_frame(&bytes));
        let Ok(ClientFrame::Batch { mut requests, .. }) = decoded else {
            panic!("a request frame did not decode to itself");
        };
        let request = requests.pop().expect("one request per frame").request;
        let result = rec.child("engine.execute", root, id, || {
            engine.execute(GRAPH, request)
        });
        let reply = ServerFrame::Batch {
            id,
            results: vec![result],
        };
        let reply_bytes = rec.child("codec.encode_resp", root, id, || {
            encode_server_frame(&reply)
        });
        rec.child("codec.decode_resp", root, id, || {
            decode_server_frame(&reply_bytes)
        })
        .expect("a response frame decodes");
        rec.close(root);
        request_bytes += bytes.len();
        response_bytes += reply_bytes.len();
    }
    let ledger = &rec.spans()[first..];
    let of = |name: &str, kind: Option<Kind>| {
        stats::median_of(durations_us(ledger, name, |id| {
            kind.is_none_or(|k| kinds[id as usize] == k)
        }))
    };
    for (name, kind) in [
        ("engine.embed_row_us", Kind::EmbedRow),
        ("engine.classify_us", Kind::Classify),
        ("engine.similar_exact_us", Kind::SimilarExact),
        ("engine.similar_ann_us", Kind::SimilarAnn),
        ("engine.stats_us", Kind::Stats),
    ] {
        m.set(name, of("engine.execute", Some(kind)));
    }
    let codec_steps = [
        ("codec.encode_req_ns", "codec.encode_req"),
        ("codec.decode_req_ns", "codec.decode_req"),
        ("codec.encode_resp_ns", "codec.encode_resp"),
        ("codec.decode_resp_ns", "codec.decode_resp"),
    ];
    for (name, span) in codec_steps {
        m.set(name, of(span, None) * 1e3);
    }
    m.set(
        "codec.bytes_per_req",
        request_bytes as f64 / LEDGER_REQUESTS as f64,
    );
    m.set(
        "codec.bytes_per_resp",
        response_bytes as f64 / LEDGER_REQUESTS as f64,
    );

    // Transport: the cheapest request, so what is timed is the trip.
    let n = w.graph.num_vertices() as u32;
    let trips = |rec: &mut Recorder, name: &'static str, client: &mut Client| {
        stats::median_of(
            (0..ROUND_TRIPS as u32)
                .map(|i| {
                    let span = rec.open(name, None, u64::from(i));
                    client
                        .embed_row(GRAPH, i.wrapping_mul(7_919) % n)
                        .expect("round trip");
                    rec.close(span);
                    rec.spans()[span as usize].duration_ns() as f64 / 1e3
                })
                .collect(),
        )
    };
    let (server_end, client_end) = duplex();
    let duplex_server = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            let mut transport = server_end;
            Server::new(engine).serve_connection(&mut transport)
        })
    };
    let mut client = Client::over(client_end).expect("duplex handshake");
    let duplex_rtt = trips(rec, "transport.duplex", &mut client);
    client.goodbye().expect("duplex goodbye");
    duplex_server
        .join()
        .expect("duplex server thread")
        .expect("duplex connection");
    let mut client = Client::connect(served.server.addr()).expect("tcp connect");
    let tcp_rtt = trips(rec, "transport.tcp", &mut client);
    client.goodbye().expect("tcp goodbye");

    let ledger = &rec.spans()[first..];
    let row = |name: &str| {
        stats::median_of(durations_us(ledger, name, |id| {
            kinds[id as usize] == Kind::EmbedRow
        }))
    };
    let engine_row = row("engine.execute");
    let codec_row: f64 = codec_steps.iter().map(|(_, span)| row(span)).sum();
    m.set("transport.duplex_rtt_us", duplex_rtt);
    m.set("transport.tcp_rtt_us", tcp_rtt);
    m.set(
        "transport.tcp_residual_us",
        tcp_rtt - engine_row - codec_row,
    );
    let adds_up = engine_row + codec_row <= duplex_rtt && duplex_rtt <= tcp_rtt;
    eprintln!(
        "round trip of one EmbedRow: engine {engine_row:.2} us + codec {codec_row:.2} us \
         <= duplex {duplex_rtt:.2} us <= tcp {tcp_rtt:.2} us: {}",
        if adds_up { "holds" } else { "DOES NOT HOLD" }
    );
}

/// Short serve windows: static ones, untraced and traced in turn, for
/// the tracing overhead; then a traced churn window and the ANN queries
/// after a write, for the counters that only move under writes.
fn serve_windows(
    ctx: &Ctx,
    served: &mut Served,
    m: &mut Metrics,
    tally: &mut Tally,
    rec: &mut Recorder,
) {
    let w = ctx.workload;
    let window = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    // Untraced and traced windows alternate, so that drift in the host's
    // load lands on both sides of the ratio.
    let idle = served.metrics();
    let (mut plain_rate, mut traced_rate) = (0.0, 0.0);
    let (mut plain_reads, mut plain_rows) = (Vec::new(), Vec::new());
    for _ in 0..STATIC_PAIRS {
        let share = SHARE_STATIC / (2 * STATIC_PAIRS) as f64;
        let plain = session::serve_window(ctx, served, Mix::Static, window(share), None);
        let traced = session::serve_window(ctx, served, Mix::Static, window(share), Some(rec));
        session::tally_window(tally, &plain, "static window");
        session::tally_window(tally, &traced, "traced static window");
        plain_rate += plain.per_second(Kind::is_plain_read);
        traced_rate += traced.per_second(Kind::is_plain_read);
        plain_reads.extend(plain.latencies(Kind::is_plain_read));
        plain_rows.extend(plain.latencies(|k| k == Kind::EmbedRow));
    }
    m.set("row_p50_us", stats::median_of(plain_rows));
    m.set("trace.overhead_ratio", traced_rate / plain_rate);
    m.set("read_p99_us", p99_or_tail(&stats::sorted(plain_reads)));

    let before = served.metrics();
    let checkpoint_before = served
        .registry
        .latest_checkpoint_lsn()
        .expect("checkpoint lsn");
    let storage_before = sysinfo::storage_bytes_written();
    let churn = session::serve_window(ctx, served, Mix::Churn, window(SHARE_CHURN), Some(rec));
    let storage_after = sysinfo::storage_bytes_written();
    let after = served.metrics();
    session::tally_window(tally, &churn, "traced churn window");
    let batches = churn
        .samples
        .iter()
        .filter(|s| s.kind == Kind::Write)
        .count() as f64;
    let fsyncs = (after.wal_fsyncs - before.wal_fsyncs) as f64;
    m.set(
        "write_p99_us",
        p99_or_tail(&churn.latencies(|k| k == Kind::Write)),
    );
    m.set("wal.fsyncs_per_batch", fsyncs / batches);

    // serve::index: an ANN query after a write retrains the dirtied
    // shard's index (a build) and reuses the others' (hits).
    session::retrain_dirty_indexes(ctx, served, tally);
    let clean = served.metrics();
    let after_write = session::ann_after_write(ctx, served, tally, Duration::ZERO);
    let indexed = served.metrics();
    let builds = (indexed.ivf_builds - clean.ivf_builds) as f64;
    let hits = (indexed.ivf_hits - clean.ivf_hits) as f64;
    eprintln!(
        "churn window: {batches} batches acknowledged, {fsyncs} fsyncs (the static windows \
         before it: {} fsyncs, {} index builds); {} ANN queries after a write: {builds} index \
         builds, {hits} index hits",
        before.wal_fsyncs - idle.wal_fsyncs,
        before.ivf_builds - idle.ivf_builds,
        after_write.len()
    );
    m.set("index.retrain_on_query_us", stats::median_of(after_write));
    m.set("index.ivf_builds", builds);
    m.set("index.ivf_hits", hits);
    m.set("index.hit_ratio", hits / (hits + builds));
    m.set("engine.coalesce_mean", after.coalesce.mean().unwrap_or(0.0));
    let covered = |lsn: Option<u64>| lsn.unwrap_or(0);
    let checkpoint_after = served
        .registry
        .latest_checkpoint_lsn()
        .expect("checkpoint lsn");
    m.set(
        "checkpoint.count",
        ((covered(checkpoint_after) - covered(checkpoint_before)) / w.checkpoint_every) as f64,
    );
    // Bytes handed to the storage layer per byte of WAL-encoded update.
    let mut gen = RequestGen::new(ctx.seed, 0, Mix::Churn, w.graph, w.classes, w.nprobe);
    let sample = update_batches(&mut gen, 64);
    let record_bytes: usize = sample
        .iter()
        .map(|b| wal::encode_record(&batch_record(b)).len())
        .sum();
    let user_bytes = batches * record_bytes as f64 / sample.len() as f64;
    m.set(
        "wal.bytes_per_user_byte",
        (storage_after - storage_before) as f64 / user_bytes,
    );
}

fn update_batches(gen: &mut RequestGen, count: usize) -> Vec<Vec<Update>> {
    (0..count).map(|_| gen.update_batch()).collect()
}

fn batch_record(updates: &[Update]) -> WalRecord {
    WalRecord::Batch {
        name: GRAPH.to_string(),
        updates: updates.to_vec(),
    }
}

/// Registry, WAL, checkpoint and replication, each alone, on the data
/// directory the churn window left behind; then the directory is closed
/// and scanned.
fn storage_layers(
    ctx: &Ctx,
    kernel: &Kernel,
    served: Served,
    m: &mut Metrics,
    tally: &mut Tally,
    rec: &mut Recorder,
) {
    let w = ctx.workload;
    let mut gen = RequestGen::new(ctx.seed, 60, Mix::Churn, w.graph, w.classes, w.nprobe);
    let batches = update_batches(&mut gen, APPLY_BATCHES);

    // serve::checkpoint: one on demand. Taken first, so that the log
    // tail scanned at the end holds the batches applied below.
    let save = timed(rec, "checkpoint.save", 1, || {
        served.registry.checkpoint_now().expect("checkpoint_now")
    });
    m.set("checkpoint.save_s", save);

    // Epoch-pinned reads, in process.
    let epoch = served.epoch();
    let n = w.graph.num_vertices() as u32;
    let mut vertex = 0u32;
    let pinned = timed(rec, "engine.pinned_row", PINNED_READS, || {
        vertex = (vertex + 7_919) % n;
        served
            .engine
            .execute(GRAPH, Request::embed_row(vertex).pinned(epoch))
            .expect("pinned read")
    });
    m.set("engine.pinned_row_us", pinned * 1e6);

    // The same batches through `Registry::apply_updates` with and
    // without the log; the difference is the wait for the shared fsync.
    let apply = |rec: &mut Recorder, name: &'static str, registry: &Registry| {
        let mut next = batches.iter();
        timed(rec, name, APPLY_BATCHES, || {
            registry
                .apply_updates(GRAPH, next.next().expect("one batch per call"))
                .expect("apply_updates")
        }) * 1e6
    };
    let durable_us = apply(rec, "registry.apply_durable", &served.registry);
    let in_memory = Registry::new(w.shards);
    in_memory
        .register(GRAPH, &kernel.input.edges, &kernel.input.labels)
        .expect("register in memory");
    let mem_us = apply(rec, "registry.apply_mem", &in_memory);
    drop(in_memory);
    m.set("registry.apply_durable_us", durable_us);
    m.set("registry.apply_mem_us", mem_us);
    m.set("registry.commit_wait_us", durable_us - mem_us);

    // `WalWriter` alone: an append without a sync, then a sync after
    // one append.
    let wal_dir = ctx.scratch.join("wal-probe");
    std::fs::create_dir_all(&wal_dir).expect("create wal probe directory");
    let scan = wal::scan(&wal_dir, 0).expect("scan an empty directory");
    let mut writer = WalWriter::open(&wal_dir, SyncPolicy::Never, &scan).expect("open wal");
    let records: Vec<WalRecord> = batches.iter().map(|b| batch_record(b)).collect();
    let mut next = records.iter().cycle();
    let append = timed(rec, "wal.append", WAL_APPENDS, || {
        writer.append(next.next().expect("cycle")).expect("append")
    });
    let sync = stats::median_of(
        (0..WAL_SYNCS as u64)
            .map(|i| {
                writer.append(next.next().expect("cycle")).expect("append");
                let span = rec.open("wal.sync", None, i);
                writer.sync().expect("sync");
                rec.close(span);
                rec.spans()[span as usize].duration_ns() as f64 / 1e9
            })
            .collect(),
    );
    drop(writer);
    m.set("wal.append_us", append * 1e6);
    m.set("wal.sync_us", sync * 1e6);

    // Replication: a fresh follower against this registry, until its
    // published epochs equal the leader's.
    m.set(
        "replicate.catchup_s",
        replica_catchup(ctx, &served.registry, tally, rec),
    );

    // Close the directory; read it back the way recovery does: the
    // newest checkpoint, then the log from the LSN it covers.
    let dir = served.shut_down();
    let (covered, path) = checkpoint::checkpoint_paths(&dir)
        .expect("list checkpoints")
        .pop()
        .expect("a checkpoint was taken");
    m.set(
        "checkpoint.bytes",
        std::fs::metadata(&path).expect("checkpoint file").len() as f64,
    );
    let load = timed(rec, "checkpoint.load", 1, || {
        checkpoint::load(&path).expect("load checkpoint")
    });
    m.set("checkpoint.load_s", load);
    m.set(
        "wal.scan_s",
        timed(rec, "wal.scan", 1, || {
            wal::scan(&dir, covered).expect("scan")
        }),
    );
}

fn replica_catchup(
    ctx: &Ctx,
    leader: &Arc<Registry>,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> f64 {
    let listener = ReplicationListener::listen(leader.clone(), "127.0.0.1:0").expect("listen");
    let dir = ctx.scratch.join("follower");
    let wanted = leader.published_epochs();
    let span = rec.open("replicate.catchup", None, 0);
    let t = Instant::now();
    let follower = Follower::start(
        session::registry_config(ctx.workload, &dir),
        listener.addr().to_string(),
    )
    .expect("start follower");
    while follower.registry().published_epochs() != wanted && t.elapsed() < CATCHUP_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let secs = t.elapsed().as_secs_f64();
    rec.close(span);
    let caught_up = follower.registry().published_epochs() == wanted;
    tally.check(caught_up, || {
        format!("the follower did not reach {wanted:?} in {CATCHUP_TIMEOUT:?}")
    });
    if caught_up {
        let vertices = &session::recovery_vertices(ctx)[..REPLICA_ROWS];
        let leader_rows = session::rows_of(leader, vertices);
        session::check_rows(
            tally,
            &leader_rows,
            follower.registry(),
            vertices,
            "replica",
        );
    }
    follower.shutdown();
    listener.shutdown();
    secs
}
