//! The pieces both runs are built from: set-up (inputs, CSR, a durable
//! registry behind a TCP server, warm clients), the kernel window, the
//! closed-loop serve windows, the output checks and recovery.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gee_core::Embedding;
use gee_graph::CsrGraph;
use gee_ligra::AtomicsMode;
use gee_serve::codec::encode_server_frame;
use gee_serve::{
    BackpressurePolicy, Client, Durability, Engine, HistoryPolicy, MetricsReport, Registry,
    RegistryConfig, Request, Response, SearchPolicy, Server, ServerFrame, ServerHandle, SyncPolicy,
    Update,
};

use crate::gen::{self, Input};
use crate::requests::{Kind, Mix, RequestGen, BATCH_UPDATES, SIMILAR_TOP};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::sysinfo::SysInfo;
use crate::workloads::Workload;

/// Name the graph is registered under.
pub const GRAPH: &str = "g";

/// Epochs each graph retains: enough for a read pinned to the newest
/// epoch any client has seen acknowledged, with the other clients
/// writing between the pin being chosen and the read being served.
const HISTORY_KEEP: usize = 8;
/// Requests each client sends before any window is timed.
const WARM_REQUESTS: usize = 200;
/// Kernel calls made before the kernel window is timed.
const WARM_CALLS: usize = 2;
/// Replies kept per client for the comparison with in-process execution.
pub const KEPT_REPLIES_PER_CLIENT: usize = 250;
pub const RECALL_QUERIES: usize = 200;
pub const RECOVERY_ROWS: usize = 1_000;
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// Everything one run is given.
pub struct Ctx {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub sys: SysInfo,
    /// Times the untraced run sets up and recovers, reporting medians: 3,
    /// or 1 under `--quick`.
    pub repeats: usize,
    /// `benchmark/out/<workload>-<pid>`: data directories and nothing
    /// else; removed when the run ends.
    pub scratch: PathBuf,
}

/// Operations attempted and failed, output checks included.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// One output check; a failed check counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// The kernel's inputs.
pub struct Kernel {
    pub input: Input,
    pub csr: CsrGraph,
}

/// A registry behind a loopback TCP server with one connected client
/// per core.
pub struct Served {
    pub registry: Arc<Registry>,
    pub engine: Arc<Engine>,
    pub server: ServerHandle,
    pub clients: Vec<Client>,
    pub dir: PathBuf,
}

/// Where set-up time went, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub csr_build: f64,
    pub register: f64,
    pub index_build: f64,
}

impl std::fmt::Display for SetupTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} s (generate {:.3}, CSR {:.3}, register {:.3}, index {:.3}, \
             the rest boot and warm-up)",
            self.total, self.generate, self.csr_build, self.register, self.index_build
        )
    }
}

/// The inputs' fingerprint, on standard error: two runs that print the
/// same line measured the same graph and sent the same requests.
pub fn describe_input(ctx: &Ctx, input: &Input) {
    let w = ctx.workload;
    let stream = |mix| {
        let mut gen = RequestGen::new(ctx.seed, 0, mix, w.graph, w.classes, w.nprobe);
        crate::requests::stream_fingerprint(&mut gen, 1_000)
    };
    eprintln!(
        "input: {} vertices, {} directed edges, K = {}, {} labelled; edges fnv {:016x}; \
         first 1000 requests of client 0: static fnv {:016x}, churn fnv {:016x}",
        input.edges.num_vertices(),
        input.edges.num_edges(),
        w.classes,
        input.labels.num_labeled(),
        gen::edge_fingerprint(&input.edges),
        stream(Mix::Static),
        stream(Mix::Churn)
    );
}

pub fn registry_config(w: &Workload, dir: &Path) -> RegistryConfig {
    RegistryConfig {
        default_shards: w.shards,
        history: HistoryPolicy::keep(HISTORY_KEEP),
        backpressure: BackpressurePolicy::unbounded(),
        durability: Durability::Wal {
            dir: dir.to_path_buf(),
            sync: SyncPolicy::group(),
            checkpoint_every: w.checkpoint_every,
        },
        search: SearchPolicy::Exact,
    }
}

/// Generate the inputs, build the CSR, register the graph in a fresh
/// durable registry under `dir`, boot the server, build every shard's
/// ANN index, connect one client per core and send each client's
/// warm-up requests.
pub fn set_up(ctx: &Ctx, dir: &Path) -> (Kernel, Served, SetupTimes) {
    let w = ctx.workload;
    let start = Instant::now();
    let input = gen::generate(&w.graph, w.classes, ctx.seed);
    let generate = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let csr = CsrGraph::from_edge_list(&input.edges);
    let csr_build = t.elapsed().as_secs_f64();

    std::fs::create_dir_all(dir).expect("create data directory");
    let registry = Arc::new(Registry::with_config(registry_config(w, dir)).expect("open registry"));
    let t = Instant::now();
    let snapshot = registry
        .register(GRAPH, &input.edges, &input.labels)
        .expect("register graph");
    let register = t.elapsed().as_secs_f64();
    let t = Instant::now();
    snapshot.warm_ann_indexes();
    let index_build = t.elapsed().as_secs_f64();

    let engine = Arc::new(Engine::new(registry.clone()));
    let server = Server::listen_with(engine.clone(), "127.0.0.1:0", None, ctx.sys.nproc)
        .expect("bind loopback");
    let mut clients: Vec<Client> = (0..ctx.sys.nproc)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    std::thread::scope(|scope| {
        for (i, client) in clients.iter_mut().enumerate() {
            scope.spawn(move || {
                // Warm-up draws from lanes of its own, so the windows'
                // streams start at their first request.
                let lane = 1_000 + i as u64;
                let mut warm =
                    RequestGen::new(ctx.seed, lane, Mix::Static, w.graph, w.classes, w.nprobe);
                for _ in 0..WARM_REQUESTS {
                    let (_, request) = warm.next_request();
                    client.execute(GRAPH, request).expect("warm-up request");
                }
            });
        }
    });
    let times = SetupTimes {
        total: start.elapsed().as_secs_f64(),
        generate,
        csr_build,
        register,
        index_build,
    };
    let served = Served {
        registry,
        engine,
        server,
        clients,
        dir: dir.to_path_buf(),
    };
    (Kernel { input, csr }, served, times)
}

impl Served {
    /// Close the clients, stop the server and release the registry (and
    /// with it the data directory's lock). Returns the directory.
    pub fn shut_down(self) -> PathBuf {
        for client in self.clients {
            client.goodbye().expect("goodbye");
        }
        self.server.shutdown();
        drop(self.engine);
        let registry = Arc::try_unwrap(self.registry)
            .unwrap_or_else(|_| panic!("the registry is still shared after shutdown"));
        drop(registry);
        self.dir
    }

    pub fn metrics(&self) -> MetricsReport {
        self.engine.metrics(GRAPH).expect("metrics")
    }

    pub fn epoch(&self) -> u64 {
        self.registry.snapshot(GRAPH).expect("snapshot").epoch
    }
}

/// Seconds per `ligra::embed` call, made back to back at `threads`
/// threads for `duration`, and the last result.
pub fn kernel_window(kernel: &Kernel, threads: usize, duration: Duration) -> (Vec<f64>, Embedding) {
    let labels = &kernel.input.labels;
    gee_ligra::with_threads(threads, || {
        let call = || gee_core::ligra::embed(&kernel.csr, labels, AtomicsMode::Atomic);
        for _ in 0..WARM_CALLS {
            std::hint::black_box(call());
        }
        let mut secs = Vec::new();
        let deadline = Instant::now() + duration;
        loop {
            let t = Instant::now();
            let z = std::hint::black_box(call());
            secs.push(t.elapsed().as_secs_f64());
            if Instant::now() >= deadline {
                return (secs, z);
            }
        }
    })
}

/// The parallel kernel against the serial reference, and the mass the
/// update rule conserves. Returns the largest error relative to the
/// largest entry.
pub fn check_kernel(tally: &mut Tally, z: &Embedding, input: &Input) -> f64 {
    let reference = gee_core::serial_reference::embed(&input.edges, &input.labels);
    let scale = reference
        .as_slice()
        .iter()
        .fold(1.0f64, |m, x| m.max(x.abs()));
    let rel_err = reference.max_abs_diff(z) / scale;
    tally.check(rel_err <= REFERENCE_TOLERANCE, || {
        format!("ligra::embed differs from serial_reference by {rel_err:e} (relative)")
    });
    let report = gee_core::diagnostics::check(z, &input.edges, &input.labels);
    tally.check(
        report.all_finite && report.mass_relative_error <= REFERENCE_TOLERANCE,
        || format!("mass invariant broken: {report:?}"),
    );
    rel_err
}

/// One completed request as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Connection the request went over.
    pub client: usize,
    pub micros: f64,
    /// Epoch a write's acknowledgement named.
    pub acked_epoch: Option<u64>,
}

#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub errors: Vec<String>,
    /// Seconds from the common start to the last client's last reply.
    pub elapsed: f64,
    /// The first replies of each client, with their requests.
    pub kept: Vec<(Request, Response)>,
}

impl Window {
    fn sorted_micros(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        crate::stats::sorted(
            self.samples
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.micros)
                .collect(),
        )
    }

    /// Ascending latencies, microseconds, of the kinds `keep` accepts.
    pub fn latencies(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.sorted_micros(|s| keep(s.kind))
    }

    /// Median latency, microseconds, of the kinds `keep` accepts: the
    /// median of each connection's requests, averaged over connections.
    /// Which core a connection's worker lands on shifts all of its
    /// latencies together, so where the clients cannot be pinned the
    /// pooled median jumps between two levels from run to run; the mean
    /// of per-connection medians moves smoothly between them.
    pub fn p50(&self, keep: impl Fn(Kind) -> bool) -> f64 {
        let clients = self.samples.iter().map(|s| s.client + 1).max().unwrap_or(0);
        let medians: Vec<f64> = (0..clients)
            .map(|c| self.sorted_micros(|s| s.client == c && keep(s.kind)))
            .filter(|sorted| !sorted.is_empty())
            .map(|sorted| crate::stats::median(&sorted))
            .collect();
        assert!(
            !medians.is_empty(),
            "no request of the wanted kind completed"
        );
        medians.iter().sum::<f64>() / medians.len() as f64
    }

    pub fn per_second(&self, keep: impl Fn(Kind) -> bool) -> f64 {
        self.samples.iter().filter(|s| keep(s.kind)).count() as f64 / self.elapsed
    }
}

/// Drive the server closed loop for `duration`: every client sends its
/// next request when the previous reply has arrived. With `trace`, each
/// request is also recorded as a span.
pub fn serve_window(
    ctx: &Ctx,
    served: &mut Served,
    mix: Mix,
    duration: Duration,
    trace: Option<&mut Recorder>,
) -> Window {
    let w = ctx.workload;
    // The newest epoch any client has seen acknowledged: what a pinned
    // read pins to.
    let newest_acked = AtomicU64::new(served.epoch());
    let barrier = Barrier::new(served.clients.len());
    let origin = Instant::now();
    let tracing = trace.is_some();
    let parts: Vec<(Window, Recorder, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, newest_acked) = (&barrier, &newest_acked);
                scope.spawn(move || {
                    let mut gen =
                        RequestGen::new(ctx.seed, i as u64, mix, w.graph, w.classes, w.nprobe);
                    let mut part = Window::default();
                    let mut recorder = Recorder::new(origin);
                    let mut sent = 0u64;
                    // One client per core, and on it: left to the scheduler,
                    // a connection's client and worker settle on one core
                    // in some runs and on two in others, and every latency
                    // of the window moves by half with the outcome.
                    crate::sysinfo::pin_current_thread(i);
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + duration;
                    while Instant::now() < deadline {
                        let (kind, mut request) = gen.next_request();
                        if kind == Kind::PinnedRow {
                            request = request.pinned(newest_acked.load(Ordering::SeqCst));
                        }
                        let keep = kind != Kind::Stats
                            && kind != Kind::Write
                            && part.kept.len() < KEPT_REPLIES_PER_CLIENT;
                        let copy = keep.then(|| request.clone());
                        let span = tracing.then(|| {
                            recorder.open(kind.span_name(), None, (i as u64) << 32 | sent)
                        });
                        let t = Instant::now();
                        let reply = client.execute(GRAPH, request);
                        let micros = t.elapsed().as_secs_f64() * 1e6;
                        if let Some(span) = span {
                            recorder.close(span);
                        }
                        sent += 1;
                        match reply {
                            Ok(response) => {
                                let acked_epoch = match response {
                                    Response::Applied { epoch, .. } => Some(epoch),
                                    _ => None,
                                };
                                if let Some(epoch) = acked_epoch {
                                    newest_acked.fetch_max(epoch, Ordering::SeqCst);
                                }
                                part.samples.push(Sample {
                                    kind,
                                    client: i,
                                    micros,
                                    acked_epoch,
                                });
                                if let Some(request) = copy {
                                    part.kept.push((request, response));
                                }
                            }
                            Err(e) => part.errors.push(format!("{kind:?}: {e}")),
                        }
                    }
                    (part, recorder, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window = Window::default();
    let mut spans = trace;
    for (part, recorder, elapsed) in parts {
        window.samples.extend(part.samples);
        window.errors.extend(part.errors);
        window.kept.extend(part.kept);
        window.elapsed = window.elapsed.max(elapsed);
        if let Some(spans) = spans.as_deref_mut() {
            spans.absorb(recorder);
        }
    }
    window
}

/// Count a window's requests and report its errors.
pub fn tally_window(tally: &mut Tally, window: &Window, label: &str) {
    let failed = window.errors.len() as u64;
    tally.ops(window.samples.len() as u64 + failed, failed);
    if let Some(first) = window.errors.first() {
        tally.problems.push(format!(
            "{label}: {failed} request(s) failed, first: {first}"
        ));
    }
}

/// Replies that crossed TCP against the same requests executed in
/// process on the same (static) snapshot: the encoded frames must be
/// equal byte for byte.
pub fn check_replies(tally: &mut Tally, engine: &Engine, kept: &[(Request, Response)]) {
    let frame = |response: Response| {
        encode_server_frame(&ServerFrame::Batch {
            id: 0,
            results: vec![Ok(response)],
        })
    };
    let mismatches = kept
        .iter()
        .filter(|(request, over_tcp)| {
            engine
                .execute(GRAPH, request.clone())
                .map_or(true, |local| frame(local) != frame(over_tcp.clone()))
        })
        .count();
    tally.ops(kept.len() as u64, mismatches as u64);
    if mismatches > 0 {
        tally.problems.push(format!(
            "{mismatches} of {} TCP replies differ from in-process execution",
            kept.len()
        ));
    }
}

/// Mean recall@10 of the ANN path against the exact scan over seeded
/// query vertices. A returned neighbour counts when it is no farther
/// than the exact tenth: rows with no labelled neighbour are identical,
/// and among equidistant vertices which ten are "the" nearest is an
/// accident of vertex ids, not a property of the index.
pub fn ann_recall(ctx: &Ctx, engine: &Engine) -> f64 {
    let w = ctx.workload;
    let mut rng = Rng::new(ctx.seed, 3);
    let n = w.graph.num_vertices() as u64;
    let neighbours = |request: Request| match engine.execute(GRAPH, request) {
        Ok(Response::Neighbors(pairs)) => pairs,
        other => panic!("Similar answered {other:?}"),
    };
    let mut found = 0usize;
    for _ in 0..RECALL_QUERIES {
        let v = rng.below(n) as u32;
        let exact = neighbours(Request::similar(v, SIMILAR_TOP));
        let approx =
            neighbours(Request::similar(v, SIMILAR_TOP).with_search(SearchPolicy::ann(w.nprobe)));
        let reach = exact.last().map_or(0.0, |&(_, distance)| distance);
        found += approx
            .iter()
            .filter(|&&(_, distance)| distance <= reach)
            .count();
    }
    found as f64 / (RECALL_QUERIES * SIMILAR_TOP) as f64
}

/// One untimed ANN query: it retrains the index of every shard the
/// writes so far have dirtied.
pub fn retrain_dirty_indexes(ctx: &Ctx, served: &mut Served, tally: &mut Tally) {
    let query =
        Request::similar(0, SIMILAR_TOP).with_search(SearchPolicy::ann(ctx.workload.nprobe));
    tally.ops(
        1,
        u64::from(served.clients[0].execute(GRAPH, query).is_err()),
    );
}

/// Call `f` at least `min` times, and on, up to `max` times, until
/// `budget` has passed: where a call is cheap, more of them steady the
/// median of what they return.
pub fn repeat_for(
    min: usize,
    max: usize,
    budget: Duration,
    mut f: impl FnMut() -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        out.push(f());
    }
    out
}

/// Microseconds a client waits for an ANN `Similar` sent right after
/// its own update batch was acknowledged: the query pays for retraining
/// the index of the shard the batch dirtied. Every batch falls inside
/// one shard, so every query retrains exactly one. At least fifteen
/// pairs are sent, and more while `budget` lasts.
pub fn ann_after_write(
    ctx: &Ctx,
    served: &mut Served,
    tally: &mut Tally,
    budget: Duration,
) -> Vec<f64> {
    const MIN_PAIRS: usize = 15;
    const MAX_PAIRS: usize = 201;
    let w = ctx.workload;
    let n = w.graph.num_vertices() as u64;
    let shard_rows = n.div_ceil(w.shards as u64);
    let span = (shard_rows / 8).max(1);
    let mut rng = Rng::new(ctx.seed, 5);
    let client = &mut served.clients[0];
    repeat_for(MIN_PAIRS, MAX_PAIRS, budget, || {
        let first = rng.below(w.shards as u64) * shard_rows;
        let mut inside = || (first + rng.below(span)) as u32;
        let updates = (0..BATCH_UPDATES)
            .map(|_| Update::InsertEdge {
                u: inside(),
                v: inside(),
                w: 1.0,
            })
            .collect();
        let query =
            Request::similar(inside(), SIMILAR_TOP).with_search(SearchPolicy::ann(w.nprobe));
        let wrote = client.execute(GRAPH, Request::ApplyUpdates { updates });
        let t = Instant::now();
        let answered = client.execute(GRAPH, query);
        let micros = t.elapsed().as_secs_f64() * 1e6;
        tally.ops(2, u64::from(wrote.is_err()) + u64::from(answered.is_err()));
        micros
    })
}

/// Take a checkpoint, then apply `batches` more update batches in
/// process: recovery then loads one checkpoint and replays a log tail of
/// known length, whatever the churn window left behind.
pub fn fix_recovery_work(ctx: &Ctx, served: &Served, tally: &mut Tally, batches: usize) {
    let w = ctx.workload;
    served.registry.checkpoint_now().expect("checkpoint_now");
    let mut gen = RequestGen::new(ctx.seed, 80, Mix::Churn, w.graph, w.classes, w.nprobe);
    for _ in 0..batches {
        let applied = served.registry.apply_updates(GRAPH, &gen.update_batch());
        tally.ops(1, u64::from(applied.is_err()));
    }
}

/// Seeded vertices whose rows are compared across a restart.
pub fn recovery_vertices(ctx: &Ctx) -> Vec<u32> {
    let mut rng = Rng::new(ctx.seed, 4);
    let n = ctx.workload.graph.num_vertices() as u64;
    (0..RECOVERY_ROWS).map(|_| rng.below(n) as u32).collect()
}

pub fn rows_of(registry: &Registry, vertices: &[u32]) -> Vec<Vec<u64>> {
    let snapshot = registry.snapshot(GRAPH).expect("snapshot");
    vertices
        .iter()
        .map(|&v| snapshot.row(v).iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `registry`'s rows of `vertices` against `expected`, bit for bit.
pub fn check_rows(
    tally: &mut Tally,
    expected: &[Vec<u64>],
    registry: &Registry,
    vertices: &[u32],
    whose: &str,
) {
    let got = rows_of(registry, vertices);
    let differing = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
    tally.ops(vertices.len() as u64, differing as u64);
    if differing > 0 {
        tally.problems.push(format!(
            "{differing} {whose} rows differ from the live registry's"
        ));
    }
}

/// Open the used data directory again and answer one read; seconds.
/// The recovered registry is handed to `inspect` before it is dropped.
pub fn recover(ctx: &Ctx, dir: &Path, inspect: impl FnOnce(&Arc<Registry>)) -> f64 {
    let t = Instant::now();
    let registry =
        Arc::new(Registry::with_config(registry_config(ctx.workload, dir)).expect("recover"));
    let engine = Engine::new(registry.clone());
    engine
        .embed_row(GRAPH, 0)
        .expect("first read after recovery");
    let secs = t.elapsed().as_secs_f64();
    inspect(&registry);
    secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(client: usize, kind: Kind, micros: f64) -> Sample {
        Sample {
            kind,
            client,
            micros,
            acked_epoch: None,
        }
    }

    #[test]
    fn p50_is_the_mean_of_per_connection_medians() {
        let window = Window {
            samples: vec![
                sample(0, Kind::EmbedRow, 10.0),
                sample(0, Kind::EmbedRow, 12.0),
                sample(0, Kind::EmbedRow, 50.0),
                sample(1, Kind::EmbedRow, 30.0),
                sample(1, Kind::Classify, 900.0),
                sample(0, Kind::Classify, 700.0),
            ],
            elapsed: 2.0,
            ..Window::default()
        };
        // Connection 0's median is 12, connection 1's is 30.
        assert_eq!(window.p50(|k| k == Kind::EmbedRow), 21.0);
        assert_eq!(
            window.latencies(|k| k == Kind::Classify),
            vec![700.0, 900.0]
        );
        assert_eq!(window.per_second(Kind::is_plain_read), 3.0);
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_operation() {
        let mut tally = Tally::default();
        tally.ops(10, 0);
        tally.check(true, || unreachable!());
        tally.check(false, || "broken".to_string());
        assert_eq!((tally.attempted, tally.failed), (12, 1));
        assert_eq!(tally.problems, vec!["broken".to_string()]);
    }
}
