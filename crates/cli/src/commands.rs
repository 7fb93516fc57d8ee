//! Subcommand dispatch and implementations.

use std::fmt::Write as _;
use std::path::Path;

use gee_community::{leiden, louvain, modularity, LeidenOptions, LouvainOptions, Partition};
use gee_core::{AtomicsMode, Labels};
use gee_gen::{LabelSpec, RmatParams, SbmParams};
use gee_graph::{stats::graph_stats, CsrGraph};

use crate::flags::Flags;
use crate::formats::{read_graph, write_graph};
use crate::CliError;

const USAGE: &str = "\
gee — Edge-Parallel Graph Encoder Embedding toolkit

subcommands:
  generate     --kind <rmat|er|sbm|pa|ws|powerlaw> --out <file> [--edges N] [--vertices N]
               [--scale S] [--blocks B] [--p-in X] [--p-out X] [--lattice-k K] [--beta B]
               [--alpha A] [--seed S] [--symmetrize true]
  stats        <file>
  embed        --graph <file> --out <csv> [--k K=50] [--labeled F=0.1]
               [--impl ligra|ligra-serial|optimized|reference|deterministic] [--threads T] [--seed S]
  communities  --graph <file> [--algo leiden|louvain] [--gamma G=1.0]
  analyze      --graph <file> --algo <cc|pagerank|kcore|sssp|bfs|triangles|
                                       matching|dominating-set|densest> [--source V=0]
  serve        --graph <file> (--script <file> | --listen ADDR) [--k K=50] [--labeled F=0.1]
               [--shards S=4] [--seed S=42] [--history N=1] [--max-pending N]
               [--index exact|ivf] [--nprobe N=8] [--refine R=8]
               script lines: classify v1,v2,.. [k] | similar v [top] | row v |
                             insert u v w | remove u v w | label v <class|none> | stats
               --listen serves the wire protocol over TCP (graph name \"g\");
               [--max-conns N] stop after N connections, [--port-file F] write bound addr to F
               --history N retains the N newest epochs for --at-epoch reads;
               --max-pending N rejects update batches beyond N in flight (code 14)
               --index ivf answers Similar/Classify from per-shard IVF indexes
               (approximate; probe --nprobe lists, pool >= --refine x top);
               small shards and oversized top/k fall back to the exact scan
               durability: [--data-dir DIR [--sync always|never|group] [--checkpoint-every N=64]]
               --workers N sizes the connection worker pool (default: CPU count)
               recovers graph \"g\" from DIR if present (then --graph is optional);
               every update batch is WAL-logged and survives restart
               replication: --replicate ADDR ships the WAL to followers
               ([--replicate-port-file F] writes the bound address; needs --data-dir);
               --follow LEADER --data-dir DIR --listen ADDR trails a leader as a
               read-only replica: reads (incl. --at-epoch pins) serve locally,
               writes fail with code 15 ReadOnlyReplica, lag shows in stats/metrics;
               --promote-file PATH arms in-process failover: when PATH appears
               the replica promotes itself to leader (new fenced epoch, writes
               start passing; with --replicate ADDR it also ships its WAL)
  promote      --data-dir DIR [--shards S=4] [--replicate ADDR [--replicate-port-file F]]
               promote a stopped follower's data dir to leader: durably bump the
               leader epoch (fencing token — the deposed leader gets code 16
               StaleLeader everywhere), report the new epoch; with --replicate
               keep running and ship the WAL so surviving followers re-point
  query        --graph <file> (--classify v1,v2,.. | --similar V | --row V |
                               --stats true | --metrics true)
               [--k K=5] [--top T=10] [--classes K=50] [--labeled F=0.1]
               [--shards S=4] [--seed S=42] [--at-epoch E] [--history N=1]
               [--index exact|ivf] [--nprobe N=8] [--refine R=8] [--exact true]
               or query a running server: --connect ADDR [--name g] instead of --graph
               --at-epoch E pins the read to retained epoch E (error 13 if evicted)
               --nprobe/--exact override the server's search policy per request:
               --nprobe N asks for IVF approximate search, --exact true is the
               escape hatch forcing the exact scan (works over --connect too)
               --timing true prints the client-measured round-trip in µs on
               stderr (with --connect)
  bench        --connect ADDR [--name g] [--mix read=90,write=5,timetravel=3,ann=2]
               [--clients N=2] [--duration S=5] [--requests N] [--qps Q] [--seed S=42]
               [--poll-metrics MS=500] [--csv FILE] [--json FILE]
               multi-client load generator over the wire protocol: draws request
               types from the weighted --mix with a seeded RNG, one CSV row per
               request; --requests N issues exactly N per client (deterministic);
               --qps Q paces an open loop at Q req/s total instead of closed loop;
               --poll-metrics MS samples the server's Metrics endpoint
               every MS ms (0 disables), interleaving `server` rows into the CSV;
               --csv writes the per-request rows, --json a gee-bench-v1 report
               (servers should run with --history deep enough for timetravel pins)
  bench-report [--in FILE] [--bench NAME=serve_loadgen] [--json FILE]
               streaming CSV→JSON analytics filter: read bench CSV rows from
               stdin (or --in), emit the BENCH report on stdout (or --json)
  recover      --data-dir DIR [--shards S=4] [--checkpoint true]
               recover a durable serving directory (checkpoint + WAL replay), report
               each graph's epoch/size plus the WAL high-water LSN, latest
               checkpoint LSN and stored leader epoch, optionally force a
               compacting checkpoint
  convert      <in-file> <out-file>

formats by extension: .txt/.el/.edgelist (text), .snap, .mtx, .csr (binary), .edges (stream)
";

/// Run the CLI, returning the text to print.
pub fn run(args: &[String]) -> crate::Result<String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "generate" => generate(&flags),
        "stats" => stats(&flags),
        "embed" => embed(&flags),
        "communities" => communities(&flags),
        "analyze" => analyze(&flags),
        "serve" => serve(&flags),
        "query" => query(&flags),
        "bench" => bench(&flags),
        "bench-report" => bench_report(&flags),
        "recover" => recover(&flags),
        "promote" => promote(&flags),
        "convert" => convert(&flags),
        "help" | "--help" | "-h" => Ok(USAGE.into()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n\n{USAGE}"
        ))),
    }
}

fn generate(flags: &Flags) -> crate::Result<String> {
    let kind = flags.get("kind").unwrap_or("rmat");
    let out = flags.require("out")?.to_string();
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let symmetrize: bool = flags.get_parsed("symmetrize", false)?;
    let el = match kind {
        "rmat" => {
            let scale: u32 = flags.get_parsed("scale", 16)?;
            let edges: usize = flags.get_parsed("edges", 1usize << 20)?;
            gee_gen::rmat(scale, edges, RmatParams::default(), seed)
        }
        "er" => {
            let vertices: usize = flags.get_parsed("vertices", 1usize << 16)?;
            let edges: usize = flags.get_parsed("edges", 1usize << 20)?;
            gee_gen::erdos_renyi_gnm(vertices, edges, seed)
        }
        "sbm" => {
            let blocks: usize = flags.get_parsed("blocks", 4)?;
            let vertices: usize = flags.get_parsed("vertices", 4000)?;
            let p_in: f64 = flags.get_parsed("p-in", 0.1)?;
            let p_out: f64 = flags.get_parsed("p-out", 0.005)?;
            gee_gen::sbm(
                &SbmParams::balanced(blocks, vertices / blocks.max(1), p_in, p_out),
                seed,
            )
            .edges
        }
        "pa" => {
            let vertices: usize = flags.get_parsed("vertices", 100_000)?;
            let m: usize = flags.get_parsed("edges-per-vertex", 4)?;
            gee_gen::preferential_attachment(vertices, m, seed)
        }
        "ws" => {
            let vertices: usize = flags.get_parsed("vertices", 1usize << 16)?;
            let lattice_k: usize = flags.get_parsed("lattice-k", 8)?;
            let beta: f64 = flags.get_parsed("beta", 0.1)?;
            gee_gen::watts_strogatz(
                gee_gen::WsParams {
                    n: vertices,
                    k: lattice_k,
                    beta,
                },
                seed,
            )
        }
        "powerlaw" => {
            let vertices: usize = flags.get_parsed("vertices", 1usize << 16)?;
            let alpha: f64 = flags.get_parsed("alpha", 2.3)?;
            let d_max: usize = flags.get_parsed("d-max", vertices / 10)?;
            let degrees = gee_gen::power_law_degrees(vertices, alpha, 1, d_max.max(1), seed);
            gee_gen::config_model(&degrees, seed)
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --kind {other:?} (rmat|er|sbm|pa|ws|powerlaw)"
            )))
        }
    };
    let el = if symmetrize { el.symmetrized() } else { el };
    write_graph(Path::new(&out), &el)?;
    Ok(format!(
        "wrote {}: {} vertices, {} edges ({kind}, seed {seed})\n",
        out,
        el.num_vertices(),
        el.num_edges()
    ))
}

fn stats(flags: &Flags) -> crate::Result<String> {
    let path = flags
        .positional(0)
        .ok_or_else(|| CliError::Usage("stats: need a graph file argument".into()))?;
    let el = read_graph(Path::new(path))?;
    let g = CsrGraph::from_edge_list(&el);
    let s = graph_stats(&g);
    let hist = gee_graph::stats::degree_histogram(&g);
    let mut out = String::new();
    writeln!(out, "{path}").unwrap();
    writeln!(out, "  vertices      : {}", s.num_vertices).unwrap();
    writeln!(out, "  edges         : {}", s.num_edges).unwrap();
    writeln!(
        out,
        "  degree        : min {} / avg {:.2} / max {}",
        s.min_degree, s.avg_degree, s.max_degree
    )
    .unwrap();
    writeln!(out, "  isolated      : {}", s.isolated).unwrap();
    writeln!(out, "  self-loops    : {}", s.self_loops).unwrap();
    writeln!(out, "  weighted      : {}", g.is_weighted()).unwrap();
    writeln!(out, "  degree histogram (power-of-two buckets):").unwrap();
    for (i, &c) in hist.iter().enumerate() {
        if c > 0 {
            // Bucket 0 additionally holds degree-0 vertices.
            let lo = if i == 0 { 0 } else { 1usize << i };
            writeln!(out, "    [{:>8}..{:>8}) {:>10}", lo, 1usize << (i + 1), c).unwrap();
        }
    }
    Ok(out)
}

fn embed(flags: &Flags) -> crate::Result<String> {
    let graph_path = flags.require("graph")?.to_string();
    let out_path = flags.require("out")?.to_string();
    let k: usize = flags.get_parsed("k", 50)?;
    let labeled: f64 = flags.get_parsed("labeled", 0.1)?;
    let threads: usize = flags.get_parsed("threads", 0)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let which = flags.get("impl").unwrap_or("ligra");
    let el = read_graph(Path::new(&graph_path))?;
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            el.num_vertices(),
            LabelSpec {
                num_classes: k,
                labeled_fraction: labeled,
            },
            seed,
        ),
        k,
    );
    let t0 = std::time::Instant::now();
    let z = match which {
        "reference" => gee_core::serial_reference::embed(&el, &labels),
        "optimized" => gee_core::serial_optimized::embed(&el, &labels),
        "ligra-serial" => {
            let g = CsrGraph::from_edge_list(&el);
            gee_ligra::with_threads(1, || {
                gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic)
            })
        }
        "ligra" => {
            let g = CsrGraph::from_edge_list(&el);
            gee_ligra::with_threads(threads, || {
                gee_core::ligra::embed(&g, &labels, AtomicsMode::Atomic)
            })
        }
        "deterministic" => gee_ligra::with_threads(threads, || {
            let mut z = gee_core::kernels::embed_binned(el.num_vertices(), el.edges(), &[&labels]);
            z.pop().unwrap()
        }),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --impl {other:?} (reference|optimized|ligra-serial|ligra|deterministic)"
            )))
        }
    };
    let dt = t0.elapsed();
    gee_core::diagnostics::assert_healthy(&z, &el, &labels, 1e-6);
    // CSV: vertex, k columns.
    let mut csv = String::with_capacity(z.num_vertices() * z.dim() * 8);
    for v in 0..z.num_vertices() as u32 {
        csv.push_str(&v.to_string());
        for x in z.row(v) {
            write!(csv, ",{x}").unwrap();
        }
        csv.push('\n');
    }
    std::fs::write(&out_path, csv)?;
    Ok(format!(
        "embedded {} ({} vertices, {} edges) with {which} in {dt:.2?}; Z is {}×{} → {}\n",
        graph_path,
        el.num_vertices(),
        el.num_edges(),
        z.num_vertices(),
        z.dim(),
        out_path
    ))
}

fn communities(flags: &Flags) -> crate::Result<String> {
    let graph_path = flags.require("graph")?.to_string();
    let algo = flags.get("algo").unwrap_or("leiden");
    let gamma: f64 = flags.get_parsed("gamma", 1.0)?;
    let el = read_graph(Path::new(&graph_path))?.symmetrized();
    let g = CsrGraph::from_edge_list(&el);
    let t0 = std::time::Instant::now();
    let p: Partition = match algo {
        "louvain" => louvain(
            &g,
            LouvainOptions {
                gamma,
                ..Default::default()
            },
        ),
        "leiden" => leiden(
            &g,
            LeidenOptions {
                gamma,
                ..Default::default()
            },
        ),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --algo {other:?} (louvain|leiden)"
            )))
        }
    };
    let dt = t0.elapsed();
    let q = modularity(&g, &p, gamma);
    let mut sizes = p.community_sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = String::new();
    writeln!(
        out,
        "{algo} on {graph_path} (γ = {gamma}): {} communities, modularity {q:.4}, {dt:.2?}",
        p.num_communities()
    )
    .unwrap();
    writeln!(
        out,
        "largest communities: {:?}",
        &sizes[..sizes.len().min(10)]
    )
    .unwrap();
    if let Some(out_path) = flags.get("out") {
        let mut csv = String::new();
        for (v, &c) in p.membership().iter().enumerate() {
            writeln!(csv, "{v},{c}").unwrap();
        }
        std::fs::write(out_path, csv)?;
        writeln!(out, "membership written to {out_path}").unwrap();
    }
    Ok(out)
}

fn analyze(flags: &Flags) -> crate::Result<String> {
    let graph_path = flags.require("graph")?.to_string();
    let algo = flags.require("algo")?.to_string();
    let source: u32 = flags.get_parsed("source", 0u32)?;
    // The engine algorithms assume symmetric inputs where noted; analyze
    // symmetrizes uniformly so every algorithm sees the undirected graph.
    let el = read_graph(Path::new(&graph_path))?.symmetrized();
    let g = CsrGraph::from_edge_list(&el);
    let t0 = std::time::Instant::now();
    let mut out = String::new();
    match algo.as_str() {
        "cc" => {
            let comp = gee_algos::connected_components(&g);
            let mut roots: Vec<u32> = comp.clone();
            roots.sort_unstable();
            roots.dedup();
            writeln!(out, "connected components: {}", roots.len()).unwrap();
        }
        "pagerank" => {
            let pr = gee_algos::pagerank(&g, gee_algos::PageRankOptions::default());
            let mut top: Vec<(u32, f64)> =
                pr.iter().enumerate().map(|(v, &r)| (v as u32, r)).collect();
            top.sort_by(|a, b| b.1.total_cmp(&a.1));
            writeln!(out, "top-5 PageRank: {:?}", &top[..top.len().min(5)]).unwrap();
        }
        "kcore" => {
            let core = gee_algos::kcore_bucketed(&g);
            let max = core.iter().copied().max().unwrap_or(0);
            writeln!(out, "degeneracy (max core): {max}").unwrap();
        }
        "sssp" => {
            let d = gee_algos::delta_stepping(&g, source, gee_algos::suggest_delta(&g));
            let reached = d.iter().filter(|x| x.is_finite()).count();
            let ecc = d.iter().filter(|x| x.is_finite()).fold(0.0f64, |a, &b| a.max(b));
            writeln!(out, "sssp from {source}: {reached} reachable, eccentricity {ecc:.3}").unwrap();
        }
        "bfs" => {
            let d = gee_algos::bfs_distances(&g, source);
            let reached = d.iter().filter(|&&x| x != u32::MAX).count();
            let depth = d.iter().filter(|&&x| x != u32::MAX).max().copied().unwrap_or(0);
            writeln!(out, "bfs from {source}: {reached} reachable, depth {depth}").unwrap();
        }
        "triangles" => {
            writeln!(out, "triangles: {}", gee_algos::triangle_count(&g)).unwrap();
        }
        "matching" => {
            let m = gee_algos::maximal_matching(&g, 42);
            let matched = m.iter().filter(|&&p| p != u32::MAX).count();
            writeln!(out, "maximal matching: {} edges ({} matched vertices)", matched / 2, matched)
                .unwrap();
        }
        "dominating-set" => {
            let ds = gee_algos::dominating_set(&g);
            writeln!(out, "greedy dominating set: {} of {} vertices", ds.len(), g.num_vertices())
                .unwrap();
        }
        "densest" => {
            let r = gee_algos::densest_subgraph(&g);
            writeln!(
                out,
                "densest subgraph (2-approx): {} vertices, density {:.3}",
                r.vertices.len(),
                r.density
            )
            .unwrap();
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --algo {other:?} (cc|pagerank|kcore|sssp|bfs|triangles|matching|dominating-set|densest)"
            )))
        }
    }
    writeln!(out, "({:.2?})", t0.elapsed()).unwrap();
    Ok(out)
}

/// The durability policy the flags describe, if `--data-dir` was given.
fn durability_from_flags(flags: &Flags) -> crate::Result<Option<gee_serve::Durability>> {
    let Some(dir) = flags.get("data-dir") else {
        return Ok(None);
    };
    let sync = match flags.get("sync").unwrap_or("always") {
        "always" => gee_serve::SyncPolicy::Always,
        "never" => gee_serve::SyncPolicy::Never,
        // Group commit: concurrent writers share one fsync per commit
        // window — the Always guarantee at a fraction of the syncs.
        "group" => gee_serve::SyncPolicy::group(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown --sync {other:?} (always|never|group)"
            )))
        }
    };
    let checkpoint_every: u64 = flags.get_parsed("checkpoint-every", 64u64)?;
    Ok(Some(gee_serve::Durability::Wal {
        dir: std::path::PathBuf::from(dir),
        sync,
        checkpoint_every,
    }))
}

/// Load the `--graph` file and label it (randomly, like `embed`).
fn load_labeled_graph(
    flags: &Flags,
    classes_flag: &str,
    default_classes: usize,
) -> crate::Result<(gee_graph::EdgeList, Labels)> {
    let graph_path = flags.require("graph")?.to_string();
    let k: usize = flags.get_parsed(classes_flag, default_classes)?;
    let labeled: f64 = flags.get_parsed("labeled", 0.1)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let el = read_graph(Path::new(&graph_path))?;
    let labels = Labels::from_options_with_k(
        &gee_gen::random_labels(
            el.num_vertices(),
            LabelSpec {
                num_classes: k,
                labeled_fraction: labeled,
            },
            seed,
        ),
        k,
    );
    Ok((el, labels))
}

/// Parse `[--nprobe N] [--refine R]` into an IVF
/// [`gee_serve::SearchPolicy::Ann`] — the single owner of both
/// defaults, shared by `serve --index ivf` and `query --nprobe`.
fn ann_from_flags(flags: &Flags) -> crate::Result<gee_serve::SearchPolicy> {
    let nprobe: usize = flags.get_parsed("nprobe", 8)?;
    let refine: usize = flags.get_parsed("refine", gee_serve::SearchPolicy::DEFAULT_REFINE)?;
    Ok(gee_serve::SearchPolicy::Ann { nprobe, refine })
}

/// Parse `--index exact|ivf [--nprobe N] [--refine R]` into the
/// registry-wide default [`gee_serve::SearchPolicy`].
fn search_from_flags(flags: &Flags) -> crate::Result<gee_serve::SearchPolicy> {
    match flags.get("index").unwrap_or("exact") {
        "exact" => Ok(gee_serve::SearchPolicy::Exact),
        "ivf" => ann_from_flags(flags),
        other => Err(CliError::Usage(format!(
            "unknown --index {other:?} (exact|ivf)"
        ))),
    }
}

/// Stand up a one-graph serving engine named `"g"`. Without
/// `--data-dir` the registry is in-memory and `--graph` is required;
/// with it, the data directory is recovered first and `--graph` is only
/// needed (and only read) when no graph `"g"` was recovered.
fn build_engine(
    flags: &Flags,
    classes_flag: &str,
    default_classes: usize,
) -> crate::Result<(gee_serve::Engine, usize)> {
    let shards: usize = flags.get_parsed("shards", 4)?;
    let history: usize = flags.get_parsed("history", 1)?;
    let backpressure = match flags.get("max-pending") {
        Some(raw) => {
            let max: usize = raw.parse().map_err(|_| {
                CliError::Usage(format!("flag --max-pending: cannot parse {raw:?}"))
            })?;
            gee_serve::BackpressurePolicy::max_pending(max)
        }
        None => gee_serve::BackpressurePolicy::unbounded(),
    };
    let search = search_from_flags(flags)?;
    let engine = gee_serve::Engine::with_config(gee_serve::RegistryConfig {
        default_shards: shards,
        history: gee_serve::HistoryPolicy::keep(history),
        backpressure,
        durability: durability_from_flags(flags)?.unwrap_or(gee_serve::Durability::None),
        search,
    })?;
    let num_vertices = if let Ok(snap) = engine.registry().snapshot("g") {
        eprintln!(
            "recovered \"g\" at epoch {} from {}",
            snap.epoch,
            flags.get("data-dir").unwrap_or("?")
        );
        snap.num_vertices()
    } else {
        let (el, labels) = load_labeled_graph(flags, classes_flag, default_classes)?;
        engine.registry().register("g", &el, &labels)?;
        el.num_vertices()
    };
    if search.is_ann() {
        // Pay the k-means cost now so the first query is warm.
        let indexed = engine.registry().snapshot("g")?.warm_ann_indexes();
        eprintln!("ivf: {indexed} shard(s) indexed (small shards stay exact)");
    }
    Ok((engine, num_vertices))
}

/// `recover`: open a durable serving directory (latest checkpoint + WAL
/// tail replay) and report what came back. `--checkpoint true` then
/// forces a compacting checkpoint, retiring covered WAL segments.
fn recover(flags: &Flags) -> crate::Result<String> {
    let dir = flags.require("data-dir")?.to_string();
    let shards: usize = flags.get_parsed("shards", 4)?;
    let durability = durability_from_flags(flags)?.expect("--data-dir was required");
    let registry = gee_serve::Registry::open(shards, durability)?;
    let names = registry.graph_names();
    let mut out = String::new();
    writeln!(out, "recovered {} graph(s) from {dir}", names.len()).unwrap();
    for name in &names {
        let snap = registry.snapshot(name)?;
        writeln!(
            out,
            "  {name:?}: epoch {} | {} vertices × {} dims, {} labeled",
            snap.epoch,
            snap.num_vertices(),
            snap.dim(),
            snap.num_labeled(),
        )
        .unwrap();
    }
    // The replication coordinates: where the durable log ends and where
    // the newest checkpoint sits (what a follower would bootstrap from).
    let high = registry.wal_high_water().expect("registry opened durable");
    writeln!(out, "wal high-water lsn {high}").unwrap();
    match registry.latest_checkpoint_lsn()? {
        Some(lsn) => writeln!(out, "latest checkpoint at lsn {lsn}").unwrap(),
        None => writeln!(out, "no checkpoint on disk").unwrap(),
    }
    writeln!(out, "leader epoch {}", registry.leader_epoch()).unwrap();
    if flags.get_parsed("checkpoint", false)? {
        let lsn = registry.checkpoint_now()?.expect("registry opened durable");
        writeln!(out, "checkpoint written at lsn {lsn}; WAL compacted").unwrap();
    }
    Ok(out)
}

/// `promote`: turn a stopped follower's data dir into the new leader.
/// Recovers the directory, durably bumps the leader epoch (the fencing
/// token the cluster holds the deposed leader to), and — with
/// `--replicate ADDR` — stays up shipping the WAL so surviving
/// followers can re-point and resume from their own LSNs.
fn promote(flags: &Flags) -> crate::Result<String> {
    let dir = flags.require("data-dir")?.to_string();
    let shards: usize = flags.get_parsed("shards", 4)?;
    let durability = durability_from_flags(flags)?.expect("--data-dir was required");
    let registry = std::sync::Arc::new(gee_serve::Registry::open(shards, durability)?);
    let epoch = registry.promote_to_leader()?;
    let high = registry.wal_high_water().expect("registry opened durable");
    let mut out = String::new();
    writeln!(
        out,
        "promoted {dir} to leader epoch {epoch} (wal high-water lsn {high})"
    )
    .unwrap();
    if let Some(addr) = flags.get("replicate") {
        let listener = gee_serve::ReplicationListener::listen(registry.clone(), addr)?;
        // Print now: with --replicate this command never returns.
        print!("{out}");
        println!("replication: shipping WAL on {}", listener.addr());
        if let Some(file) = flags.get("replicate-port-file") {
            std::fs::write(file, listener.addr().to_string())?;
        }
        loop {
            // Lead until killed (like `serve --listen` without a conn cap).
            std::thread::park();
        }
    }
    Ok(out)
}

fn parse_vertex_list(raw: &str) -> crate::Result<Vec<u32>> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse::<u32>()
                .map_err(|_| CliError::Usage(format!("cannot parse vertex id {s:?}")))
        })
        .collect()
}

/// Parse one serve-script line into a request (empty/comment lines → None).
fn parse_script_line(line: &str) -> crate::Result<Option<gee_serve::Request>> {
    use gee_serve::{Request, Update};
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let cmd = parts.next().expect("nonempty line has a first token");
    let args: Vec<&str> = parts.collect();
    let usage = |msg: &str| CliError::Usage(format!("serve script: {msg} (line {line:?})"));
    let parse_u32 = |s: &str, what: &str| {
        s.parse::<u32>()
            .map_err(|_| usage(&format!("bad {what} {s:?}")))
    };
    let req = match cmd {
        "classify" => {
            let vertices = parse_vertex_list(
                args.first()
                    .ok_or_else(|| usage("classify needs vertices"))?,
            )?;
            let k = match args.get(1) {
                Some(s) => s.parse().map_err(|_| usage(&format!("bad k {s:?}")))?,
                None => 5,
            };
            Request::classify(vertices, k)
        }
        "similar" => {
            let vertex = parse_u32(
                args.first()
                    .ok_or_else(|| usage("similar needs a vertex"))?,
                "vertex",
            )?;
            let top = match args.get(1) {
                Some(s) => s.parse().map_err(|_| usage(&format!("bad top {s:?}")))?,
                None => 10,
            };
            Request::similar(vertex, top)
        }
        "row" => {
            let vertex = parse_u32(
                args.first().ok_or_else(|| usage("row needs a vertex"))?,
                "vertex",
            )?;
            Request::embed_row(vertex)
        }
        "insert" | "remove" => {
            let [u, v, w] = args[..] else {
                return Err(usage(&format!("{cmd} needs: u v w")));
            };
            let (u, v) = (parse_u32(u, "endpoint")?, parse_u32(v, "endpoint")?);
            let w: f64 = w.parse().map_err(|_| usage(&format!("bad weight {w:?}")))?;
            let update = if cmd == "insert" {
                Update::InsertEdge { u, v, w }
            } else {
                Update::RemoveEdge { u, v, w }
            };
            Request::ApplyUpdates {
                updates: vec![update],
            }
        }
        "label" => {
            let [v, class] = args[..] else {
                return Err(usage("label needs: v <class|none>"));
            };
            let v = parse_u32(v, "vertex")?;
            let label = if class == "none" {
                None
            } else {
                Some(parse_u32(class, "class")?)
            };
            Request::ApplyUpdates {
                updates: vec![Update::SetLabel { v, label }],
            }
        }
        "stats" => Request::stats(),
        other => return Err(usage(&format!("unknown command {other:?}"))),
    };
    Ok(Some(req))
}

fn render_response(out: &mut String, r: &gee_serve::Response) {
    use gee_serve::Response;
    match r {
        Response::Classes(c) => writeln!(out, "classes: {c:?}").unwrap(),
        Response::Neighbors(n) => {
            let shown: Vec<String> = n.iter().map(|(v, d)| format!("{v} (d={d:.4})")).collect();
            writeln!(out, "neighbors: [{}]", shown.join(", ")).unwrap();
        }
        Response::Row(row) => {
            let shown: Vec<String> = row.iter().map(|x| format!("{x:.6}")).collect();
            writeln!(out, "row: [{}]", shown.join(", ")).unwrap();
        }
        Response::Applied { applied, epoch } => {
            writeln!(out, "applied {applied} update(s); now at epoch {epoch}").unwrap();
        }
        Response::Stats(s) => {
            write!(
                out,
                "stats: graph {:?} epoch {} (retained from {}) | {} vertices × {} dims, {} shards, {} labeled | {} queries served, {} updates applied",
                s.graph, s.epoch, s.oldest_epoch, s.num_vertices, s.dim, s.num_shards, s.num_labeled, s.queries_served, s.updates_applied
            )
            .unwrap();
            if let Some(r) = &s.replication {
                write!(out, " | {}", render_replication(r)).unwrap();
            }
            writeln!(out).unwrap();
        }
        Response::Metrics(m) => {
            write!(
                out,
                "metrics: graph {:?} epoch {} (retained from {}, depth {}) | {} queries served, {} updates applied | classify p50 ≤{} µs | coalesce mean {:.1} | {} overloaded, {} wal fsyncs, ivf {}/{} built/hit, {} ann shards",
                m.graph,
                m.epoch,
                m.oldest_epoch,
                m.history_depth,
                m.queries_served,
                m.updates_applied,
                m.classify_us.quantile_upper_bound(0.5).unwrap_or(0),
                m.coalesce.mean().unwrap_or(0.0),
                m.overloaded,
                m.wal_fsyncs,
                m.ivf_builds,
                m.ivf_hits,
                m.ann_indexed_shards
            )
            .unwrap();
            if let Some(r) = &m.replication {
                write!(out, " | {}", render_replication(r)).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
}

/// One-line replication summary shared by the Stats and Metrics
/// renders (both endpoints carry the identical block).
fn render_replication(r: &gee_serve::ReplicationReport) -> String {
    match r.role {
        gee_serve::ReplicationRole::Leader => format!(
            "replication: leader ({} follower(s){}), {} records / {} bytes shipped, leader epoch {}{}",
            r.follower_conns,
            if r.connected { "" } else { ", idle" },
            r.shipped_records,
            r.shipped_bytes,
            r.leader_epoch,
            if r.fenced { " [FENCED]" } else { "" },
        ),
        gee_serve::ReplicationRole::Follower => format!(
            "replication: follower ({}) lag {} epoch(s) / {} lsn(s), durable to lsn {}, leader epoch {}",
            if r.connected {
                "connected"
            } else {
                "disconnected"
            },
            r.lag_epochs,
            r.lag_lsns,
            r.last_durable_lsn,
            r.leader_epoch,
        ),
    }
}

fn max_conns_from_flags(flags: &Flags) -> crate::Result<Option<usize>> {
    flags
        .get("max-conns")
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| CliError::Usage(format!("flag --max-conns: cannot parse {raw:?}")))
        })
        .transpose()
}

/// `--workers N`: size of the connection worker pool (defaults to the
/// CPU count).
fn workers_from_flags(flags: &Flags) -> crate::Result<usize> {
    let workers: usize = flags.get_parsed("workers", gee_serve::server::default_workers())?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    Ok(workers)
}

/// `serve --listen`: stand up the engine and serve the wire protocol over
/// TCP until `--max-conns` connections finish (or forever without it).
/// With `--replicate ADDR` the process also leads a replica set: a
/// second listener streams the WAL to followers.
fn serve_listen(flags: &Flags, addr: &str) -> crate::Result<String> {
    let (engine, n) = build_engine(flags, "k", 50)?;
    let max_conns = max_conns_from_flags(flags)?;
    let replication = flags
        .get("replicate")
        .map(|repl_addr| -> crate::Result<_> {
            if flags.get("data-dir").is_none() {
                return Err(CliError::Usage(
                    "serve: --replicate requires --data-dir (the WAL is the replication stream)"
                        .into(),
                ));
            }
            let listener =
                gee_serve::ReplicationListener::listen(engine.registry_handle(), repl_addr)?;
            eprintln!("replication: shipping WAL on {}", listener.addr());
            if let Some(file) = flags.get("replicate-port-file") {
                std::fs::write(file, listener.addr().to_string())?;
            }
            Ok(listener)
        })
        .transpose()?;
    let workers = workers_from_flags(flags)?;
    let handle =
        gee_serve::Server::listen_with(std::sync::Arc::new(engine), addr, max_conns, workers)?;
    let bound = handle.addr();
    eprintln!(
        "serving \"g\" ({n} vertices) on {bound} (wire protocol v{}, {workers} workers)",
        gee_serve::PROTOCOL_VERSION
    );
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, bound.to_string())?;
    }
    let summary = match max_conns {
        Some(m) => {
            handle.wait();
            format!("served {m} connection(s) on {bound}; exiting\n")
        }
        None => {
            handle.wait(); // unbounded: runs until the process is killed
            String::new()
        }
    };
    if let Some(listener) = replication {
        listener.shutdown();
    }
    Ok(summary)
}

/// `serve --follow`: run a read-only replica. The follower pulls the
/// leader's WAL stream into its own `--data-dir`, serves reads (with
/// epoch pins and ANN policies) on `--listen`, and rejects writes with
/// error code 15 (`ReadOnlyReplica`).
fn serve_follow(flags: &Flags, leader: &str) -> crate::Result<String> {
    let Some(durability) = durability_from_flags(flags)? else {
        return Err(CliError::Usage(
            "serve: --follow requires --data-dir (the replica's own durable log)".into(),
        ));
    };
    let listen = flags.get("listen").ok_or_else(|| {
        CliError::Usage("serve: --follow serves reads; pass --listen ADDR".into())
    })?;
    let shards: usize = flags.get_parsed("shards", 4)?;
    let history: usize = flags.get_parsed("history", 1)?;
    let config = gee_serve::RegistryConfig {
        default_shards: shards,
        history: gee_serve::HistoryPolicy::keep(history),
        backpressure: gee_serve::BackpressurePolicy::unbounded(),
        durability,
        search: search_from_flags(flags)?,
    };
    let follower = gee_serve::Follower::start(config, leader)?;
    eprintln!("following leader at {leader}");
    let registry = follower.registry().clone();
    let engine = gee_serve::Engine::new(registry.clone());
    let handle = gee_serve::Server::listen_with(
        std::sync::Arc::new(engine),
        listen,
        max_conns_from_flags(flags)?,
        workers_from_flags(flags)?,
    )?;
    let bound = handle.addr();
    eprintln!(
        "replica serving reads on {bound} (wire protocol v{})",
        gee_serve::PROTOCOL_VERSION
    );
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, bound.to_string())?;
    }
    // `--promote-file PATH` arms in-process failover: a watcher thread
    // promotes the replica to leader the moment PATH appears (an
    // operator `touch`, a supervisor, the failover-smoke CI job). The
    // read server keeps serving throughout; after promotion its
    // registry accepts writes under the new, durably-fenced epoch.
    let follower_slot = std::sync::Arc::new(std::sync::Mutex::new(Some(follower)));
    if let Some(promote_path) = flags.get("promote-file") {
        let promote_path = std::path::PathBuf::from(promote_path);
        let replicate = flags.get("replicate").map(str::to_string);
        let replicate_port_file = flags.get("replicate-port-file").map(str::to_string);
        let slot = follower_slot.clone();
        std::thread::spawn(move || loop {
            if promote_path.exists() {
                let Some(follower) = slot.lock().expect("follower slot poisoned").take() else {
                    return;
                };
                match follower.promote(replicate.as_deref()) {
                    Ok(promotion) => {
                        eprintln!("promoted to leader epoch {}", promotion.epoch);
                        if let Some(listener) = promotion.listener {
                            eprintln!("replication: shipping WAL on {}", listener.addr());
                            if let Some(file) = &replicate_port_file {
                                let _ = std::fs::write(file, listener.addr().to_string());
                            }
                            // Leak the handle: the listener must outlive
                            // this watcher thread and keep shipping until
                            // the process exits.
                            std::mem::forget(listener);
                        }
                    }
                    Err(e) => eprintln!("promotion failed: {e}"),
                }
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
    }
    handle.wait();
    let lsn = registry.wal_high_water().expect("followers are durable");
    let still_following = follower_slot.lock().expect("follower slot poisoned").take();
    let summary = match still_following {
        Some(follower) => {
            follower.shutdown();
            format!("replica exiting at lsn {lsn}\n")
        }
        None => format!(
            "promoted leader (epoch {}) exiting at lsn {lsn}\n",
            registry.leader_epoch()
        ),
    };
    Ok(summary)
}

/// `serve`: stand up the engine and run a query script against it as one
/// coalesced batch (or serve TCP with `--listen`, or trail a leader as a
/// read-only replica with `--follow`).
fn serve(flags: &Flags) -> crate::Result<String> {
    if let Some(leader) = flags.get("follow") {
        return serve_follow(flags, &leader.to_string());
    }
    if let Some(addr) = flags.get("listen") {
        return serve_listen(flags, &addr.to_string());
    }
    let script_path = flags.require("script")?.to_string();
    let (engine, _) = build_engine(flags, "k", 50)?;
    let script = std::fs::read_to_string(&script_path)?;
    let mut requests = Vec::new();
    let mut lines = Vec::new();
    for line in script.lines() {
        if let Some(req) = parse_script_line(line)? {
            requests.push(gee_serve::Envelope::new("g", req));
            lines.push(line.trim().to_string());
        }
    }
    let t0 = std::time::Instant::now();
    let answers = engine.execute_batch(requests);
    let dt = t0.elapsed();
    let mut out = String::new();
    for (line, answer) in lines.iter().zip(&answers) {
        write!(out, "> {line}\n  ").unwrap();
        match answer {
            Ok(r) => render_response(&mut out, r),
            Err(e) => writeln!(out, "error: {e}").unwrap(),
        }
    }
    writeln!(out, "served {} request(s) in {dt:.2?}", lines.len()).unwrap();
    Ok(out)
}

/// `query`: one-shot request against a freshly served graph, or — with
/// `--connect` — against a running `serve --listen` server over the wire.
fn query(flags: &Flags) -> crate::Result<String> {
    use gee_serve::Request;
    let mut request = if let Some(raw) = flags.get("classify") {
        let k: usize = flags.get_parsed("k", 5)?;
        Request::classify(parse_vertex_list(raw)?, k)
    } else if let Some(raw) = flags.get("similar") {
        let vertex = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --similar vertex {raw:?}")))?;
        let top: usize = flags.get_parsed("top", 10)?;
        Request::similar(vertex, top)
    } else if let Some(raw) = flags.get("row") {
        let vertex = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --row vertex {raw:?}")))?;
        Request::embed_row(vertex)
    } else if flags.get("stats").is_some() {
        Request::stats()
    } else if flags.get_parsed("metrics", false)? {
        // Observability probe (never pinnable).
        Request::Metrics
    } else {
        return Err(CliError::Usage(
            "query: need one of --classify, --similar, --row, --stats true, --metrics true".into(),
        ));
    };
    if let Some(raw) = flags.get("at-epoch") {
        let epoch: u64 = raw
            .parse()
            .map_err(|_| CliError::Usage(format!("bad --at-epoch {raw:?}")))?;
        request = request.pinned(epoch);
    }
    // Per-request search override: `--exact true` is the escape hatch
    // that forces the exact scan no matter how the server is configured;
    // `--nprobe`/`--index ivf` asks for IVF approximate search. Both
    // ride the wire with --connect.
    if flags.get_parsed("exact", false)? {
        request = request.with_search(gee_serve::SearchPolicy::Exact);
    } else if flags.get("index").is_some() {
        request = request.with_search(search_from_flags(flags)?);
    } else if flags.get("nprobe").is_some() {
        request = request.with_search(ann_from_flags(flags)?);
    }
    let mut out = String::new();
    if let Some(addr) = flags.get("connect") {
        let graph = flags.get("name").unwrap_or("g");
        let timing: bool = flags.get_parsed("timing", false)?;
        let mut client = gee_serve::Client::connect(addr)?;
        let started = std::time::Instant::now();
        let response = client.execute(graph, request)?;
        if timing {
            // Client-measured round-trip on stderr, so timing never
            // perturbs the parseable stdout payload. Same clock the
            // load generator records with.
            eprintln!("round-trip: {} µs", gee_loadgen::elapsed_micros(started));
        }
        render_response(&mut out, &response);
        client.goodbye()?;
        return Ok(out);
    }
    let (engine, _) = build_engine(flags, "classes", 50)?;
    match engine.execute("g", request) {
        Ok(r) => render_response(&mut out, &r),
        Err(e) => return Err(CliError::Usage(format!("query failed: {e}"))),
    }
    Ok(out)
}

/// `bench`: multi-client load generation against a running server, with
/// per-request CSV rows and a `gee-bench-v1` JSON report.
fn bench(flags: &Flags) -> crate::Result<String> {
    use gee_loadgen::{run_bench, Analysis, BenchConfig, Mix};
    let addr = flags.require("connect")?.to_string();
    let graph = flags.get("name").unwrap_or("g").to_string();
    let mix_str = flags
        .get("mix")
        .unwrap_or("read=90,write=5,timetravel=3,ann=2");
    let mix = Mix::parse(mix_str).map_err(CliError::Usage)?;
    let clients: usize = flags.get_parsed("clients", 2)?;
    if clients == 0 {
        return Err(CliError::Usage(
            "bench: --clients must be at least 1".into(),
        ));
    }
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let requests_per_client: Option<u64> = flags
        .get("requests")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("flag --requests: cannot parse {raw:?}")))
        })
        .transpose()?;
    // Duration bounds the run unless a fixed request count was asked
    // for *instead* — then the count alone decides (deterministic mode).
    let duration = match (flags.get("duration"), requests_per_client) {
        (None, Some(_)) => None,
        _ => {
            let secs: f64 = flags.get_parsed("duration", 5.0)?;
            if secs <= 0.0 {
                return Err(CliError::Usage("bench: --duration must be positive".into()));
            }
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let target_qps: Option<f64> = flags
        .get("qps")
        .map(|raw| {
            raw.parse::<f64>()
                .ok()
                .filter(|q| *q > 0.0)
                .ok_or_else(|| CliError::Usage(format!("flag --qps: cannot parse {raw:?}")))
        })
        .transpose()?;
    let poll_ms: u64 = flags.get_parsed("poll-metrics", 500u64)?;
    let config = BenchConfig {
        graph,
        mix,
        clients,
        seed,
        duration,
        requests_per_client,
        target_qps,
        poll_metrics: (poll_ms > 0).then(|| std::time::Duration::from_millis(poll_ms)),
    };
    let t0 = std::time::Instant::now();
    let records = run_bench(&config, || gee_serve::Client::connect(&addr))?;
    let elapsed = t0.elapsed();

    if let Some(path) = flags.get("csv") {
        let mut csv = String::with_capacity(records.len() * 48);
        csv.push_str(gee_loadgen::CSV_HEADER);
        csv.push('\n');
        for r in &records {
            csv.push_str(&r.to_csv_row());
            csv.push('\n');
        }
        std::fs::write(path, csv)?;
    }

    let mut analysis = Analysis::new();
    for r in &records {
        analysis.ingest(r);
    }
    if let Some(path) = flags.get("json") {
        let meta = serde_json::json!({
            "connect": addr,
            "graph": config.graph,
            "mix": config.mix.to_string(),
            "clients": clients,
            "seed": seed,
            "mode": if target_qps.is_some() { "open" } else { "closed" },
            "poll_metrics_ms": poll_ms,
            "records": analysis.records(),
            "span_secs": analysis.span_secs(),
            "max_epoch": analysis.max_epoch(),
            "max_epoch_lag": analysis.max_epoch_lag(),
        });
        gee_loadgen::write_json(
            path,
            &gee_loadgen::report::analysis_report("serve_loadgen", meta, &analysis),
        )?;
    }
    let mut out = render_analysis(&analysis);
    writeln!(
        out,
        "{} request(s) from {clients} client(s) in {elapsed:.2?} (mix {mix_str}, seed {seed})",
        analysis.records()
    )
    .unwrap();
    Ok(out)
}

/// `bench-report`: the stdin→stdout analytics filter over bench CSV.
fn bench_report(flags: &Flags) -> crate::Result<String> {
    use gee_loadgen::Analysis;
    use std::io::BufRead;
    let mut analysis = Analysis::new();
    let ingest = |analysis: &mut Analysis, reader: &mut dyn BufRead| -> crate::Result<()> {
        for line in reader.lines() {
            analysis.ingest_csv_line(&line?).map_err(CliError::Usage)?;
        }
        Ok(())
    };
    match flags.get("in") {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            ingest(&mut analysis, &mut std::io::BufReader::new(file))?;
        }
        None => ingest(&mut analysis, &mut std::io::stdin().lock())?,
    }
    let meta = serde_json::json!({
        "records": analysis.records(),
        "span_secs": analysis.span_secs(),
        "max_epoch": analysis.max_epoch(),
        "max_epoch_lag": analysis.max_epoch_lag(),
    });
    let report = gee_loadgen::report::analysis_report(
        flags.get("bench").unwrap_or("serve_loadgen"),
        meta,
        &analysis,
    );
    if let Some(path) = flags.get("json") {
        gee_loadgen::write_json(path, &report)?;
        return Ok(render_analysis(&analysis));
    }
    let mut text = serde_json::to_string_pretty(&report).expect("reports always serialize");
    text.push('\n');
    Ok(text)
}

/// Human-readable per-type summary of a bench analysis.
fn render_analysis(analysis: &gee_loadgen::Analysis) -> String {
    let mut out = String::new();
    let q = |est: Option<f64>| est.map_or(0u64, |v| v.round() as u64);
    for (kind, summary) in analysis.types() {
        writeln!(
            out,
            "{kind:>10}: {:>7} requests, {:>9.1} q/s, p50 {} µs, p99 {} µs, p999 {} µs, {} error(s)",
            summary.latency_us.count,
            analysis.qps(summary),
            q(summary.p50.estimate()),
            q(summary.p99.estimate()),
            q(summary.p999.estimate()),
            summary.errors,
        )
        .unwrap();
    }
    writeln!(
        out,
        "span {:.2}s | max epoch {} | max epoch lag {}",
        analysis.span_secs(),
        analysis.max_epoch(),
        analysis.max_epoch_lag()
    )
    .unwrap();
    out
}

fn convert(flags: &Flags) -> crate::Result<String> {
    if flags.num_positional() != 2 {
        return Err(CliError::Usage("convert: need <in-file> <out-file>".into()));
    }
    let input = flags.positional(0).expect("checked");
    let output = flags.positional(1).expect("checked");
    let el = read_graph(Path::new(input))?;
    write_graph(Path::new(output), &el)?;
    Ok(format!(
        "converted {input} → {output} ({} vertices, {} edges)\n",
        el.num_vertices(),
        el.num_edges()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn no_args_shows_usage() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&sv(&["help"])).unwrap();
        assert!(out.contains("subcommands"));
    }

    #[test]
    fn unknown_subcommand() {
        assert!(matches!(run(&sv(&["frobnicate"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn generate_stats_embed_pipeline() {
        let graph = tmp("gee_cli_pipe.txt");
        let emb = tmp("gee_cli_pipe.csv");
        let out = run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "500",
            "--edges",
            "4000",
            "--out",
            &graph,
        ]))
        .unwrap();
        assert!(out.contains("4000 edges"), "{out}");
        let out = run(&sv(&["stats", &graph])).unwrap();
        assert!(out.contains("vertices      : 500"), "{out}");
        let out = run(&sv(&[
            "embed",
            "--graph",
            &graph,
            "--out",
            &emb,
            "--k",
            "5",
            "--impl",
            "optimized",
        ]))
        .unwrap();
        assert!(out.contains("Z is 500×5"), "{out}");
        let csv = std::fs::read_to_string(&emb).unwrap();
        assert_eq!(csv.lines().count(), 500);
        assert_eq!(csv.lines().next().unwrap().split(',').count(), 6);
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&emb).ok();
    }

    #[test]
    fn generate_sbm_and_communities() {
        let graph = tmp("gee_cli_sbm.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "120",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        let out = run(&sv(&["communities", "--graph", &graph, "--algo", "leiden"])).unwrap();
        assert!(out.contains("3 communities"), "{out}");
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn convert_between_formats() {
        let a = tmp("gee_cli_conv.txt");
        let b = tmp("gee_cli_conv.mtx");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "50",
            "--edges",
            "200",
            "--out",
            &a,
        ]))
        .unwrap();
        let out = run(&sv(&["convert", &a, &b])).unwrap();
        assert!(out.contains("200 edges"), "{out}");
        let back = read_graph(Path::new(&b)).unwrap();
        assert_eq!(back.num_edges(), 200);
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn embed_rejects_unknown_impl() {
        let graph = tmp("gee_cli_impl.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "20",
            "--edges",
            "50",
            "--out",
            &graph,
        ]))
        .unwrap();
        let r = run(&sv(&[
            "embed",
            "--graph",
            &graph,
            "--out",
            "/dev/null",
            "--impl",
            "magic",
        ]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn generate_requires_out() {
        assert!(matches!(
            run(&sv(&["generate", "--kind", "er"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_watts_strogatz_and_powerlaw() {
        let graph = tmp("gee_cli_ws.txt");
        let out = run(&sv(&[
            "generate",
            "--kind",
            "ws",
            "--vertices",
            "100",
            "--lattice-k",
            "4",
            "--beta",
            "0.2",
            "--out",
            &graph,
        ]))
        .unwrap();
        assert!(out.contains("100 vertices"), "{out}");
        let out = run(&sv(&[
            "generate",
            "--kind",
            "powerlaw",
            "--vertices",
            "200",
            "--alpha",
            "2.5",
            "--out",
            &graph,
        ]))
        .unwrap();
        assert!(out.contains("200 vertices"), "{out}");
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn embed_deterministic_impl() {
        let graph = tmp("gee_cli_det.txt");
        let (det, reference) = (tmp("gee_cli_det.csv"), tmp("gee_cli_det_ref.csv"));
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "200",
            "--edges",
            "1000",
            "--out",
            &graph,
        ]))
        .unwrap();
        let embed = |imp: &str, out: &str| {
            let flags = ["--k", "4", "--threads", "3", "--impl", imp];
            let args: Vec<&str> = ["embed", "--graph", &graph, "--out", out]
                .into_iter()
                .chain(flags)
                .collect();
            run(&sv(&args)).unwrap()
        };
        let out = embed("deterministic", &det);
        assert!(out.contains("Z is 200×4"), "{out}");
        embed("reference", &reference);
        assert_eq!(
            std::fs::read(&det).unwrap(),
            std::fs::read(&reference).unwrap(),
            "--impl deterministic must write the reference's bytes"
        );
        for path in [&graph, &det, &reference] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn analyze_runs_every_algorithm() {
        let graph = tmp("gee_cli_analyze.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "300",
            "--edges",
            "2400",
            "--out",
            &graph,
        ]))
        .unwrap();
        for (algo, needle) in [
            ("cc", "connected components"),
            ("pagerank", "top-5 PageRank"),
            ("kcore", "degeneracy"),
            ("sssp", "reachable"),
            ("bfs", "reachable"),
            ("triangles", "triangles:"),
            ("matching", "maximal matching"),
            ("dominating-set", "dominating set"),
            ("densest", "densest subgraph"),
        ] {
            let out = run(&sv(&["analyze", "--graph", &graph, "--algo", algo])).unwrap();
            assert!(out.contains(needle), "{algo}: {out}");
        }
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn serve_runs_a_script_end_to_end() {
        let graph = tmp("gee_cli_serve.txt");
        let script = tmp("gee_cli_serve.script");
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "120",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        std::fs::write(
            &script,
            "# smoke script\n\
             classify 0,1,2 3\n\
             similar 5 4\n\
             row 7\n\
             insert 0 1 2.5\n\
             label 3 1\n\
             remove 0 1 2.5\n\
             stats\n",
        )
        .unwrap();
        let out = run(&sv(&[
            "serve",
            "--graph",
            &graph,
            "--script",
            &script,
            "--k",
            "3",
            "--labeled",
            "0.5",
            "--shards",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("classes:"), "{out}");
        assert!(out.contains("neighbors:"), "{out}");
        assert!(out.contains("row:"), "{out}");
        assert!(out.contains("applied 1 update(s); now at epoch 3"), "{out}");
        assert!(
            out.contains("epoch 3 (retained from 3) | 120 vertices × 3 dims, 3 shards"),
            "{out}"
        );
        assert!(out.contains("served 7 request(s)"), "{out}");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn serve_rejects_bad_script_line() {
        let graph = tmp("gee_cli_serve_bad.txt");
        let script = tmp("gee_cli_serve_bad.script");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "30",
            "--edges",
            "100",
            "--out",
            &graph,
        ]))
        .unwrap();
        std::fs::write(&script, "frobnicate 1 2\n").unwrap();
        let r = run(&sv(&["serve", "--graph", &graph, "--script", &script]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn query_classify_and_stats() {
        let graph = tmp("gee_cli_query.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "90",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        let out = run(&sv(&[
            "query",
            "--graph",
            &graph,
            "--classify",
            "0,1,2",
            "--classes",
            "3",
            "--labeled",
            "0.5",
            "--k",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("classes:"), "{out}");
        let out = run(&sv(&["query", "--graph", &graph, "--stats", "true"])).unwrap();
        assert!(out.contains("90 vertices"), "{out}");
        let out = run(&sv(&[
            "query",
            "--graph",
            &graph,
            "--similar",
            "4",
            "--top",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("neighbors:"), "{out}");
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn query_at_epoch_pins_and_reports_eviction() {
        let graph = tmp("gee_cli_query_epoch.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "90",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        // A fresh engine serves only epoch 0: a pinned read at 0 answers
        // exactly like the unpinned read.
        let base = |extra: &[&str]| {
            let mut args = vec!["query", "--graph", &graph, "--row", "7", "--seed", "9"];
            args.extend_from_slice(extra);
            run(&sv(&args))
        };
        let unpinned = base(&[]).unwrap();
        let pinned = base(&["--at-epoch", "0"]).unwrap();
        assert_eq!(unpinned, pinned);
        // Pinning an epoch the ring does not retain is the typed
        // EpochEvicted failure (code 13), surfaced in the message.
        let err = base(&["--at-epoch", "5"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("not retained"), "{msg}");
        // Stats reports the retained range.
        let out = run(&sv(&[
            "query",
            "--graph",
            &graph,
            "--stats",
            "true",
            "--history",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("epoch 0 (retained from 0)"), "{out}");
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn serve_listen_and_query_connect_end_to_end() {
        let graph = tmp("gee_cli_listen.txt");
        let port_file = tmp("gee_cli_listen.port");
        std::fs::remove_file(&port_file).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "90",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        let serve_args = sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "2",
            "--port-file",
            &port_file,
            "--k",
            "3",
            "--labeled",
            "0.5",
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        // Wait for the server to write its bound address.
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        let out = run(&sv(&["query", "--connect", &addr, "--stats", "true"])).unwrap();
        assert!(out.contains("90 vertices"), "{out}");
        let out = run(&sv(&[
            "query",
            "--connect",
            &addr,
            "--classify",
            "0,1,2",
            "--k",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("classes:"), "{out}");
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("served 2 connection(s)"), "{out}");
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn query_connect_reports_typed_errors() {
        let graph = tmp("gee_cli_connect_err.txt");
        let port_file = tmp("gee_cli_connect_err.port");
        std::fs::remove_file(&port_file).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "40",
            "--edges",
            "150",
            "--out",
            &graph,
        ]))
        .unwrap();
        let serve_args = sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "1",
            "--port-file",
            &port_file,
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        let r = run(&sv(&[
            "query",
            "--connect",
            &addr,
            "--name",
            "nope",
            "--stats",
            "true",
        ]));
        match r {
            Err(CliError::Serve(e)) => {
                assert!(
                    matches!(e, gee_serve::ServeError::UnknownGraph { .. }),
                    "{e}"
                )
            }
            other => panic!("expected typed serve error, got {other:?}"),
        }
        server.join().unwrap().unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn bench_against_live_server_emits_csv_and_json() {
        let graph = tmp("gee_cli_bench.txt");
        let port_file = tmp("gee_cli_bench.port");
        let csv_path = tmp("gee_cli_bench.csv");
        let json_path = tmp("gee_cli_bench.json");
        std::fs::remove_file(&port_file).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "150",
            "--p-in",
            "0.3",
            "--p-out",
            "0.02",
            "--out",
            &graph,
        ]))
        .unwrap();
        // 2 bench clients + 1 metrics poller + 1 final --metrics query.
        let serve_args = sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--history",
            "256",
            "--k",
            "3",
            "--labeled",
            "0.5",
            "--max-conns",
            "4",
            "--port-file",
            &port_file,
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        let out = run(&sv(&[
            "bench",
            "--connect",
            &addr,
            "--clients",
            "2",
            "--requests",
            "60",
            "--seed",
            "7",
            "--poll-metrics",
            "50",
            "--csv",
            &csv_path,
            "--json",
            &json_path,
        ]))
        .unwrap();
        assert!(out.contains("read:"), "{out}");
        // 120 client requests plus a timing-dependent number of poller
        // samples.
        assert!(out.contains("request(s) from 2 client(s)"), "{out}");
        // CSV: header + 120 client rows + at least one server row.
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(gee_loadgen::CSV_HEADER));
        assert!(csv.lines().count() > 120, "server rows interleaved: {csv}");
        assert!(csv.contains(",server,"), "{csv}");
        // JSON: the BENCH envelope with per-type stats, zero errors.
        let json = std::fs::read_to_string(&json_path).unwrap();
        let report: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(report["schema"].as_str(), Some(gee_loadgen::BENCH_SCHEMA));
        assert_eq!(report["bench"].as_str(), Some("serve_loadgen"));
        assert_eq!(report["meta"]["clients"].as_u64(), Some(2));
        for kind in ["read", "write", "timetravel", "ann", "server"] {
            let t = &report["per_type"][kind];
            assert!(t.get("count").is_some(), "missing per_type {kind}: {json}");
            assert_eq!(t["error_rate"].as_f64(), Some(0.0), "{kind} errors");
            assert!(t["p50_us"].as_f64().is_some(), "{kind} p50");
        }
        // The server's own metrics agree the traffic happened.
        let out = run(&sv(&["query", "--connect", &addr, "--metrics", "true"])).unwrap();
        assert!(out.contains("metrics: graph \"g\""), "{out}");
        server.join().unwrap().unwrap();
        // bench-report over the CSV reproduces the same per-type counts.
        let reread = run(&sv(&["bench-report", "--in", &csv_path])).unwrap();
        let reread: serde_json::Value = serde_json::from_str(&reread).unwrap();
        assert_eq!(
            reread["per_type"]["read"]["count"],
            report["per_type"]["read"]["count"]
        );
        assert_eq!(
            reread["per_type"]["read"]["p50_us"],
            report["per_type"]["read"]["p50_us"]
        );
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&port_file).ok();
        std::fs::remove_file(&csv_path).ok();
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn bench_rejects_bad_flags() {
        for args in [
            vec!["bench"],
            vec!["bench", "--connect", "127.0.0.1:1", "--mix", "red=9"],
            vec!["bench", "--connect", "127.0.0.1:1", "--clients", "0"],
            vec!["bench", "--connect", "127.0.0.1:1", "--duration", "0"],
            vec!["bench", "--connect", "127.0.0.1:1", "--qps", "-3"],
        ] {
            assert!(
                matches!(run(&sv(&args)), Err(CliError::Usage(_))),
                "{args:?}"
            );
        }
    }

    #[test]
    fn bench_report_filters_csv_to_bench_json() {
        let csv_path = tmp("gee_cli_bench_report.csv");
        std::fs::write(
            &csv_path,
            format!(
                "{}\n0,0,read,100,ok,1,\n50,1,read,200,ok,1,\n120,0,write,900,error,1,boom\n",
                gee_loadgen::CSV_HEADER
            ),
        )
        .unwrap();
        let out = run(&sv(&[
            "bench-report",
            "--in",
            &csv_path,
            "--bench",
            "smoke",
        ]))
        .unwrap();
        let report: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(report["bench"].as_str(), Some("smoke"));
        assert_eq!(report["schema"].as_str(), Some("gee-bench-v1"));
        assert_eq!(report["meta"]["records"].as_u64(), Some(3));
        assert_eq!(report["per_type"]["read"]["count"].as_u64(), Some(2));
        assert_eq!(
            report["per_type"]["write"]["error_rate"].as_f64(),
            Some(1.0)
        );
        // Malformed rows are usage errors, not panics.
        std::fs::write(&csv_path, "not,a,valid,row\n").unwrap();
        assert!(matches!(
            run(&sv(&["bench-report", "--in", &csv_path])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&csv_path).ok();
    }

    #[test]
    fn query_timing_flag_is_accepted_over_the_wire() {
        let graph = tmp("gee_cli_timing.txt");
        let port_file = tmp("gee_cli_timing.port");
        std::fs::remove_file(&port_file).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "60",
            "--edges",
            "240",
            "--out",
            &graph,
        ]))
        .unwrap();
        let serve_args = sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "1",
            "--port-file",
            &port_file,
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        // --timing writes to stderr only: stdout stays byte-identical
        // to the untimed render for the same deterministic stats view.
        let out = run(&sv(&[
            "query",
            "--connect",
            &addr,
            "--stats",
            "true",
            "--timing",
            "true",
        ]))
        .unwrap();
        assert!(out.contains("60 vertices"), "{out}");
        assert!(!out.contains("round-trip"), "timing must not hit stdout");
        server.join().unwrap().unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&port_file).ok();
    }

    #[test]
    fn serve_data_dir_survives_restart_and_recover_reports() {
        let graph = tmp("gee_cli_durable.txt");
        let script = tmp("gee_cli_durable.script");
        let data_dir = tmp("gee_cli_durable_data");
        std::fs::remove_dir_all(&data_dir).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "90",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        std::fs::write(&script, "insert 0 1 2.5\nlabel 3 1\nstats\n").unwrap();
        let out = run(&sv(&[
            "serve",
            "--graph",
            &graph,
            "--script",
            &script,
            "--k",
            "3",
            "--labeled",
            "0.5",
            "--data-dir",
            &data_dir,
        ]))
        .unwrap();
        assert!(out.contains("epoch 2"), "{out}");
        // Restart without --graph: the graph comes back from the WAL.
        std::fs::write(&script, "stats\nlabel 5 2\n").unwrap();
        let out = run(&sv(&[
            "serve",
            "--script",
            &script,
            "--data-dir",
            &data_dir,
        ]))
        .unwrap();
        assert!(
            out.contains("epoch 2 (retained from 2) | 90 vertices"),
            "{out}"
        );
        // recover: reports the state (now at epoch 3 after the label).
        let out = run(&sv(&["recover", "--data-dir", &data_dir])).unwrap();
        assert!(out.contains("recovered 1 graph(s)"), "{out}");
        assert!(out.contains("\"g\": epoch 3 | 90 vertices"), "{out}");
        // Replication coordinates: register + 3 update batches = 4
        // records, and nothing has checkpointed yet.
        assert!(out.contains("wal high-water lsn 4"), "{out}");
        assert!(out.contains("no checkpoint on disk"), "{out}");
        // --checkpoint false must NOT compact.
        let out = run(&sv(&[
            "recover",
            "--data-dir",
            &data_dir,
            "--checkpoint",
            "false",
        ]))
        .unwrap();
        assert!(!out.contains("WAL compacted"), "{out}");
        // recover --checkpoint true compacts the WAL.
        let out = run(&sv(&[
            "recover",
            "--data-dir",
            &data_dir,
            "--checkpoint",
            "true",
        ]))
        .unwrap();
        assert!(out.contains("WAL compacted"), "{out}");
        // Damage the checkpoint: recovery must fail typed, not panic.
        let ckpt = std::fs::read_dir(&data_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.to_string_lossy().ends_with(".ckpt"))
            .expect("a checkpoint exists after --checkpoint true");
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x11;
        std::fs::write(&ckpt, &bytes).unwrap();
        match run(&sv(&["recover", "--data-dir", &data_dir])) {
            Err(CliError::Serve(e)) => {
                assert!(matches!(e, gee_serve::ServeError::Corrupt { .. }), "{e}")
            }
            other => panic!("expected typed Corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&script).ok();
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn serve_follow_replicates_and_serves_identical_reads() {
        let graph = tmp("gee_cli_repl.txt");
        let script = tmp("gee_cli_repl.script");
        let leader_dir = tmp("gee_cli_repl_leader");
        let follower_dir = tmp("gee_cli_repl_follower");
        let leader_port = tmp("gee_cli_repl_leader.port");
        let repl_port = tmp("gee_cli_repl_repl.port");
        let follower_port = tmp("gee_cli_repl_follower.port");
        for f in [&leader_port, &repl_port, &follower_port] {
            std::fs::remove_file(f).ok();
        }
        for d in [&leader_dir, &follower_dir] {
            std::fs::remove_dir_all(d).ok();
        }
        run(&sv(&[
            "generate",
            "--kind",
            "sbm",
            "--blocks",
            "3",
            "--vertices",
            "90",
            "--p-in",
            "0.4",
            "--p-out",
            "0.01",
            "--out",
            &graph,
        ]))
        .unwrap();
        // Two committed write batches before any server comes up.
        std::fs::write(&script, "insert 0 1 2.5\nlabel 3 1\n").unwrap();
        run(&sv(&[
            "serve",
            "--graph",
            &graph,
            "--script",
            &script,
            "--k",
            "3",
            "--labeled",
            "0.5",
            "--data-dir",
            &leader_dir,
        ]))
        .unwrap();

        let wait_port = |file: &str| {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "no port file at {file}");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };

        // Leader: one client connection's worth of serving, plus the
        // replication listener.
        let leader_args = sv(&[
            "serve",
            "--data-dir",
            &leader_dir,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "1",
            "--port-file",
            &leader_port,
            "--replicate",
            "127.0.0.1:0",
            "--replicate-port-file",
            &repl_port,
        ]);
        let leader = std::thread::spawn(move || run(&leader_args));
        let repl_addr = wait_port(&repl_port);

        // Follower: bootstraps from the leader's stream into its own
        // data dir and serves reads on its own port.
        const FOLLOWER_CONNS: usize = 120;
        let follower_args = sv(&[
            "serve",
            "--follow",
            &repl_addr,
            "--data-dir",
            &follower_dir,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            &FOLLOWER_CONNS.to_string(),
            "--port-file",
            &follower_port,
        ]);
        let follower = std::thread::spawn(move || run(&follower_args));
        let follower_addr = wait_port(&follower_port);

        // Poll replica stats until it has converged (epoch 2, zero lag).
        let mut polls = 0;
        loop {
            let out = run(&sv(&[
                "query",
                "--connect",
                &follower_addr,
                "--stats",
                "true",
            ]))
            .unwrap();
            polls += 1;
            if out.contains("epoch 2") && out.contains("lag 0 epoch(s) / 0 lsn(s)") {
                assert!(out.contains("replication: follower (connected)"), "{out}");
                break;
            }
            assert!(polls < FOLLOWER_CONNS - 2, "replica never converged: {out}");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }

        // The same pinned read answers identically on both sides.
        let ask = |addr: &str| {
            run(&sv(&[
                "query",
                "--connect",
                addr,
                "--classify",
                "0,1,2,3",
                "--k",
                "3",
                "--at-epoch",
                "2",
            ]))
            .unwrap()
        };
        let leader_addr = wait_port(&leader_port);
        let from_leader = ask(&leader_addr);
        let from_follower = ask(&follower_addr);
        polls += 1;
        assert_eq!(from_leader, from_follower, "replica reads diverged");
        assert!(from_leader.starts_with("classes:"), "{from_leader}");

        // Drain the follower's remaining connection budget so its
        // accept loop exits and the thread joins.
        for _ in polls..FOLLOWER_CONNS {
            let _ = std::net::TcpStream::connect(&follower_addr);
        }
        let out = follower.join().unwrap().unwrap();
        assert!(out.contains("replica exiting at lsn 3"), "{out}");
        leader.join().unwrap().unwrap();

        // The replica's own recover report shows the replicated log.
        let out = run(&sv(&["recover", "--data-dir", &follower_dir])).unwrap();
        assert!(out.contains("\"g\": epoch 2 | 90 vertices"), "{out}");
        assert!(out.contains("wal high-water lsn 3"), "{out}");

        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&script).ok();
        for f in [&leader_port, &repl_port, &follower_port] {
            std::fs::remove_file(f).ok();
        }
        for d in [&leader_dir, &follower_dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn serve_follow_requires_data_dir_and_listen() {
        assert!(matches!(
            run(&sv(&["serve", "--follow", "127.0.0.1:1"])),
            Err(CliError::Usage(m)) if m.contains("--data-dir")
        ));
        let dir = tmp("gee_cli_follow_nodir");
        let r = run(&sv(&[
            "serve",
            "--follow",
            "127.0.0.1:1",
            "--data-dir",
            &dir,
        ]));
        assert!(matches!(r, Err(CliError::Usage(m)) if m.contains("--listen")));
        // --replicate without --data-dir is refused before binding anything.
        let graph = tmp("gee_cli_follow_nodir.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "30",
            "--edges",
            "60",
            "--out",
            &graph,
        ]))
        .unwrap();
        let r = run(&sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--max-conns",
            "0",
            "--replicate",
            "127.0.0.1:0",
        ]));
        assert!(matches!(r, Err(CliError::Usage(m)) if m.contains("--data-dir")));
        std::fs::remove_file(&graph).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_requires_data_dir_and_rejects_bad_sync() {
        assert!(matches!(run(&sv(&["recover"])), Err(CliError::Usage(_))));
        let data_dir = tmp("gee_cli_badsync_data");
        let r = run(&sv(&[
            "recover",
            "--data-dir",
            &data_dir,
            "--sync",
            "sometimes",
        ]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn query_requires_a_request_kind() {
        let graph = tmp("gee_cli_query_none.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "20",
            "--edges",
            "40",
            "--out",
            &graph,
        ]))
        .unwrap();
        let r = run(&sv(&["query", "--graph", &graph]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn analyze_rejects_unknown_algo() {
        let graph = tmp("gee_cli_analyze_bad.txt");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "20",
            "--edges",
            "40",
            "--out",
            &graph,
        ]))
        .unwrap();
        let r = run(&sv(&["analyze", "--graph", &graph, "--algo", "frobnicate"]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_file(&graph).ok();
    }

    #[test]
    fn serve_and_query_with_ivf_index() {
        // 600 vertices on 2 shards = 300 rows each — above the IVF
        // row-count threshold, so --index ivf genuinely indexes.
        let graph = tmp("gee_cli_ivf.txt");
        let script = tmp("gee_cli_ivf.script");
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "600",
            "--edges",
            "3600",
            "--out",
            &graph,
        ]))
        .unwrap();
        std::fs::write(&script, "similar 5 10\nclassify 0,1,2 3\nstats\n").unwrap();
        let out = run(&sv(&[
            "serve", "--graph", &graph, "--script", &script, "--shards", "2", "--index", "ivf",
            "--nprobe", "4",
        ]))
        .unwrap();
        assert!(out.contains("neighbors:"), "{out}");
        assert!(out.contains("classes:"), "{out}");
        // The per-request exact escape hatch and an ANN override both
        // answer; with a generous nprobe they agree exactly.
        let exact = run(&sv(&[
            "query",
            "--graph",
            &graph,
            "--similar",
            "5",
            "--shards",
            "2",
            "--exact",
            "true",
        ]))
        .unwrap();
        let ann_full = run(&sv(&[
            "query",
            "--graph",
            &graph,
            "--similar",
            "5",
            "--shards",
            "2",
            "--nprobe",
            "600",
        ]))
        .unwrap();
        assert!(exact.contains("neighbors:"), "{exact}");
        assert_eq!(exact, ann_full, "full probe equals the exact scan");
        // Unknown index kinds are usage errors.
        let r = run(&sv(&[
            "serve", "--graph", &graph, "--script", &script, "--index", "hnsw",
        ]));
        assert!(matches!(r, Err(CliError::Usage(_))));
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&script).ok();
    }

    #[test]
    fn query_search_overrides_travel_the_wire() {
        let graph = tmp("gee_cli_ivf_net.txt");
        let port_file = tmp("gee_cli_ivf_net.port");
        std::fs::remove_file(&port_file).ok();
        run(&sv(&[
            "generate",
            "--kind",
            "er",
            "--vertices",
            "600",
            "--edges",
            "3000",
            "--out",
            &graph,
        ]))
        .unwrap();
        let serve_args = sv(&[
            "serve",
            "--graph",
            &graph,
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--index",
            "ivf",
            "--nprobe",
            "4",
            "--max-conns",
            "2",
            "--port-file",
            &port_file,
        ]);
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(addr) = std::fs::read_to_string(&port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                tries += 1;
                assert!(tries < 200, "server never wrote its port file");
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        };
        // The exact escape hatch and an ANN override both ride the wire
        // to a --listen server configured with an IVF default.
        let out = run(&sv(&[
            "query",
            "--connect",
            &addr,
            "--similar",
            "7",
            "--exact",
            "true",
        ]))
        .unwrap();
        assert!(out.contains("neighbors:"), "{out}");
        let out = run(&sv(&[
            "query",
            "--connect",
            &addr,
            "--similar",
            "7",
            "--nprobe",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("neighbors:"), "{out}");
        server.join().unwrap().unwrap();
        std::fs::remove_file(&graph).ok();
        std::fs::remove_file(&port_file).ok();
    }
}
