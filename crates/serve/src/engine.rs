//! Typed request/response engine with batch coalescing and epoch-pinned
//! reads.
//!
//! [`Engine::execute_batch`] is the serving entry point: it walks an
//! ordered batch, coalesces maximal runs of read requests, and answers
//! each run shard-parallel against one consistent snapshot per
//! `(graph, pinned epoch)` pair. Writes ([`Request::ApplyUpdates`])
//! break a run: they flow through the registry's `DynamicGee` writer and
//! publish a new epoch copy-on-write, which the next read run observes.
//! This makes a batch observationally identical to executing its
//! requests one at a time, while amortizing snapshot acquisition and
//! letting independent reads fan out across shards and queries
//! simultaneously.
//!
//! Every read request carries an optional `at_epoch` pin: `None` reads
//! the published epoch; `Some(e)` reads the retained epoch `e` from the
//! registry's history ring ([`crate::HistoryPolicy`]) or fails with the
//! typed [`ServeError::EpochEvicted`].

use std::sync::atomic::Ordering;
use std::sync::Arc;

use rayon::prelude::*;

use crate::index::SearchPolicy;
use crate::metrics::{elapsed_us, MetricsReport, ReplicationReport, ServeMetrics};
use crate::registry::{Registry, Update};
use crate::snapshot::{ShardBlock, Snapshot};
use crate::ServeError;

/// A query or mutation against one named graph.
///
/// Part of the wire contract (encoded by [`crate::codec`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// kNN-classify each vertex from the labeled train set (majority vote
    /// of the `k` nearest labeled rows, nearest-first tiebreak — the
    /// semantics of `gee_eval::knn_classify`).
    Classify {
        vertices: Vec<u32>,
        k: usize,
        at_epoch: Option<u64>,
        /// Per-request override of the registry's [`SearchPolicy`]
        /// (`None` = use the configured default).
        search: Option<SearchPolicy>,
    },
    /// The `top` nearest vertices to `vertex` by embedding distance
    /// (Euclidean), excluding the vertex itself. Ties break toward the
    /// smaller vertex id.
    Similar {
        vertex: u32,
        top: usize,
        at_epoch: Option<u64>,
        /// Per-request override of the registry's [`SearchPolicy`]
        /// (`None` = use the configured default).
        search: Option<SearchPolicy>,
    },
    /// The raw embedding row of one vertex.
    EmbedRow { vertex: u32, at_epoch: Option<u64> },
    /// Apply a mutation batch and publish a new epoch.
    ApplyUpdates { updates: Vec<Update> },
    /// Serving statistics for the graph (optionally describing a pinned
    /// retained epoch).
    Stats { at_epoch: Option<u64> },
    /// Server observability counters: per-request-type
    /// latency histograms, coalesce sizes, back-pressure rejections,
    /// WAL fsyncs, IVF build/hit counters, plus the addressed graph's
    /// epoch state. Never pinnable — counters describe the present.
    Metrics,
}

impl Request {
    /// `Classify` with no epoch pin and the default search policy.
    pub fn classify(vertices: Vec<u32>, k: usize) -> Request {
        Request::Classify {
            vertices,
            k,
            at_epoch: None,
            search: None,
        }
    }

    /// `Similar` with no epoch pin and the default search policy.
    pub fn similar(vertex: u32, top: usize) -> Request {
        Request::Similar {
            vertex,
            top,
            at_epoch: None,
            search: None,
        }
    }

    /// `EmbedRow` with no epoch pin.
    pub fn embed_row(vertex: u32) -> Request {
        Request::EmbedRow {
            vertex,
            at_epoch: None,
        }
    }

    /// `Stats` with no epoch pin.
    pub fn stats() -> Request {
        Request::Stats { at_epoch: None }
    }

    /// The epoch this read pins, if any (`None` for writes and for
    /// `Metrics`, which always describes the present).
    pub fn at_epoch(&self) -> Option<u64> {
        match self {
            Request::Classify { at_epoch, .. }
            | Request::Similar { at_epoch, .. }
            | Request::EmbedRow { at_epoch, .. }
            | Request::Stats { at_epoch } => *at_epoch,
            Request::ApplyUpdates { .. } | Request::Metrics => None,
        }
    }

    /// This request with its epoch pin set (no-op on writes and
    /// `Metrics`).
    pub fn pinned(mut self, epoch: u64) -> Request {
        match &mut self {
            Request::Classify { at_epoch, .. }
            | Request::Similar { at_epoch, .. }
            | Request::EmbedRow { at_epoch, .. }
            | Request::Stats { at_epoch } => *at_epoch = Some(epoch),
            Request::ApplyUpdates { .. } | Request::Metrics => {}
        }
        self
    }

    /// This request with a search-policy override (no-op on requests
    /// that don't search: `EmbedRow`, `Stats`, writes).
    pub fn with_search(mut self, policy: SearchPolicy) -> Request {
        match &mut self {
            Request::Classify { search, .. } | Request::Similar { search, .. } => {
                *search = Some(policy)
            }
            _ => {}
        }
        self
    }

    /// Writes break read runs; everything else coalesces.
    fn is_write(&self) -> bool {
        matches!(self, Request::ApplyUpdates { .. })
    }
}

/// Answer to one [`Request`]. Part of the wire contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Predicted class per queried vertex, in query order.
    Classes(Vec<u32>),
    /// `(vertex, distance)` pairs, nearest first.
    Neighbors(Vec<(u32, f64)>),
    /// One embedding row.
    Row(Vec<f64>),
    /// Outcome of an update batch: updates that took effect, and the
    /// epoch they published.
    Applied { applied: usize, epoch: u64 },
    /// Serving statistics.
    Stats(GraphReport),
    /// Server observability counters.
    Metrics(MetricsReport),
}

/// Snapshot-plus-counters description of a served graph. Part of the
/// wire contract. With `Stats { at_epoch: Some(e) }` the
/// per-snapshot fields (`epoch`, `num_labeled`) describe the pinned
/// epoch; `oldest_epoch` and the counters always describe the present.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphReport {
    pub graph: String,
    pub epoch: u64,
    /// Oldest epoch still retained for `at_epoch` reads (equals the
    /// published epoch when [`crate::HistoryPolicy`] keeps 1).
    pub oldest_epoch: u64,
    pub num_vertices: usize,
    pub dim: usize,
    pub num_shards: usize,
    pub num_labeled: usize,
    /// Shard blocks of the described snapshot with a built-and-cached
    /// IVF index (counting never forces a build; the same value the
    /// `Metrics` endpoint reports for the published epoch).
    pub ann_indexed_shards: usize,
    pub queries_served: u64,
    pub updates_applied: u64,
    /// Replication role and lag gauges; `None` unless this server is a
    /// replication leader or follower.
    pub replication: Option<ReplicationReport>,
}

/// A request addressed to a named graph, for batch submission. Part of
/// the wire contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    pub graph: String,
    pub request: Request,
}

impl Envelope {
    pub fn new(graph: impl Into<String>, request: Request) -> Self {
        Envelope {
            graph: graph.into(),
            request,
        }
    }
}

/// The serving front end over a [`Registry`].
pub struct Engine {
    registry: Arc<Registry>,
}

impl Engine {
    pub fn new(registry: Arc<Registry>) -> Self {
        Engine { registry }
    }

    /// Stand up an engine over a freshly opened registry — with
    /// [`Durability::Wal`](crate::Durability::Wal) this recovers any
    /// existing state in the data directory (latest checkpoint + WAL
    /// tail replay) before serving. See
    /// [`Registry::open`](crate::Registry::open).
    pub fn open(
        default_shards: usize,
        durability: crate::Durability,
    ) -> Result<Engine, ServeError> {
        Ok(Engine::new(Arc::new(Registry::open(
            default_shards,
            durability,
        )?)))
    }

    /// Stand up an engine over a registry opened with a full
    /// [`RegistryConfig`](crate::RegistryConfig) (history retention,
    /// back-pressure, durability).
    pub fn with_config(config: crate::RegistryConfig) -> Result<Engine, ServeError> {
        Ok(Engine::new(Arc::new(Registry::with_config(config)?)))
    }

    /// The underlying registry (for registration and admin).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// An owning handle to the registry — what a
    /// [`ReplicationListener`](crate::ReplicationListener) attaches to.
    pub fn registry_handle(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    // The named methods below mirror [`Client`](crate::Client) exactly
    // (same signatures, same semantics), so in-process and over-the-wire
    // execution are interchangeable and their equivalence is
    // property-testable.

    /// kNN-classify `vertices` against the labeled train set.
    pub fn classify(
        &self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
    ) -> Result<Vec<u32>, ServeError> {
        self.classify_at(graph, vertices, k, None)
    }

    /// [`Engine::classify`] pinned to a retained epoch.
    pub fn classify_at(
        &self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
        at_epoch: Option<u64>,
    ) -> Result<Vec<u32>, ServeError> {
        self.classify_with(graph, vertices, k, at_epoch, None)
    }

    /// [`Engine::classify`] with an epoch pin and/or a search-policy
    /// override (`None` = the registry's configured default).
    pub fn classify_with(
        &self,
        graph: &str,
        vertices: Vec<u32>,
        k: usize,
        at_epoch: Option<u64>,
        search: Option<SearchPolicy>,
    ) -> Result<Vec<u32>, ServeError> {
        match self.execute(
            graph,
            Request::Classify {
                vertices,
                k,
                at_epoch,
                search,
            },
        )? {
            Response::Classes(classes) => Ok(classes),
            other => unreachable!("Classify answered with {other:?}"),
        }
    }

    /// The `top` nearest vertices to `vertex`.
    pub fn similar(
        &self,
        graph: &str,
        vertex: u32,
        top: usize,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        self.similar_at(graph, vertex, top, None)
    }

    /// [`Engine::similar`] pinned to a retained epoch.
    pub fn similar_at(
        &self,
        graph: &str,
        vertex: u32,
        top: usize,
        at_epoch: Option<u64>,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        self.similar_with(graph, vertex, top, at_epoch, None)
    }

    /// [`Engine::similar`] with an epoch pin and/or a search-policy
    /// override (`None` = the registry's configured default).
    pub fn similar_with(
        &self,
        graph: &str,
        vertex: u32,
        top: usize,
        at_epoch: Option<u64>,
        search: Option<SearchPolicy>,
    ) -> Result<Vec<(u32, f64)>, ServeError> {
        match self.execute(
            graph,
            Request::Similar {
                vertex,
                top,
                at_epoch,
                search,
            },
        )? {
            Response::Neighbors(neighbors) => Ok(neighbors),
            other => unreachable!("Similar answered with {other:?}"),
        }
    }

    /// One raw embedding row.
    pub fn embed_row(&self, graph: &str, vertex: u32) -> Result<Vec<f64>, ServeError> {
        self.embed_row_at(graph, vertex, None)
    }

    /// [`Engine::embed_row`] pinned to a retained epoch.
    pub fn embed_row_at(
        &self,
        graph: &str,
        vertex: u32,
        at_epoch: Option<u64>,
    ) -> Result<Vec<f64>, ServeError> {
        match self.execute(graph, Request::EmbedRow { vertex, at_epoch })? {
            Response::Row(row) => Ok(row),
            other => unreachable!("EmbedRow answered with {other:?}"),
        }
    }

    /// Apply a mutation batch; returns `(applied, epoch)`.
    pub fn apply_updates(
        &self,
        graph: &str,
        updates: Vec<Update>,
    ) -> Result<(usize, u64), ServeError> {
        match self.execute(graph, Request::ApplyUpdates { updates })? {
            Response::Applied { applied, epoch } => Ok((applied, epoch)),
            other => unreachable!("ApplyUpdates answered with {other:?}"),
        }
    }

    /// Serving statistics for one graph.
    pub fn stats(&self, graph: &str) -> Result<GraphReport, ServeError> {
        self.stats_at(graph, None)
    }

    /// [`Engine::stats`] describing a pinned retained epoch.
    pub fn stats_at(&self, graph: &str, at_epoch: Option<u64>) -> Result<GraphReport, ServeError> {
        match self.execute(graph, Request::Stats { at_epoch })? {
            Response::Stats(report) => Ok(report),
            other => unreachable!("Stats answered with {other:?}"),
        }
    }

    /// Server observability counters, addressed to one
    /// graph for its epoch state; the histograms and counters describe
    /// the whole registry.
    pub fn metrics(&self, graph: &str) -> Result<MetricsReport, ServeError> {
        match self.execute(graph, Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => unreachable!("Metrics answered with {other:?}"),
        }
    }

    /// Execute one request.
    pub fn execute(&self, graph: &str, request: Request) -> Result<Response, ServeError> {
        self.execute_batch(vec![Envelope::new(graph, request)])
            .pop()
            .expect("one request in, one response out")
    }

    /// Execute an ordered batch. Responses come back in request order;
    /// each failed request carries its own error without aborting the
    /// rest of the batch.
    pub fn execute_batch(&self, batch: Vec<Envelope>) -> Vec<Result<Response, ServeError>> {
        let mut out: Vec<Option<Result<Response, ServeError>>> =
            (0..batch.len()).map(|_| None).collect();
        let metrics = self.registry.serve_metrics();
        let mut i = 0usize;
        while i < batch.len() {
            if batch[i].request.is_write() {
                let started = std::time::Instant::now();
                out[i] = Some(self.execute_write(&batch[i]));
                metrics.apply_updates.record(elapsed_us(started));
                i += 1;
            } else {
                // Coalesce the maximal run of reads starting here.
                let mut j = i;
                while j < batch.len() && !batch[j].request.is_write() {
                    j += 1;
                }
                let run = &batch[i..j];
                // One entry + snapshot resolution per (graph, pinned
                // epoch) for the whole run: unpinned reads in the run
                // see a single consistent published epoch per graph,
                // pinned reads their retained epoch, and the registry
                // lock is not re-taken per request inside the parallel
                // region (so a concurrent deregister cannot fail reads
                // that already hold their snapshot).
                type Resolved = Result<(Arc<crate::registry::Entry>, Arc<Snapshot>), ServeError>;
                type Key = (String, Option<u64>);
                let mut snaps: Vec<(Key, Resolved)> = Vec::new();
                for env in run {
                    let pin = env.request.at_epoch();
                    if !snaps.iter().any(|(k, _)| k.0 == env.graph && k.1 == pin) {
                        let resolved = self.registry.entry(&env.graph).and_then(|entry| {
                            let snap = entry.snapshot_sel(&env.graph, pin)?;
                            Ok((entry, snap))
                        });
                        snaps.push(((env.graph.clone(), pin), resolved));
                    }
                }
                metrics.coalesce.record(run.len() as u64);
                // Pair each request with its snapshot and count it, in
                // request order, *before* fanning out: a `Stats`/`Metrics`
                // inside the run then reports the `queries_served` it would
                // have seen executing one at a time — not however far its
                // siblings happen to have got.
                let prepared: Vec<(&Resolved, u64)> = run
                    .iter()
                    .map(|env| {
                        let pin = env.request.at_epoch();
                        let (_, resolved) = snaps
                            .iter()
                            .find(|(k, _)| k.0 == env.graph && k.1 == pin)
                            .expect("snapshot prefetched for every (graph, epoch) in run");
                        let served = match resolved {
                            Ok((entry, _)) => {
                                entry.queries_served.fetch_add(1, Ordering::Relaxed) + 1
                            }
                            Err(_) => 0,
                        };
                        (resolved, served)
                    })
                    .collect();
                let answers: Vec<Result<Response, ServeError>> = run
                    .par_iter()
                    .zip(&prepared)
                    .map(|(env, &(resolved, served))| {
                        let started = std::time::Instant::now();
                        let answer = match resolved {
                            Err(e) => Err(e.clone()),
                            Ok((entry, snap)) => {
                                self.execute_read(&env.graph, &env.request, entry, snap, served)
                            }
                        };
                        metrics
                            .request_histogram(&env.request)
                            .record(elapsed_us(started));
                        answer
                    })
                    .collect();
                for (slot, ans) in out[i..j].iter_mut().zip(answers) {
                    *slot = Some(ans);
                }
                i = j;
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot answered"))
            .collect()
    }

    fn execute_write(&self, env: &Envelope) -> Result<Response, ServeError> {
        let Request::ApplyUpdates { updates } = &env.request else {
            unreachable!("only ApplyUpdates is a write");
        };
        let (applied, snap) = self.registry.apply_updates(&env.graph, updates)?;
        Ok(Response::Applied {
            applied,
            epoch: snap.epoch,
        })
    }

    fn execute_read(
        &self,
        graph: &str,
        request: &Request,
        entry: &crate::registry::Entry,
        snap: &Snapshot,
        queries_served: u64,
    ) -> Result<Response, ServeError> {
        let n = snap.num_vertices();
        let check = |v: u32| {
            if (v as usize) < n {
                Ok(())
            } else {
                Err(ServeError::VertexOutOfRange {
                    vertex: v,
                    num_vertices: n,
                })
            }
        };
        match request {
            Request::Classify {
                vertices,
                k,
                search,
                ..
            } => {
                if *k == 0 {
                    return Err(ServeError::ZeroLimit { param: "k".into() });
                }
                if snap.num_labeled() == 0 {
                    return Err(ServeError::NoLabeledVertices {
                        graph: graph.to_string(),
                    });
                }
                let ann = self.resolve_search(*search)?;
                for &v in vertices {
                    check(v)?;
                }
                // One query: parallelize its scan across shards. Many
                // queries: parallelize across queries (serial shard walk
                // inside) — same answers, one parallel region instead of
                // one per query.
                let metrics = self.registry.serve_metrics();
                let classes = if vertices.len() == 1 {
                    vec![classify_one(snap, vertices[0], *k, true, ann, metrics)]
                } else {
                    vertices
                        .par_iter()
                        .map(|&q| classify_one(snap, q, *k, false, ann, metrics))
                        .collect()
                };
                Ok(Response::Classes(classes))
            }
            Request::Similar {
                vertex,
                top,
                search,
                ..
            } => {
                if *top == 0 {
                    return Err(ServeError::ZeroLimit {
                        param: "top".into(),
                    });
                }
                let ann = self.resolve_search(*search)?;
                check(*vertex)?;
                Ok(Response::Neighbors(similar(
                    snap,
                    *vertex,
                    *top,
                    ann,
                    self.registry.serve_metrics(),
                )))
            }
            Request::EmbedRow { vertex, .. } => {
                check(*vertex)?;
                Ok(Response::Row(snap.row(*vertex).to_vec()))
            }
            Request::Stats { .. } => {
                let (oldest_epoch, _) = entry.epoch_range();
                Ok(Response::Stats(GraphReport {
                    graph: graph.to_string(),
                    epoch: snap.epoch,
                    oldest_epoch,
                    num_vertices: n,
                    dim: snap.dim(),
                    num_shards: snap.num_shards(),
                    num_labeled: snap.num_labeled(),
                    ann_indexed_shards: ann_indexed_shards(snap),
                    queries_served,
                    updates_applied: entry.updates_applied.load(Ordering::Relaxed),
                    replication: self.registry.replication_report(),
                }))
            }
            Request::Metrics => {
                let m = self.registry.serve_metrics();
                let (oldest_epoch, _) = entry.epoch_range();
                Ok(Response::Metrics(MetricsReport {
                    graph: graph.to_string(),
                    epoch: snap.epoch,
                    oldest_epoch,
                    history_depth: entry.history_depth(),
                    ann_indexed_shards: ann_indexed_shards(snap),
                    queries_served,
                    updates_applied: entry.updates_applied.load(Ordering::Relaxed),
                    classify_us: m.classify.report(),
                    similar_us: m.similar.report(),
                    embed_row_us: m.embed_row.report(),
                    stats_us: m.stats.report(),
                    metrics_us: m.metrics.report(),
                    apply_updates_us: m.apply_updates.report(),
                    coalesce: m.coalesce.report(),
                    overloaded: m.overloaded.load(Ordering::Relaxed),
                    wal_fsyncs: self.registry.wal_fsyncs(),
                    ivf_builds: m.ivf_builds.load(Ordering::Relaxed),
                    ivf_hits: m.ivf_hits.load(Ordering::Relaxed),
                    replication: self.registry.replication_report(),
                }))
            }
            Request::ApplyUpdates { .. } => unreachable!("writes handled in execute_write"),
        }
    }

    /// Resolve a request's search override against the registry default
    /// and validate ANN parameters. Returns the `(nprobe, refine)` pair
    /// for approximate search, `None` for exact.
    fn resolve_search(
        &self,
        search: Option<SearchPolicy>,
    ) -> Result<Option<(usize, usize)>, ServeError> {
        let policy = search.unwrap_or_else(|| self.registry.search_policy());
        policy.validate()?;
        match policy {
            SearchPolicy::Exact => Ok(None),
            SearchPolicy::Ann { nprobe, refine } => Ok(Some((nprobe, refine))),
        }
    }
}

/// Shard blocks of `snap` with a built-and-cached IVF index. Counting
/// peeks the cache ([`ShardBlock::ann_index_cached`]) and never forces
/// a build, so `Stats`/`Metrics` stay read-only probes.
fn ann_indexed_shards(snap: &Snapshot) -> usize {
    snap.blocks()
        .iter()
        .filter(|b| b.ann_index_cached().is_some())
        .count()
}

/// kNN-classify one vertex: scan each shard block's train set in
/// parallel for its local k-best, merge to the global k-best, then
/// majority-vote with nearest-first tiebreak — exactly the semantics of
/// `gee_eval::knn_classify`, sharded.
///
/// `knn_classify` iterates the train set in vertex order and inserts each
/// candidate *before* equal-distance incumbents, so its k-best list is
/// ordered by `(distance asc, vertex desc)` and the boundary drops the
/// smallest-vertex entries among equals. The shard scan reproduces that
/// ordering locally (per-shard train sets ascend) and the merge re-sorts
/// by the same key, so the final list — membership and order — is
/// identical to the unsharded scan.
///
/// With `ann = Some((nprobe, refine))` the k-best comes from a global
/// IVF probe instead ([`classify_knn_ann`]); the majority vote is shared.
///
/// A train vertex's row lives in its own shard's block, so each shard
/// scan reads one block's rows directly; only the query row needs the
/// cross-block lookup.
fn classify_one(
    snap: &Snapshot,
    q: u32,
    k: usize,
    parallel_shards: bool,
    ann: Option<(usize, usize)>,
    metrics: &ServeMetrics,
) -> u32 {
    let qr = snap.row(q);
    let merged: Vec<(f64, u32, u32)> = if let Some((nprobe, refine)) = ann {
        classify_knn_ann(snap, qr, k, nprobe, refine, metrics)
    } else {
        let scan_block = |block: &Arc<ShardBlock>| {
            // Cap the preallocation at the block's train size: `k` is
            // client-controlled and may be huge (`usize::MAX` kNN must
            // degrade to "every labeled vertex votes", not abort on an
            // absurd allocation).
            let mut best: Vec<(f64, u32, u32)> =
                Vec::with_capacity(k.saturating_add(1).min(block.train().len() + 1));
            for &(t, class) in block.train() {
                let d = crate::index::row_dist2(qr, block.row(t));
                let pos = best.partition_point(|&(bd, ..)| bd < d);
                if pos < k {
                    best.insert(pos, (d, t, class));
                    if best.len() > k {
                        best.pop();
                    }
                }
            }
            best
        };
        let per_shard: Vec<Vec<(f64, u32, u32)>> = if parallel_shards {
            snap.blocks().par_iter().map(scan_block).collect()
        } else {
            snap.blocks().iter().map(scan_block).collect()
        };
        let mut merged: Vec<(f64, u32, u32)> = per_shard.into_iter().flatten().collect();
        merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        merged.truncate(k);
        merged
    };
    let mut counts: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &(.., c) in &merged {
        *counts.entry(c).or_default() += 1;
    }
    let top = counts.values().max().copied().unwrap_or(0);
    merged
        .iter()
        .find(|&&(.., c)| counts[&c] == top)
        .map(|&(.., c)| c)
        .expect("labeled train set is nonempty")
}

/// One step of an IVF global probe: either a whole block to scan
/// exactly (no index, or the query limit covers its pool) or one
/// inverted list of an indexed block.
enum ProbeScan<'a> {
    Block(&'a ShardBlock),
    List(&'a ShardBlock, &'a crate::index::IvfIndex, usize),
}

/// The shared two-phase IVF probe driver behind [`similar_ann`] and
/// [`classify_knn_ann`] — the one place that owns the probe contract:
/// rank every indexed block's centroids in a single global ordering
/// (ties toward the lower block, then list, id), scan exact-fallback
/// blocks up front, then visit the globally nearest lists until at
/// least `nprobe` lists were probed *and* the scanned candidate pool
/// holds `want_pool` entries — or everything was visited, at which
/// point the scanned set is the whole pool and the answer equals the
/// exact scan. `uses_index` decides the per-block fallback; `scan`
/// feeds candidates into the caller's [`Selection`](crate::index) and
/// returns how many it scanned.
fn ivf_probe(
    snap: &Snapshot,
    qr: &[f64],
    nprobe: usize,
    want_pool: usize,
    metrics: &ServeMetrics,
    uses_index: impl Fn(&ShardBlock) -> bool,
    mut scan: impl FnMut(ProbeScan<'_>) -> usize,
) {
    let mut seen = 0usize;
    let mut probe: Vec<(f64, u32, u32)> = Vec::new(); // (dist², block, list)
    let mut scratch = Vec::new();
    for (bi, block) in snap.blocks().iter().enumerate() {
        // Probing everything is the same scan, sans centroid overhead.
        let index = if uses_index(block) {
            // Build/hit accounting, per block touched: the probe that
            // runs the lazy build counts it, every other probe (one
            // that waited on a racing build included) counts a hit.
            let (index, built) = block.ann_index_and_built();
            if index.is_some() {
                let counter = if built {
                    &metrics.ivf_builds
                } else {
                    &metrics.ivf_hits
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            index
        } else {
            None
        };
        match index {
            Some(index) => {
                index.centroid_dist2(qr, &mut scratch);
                probe.extend(
                    scratch
                        .iter()
                        .enumerate()
                        .map(|(li, &d)| (d, bi as u32, li as u32)),
                );
            }
            None => seen += scan(ProbeScan::Block(block)),
        }
    }
    probe.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    for (probed, &(_, bi, li)) in probe.iter().enumerate() {
        if probed >= nprobe && seen >= want_pool {
            break;
        }
        let block = &snap.blocks()[bi as usize];
        let index = block.ann_index().expect("probed blocks are indexed");
        seen += scan(ProbeScan::List(block, index, li as usize));
    }
}

/// Global-probe IVF k-best for `Classify`: scan the nearest lists'
/// *labeled* entries (blocks without an index, and blocks whose whole
/// train set fits in `k`, scan exactly) and keep the k-best under the
/// exact merge's total key `(distance asc, vertex desc)`. Unique keys
/// make the result independent of probe order — probing everything
/// *equals* the exact scan.
fn classify_knn_ann(
    snap: &Snapshot,
    qr: &[f64],
    k: usize,
    nprobe: usize,
    refine: usize,
    metrics: &ServeMetrics,
) -> Vec<(f64, u32, u32)> {
    let lt =
        |a: &(f64, u32, u32), b: &(f64, u32, u32)| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)).is_lt();
    let mut best = crate::index::Selection::new(k, snap.num_labeled());
    let mut feed = |block: &ShardBlock, train_indices: Option<&[u32]>| -> usize {
        let train = block.train();
        let entry = |ti: usize| train[ti];
        let mut fed = 0usize;
        let mut push_entry = |(t, class): (u32, u32)| {
            fed += 1;
            best.push((crate::index::row_dist2(qr, block.row(t)), t, class), lt);
        };
        match train_indices {
            Some(tis) => tis.iter().for_each(|&ti| push_entry(entry(ti as usize))),
            None => train.iter().copied().for_each(&mut push_entry),
        }
        fed
    };
    ivf_probe(
        snap,
        qr,
        nprobe,
        k.saturating_mul(refine).max(k),
        metrics,
        |block| k < block.train().len(),
        |step| match step {
            ProbeScan::Block(block) => feed(block, None),
            ProbeScan::List(block, index, li) => feed(block, Some(&index.train_lists()[li])),
        },
    );
    best.into_vec()
}

/// Exact nearest-neighbor sweep for `Similar`: each block's own top
/// list ([`ShardBlock::nearest`]), merged under `(distance, id)` — or,
/// with `ann = Some((nprobe, refine))`, a global IVF probe
/// ([`similar_ann`]). Runs on the calling thread: concurrent requests
/// already keep every core busy, and once a block has grouped its rows
/// its scan takes tens of microseconds, less than a parallel region
/// costs to start.
fn similar(
    snap: &Snapshot,
    vertex: u32,
    top: usize,
    ann: Option<(usize, usize)>,
    metrics: &ServeMetrics,
) -> Vec<(u32, f64)> {
    debug_assert!(top > 0, "top = 0 is rejected before the sweep");
    if let Some((nprobe, refine)) = ann {
        return similar_ann(snap, vertex, top, nprobe, refine, metrics);
    }
    let qr = snap.row(vertex);
    let mut merged: Vec<(f64, u32)> = snap
        .blocks()
        .iter()
        .flat_map(|block| block.nearest(qr, top, Some(vertex)))
        .collect();
    merged.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    merged.truncate(top);
    merged.into_iter().map(|(d, v)| (v, d.sqrt())).collect()
}

/// Global-probe IVF `Similar`: rank every indexed block's centroids in
/// one ordering and scan the globally nearest `nprobe` lists (more
/// until the pool holds `refine × top` candidates or everything was
/// visited). Blocks without an index — and blocks whose whole range
/// fits in `top` — are scanned exactly and feed the same selection.
/// The kept set is ordered by the total key `(distance, id)`, so the
/// answer is a pure function of the scanned candidate *set*: probing
/// everything equals the exact sweep, ties included. Runs on the
/// calling thread — a probe is tiny (one centroid ranking plus a few
/// lists), so batch-level parallelism across queries is the win, not a
/// rayon fan-out per probe.
fn similar_ann(
    snap: &Snapshot,
    vertex: u32,
    top: usize,
    nprobe: usize,
    refine: usize,
    metrics: &ServeMetrics,
) -> Vec<(u32, f64)> {
    let qr = snap.row(vertex);
    let lt = crate::index::by_distance_then_id;
    let mut best = crate::index::Selection::new(top, snap.num_vertices());
    let mut feed = |block: &ShardBlock, rows: Option<&[u32]>| -> usize {
        let (lo, hi) = block.range();
        let mut fed = 0usize;
        let mut push_row = |v: u32| {
            if v != vertex {
                fed += 1;
                best.push((crate::index::row_dist2(qr, block.row(v)), v), lt);
            }
        };
        match rows {
            Some(locals) => locals.iter().for_each(|&r| push_row(lo + r)),
            None => (lo..hi).for_each(&mut push_row),
        }
        fed
    };
    ivf_probe(
        snap,
        qr,
        nprobe,
        top.saturating_mul(refine).max(top),
        metrics,
        |block| {
            let (lo, hi) = block.range();
            top < (hi - lo) as usize
        },
        |step| match step {
            ProbeScan::Block(block) => feed(block, None),
            ProbeScan::List(block, index, li) => feed(block, Some(&index.lists()[li])),
        },
    );
    best.into_vec()
        .into_iter()
        .map(|(d, v)| (v, d.sqrt()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gee_core::Labels;
    use gee_gen::LabelSpec;

    fn engine(shards: usize) -> (Engine, usize) {
        let n = 120;
        let el = gee_gen::erdos_renyi_gnm(n, 900, 21);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                n,
                LabelSpec {
                    num_classes: 5,
                    labeled_fraction: 0.3,
                },
                3,
            ),
            5,
        );
        let reg = Registry::new(shards);
        reg.register("g", &el, &labels).unwrap();
        (Engine::new(Arc::new(reg)), n)
    }

    #[test]
    fn classify_matches_eval_knn() {
        let (engine, n) = engine(4);
        let snap = engine.registry().snapshot("g").unwrap();
        let queries: Vec<u32> = (0..n as u32).collect();
        let train: Vec<(u32, u32)> = snap.iter_labeled().collect();
        let z = snap.to_embedding();
        for k in [1, 3, 7] {
            let expected = gee_eval::knn_classify(z.as_slice(), z.dim(), &train, &queries, k);
            let got = match engine
                .execute("g", Request::classify(queries.clone(), k))
                .unwrap()
            {
                Response::Classes(c) => c,
                other => panic!("unexpected response {other:?}"),
            };
            assert_eq!(got, expected, "k = {k}");
        }
    }

    #[test]
    fn classify_identical_across_shard_counts() {
        let all: Vec<Vec<u32>> = [1usize, 2, 5, 16]
            .into_iter()
            .map(|s| {
                let (engine, n) = engine(s);
                match engine
                    .execute("g", Request::classify((0..n as u32).collect(), 5))
                    .unwrap()
                {
                    Response::Classes(c) => c,
                    other => panic!("unexpected response {other:?}"),
                }
            })
            .collect();
        for w in all.windows(2) {
            assert_eq!(w[0], w[1], "shard count must not change answers");
        }
    }

    #[test]
    fn similar_finds_nearest_and_excludes_self() {
        let (engine, _) = engine(3);
        let got = match engine.execute("g", Request::similar(7, 10)).unwrap() {
            Response::Neighbors(x) => x,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|&(v, _)| v != 7), "self must be excluded");
        assert!(
            got.windows(2).all(|w| w[0].1 <= w[1].1),
            "must be sorted by distance"
        );
        // Oracle: serial full scan.
        let snap = engine.registry().snapshot("g").unwrap();
        let z = snap.to_embedding();
        let mut all: Vec<(f64, u32)> = (0..z.num_vertices() as u32)
            .filter(|&v| v != 7)
            .map(|v| {
                let d: f64 = z
                    .row(7)
                    .iter()
                    .zip(z.row(v))
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                (d.sqrt(), v)
            })
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let expected: Vec<(u32, f64)> = all[..10].iter().map(|&(d, v)| (v, d)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn nan_distances_follow_the_merge_order() {
        // Finite weights whose sums overflow: rows 3, 5 and 7 are
        // (+∞, 0), so 3's distance to 5 and to 7 is (∞ − ∞)² = NaN.
        // One shard holds them all; the answer must be the total
        // `(distance, id)` order's, NaN included.
        let big = 1e308;
        let mut edges = Vec::new();
        for v in [3, 5, 7] {
            for u in [0, 1, 0, 1] {
                edges.push(gee_graph::Edge::new(v, u, big));
            }
        }
        edges.push(gee_graph::Edge::new(2, 8, 1.0));
        edges.push(gee_graph::Edge::new(4, 0, 1.0));
        let el = gee_graph::EdgeList::new_unchecked(9, edges);
        let mut y = vec![None; 9];
        (y[0], y[1], y[8]) = (Some(0), Some(0), Some(1));
        let reg = Registry::new(1);
        reg.register("g", &el, &Labels::from_options_with_k(&y, 2))
            .unwrap();
        let engine = Engine::new(Arc::new(reg));
        let snap = engine.registry().snapshot("g").unwrap();
        let q = snap.row(3);
        assert!(crate::index::row_dist2(q, snap.row(5)).is_nan());
        let mut all: Vec<(f64, u32)> = (0..9)
            .filter(|&v| v != 3)
            .map(|v| (crate::index::row_dist2(q, snap.row(v)), v))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for top in 1..=9 {
            let got = match engine.execute("g", Request::similar(3, top)).unwrap() {
                Response::Neighbors(x) => x,
                other => panic!("unexpected response {other:?}"),
            };
            let want: Vec<(u32, u64)> = all
                .iter()
                .take(top)
                .map(|&(d, v)| (v, d.sqrt().to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = got.iter().map(|&(v, d)| (v, d.to_bits())).collect();
            assert_eq!(got, want, "top {top}");
        }
    }

    #[test]
    fn batch_equals_one_at_a_time() {
        let make_batch = || {
            vec![
                Envelope::new("g", Request::embed_row(3)),
                Envelope::new("g", Request::classify(vec![1, 2, 3], 3)),
                Envelope::new(
                    "g",
                    Request::ApplyUpdates {
                        updates: vec![
                            Update::InsertEdge { u: 1, v: 2, w: 5.0 },
                            Update::SetLabel {
                                v: 2,
                                label: Some(1),
                            },
                        ],
                    },
                ),
                Envelope::new("g", Request::classify(vec![1, 2, 3], 3)),
                Envelope::new("g", Request::similar(1, 5)),
            ]
        };
        let (engine_a, _) = engine(4);
        let batched: Vec<_> = engine_a
            .execute_batch(make_batch())
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let (engine_b, _) = engine(4);
        let sequential: Vec<_> = make_batch()
            .into_iter()
            .map(|e| engine_b.execute(&e.graph, e.request).unwrap())
            .collect();
        assert_eq!(batched, sequential);
        // The post-update classify must observe the new epoch.
        assert!(matches!(batched[2], Response::Applied { epoch: 1, .. }));
    }

    #[test]
    fn reads_in_one_run_share_an_epoch() {
        let (engine, _) = engine(2);
        let batch = vec![
            Envelope::new("g", Request::stats()),
            Envelope::new("g", Request::stats()),
        ];
        let epochs: Vec<u64> = engine
            .execute_batch(batch)
            .into_iter()
            .map(|r| match r.unwrap() {
                Response::Stats(s) => s.epoch,
                other => panic!("unexpected response {other:?}"),
            })
            .collect();
        assert_eq!(epochs[0], epochs[1]);
    }

    #[test]
    fn errors_are_per_request() {
        let (engine, n) = engine(2);
        let batch = vec![
            Envelope::new("g", Request::embed_row(0)),
            Envelope::new("g", Request::embed_row(n as u32)), // out of range
            Envelope::new("missing", Request::stats()),       // unknown graph
            Envelope::new("g", Request::classify(vec![0], 0)), // bad k
        ];
        let results = engine.execute_batch(batch);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ServeError::VertexOutOfRange { .. })
        ));
        assert!(matches!(results[2], Err(ServeError::UnknownGraph { .. })));
        assert!(matches!(results[3], Err(ServeError::ZeroLimit { .. })));
    }

    #[test]
    fn read_paths_reject_out_of_range_vertices() {
        // Regression: every read path must return a typed error for a
        // vertex id at/beyond n, not panic on slice indexing.
        let (engine, n) = engine(3);
        for (name, req) in [
            ("Similar", Request::similar(n as u32, 5)),
            ("EmbedRow", Request::embed_row(u32::MAX)),
            // Out-of-range in the middle of an otherwise valid list.
            ("Classify", Request::classify(vec![0, n as u32, 1], 3)),
        ] {
            let got = engine.execute("g", req);
            assert!(
                matches!(got, Err(ServeError::VertexOutOfRange { .. })),
                "{name}: expected VertexOutOfRange, got {got:?}"
            );
        }
    }

    #[test]
    fn zero_limits_are_typed_errors() {
        let (engine, _) = engine(2);
        assert_eq!(
            engine.execute("g", Request::similar(0, 0)),
            Err(ServeError::ZeroLimit {
                param: "top".into()
            })
        );
        assert_eq!(
            engine.execute("g", Request::classify(vec![0], 0)),
            Err(ServeError::ZeroLimit { param: "k".into() })
        );
    }

    #[test]
    fn classify_without_labels_is_a_typed_error() {
        let reg = Registry::new(2);
        let el = gee_gen::erdos_renyi_gnm(30, 100, 4);
        reg.register(
            "bare",
            &el,
            &gee_core::Labels::from_options_with_k(&vec![None; 30], 3),
        )
        .unwrap();
        let engine = Engine::new(Arc::new(reg));
        assert_eq!(
            engine.execute("bare", Request::classify(vec![0], 3)),
            Err(ServeError::NoLabeledVertices {
                graph: "bare".into()
            })
        );
    }

    #[test]
    fn named_methods_mirror_execute() {
        let (engine, _) = engine(3);
        assert_eq!(
            engine.classify("g", vec![0, 1], 3).unwrap(),
            match engine
                .execute("g", Request::classify(vec![0, 1], 3))
                .unwrap()
            {
                Response::Classes(c) => c,
                other => panic!("unexpected response {other:?}"),
            }
        );
        assert_eq!(engine.similar("g", 2, 4).unwrap().len(), 4);
        assert_eq!(engine.embed_row("g", 0).unwrap().len(), 5);
        let (applied, epoch) = engine
            .apply_updates("g", vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }])
            .unwrap();
        assert_eq!((applied, epoch), (1, 1));
        assert_eq!(engine.stats("g").unwrap().epoch, 1);
    }

    #[test]
    fn stats_counts_queries_and_updates() {
        let (engine, _) = engine(2);
        engine.execute("g", Request::embed_row(0)).unwrap();
        engine
            .execute(
                "g",
                Request::ApplyUpdates {
                    updates: vec![Update::InsertEdge { u: 0, v: 1, w: 1.0 }],
                },
            )
            .unwrap();
        let report = match engine.execute("g", Request::stats()).unwrap() {
            Response::Stats(s) => s,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(report.epoch, 1);
        assert_eq!(report.oldest_epoch, 1, "default history keeps 1 epoch");
        assert_eq!(report.updates_applied, 1);
        assert!(report.queries_served >= 1);
        assert_eq!(report.num_shards, 2);
    }

    /// A `Stats` inside a coalesced read run reports the query count it
    /// would have seen executing one at a time, however the run's
    /// parallel siblings are scheduled — twin engines must answer the
    /// same batch identically (`tests/network.rs` depends on it).
    #[test]
    fn stats_inside_a_read_run_counts_as_if_sequential() {
        let (engine, n) = engine(3);
        for round in 0..20u64 {
            let mut batch: Vec<Envelope> = (0..16u32)
                .map(|v| Envelope::new("g", Request::similar(v % n as u32, 5)))
                .collect();
            batch.insert(7, Envelope::new("g", Request::stats()));
            batch.push(Envelope::new("g", Request::Metrics));
            let answers = engine.execute_batch(batch);
            let base = round * 18;
            match (&answers[7], &answers[17]) {
                (Ok(Response::Stats(stats)), Ok(Response::Metrics(metrics))) => {
                    assert_eq!(stats.queries_served, base + 8, "round {round}");
                    assert_eq!(metrics.queries_served, base + 18, "round {round}");
                }
                other => panic!("unexpected responses {other:?}"),
            }
        }
    }

    #[test]
    fn pinned_reads_travel_in_time() {
        let n = 60;
        let el = gee_gen::erdos_renyi_gnm(n, 300, 77);
        let labels = Labels::from_options_with_k(
            &gee_gen::random_labels(
                n,
                LabelSpec {
                    num_classes: 3,
                    labeled_fraction: 0.4,
                },
                9,
            ),
            3,
        );
        let engine = Engine::with_config(crate::RegistryConfig {
            default_shards: 4,
            history: crate::HistoryPolicy::keep(4),
            ..crate::RegistryConfig::default()
        })
        .unwrap();
        engine.registry().register("g", &el, &labels).unwrap();
        let row_then = engine.embed_row("g", 5).unwrap();
        let classes_then = engine.classify("g", vec![0, 1, 2], 3).unwrap();
        for i in 0..3u32 {
            engine
                .apply_updates(
                    "g",
                    vec![Update::InsertEdge {
                        u: 5,
                        v: (i * 13 + 1) % n as u32,
                        w: 4.0 + f64::from(i),
                    }],
                )
                .unwrap();
        }
        // Pinned at epoch 0, every read answers exactly as it did then.
        assert_eq!(engine.embed_row_at("g", 5, Some(0)).unwrap(), row_then);
        assert_eq!(
            engine.classify_at("g", vec![0, 1, 2], 3, Some(0)).unwrap(),
            classes_then
        );
        assert_eq!(
            engine.similar_at("g", 5, 4, Some(0)).unwrap(),
            engine.similar_at("g", 5, 4, Some(0)).unwrap(),
            "pinned reads are stable"
        );
        let pinned = engine.stats_at("g", Some(1)).unwrap();
        assert_eq!((pinned.epoch, pinned.oldest_epoch), (1, 0));
        // Unpinned reads see the newest epoch.
        assert_eq!(engine.stats("g").unwrap().epoch, 3);
        assert_ne!(engine.embed_row("g", 5).unwrap(), row_then);
        // Pins outside the ring are typed errors.
        assert!(matches!(
            engine.embed_row_at("g", 5, Some(99)),
            Err(ServeError::EpochEvicted {
                oldest: 0,
                newest: 3,
                ..
            })
        ));
    }

    #[test]
    fn one_run_serves_multiple_pinned_epochs_consistently() {
        let (engine, _) = engine(3);
        // Default history keeps 1: pinning the published epoch works,
        // anything else is evicted.
        let epoch = engine.stats("g").unwrap().epoch;
        let batch = vec![
            Envelope::new("g", Request::embed_row(0)),
            Envelope::new("g", Request::embed_row(0).pinned(epoch)),
            Envelope::new("g", Request::embed_row(0).pinned(epoch + 1)),
        ];
        let results = engine.execute_batch(batch);
        assert_eq!(results[0], results[1]);
        assert!(matches!(results[2], Err(ServeError::EpochEvicted { .. })));
    }

    #[test]
    fn racing_first_ann_probes_count_one_build() {
        // One 3,000-row shard: its index build takes long enough that
        // both probes, released together, reach the unbuilt index.
        let n = 3000;
        let el = gee_gen::erdos_renyi_gnm(n, 24_000, 5);
        let spec = LabelSpec {
            num_classes: 6,
            labeled_fraction: 0.3,
        };
        let labels = Labels::from_options_with_k(&gee_gen::random_labels(n, spec, 6), 6);
        let reg = Registry::new(1);
        reg.register("g", &el, &labels).unwrap();
        let engine = Engine::new(Arc::new(reg));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for v in [0, 1] {
                let (engine, start) = (&engine, &start);
                s.spawn(move || {
                    start.wait();
                    engine
                        .similar_with("g", v, 5, None, Some(SearchPolicy::ann(2)))
                        .unwrap();
                });
            }
        });
        let m = engine.metrics("g").unwrap();
        assert_eq!((m.ivf_builds, m.ivf_hits), (1, 1), "one build, one hit");
    }
}
