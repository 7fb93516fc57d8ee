//! The load-generator runner: N client threads, one CSV record per
//! request, optional server-metrics polling interleaved into the
//! same stream.
//!
//! The runner is generic over how clients are made (a `connect` closure
//! returning a handshaken [`Client`]), so the deterministic duplex test
//! and the real `gee bench --connect` TCP path drive the exact same
//! code. Each client owns two RNGs, both pure functions of
//! `(seed, client index)`:
//!
//! - the **kind** RNG decides the request-type sequence, consuming
//!   exactly one draw per request ([`Mix::draw`]) — so a test can
//!   replay the sequence with [`kind_rng`] and predict per-type counts
//!   exactly;
//! - the **param** RNG decides request parameters (vertices, weights,
//!   labels), keeping parameter entropy from perturbing the kind
//!   stream.
//!
//! Closed loop by default (next request as soon as the last returns);
//! [`BenchConfig::target_qps`] switches to open loop, pacing each
//! client on a fixed schedule so queue delay shows up as latency
//! instead of back-pressure on the arrival process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

use gee_serve::{Client, Request, Response, SearchPolicy, ServeError, Update};

use crate::clock::elapsed_micros;
use crate::mix::{Kind, Mix};

/// Seed-stream tags: the kind and param RNGs must never collide even
/// though both derive from the same `(seed, client)` pair.
const KIND_STREAM: u64 = 0x6b69_6e64_0000_0000;
const PARAM_STREAM: u64 = 0x7061_7261_0000_0000;

/// The request-kind RNG of client `client` in a run seeded `seed`.
/// Public so tests can replay a client's exact type sequence.
pub fn kind_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ KIND_STREAM ^ client as u64)
}

/// The request-parameter RNG of client `client` in a run seeded `seed`.
pub fn param_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ PARAM_STREAM ^ client as u64)
}

/// One load-generation run, fully specified.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Graph every request addresses.
    pub graph: String,
    /// Weighted request mix.
    pub mix: Mix,
    /// Concurrent client connections.
    pub clients: usize,
    /// Master seed; all randomness derives from `(seed, client)`.
    pub seed: u64,
    /// Stop after this wall-clock duration…
    pub duration: Option<Duration>,
    /// …or after each client issued exactly this many requests (the
    /// deterministic mode; at least one bound must be set, and the
    /// first reached wins).
    pub requests_per_client: Option<u64>,
    /// Open-loop mode: pace clients to this *total* arrival rate
    /// (requests/second across all clients). `None` is closed loop.
    pub target_qps: Option<f64>,
    /// Poll the server's `Metrics` endpoint at this
    /// interval on a dedicated extra connection, interleaving `server`
    /// records into the stream.
    pub poll_metrics: Option<Duration>,
}

impl BenchConfig {
    /// A closed-loop config with everything but the bounds defaulted.
    pub fn new(graph: impl Into<String>, mix: Mix, clients: usize, seed: u64) -> BenchConfig {
        BenchConfig {
            graph: graph.into(),
            mix,
            clients,
            seed,
            duration: None,
            requests_per_client: None,
            target_qps: None,
            poll_metrics: None,
        }
    }
}

/// Did a request succeed?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchOutcome {
    Ok,
    Error,
}

impl BenchOutcome {
    pub fn name(self) -> &'static str {
        match self {
            BenchOutcome::Ok => "ok",
            BenchOutcome::Error => "error",
        }
    }
}

/// CSV header line for [`Record`] streams.
pub const CSV_HEADER: &str = "start_us,client,kind,latency_us,outcome,epoch,detail";

/// One request observation — a CSV row. Client rows carry a [`Kind`]
/// name in `kind`; rows from the metrics poller carry `"server"` and a
/// counter digest in `detail`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Wall-clock request start, µs since the run began.
    pub start_us: u64,
    /// Issuing client index (the metrics poller is index
    /// `config.clients`).
    pub client: u32,
    /// `read` | `write` | `timetravel` | `ann` | `server`.
    pub kind: String,
    /// Round-trip latency in µs ([`elapsed_micros`]).
    pub latency_us: u64,
    pub outcome: BenchOutcome,
    /// The epoch the client had observed when the reply landed (server
    /// rows: the server's published epoch).
    pub epoch: u64,
    /// Error text or server-counter digest; empty for plain successes.
    pub detail: String,
}

impl Record {
    /// Encode as one CSV row (no quoting: `detail` is sanitized so the
    /// row always splits on exactly six commas).
    pub fn to_csv_row(&self) -> String {
        let detail = self.detail.replace([',', '\n', '\r'], ";");
        format!(
            "{},{},{},{},{},{},{}",
            self.start_us,
            self.client,
            self.kind,
            self.latency_us,
            self.outcome.name(),
            self.epoch,
            detail
        )
    }

    /// Parse one CSV row (the inverse of [`Record::to_csv_row`]).
    pub fn from_csv_row(row: &str) -> Result<Record, String> {
        let mut parts = row.splitn(7, ',');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| format!("row {row:?}: missing field {name}"))
        };
        let parse_u64 = |name: &str, s: &str| {
            s.trim()
                .parse::<u64>()
                .map_err(|e| format!("row field {name}={s:?}: {e}"))
        };
        let start_us = parse_u64("start_us", field("start_us")?)?;
        let client = parse_u64("client", field("client")?)? as u32;
        let kind = field("kind")?.trim().to_string();
        let latency_us = parse_u64("latency_us", field("latency_us")?)?;
        let outcome = match field("outcome")?.trim() {
            "ok" => BenchOutcome::Ok,
            "error" => BenchOutcome::Error,
            other => return Err(format!("row outcome {other:?}: want ok|error")),
        };
        let epoch = parse_u64("epoch", field("epoch")?)?;
        let detail = field("detail")?.to_string();
        Ok(Record {
            start_us,
            client,
            kind,
            latency_us,
            outcome,
            epoch,
            detail,
        })
    }
}

/// What one client learned about the graph, updated as replies land.
struct ClientState {
    num_vertices: u32,
    dim: usize,
    num_labeled: usize,
    /// Newest epoch this client has observed (from unpinned `Stats` and
    /// `Applied` replies) — the pin target for time-travel reads.
    last_epoch: u64,
    reads_issued: u64,
    writes_issued: u64,
    travels_issued: u64,
}

impl ClientState {
    /// Pick a vertex uniformly.
    fn vertex(&self, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..self.num_vertices.max(1))
    }

    /// Synthesize the next request of `kind` from the param RNG.
    fn synthesize(&mut self, kind: Kind, rng: &mut StdRng) -> Request {
        match kind {
            Kind::Read => {
                let turn = self.reads_issued;
                self.reads_issued += 1;
                match turn % 4 {
                    // Classification needs labeled rows; fall back to
                    // the embedding read on an unlabeled graph.
                    0 if self.num_labeled > 0 => {
                        Request::classify(vec![self.vertex(rng), self.vertex(rng)], 3)
                    }
                    0 | 2 => Request::embed_row(self.vertex(rng)),
                    1 => Request::similar(self.vertex(rng), 5),
                    // Every fourth read is `Stats`, keeping
                    // `last_epoch` fresh for time-travel pins.
                    _ => Request::stats(),
                }
            }
            Kind::Write => {
                let turn = self.writes_issued;
                self.writes_issued += 1;
                let update = if turn % 8 == 7 && self.dim > 0 {
                    Update::SetLabel {
                        v: self.vertex(rng),
                        label: Some(rng.gen_range(0..self.dim as u32)),
                    }
                } else {
                    let u = self.vertex(rng);
                    let mut v = self.vertex(rng);
                    if v == u {
                        v = (v + 1) % self.num_vertices.max(2);
                    }
                    Update::InsertEdge {
                        u,
                        v,
                        w: 1.0 + rng.gen::<f64>(),
                    }
                };
                Request::ApplyUpdates {
                    updates: vec![update],
                }
            }
            Kind::TimeTravel => {
                let turn = self.travels_issued;
                self.travels_issued += 1;
                let read = if turn % 2 == 0 {
                    Request::embed_row(self.vertex(rng))
                } else {
                    Request::stats()
                };
                read.pinned(self.last_epoch)
            }
            Kind::Ann => Request::similar(self.vertex(rng), 10).with_search(SearchPolicy::ann(8)),
        }
    }

    /// Fold a reply into the state. Pinned stats describe an old epoch
    /// and must not move `last_epoch` backwards.
    fn observe(&mut self, response: &Response) {
        match response {
            Response::Applied { epoch, .. } => self.last_epoch = self.last_epoch.max(*epoch),
            Response::Stats(report) => {
                self.last_epoch = self.last_epoch.max(report.epoch);
                self.num_vertices = report.num_vertices as u32;
                self.num_labeled = report.num_labeled;
                self.dim = report.dim;
            }
            _ => {}
        }
    }
}

/// Run one bench: spawn `config.clients` client threads (plus a metrics
/// poller if configured), drive the mix, and return every [`Record`]
/// sorted by start time. The `connect` closure is called once per
/// thread and must hand back a freshly handshaken [`Client`].
///
/// Errors are two-tier, mirroring the protocol: per-request failures
/// become `outcome = error` records and the run continues;
/// connection-level failures (transport loss, handshake refusal) abort
/// the run with the error.
pub fn run_bench<F>(config: &BenchConfig, connect: F) -> Result<Vec<Record>, ServeError>
where
    F: Fn() -> Result<Client, ServeError> + Sync,
{
    assert!(config.clients > 0, "bench needs at least one client");
    assert!(
        config.duration.is_some() || config.requests_per_client.is_some(),
        "bench needs a duration or a per-client request count"
    );
    let base = Instant::now();
    let deadline = config.duration.map(|d| base + d);
    let stop_polling = AtomicBool::new(false);
    let connect = &connect;
    let stop_polling = &stop_polling;

    let (mut records, poll_records) =
        std::thread::scope(|scope| -> Result<(Vec<Record>, Vec<Record>), ServeError> {
            let poller = config.poll_metrics.map(|interval| {
                scope.spawn(move || poll_metrics(config, connect, base, interval, stop_polling))
            });
            let clients: Vec<_> = (0..config.clients)
                .map(|i| scope.spawn(move || run_client(config, connect, base, deadline, i)))
                .collect();
            let mut records = Vec::new();
            let mut first_error = None;
            for handle in clients {
                match handle.join().expect("client thread must not panic") {
                    Ok(mut r) => records.append(&mut r),
                    Err(e) => first_error = first_error.or(Some(e)),
                }
            }
            stop_polling.store(true, Ordering::SeqCst);
            let poll_records = match poller {
                Some(handle) => handle.join().expect("poller thread must not panic")?,
                None => Vec::new(),
            };
            match first_error {
                Some(e) => Err(e),
                None => Ok((records, poll_records)),
            }
        })?;

    records.extend(poll_records);
    records.sort_by_key(|r| (r.start_us, r.client));
    Ok(records)
}

/// One client's request loop.
fn run_client(
    config: &BenchConfig,
    connect: &(impl Fn() -> Result<Client, ServeError> + Sync),
    base: Instant,
    deadline: Option<Instant>,
    client_index: usize,
) -> Result<Vec<Record>, ServeError> {
    let mut client = connect()?;
    let mut kinds = kind_rng(config.seed, client_index);
    let mut params = param_rng(config.seed, client_index);

    // Learn the graph's shape before the measured run (unrecorded).
    let report = client.stats(&config.graph)?;
    let mut state = ClientState {
        num_vertices: report.num_vertices as u32,
        dim: report.dim,
        num_labeled: report.num_labeled,
        last_epoch: report.epoch,
        reads_issued: 0,
        writes_issued: 0,
        travels_issued: 0,
    };

    // Open-loop pacing: each client fires on its own fixed grid, the
    // grids staggered so the aggregate arrival process is smooth.
    let pace = config.target_qps.map(|qps| {
        let interval = Duration::from_secs_f64(config.clients as f64 / qps.max(f64::MIN_POSITIVE));
        let offset = interval.mul_f64(client_index as f64 / config.clients as f64);
        (interval, base + offset)
    });

    let mut records = Vec::new();
    let mut issued = 0u64;
    loop {
        if let Some(n) = config.requests_per_client {
            if issued >= n {
                break;
            }
        }
        if let Some((interval, first)) = pace {
            let due = first + interval.mul_f64(issued as f64);
            if let Some(d) = deadline {
                if due >= d {
                    break;
                }
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                break;
            }
        }

        let kind = config.mix.draw(&mut kinds);
        let request = state.synthesize(kind, &mut params);
        let start_us = elapsed_micros(base);
        let started = Instant::now();
        let result = client.execute(&config.graph, request);
        let latency_us = elapsed_micros(started);
        issued += 1;
        let (outcome, detail) = match &result {
            Ok(response) => {
                state.observe(response);
                (BenchOutcome::Ok, String::new())
            }
            // Typed per-request errors (unknown vertex, evicted epoch,
            // back-pressure) are data, not run failures.
            Err(e) => (BenchOutcome::Error, e.to_string()),
        };
        records.push(Record {
            start_us,
            client: client_index as u32,
            kind: kind.name().to_string(),
            latency_us,
            outcome,
            epoch: state.last_epoch,
            detail,
        });
    }
    let _ = client.goodbye();
    Ok(records)
}

/// The metrics poller: sample the `Metrics` endpoint until
/// told to stop, emitting one `server` record per sample.
fn poll_metrics(
    config: &BenchConfig,
    connect: &(impl Fn() -> Result<Client, ServeError> + Sync),
    base: Instant,
    interval: Duration,
    stop: &AtomicBool,
) -> Result<Vec<Record>, ServeError> {
    let mut client = connect()?;
    let mut records = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let start_us = elapsed_micros(base);
        let started = Instant::now();
        let result = client.metrics(&config.graph);
        let latency_us = elapsed_micros(started);
        let (outcome, epoch, detail) = match result {
            Ok(m) => (
                BenchOutcome::Ok,
                m.epoch,
                format!(
                    "queries={} updates={} overloaded={} wal_fsyncs={} \
                     ivf_builds={} ivf_hits={} history_depth={} ann_shards={}",
                    m.queries_served,
                    m.updates_applied,
                    m.overloaded,
                    m.wal_fsyncs,
                    m.ivf_builds,
                    m.ivf_hits,
                    m.history_depth,
                    m.ann_indexed_shards
                ),
            ),
            Err(e) => (BenchOutcome::Error, 0, e.to_string()),
        };
        records.push(Record {
            start_us,
            client: config.clients as u32,
            kind: "server".to_string(),
            latency_us,
            outcome,
            epoch,
            detail,
        });
        // Sleep in short slices so a finished run isn't held open for
        // the tail of a long interval.
        let wake = Instant::now() + interval;
        while Instant::now() < wake && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(interval.min(Duration::from_millis(20)));
        }
    }
    let _ = client.goodbye();
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_csv_round_trips() {
        let record = Record {
            start_us: 123,
            client: 2,
            kind: "read".to_string(),
            latency_us: 456,
            outcome: BenchOutcome::Ok,
            epoch: 7,
            detail: String::new(),
        };
        assert_eq!(record.to_csv_row(), "123,2,read,456,ok,7,");
        assert_eq!(Record::from_csv_row(&record.to_csv_row()).unwrap(), record);
    }

    #[test]
    fn record_csv_sanitizes_detail() {
        let record = Record {
            start_us: 1,
            client: 0,
            kind: "write".to_string(),
            latency_us: 2,
            outcome: BenchOutcome::Error,
            epoch: 0,
            detail: "bad, very\nbad".to_string(),
        };
        let row = record.to_csv_row();
        assert_eq!(row, "1,0,write,2,error,0,bad; very;bad");
        let parsed = Record::from_csv_row(&row).unwrap();
        assert_eq!(parsed.detail, "bad; very;bad");
    }

    #[test]
    fn malformed_rows_are_rejected() {
        for bad in ["", "1,2,read", "x,0,read,1,ok,0,", "1,0,read,1,maybe,0,"] {
            assert!(Record::from_csv_row(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn kind_rng_is_a_pure_function_of_seed_and_client() {
        let draw = |seed, client| {
            let mix = Mix::parse("read=90,write=5,timetravel=3,ann=2").unwrap();
            let mut rng = kind_rng(seed, client);
            (0..100).map(|_| mix.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9, 0), draw(9, 0));
        assert_ne!(draw(9, 0), draw(9, 1), "clients draw distinct streams");
        assert_ne!(draw(9, 0), draw(10, 0), "seeds draw distinct streams");
    }
}
