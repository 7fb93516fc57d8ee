//! Server-side observability counters and their wire report.
//!
//! The serving stack maintains a set of lock-free counters
//! (`ServeMetrics`, one per [`Registry`](crate::Registry)): a
//! log2-bucketed latency `Histogram` per request type, a histogram of
//! batch coalesce sizes (how many reads each
//! [`Engine::execute_batch`](crate::Engine::execute_batch) run answered
//! against one snapshot), back-pressure rejections, and IVF index
//! build/hit counters. The WAL fsync count lives with the
//! [`WalWriter`](crate::wal::WalWriter) itself (it is already serialized
//! behind the log lock). A
//! [`Request::Metrics`](crate::Request::Metrics) snapshots everything
//! into a [`MetricsReport`] — the machine-readable side of `gee bench`'s
//! server polling.
//!
//! Counters are updated with relaxed atomics on the hot path; a report
//! is a point-in-time read, not a seqcst snapshot, so a histogram's
//! `count` can momentarily disagree with the sum of its `buckets` while
//! writers race. Consumers must treat reports as monotone gauges, not
//! exact ledgers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::engine::Request;

/// Bucket count for `Histogram`: bucket `0` holds zeros and bucket
/// `i` holds values in `[2^(i-1), 2^i)`, so 40 buckets cover a span of
/// microsecond latencies past six days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// µs, coalesce sizes in requests).
pub(crate) struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Count one sample.
    pub(crate) fn record(&self, value: u64) {
        let bucket = (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time wire snapshot (trailing empty buckets trimmed).
    pub(crate) fn report(&self) -> HistogramReport {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistogramReport {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Wire snapshot of one `Histogram`. Part of the wire
/// contract: `buckets[0]` counts zero samples, `buckets[i]` counts
/// samples in `[2^(i-1), 2^i)`, trailing empty buckets are trimmed.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramReport {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramReport {
    /// An empty histogram (what a fresh server reports).
    pub fn empty() -> HistogramReport {
        HistogramReport {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
        }
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`), `None` when empty. Bucketing bounds the
    /// error to 2x — good enough for a dashboard, not for the loadgen's
    /// exact client-side quantiles.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // Nearest-rank with both ends pinned: `ceil(q * count)` is 0 at
        // q = 0.0 (which would make `seen >= rank` fire before any
        // sample is seen — an empty leading bucket would satisfy it)
        // and can exceed `count` when `q * count` rounds up past it, so
        // clamp into the valid rank range [1, count].
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        Some(u64::MAX)
    }
}

/// The registry-wide counter set. One per [`Registry`](crate::Registry)
/// (never process-global, so concurrently running registries — e.g.
/// parallel tests — observe only their own traffic).
pub(crate) struct ServeMetrics {
    pub(crate) classify: Histogram,
    pub(crate) similar: Histogram,
    pub(crate) embed_row: Histogram,
    pub(crate) stats: Histogram,
    pub(crate) metrics: Histogram,
    pub(crate) apply_updates: Histogram,
    /// Sizes of coalesced read runs (per `execute_batch` run, in
    /// requests answered against one snapshot resolution).
    pub(crate) coalesce: Histogram,
    /// Write batches rejected by back-pressure
    /// ([`ServeError::Overloaded`](crate::ServeError::Overloaded)).
    pub(crate) overloaded: AtomicU64,
    /// IVF shard indexes built lazily by a query probe, exactly one per
    /// built block however many probes race to it (builds via
    /// [`Snapshot::warm_ann_indexes`](crate::Snapshot::warm_ann_indexes)
    /// are deliberate pre-warming and are not counted).
    pub(crate) ivf_builds: AtomicU64,
    /// IVF probes that did not build a shard's index: it was cached, or
    /// a racing probe built it (counted per shard block touched, not per
    /// request).
    pub(crate) ivf_hits: AtomicU64,
    /// WAL records shipped to followers by the replication listener.
    pub(crate) shipped_records: AtomicU64,
    /// Encoded record bytes shipped to followers (frame payloads, not
    /// TCP bytes).
    pub(crate) shipped_bytes: AtomicU64,
    /// Follower connections currently attached to the replication
    /// listener.
    pub(crate) follower_conns: AtomicU64,
    /// Set once a replication listener is attached to this registry; a
    /// leader's reports carry a `replication` block only from then on.
    pub(crate) replicating: AtomicBool,
}

impl ServeMetrics {
    pub(crate) fn new() -> ServeMetrics {
        ServeMetrics {
            classify: Histogram::new(),
            similar: Histogram::new(),
            embed_row: Histogram::new(),
            stats: Histogram::new(),
            metrics: Histogram::new(),
            apply_updates: Histogram::new(),
            coalesce: Histogram::new(),
            overloaded: AtomicU64::new(0),
            ivf_builds: AtomicU64::new(0),
            ivf_hits: AtomicU64::new(0),
            shipped_records: AtomicU64::new(0),
            shipped_bytes: AtomicU64::new(0),
            follower_conns: AtomicU64::new(0),
            replicating: AtomicBool::new(false),
        }
    }

    /// The latency histogram a request's execution is recorded into.
    pub(crate) fn request_histogram(&self, request: &Request) -> &Histogram {
        match request {
            Request::Classify { .. } => &self.classify,
            Request::Similar { .. } => &self.similar,
            Request::EmbedRow { .. } => &self.embed_row,
            Request::Stats { .. } => &self.stats,
            Request::Metrics => &self.metrics,
            Request::ApplyUpdates { .. } => &self.apply_updates,
        }
    }
}

/// Microseconds elapsed since `start`, saturating.
pub(crate) fn elapsed_us(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Answer to [`Request::Metrics`](crate::Request::Metrics). The
/// per-graph fields (`epoch` … `updates_applied`) describe the
/// addressed graph exactly as [`GraphReport`](crate::GraphReport) does
/// — the two endpoints never disagree — while the histograms and
/// counters describe the whole registry (every graph's traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    pub graph: String,
    /// Published epoch of the addressed graph.
    pub epoch: u64,
    /// Oldest epoch still retained for `at_epoch` reads (same value
    /// `Stats` reports).
    pub oldest_epoch: u64,
    /// Retained epochs in the history ring right now
    /// (`epoch - oldest_epoch + 1`).
    pub history_depth: usize,
    /// Shard blocks of the published snapshot with a built-and-cached
    /// IVF index (same value `Stats` reports; counting never forces a
    /// build).
    pub ann_indexed_shards: usize,
    pub queries_served: u64,
    pub updates_applied: u64,
    /// Per-request-type latency histograms, in microseconds.
    pub classify_us: HistogramReport,
    pub similar_us: HistogramReport,
    pub embed_row_us: HistogramReport,
    pub stats_us: HistogramReport,
    pub metrics_us: HistogramReport,
    pub apply_updates_us: HistogramReport,
    /// Coalesced read-run sizes (requests per run).
    pub coalesce: HistogramReport,
    /// Write batches rejected with `Overloaded` by back-pressure.
    pub overloaded: u64,
    /// WAL data fsyncs performed by appends (0 on an in-memory
    /// registry).
    pub wal_fsyncs: u64,
    /// IVF shard indexes built lazily by query probes.
    pub ivf_builds: u64,
    /// IVF probes answered from an already-cached shard index.
    pub ivf_hits: u64,
    /// Replication role and lag gauges; `None` unless this registry is
    /// a replication leader or follower.
    pub replication: Option<ReplicationReport>,
}

/// Which side of the replication stream a server is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationRole {
    Leader,
    Follower,
}

/// The `replication` block carried by both
/// [`GraphReport`](crate::GraphReport) (`Stats`) and [`MetricsReport`]
/// (`Metrics`). Both endpoints compute it from the same registry-wide
/// state — they never disagree at quiescence — so lag gauges are
/// registry-wide (worst graph), not per addressed graph.
///
/// A leader fills the `shipped_*` counters and `follower_conns`; a
/// follower fills the lag gauges from its pull loop's last heartbeat.
/// Fields that belong to the other role read zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationReport {
    pub role: ReplicationRole,
    /// Follower: the pull loop currently holds a live leader
    /// connection. Leader: at least one follower is attached.
    pub connected: bool,
    /// Leader: WAL records shipped to followers (all connections,
    /// lifetime).
    pub shipped_records: u64,
    /// Leader: encoded record bytes shipped to followers.
    pub shipped_bytes: u64,
    /// Leader: follower connections attached right now.
    pub follower_conns: u64,
    /// Follower: published-epoch lag behind the leader, worst graph
    /// (from the last heartbeat; 0 while caught up or not yet told).
    pub lag_epochs: u64,
    /// Follower: LSN delta between the leader's append head and the
    /// local durable high water (from the last heartbeat).
    pub lag_lsns: u64,
    /// The local WAL high-water LSN (next LSN to be assigned): the
    /// resume point a restart would request. Both roles report it.
    pub last_durable_lsn: u64,
    /// The leader epoch (replication fencing token) this node serves or
    /// replicates under — 0 until the data dir has ever seen a promoted
    /// leader. Both roles report it.
    pub leader_epoch: u64,
    /// Leader: a peer proved a newer leader epoch exists, so this
    /// deposed leader refuses writes ([`ErrorCode::StaleLeader`](crate::ErrorCode::StaleLeader))
    /// and ships nothing. Always `false` on a follower.
    pub fenced: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let r = h.report();
        assert_eq!(r.count, 9);
        assert_eq!(r.sum, 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
        assert_eq!(r.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(r.buckets[1], 1, "1 in [1,2)");
        assert_eq!(r.buckets[2], 2, "2,3 in [2,4)");
        assert_eq!(r.buckets[3], 2, "4 and 7 in [4,8)");
        assert_eq!(r.buckets[4], 1, "8 in [8,16)");
        assert_eq!(r.buckets[10], 1, "1023 in [512,1024)");
        assert_eq!(r.buckets[11], 1, "1024 in [1024,2048)");
        assert_eq!(r.buckets.len(), 12, "trailing zeros trimmed");
    }

    #[test]
    fn histogram_report_summaries() {
        let h = Histogram::new();
        assert_eq!(h.report(), HistogramReport::empty());
        assert_eq!(HistogramReport::empty().mean(), None);
        assert_eq!(HistogramReport::empty().quantile_upper_bound(0.5), None);
        for v in 0..100u64 {
            h.record(v);
        }
        let r = h.report();
        assert_eq!(r.mean(), Some(49.5));
        // The median of 0..100 is ~50; its bucket [32, 64) upper bound.
        assert_eq!(r.quantile_upper_bound(0.5), Some(63));
        assert_eq!(r.quantile_upper_bound(0.0), Some(0));
        assert_eq!(r.quantile_upper_bound(1.0), Some(127));
    }

    #[test]
    fn quantile_edge_cases_do_not_underflow() {
        // count == 0: every quantile is None.
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(HistogramReport::empty().quantile_upper_bound(q), None);
        }
        // count == 1: every quantile names the single sample's bucket,
        // including q = 0.0 (rank 0 must clamp up to 1, not fire on an
        // empty leading bucket) and q = 1.0.
        let h = Histogram::new();
        h.record(100); // bucket [64, 128)
        let r = h.report();
        assert_eq!(r.count, 1);
        for q in [0.0, 0.001, 0.5, 1.0] {
            assert_eq!(r.quantile_upper_bound(q), Some(127), "q={q}");
        }
        // A q = 0.0 rank of 0 would incorrectly match bucket 0 here,
        // because the first bucket is empty (`seen >= 0` holds at i=0).
        let h = Histogram::new();
        h.record(1000);
        assert_eq!(h.report().quantile_upper_bound(0.0), Some(1023));
        // Out-of-range q clamps instead of panicking or overflowing.
        assert_eq!(h.report().quantile_upper_bound(-3.0), Some(1023));
        assert_eq!(h.report().quantile_upper_bound(7.0), Some(1023));
    }
}
