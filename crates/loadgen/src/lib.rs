//! Workload simulator and latency analytics for the serving stack.
//!
//! `gee bench` lives here: a multi-client load generator that speaks the
//! ordinary wire protocol ([`gee_serve::Client`]) against a running
//! server, plus the single-pass analytics that turn its per-request CSV
//! into a `gee-bench-v1` JSON report.
//!
//! The crate is split along the data flow:
//!
//! - [`mix`] — parse and sample a weighted request mix
//!   (`read=90,write=5,timetravel=3,ann=2`) with a deterministic,
//!   seedable RNG;
//! - [`clock`] — the one latency clock everything shares (also reused by
//!   the CLI's `query --timing`);
//! - [`run`] — the runner: N closed-loop (or rate-paced open-loop)
//!   client threads, one CSV [`Record`](run::Record) per request, and an
//!   optional metrics-polling thread interleaving server `Metrics`
//!   samples into the same stream;
//! - [`stats`] — streaming five-number summaries and reservoir-free P²
//!   quantile estimates (p50/p99/p999) over those records, single pass,
//!   bounded memory — usable on a live stream or as the
//!   `gee bench-report` stdin→stdout CSV filter;
//! - [`report`] — the JSON report (schema [`report::BENCH_SCHEMA`])
//!   `gee bench --json` and `gee bench-report` write.
//!
//! Determinism: every random choice a client makes is drawn from RNGs
//! seeded as pure functions of `(seed, client index)`, so a run's
//! request-type sequence is exactly replayable — the property the
//! deterministic loadgen test pins.

pub mod clock;
pub mod mix;
pub mod report;
pub mod run;
pub mod stats;

pub use clock::elapsed_micros;
pub use mix::{Kind, Mix};
pub use report::{write_json, BENCH_SCHEMA};
pub use run::{kind_rng, param_rng, run_bench, BenchConfig, BenchOutcome, Record, CSV_HEADER};
pub use stats::{Analysis, P2Quantile, StreamingSummary, TypeSummary};
