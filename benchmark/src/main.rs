//! The repository benchmark. See README.md beside this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_sbm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--workload` it runs that workload once and prints the result
//! object as the last line of standard output; everything else goes to
//! standard error. Without `--workload` it runs every workload, each in
//! a process of its own so that peak memory and page-cache state do not
//! leak from one into the next, `--repeat N` times over, and prints the
//! spread of every end-to-end metric.

mod endtoend;
mod gen;
mod layers;
mod metrics;
mod repeat;
mod requests;
mod rng;
mod session;
mod spans;
mod stats;
mod sysinfo;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::session::{Ctx, Tally};

/// Seed used when none is given (and by `BASELINE.md`).
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Set-ups and recoveries per untraced run; their medians are reported.
const MEDIAN_OF: usize = 3;
/// `--quick`: every workload end to end in a few seconds. The numbers
/// carry the usual names and are comparable with nothing.
const QUICK_SECONDS: f64 = 1.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub quick: bool,
}

const USAGE: &str = "usage: gee-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--quick]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            out.seconds = QUICK_SECONDS;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads::find(value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; the workloads are {names:?}")
                })?;
                out.workload = Some(value.clone());
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                out.repeat = value.parse().map_err(|_| bad())?;
                if out.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

/// `benchmark/out`: the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let workload = workloads::find(name).expect("validated while parsing");
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        sys: sysinfo::SysInfo::read(),
        repeats: if args.quick { 1 } else { MEDIAN_OF },
        scratch: out_dir().join(format!("{name}-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.scratch).expect("create benchmark/out");
    describe(&ctx, args);

    let mut tally = Tally::default();
    let (measured, defs) = if args.trace {
        (layers::run(&ctx, &mut tally), metrics::PER_LAYER)
    } else {
        (endtoend::run(&ctx, &mut tally), metrics::END_TO_END)
    };
    std::fs::remove_dir_all(&ctx.scratch).expect("remove the run's scratch directory");

    for problem in &tally.problems {
        eprintln!("FAILED CHECK: {problem}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            tally.attempted,
            tally.failed,
            measured.to_json(defs)
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The machine, the load shape and the caveats, on standard error.
fn describe(ctx: &Ctx, args: &Args) {
    let sys = &ctx.sys;
    eprintln!(
        "workload {} seed {} seconds {} trace {}{}",
        ctx.workload.name,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        if args.quick {
            " QUICK (comparable with nothing)"
        } else {
            ""
        }
    );
    eprintln!(
        "machine: {} x {}; L2 {} KiB per core, LLC {} MiB (shared with the host), {} MiB free",
        sys.nproc,
        sys.cpu_model,
        sys.l2_bytes >> 10,
        sys.llc_bytes >> 20,
        sys.mem_available_bytes >> 20
    );
    eprintln!(
        "load: kernel at {n} thread(s); server in this process with {n} worker(s), \
         {n} closed-loop client connection(s) over loopback TCP",
        n = sys.nproc
    );
    eprintln!(
        "caveats: fsync latency and loopback round trips are this sandbox's, not a device's \
         or a network's; bytes moved are computed from array sizes, not measured; the LLC is \
         shared with the host, so the roofline fraction is indicative."
    );
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => repeat::run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::{Mix, RequestGen};

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let a = parse(&[
            "--workload",
            "embed_small",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("embed_small"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
    }

    #[test]
    fn defaults_and_quick() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.repeat),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, 1)
        );
        let q = parse(&["--quick"]).unwrap();
        assert!(q.quick && q.seconds == QUICK_SECONDS);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate", "1"]).is_err());
    }

    /// The default seed's inputs, pinned: a change to a generator shows
    /// here before it shows as an unexplained shift in every metric.
    #[test]
    fn default_seed_fingerprints_are_pinned() {
        let w = workloads::find("embed_small").unwrap();
        let input = gen::generate(&w.graph, w.classes, DEFAULT_SEED);
        let mut stream = RequestGen::new(DEFAULT_SEED, 0, Mix::Churn, w.graph, w.classes, w.nprobe);
        assert_eq!(
            (
                gen::edge_fingerprint(&input.edges),
                requests::stream_fingerprint(&mut stream, 1_000)
            ),
            (PINNED_EDGES, PINNED_STREAM)
        );
    }

    const PINNED_EDGES: u64 = 0x1788_1b45_9077_37d8;
    const PINNED_STREAM: u64 = 0x16a5_6c8d_4a9d_a4cf;
}
