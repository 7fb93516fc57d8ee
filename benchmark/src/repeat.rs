//! Every workload, `--repeat` times, each run a child process with its
//! own seed; then, for every metric of every workload, the median, the
//! quartiles and the spread the driver would hold against the metric's
//! bound. The table is markdown: `BASELINE.md` is this output.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{stats, sysinfo, Args};

/// A spread above this share of a metric's bound leaves too little room
/// between noise and a regression.
const SPREAD_SHARE_OF_BOUND: f64 = 1.0 / 3.0;

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn run_child(args: &Args, workload: &str, seed: u64) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let length = if args.quick {
        vec!["--quick".to_string()]
    } else {
        vec!["--seconds".to_string(), args.seconds.to_string()]
    };
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(length)
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result ({})", output.status))?;
    let doc: Value = serde_json::from_str(line).map_err(|e| format!("{workload}: {e:?}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or_else(|| format!("{workload}: no {k:?} in the result"))
    };
    let Value::Object(entries) = field("metrics")? else {
        return Err(format!("{workload}: metrics is not an object"));
    };
    let values = entries
        .iter()
        .map(|(name, entry)| {
            let value = entry.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{name}: no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Outcome {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        values,
    })
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Some(doc) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
    else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("name")?.as_str()?.to_string(),
                        e.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Six decimals, or three significant digits for what those would
/// print as zero.
fn readable(x: f64) -> String {
    if x != 0.0 && x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else {
        format!("{x:.6}")
    }
}

pub fn run(args: &Args) -> ExitCode {
    let sys = sysinfo::SysInfo::read();
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let bounds = bounds();
    let mut all_correct = true;
    // workload → metric → one value per run
    let mut table: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for round in 0..args.repeat {
        for w in &WORKLOADS {
            let seed = args.seed + round as u64;
            eprintln!(
                "--- run {} of {}: {} seed {seed}",
                round + 1,
                args.repeat,
                w.name
            );
            match run_child(args, w.name, seed) {
                Ok(outcome) => {
                    all_correct &= outcome.correct;
                    let (attempted, failed) = counts.entry(w.name).or_default();
                    *attempted += outcome.attempted;
                    *failed += outcome.failed;
                    for (name, value) in outcome.values {
                        table
                            .entry(w.name)
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(value);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    all_correct = false;
                }
            }
        }
    }

    println!(
        "{} run(s) per workload, seeds {}..={}, {} s each, trace {}{}",
        args.repeat,
        args.seed,
        args.seed + args.repeat as u64 - 1,
        args.seconds,
        u8::from(args.trace),
        if args.quick {
            " — QUICK, comparable with nothing"
        } else {
            ""
        }
    );
    println!(
        "machine: {} x {}; L2 {} KiB per core; LLC {} MiB, shared with the host\n",
        sys.nproc,
        sys.cpu_model,
        sys.l2_bytes >> 10,
        sys.llc_bytes >> 20
    );
    let mut steady = true;
    for w in &WORKLOADS {
        let (attempted, failed) = counts.get(w.name).copied().unwrap_or_default();
        println!(
            "### {} — {attempted} operations attempted, {failed} failed\n",
            w.name
        );
        println!(
            "| metric | unit | median | q1 | q3 | (q3−q1)÷median | (max−min)÷median | bound | |"
        );
        println!("|---|---|---|---|---|---|---|---|---|");
        for def in defs {
            let Some(values) = table.get(w.name).and_then(|t| t.get(def.name)) else {
                continue;
            };
            let sorted = stats::sorted(values.clone());
            let (low, high) = (sorted[0], sorted[sorted.len() - 1]);
            if values.len() < 2 {
                println!(
                    "| {} | {} | {} | | | | | | |",
                    def.name, def.unit, sorted[0]
                );
                continue;
            }
            let [q1, q2, q3] = stats::quartiles(values);
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
            let range = if q2 == 0.0 { 0.0 } else { (high - low) / q2 };
            let (bound, flag) = match bounds.get(def.name) {
                Some(bound) if def.name != "setup_s" && spread > *bound => {
                    steady = false;
                    (format!("{bound}"), "SPREAD ABOVE BOUND")
                }
                Some(bound) if def.name != "setup_s" && spread > bound * SPREAD_SHARE_OF_BOUND => {
                    (format!("{bound}"), "above a third of the bound")
                }
                Some(bound) => (format!("{bound}"), ""),
                None => (String::new(), ""),
            };
            println!(
                "| {} | {} | {} | {} | {} | {spread:.4} | {range:.4} | {bound} | {flag} |",
                def.name,
                def.unit,
                readable(q2),
                readable(q1),
                readable(q3)
            );
        }
        println!();
    }
    if all_correct && steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
