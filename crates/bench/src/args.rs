//! Command-line parsing for the `paper` binary (no external dependency —
//! the offline crate set does not include a CLI parser, and eight flags
//! do not justify one).

use crate::experiments::{self, Experiment};

/// One line per flag, printed under every parse error and by `--help`.
pub const USAGE: &str = "\
usage: paper EXPERIMENT... [--scale <div=64>] [--runs <r=3>] [--k <K=50>]
             [--labeled <f=0.1>] [--max-log2 <b=23>] [--threads <t=all>]
             [--seed <s>] [--no-json]
       paper --list";

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Experiments to run, in the order given.
    pub experiments: Vec<Experiment>,
    /// `--list`: print the experiment names instead of running any.
    pub list: bool,
    /// Divisor applied to the paper's graph sizes (64 → 1/64th scale).
    pub scale: usize,
    /// Timing repetitions; the median is reported.
    pub runs: usize,
    /// Embedding classes K (paper: 50).
    pub k: usize,
    /// Labeled fraction (paper: 0.10).
    pub labeled_fraction: f64,
    /// Max log2(edges) for the Figure 4 sweep, which starts at 2^13.
    pub max_log2: u32,
    /// Thread count override (0 = all cores).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Emit machine-readable JSON after each table.
    pub json: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            experiments: Vec::new(),
            list: false,
            scale: 64,
            runs: 3,
            k: 50,
            labeled_fraction: 0.10,
            max_log2: 23,
            threads: 0,
            seed: 20240206, // arXiv date of the paper
            json: true,
        }
    }
}

impl Args {
    /// Parse `argv` (without the program name). The error is one line
    /// saying what to fix; nothing here panics or exits.
    pub fn try_parse(argv: &[String]) -> Result<Args, String> {
        fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
            let raw = raw.ok_or_else(|| format!("missing value for {flag}"))?;
            raw.parse()
                .map_err(|_| format!("{flag} takes a number, got {raw:?}"))
        }
        let mut out = Args::default();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--scale" => out.scale = value(arg, argv.next())?,
                "--runs" => out.runs = value(arg, argv.next())?,
                "--k" => out.k = value(arg, argv.next())?,
                "--labeled" => out.labeled_fraction = value(arg, argv.next())?,
                "--max-log2" => out.max_log2 = value(arg, argv.next())?,
                "--threads" => out.threads = value(arg, argv.next())?,
                "--seed" => out.seed = value(arg, argv.next())?,
                "--no-json" => out.json = false,
                "--list" => out.list = true,
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                name => out.experiments.push(
                    experiments::find(name)
                        .ok_or_else(|| format!("unknown experiment {name:?}; try --list"))?,
                ),
            }
        }
        if out.experiments.is_empty() && !out.list {
            return Err("name at least one experiment; try --list".to_string());
        }
        if out.scale == 0 || out.runs == 0 || out.k == 0 {
            return Err("--scale, --runs and --k must be at least 1".to_string());
        }
        if !(out.labeled_fraction > 0.0 && out.labeled_fraction <= 1.0) {
            return Err(format!(
                "--labeled must be in (0, 1], got {}",
                out.labeled_fraction
            ));
        }
        if out.max_log2 < 13 {
            return Err(format!(
                "--max-log2 must be at least 13 (the sweep starts at 2^13 edges), got {}",
                out.max_log2
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::try_parse(&argv)
    }

    #[test]
    fn defaults_match_paper_config() {
        let a = parse("table1").unwrap();
        assert_eq!(a.k, 50);
        assert!((a.labeled_fraction - 0.10).abs() < 1e-12);
        assert_eq!((a.scale, a.runs, a.max_log2, a.threads), (64, 3, 23, 0));
        assert!(a.json && !a.list);
    }

    #[test]
    fn experiments_and_flags_mix_in_any_order() {
        let a = parse("fig3 --scale 1024 table1 --runs 1 --no-json").unwrap();
        let names: Vec<_> = a.experiments.iter().map(|e| e.0).collect();
        assert_eq!(names, ["fig3", "table1"]);
        assert_eq!((a.scale, a.runs, a.json), (1024, 1, false));
        assert!(parse("--list").unwrap().list);
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        for (line, reason) in [
            ("table1 --k 0", "at least 1"),
            ("table1 --scale 0", "at least 1"),
            ("table1 --runs 0", "at least 1"),
            ("table1 --labeled 1.5", "(0, 1]"),
            ("table1 --labeled 0", "(0, 1]"),
            ("table1 --labeled NaN", "(0, 1]"),
            ("fig4 --max-log2 12", "at least 13"),
            ("fig5", "unknown experiment"),
            ("", "at least one experiment"),
            ("--scale 64", "at least one experiment"),
            ("table1 --json out.json", "unknown flag --json"),
            ("table1 --k", "missing value for --k"),
            ("table1 --k fifty", "--k takes a number"),
            ("table1 --threads -1", "--threads takes a number"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(reason), "{line:?} → {err:?}");
            assert!(!err.contains('\n'), "one line: {err:?}");
        }
    }
}
