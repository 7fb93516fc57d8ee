//! Runs every `paper` experiment in-process at a tiny scale, so the code
//! that regenerates Table I and Figs. 2–4 is executed by tier-1 and each
//! experiment's `Report` is checked for shape: full-width rows, finite
//! non-negative numbers, and JSON that re-parses to the same cells.

use gee_bench::{experiments, Args, Report};
use serde_json::Value;

/// Follow a column's dotted key into a row's JSON object.
fn lookup<'a>(row: &'a Value, path: &str) -> &'a Value {
    path.split('.').fold(row, |v, key| &v[key])
}

fn check(name: &str, report: &Report) {
    assert_eq!(report.name, name.replace('-', "_"));
    assert!(!report.rows.is_empty(), "{name}: no rows");
    for row in &report.rows {
        assert_eq!(row.len(), report.columns.len(), "{name}: row width");
        for cell in row {
            if let Some(x) = cell.value.as_f64() {
                assert!(x.is_finite() && x >= 0.0, "{name}: cell {cell:?}");
            }
        }
    }
    let json = report.json();
    let text = serde_json::to_string_pretty(&json).unwrap();
    let parsed: Value = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed, json, "{name}: JSON round trip");
    for (i, row) in report.rows.iter().enumerate() {
        for (column, cell) in report.columns.iter().zip(row) {
            if let Some(key) = column.key {
                let found = lookup(&parsed[report.name][i], key);
                assert_eq!(found, &cell.value, "{name}: row {i} {key}");
            }
        }
    }
    for (path, value) in &report.scalars {
        assert_eq!(lookup(&parsed, path), value, "{name}: scalar {path}");
    }
    let table = report.table();
    assert!(table.starts_with(&report.title), "{name}: title first");
    assert_eq!(
        table.lines().filter(|l| l.starts_with('|')).count(),
        report.rows.len() + 1,
        "{name}: one table line per row plus the header"
    );
}

#[test]
fn every_experiment_runs_and_reports_at_tiny_scale() {
    let argv = ["--scale", "65536", "--runs", "1", "--max-log2", "13"];
    let names = experiments::ALL.iter().map(|e| e.0);
    let argv: Vec<String> = names.chain(argv).map(str::to_string).collect();
    let args = Args::try_parse(&argv).unwrap();
    assert_eq!(args.experiments.len(), 14);
    for (name, run) in &args.experiments {
        let report = run(&args);
        check(name, &report);
        match *name {
            "table1" => assert_eq!(report.rows.len(), 6, "six Table I graphs"),
            "fig2" => assert_eq!(report.rows[1][2].value.as_f64(), Some(1.0)),
            "fig3" => {
                assert_eq!(report.rows[0][0].value.as_u64(), Some(1));
                assert_eq!(report.rows[0][2].value.as_f64(), Some(1.0), "t1 / t1");
                let roofline = &report.json()["roofline"];
                assert!(roofline["bandwidth_bytes_per_sec"].as_f64().unwrap() > 0.0);
            }
            "fig4" => assert_eq!(report.rows.len(), 1, "2^13 only"),
            _ => {}
        }
    }
}
