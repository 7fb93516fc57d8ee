//! The `gee-bench-v1` report `gee bench --json` and `gee bench-report`
//! write:
//!
//! ```json
//! {
//!   "bench": "serve_loadgen",
//!   "schema": "gee-bench-v1",
//!   "meta": { ... run parameters ... },
//!   "per_type": { "read": { "count": ..., "qps": ..., "p50_us": ...,
//!                           "p99_us": ..., "p999_us": ...,
//!                           "error_rate": ... }, ... }
//! }
//! ```

use std::io::Write;
use std::path::Path;

use serde_json::Value;

use crate::stats::Analysis;

/// Schema tag every BENCH report carries.
pub const BENCH_SCHEMA: &str = "gee-bench-v1";

/// Render an [`Analysis`] as a report: the `bench` name, the schema
/// tag, the run's `meta`, and one `per_type` entry per request type.
pub fn analysis_report(bench: &str, meta: Value, analysis: &Analysis) -> Value {
    let mut per_type = Vec::new();
    for (kind, summary) in analysis.types() {
        let quantile = |q: &crate::stats::P2Quantile| Value::from(q.estimate().unwrap_or(0.0));
        per_type.push((
            kind.to_string(),
            Value::Object(vec![
                ("count".to_string(), Value::from(summary.latency_us.count)),
                ("qps".to_string(), Value::from(analysis.qps(summary))),
                ("p50_us".to_string(), quantile(&summary.p50)),
                ("p99_us".to_string(), quantile(&summary.p99)),
                ("p999_us".to_string(), quantile(&summary.p999)),
                ("error_rate".to_string(), Value::from(summary.error_rate())),
            ]),
        ));
    }
    Value::Object(vec![
        ("bench".to_string(), Value::from(bench)),
        ("schema".to_string(), Value::from(BENCH_SCHEMA)),
        ("meta".to_string(), meta),
        ("per_type".to_string(), Value::Object(per_type)),
    ])
}

/// Write a report pretty-printed (greppable by CI) with a trailing
/// newline.
pub fn write_json(path: impl AsRef<Path>, report: &Value) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    let text = serde_json::to_string_pretty(report).expect("reports always serialize");
    file.write_all(text.as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{BenchOutcome, Record};
    use serde_json::json;

    #[test]
    fn envelope_has_the_pinned_shape() {
        let report = analysis_report("serve_loadgen", json!({"seed": 7}), &Analysis::new());
        let Value::Object(fields) = &report else {
            panic!("a report is an object: {report:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "schema", "meta", "per_type"]);
        assert_eq!(report["bench"].as_str(), Some("serve_loadgen"));
        assert_eq!(report["schema"].as_str(), Some("gee-bench-v1"));
        assert_eq!(report["meta"]["seed"].as_u64(), Some(7));
        assert_eq!(report["per_type"], json!({}));
    }

    #[test]
    fn analysis_report_carries_per_type_stats() {
        let mut analysis = Analysis::new();
        for i in 0..100u64 {
            analysis.ingest(&Record {
                start_us: i * 10,
                client: 0,
                kind: "read".to_string(),
                latency_us: 100 + i,
                outcome: if i == 99 {
                    BenchOutcome::Error
                } else {
                    BenchOutcome::Ok
                },
                epoch: 1,
                detail: String::new(),
            });
        }
        let report = analysis_report("serve_loadgen", json!({"clients": 2}), &analysis);
        let read = &report["per_type"]["read"];
        assert_eq!(read["count"].as_u64(), Some(100));
        assert_eq!(read["error_rate"].as_f64(), Some(0.01));
        let p50 = read["p50_us"].as_f64().unwrap();
        assert!((140.0..=160.0).contains(&p50), "median of 100..200: {p50}");
        assert!(read["qps"].as_f64().unwrap() > 0.0);
        // The report must survive an encode round trip.
        let bytes = serde_json::to_vec(&report).unwrap();
        assert_eq!(serde_json::from_slice::<Value>(&bytes).unwrap(), report);
    }
}
