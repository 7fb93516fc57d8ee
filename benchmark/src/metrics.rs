//! The metric names and units, in the order `BENCHMARK.json` lists them,
//! and the result line a run prints. A test holds the two files equal.

use std::collections::BTreeMap;

use serde_json::{json, Value};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed by the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("serving_rss_mb", "MiB"),
    m("embed_edges_per_s", "1/s"),
    m("embed_parallel_speedup", "x"),
    m("read_qps", "1/s"),
    m("similar_p50_us", "us"),
    m("ann_p50_us", "us"),
    m("ann_recall_at_10", "ratio"),
    m("write_batches_per_s", "1/s"),
    m("write_p50_us", "us"),
    m("churn_row_p50_us", "us"),
    m("ann_after_write_p50_us", "us"),
    m("recover_s", "s"),
];

/// Single layers, timed from outside; printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("graph.csr_build_s", "s"),
    m("graph.csr_bytes", "B"),
    m("ligra.t1_edges_per_s", "1/s"),
    m("ligra.tN_edges_per_s", "1/s"),
    m("ligra.dispatch_us", "us"),
    m("ligra.edge_pass_s", "s"),
    m("gee.embed_call_p50_us", "us"),
    m("gee.embed_call_tail_us", "us"),
    m("gee.projection_s", "s"),
    m("gee.z_alloc_s", "s"),
    m("gee.serial_optimized_edges_per_s", "1/s"),
    m("gee.interp_edges_per_s", "1/s"),
    m("gee.bytes_per_edge_computed", "B"),
    m("mem.triad_bytes_per_s", "B/s"),
    m("gee.roofline_fraction", "ratio"),
    m("gee.max_rel_err_vs_reference", "ratio"),
    m("gee.dynamic_update_us", "us"),
    m("registry.register_s", "s"),
    m("registry.apply_mem_us", "us"),
    m("registry.apply_durable_us", "us"),
    m("registry.commit_wait_us", "us"),
    m("wal.append_us", "us"),
    m("wal.sync_us", "us"),
    m("wal.fsyncs_per_batch", "ratio"),
    m("wal.bytes_per_user_byte", "ratio"),
    m("wal.scan_s", "s"),
    m("checkpoint.count", "count"),
    m("checkpoint.save_s", "s"),
    m("checkpoint.bytes", "B"),
    m("checkpoint.load_s", "s"),
    m("engine.embed_row_us", "us"),
    m("engine.classify_us", "us"),
    m("engine.similar_exact_us", "us"),
    m("engine.similar_ann_us", "us"),
    m("engine.pinned_row_us", "us"),
    m("engine.stats_us", "us"),
    m("engine.coalesce_mean", "count"),
    m("index.build_s", "s"),
    m("index.retrain_on_query_us", "us"),
    m("index.ivf_builds", "count"),
    m("index.ivf_hits", "count"),
    m("index.hit_ratio", "ratio"),
    m("codec.encode_req_ns", "ns"),
    m("codec.decode_req_ns", "ns"),
    m("codec.encode_resp_ns", "ns"),
    m("codec.decode_resp_ns", "ns"),
    m("codec.bytes_per_req", "B"),
    m("codec.bytes_per_resp", "B"),
    m("transport.duplex_rtt_us", "us"),
    m("transport.tcp_rtt_us", "us"),
    m("transport.tcp_residual_us", "us"),
    m("replicate.catchup_s", "s"),
    m("read_p99_us", "us"),
    m("write_p99_us", "us"),
    m("peak_rss_mb", "MiB"),
    m("row_p50_us", "us"),
    m("trace.overhead_ratio", "ratio"),
];

/// Values measured so far, by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"))
    }

    /// The `metrics` object of the result line: exactly the metrics of
    /// `defs`, in their order. A metric nobody measured, one outside the
    /// list, or one that is not a number is a bug in the benchmark.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        for name in self.0.keys() {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not listed"
            );
        }
        Value::Object(
            defs.iter()
                .map(|d| {
                    let value = self.get(d.name);
                    assert!(value.is_finite(), "metric {} is {value}", d.name);
                    (
                        d.name.to_string(),
                        json!({ "value": value, "unit": d.unit }),
                    )
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    .expect("the result serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn listed(section: &Value) -> Vec<(String, String)> {
        section
            .as_array()
            .expect("array")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    /// The names and units the binary emits are exactly those
    /// `BENCHMARK.json` promises, in the same order.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(doc.get("end_to_end").unwrap()), defined(END_TO_END));
        assert_eq!(listed(doc.get("per_layer").unwrap()), defined(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("paths").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.5);
        let line = result_line(true, 3, 0, metrics.to_json(&[m("setup_s", "s")]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_refused() {
        Metrics::default().to_json(&[m("setup_s", "s")]);
    }
}
