//! Every metric the benchmark reports, by name and unit, and the one
//! JSON line that carries a run's result.

use std::fmt::Write as _;

/// A reported metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[m("setup_s", "s"), m("run_s", "s"), m("peak_rss_mib", "MiB")];

/// Measured by the traced run, on every workload (0 where a layer does
/// no work on that workload; the run's metadata line lists those).
pub const PER_LAYER: &[Metric] = &[
    m("core.build_s", "s"),
    m("core.loop_s", "s"),
    m("core.teardown_s", "s"),
    m("core.events", "count"),
    m("core.fti_vs", "virtual_s"),
    m("core.transitions", "count"),
    m("pump.steps", "count"),
    m("pump.nodes_touched", "count"),
    m("pump.touch_ratio", "ratio"),
    m("pump.table_scans", "count"),
    m("pump.parallel_rounds", "count"),
    m("sim.queue_ns", "ns"),
    m("sim.pacer_lag_s", "s"),
    m("cm.msgs", "count"),
    m("bgp.updates_rx", "count"),
    m("bgp.updates_tx", "count"),
    m("bgp.prefixes_per_update", "ratio"),
    m("bgp.mrai_flushes", "count"),
    m("bgp.decide_calls", "count"),
    m("bgp.decide_hit_ratio", "ratio"),
    m("bgp.candidate_touches", "count"),
    m("bgp.attr_reuse_ratio", "ratio"),
    m("bgp.export_hit_ratio", "ratio"),
    m("bgp.speaker_s", "s"),
    m("bgp.codec_s", "s"),
    m("openflow.packet_ins", "count"),
    m("openflow.flow_mods", "count"),
    m("openflow.stats_replies", "count"),
    m("openflow.codec_s", "s"),
    m("controller.moves", "count"),
    m("dataplane.table_writes", "count"),
    m("dataplane.rules_max", "count"),
    m("dataplane.flowtable_lookup_ns", "ns"),
    m("dataplane.fib_insert_ns", "ns"),
    m("fluid.solves", "count"),
    m("fluid.flows_touched", "count"),
    m("fluid.touched_per_solve", "ratio"),
    m("fluid.heap_stale_ratio", "ratio"),
    m("fluid.flush_s", "s"),
    m("fluid.completion_s", "s"),
    m("fluid.stop_s", "s"),
    m("topo.build_s", "s"),
    m("sweep.exp_p50_s", "s"),
    m("sweep.exp_p90_s", "s"),
    m("sweep.busy_frac", "ratio"),
    m("sweep.resume_s", "s"),
    m("sweep.checkpoint_bytes", "bytes"),
    m("mem.attr_bytes", "bytes"),
    m("mem.prefix_ids", "count"),
    m("trace.events", "count"),
    m("trace.dropped", "count"),
    m("trace.overhead_frac", "ratio"),
];

/// Looks a metric up by name in `set`.
#[cfg(test)]
pub fn find(set: &[Metric], name: &str) -> Option<Metric> {
    set.iter().copied().find(|m| m.name == name)
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives it. Non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the value and
/// unit of every metric in `set` (missing values are reported as 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[Metric],
    value_of: impl Fn(&str) -> Option<f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in set.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = value_of(metric.name).unwrap_or(0.0);
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            json_number(v),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_stats::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let doc = benchmark_json();
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(&doc, key);
            assert_eq!(listed.len(), set.len(), "{key}: metric count");
            for (name, unit) in &listed {
                let m = find(set, name).unwrap_or_else(|| panic!("{key}: {name} not reported"));
                assert_eq!(m.unit, unit, "{key}: unit of {name}");
            }
        }
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let doc = benchmark_json();
        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let line = result_line(true, 3, 0, set, |_| Some(1.25));
            let parsed = Json::parse(&line).expect("result line is JSON");
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(3));
            assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = parsed.get("metrics").unwrap();
            for (name, unit) in listed(&doc, key) {
                let entry = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.25));
            }
        }
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
