//! Metrics as the benchmark prints them, and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (a ratio with a zero base) reads 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics, printed with tracing off.
pub const END_TO_END: [&str; 4] = ["cpu_s", "cell_refs_per_cpu_s", "peak_rss_mb", "setup_s"];

/// The per-layer metrics, printed by the traced run.
pub const PER_LAYER: [&str; 35] = [
    "vm.busy_s",
    "vm.runs",
    "vm.refs",
    "vm.ns_per_ref",
    "gc.busy_s",
    "gc.collections",
    "gc.bytes_copied",
    "gc.bytes_swept",
    "gc.share",
    "trace.encode_s",
    "trace.encode_ns_per_ref",
    "trace.bytes_per_ref",
    "trace.decode_s",
    "trace.decode_ns_per_ref",
    "store.acquire_s",
    "store.offer_s",
    "store.hits",
    "store.misses",
    "store.spill_loads",
    "store.spill_rejects",
    "store.hit_ratio",
    "store.peak_bytes",
    "store.mapped_bytes",
    "sim.busy_s",
    "sim.cell_refs",
    "sim.ns_per_cell_ref",
    "analysis.busy_s",
    "analysis.refs",
    "analysis.ns_per_ref",
    "sched.backpressure_s",
    "sched.idle_s",
    "sched.steals",
    "sched.packets",
    "trace_overhead_frac",
    "unattributed_s",
];

/// True if `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = cachegc_core::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(cachegc_core::json::Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads = names("workloads");
        let expected: Vec<&str> = crate::workload::Kind::ALL
            .iter()
            .map(|k| k.name())
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(3, 1, &[Metric::new("cpu_s", 1.25, "s")]);
        let doc = cachegc_core::json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(Metric::new("x", f64::NAN, "s").value, 0.0);
    }
}
