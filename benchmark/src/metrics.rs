//! The metric catalogue: every name and unit the benchmark reports,
//! in the order `BENCHMARK.json` lists them, and the result line.

use std::fmt::Write as _;

use crate::trace::Layer;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics: what a user of the router (or of the harness)
/// sees. Every workload reports all of them; see README.md for what
/// each means on each workload.
const END_TO_END: [(&str, &str); 6] = [
    ("tps", "1/s"),
    ("cpu_ns_per_tx", "ns"),
    ("propagation_p50_us", "us"),
    ("propagation_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Reported for each span of the UPDATE path.
const SPAN_FIELDS: [(&str, &str); 4] = [
    ("ns_per_tx", "ns"),
    ("calls", "count"),
    ("allocs_per_tx", "count"),
    ("alloc_bytes_per_tx", "B"),
];

/// The per-layer metrics that are not per-span.
const LEDGER: [(&str, &str); 29] = [
    ("rib.apply.live_bytes_per_prefix", "B"),
    ("fib.apply.live_bytes_per_prefix", "B"),
    ("rib.adj_out.live_bytes_per_prefix", "B"),
    ("wire.decode.bytes_per_tx", "B"),
    ("wire.encode.bytes_per_tx", "B"),
    ("wire.decode.msgs", "count"),
    ("wire.encode.msgs", "count"),
    ("rib.attr_store.hit_ratio", "ratio"),
    ("rib.attr_store.distinct_sets", "count"),
    ("rib.apply.fib_change_share", "ratio"),
    ("rib.train.ns_per_tx", "ns"),
    ("rib.shard.ns_per_tx", "ns"),
    ("telemetry.metrics_on.ns_per_tx", "ns"),
    ("telemetry.trace_on.ns_per_tx", "ns"),
    ("speaker.generate.ns_per_prefix", "ns"),
    ("speaker.send.share", "ratio"),
    ("speaker.pace.late_p99_us", "us"),
    ("pipeline.sum_ns_per_tx", "ns"),
    ("pipeline.update.self_ns_per_tx", "ns"),
    ("pipeline.untraced_ns_per_tx", "ns"),
    ("pipeline.trace_overhead_pct", "%"),
    ("pipeline.live_ns_per_tx", "ns"),
    ("daemon.residue_ns_per_tx", "ns"),
    ("simnet.tick.ns_per_tick", "ns"),
    ("models.xorp.ns_per_tick", "ns"),
    ("models.ios.ns_per_tick", "ns"),
    ("simnet.ticks", "count"),
    ("core.runner.grid_overhead_pct", "%"),
    ("core.runner.parallel_speedup_x", "x"),
];

/// A full set of metrics, every value zero until [`MetricSet::set`].
/// A layer that does no work on a workload keeps its zeros: that is
/// its measured share there.
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet(
            END_TO_END
                .iter()
                .map(|&(name, unit)| Metric {
                    name: name.to_owned(),
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }

    pub fn per_layer() -> Self {
        let spans = Layer::children().iter().flat_map(|layer| {
            SPAN_FIELDS.iter().map(move |&(field, unit)| Metric {
                name: format!("{}.{field}", layer.name()),
                value: 0.0,
                unit,
            })
        });
        let rest = LEDGER.iter().map(|&(name, unit)| Metric {
            name: name.to_owned(),
            value: 0.0,
            unit,
        });
        MetricSet(spans.chain(rest).collect())
    }

    /// # Panics
    ///
    /// Panics on a name outside the catalogue: a misspelt metric must
    /// not silently go missing from the result.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        metric.value = value;
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
    }
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A measured value is finite; should one ever not be, 0 is
            // valid JSON where NaN is not, and `correct` is already
            // false by then.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(&m.name),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The entries of one of `BENCHMARK.json`'s arrays, as the text
    /// between its brackets.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("{key} missing from BENCHMARK.json"));
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find(']').expect("array closes")]
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue_in_order() {
        for (key, set) in [
            ("end_to_end", MetricSet::end_to_end()),
            ("per_layer", MetricSet::per_layer()),
        ] {
            let listed = section(key);
            let mut cursor = 0;
            let metrics = set.into_metrics();
            for metric in &metrics {
                let entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\",",
                    metric.name, metric.unit
                );
                let at = listed[cursor..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{key}: {entry} missing or out of order"));
                cursor += at + entry.len();
            }
            assert_eq!(listed.matches("\"name\":").count(), metrics.len(), "{key}");
        }
    }

    #[test]
    fn benchmark_json_names_the_five_workloads() {
        let listed = section("workloads");
        for workload in crate::inputs::Workload::ALL {
            assert!(listed.contains(&format!("\"name\": \"{}\"", workload.name())));
        }
        assert_eq!(listed.matches("\"name\":").count(), 5);
    }

    #[test]
    fn per_layer_catalogue_fits_the_contract() {
        let metrics = MetricSet::per_layer().into_metrics();
        assert!(metrics.len() <= 128);
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "a name is used twice");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut set = MetricSet::end_to_end();
        set.set("tps", 1234.5);
        let line = result_line(true, 10, 0, &set.into_metrics());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"tps\": {\"value\": 1234.5, \"unit\": \"1/s\"}"));
        assert!(!line.contains('\n'));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
