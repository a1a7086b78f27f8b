//! Metric tables (the same names `BENCHMARK.json` lists) and the report
//! every run prints: one line per metric with its unit and sample count,
//! the output checks, and the contract's JSON object as the last line.

use serde::Value;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every workload reports all seven.
pub const END_TO_END: &[MetricDef] = &[
    m("records_per_s", "rec/s", "higher"),
    m("result_latency_p50_ms", "ms", "lower"),
    m("cpu_ms_per_krec", "ms", "lower"),
    m("accuracy_pct", "%", "higher"),
    m("bytes_per_trace", "B", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Single layers, `<layer>.<metric>`. A metric whose layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("capture.decode_ns_per_rec", "ns", "lower"),
    m("capture.encode_ns_per_rec", "ns", "lower"),
    m("capture.wire_bytes_per_rec", "B", "lower"),
    m("ingest.frames", "count", "higher"),
    m("ingest.decode_errors", "count", "lower"),
    m("ingest.drain_s", "s", "lower"),
    m("sanitize.ns_per_rec", "ns", "lower"),
    m("sanitize.busy_s", "s", "lower"),
    m("sanitize.records_in", "count", "higher"),
    m("sanitize.records_out", "count", "higher"),
    m("sanitize.dropped", "count", "lower"),
    m("sanitize.pass_ratio", "ratio", "higher"),
    m("engine.router_busy_s", "s", "lower"),
    m("engine.window_busy_s", "s", "lower"),
    m("engine.merge_busy_s", "s", "lower"),
    m("engine.windows", "count", "higher"),
    m("engine.window_reconstruct_p50_ms", "ms", "lower"),
    m("engine.window_reconstruct_p90_ms", "ms", "lower"),
    m("engine.queue_wait_p50_ms", "ms", "lower"),
    m("engine.result_latency_p90_ms", "ms", "lower"),
    m("engine.overhead_pct", "%", "lower"),
    m("engine.pickup_queue_depth_max", "count", "lower"),
    m("engine.degraded_windows", "count", "lower"),
    m("engine.shed_records", "count", "lower"),
    m("core.reconstruct_ns_per_rec", "ns", "lower"),
    m("core.candidates_ns_per_parent", "ns", "lower"),
    m("core.batching_ns_per_parent", "ns", "lower"),
    m("core.seed_us_per_task", "us", "lower"),
    m("core.score_ns_per_candidate", "ns", "lower"),
    m("core.refit_us_per_edge", "us", "lower"),
    m("core.candidates_s", "s", "lower"),
    m("core.seed_s", "s", "lower"),
    m("core.optimize_s", "s", "lower"),
    m("core.tasks", "count", "lower"),
    m("core.warm_tasks", "count", "higher"),
    m("core.candidates_total", "count", "lower"),
    m("core.candidates_per_parent_mean", "count", "lower"),
    m("core.batches", "count", "lower"),
    m("core.batch_size_mean", "count", "lower"),
    m("core.em_iterations", "count", "lower"),
    m("core.mapped_ratio", "ratio", "higher"),
    m("core.top_choice_ratio", "ratio", "higher"),
    m("core.scaling_ratio", "ratio", "higher"),
    m("core.density_ratio", "ratio", "higher"),
    m("core.cold_window_p50_ms", "ms", "lower"),
    m("core.warm_window_p50_ms", "ms", "lower"),
    m("solver.optimize_batch_us", "us", "lower"),
    m("solver.solves", "count", "lower"),
    m("solver.nodes_expanded", "count", "lower"),
    m("solver.nodes_per_solve", "count", "lower"),
    m("solver.inexact", "count", "lower"),
    m("solver.deadline_expired", "count", "lower"),
    m("stats.gmm_fits", "count", "lower"),
    m("stats.gmm_components_mean", "count", "lower"),
    m("registry.edges", "count", "higher"),
    m("registry.quarantined", "count", "lower"),
    m("archive_stage.stored_traces_us_per_window", "us", "lower"),
    m("archive_stage.busy_s", "s", "lower"),
    m("store.encode_ns_per_trace", "ns", "lower"),
    m("store.write_segment_mb_per_s", "MB/s", "higher"),
    m("store.read_segment_mb_per_s", "MB/s", "higher"),
    m("store.index_read_us", "us", "lower"),
    m("store.open_ms", "ms", "lower"),
    m("store.seals", "count", "lower"),
    m("store.appends", "count", "higher"),
    m("store.bytes_per_span", "B", "lower"),
    m("store.query_window_p50_ms", "ms", "lower"),
    m("store.query_service_p50_ms", "ms", "lower"),
    m("store.query_range_p50_ms", "ms", "lower"),
    m("store.query_minlat_p50_ms", "ms", "lower"),
    m("store.query_cycle_p90_ms", "ms", "lower"),
    m("store.read_query_p50_ms", "ms", "lower"),
    m("store.segments_scanned_ratio", "ratio", "lower"),
    m("store.compaction_s", "s", "lower"),
    m("checkpoint.write_ms", "ms", "lower"),
    m("checkpoint.load_ms", "ms", "lower"),
    m("checkpoint.bytes", "B", "lower"),
    m("checkpoint.writes", "count", "lower"),
    m("telemetry.trace_overhead_pct", "%", "lower"),
    m("telemetry.render_ms", "ms", "lower"),
    m("telemetry.series", "count", "lower"),
    m("loadgen.lag_p50_ms", "ms", "lower"),
    m("loadgen.lag_max_ms", "ms", "lower"),
    m("loadgen.cpu_share_pct", "%", "lower"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// Metric values by name; anything a run does not set reads 0.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Measured>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let known = END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name);
        assert!(known, "metric {name} is not in the metric tables");
        self.0.insert(name, Measured { value, samples });
    }

    pub fn get(&self, name: &str) -> Measured {
        self.0.get(name).copied().unwrap_or(Measured {
            value: 0.0,
            samples: 0,
        })
    }
}

/// One output check: what was compared and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

pub fn check(name: &'static str, passed: bool, detail: String) -> Check {
    Check {
        name,
        passed,
        detail,
    }
}

/// Everything one run reports.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub checks: Vec<Check>,
    /// Free-form lines printed above the metrics (raw samples, busy-time
    /// accounting): context for a reader, not part of the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .defs()
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    Value::Map(vec![
                        (
                            "value".to_string(),
                            Value::F64(self.values.get(d.name).value),
                        ),
                        ("unit".to_string(), Value::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }

    /// Human-readable lines followed by the JSON object on the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        for d in self.defs() {
            let v = self.values.get(d.name);
            out.push_str(&format!(
                "{:<44} {:>16.4} {:<6} n={}\n",
                d.name, v.value, d.unit, v.samples
            ));
        }
        out.push_str(&format!(
            "operations attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            out.push_str(&format!("check {verdict} {}: {}\n", c.name, c.detail));
        }
        out.push_str(&serde_json::to_string(&self.to_json()).expect("report serializes"));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_obey_the_contract_limits() {
        assert_eq!(END_TO_END.len(), 7);
        assert!(PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "names are unique");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    /// `BENCHMARK.json` lists the same metrics, units and directions as
    /// the tables here, and the workloads the binary knows.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let Value::Map(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match top.iter().find(|(k, _)| k == key) {
            Some((_, Value::Seq(items))) => items.clone(),
            _ => panic!("{key} is not a list"),
        };
        let text_of = |item: &Value, key: &str| match item {
            Value::Map(fields) => match fields.iter().find(|(k, _)| k == key) {
                Some((_, Value::Str(s))) => s.clone(),
                _ => panic!("{key} missing"),
            },
            _ => panic!("not an object"),
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
                .collect();
            let expected: Vec<(String, String, String)> = table
                .iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| text_of(w, "name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert!(matches!(
            top.iter().find(|(k, _)| k == "run_seconds"),
            Some((_, Value::U64(s))) if *s == crate::RUN_SECONDS
        ));
    }

    #[test]
    fn a_failed_check_makes_the_report_incorrect() {
        let mut report = Report {
            workload: "w",
            traced: false,
            attempted: 8,
            failed: 0,
            values: Values::default(),
            checks: vec![check("a", true, String::new())],
            notes: Vec::new(),
        };
        report.values.set("setup_s", 1.25, 3);
        assert!(report.correct());
        let line = report.render().lines().last().unwrap().to_string();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        report.checks.push(check("b", false, "mismatch".into()));
        assert!(!report.correct());
        assert!(report.render().contains("check FAIL b: mismatch"));
    }
}
