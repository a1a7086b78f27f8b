//! # tw-telemetry — self-observability for TraceWeaver
//!
//! A tracing system must itself be traceable. This crate provides the
//! pipeline's internal metrics layer: a lock-cheap [`Registry`] of counters,
//! gauges, and histograms (fixed-bucket or log-scaled), with labeled series
//! and RAII [`StageTimer`]s, rendered in Prometheus text exposition format
//! v0.0.4 (`# HELP`/`# TYPE` headers, escaped labels, cumulative `le`
//! buckets, `_sum`/`_count`).
//!
//! Fully in-tree per the workspace's vendored-shim policy: no external
//! dependencies, std only.
//!
//! ## Two registries
//!
//! * **Per-component registries** — pipeline stages ([`IngestServer`],
//!   `Sanitizer`, `OnlineEngine` in `tw-pipeline`) accept an explicit
//!   `Registry` so tests and embedded deployments stay isolated; their
//!   default constructors make a private one.
//! * **The [`global()`] registry** — `tw-core` and `tw-solver`
//!   internals record through a process-global registry because
//!   their parameter structs (`Params`, `SolveOptions`) are `Copy +
//!   Serialize` and cannot carry handles.
//!
//! A scrape endpoint concatenates both with [`Registry::render_multi`];
//! metric-name prefixes are disjoint by convention (`tw_ingest_*`,
//! `tw_sanitize_*`, `tw_engine_*` vs `tw_core_*`, `tw_solver_*`), see
//! DESIGN.md §10.
//!
//! Telemetry leaves the process only by being scraped: [`http`] is the
//! GET-only server and client behind `/metrics` and `/spans`, on the one
//! TCP accept loop, [`listen`], that span ingestion shares; [`trace`]
//! the self-tracing span recorder, and [`lint`] the exposition checker.
//!
//! ## Hot-path cost
//!
//! Counter increments are one relaxed `fetch_add` on the series' own
//! cache-line-aligned atomic — wait-free. The layer has no off
//! switch; its cost is measured from outside by the repository benchmark
//! (`telemetry.trace_overhead_pct` in `bench/README.md`).
//!
//! [`IngestServer`]: https://docs.rs/tw-pipeline

mod expose;
pub mod http;
pub mod lint;
pub mod listen;
mod metrics;
pub mod trace;

pub use expose::{render_families, render_families_openmetrics, snapshot_has_exemplars};
pub use metrics::{
    Buckets, Counter, Exemplar, Gauge, Histogram, StageTimer, EXEMPLAR_MAX_LABEL_CHARS,
};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use metrics::{CounterCore, GaugeCore, HistogramCore};

/// Metric family kind, as rendered in `# TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Canonicalized label set: sorted by label name.
pub(crate) type LabelSet = Vec<(String, String)>;

enum Metric {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramCore>),
}

struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<LabelSet, Metric>,
}

/// A set of metric families. Cloning shares the underlying storage.
///
/// Registration (`counter`, `gauge_with`, ...) takes a write lock and is
/// meant for construction time; the returned handles are lock-free.
/// Registering the same `(name, labels)` twice returns a handle to the same
/// series. Re-registering a name with a different kind panics.
#[derive(Clone, Default)]
pub struct Registry {
    families: Arc<RwLock<BTreeMap<String, Family>>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fams = self.families.read().unwrap();
        f.debug_struct("Registry")
            .field("families", &fams.len())
            .finish()
    }
}

/// Process-global registry used by `tw-core`, `tw-solver`, and `tw-capture`
/// internals (whose config structs cannot carry handles).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn canonical_labels(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

impl Registry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if both handles point at the same underlying storage.
    pub fn same_as(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.families, &other.families)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name `{k}` on `{name}`");
            assert!(
                *k != "le",
                "label `le` is reserved for histogram buckets (`{name}`)"
            );
        }
        let labelset = canonical_labels(labels);
        let mut fams = self.families.write().unwrap();
        let fam = fams.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            fam.kind == kind,
            "metric `{name}` re-registered as {kind:?}, previously {:?}",
            fam.kind
        );
        let metric = fam.series.entry(labelset).or_insert_with(make);
        match metric {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        }
    }

    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let m = self.register(name, help, MetricKind::Counter, labels, || {
            Metric::Counter(Arc::new(CounterCore::new()))
        });
        match m {
            Metric::Counter(core) => Counter { core },
            _ => unreachable!("kind checked in register"),
        }
    }

    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let m = self.register(name, help, MetricKind::Gauge, labels, || {
            Metric::Gauge(Arc::new(GaugeCore::new()))
        });
        match m {
            Metric::Gauge(core) => Gauge { core },
            _ => unreachable!("kind checked in register"),
        }
    }

    pub fn histogram(&self, name: &str, help: &str, buckets: Buckets) -> Histogram {
        self.histogram_with(name, help, buckets, &[])
    }

    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        buckets: Buckets,
        labels: &[(&str, &str)],
    ) -> Histogram {
        let bounds = buckets.bounds();
        let m = self.register(name, help, MetricKind::Histogram, labels, || {
            Metric::Histogram(Arc::new(HistogramCore::new(bounds)))
        });
        match m {
            Metric::Histogram(core) => Histogram { core },
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Snapshot every family for rendering.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        let fams = self.families.read().unwrap();
        fams.iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                series: fam
                    .series
                    .iter()
                    .map(|(labels, metric)| {
                        let value = match metric {
                            Metric::Counter(c) => ValueSnapshot::Counter(c.get()),
                            Metric::Gauge(g) => ValueSnapshot::Gauge(g.get()),
                            Metric::Histogram(h) => {
                                let (cumulative, sum, count) = h.snapshot();
                                ValueSnapshot::Histogram {
                                    bounds: h.bounds().to_vec(),
                                    cumulative,
                                    sum,
                                    count,
                                    exemplars: h.exemplars(),
                                }
                            }
                        };
                        (labels.clone(), value)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Render this registry in Prometheus text exposition format v0.0.4.
    pub fn render(&self) -> String {
        expose::render_families(&self.snapshot())
    }

    /// Snapshot several registries as one merged family list. Registries
    /// are deduplicated by identity; colliding family names are merged
    /// (first help/kind wins, duplicate label sets are dropped).
    pub fn merged_snapshot(registries: &[&Registry]) -> Vec<FamilySnapshot> {
        let mut seen: Vec<&Registry> = Vec::new();
        let mut merged: BTreeMap<String, FamilySnapshot> = BTreeMap::new();
        for reg in registries {
            if seen.iter().any(|r| r.same_as(reg)) {
                continue;
            }
            seen.push(reg);
            for fam in reg.snapshot() {
                match merged.entry(fam.name.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(fam);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let dst = e.get_mut();
                        if dst.kind == fam.kind {
                            for (labels, value) in fam.series {
                                dst.series.entry(labels).or_insert(value);
                            }
                        }
                    }
                }
            }
        }
        merged.into_values().collect()
    }

    /// Render several registries as one exposition document (text format
    /// v0.0.4; exemplars are omitted — use
    /// [`Registry::render_multi_openmetrics`] to keep them).
    pub fn render_multi(registries: &[&Registry]) -> String {
        expose::render_families(&Self::merged_snapshot(registries))
    }

    /// Render several registries as one OpenMetrics document: exemplars
    /// rendered in `# {labels} value` syntax on bucket lines, terminated
    /// with `# EOF`.
    pub fn render_multi_openmetrics(registries: &[&Registry]) -> String {
        expose::render_families_openmetrics(&Self::merged_snapshot(registries))
    }

    /// Number of exposed time series (sample lines a scrape would return):
    /// one per counter/gauge series, `buckets + 2` per histogram series.
    pub fn series_count(&self) -> usize {
        self.snapshot()
            .iter()
            .flat_map(|f| f.series.values())
            .map(|v| match v {
                ValueSnapshot::Counter(_) | ValueSnapshot::Gauge(_) => 1,
                ValueSnapshot::Histogram { cumulative, .. } => cumulative.len() + 2,
            })
            .sum()
    }
}

/// Point-in-time view of one metric family, used by the renderer.
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub series: BTreeMap<LabelSet, ValueSnapshot>,
}

/// Point-in-time value of one series.
pub enum ValueSnapshot {
    Counter(u64),
    Gauge(f64),
    Histogram {
        bounds: Vec<f64>,
        /// Cumulative counts; last entry is the `+Inf` bucket (== count).
        cumulative: Vec<u64>,
        sum: f64,
        count: u64,
        /// One optional exemplar per bucket (incl. `+Inf`), in bucket
        /// order. Rendered only in OpenMetrics mode.
        exemplars: Vec<Option<Exemplar>>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_sharing() {
        let r = Registry::new();
        let a = r.counter("t_total", "help");
        let b = r.counter("t_total", "help");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
    }

    #[test]
    fn histogram_bucketing_le_semantics() {
        let r = Registry::new();
        let h = r.histogram("h", "help", Buckets::fixed(&[1.0, 2.0]));
        h.observe(1.0); // le="1"
        h.observe(1.5); // le="2"
        h.observe(5.0); // +Inf
        let (cum, sum, count) = h.snapshot();
        assert_eq!(cum, vec![1, 2, 3]);
        assert_eq!(count, 3);
        assert!((sum - 7.5).abs() < 1e-9);
    }

    #[test]
    fn stage_timer_observes_on_drop_and_discard_cancels() {
        let r = Registry::new();
        let h = r.histogram("h", "help", Buckets::exponential(1e-6, 10.0, 8));
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 1);
        h.start_timer().discard();
        assert_eq!(h.count(), 1);
        h.start_timer().stop();
        assert_eq!(h.count(), 2);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x", "help");
        let _ = r.gauge("x", "help");
    }

    #[test]
    fn labels_are_canonicalized() {
        let r = Registry::new();
        let a = r.counter_with("x_total", "h", &[("b", "2"), ("a", "1")]);
        let b = r.counter_with("x_total", "h", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }
}
