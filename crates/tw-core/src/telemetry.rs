//! Process-global `tw_core_*` instrumentation (DESIGN.md §10).
//!
//! The algorithm crates record into [`tw_telemetry::global()`] rather
//! than a caller-supplied registry because [`crate::Params`] is a plain
//! `Copy + Serialize` knob bag that cannot carry a handle. Handles are
//! resolved once per process through a `OnceLock`, so the per-task cost
//! is a pointer load plus relaxed atomic ops; with the global registry
//! disabled every write degrades to a single relaxed load.
//!
//! Telemetry is strictly write-only from the algorithm's point of view:
//! nothing here feeds back into reconstruction, preserving the
//! byte-identical-across-thread-counts guarantee.

use std::sync::OnceLock;
use tw_telemetry::{Buckets, Counter, Gauge, Histogram};

/// Cached handles for every `tw_core_*` series.
pub(crate) struct CoreMetrics {
    /// `tw_core_tasks_total`: per-container reconstruction tasks run.
    pub tasks: Counter,
    /// `tw_core_warm_tasks_total`: tasks that started from a warm prior.
    pub warm_tasks: Counter,
    /// `tw_core_spans_total`: incoming spans considered.
    pub spans: Counter,
    /// `tw_core_spans_mapped_total`: incoming spans that got a mapping.
    pub spans_mapped: Counter,
    /// `tw_core_candidates_total`: candidate child sets enumerated.
    pub candidates: Counter,
    /// `tw_core_candidates_per_span`: candidate-set size distribution.
    pub candidates_per_span: Histogram,
    /// `tw_core_batches_total`: optimization batches formed.
    pub batches: Counter,
    /// `tw_core_batch_size`: spans per batch (perfect-cut effectiveness).
    pub batch_size: Histogram,
    /// `tw_core_em_iterations_total`: EM iterations executed.
    pub em_iterations: Counter,
    /// `tw_core_skip_budget_total`: phantom skip slots granted (§4.2).
    pub skip_budget: Counter,
    /// `tw_core_gmm_components`: BIC-selected component count of every
    /// edge refit a task performed (unchanged edges are not refit).
    pub gmm_components: Histogram,
    /// `tw_core_stage_seconds{stage=...}`: wall time per stage — the first
    /// three once per task, `absorb` once per `DelayRegistry::absorb_round`
    /// (every task's gaps absorbed and refit, the round closed).
    pub stage_candidates: Histogram,
    pub stage_seed: Histogram,
    pub stage_optimize: Histogram,
    pub stage_absorb: Histogram,
    /// `tw_core_registry_quarantined_total`: degenerate samples/posteriors
    /// the delay registry refused to absorb (DESIGN.md §9).
    pub registry_quarantined: Counter,
    /// `tw_core_registry_edges`: live edges in the delay registry.
    pub registry_edges: Gauge,
}

/// The process-global handle set, built on first use.
pub(crate) fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tw_telemetry::global();
        tw_solver::register_metrics();
        let stage = |name: &str| {
            r.histogram_with(
                "tw_core_stage_seconds",
                "Wall time per reconstruction stage: per task, and per warm pass for absorb.",
                Buckets::exponential(1e-6, 4.0, 12),
                &[("stage", name)],
            )
        };
        CoreMetrics {
            tasks: r.counter(
                "tw_core_tasks_total",
                "Per-container reconstruction tasks run (paper §4.1).",
            ),
            warm_tasks: r.counter(
                "tw_core_warm_tasks_total",
                "Tasks that started EM from a warm registry prior instead of the seed.",
            ),
            spans: r.counter(
                "tw_core_spans_total",
                "Incoming spans considered across all tasks.",
            ),
            spans_mapped: r.counter(
                "tw_core_spans_mapped_total",
                "Incoming spans that received a child mapping.",
            ),
            candidates: r.counter(
                "tw_core_candidates_total",
                "Candidate child sets enumerated across all spans.",
            ),
            candidates_per_span: r.histogram(
                "tw_core_candidates_per_span",
                "Candidate child sets per incoming span (ambiguity pressure).",
                Buckets::fixed(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
            ),
            batches: r.counter(
                "tw_core_batches_total",
                "Joint-optimization batches formed at perfect cuts.",
            ),
            batch_size: r.histogram(
                "tw_core_batch_size",
                "Incoming spans per optimization batch.",
                Buckets::fixed(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
            ),
            em_iterations: r.counter(
                "tw_core_em_iterations_total",
                "EM iterations executed (score → optimize → refit passes).",
            ),
            skip_budget: r.counter(
                "tw_core_skip_budget_total",
                "Phantom skip slots granted by the dynamism detector (paper §4.2).",
            ),
            gmm_components: r.histogram(
                "tw_core_gmm_components",
                "BIC-selected GMM component count per delay-edge refit.",
                Buckets::fixed(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            ),
            stage_candidates: stage("candidates"),
            stage_seed: stage("seed"),
            stage_optimize: stage("optimize"),
            stage_absorb: stage("absorb"),
            registry_quarantined: r.counter(
                "tw_core_registry_quarantined_total",
                "Degenerate samples/posteriors the delay registry refused to absorb.",
            ),
            registry_edges: r.gauge(
                "tw_core_registry_edges",
                "Live (process, edge) entries in the delay registry.",
            ),
        }
    })
}
