//! Process-global `tw_solver_*` instrumentation (DESIGN.md §10).
//!
//! Handles are cached in a `OnceLock` and written with relaxed atomics,
//! recorded once per *solve* — never per branch node — so the B&B inner
//! loop stays untouched.

use std::sync::OnceLock;
use tw_telemetry::Counter;

/// Cached handles for every `tw_solver_*` series.
pub(crate) struct SolverMetrics {
    /// `tw_solver_solves_total`: branch-and-bound searches run.
    pub solves: Counter,
    /// `tw_solver_nodes_expanded_total`: branch-and-bound nodes expanded.
    pub nodes_expanded: Counter,
    /// `tw_solver_inexact_total`: solves that shipped the greedy-or-better
    /// incumbent instead of a proven optimum.
    pub inexact: Counter,
    /// `tw_solver_deadline_expired_total`: inexact solves halted by the
    /// wall-clock deadline (the rest exhausted the node budget).
    pub deadline_expired: Counter,
}

/// The process-global handle set, built on first use.
pub(crate) fn metrics() -> &'static SolverMetrics {
    static METRICS: OnceLock<SolverMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = tw_telemetry::global();
        SolverMetrics {
            solves: r.counter(
                "tw_solver_solves_total",
                "Weighted-MIS searches run (batches whose top candidates are not the unique optimum).",
            ),
            nodes_expanded: r.counter(
                "tw_solver_nodes_expanded_total",
                "Branch-and-bound nodes expanded across all solves.",
            ),
            inexact: r.counter(
                "tw_solver_inexact_total",
                "Solves that returned a degraded (greedy-or-better) incumbent.",
            ),
            deadline_expired: r.counter(
                "tw_solver_deadline_expired_total",
                "Inexact solves halted by the wall-clock deadline rather than the node budget.",
            ),
        }
    })
}

/// Registers every `tw_solver_*` family, so they read zero before any search.
pub fn register_metrics() {
    metrics();
}
