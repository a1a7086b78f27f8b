//! TraceWeaver: non-intrusive request-trace reconstruction (SIGCOMM 2024).
//!
//! Given per-container span observations (request/response timestamps from
//! eBPF hooks or sidecars) and the application's call graph + dependency
//! order (learned in a test environment), TraceWeaver reconstructs which
//! incoming request caused which outgoing backend requests — without any
//! application modification or context propagation.
//!
//! The algorithm (paper §4) decomposes reconstruction into independent
//! per-container tasks. Each task:
//!
//! 1. identifies feasible candidate mappings per incoming span using
//!    interval-nesting and dependency-order timing constraints
//!    ([`candidates`]),
//! 2. splits spans into optimization batches at provably safe "perfect
//!    cuts" ([`batching`]),
//! 3. estimates inter-span delay distributions — seed Gaussians from
//!    marginal statistics, then Gaussian mixtures from inferred mappings
//!    ([`delays`]),
//! 4. scores candidates by log-likelihood under those distributions,
//! 5. jointly optimizes each batch as a maximum-weight independent set
//!    ([`optimize`]),
//! 6. iterates 3–5 to convergence ([`task`]),
//!
//! and handles call-graph dynamism (caching, failures, A/B subsetting)
//! with budgeted phantom "skip spans" ([`dynamism`]).
//!
//! # Quick start
//!
//! ```
//! use tw_core::{Params, TraceWeaver};
//! use tw_sim::apps::two_service_chain;
//! use tw_sim::{Simulator, Workload};
//! use tw_model::time::Nanos;
//! use tw_model::metrics::end_to_end_accuracy_all_roots;
//!
//! let app = two_service_chain(7);
//! let call_graph = app.config.call_graph();
//! let sim = Simulator::new(app.config).unwrap();
//! let out = sim.run(&Workload::poisson(app.roots[0], 200.0, Nanos::from_millis(500)));
//!
//! let tw = TraceWeaver::new(call_graph, Params::default());
//! let result = tw.reconstruct_records(&out.records);
//! let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth);
//! assert!(acc.ratio() > 0.9);
//! ```

pub mod batching;
pub mod candidates;
pub mod delays;
pub mod dynamism;
mod executor;
pub mod optimize;
pub mod params;
pub mod registry;
pub mod task;
mod telemetry;

pub use params::Params;
pub use registry::{DelayRegistry, GapRound};
pub use task::{ReconstructionTask, TaskReport};

use std::collections::HashMap;
use tw_model::callgraph::CallGraph;
use tw_model::ids::ServiceId;
use tw_model::mapping::{Mapping, RankedMapping};
use tw_model::span::{split_by_process, ProcessKey, RpcRecord, SpanView};

/// The reconstruction engine: a call graph plus tuning parameters.
#[derive(Debug, Clone)]
pub struct TraceWeaver {
    call_graph: CallGraph,
    params: Params,
}

/// Output of a reconstruction pass.
#[derive(Debug, Clone, Default)]
pub struct Reconstruction {
    /// Predicted parent → children mapping across all services.
    pub mapping: Mapping,
    /// Ranked top-K candidate child sets per parent (paper §6.2.1).
    pub ranked: RankedMapping,
    /// Per-task diagnostic reports.
    pub reports: Vec<(ProcessKey, TaskReport)>,
}

/// Aggregate of all task reports in a reconstruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconstructionSummary {
    pub tasks: usize,
    pub total_spans: usize,
    pub mapped_spans: usize,
    pub top_choice_spans: usize,
    pub batches: usize,
    pub skip_budget: usize,
    /// Batches that shipped a degraded greedy-incumbent solve (node
    /// budget or wall-clock deadline exhausted; DESIGN.md §9).
    pub inexact_batches: usize,
}

impl ReconstructionSummary {
    /// Fraction of incoming spans that received a mapping.
    pub fn mapped_fraction(&self) -> f64 {
        if self.total_spans == 0 {
            1.0
        } else {
            self.mapped_spans as f64 / self.total_spans as f64
        }
    }
}

impl Reconstruction {
    /// Aggregate diagnostics across all per-container tasks.
    pub fn summary(&self) -> ReconstructionSummary {
        let mut s = ReconstructionSummary {
            tasks: self.reports.len(),
            ..Default::default()
        };
        for (_, r) in &self.reports {
            s.total_spans += r.total_spans;
            s.mapped_spans += r.mapped_spans;
            s.top_choice_spans += r.top_choice_spans;
            s.batches += r.batches;
            s.skip_budget += r.skip_budget;
            s.inexact_batches += r.inexact_batches;
        }
        s
    }

    /// Per-service confidence scores (paper §6.3.2): 100% minus the
    /// percentage of incoming spans at the service that remained unmapped
    /// or weren't assigned their top-choice mapping. Averaged over the
    /// service's containers, weighted by span count.
    pub fn confidence_by_service(&self) -> HashMap<ServiceId, f64> {
        let mut agg: HashMap<ServiceId, TaskReport> = HashMap::new();
        for (proc_key, report) in &self.reports {
            let e = agg.entry(proc_key.service).or_default();
            e.top_choice_spans += report.top_choice_spans;
            e.total_spans += report.total_spans;
        }
        agg.into_iter()
            .map(|(svc, r)| (svc, r.confidence()))
            .collect()
    }
}

impl TraceWeaver {
    pub fn new(call_graph: CallGraph, params: Params) -> Self {
        TraceWeaver { call_graph, params }
    }

    pub fn params(&self) -> &Params {
        &self.params
    }

    pub fn call_graph(&self) -> &CallGraph {
        &self.call_graph
    }

    /// Reconstruct from per-process span views.
    ///
    /// Per-container tasks are independent (paper §4.1), so
    /// [`Params::threads`] workers pull them from one shared queue. The
    /// output is identical for every thread count: tasks own disjoint
    /// parents, results merge in sorted key order, and `threads = 1` runs
    /// inline on the calling thread.
    pub fn reconstruct(&self, views: &HashMap<ProcessKey, SpanView>) -> Reconstruction {
        self.reconstruct_inner(views, None).0
    }

    /// Convenience: split raw records into per-process views and
    /// reconstruct.
    pub fn reconstruct_records(&self, records: &[RpcRecord]) -> Reconstruction {
        self.reconstruct(&split_by_process(records))
    }

    /// Warm-path reconstruction from raw records: tasks whose process
    /// appears in `prior` skip the seed bootstrap and start EM from the
    /// registry's models (running one pass); the others seed cold.
    /// Returns the reconstruction plus the round of every task's final
    /// edge gaps, for [`DelayRegistry::absorb_round`] to fold into the
    /// next pass's prior. The result needs no absorb, so a caller can hand
    /// it on first and refit after.
    ///
    /// Like [`TraceWeaver::reconstruct`], the output (including the
    /// round) is byte-identical for every thread count: tasks are pure
    /// and results return in sorted process order.
    pub fn reconstruct_records_warm(
        &self,
        records: &[RpcRecord],
        prior: &DelayRegistry,
    ) -> (Reconstruction, GapRound) {
        self.reconstruct_inner(&split_by_process(records), Some(prior))
    }

    /// [`TraceWeaver::reconstruct_records_warm`] plus its absorb: returns
    /// the reconstruction and the *posterior* registry, `prior` advanced
    /// by one absorb round (decayed reservoirs, weighted refit).
    pub fn reconstruct_records_with_registry(
        &self,
        records: &[RpcRecord],
        prior: &DelayRegistry,
    ) -> (Reconstruction, DelayRegistry) {
        let (result, round) = self.reconstruct_records_warm(records, prior);
        let mut posterior = prior.clone();
        posterior.absorb_round(round);
        (result, posterior)
    }

    /// One pass; the gap round is collected only on the warm path.
    fn reconstruct_inner(
        &self,
        views: &HashMap<ProcessKey, SpanView>,
        prior: Option<&DelayRegistry>,
    ) -> (Reconstruction, GapRound) {
        // Deterministic task order.
        let mut keys: Vec<&ProcessKey> = views.keys().collect();
        keys.sort();
        keys.retain(|k| !views[*k].incoming.is_empty());

        // Per-process warm priors materialized up front so task closures
        // stay read-only.
        let priors: HashMap<ProcessKey, delays::DelayModel> = match prior {
            Some(reg) => keys
                .iter()
                .filter_map(|&&k| reg.model_for(&k).map(|m| (k, m)))
                .collect(),
            None => HashMap::new(),
        };

        // One wall-clock cutoff for the whole pass: every task's MIS
        // solves share it, so total solve time — not per-task time — is
        // bounded by `Params::solver_deadline_us` (None when 0).
        let deadline = self.params.solver_deadline();

        let partials = executor::ordered_map(self.params.threads, keys, |key| {
            let mut task = ReconstructionTask::new(&self.call_graph, &self.params, &views[key])
                .with_deadline(deadline);
            if let Some(model) = priors.get(key) {
                task = task.with_prior(model);
            }
            let mut mapping = Mapping::new();
            let mut ranked = RankedMapping::new();
            let (report, gaps) = task.run_with_gaps(&mut mapping, &mut ranked);
            (*key, mapping, ranked, report, gaps)
        });

        let mut result = Reconstruction::default();
        let mut round = GapRound::default();
        // Partials arrive in input (sorted-key) order, so the round's
        // absorb order is deterministic regardless of worker scheduling.
        for (key, mapping, ranked, report, gaps) in partials {
            result.mapping.merge(mapping);
            result.ranked.merge(ranked);
            result.reports.push((key, report));
            if prior.is_some() {
                round.0.push((key, gaps));
            }
        }
        (result, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let app = tw_sim::apps::hotel_reservation(77);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(
            root,
            300.0,
            tw_model::time::Nanos::from_millis(400),
        ));
        let seq = TraceWeaver::new(call_graph.clone(), Params::default())
            .reconstruct_records(&out.records);
        let par =
            TraceWeaver::new(call_graph, Params::with_threads(4)).reconstruct_records(&out.records);
        for rec in &out.records {
            assert_eq!(
                seq.mapping.children(rec.rpc),
                par.mapping.children(rec.rpc),
                "parallel result diverged at {:?}",
                rec.rpc
            );
        }
        assert_eq!(seq.reports.len(), par.reports.len());
    }

    #[test]
    fn summary_aggregates_reports() {
        let app = tw_sim::apps::two_service_chain(79);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(
            root,
            200.0,
            tw_model::time::Nanos::from_millis(300),
        ));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let result = tw.reconstruct_records(&out.records);
        let s = result.summary();
        assert_eq!(s.tasks, result.reports.len());
        assert_eq!(s.total_spans, out.records.len());
        assert!(s.mapped_fraction() > 0.95);
        assert!(s.batches >= s.tasks);
        assert_eq!(s.skip_budget, 0);
    }

    #[test]
    fn warm_registry_round_trip() {
        let app = tw_sim::apps::two_service_chain(81);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(
            root,
            300.0,
            tw_model::time::Nanos::from_millis(400),
        ));
        let tw = TraceWeaver::new(call_graph, Params::default());

        // Round 1: cold (empty registry) — tasks seed, posterior learned.
        let empty = DelayRegistry::new();
        let absorbs_before = telemetry::metrics().stage_absorb.count();
        let (cold, learned) = tw.reconstruct_records_with_registry(&out.records, &empty);
        assert!(cold.reports.iter().all(|(_, r)| !r.warm_start));
        assert!(!learned.is_empty());
        assert_eq!(learned.rounds(), 1);

        // Round 2: warm — every task with a known process skips the seed.
        let (warm, posterior) = tw.reconstruct_records_with_registry(&out.records, &learned);
        assert!(warm.reports.iter().any(|(_, r)| r.warm_start));
        assert_eq!(posterior.rounds(), 2);
        // Each registry pass is timed as one `absorb` stage (the global
        // registry is shared with concurrent tests, hence `>=`).
        assert!(telemetry::metrics().stage_absorb.count() >= absorbs_before + 2);
        assert!(
            warm.summary().mapped_spans >= cold.summary().mapped_spans,
            "warm prior must not lose mappings on an identical workload"
        );
    }

    /// The split warm pass is the composed one: `reconstruct_records_warm`
    /// then `absorb_round` gives the same mappings and an `==` posterior
    /// as `reconstruct_records_with_registry`, from an empty prior and
    /// from a learned one.
    #[test]
    fn warm_pass_then_absorb_round_is_the_composed_pass() {
        let app = tw_sim::apps::hotel_reservation(83);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(
            root,
            300.0,
            tw_model::time::Nanos::from_millis(600),
        ));
        let (first, second) = out.records.split_at(out.records.len() / 2);
        let tw = TraceWeaver::new(call_graph, Params::with_threads(2));

        let mut prior = DelayRegistry::new();
        for records in [first, second] {
            let (composed, posterior) = tw.reconstruct_records_with_registry(records, &prior);
            let (split, round) = tw.reconstruct_records_warm(records, &prior);
            for rec in records {
                assert_eq!(
                    composed.mapping.children(rec.rpc),
                    split.mapping.children(rec.rpc)
                );
                assert_eq!(
                    composed.ranked.candidates(rec.rpc),
                    split.ranked.candidates(rec.rpc)
                );
            }
            prior.absorb_round(round);
            assert_eq!(prior, posterior);
        }
        assert_eq!(prior.rounds(), 2);
        assert!(!prior.is_empty());
    }

    #[test]
    fn parallel_with_more_threads_than_tasks() {
        let app = tw_sim::apps::two_service_chain(78);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(
            root,
            100.0,
            tw_model::time::Nanos::from_millis(200),
        ));
        let tw = TraceWeaver::new(call_graph, Params::with_threads(64));
        let par = tw.reconstruct_records(&out.records);
        assert!(!par.mapping.is_empty());
    }
}
