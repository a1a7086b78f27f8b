//! One per-container reconstruction task: the full §4 pipeline.

use crate::batching::make_batches;
use crate::candidates::{enumerate_candidates, Candidate, OutgoingPool, SlotLayout};
use crate::delays::{edge_gaps, score_candidate, DelayModel, EdgeKey};
use crate::dynamism::{allocate_skips, batch_exclusive_counts, seed_from_wap5, SkipBudget};
use crate::optimize::optimize_batch;
use crate::params::Params;
use std::collections::HashMap;
use std::ops::Range;
use tw_model::callgraph::CallGraph;
use tw_model::ids::{Endpoint, RpcId};
use tw_model::mapping::{Mapping, RankedMapping};
use tw_model::span::SpanView;

/// Most passes of steps 3–5 a cold task runs; the first scores under the
/// seed Gaussians, and a task stops sooner once a pass moves no edge's
/// gaps (DESIGN.md §7).
const MAX_ITERATIONS: usize = 3;

/// Diagnostics from one task, used for confidence scores (§6.3.2) and the
/// evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskReport {
    /// Incoming spans considered.
    pub total_spans: usize,
    /// Incoming spans that received a mapping.
    pub mapped_spans: usize,
    /// Incoming spans that received their top-choice mapping (the
    /// numerator of the confidence score).
    pub top_choice_spans: usize,
    /// Optimization batches formed.
    pub batches: usize,
    /// Total skip budget detected (0 = no dynamism observed).
    pub skip_budget: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// True when iteration 1 started from a warm prior instead of the
    /// seed distribution.
    pub warm_start: bool,
    /// Batches whose final-iteration joint solve shipped a degraded
    /// greedy incumbent (node budget or wall-clock deadline exhausted)
    /// instead of the exact MIS optimum (DESIGN.md §9).
    pub inexact_batches: usize,
}

impl TaskReport {
    /// The §6.3.2 confidence score: 100 minus the percentage of incoming
    /// spans that remained unmapped or weren't assigned their top choice.
    pub fn confidence(&self) -> f64 {
        if self.total_spans == 0 {
            100.0
        } else {
            100.0 * self.top_choice_spans as f64 / self.total_spans as f64
        }
    }
}

/// A reconstruction task over one container's span view.
#[derive(Clone, Copy)]
pub struct ReconstructionTask<'a> {
    call_graph: &'a CallGraph,
    params: &'a Params,
    view: &'a SpanView,
    /// Warm-start prior (typically from a
    /// [`crate::registry::DelayRegistry`]): when present and non-empty,
    /// iteration 1 uses it directly and the seed pass is skipped.
    prior: Option<&'a DelayModel>,
    /// Shared wall-clock cutoff for every MIS solve in this task. When
    /// unset, [`Params::solver_deadline_us`] is materialized at the start
    /// of `run` (per-task anchor); orchestrators that run many tasks in
    /// one pass should compute one instant and spread it via
    /// [`ReconstructionTask::with_deadline`] instead.
    deadline: Option<std::time::Instant>,
    /// Test oracle: treat every edge's evidence as changed after every
    /// iteration, which is the loop as it ran before it learned to skip
    /// (every edge refit, every configured iteration executed).
    #[cfg(test)]
    refit_every_edge: bool,
    /// Test oracle: run a leaf task through the full loop, as every task
    /// ran before leaf tasks learned to decide nothing.
    #[cfg(test)]
    full_loop_at_leaves: bool,
}

impl<'a> ReconstructionTask<'a> {
    pub fn new(call_graph: &'a CallGraph, params: &'a Params, view: &'a SpanView) -> Self {
        ReconstructionTask {
            call_graph,
            params,
            view,
            prior: None,
            deadline: None,
            #[cfg(test)]
            refit_every_edge: false,
            #[cfg(test)]
            full_loop_at_leaves: false,
        }
    }

    /// Provide a warm-start prior delay model. The task skips the
    /// seed-Gaussian / WAP5 bootstrap, starts EM from the prior, and runs
    /// one pass: the prior already encodes cross-window evidence, and
    /// refinement happens in the registry's absorb step instead. An empty
    /// prior is ignored (cold behavior).
    pub fn with_prior(mut self, prior: &'a DelayModel) -> Self {
        self.prior = Some(prior);
        self
    }

    /// Set the shared wall-clock deadline for this task's MIS solves
    /// (degradation ladder, DESIGN.md §9). `None` falls back to a
    /// per-task anchor derived from [`Params::solver_deadline_us`].
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    #[cfg(test)]
    fn refit_every_edge(mut self) -> Self {
        self.refit_every_edge = true;
        self
    }

    #[cfg(test)]
    fn full_loop_at_leaves(mut self) -> Self {
        self.full_loop_at_leaves = true;
        self
    }

    fn runs_full_loop_at_leaves(&self) -> bool {
        #[cfg(test)]
        return self.full_loop_at_leaves;
        #[cfg(not(test))]
        false
    }

    /// Run the pipeline, writing results into `mapping` / `ranked`.
    ///
    /// `make_batches` requires incoming spans sorted by `(start, end)`;
    /// out-of-order ingestion (network reordering, merged captures) is
    /// detected here and handled by reconstructing over a sorted copy.
    /// Results are keyed by `RpcId`, so the caller sees identical output
    /// either way.
    pub fn run(&self, mapping: &mut Mapping, ranked: &mut RankedMapping) -> TaskReport {
        self.run_with_gaps(mapping, ranked).0
    }

    /// [`ReconstructionTask::run`], additionally returning the edge gaps
    /// of the final assignment — the task's *posterior* delay evidence,
    /// which callers feed into a [`crate::registry::DelayRegistry`] to
    /// warm-start later rounds. A leaf task, whose every served endpoint
    /// calls nothing, returns none: it has no choice a model could change.
    pub fn run_with_gaps(
        &self,
        mapping: &mut Mapping,
        ranked: &mut RankedMapping,
    ) -> (TaskReport, HashMap<EdgeKey, Vec<f64>>) {
        let sorted = |spans: &[tw_model::span::ObservedSpan]| {
            spans
                .windows(2)
                .all(|w| (w[0].start, w[0].end) <= (w[1].start, w[1].end))
        };
        if !sorted(&self.view.incoming) || !sorted(&self.view.outgoing) {
            let mut view = self.view.clone();
            view.sort();
            let task = ReconstructionTask {
                view: &view,
                ..*self
            };
            return task.run_sorted(mapping, ranked);
        }
        self.run_sorted(mapping, ranked)
    }

    fn run_sorted(
        &self,
        mapping: &mut Mapping,
        ranked: &mut RankedMapping,
    ) -> (TaskReport, HashMap<EdgeKey, Vec<f64>>) {
        let params = self.params;
        let incoming = &self.view.incoming;
        let outgoing = &self.view.outgoing;
        let n = incoming.len();
        if n == 0 {
            return (TaskReport::default(), HashMap::new());
        }
        let telemetry = crate::telemetry::metrics();
        telemetry.tasks.inc();
        telemetry.spans.add(n as u64);

        // Slot layouts per served endpoint.
        let mut layouts: HashMap<Endpoint, SlotLayout> = HashMap::new();
        for s in incoming {
            layouts.entry(s.endpoint).or_insert_with(|| {
                SlotLayout::from_spec(
                    &self.call_graph.spec(s.endpoint),
                    params.use_order_constraints,
                )
            });
        }

        // A leaf task decides nothing: where every served endpoint calls
        // nothing, §4.1 step 1 yields one candidate per parent, the empty
        // child set, so no score, batch, MIS solve or delay fit can change
        // a mapping. Each parent maps to `[]`, and the task offers no gaps.
        if layouts.values().all(|l| l.num_slots == 0) && !self.runs_full_loop_at_leaves() {
            telemetry.candidates.add(n as u64);
            for p in incoming {
                telemetry.candidates_per_span.observe(1.0);
                mapping.assign(p.rpc, []);
                ranked.set(p.rpc, vec![vec![]]);
            }
            telemetry.spans_mapped.add(n as u64);
            let report = TaskReport {
                total_spans: n,
                mapped_spans: n,
                top_choice_spans: n,
                ..TaskReport::default()
            };
            return (report, HashMap::new());
        }

        let pool = OutgoingPool::new(outgoing);

        // Window-feasible outgoing sets per parent (batching + quotas).
        let feasible: Vec<Vec<usize>> = incoming
            .iter()
            .map(|p| {
                let layout = &layouts[&p.endpoint];
                let mut set: Vec<usize> = layout
                    .stages
                    .iter()
                    .flatten()
                    .flat_map(|&e| pool.feasible_for_window(e, p.start, p.end))
                    .collect();
                set.sort_unstable();
                set.dedup();
                set
            })
            .collect();

        // Dynamism budget.
        let budget = if params.handle_dynamism {
            SkipBudget::compute(incoming, &layouts, &pool)
        } else {
            SkipBudget::default()
        };
        let allow_skips = !budget.is_empty();

        // Candidate enumeration (constraints don't change across
        // iterations, only scores do).
        let enum_timer = telemetry.stage_candidates.start_timer();
        let mut candidates: Vec<Vec<Candidate>> = incoming
            .iter()
            .enumerate()
            .map(|(i, p)| {
                enumerate_candidates(i, p, &layouts[&p.endpoint], &pool, params, allow_skips)
            })
            .collect();
        drop(enum_timer);
        for cands in &candidates {
            telemetry.candidates.add(cands.len() as u64);
            telemetry.candidates_per_span.observe(cands.len() as f64);
        }

        // Batching. Without joint optimization everything is one batch.
        let ends: Vec<u64> = incoming.iter().map(|s| s.end.0).collect();
        #[allow(clippy::single_range_in_vec_init)] // one batch spanning 0..n, not a range collect
        let batches: Vec<Range<usize>> = if params.use_joint_optimization {
            make_batches(&feasible, &ends, params.batch_size)
        } else {
            vec![0..n]
        };

        // Skip allocation across batches.
        let skip_alloc: Vec<usize> = if allow_skips {
            let needs: Vec<usize> = batches
                .iter()
                .map(|r| {
                    r.clone()
                        .map(|i| layouts[&incoming[i].endpoint].num_slots)
                        .sum()
                })
                .collect();
            let exclusive = batch_exclusive_counts(&batches, &feasible, pool.len());
            allocate_skips(budget.total(), &needs, &exclusive)
        } else {
            vec![0; batches.len()]
        };

        // Iteration-1 delay model: the warm prior when one is supplied
        // (skipping the seed bootstrap entirely — the §4.1 step-3
        // chicken-and-egg is already solved by earlier rounds), the seed
        // distribution otherwise.
        let warm = self.prior.is_some_and(|m| !m.is_empty());
        let seed_timer = telemetry.stage_seed.start_timer();
        let mut model = match self.prior.filter(|m| !m.is_empty()) {
            Some(prior) => prior.clone(),
            None if allow_skips => seed_from_wap5(incoming, outgoing, &pool, &layouts, params),
            None => DelayModel::seed(incoming, &pool, &layouts, outgoing, params),
        };
        drop(seed_timer);
        if warm {
            telemetry.warm_tasks.inc();
        }
        telemetry.batches.add(batches.len() as u64);
        for r in &batches {
            telemetry.batch_size.observe(r.len() as f64);
        }
        telemetry.skip_budget.add(budget.total() as u64);

        // §4.1 step 6 iterates "to convergence": `MAX_ITERATIONS` is the
        // cap, the fixed point below is the exit. A warm task, like the
        // iteration ablation, runs the one pass.
        let max_iterations = if warm || !params.use_iteration {
            1
        } else {
            MAX_ITERATIONS
        };
        // Wall-clock cutoff shared by every MIS solve below: an explicit
        // orchestrator-supplied instant wins; otherwise the per-task
        // budget knob anchors here.
        let deadline = self.deadline.or_else(|| params.solver_deadline());
        let optimize_timer = telemetry.stage_optimize.start_timer();
        let mut assignment: Vec<Option<Candidate>> = vec![None; n];
        let mut inexact_batches = 0usize;
        // Per edge, the gap sample its current model was last offered.
        let mut fitted_gaps: HashMap<EdgeKey, Vec<f64>> = HashMap::new();
        // Test oracle: per edge, the per-width fits its last sweep started
        // from.
        #[cfg(test)]
        let mut starts: HashMap<EdgeKey, Vec<tw_stats::gmm::Gmm>> = HashMap::new();
        let mut iterations = 0usize;
        for iter in 0..max_iterations {
            iterations = iter + 1;
            // Score and rank candidates under the current model.
            for (p, cands) in incoming.iter().zip(&mut candidates) {
                let layout = &layouts[&p.endpoint];
                for c in cands.iter_mut() {
                    c.score = score_candidate(p.endpoint, p, layout, c, &pool, &model, params);
                }
                cands.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
            }

            // Optimize batch by batch; spans claimed by earlier batches are
            // deleted from later ones (§4.1 step 5 (v)).
            let mut used = vec![false; pool.len()];
            let mut per_parent: Vec<Vec<&Candidate>> = Vec::new();
            assignment = vec![None; n];
            inexact_batches = 0;
            for (b, range) in batches.iter().enumerate() {
                per_parent.resize_with(range.len(), Vec::new);
                for (list, cands) in per_parent.iter_mut().zip(&candidates[range.clone()]) {
                    list.clear();
                    list.extend(
                        cands
                            .iter()
                            .filter(|c| c.children.iter().flatten().all(|&x| !used[x]))
                            .take(params.top_k),
                    );
                }
                let outcome = optimize_batch(&per_parent, params, deadline);
                if !outcome.exact {
                    inexact_batches += 1;
                }

                // Enforce the batch's skip allocation: unassign the
                // lowest-scoring skip users beyond the allocation.
                let mut chosen: Vec<(usize, &Candidate)> = range
                    .clone()
                    .zip(&outcome.picks)
                    .filter_map(|(i, pick)| pick.map(|c| (i, per_parent[i - range.start][c])))
                    .collect();
                let mut skips_used: usize = chosen.iter().map(|(_, c)| c.num_skips()).sum();
                if skips_used > skip_alloc[b] {
                    // Skip users first, lowest score first (a stable sort).
                    chosen.sort_by(|(_, a), (_, b)| {
                        (a.num_skips() == 0, a.score)
                            .partial_cmp(&(b.num_skips() == 0, b.score))
                            .expect("finite")
                    });
                    let mut dropped = 0;
                    while skips_used > skip_alloc[b] {
                        skips_used -= chosen[dropped].1.num_skips();
                        dropped += 1;
                    }
                    chosen.drain(..dropped);
                }

                for (i, cand) in chosen {
                    for &idx in cand.children.iter().flatten() {
                        used[idx] = true;
                    }
                    assignment[i] = Some(cand.clone());
                }
            }

            // Refit distributions from this iteration's mapping — only the
            // edges whose evidence moved, each width's EM starting from the
            // edge's fit of that width in its last sweep (the first refit
            // sweeps seeds, so it runs cold). A fit is a pure function of
            // its sample and its starts, so the model an unchanged edge
            // already holds *is* its refit. When no edge moved the model
            // stands, and with it every score, the stable sort order, every
            // MIS input and so the assignment of each further iteration:
            // the fixed point.
            if iter + 1 < max_iterations {
                let gaps = collect_gaps(incoming, &layouts, &pool, &assignment);
                #[cfg(test)]
                if self.refit_every_edge {
                    // The exhaustive form refits every edge, an unchanged
                    // one from the starts its model was fitted from.
                    for (key, sample) in &gaps {
                        if fitted_gaps.get(key) != Some(sample) {
                            let last = model.sweeps.get(key).cloned().unwrap_or_default();
                            starts.insert(*key, last);
                        }
                        model.sweeps.insert(*key, starts[key].clone());
                    }
                    model = model.refit(&gaps, params);
                    fitted_gaps.extend(gaps);
                    continue;
                }
                let changed: HashMap<EdgeKey, Vec<f64>> = gaps
                    .into_iter()
                    .filter(|(key, gaps)| fitted_gaps.get(key) != Some(gaps))
                    .collect();
                if changed.is_empty() {
                    break;
                }
                model = model.refit(&changed, params);
                fitted_gaps.extend(changed);
            }
        }

        drop(optimize_timer);
        telemetry.em_iterations.add(iterations as u64);

        // The final assignment's gaps: the task's posterior delay
        // evidence, returned for registry absorption.
        let posterior_gaps = collect_gaps(incoming, &layouts, &pool, &assignment);

        // Emit results.
        let mut report = TaskReport {
            total_spans: n,
            batches: batches.len(),
            skip_budget: budget.total(),
            iterations,
            warm_start: warm,
            inexact_batches,
            ..TaskReport::default()
        };
        let rpcs = |c: &Candidate| -> Vec<RpcId> {
            let kids = c.children.iter().flatten();
            kids.map(|&idx| pool.span(idx).rpc).collect()
        };
        for (i, a) in assignment.iter().enumerate() {
            let parent_rpc = incoming[i].rpc;
            // Ranked top-K candidate child sets with final scores.
            let top_k = candidates[i].iter().take(params.top_k);
            let ranked_sets: Vec<(Vec<RpcId>, f64)> = top_k.map(|c| (rpcs(c), c.score)).collect();
            if !ranked_sets.is_empty() {
                ranked.set_scored(parent_rpc, ranked_sets);
            }
            if let Some(cand) = a {
                report.mapped_spans += 1;
                let top = candidates[i].first();
                report.top_choice_spans +=
                    usize::from(top.is_some_and(|t| t.children == cand.children));
                mapping.assign(parent_rpc, rpcs(cand));
            }
        }
        telemetry.spans_mapped.add(report.mapped_spans as u64);
        (report, posterior_gaps)
    }
}

/// Edge gaps of every assigned candidate, grouped by edge.
fn collect_gaps(
    incoming: &[tw_model::span::ObservedSpan],
    layouts: &HashMap<Endpoint, SlotLayout>,
    pool: &OutgoingPool,
    assignment: &[Option<Candidate>],
) -> HashMap<EdgeKey, Vec<f64>> {
    let mut gaps: HashMap<EdgeKey, Vec<f64>> = HashMap::new();
    for (i, a) in assignment.iter().enumerate() {
        let Some(cand) = a else { continue };
        let p = &incoming[i];
        let layout = &layouts[&p.endpoint];
        for (key, gap) in edge_gaps(p.endpoint, p, layout, cand, pool) {
            gaps.entry(key).or_default().push(gap);
        }
    }
    gaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::callgraph::{DependencySpec, Stage};
    use tw_model::ids::{OperationId, ServiceId};
    use tw_model::span::ObservedSpan;
    use tw_model::time::Nanos;
    use tw_stats::gmm::{Gmm, GmmFitOptions};

    fn ep(s: u32) -> Endpoint {
        Endpoint::new(ServiceId(s), OperationId(0))
    }

    fn span(rpc: u64, e: Endpoint, start: u64, end: u64) -> ObservedSpan {
        ObservedSpan {
            rpc: RpcId(rpc),
            peer: e.service,
            endpoint: e,
            start: Nanos::from_micros(start),
            end: Nanos::from_micros(end),
            thread: None,
        }
    }

    /// Hand-built scenario: service 0 calls service 1 once per request.
    /// Two well-separated requests — unambiguous.
    #[test]
    fn unambiguous_two_requests() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let view = SpanView {
            incoming: vec![span(0, ep(0), 0, 1_000), span(1, ep(0), 5_000, 6_000)],
            outgoing: vec![span(10, ep(1), 100, 800), span(11, ep(1), 5_100, 5_800)],
        };
        let params = Params::default();
        let task = ReconstructionTask::new(&g, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let report = task.run(&mut mapping, &mut ranked);
        assert_eq!(report.total_spans, 2);
        assert_eq!(report.mapped_spans, 2);
        assert_eq!(mapping.children(RpcId(0)), &[RpcId(10)]);
        assert_eq!(mapping.children(RpcId(1)), &[RpcId(11)]);
        assert_eq!(report.confidence(), 100.0);
    }

    /// Overlapping requests where timing statistics disambiguate: the
    /// processing gap is consistently ~100us.
    #[test]
    fn overlapping_requests_resolved_by_timing() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        // 50 requests arriving every 200us, each holding the service for
        // 1000us with the child sent exactly 100us after arrival: heavily
        // overlapped.
        for i in 0..50u64 {
            let t0 = i * 200;
            incoming.push(span(i, ep(0), t0, t0 + 1_000));
            outgoing.push(span(100 + i, ep(1), t0 + 100, t0 + 600));
        }
        let view = SpanView { incoming, outgoing };
        let params = Params::default();
        let g2 = g.clone();
        let task = ReconstructionTask::new(&g2, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let report = task.run(&mut mapping, &mut ranked);
        assert_eq!(report.mapped_spans, 50);
        let correct = (0..50u64)
            .filter(|&i| mapping.children(RpcId(i)) == [RpcId(100 + i)])
            .count();
        assert!(correct >= 45, "only {correct}/50 correct");
    }

    /// Leaf service: every incoming span maps to the empty child set.
    #[test]
    fn leaf_service_maps_empty() {
        let g = CallGraph::new();
        let view = SpanView {
            incoming: vec![span(0, ep(3), 0, 100), span(1, ep(3), 50, 180)],
            outgoing: vec![],
        };
        let params = Params::default();
        let task = ReconstructionTask::new(&g, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let report = task.run(&mut mapping, &mut ranked);
        assert_eq!(report.mapped_spans, 2);
        assert!(mapping.contains(RpcId(0)));
        assert!(mapping.children(RpcId(0)).is_empty());
        assert_eq!(report.confidence(), 100.0);
    }

    /// Dynamism: one parent's backend call was served from cache. With
    /// handle_dynamism the un-cached parent takes the only outgoing span
    /// and the cached one maps to nothing.
    #[test]
    fn dynamism_skip_budget_used() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let view = SpanView {
            incoming: vec![span(0, ep(0), 0, 1_000), span(1, ep(0), 100, 1_100)],
            // One child only, timed to match parent 0's profile (sent
            // 50us after parent 0 arrived).
            outgoing: vec![span(10, ep(1), 50, 700)],
        };
        let params = Params::with_dynamism();
        let task = ReconstructionTask::new(&g, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let report = task.run(&mut mapping, &mut ranked);
        assert_eq!(report.skip_budget, 1);
        assert_eq!(report.mapped_spans, 2);
        // The single concrete child went to exactly one parent.
        let c0 = mapping.children(RpcId(0));
        let c1 = mapping.children(RpcId(1));
        assert_ne!(c0, c1);
        assert!(c0 == [RpcId(10)] || c1 == [RpcId(10)]);
    }

    /// Without dynamism handling, a missing child leaves a parent
    /// unmapped rather than stealing another parent's child.
    #[test]
    fn no_dynamism_leaves_unmapped() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let view = SpanView {
            incoming: vec![span(0, ep(0), 0, 1_000), span(1, ep(0), 2_000, 3_000)],
            outgoing: vec![span(10, ep(1), 2_100, 2_700)],
        };
        let params = Params::default();
        let task = ReconstructionTask::new(&g, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let report = task.run(&mut mapping, &mut ranked);
        assert_eq!(report.mapped_spans, 1);
        assert!(!mapping.contains(RpcId(0)));
        assert_eq!(mapping.children(RpcId(1)), &[RpcId(10)]);
        assert!(report.confidence() < 100.0);
    }

    /// Out-of-order ingestion: shuffled span order must produce the same
    /// mapping as sorted input (the task sorts internally; `make_batches`
    /// requires it).
    #[test]
    fn out_of_order_ingestion_matches_sorted() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        for i in 0..40u64 {
            let t0 = i * 300;
            incoming.push(span(i, ep(0), t0, t0 + 1_000));
            outgoing.push(span(100 + i, ep(1), t0 + 100, t0 + 600));
        }
        let sorted_view = SpanView {
            incoming: incoming.clone(),
            outgoing: outgoing.clone(),
        };
        // Deterministic shuffle: reverse, then interleave halves.
        let shuffle = |mut v: Vec<ObservedSpan>| -> Vec<ObservedSpan> {
            v.reverse();
            let half = v.split_off(v.len() / 2);
            half.into_iter().zip(v).flat_map(|(a, b)| [a, b]).collect()
        };
        let shuffled_view = SpanView {
            incoming: shuffle(incoming),
            outgoing: shuffle(outgoing),
        };
        let params = Params::default();
        let run = |view: &SpanView| {
            let task = ReconstructionTask::new(&g, &params, view);
            let mut mapping = Mapping::new();
            let mut ranked = RankedMapping::new();
            let report = task.run(&mut mapping, &mut ranked);
            (mapping, report)
        };
        let (m_sorted, r_sorted) = run(&sorted_view);
        let (m_shuffled, r_shuffled) = run(&shuffled_view);
        assert_eq!(r_sorted, r_shuffled);
        for i in 0..40u64 {
            assert_eq!(
                m_sorted.children(RpcId(i)),
                m_shuffled.children(RpcId(i)),
                "parent {i} mapped differently under shuffled ingestion"
            );
        }
    }

    /// One simulated stretch of `app`, as sorted per-process views.
    fn simulated_views(
        app: &tw_sim::apps::BenchApp,
        rps: f64,
        millis: u64,
    ) -> Vec<(tw_model::span::ProcessKey, SpanView)> {
        let sim = tw_sim::Simulator::new(app.config.clone()).expect("valid app config");
        let out = sim.run(&tw_sim::Workload::poisson(
            app.roots[0],
            rps,
            Nanos::from_millis(millis),
        ));
        let mut views: Vec<_> = tw_model::span::split_by_process(&out.records)
            .into_iter()
            .filter(|(_, view)| !view.incoming.is_empty())
            .collect();
        views.sort_by_key(|(key, _)| *key);
        views
    }

    type TaskOutput = (
        Mapping,
        RankedMapping,
        TaskReport,
        HashMap<EdgeKey, Vec<f64>>,
    );

    fn run_task(task: ReconstructionTask) -> TaskOutput {
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        let (report, gaps) = task.run_with_gaps(&mut mapping, &mut ranked);
        (mapping, ranked, report, gaps)
    }

    /// The shipped loop against the loop that refits every edge and runs
    /// every configured iteration: everything a task returns except the
    /// iteration count must be `==`. Returns the shipped report and gaps.
    fn assert_matches_exhaustive_loop(
        task: ReconstructionTask,
        what: &str,
    ) -> (TaskReport, HashMap<EdgeKey, Vec<f64>>) {
        let (mapping, ranked, report, gaps) = run_task(task);
        let (ref_mapping, ref_ranked, ref_report, ref_gaps) = run_task(task.refit_every_edge());
        for parent in &task.view.incoming {
            let rpc = parent.rpc;
            assert_eq!(mapping.contains(rpc), ref_mapping.contains(rpc), "{what}");
            assert_eq!(mapping.children(rpc), ref_mapping.children(rpc), "{what}");
            assert_eq!(ranked.candidates(rpc), ref_ranked.candidates(rpc), "{what}");
            assert_eq!(ranked.scores(rpc), ref_ranked.scores(rpc), "{what}");
        }
        assert_eq!(
            (mapping.len(), ranked.len()),
            (ref_mapping.len(), ref_ranked.len())
        );
        assert_eq!(gaps, ref_gaps, "{what}: posterior gaps");
        assert!(report.iterations <= ref_report.iterations, "{what}");
        let but_iterations = |r: TaskReport| TaskReport { iterations: 0, ..r };
        assert_eq!(but_iterations(report), but_iterations(ref_report), "{what}");
        (report, gaps)
    }

    /// True when `Gmm::fit_auto` selects on `gaps` the mixture its sweep
    /// selected before it learned to stop: every count `1..=C`, lowest BIC.
    fn sweep_matches_exhaustive(gaps: &[f64]) -> bool {
        let opts = GmmFitOptions::default();
        let exhaustive = (1..=opts.max_components)
            .map(|c| Gmm::fit(gaps, c, &opts))
            .map(|gmm| (gmm.bic(gaps), gmm))
            .reduce(|best, next| if best.0 <= next.0 { best } else { next })
            .expect("at least one candidate model");
        Gmm::fit_auto(gaps, &opts) == exhaustive.1
    }

    /// The three paper apps, each at a dense load.
    fn paper_apps_at_dense_load(seed: u64) -> [(tw_sim::apps::BenchApp, f64); 3] {
        use tw_sim::apps::{hotel_reservation, media_microservices, nodejs_app};
        [
            (hotel_reservation(seed), 900.0),
            (media_microservices(seed), 400.0),
            (nodejs_app(seed), 600.0),
        ]
    }

    /// Leaf tasks against the full loop they ran before they learned to
    /// decide nothing, on the three paper apps with and without dynamism
    /// handling: mapping, ranked candidate sets and report are `==` but
    /// for the loop's own counts (iterations, batches). The short-circuit
    /// records no score and offers no gaps where the loop fit the leaf's
    /// `Final` edges. Every other task runs the full loop either way.
    #[test]
    fn leaf_tasks_map_like_the_full_loop() {
        let mut leaf_tasks = 0usize;
        for (app, rps) in paper_apps_at_dense_load(7) {
            let graph = app.config.call_graph();
            for params in [Params::default(), Params::with_dynamism()] {
                for (key, view) in simulated_views(&app, rps, 500) {
                    let what = format!("{} {key:?} dynamism={}", app.name, params.handle_dynamism);
                    let task = ReconstructionTask::new(&graph, &params, &view);
                    let (mapping, ranked, report, gaps) = run_task(task);
                    if report.iterations > 0 {
                        continue;
                    }
                    leaf_tasks += 1;
                    let (ref_mapping, ref_ranked, ref_report, ref_gaps) =
                        run_task(task.full_loop_at_leaves());
                    for parent in &view.incoming {
                        let rpc = parent.rpc;
                        assert!(mapping.contains(rpc) && mapping.children(rpc).is_empty());
                        assert_eq!(mapping.contains(rpc), ref_mapping.contains(rpc), "{what}");
                        assert_eq!(mapping.children(rpc), ref_mapping.children(rpc), "{what}");
                        assert_eq!(ranked.candidates(rpc), ref_ranked.candidates(rpc), "{what}");
                        assert!(ranked.scores(rpc).is_empty(), "{what}");
                    }
                    assert_eq!(
                        (mapping.len(), ranked.len()),
                        (ref_mapping.len(), ref_ranked.len())
                    );
                    let but_loop = |r: TaskReport| TaskReport {
                        iterations: 0,
                        batches: 0,
                        ..r
                    };
                    assert_eq!(but_loop(report), but_loop(ref_report), "{what}");
                    assert!(gaps.is_empty(), "{what}");
                    assert!(!ref_gaps.is_empty(), "{what}");
                    assert!(
                        ref_gaps.keys().all(|k| matches!(k, EdgeKey::Final { .. })),
                        "{what}"
                    );
                }
            }
        }
        assert!(leaf_tasks > 0, "no leaf task in the paper apps");
    }

    /// Both shortcuts of the cold EM loop against their exhaustive forms
    /// on the three paper apps at dense load, with and without dynamism
    /// handling: the loop's output is `==` and the fixed-point exit does
    /// fire. Returns, of the edge samples those tasks end with, how many
    /// there are and, sorted, on which the sweep that stops selects
    /// another mixture than the exhaustive sweep.
    fn check_shortcuts_on_the_paper_apps(seed: u64) -> (usize, Vec<String>) {
        let (mut early_exits, mut edges, mut differing) = (0usize, 0usize, Vec::new());
        for (app, rps) in paper_apps_at_dense_load(seed) {
            let graph = app.config.call_graph();
            for params in [Params::default(), Params::with_dynamism()] {
                for (key, view) in simulated_views(&app, rps, 1_000) {
                    let what = format!("{} {key:?} dynamism={}", app.name, params.handle_dynamism);
                    let task = ReconstructionTask::new(&graph, &params, &view);
                    let (report, gaps) = assert_matches_exhaustive_loop(task, &what);
                    early_exits += usize::from(report.iterations < MAX_ITERATIONS);
                    for (edge, gaps) in gaps.iter().filter(|_| !params.handle_dynamism) {
                        edges += 1;
                        if !sweep_matches_exhaustive(gaps) {
                            differing.push(format!("{what} {edge:?}"));
                        }
                    }
                }
            }
        }
        assert!(early_exits > 0, "no task reached its fixed point early");
        differing.sort();
        (edges, differing)
    }

    /// The early stop's price at this seed: three edges, each a sweep
    /// that stops after a rise where a later component pays by collapsing
    /// onto a point (σ at the floor): 887 gaps (C = 3 against C = 5), and
    /// two media edges of 397 gaps (C = 2 against C = 4 and C = 5).
    #[test]
    fn shortcuts_match_their_exhaustive_forms_at_seed_11() {
        let (edges, differing) = check_shortcuts_on_the_paper_apps(11);
        assert_eq!(edges, 27);
        assert_eq!(
            differing,
            [
                "hotel-reservation ProcessKey { service: ServiceId(0), replica: 0 } \
                 dynamism=false Call { served: Endpoint { service: ServiceId(0), op: OperationId(0) }, slot: 0 }",
                "media-microservices ProcessKey { service: ServiceId(1), replica: 0 } \
                 dynamism=false Call { served: Endpoint { service: ServiceId(1), op: OperationId(2) }, slot: 5 }",
                "media-microservices ProcessKey { service: ServiceId(1), replica: 0 } \
                 dynamism=false Call { served: Endpoint { service: ServiceId(1), op: OperationId(2) }, slot: 6 }",
            ]
        );
    }

    /// Stopping the sweep at the first rise is a rule of thumb, not a
    /// theorem. Its measured price at this seed: one edge, 382 gaps with
    /// one far outlier that a fifth component pays for by collapsing onto
    /// it (sigma at the floor) after C = 3 and C = 4 both failed to beat
    /// C = 2.
    #[test]
    fn shortcuts_match_their_exhaustive_forms_at_seed_7_but_for_one_edge() {
        let (edges, differing) = check_shortcuts_on_the_paper_apps(7);
        assert_eq!(edges, 27);
        assert_eq!(
            differing,
            [
                "media-microservices ProcessKey { service: ServiceId(1), replica: 0 } \
                 dynamism=false Final { served: Endpoint { service: ServiceId(1), op: OperationId(2) } }"
            ]
        );
    }

    /// The same sweep comparison over the whole `fig4a` grid (three apps,
    /// five loads each, 1.5 s). Stopping at the first rise is a rule of
    /// thumb, not a theorem, and this is its measured price: four edges in
    /// 135, each a later component that pays by collapsing onto a point
    /// (σ on the floor). Sixty gaps at the sparsest hotel load, where BIC
    /// rises at C = 2 and then falls at C = 3; 290 gaps at hotel 200 rps,
    /// where BIC falls at C = 2, rises at 3 and falls below C = 2 at 4;
    /// 93 media gaps at 50 rps, where BIC rises after C = 1 and falls at
    /// C = 5; and the nodejs 600 rps `Final` edge, 905 gaps, where it
    /// rises at C = 4 and falls at 5. Minutes in a debug build, so CI runs
    /// it in release next to the `fig4a` artefact check.
    #[test]
    #[ignore = "release only: cargo test --release -p tw-core -- --ignored fig4a_grid"]
    fn sweep_matches_exhaustive_on_the_fig4a_grid_but_for_four_edges() {
        use tw_sim::apps::{hotel_reservation, media_microservices, nodejs_app};
        let grid = [
            (
                hotel_reservation(41),
                [50.0, 200.0, 500.0, 1_000.0, 1_500.0],
            ),
            (
                media_microservices(42),
                [50.0, 150.0, 400.0, 800.0, 1_200.0],
            ),
            (nodejs_app(43), [50.0, 200.0, 600.0, 1_200.0, 2_000.0]),
        ];
        let params = Params::default();
        let (mut edges, mut differing) = (0usize, Vec::new());
        for (app, loads) in grid {
            let graph = app.config.call_graph();
            for rps in loads {
                for (key, view) in simulated_views(&app, rps, 1_500) {
                    let gaps = run_task(ReconstructionTask::new(&graph, &params, &view)).3;
                    for (edge, gaps) in gaps.iter().filter(|(_, gaps)| gaps.len() >= 3) {
                        edges += 1;
                        if !sweep_matches_exhaustive(gaps) {
                            differing.push(format!("{} {rps} {key:?} {edge:?}", app.name));
                        }
                    }
                }
            }
        }
        assert_eq!(
            differing,
            [
                "hotel-reservation 50 ProcessKey { service: ServiceId(0), replica: 0 } \
                 Call { served: Endpoint { service: ServiceId(0), op: OperationId(0) }, slot: 1 }",
                "hotel-reservation 200 ProcessKey { service: ServiceId(1), replica: 0 } \
                 Call { served: Endpoint { service: ServiceId(1), op: OperationId(1) }, slot: 0 }",
                "media-microservices 50 ProcessKey { service: ServiceId(1), replica: 0 } \
                 Call { served: Endpoint { service: ServiceId(1), op: OperationId(2) }, slot: 6 }",
                "nodejs-demo 600 ProcessKey { service: ServiceId(5), replica: 0 } \
                 Final { served: Endpoint { service: ServiceId(5), op: OperationId(5) } }",
            ]
        );
        assert_eq!(edges, 135);
    }

    /// Ambiguous view: heavily overlapped requests with jittered gaps keep
    /// moving spans between parents, so the evidence changes after every
    /// iteration and the task runs to its cap.
    #[test]
    fn ambiguous_view_runs_every_iteration() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let mut incoming = Vec::new();
        let mut outgoing = Vec::new();
        for i in 0..60u64 {
            let t0 = i * 40;
            let gap = 60 + (i * 37) % 90;
            incoming.push(span(i, ep(0), t0, t0 + 900 + (i * 53) % 200));
            outgoing.push(span(
                100 + i,
                ep(1),
                t0 + gap,
                t0 + gap + 300 + (i * 29) % 150,
            ));
        }
        outgoing.sort_by_key(|s| (s.start, s.end));
        let view = SpanView { incoming, outgoing };
        let params = Params::default();
        let task = ReconstructionTask::new(&g, &params, &view);
        let (report, _) = assert_matches_exhaustive_loop(task, "ambiguous");
        assert_eq!(report.iterations, MAX_ITERATIONS);
    }

    /// Ranked output contains the truth within top-K even under ambiguity.
    #[test]
    fn ranked_output_has_k_entries() {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        // One parent, several plausible children.
        let view = SpanView {
            incoming: vec![span(0, ep(0), 0, 1_000)],
            outgoing: (0..8)
                .map(|i| span(10 + i, ep(1), 100 + i * 50, 900))
                .collect(),
        };
        let params = Params::default();
        let task = ReconstructionTask::new(&g, &params, &view);
        let mut mapping = Mapping::new();
        let mut ranked = RankedMapping::new();
        task.run(&mut mapping, &mut ranked);
        let cands = ranked.candidates(RpcId(0));
        assert!(!cands.is_empty());
        assert!(cands.len() <= params.top_k);
    }
}
