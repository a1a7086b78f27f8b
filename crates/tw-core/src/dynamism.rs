//! Call-graph dynamism handling (paper §4.2).
//!
//! When requests may traverse only a subset of the static call graph
//! (caching, failures, A/B subsetting), fewer outgoing spans exist than
//! the call graph predicts. We:
//!
//! 1. compute, per backend endpoint, the *discrepancy* between expected
//!    and observed outgoing spans over the task window — the total skip
//!    budget;
//! 2. compute each optimization batch's maximum skip quota
//!    `Q = X − Y` (X: outgoing spans the batch's parents need; Y: spans
//!    assignable only to this batch);
//! 3. distribute the budget across batches by water-filling;
//! 4. let candidates use skip slots, enforcing each batch's allocation
//!    after its joint optimization (lowest-scoring offenders lose their
//!    assignment).
//!
//! The first-iteration delay distributions cannot be seeded from marginal
//! means when spans are missing (the means are skewed), so we seed from a
//! WAP5-style most-recent-parent assignment instead, as the paper does.

use crate::candidates::{OutgoingPool, SlotLayout};
use crate::delays::{edge_gaps, DelayModel, EdgeKey};
use crate::params::Params;
use std::collections::HashMap;
use std::ops::Range;
use tw_model::ids::Endpoint;
use tw_model::span::ObservedSpan;
use tw_solver::water_fill;
use tw_stats::gaussian::Gaussian;
use tw_stats::gmm::Gmm;

/// Per-endpoint skip budget for one reconstruction task.
#[derive(Debug, Clone, Default)]
pub struct SkipBudget {
    per_endpoint: HashMap<Endpoint, usize>,
}

impl SkipBudget {
    /// Discrepancy between what the call graph predicts and what was
    /// observed (§4.2 step 1).
    ///
    /// Two signals, combined per endpoint by `max`:
    ///
    /// * **count discrepancy** — predicted calls minus observed spans,
    ///   the paper's dynamism signal;
    /// * **forced skips** — parent slots whose time window contains *no*
    ///   feasible span. Count discrepancy alone goes blind under
    ///   telemetry loss (DESIGN.md §9): a dropped *parent* leaves orphan
    ///   children inflating "observed" by as much as dropped children
    ///   deflate it, so uniform span drops cancel to a zero budget and
    ///   every parent missing a child would go entirely unassigned.
    pub fn compute(
        incoming: &[ObservedSpan],
        layouts: &HashMap<Endpoint, SlotLayout>,
        pool: &OutgoingPool,
    ) -> Self {
        let mut expected: HashMap<Endpoint, usize> = HashMap::new();
        let mut forced: HashMap<Endpoint, usize> = HashMap::new();
        for s in incoming {
            if let Some(layout) = layouts.get(&s.endpoint) {
                for (_, _, e) in layout.slots() {
                    *expected.entry(e).or_default() += 1;
                    if pool.feasible_for_window(e, s.start, s.end).is_empty() {
                        *forced.entry(e).or_default() += 1;
                    }
                }
            }
        }
        let per_endpoint = expected
            .into_iter()
            .filter_map(|(e, exp)| {
                let obs = pool.count_for(e);
                let need = exp
                    .saturating_sub(obs)
                    .max(forced.get(&e).copied().unwrap_or(0));
                (need > 0).then_some((e, need))
            })
            .collect();
        SkipBudget { per_endpoint }
    }

    pub fn total(&self) -> usize {
        self.per_endpoint.values().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }
}

/// Water-fill the total skip budget across batches (§4.2 steps 2–3).
///
/// `batch_needs[b]` is batch `b`'s X (total slots of its parents);
/// `batch_exclusive[b]` is Y (outgoing spans feasible only for parents of
/// batch `b`). Quota is `X − Y`, floored at zero.
pub fn allocate_skips(
    total_budget: usize,
    batch_needs: &[usize],
    batch_exclusive: &[usize],
) -> Vec<usize> {
    let quotas: Vec<usize> = batch_needs
        .iter()
        .zip(batch_exclusive)
        .map(|(&x, &y)| x.saturating_sub(y))
        .collect();
    water_fill(total_budget, &quotas)
}

/// Per-batch exclusive-span counts: outgoing spans feasible for at least
/// one parent of the batch and for no parent outside it.
///
/// `feasible[i]` is parent `i`'s feasible outgoing-span set (sorted).
pub fn batch_exclusive_counts(
    batches: &[Range<usize>],
    feasible: &[Vec<usize>],
    num_outgoing: usize,
) -> Vec<usize> {
    // For each outgoing span, the set of batches whose parents can take it.
    let mut batch_of_parent = vec![usize::MAX; feasible.len()];
    for (b, range) in batches.iter().enumerate() {
        batch_of_parent[range.clone()].fill(b);
    }
    let mut first_batch = vec![usize::MAX; num_outgoing];
    let mut exclusive = vec![true; num_outgoing];
    for (p, feas) in feasible.iter().enumerate() {
        let b = batch_of_parent[p];
        for &o in feas {
            if first_batch[o] == usize::MAX {
                first_batch[o] = b;
            } else if first_batch[o] != b {
                exclusive[o] = false;
            }
        }
    }
    let mut counts = vec![0usize; batches.len()];
    for o in 0..num_outgoing {
        if first_batch[o] != usize::MAX && exclusive[o] {
            counts[first_batch[o]] += 1;
        }
    }
    counts
}

/// WAP5-style assignment: each outgoing span maps to the most recent
/// incoming span whose window contains it (used only to seed iteration-1
/// delay distributions under dynamism, §4.2 step 4).
///
/// Both slices must be sorted by start time. Returns, per parent, the
/// outgoing-span indices assigned to it (in start order).
pub fn wap5_assignment(incoming: &[ObservedSpan], outgoing: &[ObservedSpan]) -> Vec<Vec<usize>> {
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); incoming.len()];
    for (o_idx, o) in outgoing.iter().enumerate() {
        // Last parent starting at or before the child's start.
        let from = incoming.partition_point(|p| p.start <= o.start);
        // Walk backwards to the most recent containing window.
        for p_idx in (0..from).rev().take(64) {
            let p = &incoming[p_idx];
            if p.end >= o.end {
                assigned[p_idx].push(o_idx);
                break;
            }
        }
    }
    assigned
}

/// Seed the delay model from a WAP5 assignment: align each parent's
/// assigned children to its slot layout greedily (stage order, matching
/// endpoints), compute edge gaps, and fit a Gaussian per edge.
pub fn seed_from_wap5(
    incoming: &[ObservedSpan],
    outgoing: &[ObservedSpan],
    pool: &OutgoingPool,
    layouts: &HashMap<Endpoint, SlotLayout>,
    _params: &Params,
) -> DelayModel {
    let assignment = wap5_assignment(incoming, outgoing);
    let mut samples: HashMap<EdgeKey, Vec<f64>> = HashMap::new();
    for (p_idx, parent) in incoming.iter().enumerate() {
        let Some(layout) = layouts.get(&parent.endpoint) else {
            continue;
        };
        if layout.num_slots == 0 {
            continue;
        }
        // Greedy slot alignment: first unfilled slot with matching endpoint.
        let mut children: Vec<Option<usize>> = vec![None; layout.num_slots];
        for &o_idx in &assignment[p_idx] {
            let e = outgoing[o_idx].endpoint;
            for (slot, _, slot_e) in layout.slots() {
                if slot_e == e && children[slot].is_none() {
                    children[slot] = Some(o_idx);
                    break;
                }
            }
        }
        let pseudo = crate::candidates::Candidate {
            parent: p_idx,
            children,
            score: 0.0,
        };
        for (key, gap) in edge_gaps(parent.endpoint, parent, layout, &pseudo, pool) {
            if gap >= 0.0 {
                samples.entry(key).or_default().push(gap);
            }
        }
    }
    let mut model = DelayModel::default();
    for (key, xs) in samples {
        model.insert(key, Gmm::single(Gaussian::fit(&xs)));
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::callgraph::{DependencySpec, Stage};
    use tw_model::ids::{OperationId, RpcId, ServiceId};
    use tw_model::time::Nanos;

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

    fn layouts_for(served: Endpoint, spec: DependencySpec) -> HashMap<Endpoint, SlotLayout> {
        let mut m = HashMap::new();
        m.insert(served, SlotLayout::from_spec(&spec, true));
        m
    }

    #[test]
    fn budget_counts_discrepancy() {
        let served = ep(0);
        let layouts = layouts_for(
            served,
            DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]),
        );
        // 3 parents expect 3 calls each to svc1 and svc2; only 2 to svc1
        // and 3 to svc2 observed.
        let incoming: Vec<_> = (0..3)
            .map(|i| span(i, served, i * 100, i * 100 + 90))
            .collect();
        let outgoing = vec![
            span(10, ep(1), 5, 20),
            span(11, ep(1), 105, 120),
            span(12, ep(2), 30, 50),
            span(13, ep(2), 130, 150),
            span(14, ep(2), 230, 250),
        ];
        let pool = OutgoingPool::new(&outgoing);
        let budget = SkipBudget::compute(&incoming, &layouts, &pool);
        assert_eq!(budget.per_endpoint.get(&ep(1)), Some(&1));
        assert_eq!(budget.per_endpoint.get(&ep(2)), None);
        assert_eq!(budget.total(), 1);
        assert!(!budget.is_empty());
    }

    #[test]
    fn budget_zero_when_counts_match() {
        let served = ep(0);
        let layouts = layouts_for(served, DependencySpec::new(vec![Stage::single(ep(1))]));
        let incoming = vec![span(0, served, 0, 100)];
        let outgoing = vec![span(1, ep(1), 10, 50)];
        let pool = OutgoingPool::new(&outgoing);
        let budget = SkipBudget::compute(&incoming, &layouts, &pool);
        assert!(budget.is_empty());
    }

    #[test]
    fn budget_under_heavy_drop_stays_within_window_totals() {
        let served = ep(0);
        let layouts = layouts_for(
            served,
            DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]),
        );
        // 10 parents expect 10 calls to each backend, but 35% of the
        // children were dropped: 7 of 10 to svc1 and 6 of 10 to svc2
        // survive (DESIGN.md §9 heavy-discrepancy regime).
        let incoming: Vec<_> = (0..10)
            .map(|i| span(i, served, i * 100, i * 100 + 90))
            .collect();
        let mut outgoing = Vec::new();
        for i in 0..7 {
            outgoing.push(span(100 + i, ep(1), i * 100 + 5, i * 100 + 20));
        }
        for i in 0..6 {
            outgoing.push(span(200 + i, ep(2), i * 100 + 30, i * 100 + 50));
        }
        let pool = OutgoingPool::new(&outgoing);
        let budget = SkipBudget::compute(&incoming, &layouts, &pool);
        assert_eq!(budget.per_endpoint.get(&ep(1)), Some(&3));
        assert_eq!(budget.per_endpoint.get(&ep(2)), Some(&4));
        assert_eq!(budget.total(), 7);
        // The budget never exceeds what the window expected in total —
        // a skip slot only exists where a predicted call is missing.
        let expected_total = 10 * 2;
        assert!(budget.total() <= expected_total - outgoing.len());
    }

    #[test]
    fn water_fill_never_over_allocates_a_batch() {
        // Budget of 9 skips across batches whose quotas sum to 7:
        // allocation must cap at each batch's quota and at the total
        // quota — water-filling never invents skips.
        let needs = [6usize, 5, 8, 3];
        let exclusive = [4usize, 4, 5, 2]; // quotas 2, 1, 3, 1
        let quotas: Vec<usize> = needs.iter().zip(&exclusive).map(|(&x, &y)| x - y).collect();
        let alloc = allocate_skips(9, &needs, &exclusive);
        for (a, q) in alloc.iter().zip(&quotas) {
            assert!(a <= q);
        }
        assert_eq!(alloc.iter().sum::<usize>(), 7);

        // Budget below the total quota is spent exactly, still without
        // overflowing any single batch.
        let alloc = allocate_skips(4, &needs, &exclusive);
        for (a, q) in alloc.iter().zip(&quotas) {
            assert!(a <= q);
        }
        assert_eq!(alloc.iter().sum::<usize>(), 4);
    }

    #[test]
    fn allocate_respects_quotas() {
        // Batch 0 needs 5 spans, 5 exclusive → quota 0.
        // Batch 1 needs 6, 2 exclusive → quota 4.
        let alloc = allocate_skips(3, &[5, 6], &[5, 2]);
        assert_eq!(alloc[0], 0);
        assert_eq!(alloc[1], 3);
    }

    #[test]
    fn exclusive_counts() {
        let batches = vec![0..2, 2..4];
        // Outgoing spans 0,1 feasible only in batch 0; span 2 shared.
        let feasible = vec![vec![0, 2], vec![1], vec![2, 3], vec![3]];
        let counts = batch_exclusive_counts(&batches, &feasible, 4);
        assert_eq!(counts, vec![2, 1]); // spans {0,1} excl. to b0; {3} to b1
    }

    #[test]
    fn wap5_assigns_most_recent_containing_parent() {
        let served = ep(0);
        // Two overlapping parents; child fits both, starts inside the
        // second → assigned to the second (most recent).
        let incoming = vec![span(0, served, 0, 200), span(1, served, 50, 250)];
        let outgoing = vec![span(10, ep(1), 60, 100)];
        let a = wap5_assignment(&incoming, &outgoing);
        assert!(a[0].is_empty());
        assert_eq!(a[1], vec![0]);
    }

    #[test]
    fn wap5_skips_non_containing_parent() {
        let served = ep(0);
        // Most recent parent ends too early; the earlier one contains it.
        let incoming = vec![span(0, served, 0, 300), span(1, served, 50, 80)];
        let outgoing = vec![span(10, ep(1), 60, 200)];
        let a = wap5_assignment(&incoming, &outgoing);
        assert_eq!(a[0], vec![0]);
        assert!(a[1].is_empty());
    }

    #[test]
    fn wap5_seed_produces_model() {
        let served = ep(0);
        let layouts = layouts_for(served, DependencySpec::new(vec![Stage::single(ep(1))]));
        let incoming: Vec<_> = (0..20)
            .map(|i| span(i, served, i * 1000, i * 1000 + 500))
            .collect();
        let outgoing: Vec<_> = (0..20)
            .map(|i| span(100 + i, ep(1), i * 1000 + 50, i * 1000 + 300))
            .collect();
        let pool = OutgoingPool::new(&outgoing);
        let model = seed_from_wap5(&incoming, &outgoing, &pool, &layouts, &Params::default());
        assert!(!model.is_empty());
        let key = EdgeKey::Call { served, slot: 0 };
        // Gaps are all exactly 50us; model should rate 50 highly.
        assert!(model.log_pdf(&key, 50.0) > model.log_pdf(&key, 400.0));
    }
}
