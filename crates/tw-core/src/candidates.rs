//! Candidate identification (paper §4.1 step 1).
//!
//! For each incoming span at a service we enumerate *candidate mappings*:
//! joint selections of outgoing spans — one per backend slot required by
//! the call graph — that satisfy the timing constraints:
//!
//! * every chosen child span nests inside the parent span's window,
//! * (with dependency-order constraints) a stage's calls are only sent
//!   after every call of the previous stage returned.
//!
//! With dynamism enabled a slot may instead be *skipped* (the request did
//! not traverse that part of the call graph); skips are budgeted by the
//! batch machinery in [`crate::dynamism`].

use crate::params::Params;
use std::collections::HashMap;
use tw_model::callgraph::DependencySpec;
use tw_model::ids::Endpoint;
use tw_model::span::ObservedSpan;
use tw_model::time::Nanos;

/// Closest feasible child spans considered per backend slot.
const MAX_CHILDREN_PER_SLOT: usize = 8;
/// Candidates enumerated per span before top-K selection.
const MAX_CANDIDATES_PER_SPAN: usize = 128;

/// Flattened slot layout of a dependency spec: `stages[k]` lists the
/// endpoints called in stage `k`; `slot_index[k][j]` is the global slot id.
#[derive(Debug, Clone)]
pub struct SlotLayout {
    pub stages: Vec<Vec<Endpoint>>,
    /// Total number of slots.
    pub num_slots: usize,
}

impl SlotLayout {
    pub fn from_spec(spec: &DependencySpec, use_order: bool) -> Self {
        let stages: Vec<Vec<Endpoint>> = if use_order {
            spec.stages.iter().map(|s| s.calls.clone()).collect()
        } else {
            // Ablation: collapse every call into one unordered stage.
            let all: Vec<Endpoint> = spec.all_calls().collect();
            if all.is_empty() {
                vec![]
            } else {
                vec![all]
            }
        };
        let num_slots = stages.iter().map(Vec::len).sum();
        SlotLayout { stages, num_slots }
    }

    /// Global slot id for stage `k`, call `j`.
    pub fn slot_id(&self, stage: usize, j: usize) -> usize {
        self.stages[..stage].iter().map(Vec::len).sum::<usize>() + j
    }

    /// Iterate `(slot_id, stage, endpoint)`.
    pub fn slots(&self) -> impl Iterator<Item = (usize, usize, Endpoint)> + '_ {
        self.stages.iter().enumerate().flat_map(move |(k, calls)| {
            calls
                .iter()
                .enumerate()
                .map(move |(j, &e)| (self.slot_id(k, j), k, e))
        })
    }
}

/// One candidate mapping for one parent span.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Index of the parent in the task's incoming-span list.
    pub parent: usize,
    /// Chosen outgoing-span index per slot; `None` = slot skipped.
    pub children: Vec<Option<usize>>,
    /// Log-likelihood score (filled by the scoring pass).
    pub score: f64,
}

impl Candidate {
    pub fn num_skips(&self) -> usize {
        self.children.iter().filter(|c| c.is_none()).count()
    }

    /// True if the two candidates claim any common outgoing span.
    pub fn conflicts_with(&self, other: &Candidate) -> bool {
        self.children
            .iter()
            .flatten()
            .any(|i| other.children.iter().flatten().any(|j| i == j))
    }
}

/// Indexed pool of the task's outgoing spans, grouped by endpoint and
/// sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct OutgoingPool {
    by_endpoint: HashMap<Endpoint, Vec<usize>>,
    spans: Vec<ObservedSpan>,
}

impl OutgoingPool {
    pub fn new(outgoing: &[ObservedSpan]) -> Self {
        let mut by_endpoint: HashMap<Endpoint, Vec<usize>> = HashMap::new();
        for (i, s) in outgoing.iter().enumerate() {
            by_endpoint.entry(s.endpoint).or_default().push(i);
        }
        for v in by_endpoint.values_mut() {
            v.sort_by_key(|&i| (outgoing[i].start, outgoing[i].end));
        }
        OutgoingPool {
            by_endpoint,
            spans: outgoing.to_vec(),
        }
    }

    pub fn span(&self, idx: usize) -> &ObservedSpan {
        &self.spans[idx]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn count_for(&self, e: Endpoint) -> usize {
        self.by_endpoint.get(&e).map(Vec::len).unwrap_or(0)
    }

    /// Outgoing spans to `e` that nest within `[lo, hi]`, start at or
    /// after `ref_t`, and pass `pred`; closest-first, capped at `limit`.
    fn feasible(
        &self,
        e: Endpoint,
        ref_t: Nanos,
        lo: Nanos,
        hi: Nanos,
        limit: usize,
        pred: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let Some(ids) = self.by_endpoint.get(&e) else {
            return vec![];
        };
        let earliest = ref_t.max(lo);
        // Binary search to the first span starting at/after `earliest`.
        let from = ids.partition_point(|&i| self.spans[i].start < earliest);
        ids[from..]
            .iter()
            .copied()
            .take_while(|&i| self.spans[i].start <= hi)
            .filter(|&i| self.spans[i].end <= hi && pred(i))
            .take(limit)
            .collect()
    }

    /// All spans to `e` feasible for a parent window (no order
    /// constraints) — used for batching's shared-candidate test.
    pub fn feasible_for_window(&self, e: Endpoint, lo: Nanos, hi: Nanos) -> Vec<usize> {
        self.feasible(e, lo, lo, hi, usize::MAX, |_| true)
    }
}

/// Enumerate candidate mappings for one parent span.
///
/// DFS over stages in dependency order; the reference time for stage `k`
/// is the latest response among stage `k−1`'s chosen children (the
/// dependency-order constraint (iii) of §4.1 step 1). Fan-out per slot is
/// capped at [`MAX_CHILDREN_PER_SLOT`] (closest feasible first) and total
/// candidates at [`MAX_CANDIDATES_PER_SPAN`].
///
/// When `allow_skips` is true a slot may be skipped (dynamism, §4.2); the
/// all-skip candidate is included so a fully cached request can map to
/// nothing.
pub fn enumerate_candidates(
    parent_idx: usize,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    pool: &OutgoingPool,
    params: &Params,
    allow_skips: bool,
) -> Vec<Candidate> {
    if layout.num_slots == 0 {
        // Leaf endpoint: the unique (empty) mapping.
        return vec![Candidate {
            parent: parent_idx,
            children: vec![],
            score: 0.0,
        }];
    }

    let mut out: Vec<Candidate> = Vec::new();
    let mut chosen: Vec<Option<usize>> = Vec::with_capacity(layout.num_slots);
    dfs_stage(
        parent_idx,
        parent,
        layout,
        pool,
        params,
        allow_skips,
        0,
        parent.start,
        &mut chosen,
        &mut out,
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs_stage(
    parent_idx: usize,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    pool: &OutgoingPool,
    params: &Params,
    allow_skips: bool,
    stage: usize,
    ref_t: Nanos,
    chosen: &mut Vec<Option<usize>>,
    out: &mut Vec<Candidate>,
) {
    if out.len() >= MAX_CANDIDATES_PER_SPAN {
        return;
    }
    if stage == layout.stages.len() {
        out.push(Candidate {
            parent: parent_idx,
            children: chosen.clone(),
            score: 0.0,
        });
        return;
    }

    // Per-endpoint feasible options for this stage (all measured from the
    // same reference).
    let endpoints = &layout.stages[stage];
    // Thread-affinity hint (paper §7): when enabled and both sides carry
    // thread ids, a child must have been sent by the thread that received
    // the parent.
    let thread_ok = |idx: usize| -> bool {
        if !params.use_thread_hints {
            return true;
        }
        match (parent.thread, pool.span(idx).thread) {
            (Some(p), Some(c)) => p == c,
            _ => true,
        }
    };
    let options: Vec<Vec<Option<usize>>> = endpoints
        .iter()
        .map(|&e| {
            let mut opts: Vec<Option<usize>> = pool
                .feasible(
                    e,
                    ref_t,
                    parent.start,
                    parent.end,
                    MAX_CHILDREN_PER_SLOT,
                    thread_ok,
                )
                .into_iter()
                .map(Some)
                .collect();
            if allow_skips {
                opts.push(None);
            }
            opts
        })
        .collect();

    if options.iter().any(Vec::is_empty) {
        return; // some slot has no feasible child and skips are off
    }

    // Cartesian product over the stage's slots.
    let mut combo = vec![0usize; endpoints.len()];
    'product: loop {
        if out.len() >= MAX_CANDIDATES_PER_SPAN {
            return;
        }
        // Materialize this combination.
        let picks: Vec<Option<usize>> = combo
            .iter()
            .enumerate()
            .map(|(j, &c)| options[j][c])
            .collect();
        // Distinctness: two slots in one stage must not take the same span
        // (possible when two slots target the same endpoint).
        let mut dup = false;
        for (a, pa) in picks.iter().enumerate() {
            if let Some(ia) = pa {
                for pb in picks.iter().skip(a + 1) {
                    if Some(*ia) == *pb {
                        dup = true;
                    }
                }
            }
        }
        if !dup {
            // Next stage's reference: latest response among the chosen
            // children; unchanged if the whole stage was skipped.
            let next_ref = picks
                .iter()
                .flatten()
                .map(|&i| pool.span(i).end)
                .max()
                .unwrap_or(ref_t);
            let depth = chosen.len();
            chosen.extend(picks.iter().copied());
            dfs_stage(
                parent_idx,
                parent,
                layout,
                pool,
                params,
                allow_skips,
                stage + 1,
                next_ref,
                chosen,
                out,
            );
            chosen.truncate(depth);
        }
        // Advance the mixed-radix counter.
        for j in 0..combo.len() {
            combo[j] += 1;
            if combo[j] < options[j].len() {
                continue 'product;
            }
            combo[j] = 0;
        }
        break;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::callgraph::{DependencySpec, Stage};
    use tw_model::ids::{OperationId, RpcId, ServiceId};

    fn ep(s: u32) -> Endpoint {
        Endpoint::new(ServiceId(s), OperationId(0))
    }

    fn span(rpc: u64, e: Endpoint, start: u64, end: u64) -> ObservedSpan {
        ObservedSpan {
            rpc: RpcId(rpc),
            peer: e.service,
            endpoint: e,
            start: Nanos(start),
            end: Nanos(end),
            thread: None,
        }
    }

    /// Spec: call B (svc 1) then C (svc 2) sequentially.
    fn seq_spec() -> DependencySpec {
        DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))])
    }

    #[test]
    fn layout_flattening() {
        let layout = SlotLayout::from_spec(&seq_spec(), true);
        assert_eq!(layout.stages.len(), 2);
        assert_eq!(layout.num_slots, 2);
        assert_eq!(layout.slot_id(1, 0), 1);
        let flat = SlotLayout::from_spec(&seq_spec(), false);
        assert_eq!(flat.stages.len(), 1);
        assert_eq!(flat.num_slots, 2);
    }

    #[test]
    fn leaf_gets_empty_candidate() {
        let layout = SlotLayout::from_spec(&DependencySpec::leaf(), true);
        let pool = OutgoingPool::new(&[]);
        let parent = span(0, ep(0), 0, 100);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        assert_eq!(cands.len(), 1);
        assert!(cands[0].children.is_empty());
    }

    #[test]
    fn nesting_constraint_enforced() {
        let layout = SlotLayout::from_spec(&DependencySpec::new(vec![Stage::single(ep(1))]), true);
        // One fits, one starts too early, one ends too late.
        let outgoing = vec![
            span(1, ep(1), 10, 90),  // fits parent [0, 100]
            span(2, ep(1), 5, 50),   // fits too (starts after 0)
            span(3, ep(1), 20, 150), // ends after parent
        ];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, ep(0), 0, 100);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        let picked: Vec<usize> = cands.iter().map(|c| c.children[0].unwrap()).collect();
        assert!(picked.contains(&0));
        assert!(picked.contains(&1));
        assert!(!picked.contains(&2), "span ending after parent chosen");
    }

    #[test]
    fn order_constraint_prunes() {
        let layout = SlotLayout::from_spec(&seq_spec(), true);
        // B candidates and C candidates; C2 starts before B1 ends so the
        // combination (B1, C2) is infeasible under order constraints.
        let outgoing = vec![
            span(1, ep(1), 10, 50), // B1
            span(2, ep(2), 40, 80), // C2: overlaps B1
            span(3, ep(2), 60, 90), // C3: after B1
        ];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, ep(0), 0, 100);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].children, vec![Some(0), Some(2)]);

        // Without order constraints both C spans are allowed.
        let flat = SlotLayout::from_spec(&seq_spec(), false);
        let cands = enumerate_candidates(0, &parent, &flat, &pool, &Params::default(), false);
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn skips_allowed_when_dynamism() {
        let layout = SlotLayout::from_spec(&seq_spec(), true);
        let outgoing = vec![span(1, ep(1), 10, 50)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, ep(0), 0, 100);
        // No C span exists: without skips, zero candidates.
        let none = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        assert!(none.is_empty());
        // With skips: (B1, skip), (skip, skip).
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), true);
        assert!(cands.iter().any(|c| c.children == vec![Some(0), None]));
        assert!(cands.iter().any(|c| c.children == vec![None, None]));
    }

    #[test]
    fn same_endpoint_twice_in_stage_distinct() {
        let spec = DependencySpec::new(vec![Stage::parallel(vec![ep(1), ep(1)])]);
        let layout = SlotLayout::from_spec(&spec, true);
        let outgoing = vec![span(1, ep(1), 10, 40), span(2, ep(1), 20, 60)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, ep(0), 0, 100);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        for c in &cands {
            assert_ne!(c.children[0], c.children[1], "same span used twice");
        }
        assert_eq!(cands.len(), 2); // (1,2) and (2,1)
    }

    #[test]
    fn fanout_cap_respected() {
        let spec = DependencySpec::new(vec![Stage::single(ep(1))]);
        let layout = SlotLayout::from_spec(&spec, true);
        // More feasible children than the cap.
        let outgoing: Vec<ObservedSpan> = (0..50).map(|i| span(i, ep(1), 10 + i, 90)).collect();
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(99, ep(0), 0, 100);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        assert_eq!(cands.len(), MAX_CHILDREN_PER_SLOT);
        // Closest-first: the earliest feasible spans.
        let picked: Vec<usize> = cands.iter().map(|c| c.children[0].unwrap()).collect();
        assert_eq!(picked, (0..MAX_CHILDREN_PER_SLOT).collect::<Vec<_>>());
    }

    #[test]
    fn thread_hints_prune_candidates() {
        let spec = DependencySpec::new(vec![Stage::single(ep(1))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let mk = |rpc: u64, start: u64, thread: u32| ObservedSpan {
            thread: Some(thread),
            ..span(rpc, ep(1), start, 90)
        };
        let outgoing = vec![mk(1, 10, 7), mk(2, 20, 9)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = ObservedSpan {
            thread: Some(7),
            ..span(0, ep(0), 0, 100)
        };
        // Without hints: both children are candidates.
        let plain = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);
        assert_eq!(plain.len(), 2);
        // With hints: only the same-thread child survives.
        let params = Params {
            use_thread_hints: true,
            ..Params::default()
        };
        let hinted = enumerate_candidates(0, &parent, &layout, &pool, &params, false);
        assert_eq!(hinted.len(), 1);
        assert_eq!(hinted[0].children, vec![Some(0)]);
        // Missing thread ids never exclude a candidate.
        let anon_parent = span(0, ep(0), 0, 100);
        let anon = enumerate_candidates(0, &anon_parent, &layout, &pool, &params, false);
        assert_eq!(anon.len(), 2);
    }

    #[test]
    fn conflict_detection() {
        let a = Candidate {
            parent: 0,
            children: vec![Some(1), Some(2)],
            score: 0.0,
        };
        let b = Candidate {
            parent: 1,
            children: vec![Some(2), None],
            score: 0.0,
        };
        let c = Candidate {
            parent: 1,
            children: vec![Some(3), None],
            score: 0.0,
        };
        assert!(a.conflicts_with(&b));
        assert!(!a.conflicts_with(&c));
        assert_eq!(b.num_skips(), 1);
    }
}
