//! Delay-distribution estimation and candidate scoring (paper §4.1
//! steps 3–4).
//!
//! For every dependency edge at a service — parent arrival → first-stage
//! call, previous-stage completion → next-stage call, last-stage
//! completion → parent response — we maintain a probability distribution
//! over the processing gap.
//!
//! The chicken-and-egg problem (gaps require mappings, mappings require
//! gap distributions) is broken exactly as in the paper: iteration 1 uses
//! a seed Gaussian whose mean comes from the difference of marginal means
//! (mean of differences = difference of means, no pairing needed) and
//! whose spread comes from a bucketed central-limit estimate; subsequent
//! iterations fit a Gaussian Mixture Model (BIC-selected component count)
//! to the gaps of the previous iteration's inferred mapping.

use crate::candidates::{Candidate, OutgoingPool, SlotLayout};
use crate::params::Params;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tw_model::ids::Endpoint;
use tw_model::span::ObservedSpan;
use tw_stats::gaussian::Gaussian;
use tw_stats::gmm::{Gmm, GmmFitOptions, MomentSummary, Widths};

/// One dependency edge at a service.
///
/// `Ord` + serde: edges key the persistent [`crate::registry::DelayRegistry`],
/// which iterates in sorted order (determinism) and round-trips to JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EdgeKey {
    /// Gap before the call filling slot `slot` of requests served at
    /// `served` (reference: parent arrival for stage-0 slots, previous
    /// stage's completion otherwise).
    Call { served: Endpoint, slot: usize },
    /// Gap between the last stage's completion and the parent response.
    Final { served: Endpoint },
}

impl EdgeKey {
    /// The served endpoint and the place of the edge in its
    /// [`DelayModel`] list: the final edge first, then slot by slot.
    fn place(self) -> (Endpoint, usize) {
        match self {
            EdgeKey::Call { served, slot } => (served, slot + 1),
            EdgeKey::Final { served } => (served, 0),
        }
    }
}

/// Per-edge delay distributions.
#[derive(Debug, Clone, Default)]
pub struct DelayModel {
    /// Per served endpoint, its edges by [`EdgeKey::place`].
    served: HashMap<Endpoint, Vec<Option<Edge>>>,
    /// Per refitted edge, its last sweep's fit at every width the sweep
    /// ran: where that edge's next sweep starts each width's EM.
    pub(crate) sweeps: HashMap<EdgeKey, Vec<Gmm>>,
}

/// One modeled edge: its mixture and each component's `(ln w, ln σ)`,
/// taken on insert so that scoring takes no logarithm of a parameter.
#[derive(Debug, Clone)]
struct Edge {
    gmm: Gmm,
    terms: Vec<(f64, f64)>,
}

/// Log density of a gap under `edge`, clamped at [`SCORE_LOG_FLOOR`];
/// [`UNMODELED_LOG_DENSITY`] without one.
fn edge_log_pdf(edge: Option<&Edge>, gap_us: f64) -> f64 {
    let log_pdf = |e: &Edge| e.gmm.log_pdf_given(gap_us, e.terms.iter().copied());
    edge.map_or(UNMODELED_LOG_DENSITY, |e| log_pdf(e).max(SCORE_LOG_FLOOR))
}

/// Minimum σ (µs) for seed distributions, so near-deterministic services
/// don't produce degenerate densities.
const SEED_SIGMA_FLOOR_US: f64 = 1.0;

/// Common log-density floor for candidate scoring. Unmodeled edges and
/// modeled-but-extremely-unlikely gaps both clamp here: with separate
/// scales (the unmodeled fallback was -20 while modeled densities clamped
/// at -1e6), a single implausible gap under a *modeled* edge could be
/// penalized five orders of magnitude harder than having no model at all,
/// making skips/unmodeled candidates spuriously attractive.
pub const SCORE_LOG_FLOOR: f64 = -20.0;

/// Log-density charged when an edge has no model at all (should only
/// happen for edges never observed; keeps scores finite).
const UNMODELED_LOG_DENSITY: f64 = SCORE_LOG_FLOOR;

impl DelayModel {
    /// Number of modeled edges.
    pub fn len(&self) -> usize {
        self.served.values().flatten().flatten().count()
    }

    pub fn is_empty(&self) -> bool {
        self.served.is_empty() // `insert` makes every entry, with an edge
    }

    pub fn get(&self, key: &EdgeKey) -> Option<&Gmm> {
        self.edge(key).map(|e| &e.gmm)
    }

    fn edge(&self, key: &EdgeKey) -> Option<&Edge> {
        let (served, place) = key.place();
        self.served.get(&served)?.get(place)?.as_ref()
    }

    pub fn insert(&mut self, key: EdgeKey, gmm: Gmm) {
        let (served, place) = key.place();
        let edges = self.served.entry(served).or_default();
        if edges.len() <= place {
            edges.resize_with(place + 1, || None);
        }
        let terms = gmm.log_terms();
        edges[place] = Some(Edge { gmm, terms });
    }

    /// Log density of a gap under the edge's model.
    pub fn log_pdf(&self, key: &EdgeKey, gap_us: f64) -> f64 {
        edge_log_pdf(self.edge(key), gap_us)
    }

    /// Build iteration-1 seed Gaussians from marginal statistics only
    /// (§4.1 step 3, "seed distribution").
    ///
    /// For each slot of each served endpoint: the mean gap is the
    /// difference between the mean start time of outgoing spans to the
    /// slot's endpoint and the mean of the reference population (parent
    /// arrivals for stage 0, the previous stage's response completions
    /// otherwise); σ comes from [`seed_gaussian`].
    pub fn seed(
        incoming: &[ObservedSpan],
        pool: &OutgoingPool,
        layouts: &HashMap<Endpoint, SlotLayout>,
        outgoing: &[ObservedSpan],
        params: &Params,
    ) -> Self {
        let mut model = DelayModel::default();

        // Group marginal populations: start and end times per endpoint.
        type Times = HashMap<Endpoint, Vec<f64>>;
        let group = |spans: &[ObservedSpan]| {
            let (mut starts, mut ends): (Times, Times) = Default::default();
            for s in spans {
                let e = s.endpoint;
                starts.entry(e).or_default().push(s.start.as_micros_f64());
                ends.entry(e).or_default().push(s.end.as_micros_f64());
            }
            (starts, ends)
        };
        let (in_starts, in_ends) = group(incoming);
        let (out_starts, out_ends) = group(outgoing);
        let _ = (pool, params);

        for (&served, layout) in layouts {
            let Some(parent_starts) = in_starts.get(&served) else {
                continue;
            };
            // Reference population per stage: stage 0 ← parent starts;
            // stage k ← ends of the previous stage's endpoint with the
            // latest mean end (the stage completes when its slowest call
            // returns).
            let mut ref_pop: &[f64] = parent_starts;
            let mut stage_end_pop: Option<&[f64]> = None;
            for (k, stage) in layout.stages.iter().enumerate() {
                if k > 0 {
                    if let Some(p) = stage_end_pop {
                        ref_pop = p;
                    }
                }
                let mut latest_mean = f64::NEG_INFINITY;
                for (j, &e) in stage.iter().enumerate() {
                    let slot = layout.slot_id(k, j);
                    if let Some(starts) = out_starts.get(&e) {
                        let g = seed_gaussian(ref_pop, starts);
                        model.insert(EdgeKey::Call { served, slot }, Gmm::single(g));
                    }
                    if let Some(ends) = out_ends.get(&e) {
                        let m = tw_stats::mean(ends);
                        if m > latest_mean {
                            latest_mean = m;
                            stage_end_pop = Some(ends);
                        }
                    }
                }
            }
            // Final edge: last stage completion → parent response.
            let final_ref: &[f64] = match stage_end_pop {
                Some(p) if !layout.stages.is_empty() => p,
                _ => parent_starts,
            };
            if let Some(parent_ends) = in_ends.get(&served) {
                let g = seed_gaussian(final_ref, parent_ends);
                model.insert(EdgeKey::Final { served }, Gmm::single(g));
            }
        }
        model
    }

    /// Refit every edge in `gaps` with a BIC-selected GMM over the summary
    /// of its observed gaps, [`MomentSummary::of_sample`] (iterations ≥ 2).
    /// Edges absent from `gaps`, or with fewer than three samples, keep
    /// their previous model. The sweep runs to
    /// Table 1's C = 5, `GmmFitOptions::default().max_components`, and its
    /// EM at each width starts from the edge's fit of that width in its
    /// last sweep; a width that sweep never reached, and every width of an
    /// edge never swept (a seed), starts cold.
    pub fn refit(&self, gaps: &HashMap<EdgeKey, Vec<f64>>, _params: &Params) -> Self {
        let opts = GmmFitOptions::default();
        let telemetry = crate::telemetry::metrics();
        let mut next = self.clone();
        for (key, samples) in gaps {
            if samples.len() >= 3 {
                let starts = self.sweeps.get(key).map_or(&[][..], Vec::as_slice);
                let summary = MomentSummary::of_sample(samples);
                let (gmm, fits) = Gmm::fit(&summary, Widths::Sweep, starts, &opts);
                telemetry.gmm_components.observe(gmm.len() as f64);
                next.insert(*key, gmm);
                next.sweeps.insert(*key, fits);
            }
        }
        next
    }
}

/// Rank-aligned buckets of the seed variance estimate (Table 1: R = 10).
const SEED_BUCKETS: usize = 10;

/// Seed Gaussian for the gap between two *unpaired* time populations.
///
/// `mu = mean(to) − mean(from)` (exact without pairing). σ is estimated by
/// sorting both populations, splitting each into `SEED_BUCKETS`
/// rank-aligned buckets, taking the per-bucket mean difference, and
/// scaling the spread of those differences by √(bucket size) per the
/// central limit theorem.
pub fn seed_gaussian(from: &[f64], to: &[f64]) -> Gaussian {
    let mu = tw_stats::mean(to) - tw_stats::mean(from);
    let n = from.len().min(to.len());
    if n < 2 {
        return Gaussian::new(mu, SEED_SIGMA_FLOOR_US.max(mu.abs() * 0.5));
    }
    let buckets = SEED_BUCKETS.min(n);
    let mut a: Vec<f64> = from.to_vec();
    let mut b: Vec<f64> = to.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
    // Rank-aligned bucket `r` of a sorted population; the last takes the rest.
    let bucket = |v: &[f64], r: usize| {
        let per = v.len() / buckets;
        let end = if r == buckets - 1 {
            v.len()
        } else {
            (r + 1) * per
        };
        tw_stats::mean(&v[r * per..end])
    };
    let diffs: Vec<f64> = (0..buckets)
        .map(|r| bucket(&b, r) - bucket(&a, r))
        .collect();
    let bucket_size = (n / buckets).max(1) as f64;
    let sigma = tw_stats::std_dev(&diffs) * bucket_size.sqrt();
    Gaussian::new(mu, sigma.max(SEED_SIGMA_FLOOR_US))
}

/// Walk a candidate's chosen children through the slot layout, calling
/// `f(edge, gap_us)` for each chosen child in slot order and then for the
/// final-response edge. Skipped slots emit nothing; a fully-skipped stage
/// leaves the reference time unchanged.
fn walk_gaps(
    served: Endpoint,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    candidate: &Candidate,
    pool: &OutgoingPool,
    mut f: impl FnMut(EdgeKey, f64),
) {
    let (mut ref_t, mut first_slot) = (parent.start, 0);
    for stage in &layout.stages {
        let mut stage_max_end = None;
        for slot in first_slot..first_slot + stage.len() {
            if let Some(Some(child_idx)) = candidate.children.get(slot) {
                let child = pool.span(*child_idx);
                let gap = child.start.micros_since(ref_t);
                f(EdgeKey::Call { served, slot }, gap);
                stage_max_end = stage_max_end.max(Some(child.end));
            }
        }
        ref_t = stage_max_end.unwrap_or(ref_t);
        first_slot += stage.len();
    }
    f(EdgeKey::Final { served }, parent.end.micros_since(ref_t));
}

/// A candidate's `(edge, gap_us)` pairs, in [`walk_gaps`] order.
pub fn edge_gaps(
    served: Endpoint,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    candidate: &Candidate,
    pool: &OutgoingPool,
) -> Vec<(EdgeKey, f64)> {
    let mut out = Vec::with_capacity(layout.num_slots + 1);
    walk_gaps(served, parent, layout, candidate, pool, |key, gap| {
        out.push((key, gap))
    });
    out
}

/// Log-density penalty charged for each skip span a candidate uses
/// (dynamism handling, §4.2).
const SKIP_LOG_PENALTY: f64 = -14.0;

/// Score a candidate: sum of edge log-densities, in [`walk_gaps`] order,
/// plus the per-skip penalty (§4.1 step 4 / §4.2). `_params` is unread —
/// the penalty is the constant `SKIP_LOG_PENALTY` — and stays because
/// `bench/` calls this signature.
pub fn score_candidate(
    served: Endpoint,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    candidate: &Candidate,
    pool: &OutgoingPool,
    model: &DelayModel,
    _params: &Params,
) -> f64 {
    let edges = model.served.get(&served).map_or(&[][..], Vec::as_slice);
    let mut score = 0.0;
    walk_gaps(served, parent, layout, candidate, pool, |key, gap| {
        score += edge_log_pdf(edges.get(key.place().1).and_then(Option::as_ref), gap);
    });
    score + SKIP_LOG_PENALTY * candidate.num_skips() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tw_model::callgraph::{DependencySpec, Stage};
    use tw_model::ids::{OperationId, RpcId, ServiceId};
    use tw_model::time::Nanos;
    use tw_stats::gaussian::SIGMA_FLOOR;

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

    #[test]
    fn seed_gaussian_mean_exact() {
        // Pairs with constant gap 10: marginal means differ by exactly 10.
        let from: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let to: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        let g = seed_gaussian(&from, &to);
        assert!((g.mu - 10.0).abs() < 1e-9);
        assert!(g.sigma >= SEED_SIGMA_FLOOR_US);
    }

    #[test]
    fn seed_gaussian_degenerate() {
        let g = seed_gaussian(&[1.0], &[5.0]);
        assert!((g.mu - 4.0).abs() < 1e-9);
        assert!(g.sigma > 0.0);
    }

    #[test]
    fn edge_gaps_sequential() {
        // Parent [0, 100]; B child [10, 40]; C child [55, 90].
        let served = ep(0);
        let spec = DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let outgoing = vec![span(1, ep(1), 10, 40), span(2, ep(2), 55, 90)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, served, 0, 100);
        let cand = Candidate {
            parent: 0,
            children: vec![Some(0), Some(1)],
            score: 0.0,
        };
        let gaps = edge_gaps(served, &parent, &layout, &cand, &pool);
        assert_eq!(gaps.len(), 3);
        // B sent 10us after arrival.
        assert_eq!(gaps[0].1, 10.0);
        // C sent 15us after B returned (55 - 40).
        assert_eq!(gaps[1].1, 15.0);
        // Response 10us after C returned (100 - 90).
        assert_eq!(gaps[2].1, 10.0);
    }

    #[test]
    fn edge_gaps_with_skip() {
        let served = ep(0);
        let spec = DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let outgoing = vec![span(2, ep(2), 55, 90)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, served, 0, 100);
        let cand = Candidate {
            parent: 0,
            children: vec![None, Some(0)],
            score: 0.0,
        };
        let gaps = edge_gaps(served, &parent, &layout, &cand, &pool);
        // Only C's edge + final; C measured from parent start (B skipped).
        assert_eq!(gaps.len(), 2);
        assert_eq!(gaps[0].1, 55.0);
        assert_eq!(gaps[1].1, 10.0);
    }

    #[test]
    fn score_prefers_typical_gap() {
        let served = ep(0);
        let spec = DependencySpec::new(vec![Stage::single(ep(1))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let mut model = DelayModel::default();
        model.insert(
            EdgeKey::Call { served, slot: 0 },
            Gmm::single(Gaussian::new(10.0, 2.0)),
        );
        model.insert(
            EdgeKey::Final { served },
            Gmm::single(Gaussian::new(10.0, 2.0)),
        );
        let outgoing = vec![span(1, ep(1), 10, 90), span(2, ep(1), 40, 90)];
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, served, 0, 100);
        let typical = Candidate {
            parent: 0,
            children: vec![Some(0)],
            score: 0.0,
        };
        let atypical = Candidate {
            parent: 0,
            children: vec![Some(1)],
            score: 0.0,
        };
        let p = Params::default();
        let s1 = score_candidate(served, &parent, &layout, &typical, &pool, &model, &p);
        let s2 = score_candidate(served, &parent, &layout, &atypical, &pool, &model, &p);
        assert!(
            s1 > s2,
            "gap-10 candidate must outscore gap-40: {s1} vs {s2}"
        );
    }

    #[test]
    fn skip_penalty_applied() {
        let served = ep(0);
        let spec = DependencySpec::new(vec![Stage::single(ep(1))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let model = DelayModel::default();
        let pool = OutgoingPool::new(&[]);
        let parent = span(0, served, 0, 100);
        let skip = Candidate {
            parent: 0,
            children: vec![None],
            score: 0.0,
        };
        let p = Params::default();
        let s = score_candidate(served, &parent, &layout, &skip, &pool, &model, &p);
        // Final edge unmodeled (-20) + one skip penalty.
        assert_eq!(s, UNMODELED_LOG_DENSITY + SKIP_LOG_PENALTY);
    }

    /// The scoring formula as it stood before edges kept their terms: walk
    /// the slots through `slot_id`, hash each `EdgeKey`, and take every
    /// component's `ln w` and `ln σ` at each gap, summed by a max-first
    /// log-sum-exp in component order.
    fn score_reference(
        served: Endpoint,
        parent: &ObservedSpan,
        layout: &SlotLayout,
        candidate: &Candidate,
        pool: &OutgoingPool,
        model: &DelayModel,
    ) -> f64 {
        let log_pdf = |key: EdgeKey, x: f64| {
            let Some(gmm) = model.get(&key) else {
                return UNMODELED_LOG_DENSITY;
            };
            let logs: Vec<f64> = gmm
                .components
                .iter()
                .map(|c| c.weight.max(f64::MIN_POSITIVE).ln() + c.gaussian.log_pdf(x))
                .collect();
            let (mut max, mut top) = (f64::NEG_INFINITY, 0);
            for (j, &l) in logs.iter().enumerate() {
                if l > max {
                    (max, top) = (l, j);
                }
            }
            let sum: f64 = logs
                .iter()
                .enumerate()
                .map(|(j, &l)| if j == top { 1.0 } else { (l - max).exp() })
                .sum();
            (max + sum.ln()).max(SCORE_LOG_FLOOR)
        };
        let mut score = 0.0;
        let mut ref_t = parent.start;
        for (k, stage) in layout.stages.iter().enumerate() {
            let mut stage_max_end = None;
            for j in 0..stage.len() {
                let slot = layout.slot_id(k, j);
                if let Some(Some(child_idx)) = candidate.children.get(slot) {
                    let child = pool.span(*child_idx);
                    score += log_pdf(
                        EdgeKey::Call { served, slot },
                        child.start.micros_since(ref_t),
                    );
                    stage_max_end =
                        Some(stage_max_end.map_or(child.end, |m: Nanos| child.end.max(m)));
                }
            }
            if let Some(m) = stage_max_end {
                ref_t = m;
            }
        }
        score += log_pdf(EdgeKey::Final { served }, parent.end.micros_since(ref_t));
        score + SKIP_LOG_PENALTY * candidate.num_skips() as f64
    }

    /// A mixture of 1 to 10 components: past `MAX_COMPONENTS` it scores on
    /// the heap. A σ of 0 lands on `SIGMA_FLOOR`, and a weight of 0 on
    /// `f64::MIN_POSITIVE`.
    fn gmm_strategy() -> impl Strategy<Value = Gmm> {
        let sigma = (0.0..60.0f64, 0u8..4).prop_map(|(s, floor)| if floor == 0 { 0.0 } else { s });
        let weight = (0.0..1.0f64, 0u8..8).prop_map(|(w, zero)| if zero == 0 { 0.0 } else { w });
        prop::collection::vec((weight, -50.0..400.0f64, sigma), 1..11).prop_map(|comps| Gmm {
            components: comps
                .into_iter()
                .map(|(weight, mu, sigma)| tw_stats::gmm::GmmComponent {
                    weight,
                    gaussian: Gaussian::new(mu, sigma),
                })
                .collect(),
        })
    }

    /// `score_candidate` equals the reference bit for bit: 1–3 stages of
    /// 1–3 calls, skipped slots, children anywhere in time, and each edge
    /// modeled by a mixture of up to 10 components or unmodeled.
    #[test]
    fn scores_are_bit_identical_to_the_reference() {
        let mut rng = TestRng::for_test("scores_are_bit_identical_to_the_reference");
        let served = ep(0);
        let (mut heap, mut floor, mut unmodeled, mut skips) = (0, 0, 0, 0);
        for _ in 0..400 {
            let widths = prop::collection::vec(1usize..4, 1..4).sample(&mut rng);
            let use_order = any::<bool>().sample(&mut rng);
            let mut next_ep = 1;
            let stages: Vec<Stage> = widths
                .iter()
                .map(|&w| {
                    next_ep += w as u32;
                    Stage::parallel((next_ep - w as u32..next_ep).map(ep).collect())
                })
                .collect();
            let layout = SlotLayout::from_spec(&DependencySpec::new(stages), use_order);
            let outgoing: Vec<ObservedSpan> =
                prop::collection::vec((0u64..2_000, 1u64..500), 1..12)
                    .sample(&mut rng)
                    .into_iter()
                    .enumerate()
                    .map(|(i, (start, len))| span(i as u64 + 1, ep(1), start, start + len))
                    .collect();
            let pool = OutgoingPool::new(&outgoing);
            let (start, len) = (0u64..500, 1u64..3_000).sample(&mut rng);
            let parent = span(0, served, start, start + len);
            let mut model = DelayModel::default();
            let keys = (0..layout.num_slots)
                .map(|slot| EdgeKey::Call { served, slot })
                .chain([EdgeKey::Final { served }]);
            for key in keys {
                match prop::option::of(gmm_strategy()).sample(&mut rng) {
                    Some(gmm) => {
                        heap += usize::from(gmm.len() > tw_stats::gmm::MAX_COMPONENTS);
                        floor += usize::from(
                            gmm.components
                                .iter()
                                .any(|c| c.gaussian.sigma == SIGMA_FLOOR),
                        );
                        model.insert(key, gmm);
                    }
                    None => unmodeled += 1,
                }
            }
            for _ in 0..4 {
                let children: Vec<Option<usize>> = (0..layout.num_slots)
                    .map(|_| prop::option::of(0..pool.len()).sample(&mut rng))
                    .collect();
                let cand = Candidate {
                    parent: 0,
                    children,
                    score: 0.0,
                };
                skips += usize::from(cand.num_skips() > 0);
                let p = Params::default();
                let got = score_candidate(served, &parent, &layout, &cand, &pool, &model, &p);
                let want = score_reference(served, &parent, &layout, &cand, &pool, &model);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{got} vs {want}: {cand:?} {model:?}"
                );
            }
        }
        assert!(heap > 0 && floor > 0 && unmodeled > 0 && skips > 0);
    }

    #[test]
    fn refit_uses_gmm() {
        let served = ep(0);
        let key = EdgeKey::Call { served, slot: 0 };
        let mut model = DelayModel::default();
        model.insert(key, Gmm::single(Gaussian::new(0.0, 100.0)));
        // Bimodal gaps: the refit should discover both modes.
        let mut gaps = HashMap::new();
        let samples: Vec<f64> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    10.0 + (i % 5) as f64 * 0.1
                } else {
                    80.0 + (i % 5) as f64 * 0.1
                }
            })
            .collect();
        gaps.insert(key, samples);
        let refit = model.refit(&gaps, &Params::default());
        let gmm = refit.get(&key).unwrap();
        assert!(gmm.len() >= 2, "refit should pick up both modes");
        // The refit model should rate a gap of 80 as likely.
        assert!(refit.log_pdf(&key, 80.0) > refit.log_pdf(&key, 45.0));
    }

    #[test]
    fn unmodeled_edge_fallback() {
        let model = DelayModel::default();
        assert_eq!(
            model.log_pdf(&EdgeKey::Final { served: ep(9) }, 5.0),
            UNMODELED_LOG_DENSITY
        );
    }

    #[test]
    fn modeled_unlikely_clamps_to_unmodeled_floor() {
        // Regression: a modeled edge scoring an absurd gap must clamp to
        // the same floor as an unmodeled edge, not five orders of
        // magnitude below it.
        let served = ep(0);
        let key = EdgeKey::Call { served, slot: 0 };
        let mut model = DelayModel::default();
        model.insert(key, Gmm::single(Gaussian::new(10.0, 0.5)));
        let absurd = model.log_pdf(&key, 1e9);
        let unmodeled = model.log_pdf(&EdgeKey::Final { served: ep(9) }, 1e9);
        assert_eq!(absurd, SCORE_LOG_FLOOR);
        assert_eq!(absurd, unmodeled);
        // Plausible gaps still score strictly above the floor.
        assert!(model.log_pdf(&key, 10.0) > SCORE_LOG_FLOOR);
    }
}
