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
use tw_stats::gmm::{Gmm, GmmFitOptions};

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

/// Per-edge delay distributions.
#[derive(Debug, Clone, Default)]
pub struct DelayModel {
    edges: HashMap<EdgeKey, Gmm>,
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
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    pub fn get(&self, key: &EdgeKey) -> Option<&Gmm> {
        self.edges.get(key)
    }

    pub fn insert(&mut self, key: EdgeKey, gmm: Gmm) {
        self.edges.insert(key, gmm);
    }

    /// Log density of a gap under the edge's model.
    pub fn log_pdf(&self, key: &EdgeKey, gap_us: f64) -> f64 {
        match self.edges.get(key) {
            Some(gmm) => gmm.log_pdf(gap_us).max(SCORE_LOG_FLOOR),
            None => UNMODELED_LOG_DENSITY,
        }
    }

    /// Build iteration-1 seed Gaussians from marginal statistics only
    /// (§4.1 step 3, "seed distribution").
    ///
    /// For each slot of each served endpoint: the mean gap is the
    /// difference between the mean start time of outgoing spans to the
    /// slot's endpoint and the mean of the reference population (parent
    /// arrivals for stage 0, the previous stage's response completions
    /// otherwise); σ comes from [`bucketed_sigma`].
    pub fn seed(
        incoming: &[ObservedSpan],
        pool: &OutgoingPool,
        layouts: &HashMap<Endpoint, SlotLayout>,
        outgoing: &[ObservedSpan],
        params: &Params,
    ) -> Self {
        let mut model = DelayModel::default();

        // Group marginal populations.
        let mut in_starts: HashMap<Endpoint, Vec<f64>> = HashMap::new();
        let mut in_ends: HashMap<Endpoint, Vec<f64>> = HashMap::new();
        for s in incoming {
            in_starts
                .entry(s.endpoint)
                .or_default()
                .push(s.start.as_micros_f64());
            in_ends
                .entry(s.endpoint)
                .or_default()
                .push(s.end.as_micros_f64());
        }
        let mut out_starts: HashMap<Endpoint, Vec<f64>> = HashMap::new();
        let mut out_ends: HashMap<Endpoint, Vec<f64>> = HashMap::new();
        for s in outgoing {
            out_starts
                .entry(s.endpoint)
                .or_default()
                .push(s.start.as_micros_f64());
            out_ends
                .entry(s.endpoint)
                .or_default()
                .push(s.end.as_micros_f64());
        }
        let _ = pool;

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
                        let g = seed_gaussian(ref_pop, starts, params.seed_buckets);
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
                let g = seed_gaussian(final_ref, parent_ends, params.seed_buckets);
                model.insert(EdgeKey::Final { served }, Gmm::single(g));
            }
        }
        model
    }

    /// Refit every edge in `gaps` with a BIC-selected GMM over its observed
    /// gaps (iterations ≥ 2). Edges absent from `gaps`, or with fewer than
    /// three samples, keep their previous model. The sweep runs to
    /// Table 1's C = 5, `GmmFitOptions::default().max_components`.
    pub fn refit(&self, gaps: &HashMap<EdgeKey, Vec<f64>>, _params: &Params) -> Self {
        let opts = GmmFitOptions::default();
        let telemetry = crate::telemetry::metrics();
        let mut next = self.clone();
        for (key, samples) in gaps {
            if samples.len() >= 3 {
                let gmm = Gmm::fit_auto(samples, &opts);
                telemetry.gmm_components.observe(gmm.len() as f64);
                next.insert(*key, gmm);
            }
        }
        next
    }
}

/// Seed Gaussian for the gap between two *unpaired* time populations.
///
/// `mu = mean(to) − mean(from)` (exact without pairing). σ is estimated by
/// sorting both populations, splitting each into `buckets` rank-aligned
/// buckets, taking the per-bucket mean difference, and scaling the spread
/// of those differences by √(bucket size) per the central limit theorem.
pub fn seed_gaussian(from: &[f64], to: &[f64], buckets: usize) -> Gaussian {
    let mu = tw_stats::mean(to) - tw_stats::mean(from);
    let n = from.len().min(to.len());
    if n < 2 || buckets < 2 {
        return Gaussian::new(mu, SEED_SIGMA_FLOOR_US.max(mu.abs() * 0.5));
    }
    let buckets = buckets.min(n);
    let mut a: Vec<f64> = from.to_vec();
    let mut b: Vec<f64> = to.to_vec();
    a.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
    b.sort_by(|x, y| x.partial_cmp(y).expect("finite times"));
    let per_a = a.len() / buckets;
    let per_b = b.len() / buckets;
    let mut diffs = Vec::with_capacity(buckets);
    for r in 0..buckets {
        let sa = &a[r * per_a..if r == buckets - 1 {
            a.len()
        } else {
            (r + 1) * per_a
        }];
        let sb = &b[r * per_b..if r == buckets - 1 {
            b.len()
        } else {
            (r + 1) * per_b
        }];
        diffs.push(tw_stats::mean(sb) - tw_stats::mean(sa));
    }
    let bucket_size = (n / buckets).max(1) as f64;
    let sigma = tw_stats::std_dev(&diffs) * bucket_size.sqrt();
    Gaussian::new(mu, sigma.max(SEED_SIGMA_FLOOR_US))
}

/// Walk a candidate's chosen children through the slot layout and emit
/// `(edge, gap_us)` pairs, including the final-response edge. Skipped
/// slots emit nothing; a fully-skipped stage leaves the reference time
/// unchanged.
pub fn edge_gaps(
    served: Endpoint,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    candidate: &Candidate,
    pool: &OutgoingPool,
) -> Vec<(EdgeKey, f64)> {
    let mut out = Vec::with_capacity(layout.num_slots + 1);
    let mut ref_t = parent.start;
    for (k, stage) in layout.stages.iter().enumerate() {
        let mut stage_max_end = None;
        for j in 0..stage.len() {
            let slot = layout.slot_id(k, j);
            if let Some(Some(child_idx)) = candidate.children.get(slot) {
                let child = pool.span(*child_idx);
                out.push((
                    EdgeKey::Call { served, slot },
                    child.start.micros_since(ref_t),
                ));
                stage_max_end = Some(match stage_max_end {
                    Some(m) => child.end.max(m),
                    None => child.end,
                });
            }
        }
        if let Some(m) = stage_max_end {
            ref_t = m;
        }
    }
    out.push((EdgeKey::Final { served }, parent.end.micros_since(ref_t)));
    out
}

/// Log-density penalty charged for each skip span a candidate uses
/// (dynamism handling, §4.2).
const SKIP_LOG_PENALTY: f64 = -14.0;

/// Score a candidate: sum of edge log-densities plus the per-skip penalty
/// (§4.1 step 4 / §4.2). `_params` is unread — the penalty is the
/// constant `SKIP_LOG_PENALTY` — and stays because `bench/` calls this
/// signature.
pub fn score_candidate(
    served: Endpoint,
    parent: &ObservedSpan,
    layout: &SlotLayout,
    candidate: &Candidate,
    pool: &OutgoingPool,
    model: &DelayModel,
    _params: &Params,
) -> f64 {
    let mut score = 0.0;
    for (key, gap) in edge_gaps(served, parent, layout, candidate, pool) {
        score += model.log_pdf(&key, gap);
    }
    score + SKIP_LOG_PENALTY * candidate.num_skips() as f64
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

    #[test]
    fn seed_gaussian_mean_exact() {
        // Pairs with constant gap 10: marginal means differ by exactly 10.
        let from: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let to: Vec<f64> = (0..100).map(|i| i as f64 + 10.0).collect();
        let g = seed_gaussian(&from, &to, 10);
        assert!((g.mu - 10.0).abs() < 1e-9);
        assert!(g.sigma >= SEED_SIGMA_FLOOR_US);
    }

    #[test]
    fn seed_gaussian_degenerate() {
        let g = seed_gaussian(&[1.0], &[5.0], 10);
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
