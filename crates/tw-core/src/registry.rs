//! Persistent per-edge delay models: the warm-start registry.
//!
//! The paper's chicken-and-egg step (§4.1 step 3) bootstraps delay
//! distributions from scratch inside every reconstruction task. That is
//! the right thing exactly once: in steady state the same `(process,
//! edge)` pairs recur window after window, and re-seeding from marginal
//! statistics every 250–1000ms both wastes work and starves the estimator
//! when windows are small (§5.3's window-sizing tension).
//!
//! A [`DelayRegistry`] carries the learned state across reconstruction
//! rounds: for every `(ProcessKey, EdgeKey)` it keeps the current GMM and
//! a bounded reservoir of the gap samples that produced it. After each
//! round the caller feeds the round's inferred gaps back via
//! [`DelayRegistry::absorb_round`]: for each edge with fresh gaps, the
//! reservoir's samples are decayed by [`DELAY_DECAY`], fresh ones enter at
//! weight 1, the oldest past [`RESERVOIR_CAPACITY`] leave, and the GMM is
//! refit on one row per sample at its weight. Exponential decay means the
//! model tracks load shifts and redeploys instead of averaging over them;
//! the bound keeps absorb cost independent of uptime.
//!
//! Everything here is deterministic: maps are `BTreeMap`s, absorb order
//! is sorted, and the weighted EM is the same deterministic fit used
//! everywhere else — so warm-started reconstruction preserves the
//! byte-identical-across-thread-counts invariant.

use crate::delays::{DelayModel, EdgeKey};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use tw_model::span::ProcessKey;
use tw_stats::gmm::{Gmm, GmmFitOptions, MomentSummary, Widths};

/// Multiplicative down-weighting applied to an edge's reservoir samples
/// each absorb round that brings the edge fresh gaps: fresh gaps enter at
/// weight 1, a sample `k` such rounds old counts `DELAY_DECAY^k`, so the
/// model tracks load shifts and deploys instead of averaging over them.
const DELAY_DECAY: f64 = 0.5;

/// Gap samples retained per edge, oldest evicted first: bounds absorb cost
/// independent of uptime.
const RESERVOIR_CAPACITY: usize = 512;

/// Decayed samples below this weight are evicted: at [`DELAY_DECAY`] a
/// sample survives ~7 absorb rounds that touch its edge before falling
/// out, bounding how long a dead delay regime can linger once fresh
/// samples replace it.
const MIN_RESERVOIR_WEIGHT: f64 = 1e-2;

/// Largest gap magnitude (µs) accepted into a reservoir: one minute.
/// Real processing/network gaps are micro- to milliseconds; anything this
/// large is a skew artifact or a corrupted timestamp, and a single such
/// sample would drag a fitted component arbitrarily far from the real
/// delay regime (DESIGN.md §9 quarantine).
const MAX_ABS_GAP_US: f64 = 60.0e6;

/// A bounded reservoir of gap samples with exponentially decayed weights.
///
/// Samples are stored oldest-first; every [`GapReservoir::absorb`] call
/// multiplies existing weights by [`DELAY_DECAY`], appends the new
/// window's samples at weight 1, and evicts from the front (oldest) when
/// over [`RESERVOIR_CAPACITY`] or below the weight floor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GapReservoir {
    /// `(gap_us, weight)`, oldest first.
    samples: Vec<(f64, f64)>,
}

impl GapReservoir {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Decay existing samples, append `fresh` at weight 1, truncate to
    /// [`RESERVOIR_CAPACITY`] by evicting the oldest.
    pub fn absorb(&mut self, fresh: &[f64]) {
        for (_, w) in self.samples.iter_mut() {
            *w *= DELAY_DECAY;
        }
        self.samples.retain(|&(_, w)| w >= MIN_RESERVOIR_WEIGHT);
        self.samples.extend(fresh.iter().map(|&g| (g, 1.0)));
        if self.samples.len() > RESERVOIR_CAPACITY {
            self.samples
                .drain(..self.samples.len() - RESERVOIR_CAPACITY);
        }
    }
}

/// Learned state of one `(process, edge)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeState {
    /// Current delay mixture, refit on every absorb.
    pub model: Gmm,
    /// The decayed samples backing the model.
    pub reservoir: GapReservoir,
}

/// One warm pass's inferred edge gaps, per process in sorted process
/// order: what [`crate::TraceWeaver::reconstruct_records_warm`] hands back and
/// [`DelayRegistry::absorb_round`] folds in. Every task of the pass has an
/// entry, with or without gaps.
#[derive(Debug, Clone, Default)]
pub struct GapRound(pub(crate) Vec<(ProcessKey, HashMap<EdgeKey, Vec<f64>>)>);

/// Serialized form: nested maps flatten to entry lists because JSON maps
/// need string keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RegistryDoc {
    /// Absorb rounds applied so far.
    rounds: u64,
    processes: Vec<ProcessDoc>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ProcessDoc {
    process: ProcessKey,
    edges: Vec<EdgeDoc>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EdgeDoc {
    edge: EdgeKey,
    state: EdgeState,
}

/// Per-`(ProcessKey, EdgeKey)` delay models with bounded, decayed sample
/// reservoirs — the unit of warm-start state threaded through
/// [`crate::TraceWeaver::reconstruct_records_with_registry`], the online engine,
/// and `twctl learn-delays`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DelayRegistry {
    edges: BTreeMap<ProcessKey, BTreeMap<EdgeKey, EdgeState>>,
    rounds: u64,
    /// Degenerate inputs rejected by [`DelayRegistry::absorb`]: non-finite
    /// or absurd-magnitude gap samples, plus one count per refit rolled
    /// back because it produced a non-finite / zero-variance model.
    /// Runtime diagnostic only — not persisted.
    quarantined: u64,
}

// JSON maps need string keys, so the registry round-trips through the
// entry-list [`RegistryDoc`] form (the vendored serde lacks
// `#[serde(from/into)]`, hence the manual impls).
impl Serialize for DelayRegistry {
    fn to_value(&self) -> serde::Value {
        RegistryDoc::from(self.clone()).to_value()
    }
}

impl<'de> Deserialize<'de> for DelayRegistry {
    fn from_value(value: serde::Value) -> Result<Self, serde::DeError> {
        RegistryDoc::from_value(value).map(DelayRegistry::from)
    }
}

impl From<RegistryDoc> for DelayRegistry {
    fn from(doc: RegistryDoc) -> Self {
        let mut edges: BTreeMap<ProcessKey, BTreeMap<EdgeKey, EdgeState>> = BTreeMap::new();
        for p in doc.processes {
            let slot = edges.entry(p.process).or_default();
            for e in p.edges {
                slot.insert(e.edge, e.state);
            }
        }
        DelayRegistry {
            edges,
            rounds: doc.rounds,
            quarantined: 0,
        }
    }
}

impl From<DelayRegistry> for RegistryDoc {
    fn from(reg: DelayRegistry) -> Self {
        RegistryDoc {
            rounds: reg.rounds,
            processes: reg
                .edges
                .into_iter()
                .map(|(process, edges)| ProcessDoc {
                    process,
                    edges: edges
                        .into_iter()
                        .map(|(edge, state)| EdgeDoc { edge, state })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// A mixture is servable as a warm-start prior only if every component has
/// finite, positive parameters and the mixing weights still form a
/// distribution. EM on a poisoned reservoir can emit NaN means or zero
/// weights; such a model scores every candidate at `-inf`/NaN and must
/// never replace a working one. (Exactly-constant gaps are fine: the fit
/// floors sigma at `tw_stats::gaussian::SIGMA_FLOOR`, which passes.)
fn gmm_is_sane(model: &Gmm) -> bool {
    !model.is_empty()
        && model.components.iter().all(|c| {
            c.weight.is_finite()
                && c.weight > 0.0
                && c.gaussian.mu.is_finite()
                && c.gaussian.sigma.is_finite()
                && c.gaussian.sigma > 0.0
        })
        && (model.components.iter().map(|c| c.weight).sum::<f64>() - 1.0).abs() < 1e-6
}

impl DelayRegistry {
    pub fn new() -> Self {
        DelayRegistry::default()
    }

    /// Total modeled `(process, edge)` pairs.
    pub fn len(&self) -> usize {
        self.edges.values().map(|m| m.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Processes with at least one modeled edge.
    pub fn processes(&self) -> usize {
        self.edges.len()
    }

    /// Absorb rounds (windows) applied so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Degenerate samples rejected and degenerate refits rolled back
    /// since this registry was created (not persisted across save/load).
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    pub fn get(&self, process: &ProcessKey, edge: &EdgeKey) -> Option<&EdgeState> {
        self.edges.get(process)?.get(edge)
    }

    /// Materialize the warm-start prior for one process: a [`DelayModel`]
    /// holding the current GMM of every modeled edge at that process.
    /// `None` when the process has never been absorbed — the task then
    /// falls back to cold seeding.
    pub fn model_for(&self, process: &ProcessKey) -> Option<DelayModel> {
        let edges = self.edges.get(process)?;
        if edges.is_empty() {
            return None;
        }
        let mut model = DelayModel::default();
        for (key, state) in edges {
            model.insert(*key, state.model.clone());
        }
        Some(model)
    }

    /// Fold one process's round of inferred gaps into the registry: decay,
    /// insert, refit, in sorted edge order for determinism. Only an edge
    /// with at least one admissible fresh gap is touched: one absent from
    /// `gaps`, or whose gaps are all quarantined, keeps its reservoir and
    /// model exactly as they were, so an idle edge's model keeps serving
    /// unchanged.
    pub fn absorb(&mut self, process: ProcessKey, gaps: &HashMap<EdgeKey, Vec<f64>>) {
        // A warm task runs exactly one pass and never refits, so a
        // registry fit *is* the scoring model of the process's next
        // window, not a prior some later EM loop refines. The looser
        // tolerance and iteration cap keep absorb cheap (it runs once per
        // window over up to `RESERVOIR_CAPACITY` samples/edge), and what
        // they cost in fit quality lands in that window's scores.
        let opts = GmmFitOptions {
            max_iters: 40,
            tol: 1e-5,
            ..GmmFitOptions::default()
        };
        let mut quarantined = 0u64;
        let mut keys: Vec<&EdgeKey> = gaps.keys().collect();
        keys.sort_unstable();
        for key in keys {
            // Quarantine degenerate samples before they touch the
            // reservoir: NaN/infinite gaps (arithmetic on corrupted
            // timestamps) and skew-scale outliers. The rest of the batch
            // is still absorbed.
            let raw = &gaps[key];
            let fresh: Vec<f64> = raw
                .iter()
                .copied()
                .filter(|g| g.is_finite() && g.abs() <= MAX_ABS_GAP_US)
                .collect();
            quarantined += (raw.len() - fresh.len()) as u64;
            if fresh.is_empty() {
                continue;
            }
            // The process gets an entry with its first admissible gap, so
            // every process the registry lists has a modeled edge.
            let slot = self.edges.entry(process).or_default();
            let known = slot.contains_key(key);
            let state = slot.entry(*key).or_insert_with(|| EdgeState {
                model: Gmm::single(tw_stats::gaussian::Gaussian::new(0.0, 1.0)),
                reservoir: GapReservoir::default(),
            });
            state.reservoir.absorb(&fresh);
            // First sight of an edge: full BIC sweep. After that the
            // component count evolves slowly, so sweep only around the
            // current model's count.
            let widths = if known {
                Widths::Near(state.model.len())
            } else {
                Widths::Sweep
            };
            let rows = MomentSummary::rows(state.reservoir.samples.iter().copied());
            let refit = Gmm::fit(&rows, widths, &[], &opts).0;
            // Quarantine degenerate posteriors: a refit that collapsed to
            // non-finite parameters or vanishing variance would poison
            // every later warm start, so the previous model keeps serving.
            if gmm_is_sane(&refit) {
                state.model = refit;
            } else {
                quarantined += 1;
            }
        }
        self.quarantined += quarantined;
        let telemetry = crate::telemetry::metrics();
        telemetry.registry_quarantined.add(quarantined);
        telemetry.registry_edges.set(self.len() as f64);
    }

    /// Mark the end of one absorb round (one window / one reconstruction
    /// pass over many processes).
    pub fn finish_round(&mut self) {
        self.rounds += 1;
    }

    /// Absorb one warm pass's gaps, process by process in the round's
    /// sorted order, then close the round. Timed as the `absorb` stage.
    pub fn absorb_round(&mut self, round: GapRound) {
        let _timer = crate::telemetry::metrics().stage_absorb.start_timer();
        for (process, gaps) in &round.0 {
            self.absorb(*process, gaps);
        }
        self.finish_round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::ids::{Endpoint, OperationId, ServiceId};

    fn pkey(s: u32) -> ProcessKey {
        ProcessKey::new(ServiceId(s), 0)
    }

    fn ekey(s: u32, slot: usize) -> EdgeKey {
        EdgeKey::Call {
            served: Endpoint::new(ServiceId(s), OperationId(0)),
            slot,
        }
    }

    #[test]
    fn absorb_builds_models_and_prior() {
        let mut reg = DelayRegistry::new();
        assert!(reg.model_for(&pkey(0)).is_none());
        let mut gaps = HashMap::new();
        gaps.insert(ekey(0, 0), vec![10.0; 50]);
        reg.absorb(pkey(0), &gaps);
        reg.finish_round();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.rounds(), 1);
        let model = reg.model_for(&pkey(0)).expect("prior available");
        assert!(model.log_pdf(&ekey(0, 0), 10.0) > model.log_pdf(&ekey(0, 0), 100.0));
    }

    #[test]
    fn decay_shifts_model_toward_fresh_regime() {
        let mut reg = DelayRegistry::new();
        let key = ekey(0, 0);
        // Old regime at 10us for 3 rounds, then a deploy moves it to 80us.
        let mut old = HashMap::new();
        old.insert(key, vec![10.0; 100]);
        for _ in 0..3 {
            reg.absorb(pkey(0), &old);
            reg.finish_round();
        }
        let mut new = HashMap::new();
        new.insert(key, vec![80.0; 100]);
        for _ in 0..3 {
            reg.absorb(pkey(0), &new);
            reg.finish_round();
        }
        let model = reg.model_for(&pkey(0)).unwrap();
        assert!(
            model.log_pdf(&key, 80.0) > model.log_pdf(&key, 10.0),
            "model should track the new regime"
        );
    }

    /// Every bit of an edge's learned state: reservoir samples and
    /// weights, then mixture weights, means and sigmas.
    fn state_bits(state: &EdgeState) -> Vec<u64> {
        let samples = state.reservoir.samples.iter().flat_map(|&(x, w)| [x, w]);
        let model = state.model.components.iter();
        let params = model.flat_map(|c| [c.weight, c.gaussian.mu, c.gaussian.sigma]);
        samples.chain(params).map(f64::to_bits).collect()
    }

    /// Absorb touches only the edges a round brings admissible gaps for:
    /// an edge missing from the round — for more rounds than a touched
    /// sample survives — or whose gaps are all quarantined keeps its
    /// reservoir weights and its model bit for bit.
    #[test]
    fn edge_missing_from_a_round_stands_still() {
        let mut reg = DelayRegistry::new();
        let (idle, busy) = (ekey(0, 0), ekey(0, 1));
        let mut round = HashMap::new();
        round.insert(idle, vec![10.0, 12.0, 11.0, 30.0, 31.0]);
        round.insert(busy, vec![50.0; 20]);
        reg.absorb(pkey(0), &round);
        reg.finish_round();
        let idle_before = state_bits(reg.get(&pkey(0), &idle).unwrap());
        let busy_before = state_bits(reg.get(&pkey(0), &busy).unwrap());

        round.remove(&idle);
        round.insert(busy, vec![60.0, 61.0, 59.0, 62.0]);
        for _ in 0..10 {
            reg.absorb(pkey(0), &round);
            reg.finish_round();
        }
        round.insert(idle, vec![f64::NAN, 1e12]);
        reg.absorb(pkey(0), &round);
        reg.finish_round();

        assert_eq!(state_bits(reg.get(&pkey(0), &idle).unwrap()), idle_before);
        assert_ne!(state_bits(reg.get(&pkey(0), &busy).unwrap()), busy_before);
        assert_eq!(reg.quarantined(), 2);
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut res = GapReservoir::default();
        for _ in 0..20 {
            res.absorb(&[1.0; 400]);
        }
        assert_eq!(res.len(), RESERVOIR_CAPACITY);
        let total_weight: f64 = res.samples.iter().map(|(_, w)| w).sum();
        assert!(total_weight <= RESERVOIR_CAPACITY as f64 + 1e-9);
    }

    #[test]
    fn reservoir_evicts_fully_decayed_samples() {
        let mut res = GapReservoir::default();
        res.absorb(&[5.0, 6.0]);
        // 8 empty rounds: 0.5^8 ≈ 0.004 < floor, so the originals vanish.
        for _ in 0..8 {
            res.absorb(&[]);
        }
        assert!(res.is_empty());
    }

    #[test]
    fn absorb_quarantines_degenerate_samples() {
        let mut reg = DelayRegistry::new();
        let key = ekey(0, 0);
        let mut gaps = HashMap::new();
        // Clean samples around 10µs, plus a NaN, an infinity, and a
        // skew-scale outlier (an hour). The clean ones must still land.
        let mut xs = vec![10.0, 11.0, 9.5, 10.5, 10.2];
        xs.push(f64::NAN);
        xs.push(f64::INFINITY);
        xs.push(3.6e9);
        gaps.insert(key, xs);
        reg.absorb(pkey(0), &gaps);
        reg.finish_round();
        assert_eq!(reg.quarantined(), 3);
        let state = reg.get(&pkey(0), &key).expect("edge modeled");
        assert_eq!(state.reservoir.len(), 5, "clean samples absorbed");
        let model = reg.model_for(&pkey(0)).unwrap();
        assert!(model.log_pdf(&key, 10.0) > model.log_pdf(&key, 1_000.0));
    }

    #[test]
    fn absorb_all_degenerate_leaves_edge_unmodeled() {
        let mut reg = DelayRegistry::new();
        let mut gaps = HashMap::new();
        gaps.insert(ekey(0, 0), vec![f64::NAN, f64::NEG_INFINITY, -7.0e7]);
        reg.absorb(pkey(0), &gaps);
        assert_eq!(reg.quarantined(), 3);
        assert!(reg.model_for(&pkey(0)).is_none(), "no model from garbage");
    }

    /// A process whose round brings no admissible gap — none at all, as a
    /// leaf task's, or only quarantined ones — gets no entry: the registry
    /// lists only processes with a modeled edge.
    #[test]
    fn absorb_without_admissible_gaps_adds_no_process() {
        let mut reg = DelayRegistry::new();
        reg.absorb(pkey(0), &HashMap::new());
        let mut garbage = HashMap::new();
        garbage.insert(ekey(1, 0), vec![f64::NAN, 1e12]);
        reg.absorb(pkey(1), &garbage);
        reg.finish_round();
        assert_eq!((reg.processes(), reg.len(), reg.is_empty()), (0, 0, true));
        let doc = serde_json::to_string(&reg).unwrap();
        assert!(doc.contains(r#""processes":[]"#), "{doc}");
    }

    #[test]
    fn constant_gaps_survive_quarantine() {
        // Exactly-deterministic delays hit the sigma floor but are a
        // legitimate regime — they must not be quarantined.
        let mut reg = DelayRegistry::new();
        let key = ekey(0, 0);
        let mut gaps = HashMap::new();
        gaps.insert(key, vec![25.0; 40]);
        reg.absorb(pkey(0), &gaps);
        assert_eq!(reg.quarantined(), 0);
        let model = reg.model_for(&pkey(0)).unwrap();
        assert!(model.log_pdf(&key, 25.0).is_finite());
    }

    #[test]
    fn json_round_trip() {
        let mut reg = DelayRegistry::new();
        let mut gaps = HashMap::new();
        gaps.insert(ekey(3, 1), vec![12.0, 14.0, 13.0, 12.5, 13.5]);
        gaps.insert(
            EdgeKey::Final {
                served: Endpoint::new(ServiceId(3), OperationId(0)),
            },
            vec![4.0, 5.0, 4.5, 5.5, 4.2],
        );
        reg.absorb(pkey(3), &gaps);
        reg.finish_round();
        let json = serde_json::to_string(&reg).unwrap();
        let back: DelayRegistry = serde_json::from_str(&json).unwrap();
        assert_eq!(reg, back);
    }
}
