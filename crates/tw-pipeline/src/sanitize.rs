//! Telemetry sanitization: a defensive stage between span ingestion and
//! windowed reconstruction.
//!
//! Raw capture streams carry duplicates, truncated (response-less)
//! records, non-causal timestamps, and clock skew (see
//! `tw_sim::faults` for the fault taxonomy, DESIGN.md §9 for the failure
//! model). Feeding them to the engine unfiltered corrupts skip budgets,
//! poisons the delay registry, and breaks window assignment. The
//! [`Sanitizer`] filters and repairs the stream record by record:
//!
//! 1. **truncation** — records whose response was never observed carry
//!    zeroed response timestamps and are rejected (they cannot anchor an
//!    interval);
//! 2. **dedup** — bounded-memory rejection of re-transmitted `RpcId`s
//!    (a ring of the most recent ids, so memory stays O(capacity));
//! 3. **causality** — each side of a record is checked on its *own*
//!    clock (`recv_resp < send_req` or `send_resp < recv_req` ⇒ negative
//!    duration ⇒ corrupt). Cross-side checks are deliberately not
//!    grounds for rejection: `send_req > recv_req` is what clock skew
//!    looks like, and skew is corrected, not dropped;
//! 4. **clock-skew estimation/correction** — per caller→callee service
//!    edge, an NTP-style offset estimate
//!    `θ̂ = ((recv_req − send_req) − (recv_resp − send_resp)) / 2`
//!    (callee clock minus caller clock, unbiased under symmetric network
//!    delay) is tracked with a two-state filter: a constant-offset EWMA
//!    plus a windowed least-squares fit of *drift* (offset slope, ppm
//!    scale) over a bounded ring of `(time, θ̂)` samples. Edge estimates
//!    are resolved into per-service clock models by BFS over the service
//!    graph anchored at `EXTERNAL` (offset 0, drift 0), and every
//!    timestamp is corrected as `ts − (offset + drift · (ts − anchor))`
//!    in that common frame — so long-running streams whose clocks walk
//!    at ppm rates stay corrected instead of trailing the EWMA's lag.
//!    Resolving per *service* (not per edge) is what keeps each
//!    process's incoming and outgoing spans mutually consistent —
//!    correcting each record against only its own edge would tear a
//!    process's two span sides into different clock frames. An edge
//!    stays in the resolution once seen (the service graph bounds how
//!    many there are), holding its last estimate while it is idle.
//!
//! A late record is not the sanitizer's business: the window router folds
//! it into the first window still open at its arrival.
//!
//! Every rejection increments a per-reason counter in [`SanitizeStats`]
//! (a view over the `tw_sanitize_*` series). The stage is
//! strictly sequential and allocation-light, so it is deterministic for
//! a given input order — the property the pipeline's cross-thread
//! determinism tests rely on.

// Timestamp module: epoch-scale nanosecond values (> 2^53 ns) lose up to
// ~256 ns when cast to f64 — the same order as the skew being corrected.
// Floats may only touch small anchor-relative or duration-scale values;
// every exception below carries a justifying `#[allow]`.
#![deny(clippy::cast_precision_loss)]

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;
use tw_model::ids::{RpcId, ServiceId};
use tw_model::span::{RpcRecord, EXTERNAL};
use tw_model::time::Nanos;
use tw_telemetry::{Counter, Gauge, Registry};

/// How many recent `RpcId`s the dedup filter remembers. Duplicates
/// arriving further apart than this pass through; the filter's memory is
/// bounded regardless of stream length.
const DEDUP_CAPACITY: usize = 65_536;

/// Re-solve the per-service offsets from the edge estimates every this
/// many records (count-based, so the stage stays deterministic).
const SKEW_RESOLVE_INTERVAL: u64 = 64;

/// Sanitizer configuration.
#[derive(Debug, Clone)]
pub struct SanitizeConfig {
    /// Track per-edge clock *drift* (offset slope) with a windowed
    /// least-squares fit, and correct every timestamp as
    /// `offset + drift · (ts − anchor)`. When disabled, correction falls
    /// back to the constant per-edge EWMA offset (the pre-drift
    /// behavior) — also the per-edge fallback while a ring is too small
    /// or too clustered for a trustworthy slope.
    pub drift_correction: bool,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            drift_correction: true,
        }
    }
}

/// Per-reason counters for one sanitizer's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizeStats {
    pub received: u64,
    pub passed: u64,
    /// Rejected: `RpcId` seen within the dedup window.
    pub duplicates: u64,
    /// Rejected: response timestamps missing (zeroed).
    pub truncated: u64,
    /// Rejected: negative duration on the caller or callee clock.
    pub non_causal: u64,
    /// Always 0: the sanitizer drops no record for arriving late. `bench/`
    /// still sums it; ROADMAP's [benchmark] item ("unpin") deletes it.
    pub late: u64,
    /// Passed, but with timestamps shifted by a skew offset.
    pub skew_corrected: u64,
    /// Skew samples folded into per-edge drift rings.
    pub drift_samples: u64,
    /// Cumulative |innovation| (ns) between new skew samples and the
    /// current drift fit's prediction — a converged filter's innovation
    /// rate settles at the network-jitter floor.
    pub drift_innovation_ns: u64,
}

impl SanitizeStats {
    pub fn rejected(&self) -> u64 {
        self.duplicates + self.truncated + self.non_causal
    }
}

/// Registry-backed counters for one sanitizer. [`SanitizeStats`] is a
/// snapshot view over these series; the drop reasons share one family
/// under a `reason` label so dashboards can stack them.
#[derive(Debug, Clone)]
pub(crate) struct SanitizeMetrics {
    /// Kept for lazily registering per-service skew gauges.
    registry: Registry,
    received: Counter,
    passed: Counter,
    dropped_duplicate: Counter,
    dropped_truncated: Counter,
    dropped_non_causal: Counter,
    skew_corrected: Counter,
    drift_samples: Counter,
    drift_innovation_ns: Counter,
}

impl SanitizeMetrics {
    fn new(registry: &Registry) -> Self {
        let dropped = |reason: &str| {
            registry.counter_with(
                "tw_sanitize_dropped_total",
                "Records rejected by the sanitizer, by reason (DESIGN.md §9).",
                &[("reason", reason)],
            )
        };
        SanitizeMetrics {
            registry: registry.clone(),
            received: registry.counter(
                "tw_sanitize_received_total",
                "Records entering the sanitizer.",
            ),
            passed: registry.counter(
                "tw_sanitize_passed_total",
                "Records forwarded downstream (possibly skew-corrected).",
            ),
            dropped_duplicate: dropped("duplicate"),
            dropped_truncated: dropped("truncated"),
            dropped_non_causal: dropped("non_causal"),
            skew_corrected: registry.counter(
                "tw_sanitize_skew_corrected_total",
                "Records passed with timestamps shifted into the anchor clock frame.",
            ),
            drift_samples: registry.counter(
                "tw_sanitize_drift_samples_total",
                "Skew samples folded into per-edge drift rings.",
            ),
            drift_innovation_ns: registry.counter(
                "tw_sanitize_drift_innovation_ns_total",
                "Cumulative |innovation| (ns) between skew samples and the drift fit's prediction.",
            ),
        }
    }

    /// The stats view over these series (also the engine owner's final
    /// one, [`crate::OnlineEngine::sanitize_stats`]).
    pub(crate) fn snapshot(&self) -> SanitizeStats {
        SanitizeStats {
            received: self.received.get(),
            passed: self.passed.get(),
            duplicates: self.dropped_duplicate.get(),
            truncated: self.dropped_truncated.get(),
            non_causal: self.dropped_non_causal.get(),
            late: 0,
            skew_corrected: self.skew_corrected.get(),
            drift_samples: self.drift_samples.get(),
            drift_innovation_ns: self.drift_innovation_ns.get(),
        }
    }
}

/// Label value for a per-service series.
fn service_label(svc: ServiceId) -> String {
    if svc == EXTERNAL {
        "external".to_string()
    } else {
        svc.0.to_string()
    }
}

/// Per-edge two-state clock filter (ns, callee minus caller): a
/// constant-offset EWMA (the fallback state) plus a bounded ring of
/// `(anchor-relative time, θ̂)` samples a windowed least-squares drift
/// fit runs over at resolve time.
#[derive(Debug, Clone)]
struct EdgeSkew {
    /// Constant-offset EWMA. The first sample seeds it directly — a
    /// fresh edge must not spend ~1/α samples crawling out of zero.
    offset: f64,
    samples: u64,
    /// `(t, θ̂)` ring for the drift fit; `t` is the caller-side sample
    /// midpoint in ns relative to the sanitizer anchor (stream-local,
    /// so it fits f64 exactly for ~104 days of stream time).
    ring: VecDeque<(i64, f64)>,
    /// Last resolved fit `(offset at anchor, drift)` — the prediction
    /// baseline for innovation accounting.
    fit: Option<(f64, f64)>,
}

impl EdgeSkew {
    /// Windowed least-squares over the ring: `(offset at anchor, drift)`.
    /// Falls back to the constant EWMA with drift 0 while the ring is
    /// too small or covers too little time for a trustworthy slope.
    fn solve(&self, drift_correction: bool) -> (f64, f64) {
        /// Minimum ring occupancy before a fitted slope is trusted; below
        /// this the edge contributes its constant EWMA offset with drift 0.
        const DRIFT_MIN_SAMPLES: usize = 16;
        /// Minimum time span (ns) the ring must cover before a slope is
        /// trusted — samples clustered in time produce wild slopes.
        const DRIFT_MIN_SPAN_NS: i64 = 100_000_000;
        /// Plausibility clamp on the fitted drift magnitude, in ppm. Real
        /// quartz drifts tens of ppm; anything beyond this is estimation
        /// noise and is clamped, not applied.
        const DRIFT_MAX_PPM: f64 = 1_000.0;

        if !drift_correction || self.ring.len() < DRIFT_MIN_SAMPLES {
            return (self.offset, 0.0);
        }
        let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
        for &(t, _) in &self.ring {
            t_min = t_min.min(t);
            t_max = t_max.max(t);
        }
        if (t_max - t_min) < DRIFT_MIN_SPAN_NS {
            return (self.offset, 0.0);
        }
        // Centered least squares for numerical stability: slope =
        // Σ(dt·dy)/Σ(dt²), intercept re-expressed at the anchor (t = 0).
        let n = f64::from(u32::try_from(self.ring.len()).unwrap_or(u32::MAX));
        let (mut mean_t, mut mean_y) = (0.0f64, 0.0f64);
        for &(t, y) in &self.ring {
            mean_t += rel_to_f64(t);
            mean_y += y;
        }
        mean_t /= n;
        mean_y /= n;
        let (mut sxx, mut sxy) = (0.0f64, 0.0f64);
        for &(t, y) in &self.ring {
            let dt = rel_to_f64(t) - mean_t;
            sxx += dt * dt;
            sxy += dt * (y - mean_y);
        }
        if sxx <= 0.0 {
            return (self.offset, 0.0);
        }
        let max_slope = DRIFT_MAX_PPM * 1e-6;
        let slope = (sxy / sxx).clamp(-max_slope, max_slope);
        (mean_y - slope * mean_t, slope)
    }
}

/// Anchor-relative nanoseconds into f64. Lossless up to 2^53 ns of
/// stream time (~104 days); anchor-relative by construction, never an
/// epoch-scale absolute timestamp.
#[allow(clippy::cast_precision_loss)]
fn rel_to_f64(rel_ns: i64) -> f64 {
    rel_ns as f64
}

/// One service's resolved clock correction: subtract
/// `offset + drift · (ts − anchor)` from every timestamp the service
/// recorded. `drift` is dimensionless (ns per ns, i.e. ppm × 1e-6).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ClockModel {
    /// Correction (ns) at the anchor instant.
    offset: f64,
    /// Correction slope (ns of correction per ns of stream time).
    drift: f64,
}

impl ClockModel {
    fn correction_at(&self, rel_ns: i64) -> f64 {
        self.offset + self.drift * rel_to_f64(rel_ns)
    }
}

/// The sanitizer: a sequential filter over an `RpcRecord` stream.
#[derive(Debug)]
pub struct Sanitizer {
    cfg: SanitizeConfig,
    pub(crate) metrics: SanitizeMetrics,
    /// Per-service `tw_sanitize_skew_offset_ns` gauges, registered lazily
    /// as services appear in resolved offsets.
    skew_gauges: BTreeMap<ServiceId, Gauge>,
    /// Per-service `tw_sanitize_drift_ppb` gauges, same lifecycle.
    drift_gauges: BTreeMap<ServiceId, Gauge>,
    seen: HashSet<RpcId>,
    ring: VecDeque<RpcId>,
    /// Two-state filter per (caller service, callee service) edge.
    edges: BTreeMap<(ServiceId, ServiceId), EdgeSkew>,
    /// Per-service clock models resolved from `edges`, relative to the
    /// anchor frame. Applied to every timestamp that service recorded.
    offsets: BTreeMap<ServiceId, ClockModel>,
    /// Drift anchor: the first timestamp the sanitizer saw. All drift
    /// time coordinates are relative to it, so the f64 math downstream
    /// only ever sees stream-local magnitudes.
    anchor: Option<Nanos>,
    records_since_resolve: u64,
    watermark: Nanos,
}

impl Sanitizer {
    /// New sanitizer counting into a private registry; use
    /// [`new_in`](Sanitizer::new_in) to share one with the pipeline.
    pub fn new(cfg: SanitizeConfig) -> Self {
        Self::new_in(cfg, &Registry::new())
    }

    /// [`new`](Sanitizer::new) with an explicit telemetry registry: the
    /// `tw_sanitize_*` series land there. One sanitizer per registry —
    /// two sanitizers sharing a registry would sum into the same series.
    pub fn new_in(cfg: SanitizeConfig, registry: &Registry) -> Self {
        Sanitizer {
            cfg,
            metrics: SanitizeMetrics::new(registry),
            skew_gauges: BTreeMap::new(),
            drift_gauges: BTreeMap::new(),
            seen: HashSet::new(),
            ring: VecDeque::new(),
            edges: BTreeMap::new(),
            offsets: BTreeMap::new(),
            anchor: None,
            records_since_resolve: 0,
            watermark: Nanos::ZERO,
        }
    }

    pub fn stats(&self) -> SanitizeStats {
        self.metrics.snapshot()
    }

    /// Process one record: `Some(clean)` to forward, `None` if rejected
    /// (the reason is counted in [`SanitizeStats`]).
    pub fn sanitize(&mut self, rec: RpcRecord) -> Option<RpcRecord> {
        self.metrics.received.inc();
        // The drift anchor is the first timestamp ever seen (caller's
        // side, pre-correction): every later time coordinate is relative
        // to it, keeping drift math in stream-local magnitudes.
        if self.anchor.is_none() {
            self.anchor = Some(rec.send_req.min(rec.recv_req));
        }

        // 1. Truncated: the capture layer never saw a response. Without
        // response timestamps the record cannot form an interval.
        if rec.send_resp == Nanos::ZERO || rec.recv_resp == Nanos::ZERO {
            self.metrics.dropped_truncated.inc();
            return None;
        }

        // 2. Bounded-memory dedup.
        if self.seen.contains(&rec.rpc) {
            self.metrics.dropped_duplicate.inc();
            return None;
        }
        self.seen.insert(rec.rpc);
        self.ring.push_back(rec.rpc);
        if self.ring.len() > DEDUP_CAPACITY {
            if let Some(old) = self.ring.pop_front() {
                self.seen.remove(&old);
            }
        }

        // 3. Causality, one clock at a time: each side's duration must
        // be non-negative on its own clock. These checks are immune to
        // cross-host skew, so a violation means corruption, not skew.
        if rec.recv_resp < rec.send_req || rec.send_resp < rec.recv_req {
            self.metrics.dropped_non_causal.inc();
            return None;
        }

        // 4. Skew: update this edge's estimate, periodically re-solve
        // the per-service offsets, and shift the record into the common
        // frame.
        let mut rec = rec;
        self.observe_skew(&rec);
        self.records_since_resolve += 1;
        if self.offsets.is_empty() || self.records_since_resolve >= SKEW_RESOLVE_INTERVAL {
            self.resolve_offsets();
            self.records_since_resolve = 0;
        }
        if self.correct(&mut rec) {
            self.metrics.skew_corrected.inc();
        }

        self.watermark = self.watermark.max(rec.recv_resp);

        self.metrics.passed.inc();
        Some(rec)
    }

    /// Batch convenience: sanitize in order, keeping survivors.
    pub fn sanitize_batch(
        &mut self,
        records: impl IntoIterator<Item = RpcRecord>,
    ) -> Vec<RpcRecord> {
        records
            .into_iter()
            .filter_map(|r| self.sanitize(r))
            .collect()
    }

    /// Anchor-relative time coordinate (ns) for a timestamp.
    fn rel(&self, ts: Nanos) -> i64 {
        let anchor = self.anchor.unwrap_or(Nanos::ZERO);
        i64::try_from(ts.0 as i128 - anchor.0 as i128).unwrap_or(i64::MAX)
    }

    /// Fold one record's NTP-style offset sample into its edge filter:
    /// the constant-offset EWMA always, and (in drift mode) the bounded
    /// sample ring behind the least-squares drift fit.
    fn observe_skew(&mut self, rec: &RpcRecord) {
        /// EWMA weight for new per-edge offset samples.
        const SKEW_ALPHA: f64 = 0.1;
        /// Bounded per-edge ring of `(time, θ̂)` samples the drift fit
        /// runs over. Memory is `O(DRIFT_WINDOW × edges)`; the window also
        /// sets how fast the fit forgets a past drift regime.
        const DRIFT_WINDOW: usize = 256;

        let fwd = rec.recv_req.0 as i128 - rec.send_req.0 as i128;
        let bwd = rec.recv_resp.0 as i128 - rec.send_resp.0 as i128;
        // Duration-scale difference of two one-way delays: far below
        // 2^53 ns for any record the causality check admitted.
        #[allow(clippy::cast_precision_loss)]
        let sample = (fwd - bwd) as f64 / 2.0;
        if !sample.is_finite() {
            return;
        }
        // Sample time coordinate: the caller-side midpoint of the RPC.
        // A constant skew on the caller's own clock shifts this
        // uniformly (absorbed by the fit's intercept); its drift
        // perturbs the coordinate only at second order (ppm of ppm).
        let mid = self.rel(Nanos((rec.send_req.0 / 2) + (rec.recv_resp.0 / 2)));
        let key = (rec.caller, rec.callee.service);
        let edge = self.edges.entry(key).or_insert_with(|| EdgeSkew {
            // First sample seeds the EWMA directly: a fresh edge must
            // not spend ~1/α samples converging on a constant offset.
            offset: sample,
            samples: 0,
            ring: VecDeque::new(),
            fit: None,
        });
        if edge.samples > 0 {
            edge.offset += SKEW_ALPHA * (sample - edge.offset);
        }
        edge.samples += 1;
        if self.cfg.drift_correction {
            self.metrics.drift_samples.inc();
            if let Some((a, b)) = edge.fit {
                let innovation = (sample - (a + b * rel_to_f64(mid))).abs();
                if innovation.is_finite() {
                    self.metrics
                        .drift_innovation_ns
                        .add(innovation.round() as u64);
                }
            }
            edge.ring.push_back((mid, sample));
            while edge.ring.len() > DRIFT_WINDOW {
                edge.ring.pop_front();
            }
        }
    }

    /// Resolve edge estimates into per-service clock models by BFS over
    /// the (undirected view of the) service graph, composing `(offset,
    /// drift)` additively along edges. `EXTERNAL` anchors the frame at
    /// `(0, 0)` when present; any disconnected component is anchored at
    /// its smallest service id. Deterministic: adjacency and visit order
    /// come from `BTreeMap` iteration. Edges are never removed, so a
    /// service, once resolved, stays in the resolution.
    fn resolve_offsets(&mut self) {
        let mut adjacency: BTreeMap<ServiceId, Vec<(ServiceId, f64, f64)>> = BTreeMap::new();
        for (&(caller, callee), edge) in self.edges.iter_mut() {
            let (offset, drift) = edge.solve(self.cfg.drift_correction);
            edge.fit = Some((offset, drift));
            // model[callee] = model[caller] + θ(caller→callee)
            adjacency
                .entry(caller)
                .or_default()
                .push((callee, offset, drift));
            adjacency
                .entry(callee)
                .or_default()
                .push((caller, -offset, -drift));
        }
        let mut models: BTreeMap<ServiceId, ClockModel> = BTreeMap::new();
        let anchors: Vec<ServiceId> = std::iter::once(EXTERNAL)
            .filter(|s| adjacency.contains_key(s))
            .chain(adjacency.keys().copied())
            .collect();
        for anchor in anchors {
            if models.contains_key(&anchor) {
                continue;
            }
            models.insert(anchor, ClockModel::default());
            let mut queue = VecDeque::from([anchor]);
            while let Some(svc) = queue.pop_front() {
                let base = models[&svc];
                for &(next, d_off, d_drift) in adjacency.get(&svc).into_iter().flatten() {
                    if let std::collections::btree_map::Entry::Vacant(slot) = models.entry(next) {
                        slot.insert(ClockModel {
                            offset: base.offset + d_off,
                            drift: base.drift + d_drift,
                        });
                        queue.push_back(next);
                    }
                }
            }
        }
        // Publish the resolved models as per-service gauges (registered
        // lazily the first time a service appears). The offset gauge
        // reports the instantaneous correction at the current watermark
        // (what a scrape "now" would observe); drift is exported in ppb.
        let now_rel = self.rel(self.watermark.max(self.anchor.unwrap_or(Nanos::ZERO)));
        for (&svc, model) in &models {
            let registry = &self.metrics.registry;
            let gauge = self.skew_gauges.entry(svc).or_insert_with(|| {
                registry.gauge_with(
                    "tw_sanitize_skew_offset_ns",
                    "Resolved per-service clock offset (ns) relative to the anchor frame.",
                    &[("service", &service_label(svc))],
                )
            });
            gauge.set(model.correction_at(now_rel));
            let drift_gauge = self.drift_gauges.entry(svc).or_insert_with(|| {
                registry.gauge_with(
                    "tw_sanitize_drift_ppb",
                    "Resolved per-service clock drift rate (parts per billion) relative to the anchor frame.",
                    &[("service", &service_label(svc))],
                )
            });
            drift_gauge.set(model.drift * 1e9);
        }
        self.offsets = models;
    }

    /// Shift a record's timestamps into the anchor frame, each corrected
    /// by its recording service's model evaluated *at that timestamp*
    /// (`offset + drift · (ts − anchor)`). Returns true if any side
    /// actually moved.
    fn correct(&self, rec: &mut RpcRecord) -> bool {
        /// Offsets smaller than this (ns) are noise and not applied — a
        /// clean stream must pass through bit-identical. 50µs is well
        /// above sim network jitter.
        const SKEW_MIN_NS: f64 = 50_000.0;
        let mut moved = false;
        let mut apply = |model: Option<&ClockModel>, ts: &mut Nanos| {
            let Some(model) = model else { return };
            let correction = model.correction_at(self.rel(*ts));
            if correction.abs() > SKEW_MIN_NS {
                *ts = unshift(*ts, correction);
                moved = true;
            }
        };
        let caller = self.offsets.get(&rec.caller);
        apply(caller, &mut rec.send_req);
        apply(caller, &mut rec.recv_resp);
        let callee = self.offsets.get(&rec.callee.service);
        apply(callee, &mut rec.recv_req);
        apply(callee, &mut rec.send_resp);
        moved
    }
}

/// Subtract an offset (ns, may be negative/fractional) from a timestamp,
/// clamping at zero.
fn unshift(ts: Nanos, offset_ns: f64) -> Nanos {
    let shifted = ts.0 as i128 - offset_ns.round() as i128;
    Nanos(shifted.clamp(0, u64::MAX as i128) as u64)
}

/// Serializable image of one edge's two-state clock filter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeSkewSnapshot {
    pub caller: u32,
    pub callee: u32,
    pub offset: f64,
    pub samples: u64,
    /// Drift ring as `(anchor-relative ns, θ̂)` pairs, oldest first
    /// (serialized as a `Vec`; the live filter holds a `VecDeque`).
    pub ring: Vec<(i64, f64)>,
    pub fit_offset: Option<f64>,
    pub fit_drift: Option<f64>,
}

/// Serializable image of one service's resolved clock model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceModelSnapshot {
    pub service: u32,
    pub offset: f64,
    pub drift: f64,
}

/// Serializable image of a [`Sanitizer`]'s estimators: the skew/drift
/// filters, resolved per-service clock models, anchor and resolve
/// cadence. Floats survive the JSON round trip exactly (shortest-round-trip
/// formatting), so a restored sanitizer corrects later records
/// bit-identically to one that never stopped. Dedup memory is not part of
/// it (dedup filters within one run; a restored router drops replays by
/// window, DESIGN.md §12; an older image's ring is ignored), nor is the
/// configuration: flags set it at restart, so retuning keeps checkpoints.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SanitizerSnapshot {
    /// Drift anchor (ns), if any record was seen.
    pub anchor: Option<u64>,
    /// Sanitizer watermark (ns): max corrected `recv_resp` seen.
    pub watermark: u64,
    pub records_since_resolve: u64,
    pub edges: Vec<EdgeSkewSnapshot>,
    pub services: Vec<ServiceModelSnapshot>,
}

impl Sanitizer {
    /// Snapshot the sanitizer's mutable state for checkpointing.
    pub fn snapshot(&self) -> SanitizerSnapshot {
        SanitizerSnapshot {
            anchor: self.anchor.map(|a| a.0),
            watermark: self.watermark.0,
            records_since_resolve: self.records_since_resolve,
            edges: self
                .edges
                .iter()
                .map(|(&(caller, callee), e)| EdgeSkewSnapshot {
                    caller: caller.0,
                    callee: callee.0,
                    offset: e.offset,
                    samples: e.samples,
                    ring: e.ring.iter().copied().collect(),
                    fit_offset: e.fit.map(|(o, _)| o),
                    fit_drift: e.fit.map(|(_, d)| d),
                })
                .collect(),
            services: self
                .offsets
                .iter()
                .map(|(&svc, m)| ServiceModelSnapshot {
                    service: svc.0,
                    offset: m.offset,
                    drift: m.drift,
                })
                .collect(),
        }
    }

    /// Restore a snapshot taken by [`snapshot`](Self::snapshot). The
    /// per-service gauges are re-registered lazily at the next resolve;
    /// cumulative `tw_sanitize_*` counters restart from zero (they are
    /// process-lifetime series, as Prometheus counters should be).
    pub fn restore(&mut self, snap: &SanitizerSnapshot) {
        self.anchor = snap.anchor.map(Nanos);
        self.watermark = Nanos(snap.watermark);
        self.records_since_resolve = snap.records_since_resolve;
        self.edges = snap
            .edges
            .iter()
            .map(|e| {
                (
                    (ServiceId(e.caller), ServiceId(e.callee)),
                    EdgeSkew {
                        offset: e.offset,
                        samples: e.samples,
                        ring: e.ring.iter().copied().collect(),
                        fit: match (e.fit_offset, e.fit_drift) {
                            (Some(o), Some(d)) => Some((o, d)),
                            _ => None,
                        },
                    },
                )
            })
            .collect();
        self.offsets = snap
            .services
            .iter()
            .map(|m| {
                (
                    ServiceId(m.service),
                    ClockModel {
                        offset: m.offset,
                        drift: m.drift,
                    },
                )
            })
            .collect();
    }
}

/// Shared slot a [`SanitizeStage`] periodically publishes its snapshot
/// into; the window shard reads the latest image when it writes the
/// checkpoint.
pub type SanitizerSnapshotSlot = Arc<parking_lot::Mutex<Option<SanitizerSnapshot>>>;

/// The sanitizer as a composable pipeline [`Stage`]: compose it between
/// the ingest source and the window router with
/// [`crate::PipelineBuilder::stage`] (or let [`crate::OnlineConfig::sanitize`]
/// wire it inside the engine). Records are sanitized in arrival order;
/// survivors are emitted downstream, rejects are dropped with their
/// per-reason counters bumped.
///
/// The stage's counters are ordinary registry series (no parallel
/// bookkeeping): [`crate::OnlineEngine::sanitize_stats`] reads the same
/// `tw_sanitize_*` counters a scrape endpoint would, and the handles
/// stay readable after the pipeline shuts down.
pub struct SanitizeStage {
    /// Restored from the checkpoint before the stage joins a pipeline.
    pub(crate) sanitizer: Sanitizer,
    /// Where the engine's checkpoint reads the latest snapshot, published
    /// every 256 records and at the flush.
    pub(crate) snapshot_slot: Option<SanitizerSnapshotSlot>,
    since_snapshot: u64,
    /// Self-tracing: recorder plus the engine window width, so the stage
    /// can attribute its work to the window each record will land in.
    trace: Option<(tw_telemetry::trace::SpanRecorder, u64)>,
    current_span: Option<(u64, tw_telemetry::trace::SpanGuard)>,
}

impl SanitizeStage {
    /// Stage with the `tw_sanitize_*` series in `registry`.
    pub fn new_in(cfg: SanitizeConfig, registry: &Registry) -> Self {
        SanitizeStage {
            sanitizer: Sanitizer::new_in(cfg, registry),
            snapshot_slot: None,
            since_snapshot: 0,
            trace: None,
            current_span: None,
        }
    }

    /// Record a `sanitize` span per prospective engine window (the window
    /// a record's `recv_resp` maps to under `window_ns`-wide windows).
    /// Because sanitize runs upstream of the router, this opens the
    /// window's span tree, so the tree covers the full online path.
    pub fn with_trace(
        mut self,
        recorder: tw_telemetry::trace::SpanRecorder,
        window_ns: u64,
    ) -> Self {
        self.trace = Some((recorder, window_ns.max(1)));
        self
    }

    fn trace_record(&mut self, rec: &RpcRecord) {
        let Some((recorder, window_ns)) = &self.trace else {
            return;
        };
        let index = crate::online::window_of(rec.recv_resp, *window_ns);
        if let Some((current, _)) = &self.current_span {
            if *current == index {
                return;
            }
            self.current_span = None;
        }
        if let Some(span) = recorder.span(index, "sanitize") {
            self.current_span = Some((index, span));
        }
    }

    fn maybe_publish(&mut self, force: bool) {
        /// Processed records between publications (publication cadence,
        /// not the checkpoint's write cadence).
        const SNAPSHOT_RECORDS: u64 = 256;
        let Some(slot) = &self.snapshot_slot else {
            return;
        };
        if force || self.since_snapshot >= SNAPSHOT_RECORDS {
            *slot.lock() = Some(self.sanitizer.snapshot());
            self.since_snapshot = 0;
        }
    }
}

impl crate::pipeline::Stage for SanitizeStage {
    type In = RpcRecord;
    type Out = RpcRecord;

    fn name(&self) -> &str {
        "sanitize"
    }

    fn process(
        &mut self,
        rec: RpcRecord,
        _ctx: &crate::pipeline::StageCtx,
        out: &mut crate::pipeline::Emitter<RpcRecord>,
    ) {
        self.trace_record(&rec);
        if let Some(clean) = self.sanitizer.sanitize(rec) {
            out.emit(clean);
        }
        self.since_snapshot += 1;
        self.maybe_publish(false);
    }

    fn flush(
        &mut self,
        _ctx: &crate::pipeline::StageCtx,
        _out: &mut crate::pipeline::Emitter<RpcRecord>,
    ) {
        self.current_span = None;
        self.maybe_publish(true);
    }
}

#[cfg(test)]
// Test constants are small (µs–ms scale); the module-level deny is aimed
// at epoch-scale production math.
#[allow(clippy::cast_precision_loss)]
mod tests {
    use super::*;
    use tw_model::ids::{Endpoint, OperationId};

    fn rec(rpc: u64, at_us: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(0), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos::from_micros(at_us),
            recv_req: Nanos::from_micros(at_us + 10),
            send_resp: Nanos::from_micros(at_us + 100),
            recv_resp: Nanos::from_micros(at_us + 110),
            caller_thread: None,
            callee_thread: None,
        }
    }

    #[test]
    fn clean_stream_passes_bit_identical() {
        let mut s = Sanitizer::new(SanitizeConfig::default());
        let input: Vec<RpcRecord> = (0..100).map(|i| rec(i, i * 500)).collect();
        let out = s.sanitize_batch(input.clone());
        assert_eq!(out, input);
        let stats = s.stats();
        assert_eq!(stats.received, 100);
        assert_eq!(stats.passed, 100);
        assert_eq!(stats.rejected(), 0);
        assert_eq!(stats.skew_corrected, 0, "no skew invented on clean input");
    }

    #[test]
    fn duplicates_rejected_within_bounded_memory() {
        let mut s = Sanitizer::new(SanitizeConfig::default());
        assert!(s.sanitize(rec(0, 0)).is_some());
        assert!(s.sanitize(rec(0, 0)).is_none(), "immediate dup rejected");
        // Capacity more distinct ids push id 0 out of the ring: a very
        // late duplicate passes — the price of bounded memory.
        for id in 1..=DEDUP_CAPACITY as u64 {
            assert!(s.sanitize(rec(id, id)).is_some());
        }
        assert!(s.sanitize(rec(0, 0)).is_some());
        assert_eq!(s.stats().duplicates, 1);
        assert_eq!(s.ring.len(), DEDUP_CAPACITY);
        assert_eq!(s.seen.len(), DEDUP_CAPACITY);
    }

    #[test]
    fn truncated_and_non_causal_rejected() {
        let mut s = Sanitizer::new(SanitizeConfig::default());
        let mut truncated = rec(1, 100);
        truncated.send_resp = Nanos::ZERO;
        truncated.recv_resp = Nanos::ZERO;
        assert!(s.sanitize(truncated).is_none());
        assert_eq!(s.stats().truncated, 1);

        // Callee-side negative duration: response sent before request
        // received, on the callee's own clock.
        let mut corrupt = rec(2, 100);
        corrupt.send_resp = corrupt.recv_req - Nanos(1_000);
        assert!(s.sanitize(corrupt).is_none());
        assert_eq!(s.stats().non_causal, 1);

        // Caller-side negative duration.
        let mut corrupt = rec(3, 100);
        corrupt.recv_resp = corrupt.send_req - Nanos(1_000);
        assert!(s.sanitize(corrupt).is_none());
        assert_eq!(s.stats().non_causal, 2);
    }

    /// The constant-offset (EWMA) estimate (ns, callee minus caller) of
    /// one service edge, as the sanitizer's snapshot holds it.
    fn skew_estimate(s: &Sanitizer, caller: ServiceId, callee: ServiceId) -> Option<f64> {
        let edges = s.snapshot().edges;
        let edge = edges
            .iter()
            .find(|e| (e.caller, e.callee) == (caller.0, callee.0));
        edge.map(|e| e.offset)
    }

    #[test]
    fn skew_estimated_and_corrected_per_edge() {
        let mut s = Sanitizer::new(SanitizeConfig::default());
        let skew = 5_000_000i64; // callee clock 5ms fast
        let clean: Vec<RpcRecord> = (0..200).map(|i| rec(i, 1_000 + i * 500)).collect();
        let skewed: Vec<RpcRecord> = clean
            .iter()
            .map(|r| {
                let mut r = *r;
                r.recv_req = Nanos(r.recv_req.0 + skew as u64);
                r.send_resp = Nanos(r.send_resp.0 + skew as u64);
                r
            })
            .collect();
        let out = s.sanitize_batch(skewed);
        assert_eq!(out.len(), 200, "skewed records are repaired, not dropped");
        let est = skew_estimate(&s, EXTERNAL, ServiceId(0)).unwrap();
        assert!(
            (est - skew as f64).abs() < 1_000.0,
            "estimate {est} vs true {skew}"
        );
        assert!(s.stats().skew_corrected > 150);
        // After convergence, corrected timestamps land within 1µs of the
        // true (unskewed) values.
        let last_out = out.last().unwrap();
        let last_clean = clean.last().unwrap();
        let err = (last_out.recv_req.0 as i64 - last_clean.recv_req.0 as i64).abs();
        assert!(err < 1_000, "residual skew {err}ns");
        // Caller-side (EXTERNAL anchor) timestamps untouched.
        assert_eq!(last_out.send_req, last_clean.send_req);
    }

    #[test]
    fn skew_chain_keeps_process_views_consistent() {
        // EXTERNAL → A → B with B's clock 2ms fast: A's offset resolves
        // to ~0, B's to ~2ms, so A's incoming span and A's outgoing span
        // (the A→B record's caller side) stay in one frame.
        let mut s = Sanitizer::new(SanitizeConfig::default());
        let skew = 2_000_000u64;
        let a = ServiceId(0);
        let b = ServiceId(1);
        for i in 0..100u64 {
            let base = 1_000_000 + i * 1_000_000;
            let root = RpcRecord {
                rpc: RpcId(i * 2),
                caller: EXTERNAL,
                caller_replica: 0,
                callee: Endpoint::new(a, OperationId(0)),
                callee_replica: 0,
                send_req: Nanos(base),
                recv_req: Nanos(base + 10_000),
                send_resp: Nanos(base + 400_000),
                recv_resp: Nanos(base + 410_000),
                caller_thread: None,
                callee_thread: None,
            };
            // A→B child, with B's stamps (recv_req/send_resp) skewed.
            let child = RpcRecord {
                rpc: RpcId(i * 2 + 1),
                caller: a,
                caller_replica: 0,
                callee: Endpoint::new(b, OperationId(0)),
                callee_replica: 0,
                send_req: Nanos(base + 50_000),
                recv_req: Nanos(base + 60_000 + skew),
                send_resp: Nanos(base + 200_000 + skew),
                recv_resp: Nanos(base + 210_000),
                caller_thread: None,
                callee_thread: None,
            };
            s.sanitize(root);
            if let Some(clean) = s.sanitize(child) {
                if i > 50 {
                    // Child's callee side pulled back into A's frame:
                    // nesting inside A's span [recv_req, send_resp] holds.
                    assert!(clean.recv_req.0 >= base + 10_000);
                    assert!(clean.send_resp.0 <= base + 400_000);
                    let err = (clean.recv_req.0 as i64 - (base + 60_000) as i64).abs();
                    assert!(err < 10_000, "B offset not resolved: {err}ns");
                }
            }
        }
        let est = skew_estimate(&s, a, b).unwrap();
        assert!((est - skew as f64).abs() < 5_000.0, "edge estimate {est}");
        // A↔EXTERNAL edge shows no spurious skew.
        let est_a = skew_estimate(&s, EXTERNAL, a).unwrap();
        assert!(est_a.abs() < 5_000.0, "phantom skew on clean edge: {est_a}");
    }

    #[test]
    fn first_sample_seeds_edge_offset_directly() {
        // Regression: the first sample on a fresh edge must seed the
        // EWMA at full weight, not be damped by α (which would leave the
        // estimate at α·θ̂ and need ~1/α samples to converge).
        let mut s = Sanitizer::new(SanitizeConfig::default());
        let skew = 3_000_000u64; // callee 3ms fast
        let mut r = rec(1, 1_000);
        r.recv_req = Nanos(r.recv_req.0 + skew);
        r.send_resp = Nanos(r.send_resp.0 + skew);
        s.sanitize(r);
        let est = skew_estimate(&s, EXTERNAL, ServiceId(0)).unwrap();
        assert!(
            (est - skew as f64).abs() < 1.0,
            "one sample must fully seed the estimate: {est} vs {skew}"
        );
    }

    /// Records on EXTERNAL→service-0 whose callee clock runs `drift_ppm`
    /// fast, accumulating from `t0_us`, on top of a constant `base_ns`
    /// offset. Spacing is 10ms so drift accumulates meaningfully.
    fn drifting_stream(
        n: u64,
        t0_us: u64,
        base_ns: u64,
        drift_ppm: f64,
    ) -> (Vec<RpcRecord>, Vec<RpcRecord>) {
        let clean: Vec<RpcRecord> = (0..n).map(|i| rec(i, t0_us + i * 10_000)).collect();
        let skewed = clean
            .iter()
            .map(|r| {
                let shift = |ts: Nanos| {
                    let rel = (ts.0 - t0_us * 1_000) as f64;
                    Nanos(ts.0 + base_ns + (rel * drift_ppm * 1e-6).round() as u64)
                };
                let mut r = *r;
                r.recv_req = shift(r.recv_req);
                r.send_resp = shift(r.send_resp);
                r
            })
            .collect();
        (clean, skewed)
    }

    /// Residual error (ns) between a sanitized record's callee-side
    /// timestamp and its clean counterpart.
    fn residual(out: &RpcRecord, clean: &RpcRecord) -> i64 {
        (out.recv_req.0 as i64 - clean.recv_req.0 as i64).abs()
    }

    #[test]
    fn drift_filter_tracks_ramping_offset() {
        // 200 ppm drift over a 6s stream walks the offset by 1.2ms; the
        // constant EWMA trails the ramp by its lag plus up to a full
        // resolve interval of staleness, while the two-state filter
        // extrapolates through both.
        let (clean, skewed) = drifting_stream(600, 1_000, 5_000_000, 200.0);
        let mut drift_on = Sanitizer::new(SanitizeConfig::default());
        let out_on = drift_on.sanitize_batch(skewed.clone());
        let mut drift_off = Sanitizer::new(SanitizeConfig {
            drift_correction: false,
        });
        let out_off = drift_off.sanitize_batch(skewed);
        assert_eq!(out_on.len(), 600);
        assert_eq!(out_off.len(), 600);
        // Judge on the tail, after both filters have converged.
        let tail_err = |out: &[RpcRecord]| {
            out.iter()
                .zip(&clean)
                .skip(500)
                .map(|(o, c)| residual(o, c))
                .max()
                .unwrap()
        };
        let err_on = tail_err(&out_on);
        let err_off = tail_err(&out_off);
        assert!(err_on < 20_000, "drift-aware residual {err_on}ns");
        assert!(
            err_off > err_on * 2,
            "constant-offset mode should trail the ramp: on={err_on}ns off={err_off}ns"
        );
        let edge = &drift_on.edges[&(EXTERNAL, ServiceId(0))];
        let (_, slope) = edge.fit.unwrap();
        assert!(
            (slope * 1e6 - 200.0).abs() < 40.0,
            "fitted drift {} ppm vs true 200 ppm",
            slope * 1e6
        );
        let stats = drift_on.stats();
        assert!(stats.drift_samples >= 600);
        assert!(stats.drift_innovation_ns > 0);
    }

    #[test]
    fn stage_filters_inside_a_pipeline() {
        use crate::pipeline::PipelineBuilder;
        let registry = Registry::new();
        let stage = SanitizeStage::new_in(SanitizeConfig::default(), &registry);
        let metrics = stage.sanitizer.metrics.clone();
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&registry, 1024);
        let pipeline = builder.stage(stage, 1024).build();
        for i in 0..10 {
            tx.send(rec(i, i * 500)).unwrap();
        }
        tx.send(rec(3, 1_500)).unwrap(); // duplicate
        let mut truncated = rec(100, 20_000);
        truncated.recv_resp = Nanos::ZERO;
        truncated.send_resp = Nanos::ZERO;
        tx.send(truncated).unwrap();
        drop(tx);
        let forwarded = pipeline.shutdown().expect_clean();
        let stats = metrics.snapshot();
        assert_eq!(forwarded.len(), 10);
        assert_eq!(stats.received, 12);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.truncated, 1);
        let text = registry.render();
        assert!(text.contains("tw_pipeline_items_total{stage=\"sanitize\"} 12"));
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        // Feed a skewed + drifting stream, snapshot mid-way, and check a
        // restored sanitizer corrects the remainder bit-identically to
        // the uninterrupted one.
        let cfg = SanitizeConfig::default();
        let (_, skewed) = drifting_stream(400, 1_000, 3_000_000, 150.0);
        let (head, tail) = skewed.split_at(200);

        let mut continuous = Sanitizer::new(cfg.clone());
        let out_continuous = continuous.sanitize_batch(skewed.clone());

        let mut first = Sanitizer::new(cfg.clone());
        let mut out = first.sanitize_batch(head.to_vec());
        let snap = first.snapshot();
        // Through the JSON wire format, as the checkpoint file would.
        let json = serde_json::to_string(&snap).unwrap();
        let snap: SanitizerSnapshot = serde_json::from_str(&json).unwrap();
        let mut second = Sanitizer::new(cfg);
        second.restore(&snap);
        out.extend(second.sanitize_batch(tail.to_vec()));

        assert_eq!(out.len(), out_continuous.len());
        assert_eq!(out, out_continuous);
        // Dedup filters within one run: a head-era record is not the
        // restored sanitizer's duplicate, the router drops it by window.
        assert!(second.sanitize(skewed[10]).is_some());
        assert_eq!(second.stats().duplicates, 0);
    }
}
