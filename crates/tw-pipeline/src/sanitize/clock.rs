//! Clock-skew estimation and correction, the sanitizer's fourth step.
//!
//! Per caller→callee service edge, an NTP-style offset estimate
//! `θ̂ = ((recv_req − send_req) − (recv_resp − send_resp)) / 2`
//! (callee clock minus caller clock, unbiased under symmetric network
//! delay) is tracked with a two-state filter: a constant-offset EWMA
//! plus a windowed least-squares fit of *drift* (offset slope, ppm
//! scale) over a bounded ring of `(time, θ̂)` samples. Edge estimates
//! are resolved into per-service clock models by BFS over the service
//! graph anchored at `EXTERNAL` (offset 0, drift 0), and every
//! timestamp is corrected as `ts − (offset + drift · (ts − anchor))`
//! in that common frame — so long-running streams whose clocks walk
//! at ppm rates stay corrected instead of trailing the EWMA's lag.
//! Resolving per *service* (not per edge) is what keeps each
//! process's incoming and outgoing spans mutually consistent —
//! correcting each record against only its own edge would tear a
//! process's two span sides into different clock frames. An edge
//! stays in the resolution once seen (the service graph bounds how
//! many there are), holding its last estimate while it is idle.

use super::Sanitizer;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use tw_model::ids::ServiceId;
use tw_model::span::{RpcRecord, EXTERNAL};
use tw_model::time::Nanos;

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
pub(super) struct EdgeSkew {
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
pub(super) struct ClockModel {
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

impl Sanitizer {
    /// Anchor-relative time coordinate (ns) for a timestamp.
    fn rel(&self, ts: Nanos) -> i64 {
        let anchor = self.anchor.unwrap_or(Nanos::ZERO);
        i64::try_from(ts.0 as i128 - anchor.0 as i128).unwrap_or(i64::MAX)
    }

    /// Fold one record's NTP-style offset sample into its edge filter:
    /// the constant-offset EWMA always, and (in drift mode) the bounded
    /// sample ring behind the least-squares drift fit.
    pub(super) fn observe_skew(&mut self, rec: &RpcRecord) {
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
    pub(super) fn resolve_offsets(&mut self) {
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
    pub(super) fn correct(&self, rec: &mut RpcRecord) -> bool {
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
                        fit: e.fit_offset.zip(e.fit_drift),
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

#[cfg(test)]
// Test constants are small (µs–ms scale); the module-level deny is aimed
// at epoch-scale production math.
#[allow(clippy::cast_precision_loss)]
mod tests {
    use super::super::tests::rec;
    use super::super::SanitizeConfig;
    use super::*;
    use tw_model::ids::{Endpoint, OperationId, RpcId};

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
