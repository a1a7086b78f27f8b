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
//! 4. **clock-skew estimation/correction** — per-edge offset and drift
//!    filters resolved into one clock model per service (`clock`, which
//!    also snapshots them for the checkpoint).
//!
//! `stage` wraps the sanitizer as the engine's supervised
//! [`SanitizeStage`]. A late record is not the sanitizer's business: the
//! window router folds it into the first window still open at its arrival.
//!
//! Every rejection increments a per-reason counter in [`SanitizeStats`]
//! (a view over the `tw_sanitize_*` series). The stage is
//! strictly sequential and allocation-light, so it is deterministic for
//! a given input order — the property the pipeline's cross-thread
//! determinism tests rely on.

// Timestamp module: epoch-scale nanosecond values (> 2^53 ns) lose up to
// ~256 ns when cast to f64 — the same order as the skew being corrected.
// Floats may only touch small anchor-relative or duration-scale values;
// every exception in `sanitize/` carries a justifying `#[allow]`.
#![deny(clippy::cast_precision_loss)]

mod clock;
mod stage;

pub use clock::{EdgeSkewSnapshot, SanitizerSnapshot, ServiceModelSnapshot};
pub use stage::{SanitizeStage, SanitizerSnapshotSlot};

use clock::{ClockModel, EdgeSkew};
use std::collections::{BTreeMap, HashSet, VecDeque};
use tw_model::ids::{RpcId, ServiceId};
use tw_model::span::RpcRecord;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::ids::{Endpoint, OperationId};
    use tw_model::span::EXTERNAL;

    /// A clean EXTERNAL → service-0 record starting at `at_us`.
    pub(super) fn rec(rpc: u64, at_us: u64) -> RpcRecord {
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
}
