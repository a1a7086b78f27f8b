//! Telemetry fault injection: perturb an [`RpcRecord`] stream the way a
//! real eBPF/sidecar capture layer does.
//!
//! The reconstruction pipeline assumes complete, clock-consistent span
//! streams; production capture violates every part of that assumption —
//! agents drop records under load (often in bursts when one host's ring
//! buffer overflows), retransmit duplicates, deliver late beyond the
//! windower's grace period, observe skewed clocks, and emit truncated
//! records when a response is never seen. Capture noise belongs here too:
//! hook latency and clock granularity jitter every timestamp. This is the
//! one model of capture imperfection. A [`FaultPlan`] composes any
//! subset of these perturbations deterministically from a seed, so
//! robustness experiments are reproducible and the sanitizer/degradation
//! ladder can be tested against a known fault mix.
//!
//! The plan operates on *arrival order*: records are first ordered by the
//! time the capture layer could have emitted them (`recv_resp`, when the
//! caller-side observation completes), faults are applied in one seeded
//! pass, and the perturbed stream is re-sorted by its (possibly delayed)
//! arrival times. Identical plan + seed ⇒ byte-identical output.

// Timestamp module: epoch-scale nanosecond values (> 2^53 ns) lose up to
// ~256 ns when cast to f64, which silently corrupts injected drift. All
// timestamp math here stays in integer arithmetic; floats may only touch
// small stream-relative quantities.
#![deny(clippy::cast_precision_loss)]

use rand::{Rng, SeedableRng, StdRng};
use tw_model::ids::ServiceId;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;

/// One kind of telemetry perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Drop each record independently with probability `rate`.
    Drop { rate: f64 },
    /// Bursty loss at one service's capture agent: records served by
    /// `service` are dropped in runs of `burst_len`, entered with
    /// probability `rate / burst_len` so the long-run loss fraction for
    /// that service is ≈ `rate`.
    BurstDrop {
        service: ServiceId,
        rate: f64,
        burst_len: usize,
    },
    /// Emit each record twice with probability `rate`; the duplicate
    /// arrives up to `max_lag` later (not necessarily adjacent).
    Duplicate { rate: f64, max_lag: Nanos },
    /// Delay each record's *arrival* (not its timestamps) by up to
    /// `max_delay` with probability `rate` — models reordering and
    /// late delivery beyond the windower's grace period.
    Reorder { rate: f64, max_delay: Nanos },
    /// Clock skew at `service`'s host: every timestamp recorded by that
    /// host is shifted by `offset_ns` plus a drift of `drift_ppm`
    /// microseconds per second of stream time (parts-per-million),
    /// accumulated from the stream's earliest timestamp — the instant
    /// the two clocks were last in the stated `offset_ns` relation.
    ClockSkew {
        service: ServiceId,
        offset_ns: i64,
        drift_ppm: f64,
    },
    /// With probability `rate`, the response is never observed: both
    /// response timestamps are zeroed, leaving a request-only record.
    Truncate { rate: f64 },
    /// Capture noise: every timestamp moves by a uniform integer draw in
    /// `[-max_ns, max_ns]`, then is clamped to its predecessor (and to
    /// zero), so a well-formed record stays well-formed. It is applied
    /// before clock skew, so it never clamps an injected skew away.
    Jitter { max_ns: u64 },
}

/// Per-kind counts of injected faults, returned by [`FaultPlan::apply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    pub input: usize,
    pub emitted: usize,
    pub dropped: usize,
    pub burst_dropped: usize,
    pub duplicated: usize,
    pub reordered: usize,
    pub skewed: usize,
    /// Records whose timestamps jitter moved. Capture noise loses nothing
    /// the sanitizer must repair, so [`FaultLog::total_faulted`] leaves it
    /// out.
    pub jittered: usize,
    pub truncated: usize,
}

impl FaultLog {
    /// Total records affected by any fault.
    pub fn total_faulted(&self) -> usize {
        self.dropped
            + self.burst_dropped
            + self.duplicated
            + self.reordered
            + self.skewed
            + self.truncated
    }
}

/// A composable, seeded sequence of faults applied to a record stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder: append one fault to the plan.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Apply the plan, returning the perturbed stream in arrival order
    /// plus per-kind fault counts.
    pub fn apply(&self, records: &[RpcRecord]) -> (Vec<RpcRecord>, FaultLog) {
        let mut log = FaultLog {
            input: records.len(),
            ..FaultLog::default()
        };
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Arrival order: when the caller-side observation completes.
        let mut ordered = records.to_vec();
        ordered.sort_by_key(|r| (r.recv_resp, r.rpc));

        // Stream-local drift anchor: drift accumulates from the earliest
        // timestamp in the stream, not from the epoch, so the integer
        // drift math below operates on small relative values.
        let anchor = records
            .iter()
            .map(|r| r.send_req.min(r.recv_req))
            .min()
            .unwrap_or(Nanos::ZERO);

        // Remaining burst length per bursty service.
        let mut burst_left: Vec<(ServiceId, usize)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::BurstDrop { service, .. } => Some((*service, 0usize)),
                _ => None,
            })
            .collect();

        // (arrival, tie-break, record); tie-break keeps duplicates after
        // their original at equal arrival times.
        let mut out: Vec<(Nanos, u64, RpcRecord)> = Vec::with_capacity(ordered.len());

        'rec: for rec in ordered {
            let arrival = rec.recv_resp;
            let mut rec = rec;

            // Phase 1: capture noise (timestamp rewrite, record survives).
            // It runs before skew: its clamp would undo a non-causal skew.
            for fault in &self.faults {
                if let Fault::Jitter { max_ns } = *fault {
                    let max = i64::try_from(max_ns).unwrap_or(i64::MAX);
                    let before = rec;
                    let mut floor = Nanos::ZERO;
                    for ts in [
                        &mut rec.send_req,
                        &mut rec.recv_req,
                        &mut rec.send_resp,
                        &mut rec.recv_resp,
                    ] {
                        let d = i128::from(rng.gen_range(-max..=max));
                        let moved = (i128::from(ts.0) + d).clamp(0, i128::from(u64::MAX));
                        *ts = Nanos(moved as u64).max(floor);
                        floor = *ts;
                    }
                    if rec != before {
                        log.jittered += 1;
                    }
                }
            }

            // Phase 2: clock skew (timestamp rewrite, record survives).
            let mut skewed = false;
            for fault in &self.faults {
                if let Fault::ClockSkew {
                    service,
                    offset_ns,
                    drift_ppm,
                } = fault
                {
                    if rec.callee.service == *service {
                        rec.recv_req = shift(rec.recv_req, anchor, *offset_ns, *drift_ppm);
                        rec.send_resp = shift(rec.send_resp, anchor, *offset_ns, *drift_ppm);
                        skewed = true;
                    }
                    if rec.caller == *service {
                        rec.send_req = shift(rec.send_req, anchor, *offset_ns, *drift_ppm);
                        rec.recv_resp = shift(rec.recv_resp, anchor, *offset_ns, *drift_ppm);
                        skewed = true;
                    }
                }
            }
            if skewed {
                log.skewed += 1;
            }

            // Phase 3: loss (bursty first — a dead agent sees nothing).
            for fault in &self.faults {
                if let Fault::BurstDrop {
                    service,
                    rate,
                    burst_len,
                } = fault
                {
                    if rec.callee.service != *service {
                        continue;
                    }
                    let slot = burst_left
                        .iter_mut()
                        .find(|(s, _)| s == service)
                        .expect("burst state registered for every BurstDrop fault");
                    if slot.1 > 0 {
                        slot.1 -= 1;
                        log.burst_dropped += 1;
                        continue 'rec;
                    }
                    let len = u32::try_from((*burst_len).max(1)).unwrap_or(u32::MAX);
                    let enter = *rate / f64::from(len);
                    if rng.gen_bool(enter.min(1.0)) {
                        slot.1 = burst_len.saturating_sub(1);
                        log.burst_dropped += 1;
                        continue 'rec;
                    }
                }
            }
            for fault in &self.faults {
                if let Fault::Drop { rate } = fault {
                    if rng.gen_bool(*rate) {
                        log.dropped += 1;
                        continue 'rec;
                    }
                }
            }

            // Phase 4: truncation (record survives without a response).
            for fault in &self.faults {
                if let Fault::Truncate { rate } = fault {
                    if rng.gen_bool(*rate) {
                        rec.send_resp = Nanos::ZERO;
                        rec.recv_resp = Nanos::ZERO;
                        log.truncated += 1;
                        break;
                    }
                }
            }

            // Phase 5: duplication (copy arrives up to max_lag later).
            for fault in &self.faults {
                if let Fault::Duplicate { rate, max_lag } = fault {
                    if rng.gen_bool(*rate) {
                        let lag = Nanos(rng.gen_range(1..=max_lag.0.max(1)));
                        out.push((arrival + lag, 1, rec));
                        log.duplicated += 1;
                    }
                }
            }

            // Phase 6: reorder / late arrival of the original.
            let mut final_arrival = arrival;
            for fault in &self.faults {
                if let Fault::Reorder { rate, max_delay } = fault {
                    if rng.gen_bool(*rate) {
                        final_arrival += Nanos(rng.gen_range(1..=max_delay.0.max(1)));
                        log.reordered += 1;
                    }
                }
            }
            out.push((final_arrival, 0, rec));
        }

        out.sort_by_key(|(arrival, dup, rec)| (*arrival, rec.rpc, *dup));
        log.emitted = out.len();
        (out.into_iter().map(|(_, _, rec)| rec).collect(), log)
    }
}

/// Shift a timestamp by a constant offset plus drift accumulated since
/// `anchor`, clamping at zero (clocks can run behind only so far).
///
/// Drift is computed in `i128` on the anchor-relative value: casting an
/// epoch-scale `ts.0` (> 2^53 ns) through f64 rounds to ~256 ns
/// granularity, which is the same order as the drift being injected. The
/// ppm rate is held as integer parts-per-billion (0.001 ppm resolution),
/// so the timestamp math itself never leaves integer arithmetic.
fn shift(ts: Nanos, anchor: Nanos, offset_ns: i64, drift_ppm: f64) -> Nanos {
    let drift_ppb = (drift_ppm * 1_000.0).round() as i128;
    let rel = ts.0 as i128 - anchor.0 as i128;
    let drift_ns = rel * drift_ppb / 1_000_000_000;
    let shifted = ts.0 as i128 + offset_ns as i128 + drift_ns;
    Nanos(shifted.clamp(0, u64::MAX as i128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::ids::{Endpoint, OperationId, RpcId};
    use tw_model::span::EXTERNAL;

    fn rec(rpc: u64, svc: u32, at_us: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(svc), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos::from_micros(at_us),
            recv_req: Nanos::from_micros(at_us + 10),
            send_resp: Nanos::from_micros(at_us + 100),
            recv_resp: Nanos::from_micros(at_us + 110),
            caller_thread: None,
            callee_thread: None,
        }
    }

    fn stream(n: u64) -> Vec<RpcRecord> {
        (0..n).map(|i| rec(i, (i % 3) as u32, i * 500)).collect()
    }

    #[test]
    fn empty_plan_is_identity_in_arrival_order() {
        let input = stream(50);
        let (out, log) = FaultPlan::new(7).apply(&input);
        assert_eq!(out.len(), 50);
        assert_eq!(log.total_faulted(), 0);
        assert!(out.windows(2).all(|w| w[0].recv_resp <= w[1].recv_resp));
    }

    #[test]
    fn deterministic_for_a_seed() {
        let input = stream(200);
        let plan = FaultPlan::new(42)
            .with(Fault::Drop { rate: 0.1 })
            .with(Fault::Duplicate {
                rate: 0.1,
                max_lag: Nanos::from_millis(1),
            })
            .with(Fault::Reorder {
                rate: 0.1,
                max_delay: Nanos::from_millis(2),
            });
        let (a, la) = plan.apply(&input);
        let (b, lb) = plan.apply(&input);
        assert_eq!(a, b);
        assert_eq!(la, lb);

        let (c, _) = FaultPlan::new(43)
            .with(Fault::Drop { rate: 0.1 })
            .apply(&input);
        let (d, _) = FaultPlan::new(42)
            .with(Fault::Drop { rate: 0.1 })
            .apply(&input);
        assert_ne!(c, d, "different seeds perturb differently");
    }

    #[test]
    fn jitter_moves_timestamps_and_keeps_causality() {
        let input = stream(100);
        let (out, log) = FaultPlan::new(3)
            .with(Fault::Jitter { max_ns: 400 })
            .apply(&input);
        let mut out = out;
        out.sort_by_key(|r| r.rpc);
        assert!(out.iter().all(RpcRecord::is_well_formed));
        let moved = out.iter().zip(&input).filter(|(a, b)| a != b).count();
        assert!(moved > 50, "moved {moved}");
        assert_eq!(log.jittered, moved);
    }

    #[test]
    fn uniform_drop_rate_is_plausible() {
        let input = stream(2000);
        let (out, log) = FaultPlan::new(1)
            .with(Fault::Drop { rate: 0.2 })
            .apply(&input);
        assert_eq!(out.len() + log.dropped, 2000);
        assert!(
            (250..=550).contains(&log.dropped),
            "20% of 2000 ± slack, got {}",
            log.dropped
        );
    }

    #[test]
    fn burst_drop_hits_only_the_target_service_in_runs() {
        let input = stream(3000);
        let target = ServiceId(1);
        let (out, log) = FaultPlan::new(3)
            .with(Fault::BurstDrop {
                service: target,
                rate: 0.3,
                burst_len: 10,
            })
            .apply(&input);
        assert!(log.burst_dropped > 0);
        let before = input.iter().filter(|r| r.callee.service == target).count();
        let after = out.iter().filter(|r| r.callee.service == target).count();
        assert_eq!(before - after, log.burst_dropped);
        let others_before = input.len() - before;
        let others_after = out.len() - after;
        assert_eq!(others_before, others_after, "other services untouched");
    }

    #[test]
    fn duplicates_share_ids_and_arrive_later() {
        let input = stream(500);
        let (out, log) = FaultPlan::new(9)
            .with(Fault::Duplicate {
                rate: 0.2,
                max_lag: Nanos::from_millis(5),
            })
            .apply(&input);
        assert_eq!(out.len(), 500 + log.duplicated);
        assert!(log.duplicated > 50);
        let mut seen = std::collections::HashMap::new();
        for r in &out {
            *seen.entry(r.rpc).or_insert(0usize) += 1;
        }
        let dups = seen.values().filter(|&&c| c > 1).count();
        assert_eq!(dups, log.duplicated);
    }

    #[test]
    fn reorder_breaks_arrival_monotonicity_but_keeps_timestamps() {
        let input = stream(500);
        let (out, log) = FaultPlan::new(11)
            .with(Fault::Reorder {
                rate: 0.3,
                max_delay: Nanos::from_millis(10),
            })
            .apply(&input);
        assert_eq!(out.len(), 500);
        assert!(log.reordered > 50);
        // Timestamps untouched: same multiset of records.
        let mut a = input.clone();
        let mut b = out.clone();
        a.sort_by_key(|r| r.rpc);
        b.sort_by_key(|r| r.rpc);
        assert_eq!(a, b);
        // But recv_resp order is no longer monotone.
        assert!(out.windows(2).any(|w| w[0].recv_resp > w[1].recv_resp));
    }

    #[test]
    fn clock_skew_shifts_only_the_skewed_host_side() {
        let input = vec![rec(0, 1, 1_000_000)];
        let (out, log) = FaultPlan::new(5)
            .with(Fault::ClockSkew {
                service: ServiceId(1),
                offset_ns: 2_000_000,
                drift_ppm: 0.0,
            })
            .apply(&input);
        assert_eq!(log.skewed, 1);
        // Callee-side timestamps shifted; caller-side (EXTERNAL) untouched.
        assert_eq!(out[0].send_req, input[0].send_req);
        assert_eq!(out[0].recv_resp, input[0].recv_resp);
        assert_eq!(out[0].recv_req, input[0].recv_req + Nanos(2_000_000));
        assert_eq!(out[0].send_resp, input[0].send_resp + Nanos(2_000_000));
    }

    #[test]
    fn drift_grows_with_time() {
        let early = shift(Nanos::from_secs(1), Nanos::ZERO, 0, 100.0);
        let late = shift(Nanos::from_secs(100), Nanos::ZERO, 0, 100.0);
        let early_err = early.0 - Nanos::from_secs(1).0;
        let late_err = late.0 - Nanos::from_secs(100).0;
        assert!(late_err > early_err * 50, "{late_err} vs {early_err}");
        // 100 ppm over exactly 1s is exactly 100_000 ns — integer drift
        // math has no rounding slack to hide in.
        assert_eq!(early_err, 100_000);
        // Negative offset clamps at zero instead of wrapping.
        assert_eq!(shift(Nanos(5), Nanos::ZERO, -1_000, 0.0), Nanos::ZERO);
    }

    #[test]
    fn epoch_scale_drift_is_not_quantized() {
        // Epoch-scale base (~2^60 ns): the old `ts.0 as f64` path rounded
        // the drift to ~256 ns steps. With a stream-local anchor the
        // injected drift must be exact regardless of absolute magnitude.
        let base = Nanos(1 << 60);
        for dt_ns in [1_000u64, 12_345_678, 1_000_000_000] {
            let ts = Nanos(base.0 + dt_ns);
            let shifted = shift(ts, base, 0, 100.0);
            let expected = dt_ns as i128 * 100_000 / 1_000_000_000;
            assert_eq!(
                shifted.0 as i128 - ts.0 as i128,
                expected,
                "drift at +{dt_ns}ns from an epoch-scale anchor"
            );
        }
        // Per-record granularity: two records 1ms apart must see drift
        // differing by exactly 100 ns at 100 ppm, even at epoch scale.
        let a = shift(Nanos(base.0 + 1_000_000), base, 0, 100.0);
        let b = shift(Nanos(base.0 + 2_000_000), base, 0, 100.0);
        assert_eq!(b.0 - a.0, 1_000_000 + 100);
    }

    #[test]
    fn truncate_zeroes_responses() {
        let input = stream(400);
        let (out, log) = FaultPlan::new(13)
            .with(Fault::Truncate { rate: 0.25 })
            .apply(&input);
        assert_eq!(out.len(), 400);
        let truncated = out
            .iter()
            .filter(|r| r.send_resp == Nanos::ZERO && r.recv_resp == Nanos::ZERO)
            .count();
        assert_eq!(truncated, log.truncated);
        assert!(truncated > 50);
    }
}
