//! The load-multiple trace-compression transform (paper §6.3.1).
//!
//! Given traces with start times `t_1, t_2, …`, compression by factor `cf`
//! moves trace `i`'s spans rigidly so the spacing between trace starts
//! becomes `(t_i − t_1) / cf` while every span's duration and every
//! intra-trace gap stay unchanged. Higher `cf` ⇒ more traces overlap in
//! time ⇒ more plausible candidates per span ⇒ harder reconstruction. The
//! paper additionally normalizes by replica count (load is balanced over
//! containers); callers can fold that into `cf`.

use tw_model::ids::RpcId;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_model::truth::TruthIndex;

/// Compress inter-trace spacing by `factor` (≥ 1.0 compresses; < 1.0 would
/// dilate and is rejected). Returns rewritten records (same RPC ids, same
/// intra-trace timing, new absolute times).
///
/// Records whose root cannot be resolved through `truth` are passed
/// through unchanged.
pub fn compress_traces(records: &[RpcRecord], truth: &TruthIndex, factor: f64) -> Vec<RpcRecord> {
    assert!(factor >= 1.0, "compression factor must be >= 1.0");
    if records.is_empty() || factor == 1.0 {
        return records.to_vec();
    }

    // Trace start = root's send_req.
    let root_start = |root: RpcId| -> Option<Nanos> {
        records.iter().find(|r| r.rpc == root).map(|r| r.send_req)
    };
    let Some(&first_root) = truth.roots().first() else {
        return records.to_vec();
    };
    let origin = root_start(first_root).unwrap_or(Nanos::ZERO);

    // Shift per root: new_start = origin + (start - origin)/cf.
    let mut shift_of = std::collections::HashMap::new();
    for &root in truth.roots() {
        if let Some(start) = root_start(root) {
            let rel = start.0.saturating_sub(origin.0) as f64;
            let new_start = origin.0 as f64 + rel / factor;
            // Negative shift (moving earlier in time).
            let shift = new_start - start.0 as f64;
            shift_of.insert(root, shift);
        }
    }

    records
        .iter()
        .map(|rec| {
            let Some(root) = truth.root_of(rec.rpc) else {
                return *rec;
            };
            let Some(&shift) = shift_of.get(&root) else {
                return *rec;
            };
            let mv = |t: Nanos| Nanos(((t.0 as f64) + shift).max(0.0).round() as u64);
            RpcRecord {
                send_req: mv(rec.send_req),
                recv_req: mv(rec.recv_req),
                send_resp: mv(rec.send_resp),
                recv_resp: mv(rec.recv_resp),
                ..*rec
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean number of concurrently open root spans — a direct measure of the
    /// concurrency a compression factor produces.
    fn mean_root_concurrency(records: &[RpcRecord], truth: &TruthIndex) -> f64 {
        let mut events: Vec<(Nanos, i64)> = Vec::new();
        for &root in truth.roots() {
            if let Some(rec) = records.iter().find(|r| r.rpc == root) {
                events.push((rec.send_req, 1));
                events.push((rec.recv_resp, -1));
            }
        }
        if events.is_empty() {
            return 0.0;
        }
        events.sort();
        let t0 = events[0].0;
        let t1 = events[events.len() - 1].0;
        let horizon = (t1.0 - t0.0).max(1) as f64;
        let mut open = 0i64;
        let mut area = 0.0;
        let mut prev = t0;
        for (t, d) in events {
            area += open as f64 * (t.0 - prev.0) as f64;
            open += d;
            prev = t;
        }
        area / horizon
    }
    use tw_model::ids::{Endpoint, OperationId, ServiceId};
    use tw_model::span::EXTERNAL;

    /// Two single-span traces 10ms apart, each 1ms long.
    fn sample() -> (Vec<RpcRecord>, TruthIndex) {
        let mk = |rpc: u64, base_us: u64| RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(0), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos::from_micros(base_us),
            recv_req: Nanos::from_micros(base_us + 100),
            send_resp: Nanos::from_micros(base_us + 900),
            recv_resp: Nanos::from_micros(base_us + 1_000),
            caller_thread: None,
            callee_thread: None,
        };
        let records = vec![mk(0, 1_000), mk(1, 11_000)];
        let truth = TruthIndex::from_pairs([(RpcId(0), None), (RpcId(1), None)]);
        (records, truth)
    }

    #[test]
    fn factor_one_is_identity() {
        let (records, truth) = sample();
        assert_eq!(compress_traces(&records, &truth, 1.0), records);
    }

    #[test]
    fn spacing_compressed_durations_kept() {
        let (records, truth) = sample();
        let out = compress_traces(&records, &truth, 10.0);
        // First trace unmoved.
        assert_eq!(out[0], records[0]);
        // Second trace start: 1000 + (11000-1000)/10 = 2000us.
        assert_eq!(out[1].send_req, Nanos::from_micros(2_000));
        // Duration preserved.
        assert_eq!(
            out[1].recv_resp.0 - out[1].send_req.0,
            records[1].recv_resp.0 - records[1].send_req.0
        );
        // Intra-span gaps preserved.
        assert_eq!(
            out[1].recv_req.0 - out[1].send_req.0,
            records[1].recv_req.0 - records[1].send_req.0
        );
    }

    #[test]
    fn child_spans_move_with_their_root() {
        let (mut records, _) = sample();
        // Attach a child to trace 1.
        let child = RpcRecord {
            rpc: RpcId(2),
            caller: ServiceId(0),
            send_req: Nanos::from_micros(11_200),
            recv_req: Nanos::from_micros(11_300),
            send_resp: Nanos::from_micros(11_600),
            recv_resp: Nanos::from_micros(11_700),
            ..records[1]
        };
        records.push(child);
        let truth = TruthIndex::from_pairs([
            (RpcId(0), None),
            (RpcId(1), None),
            (RpcId(2), Some(RpcId(1))),
        ]);
        let out = compress_traces(&records, &truth, 10.0);
        // Child keeps its offset from the root (200us after root send).
        assert_eq!(out[2].send_req.0 - out[1].send_req.0, 200_000);
    }

    #[test]
    fn concurrency_rises_with_compression() {
        // 20 spaced-out traces.
        let mut records = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..20u64 {
            let base = 1_000 + i * 50_000;
            records.push(RpcRecord {
                rpc: RpcId(i),
                caller: EXTERNAL,
                caller_replica: 0,
                callee: Endpoint::new(ServiceId(0), OperationId(0)),
                callee_replica: 0,
                send_req: Nanos::from_micros(base),
                recv_req: Nanos::from_micros(base + 10),
                send_resp: Nanos::from_micros(base + 4_000),
                recv_resp: Nanos::from_micros(base + 4_100),
                caller_thread: None,
                callee_thread: None,
            });
            pairs.push((RpcId(i), None));
        }
        let truth = TruthIndex::from_pairs(pairs);
        let c1 = mean_root_concurrency(&records, &truth);
        let compressed = compress_traces(&records, &truth, 20.0);
        let c20 = mean_root_concurrency(&compressed, &truth);
        assert!(c20 > c1 * 5.0, "c1={c1} c20={c20}");
    }

    #[test]
    #[should_panic]
    fn dilation_rejected() {
        let (records, truth) = sample();
        let _ = compress_traces(&records, &truth, 0.5);
    }
}
