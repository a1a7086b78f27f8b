//! Seeded inputs. Everything the program sees is generated here from
//! `--seed`; the program itself receives only records.

use tw_model::callgraph::CallGraph;
use tw_model::ids::ServiceId;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_model::truth::TruthIndex;
use tw_sim::apps::hotel_reservation;
use tw_sim::{Fault, FaultLog, FaultPlan, Simulator, Workload};

/// Online window length: 120 windows per 30 s of stream, small enough
/// that per-window fixed costs show, large enough (~900 records at
/// 600 rps) that a window is a real reconstruction problem.
pub const WINDOW: Nanos = Nanos(250_000_000);

/// Request rate of the dense offline stream (the top of `perf65`'s sweep).
pub const DENSE_RPS: f64 = 900.0;
/// Request rate of the online stream.
pub const ONLINE_RPS: f64 = 600.0;

/// splitmix64: independent sub-seeds for the simulator and the fault plan
/// from the one `--seed`.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub struct Input {
    pub graph: CallGraph,
    pub truth: TruthIndex,
    /// Records in the order a capture layer would deliver them.
    pub records: Vec<RpcRecord>,
    /// What the fault plan did (online streams only).
    pub faults: Option<FaultLog>,
}

/// Simulate the stream; also return the id of the `rate` service, whose
/// clock the online fault plan skews.
fn simulate(seed: u64, rps: f64, millis: u64) -> (Input, ServiceId) {
    let app = hotel_reservation(derive_seed(seed, 1));
    let graph = app.config.call_graph();
    let root = app.roots[0];
    let rate = app
        .config
        .catalog
        .lookup_service("rate")
        .expect("hotel_reservation has a rate service");
    let sim = Simulator::new(app.config).expect("hotel_reservation is a valid app");
    let out = sim.run(&Workload::poisson(root, rps, Nanos::from_millis(millis)));
    let mut records = out.records;
    records.sort_by_key(|r| (r.recv_resp, r.rpc));
    let input = Input {
        graph,
        truth: out.truth,
        records,
        faults: None,
    };
    (input, rate)
}

/// `hotel_reservation(seed)` under Poisson arrivals at `rps` for
/// `millis` of stream time, in completion order, fault-free.
pub fn clean_stream(seed: u64, rps: f64, millis: u64) -> Input {
    simulate(seed, rps, millis).0
}

/// The online stream: [`clean_stream`] at [`ONLINE_RPS`] pushed through a
/// seeded fault plan — 2 % duplicates, 2 % of records delivered up to
/// 20 ms late, and the `rate` service's clock 300 µs ahead and drifting
/// 100 ppm — so the sanitizer's dedup, skew and drift paths all run.
/// Every fault here is one the sanitizer repairs: no record is lost.
pub fn online_stream(seed: u64, millis: u64) -> Input {
    let (clean, skewed) = simulate(seed, ONLINE_RPS, millis);
    let plan = FaultPlan::new(derive_seed(seed, 2))
        .with(Fault::Duplicate {
            rate: 0.02,
            max_lag: Nanos::from_millis(5),
        })
        .with(Fault::Reorder {
            rate: 0.02,
            max_delay: Nanos::from_millis(20),
        })
        .with(Fault::ClockSkew {
            service: skewed,
            offset_ns: 300_000,
            drift_ppm: 100.0,
        });
    let (records, log) = plan.apply(&clean.records);
    Input {
        records,
        faults: Some(log),
        ..clean
    }
}

/// Scheduled delivery instant of every record, in nanoseconds after the
/// first: the running maximum of `recv_resp` (a record cannot be
/// delivered before it completes; a reordered one goes out with the
/// records it was delayed behind).
pub fn due_offsets_ns(records: &[RpcRecord]) -> Vec<u64> {
    let first = records.first().map_or(0, |r| r.recv_resp.0);
    let mut watermark = first;
    records
        .iter()
        .map(|r| {
            watermark = watermark.max(r.recv_resp.0);
            watermark - first
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let a = online_stream(7, 300);
        let b = online_stream(7, 300);
        let c = online_stream(8, 300);
        assert_eq!(a.records, b.records);
        assert_eq!(a.faults, b.faults);
        assert_ne!(a.records, c.records);
        let log = a.faults.expect("online stream carries a fault log");
        assert_eq!(log.dropped + log.burst_dropped + log.truncated, 0);
        assert_eq!(log.emitted, a.records.len());
    }

    #[test]
    fn due_offsets_are_a_running_maximum() {
        let input = online_stream(3, 200);
        let due = due_offsets_ns(&input.records);
        assert_eq!(due.len(), input.records.len());
        assert_eq!(due[0], 0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let last = input.records.iter().map(|r| r.recv_resp.0).max().unwrap();
        assert_eq!(*due.last().unwrap(), last - input.records[0].recv_resp.0);
    }
}
