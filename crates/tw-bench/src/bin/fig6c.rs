//! Figure 6c: troubleshooting delays for slow requests (§6.4.1).
//!
//! +40ms is injected at Reservation and Profile for 10% of requests. The
//! operator's question: which services cause tail latency for the slowest
//! 2% of requests? Three analyses are compared:
//!
//! * span-only view (no traces): per-service latency of each service's own
//!   top-2% spans — misleading, every service looks slow;
//! * TraceWeaver traces: exclusive per-service time within top-2% *traces*;
//! * ground-truth traces (oracle).

use std::collections::HashMap;
use tw_bench::{ms, traceweaver, Table};
use tw_core::Params;
use tw_model::ids::{RpcId, ServiceId};
use tw_model::metrics::exclusive_time_per_service;
use tw_model::time::Nanos;
use tw_sim::apps::{hotel_reservation_with, HotelOptions};
use tw_sim::{Simulator, Workload};
use tw_stats::Summary;

fn main() {
    let app = hotel_reservation_with(HotelOptions {
        slow_extra_us: 40_000.0,
        seed: 57,
        ..HotelOptions::default()
    });
    let catalog = app.config.catalog.clone();
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).expect("valid config");
    let out = sim.run(
        &Workload::poisson(app.roots[0], 300.0, Nanos::from_millis(ms(3_000)))
            .with_slow_fraction(0.10),
    );

    let tw = traceweaver(call_graph, Params::default());
    let result = tw.reconstruct_records(&out.records);

    // Top-2% end-to-end traces.
    let mut lats = out.root_latencies_us();
    lats.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let cut = (lats.len() as f64 * 0.98) as usize;
    let slow_roots: Vec<RpcId> = lats[cut..].iter().map(|&(r, _)| r).collect();
    let records = out.records_by_id();

    // Trace-based attribution (per trace, per service, exclusive ms).
    let attribute = |children_of: &dyn Fn(RpcId) -> Vec<RpcId>| {
        let mut per_service: HashMap<ServiceId, Vec<f64>> = HashMap::new();
        for &root in &slow_roots {
            let mut rpcs = vec![root];
            let mut i = 0;
            while i < rpcs.len() {
                rpcs.extend(children_of(rpcs[i]));
                i += 1;
            }
            for (svc, us) in exclusive_time_per_service(rpcs.iter().copied(), children_of, &records)
            {
                per_service.entry(svc).or_default().push(us / 1_000.0);
            }
        }
        per_service
    };
    let mapping = result.mapping.clone();
    let recon = attribute(&|r| mapping.children(r).to_vec());
    let truth_idx = out.truth.clone();
    let oracle = attribute(&|r| truth_idx.children(r).to_vec());

    // Span-only (misleading) view: per service, mean service-side latency
    // of that service's own slowest 2% spans.
    let mut span_only: HashMap<ServiceId, f64> = HashMap::new();
    let mut spans_by_service: HashMap<ServiceId, Vec<f64>> = HashMap::new();
    for r in &out.records {
        spans_by_service
            .entry(r.callee.service)
            .or_default()
            .push(r.send_resp.micros_since(r.recv_req) / 1_000.0);
    }
    for (svc, mut xs) in spans_by_service {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cut = (xs.len() as f64 * 0.98) as usize;
        span_only.insert(svc, tw_stats::mean(&xs[cut..]));
    }

    let mut table = Table::new(
        "Figure 6c: per-service latency attribution for slowest 2% requests (ms)",
        &[
            "service",
            "span-only-p98",
            "tw-p25",
            "tw-p50",
            "tw-p75",
            "oracle-p50",
        ],
    );
    let mut services: Vec<ServiceId> = oracle.keys().copied().collect();
    services.sort();
    for svc in services {
        let r = Summary::of(recon.get(&svc).map(Vec::as_slice).unwrap_or(&[]));
        let o = Summary::of(oracle.get(&svc).map(Vec::as_slice).unwrap_or(&[]));
        table.row(vec![
            catalog.service_name(svc).to_string(),
            format!("{:.2}", span_only.get(&svc).copied().unwrap_or(0.0)),
            format!("{:.2}", r.p25),
            format!("{:.2}", r.p50),
            format!("{:.2}", r.p75),
            format!("{:.2}", o.p50),
        ]);
    }
    table.print();
    println!(
        "\n=> In the tw/oracle columns only Reservation and Profile should show\n   \
         the injected ~40ms; the span-only column inflates everything."
    );
    table.save_json("fig6c").expect("write artifact");
}
