//! Figure 6d: A/B-testing a recommendation engine (§6.4.2).
//!
//! x% of requests route to version B, which improves end-to-end user
//! satisfaction by a small margin. Without traces the operator can only
//! t-test aggregate satisfaction against a baseline period; with
//! (imperfect) reconstructed traces, requests served by B are separated
//! directly. The paper reports the p-value crossing 0.05 at 2 % with
//! traces against 20 % without.

use tw_bench::{ms, traceweaver, Table};
use tw_core::Params;
use tw_model::ids::RpcId;
use tw_model::time::Nanos;
use tw_sim::apps::{hotel_reservation_with, HotelOptions};
use tw_sim::{Simulator, Workload};
use tw_stats::sampler::Sampler;
use tw_stats::welch_t_test;

const B_EFFECT: f64 = 4.0;

fn main() {
    let mut table = Table::new(
        "Figure 6d: A/B test p-values vs fraction redirected to B",
        &["x", "p-no-traces", "p-with-traces", "split-accuracy"],
    );

    for &x in &[0.01, 0.02, 0.05, 0.10, 0.20] {
        let (p_wo, p_w, split_acc) = run(x, 58);
        table.row(vec![
            format!("{:.0}%", x * 100.0),
            format!("{p_wo:.4}"),
            format!("{p_w:.4}"),
            format!("{:.1}%", split_acc * 100.0),
        ]);
    }
    table.print();
    println!("\n=> p-with-traces should drop below 0.05 at much smaller x (paper: 2% vs 20%).");
    table.save_json("fig6d").expect("write artifact");
}

fn run(x: f64, seed: u64) -> (f64, f64, f64) {
    let app = hotel_reservation_with(HotelOptions {
        ab_split_to_b: Some(x),
        seed,
        ..HotelOptions::default()
    });
    let rec_b = app.config.catalog.lookup_service("recommend-b").unwrap();
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        400.0,
        Nanos::from_millis(ms(4_000)),
    ));

    // End-to-end satisfaction scores (version hidden from the operator).
    let mut noise = Sampler::new(seed ^ 0xAB);
    let scored: Vec<(RpcId, f64, bool)> = out
        .truth
        .roots()
        .iter()
        .map(|&root| {
            let is_b = out
                .truth
                .descendants(root)
                .iter()
                .any(|&r| out.records[r.0 as usize].callee.service == rec_b);
            let s = noise.normal(70.0, 8.0) + if is_b { B_EFFECT } else { 0.0 };
            (root, s, is_b)
        })
        .collect();

    // Without traces: aggregate vs an all-A baseline period.
    let mut base_noise = Sampler::new(seed ^ 0xBA);
    let baseline: Vec<f64> = (0..scored.len())
        .map(|_| base_noise.normal(70.0, 8.0))
        .collect();
    let aggregate: Vec<f64> = scored.iter().map(|&(_, s, _)| s).collect();
    let p_wo = welch_t_test(&aggregate, &baseline)
        .map(|t| t.p_greater)
        .unwrap_or(1.0);

    // With traces: split by predicted version.
    let tw = traceweaver(call_graph, Params::with_dynamism());
    let result = tw.reconstruct_records(&out.records);
    let mut a_scores = Vec::new();
    let mut b_scores = Vec::new();
    let mut split_correct = 0usize;
    for &(root, s, truth_b) in &scored {
        let predicted_b = result
            .mapping
            .assemble(root)
            .rpcs()
            .any(|r| out.records[r.0 as usize].callee.service == rec_b);
        if predicted_b == truth_b {
            split_correct += 1;
        }
        if predicted_b {
            b_scores.push(s);
        } else {
            a_scores.push(s);
        }
    }
    let p_w = welch_t_test(&b_scores, &a_scores)
        .map(|t| t.p_greater)
        .unwrap_or(1.0);
    (p_wo, p_w, split_correct as f64 / scored.len() as f64)
}
