//! Figure 6b: per-service confidence score vs actual per-service
//! accuracy. The paper reports a Pearson correlation of 0.89 — high
//! enough that operators can use confidence to pick which services to
//! instrument manually (§6.3.2).

use std::collections::BTreeMap;
use tw_bench::{ms, sim_app, traceweaver, Table};
use tw_core::Params;
use tw_model::ids::ServiceId;
use tw_model::metrics::per_service_accuracy;
use tw_sim::apps::{hotel_reservation, media_microservices, nodejs_app};
use tw_stats::pearson_correlation;

fn main() {
    let mut points: Vec<(String, f64, f64)> = Vec::new(); // (service, confidence, accuracy)

    let runs = vec![
        (hotel_reservation(51), 400.0),
        (hotel_reservation(52), 1_000.0),
        (media_microservices(53), 300.0),
        (media_microservices(54), 800.0),
        (nodejs_app(55), 500.0),
        (nodejs_app(56), 1_500.0),
    ];

    for (app, rps) in runs {
        let catalog = app.config.catalog.clone();
        let call_graph = app.config.call_graph();
        let out = sim_app(&app, rps, ms(1_000));
        let tw = traceweaver(call_graph, Params::default());
        let result = tw.reconstruct_records(&out.records);
        let confidence = result.confidence_by_service();

        // Actual per-service accuracy from ground truth, in service-id
        // order so the rows (and r's summation order) are a function of
        // the code.
        let mut parents_by_service: BTreeMap<ServiceId, Vec<_>> = BTreeMap::new();
        for r in &out.records {
            parents_by_service
                .entry(r.callee.service)
                .or_default()
                .push(r.rpc);
        }
        for (svc, parents) in parents_by_service {
            let acc = per_service_accuracy(&result.mapping, &out.truth, parents).percent();
            let conf = confidence.get(&svc).copied().unwrap_or(100.0);
            points.push((
                format!("{}/{}@{rps:.0}", app.name, catalog.service_name(svc)),
                conf,
                acc,
            ));
        }
    }

    let confs: Vec<f64> = points.iter().map(|p| p.1).collect();
    let accs: Vec<f64> = points.iter().map(|p| p.2).collect();
    let r = pearson_correlation(&confs, &accs).unwrap_or(f64::NAN);

    let mut table = Table::new(
        &format!("Figure 6b: confidence vs accuracy (Pearson r = {r:.3})"),
        &["service@load", "confidence", "accuracy"],
    );
    // Ties on confidence are common (many services read 100.0): break
    // them on the label.
    points.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    for (name, conf, acc) in points {
        table.row(vec![name, format!("{conf:.1}"), format!("{acc:.1}")]);
    }
    table.print();
    println!("\nPearson correlation (paper: 0.89): {r:.3}");
    table.save_json("fig6b").expect("write artifact");
}
