//! Extension experiment (paper §7 limitation probe): retries are a
//! dynamism class TraceWeaver explicitly does NOT handle — a retried call
//! yields *more* outgoing spans than the call graph predicts, the inverse
//! of the §4.2 subset case. This sweep quantifies the degradation as the
//! retry probability at the search→geo call grows, with and without
//! dynamism handling, so users know what to expect on retry-heavy apps.

use tw_bench::{e2e_accuracy, ms, sim_app, traceweaver, Table};
use tw_core::Params;
use tw_sim::apps::hotel_reservation;

fn main() {
    let mut table = Table::new(
        "Extension 3: retry dynamism (unhandled, §7), accuracy (%)",
        &["retry-prob", "tw-default", "tw-dynamism"],
    );

    for &p in &[0.0, 0.05, 0.1, 0.2, 0.4] {
        let mut app = hotel_reservation(73);
        // Retries on the search service's geo call.
        let search = app.config.catalog.lookup_service("search").unwrap();
        let svc = app.config.service_mut(search).unwrap();
        svc.endpoints[0].1.stages[0].calls[0].retry_prob = p;

        let call_graph = app.config.call_graph();
        let out = sim_app(&app, 300.0, ms(1_500));
        let base =
            traceweaver(call_graph.clone(), Params::default()).reconstruct_records(&out.records);
        let dynamism =
            traceweaver(call_graph, Params::with_dynamism()).reconstruct_records(&out.records);
        table.row(vec![
            format!("{:.0}%", p * 100.0),
            format!("{:.1}", e2e_accuracy(&base.mapping, &out.truth)),
            format!("{:.1}", e2e_accuracy(&dynamism.mapping, &out.truth)),
        ]);
    }

    table.print();
    println!(
        "\n=> Retries add surplus spans the call graph doesn't predict; accuracy\n   \
         declines roughly with the retry rate — the open problem of paper §7."
    );
    table.save_json("ext3_retries").expect("write artifact");
}
