//! Extension experiment (paper §6.6 limitation): TraceWeaver only has to
//! disambiguate concurrency *within one container*. Horizontally scaled
//! deployments (many replicas, same aggregate load) should therefore be
//! easier than vertically scaled ones (one fat container). This sweep
//! fixes aggregate load and varies the replica count of every service.

use tw_bench::{e2e_accuracy, ms, sim_app, traceweaver, Table};
use tw_core::Params;
use tw_sim::apps::hotel_reservation;

fn main() {
    let mut table = Table::new(
        "Extension 2: horizontal vs vertical scaling at fixed 1200 rps, accuracy (%)",
        &["replicas-per-service", "traceweaver"],
    );

    for &replicas in &[1u16, 2, 4, 8] {
        let mut app = hotel_reservation(72);
        for svc in &mut app.config.services {
            svc.replicas = replicas;
        }
        let call_graph = app.config.call_graph();
        let out = sim_app(&app, 1_200.0, ms(1_500));
        let result = traceweaver(call_graph, Params::default()).reconstruct_records(&out.records);
        table.row(vec![
            replicas.to_string(),
            format!("{:.1}", e2e_accuracy(&result.mapping, &out.truth)),
        ]);
    }

    table.print();
    println!(
        "\n=> Accuracy should rise with replica count: per-container concurrency\n   \
         (what reconstruction must untangle) falls as load spreads out."
    );
    table
        .save_json("ext2_vertical_scale")
        .expect("write artifact");
}
