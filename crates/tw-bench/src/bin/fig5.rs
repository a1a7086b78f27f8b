//! Figure 5: ablation study. Components are removed incrementally from
//! TraceWeaver on the HotelReservation and Media apps:
//!
//! 1. full system,
//! 2. − dependency-order constraints (§4.1 step 1 constraint iii),
//! 3. − distribution-improving iterations (GMM refits, §4.1 step 6),
//! 4. − joint optimization across spans (greedy per-span assignment).

use tw_bench::{e2e_accuracy, ms, sim_app, traceweaver, Table};
use tw_core::Params;
use tw_sim::apps::{hotel_reservation, media_microservices};

fn main() {
    let variants: Vec<(&str, Params)> = vec![
        ("full", Params::default()),
        (
            "-order-constraints",
            Params::default().ablate_order_constraints(),
        ),
        (
            "-order -iteration",
            Params::default()
                .ablate_order_constraints()
                .ablate_iteration(),
        ),
        (
            "-order -iter -joint-opt",
            Params::default()
                .ablate_order_constraints()
                .ablate_iteration()
                .ablate_joint_optimization(),
        ),
    ];

    let mut table = Table::new(
        "Figure 5: ablation study, accuracy (%)",
        &["variant", "hotel@600rps", "media@400rps"],
    );

    let hotel = hotel_reservation(47);
    let hotel_graph = hotel.config.call_graph();
    let hotel_out = sim_app(&hotel, 600.0, ms(1_500));
    let media = media_microservices(48);
    let media_graph = media.config.call_graph();
    let media_out = sim_app(&media, 400.0, ms(1_500));

    for (name, params) in variants {
        let h = traceweaver(hotel_graph.clone(), params).reconstruct_records(&hotel_out.records);
        let m = traceweaver(media_graph.clone(), params).reconstruct_records(&media_out.records);
        table.row(vec![
            name.to_string(),
            format!("{:.1}", e2e_accuracy(&h.mapping, &hotel_out.truth)),
            format!("{:.1}", e2e_accuracy(&m.mapping, &media_out.truth)),
        ]);
    }

    table.print();
    table.save_json("fig5").expect("write artifact");
}
