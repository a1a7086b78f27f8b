//! Figure 4a: end-to-end accuracy vs load for the three benchmark apps,
//! comparing TraceWeaver, WAP5, vPath/DeepFlow and FCFS; plus the top-5
//! accuracy series (§6.2.1).

use tw_bench::{e2e_accuracy, ms, reconstruct_with, sim_app, traceweaver, Algo, Table};
use tw_core::Params;
use tw_model::metrics::top_k_accuracy;
use tw_sim::apps::{hotel_reservation, media_microservices, nodejs_app, BenchApp};

fn main() {
    let apps: Vec<(BenchApp, Vec<f64>)> = vec![
        (
            hotel_reservation(41),
            vec![50.0, 200.0, 500.0, 1_000.0, 1_500.0],
        ),
        (
            media_microservices(42),
            vec![50.0, 150.0, 400.0, 800.0, 1_200.0],
        ),
        (nodejs_app(43), vec![50.0, 200.0, 600.0, 1_200.0, 2_000.0]),
    ];

    let mut table = Table::new(
        "Figure 4a: accuracy (%) vs load (rps)",
        &[
            "app",
            "rps",
            "traceweaver",
            "tw-top5",
            "wap5",
            "vpath",
            "fcfs",
        ],
    );

    for (app, loads) in apps {
        let call_graph = app.config.call_graph();
        for rps in loads {
            let out = sim_app(&app, rps, ms(1_500));
            let mut cells = vec![app.name.to_string(), format!("{rps:.0}")];

            // TraceWeaver + its top-5 series.
            let tw = traceweaver(call_graph.clone(), Params::default());
            let result = tw.reconstruct_records(&out.records);
            cells.push(format!("{:.1}", e2e_accuracy(&result.mapping, &out.truth)));
            let parents: Vec<_> = out.records.iter().map(|r| r.rpc).collect();
            let top5 = top_k_accuracy(&result.ranked, &out.truth, parents, 5);
            cells.push(format!("{:.1}", top5.percent()));

            for algo in [Algo::Wap5, Algo::VPath, Algo::Fcfs] {
                let mapping = reconstruct_with(&algo, &out.records, &call_graph);
                cells.push(format!("{:.1}", e2e_accuracy(&mapping, &out.truth)));
            }
            table.row(cells);
        }
    }

    table.print();
    table.save_json("fig4a").expect("write artifact");
}
