//! Extension experiment (paper §7 "Identifying thread affinity"): when a
//! deployment is known to use blocking worker pools (no request
//! hand-offs), syscall thread ids are a sound pruning signal. This sweep
//! shows the accuracy headroom thread hints buy at very high load on a
//! blocking-pool variant of HotelReservation.

use tw_bench::{e2e_accuracy, ms, sim_app, traceweaver, Table};
use tw_core::Params;
use tw_sim::apps::{hotel_reservation, BenchApp};
use tw_sim::ThreadingModel;

/// HotelReservation rebuilt with blocking pools everywhere, so thread ids
/// are trustworthy.
fn blocking_hotel(seed: u64) -> BenchApp {
    let mut app = hotel_reservation(seed);
    for svc in &mut app.config.services {
        svc.threading = ThreadingModel::BlockingPool { threads: 16 };
    }
    app
}

fn main() {
    let mut table = Table::new(
        "Extension 1: thread-affinity hints on a blocking-pool app, accuracy (%)",
        &["rps", "traceweaver", "tw+thread-hints"],
    );

    for &rps in &[200.0, 800.0, 1_600.0, 2_400.0] {
        let app = blocking_hotel(71);
        let call_graph = app.config.call_graph();
        let out = sim_app(&app, rps, ms(1_500));
        let base =
            traceweaver(call_graph.clone(), Params::default()).reconstruct_records(&out.records);
        let hinted =
            traceweaver(call_graph, Params::with_thread_hints()).reconstruct_records(&out.records);
        table.row(vec![
            format!("{rps:.0}"),
            format!("{:.1}", e2e_accuracy(&base.mapping, &out.truth)),
            format!("{:.1}", e2e_accuracy(&hinted.mapping, &out.truth)),
        ]);
    }

    table.print();
    println!("\n=> Hints must never hurt, and should help where timing alone is ambiguous.");
    table
        .save_json("ext1_thread_hints")
        .expect("write artifact");
}
