//! The `tw_solver_*` series exist from the first task on, even while no
//! batch has needed a search (its own test binary, so that no other test
//! in the process has run one).

use tw_core::{Params, TraceWeaver};
use tw_model::time::Nanos;
use tw_sim::apps::two_service_chain;
use tw_sim::{Simulator, Workload};

#[test]
fn solver_series_read_zero_before_the_first_search() {
    let app = two_service_chain(7);
    let graph = app.config.call_graph();
    let sim = Simulator::new(app.config).expect("valid app config");
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        20.0,
        Nanos::from_millis(500),
    ));
    let result = TraceWeaver::new(graph, Params::default()).reconstruct_records(&out.records);
    assert!(result.summary().batches > 0);
    let text = tw_telemetry::global().render();
    for series in [
        "tw_solver_solves_total 0",
        "tw_solver_nodes_expanded_total 0",
        "tw_solver_inexact_total 0",
        "tw_solver_deadline_expired_total 0",
    ] {
        assert!(
            text.lines().any(|l| l == series),
            "no `{series}` in:\n{text}"
        );
    }
}
