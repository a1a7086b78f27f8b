//! A task's phases, as `tw_core_stage_seconds` observes them, add up to its
//! `optimize` time (its own test binary, so that no other test in the
//! process writes the global registry).

use tw_core::{Params, TraceWeaver};
use tw_model::time::Nanos;
use tw_sim::apps::two_service_chain;
use tw_sim::{Simulator, Workload};
use tw_telemetry::ValueSnapshot;

/// `(sum, count)` of `tw_core_stage_seconds{stage}` on the global registry.
fn stage(name: &str) -> (f64, u64) {
    let families = tw_telemetry::global().snapshot();
    let family = families.iter().find(|f| f.name == "tw_core_stage_seconds");
    let series = family.and_then(|f| {
        let labels = vec![("stage".to_string(), name.to_string())];
        f.series.get(&labels)
    });
    match series {
        Some(ValueSnapshot::Histogram { sum, count, .. }) => (*sum, *count),
        _ => panic!("no tw_core_stage_seconds{{stage=\"{name}\"}}"),
    }
}

#[test]
fn one_tasks_four_phases_sum_to_its_optimize_time() {
    let app = two_service_chain(7);
    let graph = app.config.call_graph();
    let sim = Simulator::new(app.config).expect("valid app config");
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        400.0,
        Nanos::from_millis(500),
    ));
    let result = TraceWeaver::new(graph, Params::default()).reconstruct_records(&out.records);
    assert!(result.summary().batches > 0);
    // The chain's back end calls nothing: its task decides nothing and
    // observes no phase, so one task ran the loop.
    let (optimize, tasks) = stage("optimize");
    assert_eq!(tasks, 1);
    let mut total = 0.0;
    for phase in ["score", "solve", "refit", "unattributed"] {
        let (spent, count) = stage(phase);
        assert_eq!(count, 1, "{phase}");
        assert!(spent >= 0.0, "{phase}: {spent}");
        assert!(
            phase == "unattributed" || spent > 0.0,
            "{phase} took no time"
        );
        total += spent;
    }
    assert!(
        (total - optimize).abs() <= 1e-9,
        "{total} s against {optimize} s"
    );
}
