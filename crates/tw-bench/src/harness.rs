//! Algorithm runners and simulation helpers.

use tw_baselines::{Fcfs, Tracer, VPath, Wap5};
use tw_core::{Params, TraceWeaver};
use tw_model::callgraph::CallGraph;
use tw_model::mapping::Mapping;
use tw_model::metrics::end_to_end_accuracy_all_roots;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_model::truth::TruthIndex;
use tw_sim::apps::BenchApp;
use tw_sim::{SimOutput, Simulator, Workload};

/// The algorithms compared throughout the evaluation.
#[derive(Debug, Clone)]
pub enum Algo {
    TraceWeaver(Params),
    Wap5,
    VPath,
    Fcfs,
}

impl Algo {
    pub fn name(&self) -> &'static str {
        match self {
            Algo::TraceWeaver(_) => "traceweaver",
            Algo::Wap5 => "wap5",
            Algo::VPath => "vpath",
            Algo::Fcfs => "fcfs",
        }
    }

    /// The paper's four-way comparison set.
    pub fn comparison_set() -> Vec<Algo> {
        vec![
            Algo::TraceWeaver(Params::default()),
            Algo::Wap5,
            Algo::VPath,
            Algo::Fcfs,
        ]
    }
}

/// Reconstruction threads for benchmark runs: the `TW_THREADS`
/// environment variable, defaulting to 1 (sequential — results are
/// identical either way, only wall time changes).
pub fn bench_threads() -> usize {
    std::env::var("TW_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// TraceWeaver over `call_graph` with `params` on [`bench_threads`]
/// workers: every figure binary builds its engine here, so each one
/// honours `TW_THREADS`.
pub fn traceweaver(call_graph: CallGraph, params: Params) -> TraceWeaver {
    TraceWeaver::new(
        call_graph,
        Params {
            threads: bench_threads(),
            ..params
        },
    )
}

/// Reconstruct with the given algorithm.
pub fn reconstruct_with(algo: &Algo, records: &[RpcRecord], call_graph: &CallGraph) -> Mapping {
    match algo {
        Algo::TraceWeaver(params) => {
            traceweaver(call_graph.clone(), *params)
                .reconstruct_records(records)
                .mapping
        }
        Algo::Wap5 => Wap5::new().reconstruct_records(records),
        Algo::VPath => VPath::new().reconstruct_records(records),
        Algo::Fcfs => Fcfs::new(call_graph.clone()).reconstruct_records(records),
    }
}

/// End-to-end accuracy in percent.
pub fn e2e_accuracy(mapping: &Mapping, truth: &TruthIndex) -> f64 {
    end_to_end_accuracy_all_roots(mapping, truth).percent()
}

/// Simulate an app at `rps` for `millis` (Poisson arrivals, root 0).
pub fn sim_app(app: &BenchApp, rps: f64, millis: u64) -> SimOutput {
    let sim = Simulator::new(app.config.clone()).expect("valid app config");
    sim.run(&Workload::poisson(
        app.roots[0],
        rps,
        Nanos::from_millis(millis),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_sim::apps::two_service_chain;

    #[test]
    fn all_algorithms_run() {
        let app = two_service_chain(1);
        let out = sim_app(&app, 200.0, 300);
        let g = app.config.call_graph();
        for algo in Algo::comparison_set() {
            let mapping = reconstruct_with(&algo, &out.records, &g);
            let acc = e2e_accuracy(&mapping, &out.truth);
            assert!(
                (0.0..=100.0).contains(&acc),
                "{} out of range: {acc}",
                algo.name()
            );
        }
    }

    #[test]
    fn names_stable() {
        let names: Vec<_> = Algo::comparison_set().iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["traceweaver", "wap5", "vpath", "fcfs"]);
    }
}
