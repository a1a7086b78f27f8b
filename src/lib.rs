//! # TraceWeaver
//!
//! A from-scratch Rust reproduction of **"TraceWeaver: Distributed Request
//! Tracing for Microservices Without Application Modification"**
//! (SIGCOMM 2024).
//!
//! TraceWeaver reconstructs distributed request traces from externally
//! observable span timestamps (eBPF / sidecar captures) and call-graph
//! knowledge learned in test environments — no context propagation, no
//! application changes.
//!
//! This facade crate re-exports the full workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `tw-core` | the reconstruction algorithm (§4) |
//! | [`model`] | `tw-model` | spans, call graphs, traces, metrics |
//! | [`stats`] | `tw-stats` | GMM/EM/BIC, t-tests, samplers |
//! | [`solver`] | `tw-solver` | weighted MIS, water-filling |
//! | [`sim`] | `tw-sim` | discrete-event microservice simulator |
//! | [`capture`] | `tw-capture` | span wire codec, test-environment replay, call-graph inference |
//! | [`baselines`] | `tw-baselines` | WAP5, vPath/DeepFlow, FCFS |
//! | [`alibaba`] | `tw-alibaba` | production-trace dataset + compression |
//! | [`pipeline`] | `tw-pipeline` | offline store, online engine, tail sampling |
//! | [`telemetry`] | `tw-telemetry` | metrics registry + Prometheus exposition (DESIGN.md §10) |
//! | [`viz`] | `tw-viz` | trace waterfalls, boxplots |
//!
//! ## Quick start
//!
//! ```
//! use traceweaver::prelude::*;
//!
//! // 1. A microservice app (simulated stand-in for a real deployment).
//! let app = traceweaver::sim::apps::hotel_reservation(7);
//! let call_graph = app.config.call_graph();
//!
//! // 2. Capture spans under load (in production: eBPF / sidecars).
//! let sim = Simulator::new(app.config).unwrap();
//! let out = sim.run(&Workload::poisson(app.roots[0], 150.0, Nanos::from_millis(500)));
//!
//! // 3. Reconstruct request traces with no instrumentation.
//! let tw = TraceWeaver::new(call_graph, Params::default());
//! let result = tw.reconstruct_records(&out.records);
//!
//! // 4. Evaluate against the simulator's ground truth.
//! let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth);
//! assert!(acc.ratio() > 0.85);
//! ```

pub use tw_alibaba as alibaba;
pub use tw_baselines as baselines;
pub use tw_capture as capture;
pub use tw_core as core;
pub use tw_model as model;
pub use tw_pipeline as pipeline;
pub use tw_sim as sim;
pub use tw_solver as solver;
pub use tw_stats as stats;
pub use tw_store as store;
pub use tw_telemetry as telemetry;
pub use tw_viz as viz;

/// Common imports for applications and examples.
pub mod prelude {
    pub use tw_baselines::{Fcfs, Tracer, VPath, Wap5};
    pub use tw_capture::{generate_test_traces, infer_call_graph};
    pub use tw_core::{DelayRegistry, Params, Reconstruction, TraceWeaver};
    pub use tw_model::metrics::{
        end_to_end_accuracy_all_roots, per_service_accuracy, top_k_accuracy,
    };
    pub use tw_model::time::Nanos;
    pub use tw_model::{CallGraph, Catalog, Endpoint, Mapping, RpcId, TruthIndex};
    pub use tw_pipeline::{
        learn_delays, load_registry, load_spans, save_registry, save_spans, OnlineConfig,
        OnlineEngine, TailSampler,
    };
    pub use tw_sim::{AppConfig, SimOutput, Simulator, Workload};
}
