//! Deterministic discrete-event microservice simulator.
//!
//! This crate stands in for the paper's evaluation testbed (DeathStarBench
//! applications on Docker/Kubernetes, §6.1). It simulates microservice
//! applications at the request level:
//!
//! * services with multiple container replicas,
//! * three threading models — a blocking worker pool (vPath-friendly), an
//!   RPC library pool with thread hand-offs (gRPC/Thrift-like, breaks
//!   vPath's assumptions), and an asynchronous event loop (Node.js-like),
//! * per-endpoint behaviour: processing delays, sequential/parallel backend
//!   call stages, probabilistic call skipping (caching), exclusive variant
//!   choices (A/B routing), and asynchronous disk I/O,
//! * open-loop workload generation (wrk2-style constant throughput and
//!   Poisson arrivals),
//! * a ground-truth recorder standing in for Jaeger.
//!
//! Output is a set of [`tw_model::RpcRecord`]s — exactly the signal a
//! perfect eBPF/sidecar capture layer sees ([`FaultPlan`] adds its
//! imperfections) — plus a [`tw_model::TruthIndex`] for evaluation.
//!
//! Everything is deterministic given the seed in [`config::AppConfig`].

pub mod apps;
pub mod config;
pub mod engine;
pub mod faults;
pub mod output;
pub mod workload;

pub use config::{
    AppConfig, CallBehavior, ConfigError, DiskIo, EndpointBehavior, ServiceConfig, StageBehavior,
    ThreadingModel,
};
pub use engine::Simulator;
pub use faults::{Fault, FaultLog, FaultPlan};
pub use output::SimOutput;
pub use workload::Workload;
