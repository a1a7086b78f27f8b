//! Span capture substrate — the stand-in for the paper's eBPF hooks,
//! sidecar proxies and test environments (§5). What an imperfect capture
//! layer does to the records (loss, duplicates, skew, timestamp jitter)
//! is modelled once, by `tw_sim::FaultPlan`.
//!
//! * [`wire`] — a length-prefixed binary wire format for exporting span
//!   records from capture agents to a TraceWeaver instance (the paper's
//!   online deployment ships spans over the network);
//! * [`testenv`] — the test-environment substrate: replays requests one at
//!   a time with artificial delay variation (the paper uses Linux TC
//!   rules) so dependencies can be learned without ambiguity (§5.2.1);
//! * [`infer`] — call-graph and dependency-order inference from test
//!   traces via edge elimination (§5.2.2).

pub mod infer;
pub mod testenv;
pub mod wire;

pub use infer::{infer_call_graph, infer_dependency_spec};
pub use testenv::{generate_test_traces, TestTrace};
pub use wire::{decode_records, encode_records, FrameDecoder, WireError};
