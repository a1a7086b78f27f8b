//! Online deployment mode (paper §5.3): a running engine ingests spans in
//! real time and reconstructs traces window by window.
//!
//! Spans arrive on a crossbeam channel (in production they'd arrive as
//! `tw_capture::wire` frames over TCP; the channel models the same
//! stream). The engine buffers records and, whenever the *watermark* (the
//! latest response timestamp seen) passes the current window's end plus a
//! grace period, reconstructs every record that completed inside the
//! window. The grace period plays the paper's role of "the window needs to
//! be chosen based on the known response latency distribution of the app":
//! records of one trace always land in the same window because a trace's
//! root response is its last event.
//!
//! The engine is composed from the staged-pipeline core
//! ([`crate::pipeline`]): every hop is a bounded queue with explicit
//! backpressure and `tw_pipeline_*` telemetry,
//!
//! ```text
//! ingest ─▶ [sanitize] ─▶ window-router ─▶ window/0..N (shards) ─▶ merge ─▶ results
//! ```
//!
//! with one module per decision:
//!
//! * `config` — what can be configured, and what a window result carries;
//! * `shed` — when to degrade a window, and what each ladder rung runs;
//! * `router` — which window a record belongs to. It stamps the index in
//!   arrival order, before the fan-out, so each window's contents — and
//!   the merged stream — are byte-identical at 1, 2, and 8 shards: shards
//!   change wall time only;
//! * `shard` — what sealing a window does, on a cut mark or in the
//!   shutdown drain, and the warm registry chain it may carry;
//! * `engine` — how the engine recovers, starts and drains.
//!
//! **Warm-start mode** ([`OnlineConfig::warm_start`]) threads a
//! [`tw_core::DelayRegistry`] through the window stream: window *k*'s
//! posterior is published — in window order — before window *k+1* is
//! reconstructed, so every window after the first skips the seed
//! bootstrap and starts EM from accumulated cross-window evidence. Windows gain a sequential
//! model dependency in this mode, so the warm path runs on a single
//! window shard (the registry chain *is* the order); use
//! [`tw_core::Params::threads`] for intra-window parallelism instead of
//! `OnlineConfig::shards`. The emitted stream stays byte-identical for
//! every thread count.

mod config;
mod engine;
mod router;
mod shard;
mod shed;

pub use config::{DegradationLevel, OnlineConfig, ShedPolicy, WindowResult};
pub use engine::OnlineEngine;
