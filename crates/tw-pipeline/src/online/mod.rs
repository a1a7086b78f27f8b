//! Online deployment mode (paper §5.3): a running engine ingests spans in
//! real time and reconstructs traces window by window.
//!
//! Spans arrive on a crossbeam channel (in production they'd arrive as
//! `tw_capture::wire` frames over TCP; the channel models the same
//! stream). The engine buffers records; once the *watermark* (the latest
//! response timestamp seen) passes a window's end plus half the grace
//! period it reconstructs every record that completed inside the window,
//! and at end plus grace it publishes the result; a late record in between
//! makes the cut recompute. The grace period plays the paper's role of
//! "the window needs to be chosen based on the known response latency
//! distribution of the app": it delays the cut until late records of the
//! window have arrived. It does not keep a trace in one window: a record
//! lands in the window of its own `recv_resp`, so a child that completes
//! before a cut is sealed one window before its parent. ROADMAP's
//! window-seams item measures what that costs.
//!
//! The engine is one linear chain of stages from the staged-pipeline core
//! ([`crate::pipeline`]): every hop is a bounded queue that blocks its
//! producer when full and reports `tw_pipeline_*` telemetry,
//!
//! ```text
//! ingest ─▶ [sanitize] ─▶ window-router ─▶ window/0 ─▶ [archive] ─▶ results
//! ```
//!
//! with one module per decision:
//!
//! * `config` — what can be configured, and what a window result carries;
//! * `shed` — when to degrade a window, and what each ladder rung runs;
//! * `router` — which window a record belongs to, stamped in arrival
//!   order;
//! * `shard` — what sealing a window does, on a cut mark or in the
//!   shutdown drain (ahead of it on a ready mark), and its warm registry;
//! * `engine` — how the engine recovers, starts and drains.
//!
//! No queue drops anything. Under overload the engine trades work for
//! freshness in one place, the shard's shed ladder ([`ShedPolicy`]): it
//! degrades or skips whole windows, and every skipped record is counted
//! in [`WindowResult::shed_records`].
//!
//! **Warm-start mode** ([`OnlineConfig::warm_start`]) threads a
//! [`tw_core::DelayRegistry`] through the window stream: window *k*'s
//! posterior is published — in window order — before window *k+1* is
//! reconstructed, so every window after the first skips the seed
//! bootstrap and starts EM from accumulated cross-window evidence.
//! Parallelism lives inside each window: [`tw_core::Params::threads`]
//! workers run its per-process tasks, and the emitted stream stays
//! byte-identical for every thread count.

mod config;
mod engine;
mod router;
mod shard;
mod shed;

pub use config::{DegradationLevel, OnlineConfig, ShedPolicy, WindowResult};
pub use engine::OnlineEngine;
pub(crate) use router::window_of;

#[cfg(test)]
mod testutil {
    use super::WindowResult;

    /// The determinism oracle of the engine's and the router's tests: the
    /// same windows, with the same ends, records and mappings, in the same
    /// order.
    pub(super) fn assert_same_windows(a: &[WindowResult], b: &[WindowResult], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: window count");
        for (a, b) in a.iter().zip(b) {
            assert_eq!(a.index, b.index, "{what}: window order");
            assert_eq!(a.end, b.end, "{what}: window {} end", a.index);
            assert_eq!(a.records, b.records, "{what}: window {}", a.index);
            for r in &a.records {
                assert_eq!(
                    a.reconstruction.mapping.children(r.rpc),
                    b.reconstruction.mapping.children(r.rpc),
                    "{what}: mapping diverged in window {}",
                    a.index
                );
            }
        }
    }
}
