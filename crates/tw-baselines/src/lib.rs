//! Baseline non-intrusive tracers the paper compares against (§6.1):
//!
//! * [`fcfs`] — the order-matching strawman,
//! * [`vpath`] — vPath / DeepFlow thread-affinity tracing,
//! * [`wap5`] — WAP5's delay-based message linking, re-purposed for
//!   request tracing.
//!
//! All baselines consume exactly the same observable signal as
//! TraceWeaver (per-process span views; vPath additionally uses syscall
//! thread ids when present) and emit a [`tw_model::Mapping`].

pub mod fcfs;
pub mod vpath;
pub mod wap5;

pub use fcfs::Fcfs;
pub use vpath::VPath;
pub use wap5::Wap5;

use std::collections::HashMap;
use tw_model::mapping::Mapping;
use tw_model::span::{split_by_process, ProcessKey, RpcRecord, SpanView};

/// Common interface for baseline tracers.
pub trait Tracer {
    fn name(&self) -> &'static str;

    /// Reconstruct parent→children mappings from per-process views.
    fn reconstruct(&self, views: &HashMap<ProcessKey, SpanView>) -> Mapping;

    /// Convenience: split raw records and reconstruct.
    fn reconstruct_records(&self, records: &[RpcRecord]) -> Mapping {
        self.reconstruct(&split_by_process(records))
    }
}
