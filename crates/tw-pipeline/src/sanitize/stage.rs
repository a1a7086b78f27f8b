//! The sanitizer as a supervised pipeline stage, publishing its
//! estimators for the engine's checkpoint.

use super::{SanitizeConfig, Sanitizer, SanitizerSnapshot};
use crate::pipeline::{Emitter, Stage, StageCtx};
use std::sync::Arc;
use tw_model::span::RpcRecord;
use tw_telemetry::trace::{SpanGuard, SpanRecorder};
use tw_telemetry::Registry;

/// Shared slot a [`SanitizeStage`] periodically publishes its snapshot
/// into; the window shard reads the latest image when it writes the
/// checkpoint.
pub type SanitizerSnapshotSlot = Arc<parking_lot::Mutex<Option<SanitizerSnapshot>>>;

/// The sanitizer as a composable pipeline [`Stage`]: compose it between
/// the ingest source and the window router with
/// [`crate::PipelineBuilder::stage`] (or let [`crate::OnlineConfig::sanitize`]
/// wire it inside the engine). Records are sanitized in arrival order;
/// survivors are emitted downstream, rejects are dropped with their
/// per-reason counters bumped.
///
/// The stage's counters are ordinary registry series (no parallel
/// bookkeeping): [`crate::OnlineEngine::sanitize_stats`] reads the same
/// `tw_sanitize_*` counters a scrape endpoint would, and the handles
/// stay readable after the pipeline shuts down.
pub struct SanitizeStage {
    /// Restored from the checkpoint before the stage joins a pipeline.
    pub(crate) sanitizer: Sanitizer,
    /// Where the engine's checkpoint reads the latest snapshot, published
    /// every 256 records and at the flush.
    pub(crate) snapshot_slot: Option<SanitizerSnapshotSlot>,
    since_snapshot: u64,
    /// Self-tracing: recorder plus the engine window width, so the stage
    /// can attribute its work to the window each record will land in.
    trace: Option<(SpanRecorder, u64)>,
    current_span: Option<(u64, SpanGuard)>,
}

impl SanitizeStage {
    /// Stage with the `tw_sanitize_*` series in `registry`.
    pub fn new_in(cfg: SanitizeConfig, registry: &Registry) -> Self {
        SanitizeStage {
            sanitizer: Sanitizer::new_in(cfg, registry),
            snapshot_slot: None,
            since_snapshot: 0,
            trace: None,
            current_span: None,
        }
    }

    /// Record a `sanitize` span per prospective engine window (the window
    /// a record's `recv_resp` maps to under `window_ns`-wide windows).
    /// Because sanitize runs upstream of the router, this opens the
    /// window's span tree, so the tree covers the full online path.
    pub fn with_trace(mut self, recorder: SpanRecorder, window_ns: u64) -> Self {
        self.trace = Some((recorder, window_ns.max(1)));
        self
    }

    fn trace_record(&mut self, rec: &RpcRecord) {
        let Some((recorder, window_ns)) = &self.trace else {
            return;
        };
        let index = crate::online::window_of(rec.recv_resp, *window_ns);
        if let Some((current, _)) = &self.current_span {
            if *current == index {
                return;
            }
            self.current_span = None;
        }
        if let Some(span) = recorder.span(index, "sanitize") {
            self.current_span = Some((index, span));
        }
    }

    fn maybe_publish(&mut self, force: bool) {
        /// Processed records between publications (publication cadence,
        /// not the checkpoint's write cadence).
        const SNAPSHOT_RECORDS: u64 = 256;
        let Some(slot) = &self.snapshot_slot else {
            return;
        };
        if force || self.since_snapshot >= SNAPSHOT_RECORDS {
            *slot.lock() = Some(self.sanitizer.snapshot());
            self.since_snapshot = 0;
        }
    }
}

impl Stage for SanitizeStage {
    type In = RpcRecord;
    type Out = RpcRecord;

    fn name(&self) -> &str {
        "sanitize"
    }

    fn process(&mut self, rec: RpcRecord, _ctx: &StageCtx, out: &mut Emitter<RpcRecord>) {
        self.trace_record(&rec);
        if let Some(clean) = self.sanitizer.sanitize(rec) {
            out.emit(clean);
        }
        self.since_snapshot += 1;
        self.maybe_publish(false);
    }

    fn flush(&mut self, _ctx: &StageCtx, _out: &mut Emitter<RpcRecord>) {
        self.current_span = None;
        self.maybe_publish(true);
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::rec;
    use super::*;
    use tw_model::time::Nanos;

    #[test]
    fn stage_filters_inside_a_pipeline() {
        use crate::pipeline::PipelineBuilder;
        let registry = Registry::new();
        let stage = SanitizeStage::new_in(SanitizeConfig::default(), &registry);
        let metrics = stage.sanitizer.metrics.clone();
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&registry, 1024);
        let pipeline = builder.stage(stage, 1024).build();
        for i in 0..10 {
            tx.send(rec(i, i * 500)).unwrap();
        }
        tx.send(rec(3, 1_500)).unwrap(); // duplicate
        let mut truncated = rec(100, 20_000);
        truncated.recv_resp = Nanos::ZERO;
        truncated.send_resp = Nanos::ZERO;
        tx.send(truncated).unwrap();
        drop(tx);
        let forwarded = pipeline.shutdown().expect_clean();
        let stats = metrics.snapshot();
        assert_eq!(forwarded.len(), 10);
        assert_eq!(stats.received, 12);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.truncated, 1);
        let text = registry.render();
        assert!(text.contains("tw_pipeline_items_total{stage=\"sanitize\"} 12"));
    }
}
