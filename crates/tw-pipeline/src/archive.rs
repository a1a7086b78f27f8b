//! The archive sink stage (DESIGN.md §14): sits after the window shard in
//! the online pipeline, converts each sealed window's reconstruction into
//! [`StoredTrace`]s, appends them to a durable [`TraceArchive`], and
//! re-emits the window unchanged — results consumers see the exact same
//! stream with or without archiving.
//!
//! The one window shard seals windows in index order, so the archive's
//! segmentation is deterministic: 1, 2 and 8 reconstruction threads
//! produce byte-identical archive directories.

use crate::checkpoint::DueCheckpoints;
use crate::online::{DegradationLevel, WindowResult};
use crate::pipeline::{DeadLetterPayload, Emitter, Stage, StageCtx};
use std::collections::HashMap;
use std::sync::Arc;
use tw_model::span::{RpcRecord, EXTERNAL};
use tw_store::{StoredSpan, StoredTrace, TraceArchive};

/// A window result is its own dead-letter provenance: if the archive
/// stage panics on one, the quarantine entry names the window.
impl DeadLetterPayload for WindowResult {
    fn dead_letter_window(&self) -> Option<u64> {
        Some(self.index)
    }
}

/// Convert one reconstructed window into stored traces: one trace per
/// root record (a record whose caller is the external client), its span
/// tree assembled from the window's mapping in pre-order with depths.
/// Shed (skipped) windows carried records *without* reconstructing them,
/// so they produce no traces — the window still advances the archive
/// watermark when observed.
pub fn stored_traces(result: &WindowResult) -> Vec<StoredTrace> {
    if result.degradation == DegradationLevel::Skip {
        return Vec::new();
    }
    let by_id: HashMap<u64, &RpcRecord> = result.records.iter().map(|r| (r.rpc.0, r)).collect();
    let degraded = result.degradation != DegradationLevel::Full;
    let mut traces = Vec::new();
    for record in &result.records {
        if record.caller != EXTERNAL {
            continue;
        }
        let tree = result.reconstruction.mapping.assemble(record.rpc);
        let spans: Vec<StoredSpan> = tree
            .nodes
            .iter()
            .filter_map(|(rpc, depth)| {
                by_id.get(&rpc.0).map(|r| StoredSpan {
                    depth: *depth as u32,
                    record: **r,
                })
            })
            .collect();
        let start = record.send_req.0;
        let end = record.recv_resp.0;
        traces.push(StoredTrace {
            window: result.index,
            root: record.rpc.0,
            start,
            end,
            latency_ns: end.saturating_sub(start),
            degraded,
            spans,
        });
    }
    traces
}

/// The sink stage: archive, then pass the window through untouched, and
/// write the checkpoints the archive has come to cover (DESIGN.md §12).
pub struct ArchiveStage {
    archive: Arc<TraceArchive>,
    pub(crate) checkpoint: Option<DueCheckpoints>,
    /// `index + 1` of the last window observed.
    observed: u64,
}

impl ArchiveStage {
    pub fn new(archive: Arc<TraceArchive>) -> Self {
        ArchiveStage {
            archive,
            checkpoint: None,
            observed: 0,
        }
    }
}

impl Stage for ArchiveStage {
    type In = WindowResult;
    type Out = WindowResult;

    fn name(&self) -> &str {
        "archive"
    }

    fn process(&mut self, item: Self::In, _ctx: &StageCtx, out: &mut Emitter<Self::Out>) {
        self.archive
            .observe_window(item.index, stored_traces(&item));
        self.observed = item.index + 1;
        out.emit(item);
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.write(self.observed, self.archive.watermark(), false);
        }
    }

    fn flush(&mut self, _ctx: &StageCtx, _out: &mut Emitter<Self::Out>) {
        // Seal the remainder so a clean shutdown archives every window
        // the pipeline emitted; the windows past those were empty.
        self.archive.sync();
        let archived = self.archive.watermark();
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.write(self.observed, archived, archived >= self.observed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tw_core::Reconstruction;
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::time::Nanos;

    fn rec(rpc: u64, caller: ServiceId, callee: u32, t: [u64; 4]) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(callee), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos(t[0]),
            recv_req: Nanos(t[1]),
            send_resp: Nanos(t[2]),
            recv_resp: Nanos(t[3]),
            caller_thread: None,
            callee_thread: None,
        }
    }

    fn window(records: Vec<RpcRecord>, degradation: DegradationLevel) -> WindowResult {
        let mut reconstruction = Reconstruction::default();
        // Root 1 called 2; 2 called 3.
        reconstruction.mapping.assign(RpcId(1), [RpcId(2)]);
        reconstruction.mapping.assign(RpcId(2), [RpcId(3)]);
        WindowResult {
            index: 5,
            end: Nanos(1_000),
            records,
            reconstruction,
            queue_depth: 0,
            latency: Duration::ZERO,
            warm_edges: 0,
            degradation,
            shed_records: 0,
        }
    }

    #[test]
    fn roots_become_traces_with_depths_and_latency() {
        let records = vec![
            rec(1, EXTERNAL, 10, [100, 110, 890, 900]),
            rec(2, ServiceId(10), 20, [200, 210, 690, 700]),
            rec(3, ServiceId(20), 30, [300, 310, 490, 500]),
        ];
        let traces = stored_traces(&window(records, DegradationLevel::Full));
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.window, t.root), (5, 1));
        assert_eq!((t.start, t.end, t.latency_ns), (100, 900, 800));
        assert!(!t.degraded);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].depth, 0);
        let depth_of = |rpc: u64| {
            t.spans
                .iter()
                .find(|s| s.record.rpc.0 == rpc)
                .unwrap()
                .depth
        };
        assert_eq!(depth_of(2), 1);
        assert_eq!(depth_of(3), 2);
    }

    #[test]
    fn degraded_and_skipped_windows_are_marked_or_empty() {
        let records = vec![rec(1, EXTERNAL, 10, [100, 110, 890, 900])];
        let greedy = stored_traces(&window(records.clone(), DegradationLevel::Greedy));
        assert_eq!(greedy.len(), 1);
        assert!(greedy[0].degraded);
        let skipped = stored_traces(&window(records, DegradationLevel::Skip));
        assert!(skipped.is_empty(), "skipped windows archive nothing");
    }
}
