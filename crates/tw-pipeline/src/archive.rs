//! The archive sink stage (DESIGN.md §14): after the window shard, it
//! converts each window's reconstruction into [`StoredTrace`]s, appends
//! them to a durable [`TraceArchive`], re-emits the window unchanged, and
//! only then seals a full segment. The one window shard seals windows in
//! index order, so 1, 2 and 8 reconstruction threads produce
//! byte-identical archive directories.

use crate::checkpoint::DueCheckpoints;
use crate::online::{DegradationLevel, WindowResult};
use crate::pipeline::{DeadLetterPayload, Emitter, Stage, StageCtx};
use std::collections::HashMap;
use std::sync::Arc;
use tw_model::span::EXTERNAL;
use tw_store::{StoredSpan, StoredTrace, TraceArchive};

/// A window result is its own dead-letter provenance: if the archive
/// stage panics on one, the quarantine entry names the window.
impl DeadLetterPayload for WindowResult {
    fn dead_letter_window(&self) -> Option<u64> {
        Some(self.index)
    }
}

/// Convert one reconstructed window into stored traces: one per root
/// record (its caller is the external client), holding the window's
/// records met in pre-order, with depths, on the walk [`Mapping::assemble`]
/// takes. A shed (skipped) window has no mapping, so it has no traces; it
/// still advances the archive watermark when observed.
///
/// [`Mapping::assemble`]: tw_model::Mapping::assemble
pub fn stored_traces(result: &WindowResult) -> Vec<StoredTrace> {
    if result.degradation == DegradationLevel::Skip {
        return Vec::new();
    }
    // The window's ids, sorted (a repeated id stands for its last record),
    // each stamped with the last trace that reached it.
    let mut by_id: Vec<(u64, usize)> = (result.records.iter().enumerate())
        .map(|(i, r)| (r.rpc.0, i))
        .collect();
    by_id.sort_unstable();
    let (mut seen, mut outside) = (vec![0; by_id.len()], HashMap::new());
    let (mut stack, mut spans) = (Vec::new(), Vec::new());
    let (mapping, mut traces) = (&result.reconstruction.mapping, Vec::new());
    let roots = result.records.iter().filter(|r| r.caller == EXTERNAL);
    for (trace, root) in (1..).zip(roots) {
        mapping.walk(root.rpc, &mut stack, |rpc, depth| {
            let at = by_id.partition_point(|&(id, _)| id <= rpc.0);
            let Some(i) = at.checked_sub(1).filter(|&i| by_id[i].0 == rpc.0) else {
                return outside.insert(rpc.0, trace) != Some(trace);
            };
            let first = std::mem::replace(&mut seen[i], trace) != trace;
            if first {
                let (depth, record) = (depth as u32, result.records[by_id[i].1]);
                spans.push(StoredSpan { depth, record });
            }
            first
        });
        traces.push(StoredTrace {
            window: result.index,
            root: root.rpc.0,
            start: root.send_req.0,
            end: root.recv_resp.0,
            latency_ns: root.recv_resp.0.saturating_sub(root.send_req.0),
            degraded: result.degradation != DegradationLevel::Full,
            spans: spans.to_vec(),
        });
        spans.clear();
    }
    traces
}

/// The sink stage: append, pass the window through untouched, seal a full
/// buffer, then write the checkpoints the archive has come to cover
/// (DESIGN.md §12). The result leaves before its segment is fsynced.
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
        let full = self.archive.append(item.index, stored_traces(&item));
        self.observed = item.index + 1;
        out.emit(item);
        if full {
            self.archive.sync();
        }
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
    use proptest::prelude::*;
    use std::time::Duration;
    use tw_core::Reconstruction;
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::span::RpcRecord;
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

    /// The conversion as it was written before the one-pass walk: a
    /// `Mapping::assemble` per root and a hash lookup per node.
    fn assembled_traces(result: &WindowResult) -> Vec<StoredTrace> {
        if result.degradation == DegradationLevel::Skip {
            return Vec::new();
        }
        let by_id: HashMap<u64, &RpcRecord> = result.records.iter().map(|r| (r.rpc.0, r)).collect();
        let roots = result.records.iter().filter(|r| r.caller == EXTERNAL);
        roots
            .map(|record| StoredTrace {
                window: result.index,
                root: record.rpc.0,
                start: record.send_req.0,
                end: record.recv_resp.0,
                latency_ns: record.recv_resp.0.saturating_sub(record.send_req.0),
                degraded: result.degradation != DegradationLevel::Full,
                spans: (result.reconstruction.mapping.assemble(record.rpc).nodes)
                    .into_iter()
                    .filter_map(|(rpc, depth)| {
                        by_id.get(&rpc.0).map(|r| StoredSpan {
                            depth: depth as u32,
                            record: **r,
                        })
                    })
                    .collect(),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Windows whose mappings hold cycles, children claimed by two
        /// parents, children that are no record of the window and
        /// repeated record ids, at every rung: the one-pass conversion
        /// returns what a walk per root returns.
        #[test]
        fn one_pass_traces_equal_a_walk_per_root(
            records in prop::collection::vec((0u64..24, 0u32..3, 0u64..500), 0..24),
            parents in prop::collection::vec((0u64..32, prop::collection::vec(0u64..32, 0..4)), 0..24),
            rung in 0usize..3,
        ) {
            let records = records
                .into_iter()
                .map(|(rpc, caller, t)| {
                    let caller = if caller == 0 { EXTERNAL } else { ServiceId(caller) };
                    rec(rpc, caller, 1, [t, t + 1, t + 2, t + 3 + rpc])
                })
                .collect();
            let rungs = [DegradationLevel::Full, DegradationLevel::Greedy, DegradationLevel::Skip];
            let mut result = window(records, rungs[rung]);
            let mut mapping = tw_model::Mapping::new();
            for (parent, children) in parents {
                mapping.assign(RpcId(parent), children.into_iter().map(RpcId));
            }
            result.reconstruction.mapping = mapping;
            prop_assert_eq!(stored_traces(&result), assembled_traces(&result));
        }
    }
}
