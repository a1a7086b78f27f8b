//! Which window a record belongs to: the sequential head of the sharded
//! windowing stage.

use crate::pipeline::{shard_hash, Emitter, ShardMsg, Stage, StageCtx};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_telemetry::trace::{SpanGuard, SpanRecorder};
use tw_telemetry::Gauge;

/// The window router: a [`Stage`] whose [`Emitter`] has one lane per
/// window shard. For each record, in arrival order, it computes the
/// *effective window index* — `max(⌈recv_resp / window⌉ − 1, first
/// uncut window)`, exactly the window the legacy single-threaded
/// windower would have flushed the record in (late records land in the
/// first window still open at their arrival) — and routes the record to
/// `shard_hash(index) % shards`. When the watermark passes a window's
/// end plus grace it broadcasts a cut [`ShardMsg::Mark`] every shard
/// observes. Item-before-mark queue order guarantees a window's records
/// are all buffered in its owning shard before any shard sees the cut,
/// so window contents are invariant in the shard count.
pub(super) struct WindowRouter {
    window: Nanos,
    grace: Nanos,
    watermark: Nanos,
    first_uncut: u64,
    recovery: Option<RouterRecovery>,
    trace: Option<SpanRecorder>,
    /// Open "route" spans, one per sampled window, finished when the
    /// window's cut mark is broadcast.
    route_spans: BTreeMap<u64, SpanGuard>,
}

/// One-shot recovery-gap probe: after a checkpoint restore the router
/// reports, on the first live record, how many window indices fall
/// between the restored watermark and where the stream actually resumes —
/// the windows lost to the crash (bounded by the checkpoint interval).
struct RouterRecovery {
    resumed_at: u64,
    windows_lost: Gauge,
}

impl WindowRouter {
    pub(super) fn new(window: Nanos, grace: Nanos, trace: Option<SpanRecorder>) -> Self {
        WindowRouter {
            window: Nanos(window.0.max(1)),
            grace,
            watermark: Nanos::ZERO,
            first_uncut: 0,
            recovery: None,
            trace,
            route_spans: BTreeMap::new(),
        }
    }

    /// Resume routing at a restored watermark: every window with index
    /// below `first_uncut` was already sealed by the previous process,
    /// so replayed/late records fold into the first still-open window —
    /// nothing before the watermark is re-emitted.
    pub(super) fn resume(mut self, first_uncut: u64, windows_lost: Gauge) -> Self {
        self.first_uncut = first_uncut;
        self.recovery = Some(RouterRecovery {
            resumed_at: first_uncut,
            windows_lost,
        });
        self
    }

    /// Nominal end of window `index`: records with `recv_resp <= end`
    /// belong to it (or an earlier one).
    fn window_end(&self, index: u64) -> u64 {
        (index + 1).saturating_mul(self.window.0)
    }
}

impl Stage for WindowRouter {
    type In = RpcRecord;
    type Out = ShardMsg<(u64, RpcRecord)>;

    fn name(&self) -> &str {
        "window-router"
    }

    fn process(
        &mut self,
        rec: RpcRecord,
        _ctx: &StageCtx,
        out: &mut Emitter<ShardMsg<(u64, RpcRecord)>>,
    ) {
        self.watermark = self.watermark.max(rec.recv_resp);
        let by_ts = rec.recv_resp.0.div_ceil(self.window.0).saturating_sub(1);
        if let Some(probe) = self.recovery.take() {
            // First record after a restore: everything between the
            // checkpointed watermark and this record's nominal window was
            // sealed by a process that died before emitting it.
            probe
                .windows_lost
                .set(by_ts.saturating_sub(probe.resumed_at) as f64);
        }
        let index = by_ts.max(self.first_uncut);
        if let Some(trace) = &self.trace {
            if let Entry::Vacant(e) = self.route_spans.entry(index) {
                if let Some(guard) = trace.span(index, "route") {
                    e.insert(guard);
                }
            }
        }
        let shard = (shard_hash(index) % out.lanes() as u64) as usize;
        out.emit_to(shard, ShardMsg::Item((index, rec)));
        while self.watermark.0
            >= self
                .window_end(self.first_uncut)
                .saturating_add(self.grace.0)
        {
            if let Some(guard) = self.route_spans.remove(&self.first_uncut) {
                guard.event(format!("cut at watermark {}", self.watermark.0));
            }
            out.broadcast(ShardMsg::Mark(self.first_uncut));
            self.first_uncut += 1;
        }
    }
    // No flush override: windows still open when the stream closes are
    // flushed by the shards themselves (their input queues close after
    // the router exits).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::shard::{EngineMetrics, WindowShard};
    use crate::online::{ShedPolicy, WindowResult};
    use crate::pipeline::{PipelineBuilder, QueueCfg, ShutdownReport};
    use crate::supervise::{DeadLetterQueue, Supervisor};
    use tw_core::{Params, TraceWeaver};
    use tw_model::ids::RpcId;
    use tw_sim::apps::two_service_chain;
    use tw_sim::{Simulator, Workload};
    use tw_telemetry::Registry;

    const WINDOW: Nanos = Nanos(250_000_000);

    /// Forwards records, panicking on the poison ones: a fault in a stage
    /// upstream of the router.
    struct PoisonStage {
        poison: Vec<RpcId>,
    }

    impl Stage for PoisonStage {
        type In = RpcRecord;
        type Out = RpcRecord;
        fn name(&self) -> &str {
            "poison"
        }
        fn process(&mut self, rec: RpcRecord, _ctx: &StageCtx, out: &mut Emitter<RpcRecord>) {
            assert!(
                !self.poison.contains(&rec.rpc),
                "poison record {:?}",
                rec.rpc
            );
            out.emit(rec);
        }
    }

    /// The window router with the same fault injected ahead of its routing
    /// step. The supervisor resumes this very instance, so the inner
    /// router's watermark and `first_uncut` carry across the panic.
    struct PoisonRouter {
        inner: WindowRouter,
        poison: Vec<RpcId>,
    }

    impl Stage for PoisonRouter {
        type In = RpcRecord;
        type Out = ShardMsg<(u64, RpcRecord)>;
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn process(&mut self, rec: RpcRecord, ctx: &StageCtx, out: &mut Emitter<Self::Out>) {
            assert!(
                !self.poison.contains(&rec.rpc),
                "poison record {:?}",
                rec.rpc
            );
            self.inner.process(rec, ctx, out);
        }
    }

    /// A seeded two-service stream in send order, and its call graph.
    fn stream(seed: u64) -> (TraceWeaver, Vec<RpcRecord>) {
        let app = two_service_chain(seed);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records;
        records.sort_by_key(|r| r.send_req);
        (TraceWeaver::new(call_graph, Params::default()), records)
    }

    /// source → poison stage → (poison) window router → `shards` window
    /// shards → merge, fed `records`, drained.
    fn run(
        tw: &TraceWeaver,
        records: &[RpcRecord],
        shards: usize,
        stage_poison: &[RpcId],
        router_poison: &[RpcId],
        telemetry: &Registry,
    ) -> (ShutdownReport<WindowResult>, DeadLetterQueue) {
        let metrics = EngineMetrics::new(telemetry, None);
        let queue = QueueCfg::block(1024);
        let supervisor = Supervisor::default();
        let dlq = supervisor.dead_letters().clone();
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(telemetry, queue);
        let pipeline = builder
            .supervised(supervisor)
            .stage(
                PoisonStage {
                    poison: stage_poison.to_vec(),
                },
                queue,
            )
            .shard(
                shards,
                PoisonRouter {
                    inner: WindowRouter::new(WINDOW, Nanos::from_millis(50), None),
                    poison: router_poison.to_vec(),
                },
                |i| {
                    WindowShard::new(
                        i,
                        WINDOW,
                        ShedPolicy::default(),
                        tw.clone(),
                        metrics.clone(),
                    )
                },
                queue,
            )
            .build();
        for r in records {
            // An escalated stage stops consuming; the rest of the stream
            // has nowhere to go.
            if tx.send(*r).is_err() {
                break;
            }
        }
        drop(tx);
        (pipeline.shutdown(), dlq)
    }

    /// Every window of `faulted` matches `clean` except that the window
    /// holding the poison record lost exactly that record.
    fn assert_only_poison_lost(
        clean: &[WindowResult],
        faulted: &[WindowResult],
        poison: RpcId,
        shards: usize,
    ) {
        assert_eq!(
            clean.len(),
            faulted.len(),
            "windows lost at {shards} shards"
        );
        for (a, b) in clean.iter().zip(faulted) {
            assert_eq!(a.index, b.index, "window order broken at {shards} shards");
            if a.records.iter().any(|r| r.rpc == poison) {
                let filtered: Vec<RpcRecord> = a
                    .records
                    .iter()
                    .copied()
                    .filter(|r| r.rpc != poison)
                    .collect();
                assert!(filtered.len() + 1 == a.records.len());
                assert_eq!(
                    filtered, b.records,
                    "faulted window must lose exactly the poison record"
                );
            } else {
                assert_eq!(
                    a.records, b.records,
                    "unaffected window {} diverged at {shards} shards",
                    a.index
                );
                for r in &a.records {
                    assert_eq!(
                        a.reconstruction.mapping.children(r.rpc),
                        b.reconstruction.mapping.children(r.rpc),
                        "unaffected mapping diverged in window {}",
                        a.index
                    );
                }
            }
        }
    }

    fn failure_list(report: &ShutdownReport<WindowResult>) -> Vec<String> {
        report.failures.iter().map(|f| f.to_string()).collect()
    }

    /// Kill-a-stage-mid-window: a stage that panics on one poison record
    /// is restarted by the supervisor, the poison lands in the
    /// dead-letter queue, and every window *not* containing the poison is
    /// byte-identical to the fault-free run — at 1, 2, and 8 shards.
    #[test]
    fn stage_panic_quarantines_poison_and_preserves_other_windows() {
        let (tw, records) = stream(63);
        let poison = records[records.len() / 2].rpc;

        for shards in [1usize, 2, 8] {
            let (clean_report, _) = run(&tw, &records, shards, &[], &[], &Registry::new());
            let clean = clean_report.expect_clean();
            let telemetry = Registry::new();
            let (report, dlq) = run(&tw, &records, shards, &[poison], &[], &telemetry);
            assert!(
                report.is_clean(),
                "one panic must restart, not escalate: {:?}",
                failure_list(&report)
            );
            assert_only_poison_lost(&clean, &report.results, poison, shards);
            let letters = dlq.snapshot();
            assert_eq!(letters.len(), 1, "exactly one quarantined item");
            assert_eq!(letters[0].stage, "poison");
            assert_eq!(letters[0].reason, "panic");
            assert!(letters[0].item_seq > 0);
            let text = telemetry.render();
            assert!(
                text.contains("tw_pipeline_stage_panics_total{stage=\"poison\"} 1"),
                "{text}"
            );
            assert!(
                text.contains("tw_pipeline_stage_restarts_total{stage=\"poison\"} 1"),
                "{text}"
            );
            assert!(
                text.contains("tw_pipeline_dead_letter_total{reason=\"panic\",stage=\"poison\"} 1"),
                "{text}"
            );
        }
    }

    /// The router runs on the same supervised loop as every stage: a
    /// poison record panicking it is quarantined with its payload, the
    /// router resumes with its watermark and `first_uncut` intact, and
    /// every window not containing the poison is byte-identical to the
    /// fault-free run — at 1, 2, and 8 shards.
    #[test]
    fn router_panic_quarantines_poison_and_keeps_its_watermark() {
        let (tw, records) = stream(63);
        let mid = records.len() / 2;
        let poison = records[mid].rpc;

        for shards in [1usize, 2, 8] {
            let (clean_report, _) = run(&tw, &records, shards, &[], &[], &Registry::new());
            let clean = clean_report.expect_clean();
            let telemetry = Registry::new();
            let (report, dlq) = run(&tw, &records, shards, &[], &[poison], &telemetry);
            assert!(
                report.is_clean(),
                "one panic must restart, not escalate: {:?}",
                failure_list(&report)
            );
            assert_only_poison_lost(&clean, &report.results, poison, shards);
            let letters = dlq.snapshot();
            assert_eq!(letters.len(), 1, "exactly one quarantined item");
            assert_eq!(letters[0].stage, "window-router");
            assert_eq!(letters[0].reason, "panic");
            assert_eq!(letters[0].item_seq, mid as u64 + 1);
            // The payload rides along for `twctl deadletters --resubmit`;
            // a raw record has no window until the router has assigned one.
            assert_eq!(letters[0].record, Some(records[mid]));
            assert_eq!(letters[0].window, None);
            let text = telemetry.render();
            assert!(
                text.contains("tw_pipeline_stage_panics_total{stage=\"window-router\"} 1"),
                "{text}"
            );
            assert!(
                text.contains("tw_pipeline_stage_restarts_total{stage=\"window-router\"} 1"),
                "{text}"
            );
            assert!(
                text.contains(
                    "tw_pipeline_dead_letter_total{reason=\"panic\",stage=\"window-router\"} 1"
                ),
                "{text}"
            );
        }
    }

    /// A sixth router panic inside the restart window exhausts the budget:
    /// the router stops consuming, the graph drains in order, and the
    /// failure comes back in the `ShutdownReport` — never as a panic out of
    /// `shutdown`.
    #[test]
    fn router_escalates_on_sixth_panic_into_a_clean_report() {
        let (tw, records) = stream(63);
        let mid = records.len() / 2;
        let poison: Vec<RpcId> = records[mid..mid + 6].iter().map(|r| r.rpc).collect();

        let telemetry = Registry::new();
        let (report, dlq) = run(&tw, &records, 2, &[], &poison, &telemetry);
        assert_eq!(report.failures.len(), 1, "{:?}", failure_list(&report));
        assert_eq!(report.failures[0].stage, "window-router");
        assert!(
            report.failures[0]
                .payload
                .contains("escalated after 5 restarts"),
            "{}",
            report.failures[0]
        );
        assert_eq!(dlq.len(), 6, "every poison quarantined");
        // What was routed before the escalation still drained through the
        // shards, in order, and holds nothing from the poisoned tail.
        let routed: usize = report.results.iter().map(|w| w.records.len()).sum();
        assert_eq!(routed, mid);
        for pair in report.results.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
        let text = telemetry.render();
        assert!(
            text.contains("tw_pipeline_stage_panics_total{stage=\"window-router\"} 6"),
            "{text}"
        );
        assert!(
            text.contains("tw_pipeline_stage_restarts_total{stage=\"window-router\"} 5"),
            "{text}"
        );
    }
}
