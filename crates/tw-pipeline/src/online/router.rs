//! Which window a record belongs to: the sequential head of the windowing
//! stage.

use crate::checkpoint::RecoveryMetrics;
use crate::pipeline::{DeadLetterPayload, Emitter, Stage, StageCtx};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_telemetry::trace::{SpanGuard, SpanRecorder};
use tw_telemetry::{Counter, Gauge};

/// The window a record that completed at `recv_resp` belongs to by its own
/// timestamp: `⌈recv_resp / window_ns⌉ − 1`, so window `i` holds
/// `(i·w, (i+1)·w]`, and `recv_resp` 0 is window 0.
pub(crate) fn window_of(recv_resp: Nanos, window_ns: u64) -> u64 {
    recv_resp.0.div_ceil(window_ns).saturating_sub(1)
}

/// Router → shard message: a record stamped with its window index, the
/// mark that a window may be reconstructed, or the cut that seals it.
#[derive(Debug)]
pub(super) enum WindowMsg {
    Record(u64, RpcRecord),
    Ready(u64),
    Cut(u64),
}

/// A routed record quarantines with its record and window; a mark with
/// its window.
impl DeadLetterPayload for WindowMsg {
    fn dead_letter_record(&self) -> Option<RpcRecord> {
        match self {
            WindowMsg::Record(_, rec) => Some(*rec),
            WindowMsg::Ready(_) | WindowMsg::Cut(_) => None,
        }
    }

    fn dead_letter_window(&self) -> Option<u64> {
        match self {
            WindowMsg::Record(w, _) | WindowMsg::Ready(w) | WindowMsg::Cut(w) => Some(*w),
        }
    }
}

/// The window router. For each record, in arrival order, it computes the
/// *effective window index* — `max(⌈recv_resp / window⌉ − 1, first
/// uncut window)`, so a late record lands in the first window still open
/// at its arrival — and sends the stamped record to the window shard.
/// After a restore it drops the records routed below the watermark.
/// At a window's end plus half the grace it sends [`WindowMsg::Ready`],
/// at end plus grace [`WindowMsg::Cut`]. The queue is FIFO, so a window's
/// records are all buffered in the shard before its cut arrives.
pub(super) struct WindowRouter {
    window: Nanos,
    grace: Nanos,
    watermark: Nanos,
    first_uncut: u64,
    first_unready: u64,
    recovery: Option<RouterRecovery>,
    trace: Option<SpanRecorder>,
    /// Open "route" spans, one per sampled window, finished when its ready
    /// mark is sent; a record routed after that opens none.
    route_spans: BTreeMap<u64, SpanGuard>,
}

/// After a checkpoint restore the router drops and counts each record the
/// sealing run routed below `resumed_at` — its effective index, with the
/// watermark rebuilt from the stream replayed in order — and reports once,
/// on the first live record, the windows lost to the crash.
struct RouterRecovery {
    resumed_at: u64,
    windows_lost: Option<Gauge>,
    replayed: Counter,
}

impl WindowRouter {
    pub(super) fn new(window: Nanos, grace: Nanos, trace: Option<SpanRecorder>) -> Self {
        WindowRouter {
            window: Nanos(window.0.max(1)),
            grace,
            watermark: Nanos::ZERO,
            first_uncut: 0,
            first_unready: 0,
            recovery: None,
            trace,
            route_spans: BTreeMap::new(),
        }
    }

    /// Resume routing at a restored watermark: every window with index
    /// below `first_uncut` was already sealed by the previous process, so
    /// the records routed there are dropped, never re-emitted or folded.
    pub(super) fn resume(mut self, first_uncut: u64, metrics: &RecoveryMetrics) -> Self {
        self.first_uncut = first_uncut;
        self.first_unready = first_uncut;
        self.recovery = Some(RouterRecovery {
            resumed_at: first_uncut,
            windows_lost: Some(metrics.windows_lost.clone()),
            replayed: metrics.replayed.clone(),
        });
        self
    }

    /// `wait` past the nominal end of window `index` (records with
    /// `recv_resp <= end` belong to it or an earlier one).
    fn due(&self, index: u64, wait: u64) -> u64 {
        self.window.0.saturating_mul(index + 1).saturating_add(wait)
    }
}

impl Stage for WindowRouter {
    type In = RpcRecord;
    type Out = WindowMsg;

    fn name(&self) -> &str {
        "window-router"
    }

    fn process(&mut self, rec: RpcRecord, _ctx: &StageCtx, out: &mut Emitter<WindowMsg>) {
        let by_ts = window_of(rec.recv_resp, self.window.0);
        // The first window open at this arrival in a run cut from window 0.
        let open = self.watermark.0.saturating_sub(self.grace.0) / self.window.0;
        self.watermark = self.watermark.max(rec.recv_resp);
        if let Some(recovery) = &mut self.recovery {
            if let Some(windows_lost) = recovery.windows_lost.take() {
                // First record after a restore: everything between the
                // checkpointed watermark and this record's nominal window
                // was sealed by a process that died before emitting it.
                windows_lost.set(by_ts.saturating_sub(recovery.resumed_at) as f64);
            }
            if by_ts.max(open) < recovery.resumed_at {
                recovery.replayed.inc();
                return;
            }
        }
        let index = by_ts.max(self.first_uncut);
        if let (Some(trace), true) = (&self.trace, index >= self.first_unready) {
            if let Entry::Vacant(e) = self.route_spans.entry(index) {
                if let Some(guard) = trace.span(index, "route") {
                    e.insert(guard);
                }
            }
        }
        out.emit(WindowMsg::Record(index, rec));
        loop {
            let ready_at = self.due(self.first_unready, self.grace.0 / 2);
            let cut_at = self.due(self.first_uncut, self.grace.0);
            if ready_at <= cut_at.min(self.watermark.0) {
                if let Some(guard) = self.route_spans.remove(&self.first_unready) {
                    guard.event(format!("ready at watermark {}", self.watermark.0));
                }
                out.emit(WindowMsg::Ready(self.first_unready));
                self.first_unready += 1;
            } else if cut_at <= self.watermark.0 {
                out.emit(WindowMsg::Cut(self.first_uncut));
                self.first_uncut += 1;
            } else {
                break;
            }
        }
    }
    // No flush override: windows still open when the stream closes are
    // flushed by the shard itself (its input queue closes after the
    // router exits).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::stored_traces;
    use crate::online::shard::{EngineMetrics, WindowShard};
    use crate::online::testutil::assert_same_windows;
    use crate::online::{DegradationLevel, ShedPolicy, WindowResult};
    use crate::pipeline::{PipelineBuilder, ShutdownReport};
    use crate::supervise::{DeadLetterQueue, Supervisor};
    use crossbeam::channel::Sender;
    use tw_core::{DelayRegistry, Params, TraceWeaver};
    use tw_model::callgraph::CallGraph;
    use tw_model::ids::RpcId;
    use tw_sim::apps::two_service_chain;
    use tw_sim::{Simulator, Workload};
    use tw_telemetry::Registry;

    const WINDOW: Nanos = Nanos(250_000_000);
    const THREADS: [usize; 3] = [1, 2, 8];

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
        type Out = WindowMsg;
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
    fn stream(seed: u64) -> (CallGraph, Vec<RpcRecord>) {
        let app = two_service_chain(seed);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records;
        records.sort_by_key(|r| r.send_req);
        (call_graph, records)
    }

    /// A warm window shard on `threads` workers under `shed`.
    fn warm_shard(
        graph: &CallGraph,
        window: Nanos,
        threads: usize,
        shed: ShedPolicy,
        telemetry: &Registry,
    ) -> WindowShard {
        let tw = TraceWeaver::new(graph.clone(), Params::with_threads(threads));
        let mut shard = WindowShard::new(window, shed, tw, EngineMetrics::new(telemetry, None));
        shard.warm = Some(DelayRegistry::default());
        shard
    }

    /// source → poison stage → (poison) window router → warm window shard
    /// on `threads` workers, fed `records`, drained.
    fn run(
        graph: &CallGraph,
        records: &[RpcRecord],
        threads: usize,
        stage_poison: &[RpcId],
        router_poison: &[RpcId],
        telemetry: &Registry,
    ) -> (ShutdownReport<WindowResult>, DeadLetterQueue) {
        let shard = warm_shard(graph, WINDOW, threads, ShedPolicy::default(), telemetry);
        let capacity = 1024;
        let supervisor = Supervisor::default();
        let dlq = supervisor.dead_letters().clone();
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(telemetry, capacity);
        let pipeline = builder
            .supervised(supervisor)
            .stage(
                PoisonStage {
                    poison: stage_poison.to_vec(),
                },
                capacity,
            )
            .stage(
                PoisonRouter {
                    inner: WindowRouter::new(WINDOW, Nanos::from_millis(50), None),
                    poison: router_poison.to_vec(),
                },
                capacity,
            )
            .stage(shard, capacity)
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

    /// Every window of `faulted` holds the records of `clean` except that
    /// the window holding the poison record lost exactly that record.
    /// Mappings match up to that window; after it the warm chain carries
    /// the poisoned window's posterior, so they may legitimately move.
    fn assert_only_poison_lost(clean: &[WindowResult], faulted: &[WindowResult], poison: RpcId) {
        assert_eq!(clean.len(), faulted.len(), "windows lost");
        let poisoned = clean
            .iter()
            .find(|w| w.records.iter().any(|r| r.rpc == poison))
            .expect("poison record was routed")
            .index;
        for (a, b) in clean.iter().zip(faulted) {
            assert_eq!(a.index, b.index, "window order broken");
            let expected: Vec<RpcRecord> = a
                .records
                .iter()
                .copied()
                .filter(|r| r.rpc != poison)
                .collect();
            assert_eq!(
                expected, b.records,
                "window {} must lose exactly the poison record",
                a.index
            );
            if a.index < poisoned {
                assert_same_windows(
                    std::slice::from_ref(a),
                    std::slice::from_ref(b),
                    "before the poison",
                );
            }
        }
    }

    fn failure_list(report: &ShutdownReport<WindowResult>) -> Vec<String> {
        report.failures.iter().map(|f| f.to_string()).collect()
    }

    /// Kill-a-stage-mid-window: a stage that panics on one poison record
    /// is restarted by the supervisor, the poison lands in the
    /// dead-letter queue, and only the poison is lost — with the same
    /// output at 1, 2 and 8 reconstruction threads.
    #[test]
    fn stage_panic_quarantines_poison_and_preserves_other_windows() {
        let (graph, records) = stream(63);
        let poison = records[records.len() / 2].rpc;
        let (clean, _) = run(&graph, &records, 1, &[], &[], &Registry::new());
        let clean = clean.expect_clean();

        let mut reference: Option<Vec<WindowResult>> = None;
        for threads in THREADS {
            let telemetry = Registry::new();
            let (report, dlq) = run(&graph, &records, threads, &[poison], &[], &telemetry);
            assert!(
                report.failures.is_empty(),
                "one panic must restart, not escalate: {:?}",
                failure_list(&report)
            );
            assert_only_poison_lost(&clean, &report.results, poison);
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
            match &reference {
                None => reference = Some(report.results),
                Some(base) => {
                    assert_same_windows(base, &report.results, &format!("{threads} threads"))
                }
            }
        }
    }

    /// The router runs on the same supervised loop as every stage: a
    /// poison record panicking it is quarantined with its payload, the
    /// router resumes with its watermark and `first_uncut` intact, and
    /// only the poison is lost — with the same output at 1, 2 and 8
    /// reconstruction threads.
    #[test]
    fn router_panic_quarantines_poison_and_keeps_its_watermark() {
        let (graph, records) = stream(63);
        let mid = records.len() / 2;
        let poison = records[mid].rpc;
        let (clean, _) = run(&graph, &records, 1, &[], &[], &Registry::new());
        let clean = clean.expect_clean();

        let mut reference: Option<Vec<WindowResult>> = None;
        for threads in THREADS {
            let telemetry = Registry::new();
            let (report, dlq) = run(&graph, &records, threads, &[], &[poison], &telemetry);
            assert!(
                report.failures.is_empty(),
                "one panic must restart, not escalate: {:?}",
                failure_list(&report)
            );
            assert_only_poison_lost(&clean, &report.results, poison);
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
            match &reference {
                None => reference = Some(report.results),
                Some(base) => {
                    assert_same_windows(base, &report.results, &format!("{threads} threads"))
                }
            }
        }
    }

    /// A sixth router panic inside the restart window exhausts the budget:
    /// the router stops consuming, the graph drains in order, and the
    /// failure comes back in the `ShutdownReport` — never as a panic out of
    /// `shutdown`.
    #[test]
    fn router_escalates_on_sixth_panic_into_a_clean_report() {
        let (graph, records) = stream(63);
        let mid = records.len() / 2;
        let poison: Vec<RpcId> = records[mid..mid + 6].iter().map(|r| r.rpc).collect();

        let telemetry = Registry::new();
        let (report, dlq) = run(&graph, &records, 2, &[], &poison, &telemetry);
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
        // shard, in order, and holds nothing from the poisoned tail.
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

    /// The adaptive shard with its input-queue depth scripted: at the
    /// `k`-th cut mark the shard sees depth `4k`, so its ladder signal is a
    /// steady slope of +4 items per tick, far above the 0.5 up-slope. Its
    /// flush hands the shard's final registry out.
    struct ScriptedDepth {
        shard: WindowShard,
        cuts: usize,
        registry: Sender<DelayRegistry>,
    }

    impl Stage for ScriptedDepth {
        type In = WindowMsg;
        type Out = WindowResult;
        fn name(&self) -> &str {
            self.shard.name()
        }
        fn process(&mut self, msg: WindowMsg, ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
            let mut ctx = *ctx;
            if let WindowMsg::Cut(_) = msg {
                ctx.queue_depth = 4 * self.cuts;
                self.cuts += 1;
            }
            self.shard.process(msg, &ctx, out);
        }
        fn flush(&mut self, ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
            self.shard.flush(ctx, out);
            if let Some(registry) = self.shard.warm.take() {
                let _ = self.registry.send(registry);
            }
        }
    }

    /// The adaptive ladder is the engine's one overload response, so the
    /// shard must walk it in order and account for everything it sheds.
    /// Under a steadily rising depth the first tick primes the EWMA, the
    /// second escalates, and each later rung waits out the 3-tick
    /// hold-down: window `k`, sealed at the `k`-th cut, runs at Full for
    /// `k = 0`, ShrinkBatch for 1–4, Greedy for 5–8 and Skip from 9 on,
    /// and the drain holds Skip. Skipped windows still carry their
    /// records, archive no trace and leave the registry chain alone.
    #[test]
    fn adaptive_ladder_walks_every_rung_and_accounts_for_skips() {
        let (graph, records) = stream(65);
        let window = Nanos::from_millis(100);
        let telemetry = Registry::new();
        let shed = ShedPolicy {
            adaptive: true,
            ..ShedPolicy::default()
        };
        let shard = warm_shard(&graph, window, 1, shed, &telemetry);
        let (registry_tx, registry) = crossbeam::channel::bounded(1);
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&telemetry, 1024);
        let scripted = ScriptedDepth {
            shard,
            cuts: 0,
            registry: registry_tx,
        };
        let pipeline = builder
            .stage(
                WindowRouter::new(window, Nanos::from_millis(50), None),
                1024,
            )
            .stage(scripted, 1024)
            .build();
        for r in &records {
            tx.send(*r).unwrap();
        }
        drop(tx);
        let windows = pipeline.shutdown().expect_clean();

        let expected = |index: u64| match index {
            0 => DegradationLevel::Full,
            1..=4 => DegradationLevel::ShrinkBatch,
            5..=8 => DegradationLevel::Greedy,
            _ => DegradationLevel::Skip,
        };
        assert!(windows.len() >= 12, "got {} windows", windows.len());
        assert!(windows.windows(2).all(|p| p[1].index == p[0].index + 1));
        for w in &windows {
            assert_eq!(w.degradation, expected(w.index), "window {}", w.index);
            let skipped = w.degradation == DegradationLevel::Skip;
            assert_eq!(w.shed_records, if skipped { w.records.len() } else { 0 });
            if skipped {
                assert!(stored_traces(w).is_empty(), "window {}", w.index);
            }
        }

        let mut routed: Vec<RpcId> = windows
            .iter()
            .flat_map(|w| w.records.iter().map(|r| r.rpc))
            .collect();
        let mut offered: Vec<RpcId> = records.iter().map(|r| r.rpc).collect();
        routed.sort();
        offered.sort();
        assert_eq!(routed, offered, "every record lands in exactly one window");

        let reconstructed = windows
            .iter()
            .filter(|w| w.degradation != DegradationLevel::Skip)
            .count();
        let registry = registry
            .try_recv()
            .expect("warm shard returns its registry");
        assert_eq!(registry.rounds(), reconstructed as u64);

        let changes = windows
            .windows(2)
            .filter(|p| p[0].degradation != p[1].degradation)
            .count();
        let transitions: f64 = telemetry
            .render()
            .lines()
            .filter(|l| l.starts_with("tw_engine_shed_transitions_total{"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum();
        assert_eq!(changes, 3);
        assert_eq!(transitions, changes as f64);
    }

    /// After a restore at watermark 4, a record routed below it — in its
    /// own window, or late into the window open at its arrival — is a
    /// replay of a sealed window: dropped and counted, never folded
    /// forward. A late record the sealing run folded into a window at or
    /// above the watermark still lands in the first window open at its
    /// arrival, whatever its own window.
    #[test]
    fn restored_router_drops_replays_and_still_clamps_late_records() {
        let (_, records) = stream(66);
        let at = |rpc: u64, window: u64| RpcRecord {
            rpc: RpcId(rpc),
            recv_resp: Nanos(window * WINDOW.0 + WINDOW.0 / 2),
            ..records[0]
        };
        let telemetry = Registry::new();
        let recovery = crate::checkpoint::RecoveryMetrics::new(&telemetry);
        let router = WindowRouter::new(WINDOW, Nanos::from_millis(50), None).resume(4, &recovery);
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&telemetry, 16);
        let pipeline = builder.stage(router, 16).build();
        // rpc 8 arrives late while window 3 is open (watermark 875 ms);
        // rpc 5 while window 6 is.
        let replay = [at(1, 1), at(7, 3), at(8, 0), at(2, 4), at(3, 6)];
        for r in replay.into_iter().chain([at(4, 4), at(5, 2)]) {
            tx.send(r).unwrap();
        }
        drop(tx);
        let routed: Vec<String> = pipeline
            .shutdown()
            .expect_clean()
            .iter()
            .map(|msg| match msg {
                WindowMsg::Record(window, r) => format!("record {} in {window}", r.rpc.0),
                WindowMsg::Ready(window) => format!("ready {window}"),
                WindowMsg::Cut(window) => format!("cut {window}"),
            })
            .collect();
        // Each window's ready mark goes out at end + grace/2, before its
        // cut at end + grace.
        assert_eq!(
            routed,
            [
                "record 2 in 4",
                "record 3 in 6",
                "ready 4",
                "cut 4",
                "ready 5",
                "cut 5",
                "record 4 in 6",
                "record 5 in 6"
            ]
        );
        // A ready mark quarantines as a cut does: its window, no record.
        let ready = WindowMsg::Ready(4);
        assert_eq!(
            (ready.dead_letter_window(), ready.dead_letter_record()),
            (Some(4), None)
        );
        let text = telemetry.render();
        assert!(
            text.contains("tw_pipeline_recovery_replayed_total 3\n"),
            "{text}"
        );
        assert!(
            text.contains("tw_pipeline_recovery_windows_lost 0\n"),
            "{text}"
        );
    }
}
