//! What sealing a window does: the windowing+reconstruction shard, the
//! warm registry chain it may carry, and the `tw_engine_*` series every
//! sealed window reports into.

use super::config::{DegradationLevel, ShedPolicy, WindowResult};
use super::router::WindowMsg;
use super::shed::{LadderedWeaver, ShedLadder};
use crate::checkpoint::ShardCheckpoint;
use crate::pipeline::{Emitter, Stage, StageCtx};
use std::collections::BTreeMap;
use std::time::Instant;
use tw_core::{DelayRegistry, GapRound, Reconstruction, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_telemetry::trace::{SpanGuard, SpanRecorder};
use tw_telemetry::{Buckets, Counter, Gauge, Histogram, Registry};

/// Registry-backed engine instrumentation. The per-window latency and
/// queue-depth fields on [`WindowResult`] are per-window snapshots; these
/// series are their cumulative view.
#[derive(Debug, Clone)]
pub(super) struct EngineMetrics {
    /// Windows sealed and ladder movements, both indexed by
    /// [`DegradationLevel`] (for a movement, the rung moved to).
    windows: [Counter; 4],
    transitions: [Counter; 4],
    latency: Histogram,
    pickup_queue_depth: Histogram,
    shed_records: Counter,
    warm_edges: Gauge,
    /// When set, window-latency observations of self-traced windows carry
    /// an OpenMetrics exemplar linking the bucket to the window's span
    /// tree (`window_id`/`span_id`, retrievable via `GET /spans`).
    recorder: Option<SpanRecorder>,
}

impl EngineMetrics {
    pub(super) fn new(registry: &Registry, recorder: Option<SpanRecorder>) -> Self {
        let windows = |level: &str| {
            registry.counter_with(
                "tw_engine_windows_total",
                "Windows reconstructed, by shed-ladder rung (DESIGN.md §9).",
                &[("shed_level", level)],
            )
        };
        let transition = |level: &str| {
            registry.counter_with(
                "tw_engine_shed_transitions_total",
                "Shed-ladder rung changes between consecutive windows of one worker.",
                &[("shed_level", level)],
            )
        };
        const RUNGS: [&str; 4] = ["full", "shrink_batch", "greedy", "skip"];
        EngineMetrics {
            windows: RUNGS.map(windows),
            transitions: RUNGS.map(transition),
            latency: registry.histogram(
                "tw_engine_window_latency_seconds",
                "Wall-clock reconstruction time per window.",
                Buckets::exponential(1e-4, 4.0, 12),
            ),
            pickup_queue_depth: registry.histogram(
                "tw_engine_pickup_queue_depth",
                "Windows waiting in the work queue when a worker picked one up.",
                Buckets::fixed(&[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            ),
            shed_records: registry.counter(
                "tw_engine_shed_records_total",
                "Records carried through unreconstructed because their window was skipped.",
            ),
            warm_edges: registry.gauge(
                "tw_engine_warm_edges",
                "Delay-registry edges the most recent warm window started from.",
            ),
            recorder,
        }
    }

    /// Record one finished window. `last_level` is the previous window's
    /// rung, used to count ladder transitions.
    fn observe_window(&self, result: &WindowResult, last_level: &mut Option<DegradationLevel>) {
        self.windows[result.degradation as usize].inc();
        if last_level
            .replace(result.degradation)
            .is_some_and(|l| l != result.degradation)
        {
            self.transitions[result.degradation as usize].inc();
        }
        let latency = result.latency.as_secs_f64();
        // root_id is only live before the window's tree is sealed, which
        // holds here: observe_window runs before the shard seals.
        match self.recorder.as_ref().and_then(|r| r.root_id(result.index)) {
            Some(span_id) => {
                let window_id = result.index.to_string();
                let span_id = span_id.to_string();
                self.latency
                    .observe_exemplar(latency, &[("window_id", &window_id), ("span_id", &span_id)]);
            }
            None => self.latency.observe(latency),
        }
        self.pickup_queue_depth.observe(result.queue_depth as f64);
        self.shed_records.add(result.shed_records as u64);
        if result.warm_edges > 0 {
            self.warm_edges.set(result.warm_edges as f64);
        }
    }
}

/// The windowing+reconstruction shard ([`Stage`] `window/0`): buffers
/// each open window's records, seals one whole window per cut mark, and
/// seals still-open windows (in index order) on shutdown — the drain path
/// that guarantees no record is silently dropped.
pub(super) struct WindowShard {
    window: Nanos,
    shed: ShedLadder,
    ladder: LadderedWeaver,
    metrics: EngineMetrics,
    /// Open windows, keyed by window index. `len()` is the shard's
    /// backlog, reported as [`WindowResult::queue_depth`].
    open: BTreeMap<u64, Vec<RpcRecord>>,
    /// One past the last window whose ready mark came, and one past the
    /// last window reconstructed on it: each is tried at most once.
    ready: u64,
    next_speculation: u64,
    /// A window reconstructed ahead of its cut, keyed by what the cut
    /// must match: its index, rung and record count.
    speculation: Option<((u64, DegradationLevel, usize), WindowResult, GapRound)>,
    last_level: Option<DegradationLevel>,
    /// Warm mode's registry chain (DESIGN.md §8): *k*'s posterior, *k+1*'s prior.
    pub(super) warm: Option<DelayRegistry>,
    /// The checkpoint this shard writes (DESIGN.md §12). `None` when
    /// checkpointing is off.
    pub(super) checkpoint: Option<ShardCheckpoint>,
    /// Self-trace recorder; the shard contributes "collect" (buffering),
    /// "reconstruct" and, on a warm window, "absorb" spans, and seals each
    /// window's tree after the checkpoint event.
    pub(super) trace: Option<SpanRecorder>,
    /// Open "collect" spans, finished when the shard takes the window's
    /// records to reconstruct them.
    collect_spans: BTreeMap<u64, SpanGuard>,
}

impl WindowShard {
    /// The shard of a cold, untraced, uncheckpointed engine; the engine
    /// sets `warm`, `checkpoint` and `trace` when it runs with them.
    pub(super) fn new(
        window: Nanos,
        shed: ShedPolicy,
        weaver: TraceWeaver,
        metrics: EngineMetrics,
    ) -> Self {
        WindowShard {
            window,
            shed: ShedLadder::new(shed),
            ladder: LadderedWeaver::new(weaver),
            metrics,
            open: BTreeMap::new(),
            ready: 0,
            next_speculation: 0,
            speculation: None,
            last_level: None,
            warm: None,
            checkpoint: None,
            trace: None,
            collect_spans: BTreeMap::new(),
        }
    }

    /// Reconstruct window `index` at `level` against the current prior,
    /// ending its "collect" span. The returned gap round is empty unless
    /// the window ran warm; the result's `queue_depth` is set at the cut.
    fn reconstruct(
        &mut self,
        index: u64,
        records: Vec<RpcRecord>,
        level: DegradationLevel,
    ) -> (WindowResult, GapRound) {
        let started = Instant::now();
        drop(self.collect_spans.remove(&index)); // buffering ends here
        let span = self
            .trace
            .as_ref()
            .and_then(|t| t.span(index, "reconstruct"));
        if let Some(span) = &span {
            span.event(format!("level {level:?}, {} records", records.len()));
        }
        let (reconstruction, round, shed_records) = match self.ladder.for_level(level) {
            Some(tw) => match &self.warm {
                Some(prior) => {
                    let (reconstruction, round) = tw.reconstruct_records_warm(&records, prior);
                    (reconstruction, round, 0)
                }
                None => (tw.reconstruct_records(&records), GapRound::default(), 0),
            },
            None => (
                Reconstruction::default(),
                GapRound::default(),
                records.len(),
            ),
        };
        let result = WindowResult {
            index,
            end: Nanos((index + 1).saturating_mul(self.window.0)),
            records,
            reconstruction,
            queue_depth: 0,
            latency: started.elapsed(),
            warm_edges: self.warm.as_ref().map_or(0, DelayRegistry::len),
            degradation: level,
            shed_records,
        };
        (result, round)
    }

    /// Reconstruct the oldest open window once its ready mark has come, at
    /// the rung held (no tick): every earlier window is sealed, so this is
    /// the prior its cut would use. A result is a pure function of the
    /// records in arrival order, the prior and the rung.
    fn speculate(&mut self) {
        let Some((&index, records)) = self.open.first_key_value() else {
            return;
        };
        if (self.next_speculation..self.ready).contains(&index) {
            self.next_speculation = index + 1;
            let level = self.shed.pick_level(None);
            let key = (index, level, records.len());
            let (result, round) = self.reconstruct(index, records.clone(), level);
            self.speculation = Some((key, result, round));
        }
    }

    /// Seal window `index`, the one thing a cut mark and the shutdown
    /// drain both do: pick the ladder rung, publish the window's early
    /// result if it still holds or reconstruct against the prior, absorb
    /// the window's gaps into the registry, advance the sealed watermark
    /// and write the checkpoint when it is due, and seal the span tree.
    /// `tick_depth` is the shard's input-queue depth at a live cut mark
    /// and `None` in the drain (see [`ShedLadder::pick_level`]).
    fn seal(&mut self, index: u64, tick_depth: Option<usize>, out: &mut Emitter<WindowResult>) {
        let level = self.shed.pick_level(tick_depth);
        // An empty window was never buffered and produces no result.
        let records = self.open.remove(&index);
        let emitted = records.is_some();
        if let Some(records) = records {
            // Records only join a window: an unchanged count means none did.
            let (mut result, round) = match self.speculation.take() {
                Some(early) if early.0 == (index, level, records.len()) => {
                    #[cfg(test)]
                    testutil::SPECULATIONS.with(|n| n.set((n.get().0 + 1, n.get().1)));
                    (early.1, early.2)
                }
                stale => {
                    if let Some(((early, held, _), ..)) = stale {
                        let why = match (early == index, held == level) {
                            (false, _) => "prior changed",
                            (_, false) => "rung changed",
                            _ => "late record",
                        };
                        if let Some(trace) = &self.trace {
                            trace.event(early, None, format!("speculation discarded: {why}"));
                        }
                        #[cfg(test)]
                        testutil::SPECULATIONS.with(|n| n.set((n.get().0, n.get().1 + 1)));
                    }
                    self.reconstruct(index, records, level)
                }
            };
            result.queue_depth = self.open.len();
            self.metrics.observe_window(&result, &mut self.last_level);
            out.emit(result);
            if let Some(trace) = &self.trace {
                trace.event(index, None, "result hand-off");
            }
            // The refit only shapes the next window's prior, so it runs
            // after the hand-off. A skipped window contributes no round:
            // the registry carries the last reconstructed window's models
            // forward unchanged.
            if let (Some(warm), Some(_)) = (self.warm.as_mut(), self.ladder.for_level(level)) {
                let _span = self.trace.as_ref().and_then(|t| t.span(index, "absorb"));
                warm.absorb_round(round);
            }
        }
        // The watermark advances on every mark, empty windows included:
        // it is the sealed frontier the checkpoint persists.
        let written = self
            .checkpoint
            .as_mut()
            .and_then(|c| c.seal(index, emitted, self.warm.as_ref()));
        if let Some(trace) = &self.trace {
            if let Some(event) = written {
                trace.event(index, None, event);
            }
            if emitted {
                trace.seal(index);
            }
        }
    }
}

impl Stage for WindowShard {
    type In = WindowMsg;
    type Out = WindowResult;

    fn name(&self) -> &str {
        "window/0"
    }

    fn process(&mut self, msg: WindowMsg, ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
        match msg {
            WindowMsg::Record(index, rec) => {
                if let (Some(trace), false) = (&self.trace, self.open.contains_key(&index)) {
                    if let Some(guard) = trace.span(index, "collect") {
                        self.collect_spans.insert(index, guard);
                    }
                }
                self.open.entry(index).or_default().push(rec);
            }
            WindowMsg::Ready(index) => {
                self.ready = index + 1;
                self.speculate();
            }
            WindowMsg::Cut(index) => {
                self.seal(index, Some(ctx.queue_depth), out);
                self.speculate();
            }
        }
    }

    /// Drain on shutdown: seal every still-open window, in index order,
    /// through the same ladder — partially filled windows flush through
    /// reconstruction instead of being dropped — then make the final
    /// checkpoint, the one way out for the final registry.
    fn flush(&mut self, _ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
        while let Some(index) = self.open.keys().next().copied() {
            self.seal(index, None, out);
            self.speculate();
        }
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.write(self.warm.as_ref());
        }
    }
}

/// Speculations the shard has used and discarded on this thread, the
/// stage's own: which path a window took, counted rather than timed.
#[cfg(test)]
pub(super) mod testutil {
    thread_local! {
        pub(crate) static SPECULATIONS: std::cell::Cell<(usize, usize)> =
            const { std::cell::Cell::new((0, 0)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{stored_traces, ArchiveStage};
    use crate::online::router::{window_of, WindowRouter};
    use crate::online::testutil::assert_same_windows;
    use crate::pipeline::PipelineBuilder;
    use crossbeam::channel::Sender;
    use std::path::Path;
    use std::sync::Arc;
    use tw_core::Params;
    use tw_model::ids::RpcId;
    use tw_sim::apps::two_service_chain;
    use tw_sim::{Simulator, Workload};
    use tw_store::{ArchiveConfig, TraceArchive, TraceQuery};
    use tw_telemetry::trace::TraceConfig;
    use tw_telemetry::Registry;

    /// The warm shard; its flush hands out, from the stage's own thread,
    /// the final registry and the speculations used and discarded.
    struct Probe {
        shard: WindowShard,
        done: Sender<(DelayRegistry, (usize, usize))>,
    }

    impl Stage for Probe {
        type In = WindowMsg;
        type Out = WindowResult;
        fn name(&self) -> &str {
            self.shard.name()
        }
        fn process(&mut self, msg: WindowMsg, ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
            self.shard.process(msg, ctx, out);
        }
        fn flush(&mut self, ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
            self.shard.flush(ctx, out);
            let registry = self.shard.warm.take().expect("warm shard");
            let _ = self.done.send((registry, testutil::SPECULATIONS.get()));
        }
    }

    /// Every file under `dir`, by name, with its bytes.
    fn dir_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// A record the router sees in window `late`'s grace period: the
    /// stream, in response order, with the first record of window `late`
    /// moved to just after the first record completing at or past
    /// `end(late) + after` — so it reaches the shard after every mark that
    /// record triggers.
    fn delay(records: &mut Vec<RpcRecord>, window: Nanos, late: u64, after: Nanos) -> RpcId {
        let at = records
            .iter()
            .position(|r| window_of(r.recv_resp, window.0) == late)
            .unwrap();
        let moved = records.remove(at);
        let due = (late + 1) * window.0 + after.0;
        let trigger = records.iter().position(|r| r.recv_resp.0 >= due).unwrap();
        records.insert(trigger + 1, moved);
        moved.rpc
    }

    /// A record for window `k` that reaches the shard after `k` was
    /// reconstructed on its ready mark makes the cut recompute, and the
    /// speculation is invisible: windows, mappings, ranked candidates, the
    /// final registry and the archive bytes all equal the per-window
    /// `reconstruct_records_warm` + `absorb_round` chain. At 250 ms
    /// windows and 200 ms grace every ready mark follows the previous
    /// cut; at 50 ms windows it precedes it, so the speculation waits for
    /// that seal, and a record joining window `k` before it discards
    /// nothing. Every other window that saw its ready mark publishes its
    /// speculation.
    #[test]
    fn late_records_discard_the_speculation_and_outputs_match_the_chain() {
        let ms = Nanos::from_millis;
        let cases = [
            (ms(250), None, vec![(2, ms(100))]),
            (ms(50), None, vec![(8, ms(100)), (12, ms(150))]),
            (ms(250), Some(DegradationLevel::Greedy), vec![(3, ms(150))]),
        ];
        let grace = ms(200);
        for (window, forced, late) in cases {
            let what = format!("{}ms windows at {forced:?}", window.0 / 1_000_000);
            let app = two_service_chain(67);
            let graph = app.config.call_graph();
            let sim = Simulator::new(app.config).unwrap();
            let out = sim.run(&Workload::poisson(
                app.roots[0],
                1_500.0,
                Nanos::from_secs(2),
            ));
            let mut records = out.records;
            records.sort_by_key(|r| (r.recv_resp, r.rpc));
            let moved: Vec<(u64, RpcId)> = late
                .iter()
                .map(|&(k, after)| (k, delay(&mut records, window, k, after)))
                .collect();
            let watermark = records.iter().map(|r| r.recv_resp).max().unwrap();

            let tw = TraceWeaver::new(graph, Params::with_threads(2));
            let telemetry = Registry::new();
            let shed = ShedPolicy {
                forced,
                ..ShedPolicy::default()
            };
            let mut shard = WindowShard::new(
                window,
                shed,
                tw.clone(),
                EngineMetrics::new(&telemetry, None),
            );
            shard.warm = Some(DelayRegistry::default());
            let recorder = SpanRecorder::new(
                TraceConfig {
                    sample: 1,
                    ring: 256,
                },
                &telemetry,
            );
            shard.trace = Some(recorder.clone());
            let dir =
                std::env::temp_dir().join(format!("twspec-{}-{}", window.0, std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let archive = |name: &str| {
                let cfg = ArchiveConfig::new(dir.join(name));
                Arc::new(TraceArchive::open(cfg, &Registry::new()).unwrap())
            };
            let (done_tx, done) = crossbeam::channel::bounded(1);
            let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&telemetry, 1024);
            let pipeline = builder
                .stage(WindowRouter::new(window, grace, None), 1024)
                .stage(
                    Probe {
                        shard,
                        done: done_tx,
                    },
                    1024,
                )
                .stage(ArchiveStage::new(archive("online")), 1024)
                .build();
            for r in &records {
                tx.send(*r).unwrap();
            }
            drop(tx);
            let windows = pipeline.shutdown().expect_clean();
            let (online, (used, discarded)) = done.try_recv().unwrap();

            let ladder = LadderedWeaver::new(tw);
            let level = forced.unwrap_or_default();
            let mut chain = DelayRegistry::new();
            let mut expected = Vec::new();
            for w in &windows {
                let (reconstruction, round) = ladder
                    .for_level(level)
                    .unwrap()
                    .reconstruct_records_warm(&w.records, &chain);
                for r in &w.records {
                    assert_eq!(
                        w.reconstruction.ranked.candidates(r.rpc),
                        reconstruction.ranked.candidates(r.rpc),
                        "{what}: ranking diverged in window {}",
                        w.index
                    );
                }
                assert_eq!(
                    w.warm_edges,
                    chain.len(),
                    "{what}: prior of window {}",
                    w.index
                );
                assert_eq!(w.degradation, level);
                chain.absorb_round(round);
                expected.push(WindowResult {
                    records: w.records.clone(),
                    reconstruction,
                    ..*w
                });
            }
            assert_same_windows(&expected, &windows, &what);
            assert_eq!(online, chain, "{what}: registry left the chain");
            let reference = archive("chain");
            for w in &expected {
                reference.observe_window(w.index, stored_traces(w));
            }
            reference.sync();
            assert_eq!(
                dir_bytes(&dir.join("online")),
                dir_bytes(&dir.join("chain")),
                "{what}"
            );
            let _ = std::fs::remove_dir_all(&dir);

            // The record that joined after its window's speculation (the
            // last one moved) discarded it; every other window whose ready
            // mark came published its own.
            for &(window_index, rpc) in &moved {
                let w = windows.iter().find(|w| w.index == window_index).unwrap();
                assert!(
                    w.records.iter().any(|r| r.rpc == rpc),
                    "{what}: moved record's window"
                );
            }
            let ready = windows
                .iter()
                .filter(|w| w.end.0 + grace.0 / 2 <= watermark.0)
                .count();
            assert_eq!((used, discarded), (ready - 1, 1), "{what}");
            let k = moved.last().unwrap().0;
            let tree = recorder
                .finished_snapshot()
                .into_iter()
                .find(|t| t.window == k)
                .unwrap();
            assert!(
                tree.events
                    .iter()
                    .any(|e| e.message == "speculation discarded: late record"),
                "{what}: {:?}",
                tree.events
            );
        }
    }

    /// The archive stage hands a result off before it seals the segment
    /// the result's traces fill: each result on `results()` already finds
    /// its traces in the archive, those of a window whose append fills a
    /// segment included, and the directory the stage leaves equals one
    /// written by `observe_window` window by window.
    #[test]
    fn each_result_is_queryable_on_arrival_and_the_archive_matches_observe_window() {
        let window = Nanos::from_millis(50);
        let app = two_service_chain(67);
        let graph = app.config.call_graph();
        let sim = Simulator::new(app.config).unwrap();
        let workload = Workload::poisson(app.roots[0], 1_500.0, Nanos::from_secs(2));
        let mut records = sim.run(&workload).records;
        records.sort_by_key(|r| (r.recv_resp, r.rpc));
        let dir = std::env::temp_dir().join(format!("twarrive-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = |name: &str| {
            let cfg = ArchiveConfig {
                segment_bytes: 16 << 10,
                ..ArchiveConfig::new(dir.join(name))
            };
            Arc::new(TraceArchive::open(cfg, &Registry::new()).unwrap())
        };
        let online = archive("online");
        let telemetry = Registry::new();
        let tw = TraceWeaver::new(graph, Params::with_threads(2));
        let metrics = EngineMetrics::new(&telemetry, None);
        let mut shard = WindowShard::new(window, ShedPolicy::default(), tw, metrics);
        shard.warm = Some(DelayRegistry::default());
        let (tx, builder) = PipelineBuilder::<RpcRecord>::source(&telemetry, 1024);
        let pipeline = builder
            .stage(
                WindowRouter::new(window, Nanos::from_millis(200), None),
                1024,
            )
            .stage(shard, 1024)
            .stage(ArchiveStage::new(online.clone()), 1024)
            .build();
        for r in &records {
            tx.send(*r).unwrap();
        }
        drop(tx);
        let mut windows = Vec::new();
        for w in pipeline.results().iter() {
            let mut expected = stored_traces(&w);
            expected.sort_by_key(|t| (t.window, t.start, t.root, t.end));
            let query = TraceQuery {
                window: Some(w.index),
                limit: usize::MAX,
                ..TraceQuery::default()
            };
            assert_eq!(online.query(&query), expected, "window {}", w.index);
            windows.push(w);
        }
        assert!(pipeline.shutdown().expect_clean().is_empty());

        let reference = archive("reference");
        let mut filled = 0;
        for w in &windows {
            let before = reference.segment_count();
            reference.observe_window(w.index, stored_traces(w));
            filled += usize::from(reference.segment_count() > before);
        }
        reference.sync();
        assert!(filled >= 3, "{filled} windows filled a segment");
        assert_eq!(
            dir_bytes(&dir.join("online")),
            dir_bytes(&dir.join("reference"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
