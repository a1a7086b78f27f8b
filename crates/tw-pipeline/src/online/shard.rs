//! What sealing a window does: the windowing+reconstruction shard, the
//! warm registry chain it may carry, and the `tw_engine_*` series every
//! sealed window reports into.

use super::config::{DegradationLevel, ShedPolicy, WindowResult};
use super::router::WindowMsg;
use super::shed::{LadderedWeaver, ShedLadder};
use crate::checkpoint::ShardCheckpoint;
use crate::pipeline::{Emitter, Stage, StageCtx};
use std::collections::btree_map::Entry;
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
        if *last_level != Some(result.degradation) {
            if last_level.is_some() {
                self.transitions[result.degradation as usize].inc();
            }
            *last_level = Some(result.degradation);
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
    /// Open "collect" spans, finished when the window's cut mark arrives.
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
            last_level: None,
            warm: None,
            checkpoint: None,
            trace: None,
            collect_spans: BTreeMap::new(),
        }
    }

    /// Reconstruct window `index` against the current prior. The returned
    /// gap round is empty unless the window ran warm; `started` is the
    /// seal's start, so [`WindowResult::latency`] runs from there to the
    /// result.
    fn reconstruct(
        &mut self,
        index: u64,
        records: Vec<RpcRecord>,
        backlog: usize,
        level: DegradationLevel,
        started: Instant,
    ) -> (WindowResult, GapRound) {
        let end = Nanos((index + 1).saturating_mul(self.window.0));
        let warm_edges = self.warm.as_ref().map_or(0, DelayRegistry::len);
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
        let latency = started.elapsed();
        let result = WindowResult {
            index,
            end,
            records,
            reconstruction,
            queue_depth: backlog,
            latency,
            warm_edges,
            degradation: level,
            shed_records,
        };
        drop(span); // reconstruction done; observe_window still needs the live tree
        self.metrics.observe_window(&result, &mut self.last_level);
        (result, round)
    }

    /// Seal window `index`, the one thing a cut mark and the shutdown
    /// drain both do: pick the ladder rung, end the window's "collect"
    /// span, reconstruct against the prior, hand the result downstream,
    /// absorb the window's gaps into the registry, advance the sealed
    /// watermark and write the checkpoint when it is due, and seal the
    /// span tree. `tick_depth` is the shard's input-queue depth at a live
    /// cut mark and `None` in the drain (see [`ShedLadder::pick_level`]).
    fn seal(&mut self, index: u64, tick_depth: Option<usize>, out: &mut Emitter<WindowResult>) {
        let started = Instant::now();
        let level = self.shed.pick_level(tick_depth);
        // An empty window was never buffered and produces no result.
        let records = self.open.remove(&index);
        let emitted = records.is_some();
        if let Some(records) = records {
            drop(self.collect_spans.remove(&index)); // buffering ends at the cut
            let backlog = self.open.len();
            let (result, round) = self.reconstruct(index, records, backlog, level, started);
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
                if let Some(trace) = &self.trace {
                    if let Entry::Vacant(e) = self.collect_spans.entry(index) {
                        if let Some(guard) = trace.span(index, "collect") {
                            e.insert(guard);
                        }
                    }
                }
                self.open.entry(index).or_default().push(rec);
            }
            WindowMsg::Cut(index) => self.seal(index, Some(ctx.queue_depth), out),
        }
    }

    /// Drain on shutdown: seal every still-open window, in index order,
    /// through the same ladder — partially filled windows flush through
    /// reconstruction instead of being dropped — then make the final
    /// checkpoint, the one way out for the final registry.
    fn flush(&mut self, _ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
        while let Some(index) = self.open.keys().next().copied() {
            self.seal(index, None, out);
        }
        if let Some(checkpoint) = &mut self.checkpoint {
            checkpoint.write(self.warm.as_ref());
        }
    }
}
