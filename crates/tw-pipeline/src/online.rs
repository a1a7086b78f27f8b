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
//! ([`crate::pipeline`], DESIGN.md §11): every hop is a bounded queue
//! with explicit backpressure and `tw_pipeline_*` telemetry,
//!
//! ```text
//! ingest ─▶ [sanitize] ─▶ window-router ─▶ window/0..N (shards) ─▶ merge ─▶ results
//! ```
//!
//! The *window router* runs sequentially over the arrival stream: it
//! stamps every record with its effective window index (the window the
//! legacy single-threaded windower would have flushed it in), routes it
//! to `hash(index) % shards`, and — when the watermark passes a window's
//! end plus grace — broadcasts a cut mark all shards observe. Each
//! *window shard* buffers its windows and reconstructs one whole window
//! per cut mark (windows are independent, like per-service tasks within
//! one); the *merge* stage restores deterministic global window order by
//! streaming the minimum window index across shard outputs. Because the
//! router's index assignment depends only on arrival order, each window's
//! contents — and therefore each window's reconstruction — are identical
//! for every shard count: 1, 2, and 8 shards emit byte-identical result
//! streams, shards change wall time only.
//!
//! **Warm-start mode** ([`OnlineConfig::warm_start`]) threads a
//! [`DelayRegistry`] through the window stream: window *k*'s posterior is
//! published — in window order — before window *k+1* is reconstructed, so
//! every window after the first skips the seed bootstrap and starts EM
//! from accumulated cross-window evidence. Windows gain a sequential
//! model dependency in this mode, so the warm path runs on a single
//! window shard (the registry chain *is* the order); use
//! [`tw_core::Params::threads`] for intra-window parallelism instead of
//! `OnlineConfig::shards`. The emitted stream stays byte-identical for
//! every thread count.

use crate::archive::ArchiveStage;
use crate::checkpoint::{
    load_checkpoint, CheckpointConfig, CheckpointSources, Checkpointer, RecoveryMetrics,
};
use crate::pipeline::{
    Backpressure, Emitter, FanOut, Pipeline, PipelineBuilder, QueueCfg, Sequenced, ShardEmitters,
    ShardMsg, Stage, StageCtx,
};
use crate::sanitize::{SanitizeConfig, SanitizeMetrics, SanitizeStage, SanitizeStats};
use crate::supervise::{DeadLetterQueue, RestartPolicy, Supervisor};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tw_core::{DelayRegistry, Reconstruction, RegistryWatch, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_store::{spawn_compactor, ArchiveConfig, CompactorHandle, TraceArchive};
use tw_telemetry::trace::{SpanGuard, SpanRecorder};
use tw_telemetry::{Buckets, Counter, Gauge, Histogram, Registry};

/// How much of the reconstruction pipeline a window ran through — the
/// load-shedding ladder of DESIGN.md §9, ordered lightest to heaviest
/// degradation. Levels are strictly ordered: a deeper queue never picks a
/// lighter level than a shallower one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Normal operation: full batch size, exact joint optimization.
    #[default]
    Full,
    /// Batch size halved: smaller MIS instances, bounded solve cost.
    ShrinkBatch,
    /// Joint optimization disabled: greedy per-span assignment only.
    Greedy,
    /// Window not reconstructed at all; its records are carried through
    /// with explicit accounting ([`WindowResult::shed_records`]).
    Skip,
}

/// When to shed load. The default never sheds: any depth-driven choice is
/// timing-dependent and forfeits the byte-identical-across-thread-counts
/// guarantee. `forced` pins every window to one level regardless of queue
/// depth, which is both the deterministic escape hatch for
/// tests/benchmarks and a manual operator override.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShedPolicy {
    /// Pin every window to this level (ignores queue depth entirely).
    pub forced: Option<DegradationLevel>,
    /// Slope-driven ladder: move one rung when the *EWMA of the shard's
    /// input-queue-depth delta per cut tick* crosses a slope bound, with
    /// a hold-down so the ladder doesn't flap. `forced` still wins.
    pub adaptive: bool,
}

/// Parameters of the slope-driven shed ladder. The signal is the change
/// in the shard's input-queue depth (`tw_pipeline_queue_depth`) between
/// consecutive window-cut ticks, smoothed with an EWMA: a persistently
/// positive slope means ingest outruns reconstruction *now*; a negative
/// slope means the backlog is draining and it is safe to climb back down.
/// Hysteresis comes from two asymmetries: `down_slope` is strictly below
/// `up_slope` (a dead band where the ladder holds), and any transition
/// arms a `hold` countdown of ticks during which no further transition
/// fires.
#[derive(Debug, Clone, Copy)]
struct AdaptiveShed {
    /// EWMA smoothing factor for the per-tick depth delta, in (0, 1].
    alpha: f64,
    /// Escalate one rung when the smoothed slope exceeds this
    /// (items/tick).
    up_slope: f64,
    /// Relax one rung when the smoothed slope falls below this.
    down_slope: f64,
    /// Cut ticks to hold after a transition before the next one may fire.
    hold: u32,
}

impl Default for AdaptiveShed {
    fn default() -> Self {
        AdaptiveShed {
            alpha: 0.3,
            up_slope: 0.5,
            down_slope: -0.25,
            hold: 3,
        }
    }
}

/// Per-shard runtime state of the adaptive ladder.
#[derive(Debug, Clone)]
struct AdaptiveState {
    cfg: AdaptiveShed,
    ewma: f64,
    last_depth: f64,
    rung: usize,
    cooldown: u32,
    primed: bool,
}

impl AdaptiveState {
    const LEVELS: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::ShrinkBatch,
        DegradationLevel::Greedy,
        DegradationLevel::Skip,
    ];

    fn new(cfg: AdaptiveShed) -> Self {
        AdaptiveState {
            cfg,
            ewma: 0.0,
            last_depth: 0.0,
            rung: 0,
            cooldown: 0,
            primed: false,
        }
    }

    /// Advance one cut tick with the observed input-queue depth and
    /// return the rung to run the next window at.
    fn on_tick(&mut self, depth: usize) -> DegradationLevel {
        let depth = depth as f64;
        if !self.primed {
            self.primed = true;
            self.last_depth = depth;
        }
        let delta = depth - self.last_depth;
        self.last_depth = depth;
        self.ewma = self.cfg.alpha * delta + (1.0 - self.cfg.alpha) * self.ewma;
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if self.ewma > self.cfg.up_slope && self.rung < Self::LEVELS.len() - 1 {
            self.rung += 1;
            self.cooldown = self.cfg.hold;
        } else if self.ewma < self.cfg.down_slope && self.rung > 0 {
            self.rung -= 1;
            self.cooldown = self.cfg.hold;
        }
        Self::LEVELS[self.rung]
    }
}

/// Per-shard shed ladder: a [`ShedPolicy`] plus the adaptive ladder's
/// runtime state.
#[derive(Debug, Clone)]
struct ShedLadder {
    forced: Option<DegradationLevel>,
    adaptive: Option<AdaptiveState>,
}

impl ShedLadder {
    fn new(policy: ShedPolicy) -> Self {
        ShedLadder {
            forced: policy.forced,
            adaptive: policy
                .adaptive
                .then(|| AdaptiveState::new(AdaptiveShed::default())),
        }
    }

    /// Ladder rung for the next window. `tick_depth` is the shard's
    /// input-queue depth at the cut mark (`Some` only on the live mark
    /// path — the adaptive ladder's signal); the shutdown flush passes
    /// `None` and holds the current rung, so draining never sheds what a
    /// live overload would not have.
    fn pick_level(&mut self, tick_depth: Option<usize>) -> DegradationLevel {
        if let Some(level) = self.forced {
            return level;
        }
        match (self.adaptive.as_mut(), tick_depth) {
            (Some(state), Some(depth)) => state.on_tick(depth),
            (Some(state), None) => AdaptiveState::LEVELS[state.rung],
            (None, _) => DegradationLevel::Full,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Window length (paper suggests 1–5s of spans per optimization).
    pub window: Nanos,
    /// Extra wait beyond the window end before processing, covering the
    /// app's maximum response latency.
    pub grace: Nanos,
    /// Channel capacity for ingestion back-pressure: every record-carrying
    /// queue in the pipeline graph is bounded to this many items.
    pub channel_capacity: usize,
    /// Window shards: the window stream fans out over this many parallel
    /// windowing+reconstruction stages, keyed by a stable hash of the
    /// window index, and a merge stage restores global window order.
    /// Results are byte-identical for every value — shards change wall
    /// time only. Defaults to 1; `0` is clamped to 1, as is any value in
    /// warm-start mode (the registry chain serializes windows).
    pub shards: usize,
    /// Run a [`SanitizeStage`] between ingest and windowing, inside the
    /// same supervised graph ([`crate::serve_online_sanitized`] sets
    /// this). `None` feeds records to the window router unfiltered.
    pub sanitize: Option<SanitizeConfig>,
    /// Overflow policy for the record-carrying queues
    /// ([`Backpressure::Block`] by default — lossless, pressure
    /// propagates to ingest). [`Backpressure::Shed`] drops records at
    /// full queues with `tw_pipeline_shed_total` accounting; window-cut
    /// marks always survive.
    pub backpressure: Backpressure,
    /// Carry a [`DelayRegistry`] across windows: each window warm-starts
    /// from the posterior published by the previous window, decoupling
    /// estimation quality from window size (§5.3's window-sizing
    /// tension).
    pub warm_start: bool,
    /// Starting registry for warm mode — e.g. loaded from a previous
    /// run's posterior or `twctl learn-delays` output. `None` starts
    /// empty (the first window seeds cold and publishes the first
    /// posterior).
    pub initial_registry: Option<DelayRegistry>,
    /// Back-pressure load shedding (DESIGN.md §9). Disabled by default to
    /// preserve determinism across thread counts.
    pub shed: ShedPolicy,
    /// Per-stage restart policy for the supervised pipeline (DESIGN.md
    /// §12): a panicking stage quarantines the offending record to the
    /// dead-letter queue and resumes within this backoff budget instead
    /// of tearing the graph down.
    pub restart: RestartPolicy,
    /// Crash-safe checkpointing (DESIGN.md §12): periodically persist the
    /// sealed-window watermark, sanitizer skew state, and warm registry;
    /// restore them on the next start and resume past the watermark.
    /// `None` (the default) disables checkpointing entirely.
    pub checkpoint: Option<CheckpointConfig>,
    /// Registry for the engine's `tw_engine_*` series (window latency and
    /// queue-depth histograms, per-rung window counts, shed-ladder
    /// transitions). Defaults to a private registry; share one across the
    /// server/sanitizer/engine (and a `MetricsServer`) to scrape the whole
    /// pipeline. Telemetry never feeds back into reconstruction, so
    /// results stay byte-identical with or without observers.
    pub telemetry: Registry,
    /// Self-tracing recorder (`tw_telemetry::trace`): when set, every
    /// head-sampled window records one span tree as it flows
    /// sanitize → route → collect → reconstruct → merge hand-off, with
    /// supervisor restarts and checkpoint writes attached as events, and
    /// slow-window latency observations carry `window_id`/`span_id`
    /// exemplars. `None` (the default) disables self-tracing entirely.
    /// Like metrics, tracing never feeds back into reconstruction.
    pub trace: Option<SpanRecorder>,
    /// Durable trace archive (DESIGN.md §14): when set, an archive sink
    /// stage after the merge converts each sealed window's reconstruction
    /// into stored traces and appends them to a segmented on-disk archive
    /// (`tw-store`), queryable via [`OnlineEngine::archive`], `GET
    /// /traces`, and `twctl query`. The archive's durable watermark rides
    /// in the checkpoint so restarts neither re-archive nor lose sealed
    /// windows. `None` (the default) disables archiving entirely.
    pub archive: Option<ArchiveConfig>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: Nanos::from_secs(1),
            grace: Nanos::from_millis(200),
            channel_capacity: 65_536,
            shards: 1,
            sanitize: None,
            backpressure: Backpressure::Block,
            warm_start: false,
            initial_registry: None,
            shed: ShedPolicy::default(),
            restart: RestartPolicy::default(),
            checkpoint: None,
            telemetry: Registry::new(),
            trace: None,
            archive: None,
        }
    }
}

/// Registry-backed engine instrumentation, cloned into every worker. The
/// previous per-window latency/queue-depth fields on [`WindowResult`]
/// remain as per-window snapshots; these series are their cumulative view.
#[derive(Debug, Clone)]
struct EngineMetrics {
    windows_full: Counter,
    windows_shrink: Counter,
    windows_greedy: Counter,
    windows_skip: Counter,
    /// Per-worker ladder movements, labeled by the rung moved to.
    transitions: [Counter; 4],
    latency: Histogram,
    pickup_queue_depth: Histogram,
    queue_depth: Gauge,
    records: Counter,
    shed_records: Counter,
    warm_edges: Gauge,
    /// When set, window-latency observations of self-traced windows carry
    /// an OpenMetrics exemplar linking the bucket to the window's span
    /// tree (`window_id`/`span_id`, retrievable via `GET /spans`).
    recorder: Option<SpanRecorder>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
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
        EngineMetrics {
            windows_full: windows("full"),
            windows_shrink: windows("shrink_batch"),
            windows_greedy: windows("greedy"),
            windows_skip: windows("skip"),
            transitions: [
                transition("full"),
                transition("shrink_batch"),
                transition("greedy"),
                transition("skip"),
            ],
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
            queue_depth: registry.gauge(
                "tw_engine_queue_depth",
                "Work-queue depth at the most recent window pickup.",
            ),
            records: registry.counter(
                "tw_engine_records_total",
                "Records processed through windows (reconstructed or shed).",
            ),
            shed_records: registry.counter(
                "tw_engine_shed_records_total",
                "Records carried through unreconstructed because their window was skipped.",
            ),
            warm_edges: registry.gauge(
                "tw_engine_warm_edges",
                "Delay-registry edges the most recent warm window started from.",
            ),
            recorder: None,
        }
    }

    fn window_counter(&self, level: DegradationLevel) -> &Counter {
        match level {
            DegradationLevel::Full => &self.windows_full,
            DegradationLevel::ShrinkBatch => &self.windows_shrink,
            DegradationLevel::Greedy => &self.windows_greedy,
            DegradationLevel::Skip => &self.windows_skip,
        }
    }

    /// Record one finished window. `last_level` is the worker-local
    /// previous rung, used to count ladder transitions.
    fn observe_window(&self, result: &WindowResult, last_level: &mut Option<DegradationLevel>) {
        self.window_counter(result.degradation).inc();
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
        self.queue_depth.set(result.queue_depth as f64);
        self.records.add(result.records.len() as u64);
        self.shed_records.add(result.shed_records as u64);
        if result.warm_edges > 0 {
            self.warm_edges.set(result.warm_edges as f64);
        }
    }
}

/// One reconstructed window.
#[derive(Debug)]
pub struct WindowResult {
    /// Window index (0-based).
    pub index: u64,
    /// Window end (records with `recv_resp <= end` were processed).
    pub end: Nanos,
    /// Records processed in this window.
    pub records: Vec<RpcRecord>,
    pub reconstruction: Reconstruction,
    /// Windows still waiting in the work queue when this one was picked
    /// up — a live back-pressure signal (persistently > 0 means
    /// reconstruction can't keep up with ingest at this thread count).
    pub queue_depth: usize,
    /// Wall-clock time the reconstruction of this window took.
    pub latency: Duration,
    /// Delay-registry edges this window warm-started from (0 = cold
    /// start: no prior, or warm mode disabled).
    pub warm_edges: usize,
    /// Ladder rung this window ran at (DESIGN.md §9). Anything but
    /// [`DegradationLevel::Full`] means the engine was shedding load.
    pub degradation: DegradationLevel,
    /// Records carried through *without* reconstruction because the
    /// window was shed at [`DegradationLevel::Skip`] (0 otherwise). The
    /// sum of `records.len()` across windows still equals the ingested
    /// record count — skipping never silently drops data.
    pub shed_records: usize,
}

impl WindowResult {
    /// Fraction of this window's incoming spans that received a mapping —
    /// a cheap live health signal for the deployment. A shed (skipped)
    /// window mapped nothing, so it reports 0.
    pub fn mapped_fraction(&self) -> f64 {
        if self.shed_records > 0 {
            return 0.0;
        }
        let (mapped, total) = self
            .reconstruction
            .reports
            .iter()
            .fold((0usize, 0usize), |(m, t), (_, r)| {
                (m + r.mapped_spans, t + r.total_spans)
            });
        if total == 0 {
            1.0
        } else {
            mapped as f64 / total as f64
        }
    }
}

impl Sequenced for WindowResult {
    /// Window indices are globally unique (each window is owned by
    /// exactly one shard) and each shard emits in ascending index order,
    /// so merging on the index restores global window order.
    fn seq(&self) -> u64 {
        self.index
    }
}

/// The window router ([`FanOut`]): the sequential head of the sharded
/// windowing stage. For each record, in arrival order, it computes the
/// *effective window index* — `max(⌈recv_resp / window⌉ − 1, first
/// uncut window)`, exactly the window the legacy single-threaded
/// windower would have flushed the record in (late records land in the
/// first window still open at their arrival) — and routes the record to
/// `shard_hash(index) % shards`. When the watermark passes a window's
/// end plus grace it broadcasts a cut [`ShardMsg::Mark`] every shard
/// observes. Item-before-mark queue order guarantees a window's records
/// are all buffered in its owning shard before any shard sees the cut,
/// so window contents are invariant in the shard count.
struct WindowRouter {
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
    fn new(window: Nanos, grace: Nanos) -> Self {
        WindowRouter {
            window: Nanos(window.0.max(1)),
            grace,
            watermark: Nanos::ZERO,
            first_uncut: 0,
            recovery: None,
            trace: None,
            route_spans: BTreeMap::new(),
        }
    }

    /// Resume routing at a restored watermark: every window with index
    /// below `first_uncut` was already sealed by the previous process,
    /// so replayed/late records fold into the first still-open window —
    /// nothing before the watermark is re-emitted.
    fn resume(window: Nanos, grace: Nanos, first_uncut: u64, windows_lost: Gauge) -> Self {
        WindowRouter {
            first_uncut,
            recovery: Some(RouterRecovery {
                resumed_at: first_uncut,
                windows_lost,
            }),
            ..WindowRouter::new(window, grace)
        }
    }

    /// Nominal end of window `index`: records with `recv_resp <= end`
    /// belong to it (or an earlier one).
    fn window_end(&self, index: u64) -> u64 {
        (index + 1).saturating_mul(self.window.0)
    }
}

impl FanOut for WindowRouter {
    type In = RpcRecord;
    type Out = (u64, RpcRecord);

    fn name(&self) -> &str {
        "window-router"
    }

    fn route(&mut self, rec: RpcRecord, outs: &mut ShardEmitters<(u64, RpcRecord)>) {
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
            if let std::collections::btree_map::Entry::Vacant(e) = self.route_spans.entry(index) {
                if let Some(guard) = trace.span(index, "route") {
                    e.insert(guard);
                }
            }
        }
        let shard = (crate::pipeline::shard_hash(index) % outs.shards() as u64) as usize;
        outs.send(shard, (index, rec));
        while self.watermark.0
            >= self
                .window_end(self.first_uncut)
                .saturating_add(self.grace.0)
        {
            if let Some(guard) = self.route_spans.remove(&self.first_uncut) {
                guard.event(format!("cut at watermark {}", self.watermark.0));
            }
            outs.broadcast_mark(self.first_uncut);
            self.first_uncut += 1;
        }
    }
    // No flush override: windows still open when the stream closes are
    // flushed by the shards themselves (their input queues close after
    // the router exits).
}

/// Warm-start state carried by the single window shard in warm mode: the
/// registry chain plus the channel that hands the final posterior back
/// through [`OnlineEngine::shutdown_with_registry`].
struct WarmState {
    registry: DelayRegistry,
    out: Sender<DelayRegistry>,
    /// Checkpointing hook: the posterior is published here after every
    /// absorbed window so the checkpointer can persist a warm registry
    /// no staler than one window.
    watch: Option<RegistryWatch>,
}

/// One windowing+reconstruction shard ([`Stage`]): buffers the records
/// of the windows it owns, reconstructs one whole window per cut mark,
/// and flushes still-open windows (in index order) on shutdown — the
/// drain path that guarantees no record is silently dropped.
struct WindowShard {
    name: String,
    window: Nanos,
    shed: ShedLadder,
    ladder: LadderedWeaver,
    metrics: EngineMetrics,
    /// Open windows owned by this shard, keyed by window index. `len()`
    /// is the shard's backlog, reported as [`WindowResult::queue_depth`].
    open: BTreeMap<u64, Vec<RpcRecord>>,
    last_level: Option<DegradationLevel>,
    warm: Option<WarmState>,
    /// This shard's sealed watermark (`highest cut index + 1`), sampled
    /// by the checkpointer; the global watermark is the minimum across
    /// shards. `None` when checkpointing is off.
    sealed: Option<Arc<AtomicU64>>,
    /// Self-trace recorder; the shard contributes "collect" (buffering)
    /// and "reconstruct" spans and seals each window's tree after the
    /// merge hand-off.
    trace: Option<SpanRecorder>,
    /// Open "collect" spans for windows this shard owns, finished when
    /// the window's cut mark arrives.
    collect_spans: BTreeMap<u64, SpanGuard>,
}

impl WindowShard {
    fn reconstruct(
        &mut self,
        index: u64,
        records: Vec<RpcRecord>,
        backlog: usize,
        level: DegradationLevel,
    ) -> WindowResult {
        let end = Nanos((index + 1).saturating_mul(self.window.0));
        let warm_edges = self.warm.as_ref().map_or(0, |w| w.registry.len());
        let span = self
            .trace
            .as_ref()
            .and_then(|t| t.span(index, "reconstruct"));
        if let Some(span) = &span {
            span.event(format!("level {level:?}, {} records", records.len()));
        }
        let t0 = std::time::Instant::now();
        // A skipped window contributes no posterior: the registry carries
        // the last reconstructed window's models forward unchanged.
        let (reconstruction, shed_records) = match self.ladder.for_level(level) {
            Some(tw) => match self.warm.as_mut() {
                Some(warm) => {
                    let (reconstruction, posterior) =
                        tw.reconstruct_records_with_registry(&records, &warm.registry);
                    warm.registry = posterior;
                    if let Some(watch) = &warm.watch {
                        watch.publish(&warm.registry);
                    }
                    (reconstruction, 0)
                }
                None => (tw.reconstruct_records(&records), 0),
            },
            None => (Reconstruction::default(), records.len()),
        };
        let latency = t0.elapsed();
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
        result
    }

    /// Seal `index`'s span tree after its result was handed to the merge.
    fn seal_trace(&self, index: u64) {
        if let Some(trace) = &self.trace {
            trace.event(index, None, "merge hand-off");
            trace.seal(index);
        }
    }
}

impl Stage for WindowShard {
    type In = ShardMsg<(u64, RpcRecord)>;
    type Out = WindowResult;

    fn name(&self) -> &str {
        &self.name
    }

    fn process(
        &mut self,
        msg: ShardMsg<(u64, RpcRecord)>,
        ctx: &StageCtx,
        out: &mut Emitter<WindowResult>,
    ) {
        match msg {
            ShardMsg::Item((index, rec)) => {
                if let Some(trace) = &self.trace {
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        self.collect_spans.entry(index)
                    {
                        if let Some(guard) = trace.span(index, "collect") {
                            e.insert(guard);
                        }
                    }
                }
                self.open.entry(index).or_default().push(rec);
            }
            ShardMsg::Mark(index) => {
                // Every shard observes every mark in cut order, so each
                // shard's sealed watermark advances even for windows it
                // does not own — the min across shards is the global
                // sealed frontier the checkpointer persists.
                let level = self.shed.pick_level(Some(ctx.queue_depth));
                // Only the owning shard buffered this window; everyone
                // else observes the mark and moves on. Empty windows were
                // never buffered anywhere and produce no result.
                if let Some(records) = self.open.remove(&index) {
                    drop(self.collect_spans.remove(&index)); // buffering ends at the cut
                    let backlog = self.open.len();
                    let result = self.reconstruct(index, records, backlog, level);
                    out.emit(result);
                    self.seal_trace(index);
                }
                if let Some(sealed) = &self.sealed {
                    sealed.fetch_max(index + 1, Ordering::AcqRel);
                }
            }
        }
    }

    /// Drain on shutdown: reconstruct every still-open window, in index
    /// order, through the same ladder — partially filled windows flush
    /// through reconstruction instead of being dropped.
    fn flush(&mut self, _ctx: &StageCtx, out: &mut Emitter<WindowResult>) {
        let open = std::mem::take(&mut self.open);
        let mut backlog = open.len();
        for (index, records) in open {
            backlog -= 1;
            let level = self.shed.pick_level(None);
            drop(self.collect_spans.remove(&index));
            let result = self.reconstruct(index, records, backlog, level);
            out.emit(result);
            self.seal_trace(index);
            if let Some(sealed) = &self.sealed {
                sealed.fetch_max(index + 1, Ordering::AcqRel);
            }
        }
        if let Some(warm) = self.warm.take() {
            if let Some(watch) = &warm.watch {
                watch.publish(&warm.registry);
            }
            let _ = warm.out.send(warm.registry);
        }
    }
}

/// The online engine: a supervised [`Pipeline`] composing (optional)
/// sanitize → window-router → window shards → merge, built with
/// [`PipelineBuilder`].
///
/// Dropping / closing the ingest sender cascades an ordered shutdown
/// through the graph: every stage drains its input, flushes buffered
/// state (open windows reconstruct, they are never dropped), and closes
/// its output.
pub struct OnlineEngine {
    ingest: Option<Sender<RpcRecord>>,
    results: Receiver<WindowResult>,
    pipeline: Option<Pipeline<WindowResult>>,
    registry: Option<Receiver<DelayRegistry>>,
    sanitize_metrics: Option<SanitizeMetrics>,
    dead_letters: DeadLetterQueue,
    checkpointer: Option<Checkpointer>,
    archive: Option<Arc<TraceArchive>>,
    compactor: Option<CompactorHandle>,
    /// Stage failures surfaced by the last drain (escalated supervisors,
    /// merge-thread panics) — populated by shutdown, empty on a clean run.
    failures: Vec<String>,
}

impl OnlineEngine {
    pub fn start(tw: TraceWeaver, mut config: OnlineConfig) -> Self {
        let warm = config.warm_start;
        // Warm windows chain through the registry (k+1 starts from k's
        // posterior), so the warm path runs on a single shard.
        let shards = if warm { 1 } else { config.shards.max(1) };
        let shed = config.shed;
        let window = Nanos(config.window.0.max(1));
        let trace = config.trace.clone();
        let mut metrics = EngineMetrics::new(&config.telemetry);
        metrics.recorder = trace.clone();
        let record_queue = QueueCfg {
            capacity: config.channel_capacity,
            policy: config.backpressure,
        };

        // Restore persisted online state before anything is built: the
        // watermark seeds the router, the sanitizer snapshot seeds the
        // skew filters, and the checkpointed registry takes precedence
        // over any configured bootstrap (it is strictly newer).
        let recovery = config
            .checkpoint
            .as_ref()
            .map(|_| RecoveryMetrics::new(&config.telemetry));
        let mut start_watermark = 0u64;
        let mut sanitizer_snapshot = None;
        if let (Some(ck), Some(rm)) = (&config.checkpoint, &recovery) {
            match load_checkpoint(&ck.dir) {
                Ok(doc) if doc.window_ns == window.0 => {
                    rm.restores.inc();
                    rm.watermark.set(doc.watermark as f64);
                    start_watermark = doc.watermark;
                    sanitizer_snapshot = doc.sanitizer;
                    if let Some(registry) = doc.registry {
                        config.initial_registry = Some(registry);
                    }
                }
                Ok(doc) => {
                    // A watermark computed under a different window size
                    // indexes different windows — unusable, cold start.
                    eprintln!(
                        "tw-online: checkpoint window {}ns != configured {}ns; cold start",
                        doc.window_ns, window.0
                    );
                    rm.cold_corrupt.inc();
                }
                Err(err) => {
                    rm.count_cold_start(&err);
                    if !matches!(err, crate::checkpoint::CheckpointError::Missing) {
                        eprintln!("tw-online: checkpoint not restored: {err}; cold start");
                    }
                }
            }
        }
        // Open the archive before the router is seeded: the resume point
        // must not outrun the archive's durable watermark, or windows
        // sealed-but-not-yet-archived before the crash would never reach
        // a segment. `min(checkpoint, archive)` re-reconstructs the gap
        // (deterministically, so downstream consumers see identical
        // windows) and the archive's own watermark dedup skips anything
        // already committed.
        let archive = config.archive.take().map(|cfg| {
            let compact_interval = cfg.compact_interval;
            let archive = Arc::new(
                TraceArchive::open(cfg, &config.telemetry)
                    .expect("tw-online: archive directory unavailable"),
            );
            (archive, compact_interval)
        });
        if let Some((archive, _)) = &archive {
            let archived = archive.watermark();
            if archived < start_watermark {
                eprintln!(
                    "tw-online: archive watermark {archived} behind checkpoint \
                     {start_watermark}; resuming at {archived} to re-archive the gap"
                );
                start_watermark = archived;
            }
        }
        let mut sources = config
            .checkpoint
            .as_ref()
            .map(|_| CheckpointSources::new(shards, window.0, start_watermark));
        if let (Some(src), Some((archive, _))) = (&mut sources, &archive) {
            src.archive = Some(archive.watermark_handle());
        }

        // Each shard reconstructs with an equal share of the configured
        // intra-window executor threads (results are thread-count
        // invariant, so the share only affects wall time).
        let base = TraceWeaver::new(tw.call_graph().clone(), tw.params().share_threads(shards));

        let (reg_tx, reg_rx) = bounded::<DelayRegistry>(1);
        let mut warm_state = warm.then(|| WarmState {
            registry: config.initial_registry.take().unwrap_or_default(),
            out: reg_tx,
            watch: sources.as_ref().map(|s| s.registry.clone()),
        });

        let mut supervisor = Supervisor::new(config.restart, DeadLetterQueue::default());
        if let Some(recorder) = &trace {
            supervisor = supervisor.with_recorder(recorder.clone());
        }
        let dead_letters = supervisor.dead_letters().clone();
        let (ingest_tx, builder) =
            PipelineBuilder::<RpcRecord>::source(&config.telemetry, record_queue);
        let builder = builder.supervised(supervisor);
        let (builder, sanitize_metrics) = match config.sanitize.take() {
            Some(cfg) => {
                let mut stage = SanitizeStage::new_in(cfg, &config.telemetry);
                if let Some(snapshot) = &sanitizer_snapshot {
                    stage.restore(snapshot);
                }
                if let Some(recorder) = &trace {
                    stage = stage.with_trace(recorder.clone(), window.0);
                }
                if let Some(src) = &sources {
                    stage = stage.publish_snapshots(src.sanitizer.clone());
                }
                let handle = stage.metrics_handle();
                (builder.stage(stage, record_queue), Some(handle))
            }
            None => (builder, None),
        };
        let mut router = match (&recovery, start_watermark) {
            (Some(rm), w) if w > 0 => {
                WindowRouter::resume(window, config.grace, w, rm.windows_lost.clone())
            }
            _ => WindowRouter::new(window, config.grace),
        };
        router.trace = trace.clone();
        let sealed = sources.as_ref().map(|s| s.sealed.clone());
        let builder = builder.shard(
            shards,
            router,
            |i| WindowShard {
                name: format!("window/{i}"),
                window,
                shed: ShedLadder::new(shed),
                ladder: LadderedWeaver::new(base.clone()),
                metrics: metrics.clone(),
                open: BTreeMap::new(),
                last_level: None,
                warm: warm_state.take(),
                sealed: sealed.as_ref().map(|v| v[i].clone()),
                trace: trace.clone(),
                collect_spans: BTreeMap::new(),
            },
            record_queue,
        );
        // The archive sink rides after the merge, where window order is
        // global and deterministic. Its hop always blocks: window results
        // are never shed, whatever the record queues' policy.
        let builder = match &archive {
            Some((archive, _)) => builder.stage(
                ArchiveStage::new(archive.clone()),
                QueueCfg {
                    capacity: config.channel_capacity,
                    policy: Backpressure::Block,
                },
            ),
            None => builder,
        };
        let pipeline = builder.build();
        let compactor = archive
            .as_ref()
            .map(|(archive, interval)| spawn_compactor(archive, *interval));

        let checkpointer = match (config.checkpoint.as_ref(), sources, recovery) {
            (Some(ck), Some(sources), Some(rm)) => {
                Some(Checkpointer::spawn(ck, sources, rm, trace.clone()))
            }
            _ => None,
        };

        OnlineEngine {
            ingest: Some(ingest_tx),
            results: pipeline.results().clone(),
            pipeline: Some(pipeline),
            registry: warm.then_some(reg_rx),
            sanitize_metrics,
            dead_letters,
            checkpointer,
            archive: archive.map(|(archive, _)| archive),
            compactor,
            failures: Vec::new(),
        }
    }

    /// The engine's trace archive, when [`OnlineConfig::archive`] was
    /// set. Shares state with the running archive stage, so it is
    /// queryable live and stays readable after shutdown.
    pub fn archive(&self) -> Option<&Arc<TraceArchive>> {
        self.archive.as_ref()
    }

    /// Sender half for span ingestion (clone freely across capture
    /// threads).
    pub fn ingest_handle(&self) -> Sender<RpcRecord> {
        self.ingest.as_ref().expect("engine running").clone()
    }

    /// Receiver of reconstructed windows, emitted in window order.
    pub fn results(&self) -> &Receiver<WindowResult> {
        &self.results
    }

    /// Live snapshot of the embedded sanitize stage's per-reason counters
    /// (`None` when [`OnlineConfig::sanitize`] was not set). Stays
    /// readable after shutdown.
    pub fn sanitize_stats(&self) -> Option<SanitizeStats> {
        self.sanitize_metrics.as_ref().map(SanitizeMetrics::stats)
    }

    /// The supervised pipeline's dead-letter queue: records quarantined
    /// because a stage panicked on them (DESIGN.md §12). Shares state
    /// with the running graph, so it is inspectable live and stays
    /// readable after shutdown.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }

    /// Stage failures surfaced by the drain (escalated supervisors or a
    /// panicked merge thread), rendered for operators. Empty before
    /// shutdown and after a clean run.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Stage names of the underlying pipeline graph, in topological
    /// order.
    pub fn stage_names(&self) -> Vec<String> {
        self.pipeline
            .as_ref()
            .map(|p| p.stage_names().iter().map(|s| s.to_string()).collect())
            .unwrap_or_default()
    }

    /// Close ingestion, flush, and wait for the pipeline to drain.
    /// Returns any remaining window results.
    pub fn shutdown(self) -> Vec<WindowResult> {
        self.shutdown_with_registry().0
    }

    /// Like [`shutdown`](Self::shutdown), but also returns the final
    /// delay registry — the last window's posterior — when the engine ran
    /// in warm-start mode (`None` in cold mode). Persist it (see
    /// `save_registry`) to warm-start the next engine across restarts.
    ///
    /// The shutdown is ordered and drain-safe: closing the ingest sender
    /// cascades end-of-stream down the graph, every still-open window
    /// flushes *through reconstruction* before its shard exits, and the
    /// results queue is drained while stages are joined, so nothing is
    /// silently dropped and a bounded results queue can never deadlock
    /// the join.
    pub fn shutdown_with_registry(mut self) -> (Vec<WindowResult>, Option<DelayRegistry>) {
        let results = self.drain();
        let registry = self.registry.take().and_then(|rx| rx.try_recv().ok());
        (results, registry)
    }

    /// Like [`shutdown`](Self::shutdown), but also returns the embedded
    /// sanitize stage's final per-reason counters (`None` when
    /// [`OnlineConfig::sanitize`] was not set) — final because the drain
    /// completed before the snapshot was taken.
    pub fn shutdown_with_stats(mut self) -> (Vec<WindowResult>, Option<SanitizeStats>) {
        let results = self.drain();
        let stats = self.sanitize_metrics.as_ref().map(SanitizeMetrics::stats);
        (results, stats)
    }

    fn drain(&mut self) -> Vec<WindowResult> {
        self.ingest.take(); // close the source: the shutdown cascade begins
        let results = match self.pipeline.take() {
            Some(pipeline) => {
                let report = pipeline.shutdown();
                for failure in &report.failures {
                    eprintln!("tw-online: {failure}");
                }
                self.failures = report.failures.iter().map(|f| f.to_string()).collect();
                report.results
            }
            None => Vec::new(),
        };
        // The archive stage's flush sealed everything during the drain;
        // stop the background compactor after, then flush the final
        // checkpoint so it samples the fully-advanced archive watermark.
        if let Some(compactor) = self.compactor.take() {
            compactor.stop();
        }
        // Final checkpoint after the drain: a clean shutdown persists the
        // fully-sealed watermark, so a restart replays nothing.
        if let Some(checkpointer) = self.checkpointer.take() {
            checkpointer.stop_and_flush();
        }
        results
    }
}

impl Drop for OnlineEngine {
    fn drop(&mut self) {
        self.ingest.take();
        // Pipeline::drop drains and joins the graph.
        self.pipeline.take();
        // CompactorHandle::drop stops the maintenance thread.
        self.compactor.take();
        // Checkpointer::drop stops the writer without a final flush.
        self.checkpointer.take();
    }
}

/// The configured engine plus its pre-built degraded variants, one per
/// shedding rung: halving `batch_size` and dropping joint optimization
/// are `Params` changes, so each rung is just the same call graph under
/// different parameters, built once per worker instead of per window.
struct LadderedWeaver {
    full: TraceWeaver,
    shrink: TraceWeaver,
    greedy: TraceWeaver,
}

impl LadderedWeaver {
    fn new(full: TraceWeaver) -> Self {
        let mut shrunk = *full.params();
        shrunk.batch_size = (shrunk.batch_size / 2).max(1);
        let shrink = TraceWeaver::new(full.call_graph().clone(), shrunk);
        let greedy = TraceWeaver::new(
            full.call_graph().clone(),
            full.params().ablate_joint_optimization(),
        );
        LadderedWeaver {
            full,
            shrink,
            greedy,
        }
    }

    /// Engine to reconstruct with at `level`; `None` means skip the
    /// window entirely.
    fn for_level(&self, level: DegradationLevel) -> Option<&TraceWeaver> {
        match level {
            DegradationLevel::Full => Some(&self.full),
            DegradationLevel::ShrinkBatch => Some(&self.shrink),
            DegradationLevel::Greedy => Some(&self.greedy),
            DegradationLevel::Skip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_core::Params;
    use tw_model::metrics::end_to_end_accuracy_all_roots;
    use tw_sim::apps::two_service_chain;
    use tw_sim::{Simulator, Workload};

    #[test]
    fn online_matches_offline_accuracy() {
        let app = two_service_chain(50);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 500.0, Nanos::from_secs(3)));

        let tw = TraceWeaver::new(call_graph, Params::default());
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(500),
                grace: Nanos::from_millis(100),
                channel_capacity: 1024,
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        // Stream records in time order, as a capture agent would.
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        for r in records {
            ingest.send(r).unwrap();
        }
        drop(ingest);

        let mut windows = Vec::new();
        // Drain live results then the shutdown flush.
        let engine_results = engine.results().clone();
        windows.extend(engine.shutdown());
        windows.extend(engine_results.try_iter());

        assert!(
            windows.len() >= 4,
            "expected several windows, got {}",
            windows.len()
        );
        // Merge all window mappings and compare against truth.
        let mut merged = tw_model::Mapping::new();
        for w in &windows {
            merged.merge(w.reconstruction.mapping.clone());
        }
        let acc = end_to_end_accuracy_all_roots(&merged, &out.truth);
        assert!(acc.ratio() > 0.85, "online accuracy {}", acc.ratio());
        // Every record was processed exactly once.
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len());
        // Health signal available per window.
        for w in &windows {
            let f = w.mapped_fraction();
            assert!((0.0..=1.0).contains(&f));
            assert!(f > 0.8, "window {} mapped only {f}", w.index);
        }
    }

    /// A multi-worker pipeline must emit the same windows, in the same
    /// order, with the same mappings as the single-worker engine — the
    /// collector restores order, workers only change wall time.
    #[test]
    fn pipelined_workers_match_sequential() {
        let app = two_service_chain(53);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        let run = |threads: usize| -> Vec<WindowResult> {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            let engine = OnlineEngine::start(
                tw,
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    shards: threads,
                    ..OnlineConfig::default()
                },
            );
            let ingest = engine.ingest_handle();
            for r in &records {
                ingest.send(*r).unwrap();
            }
            drop(ingest);
            engine.shutdown()
        };

        let seq = run(1);
        let par = run(4);
        assert!(
            seq.len() >= 4,
            "expected several windows, got {}",
            seq.len()
        );
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.index, b.index, "window order must be restored");
            assert_eq!(a.end, b.end);
            assert_eq!(a.records, b.records);
            for r in &a.records {
                assert_eq!(
                    a.reconstruction.mapping.children(r.rpc),
                    b.reconstruction.mapping.children(r.rpc),
                    "mapping diverged in window {}",
                    a.index
                );
            }
            // Worker metrics are populated.
            assert!(a.latency.as_nanos() > 0);
            assert!(b.queue_depth <= seq.len());
        }
    }

    #[test]
    fn shutdown_flushes_partial_window() {
        let app = two_service_chain(51);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 100.0, Nanos::from_millis(100)));

        let tw = TraceWeaver::new(call_graph, Params::default());
        // Window far longer than the run: nothing flushes until shutdown.
        let engine = OnlineEngine::start(tw, OnlineConfig::default());
        let ingest = engine.ingest_handle();
        for r in &out.records {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len());
    }

    #[test]
    fn windows_are_ordered() {
        let app = two_service_chain(52);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_secs(2)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                channel_capacity: 1024,
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        for r in records {
            ingest.send(r).unwrap();
        }
        drop(ingest);
        let results = engine.results().clone();
        let mut windows: Vec<WindowResult> = engine.shutdown();
        windows.extend(results.try_iter());
        windows.sort_by_key(|w| w.index);
        for pair in windows.windows(2) {
            assert!(pair[0].end <= pair[1].end);
        }
    }

    #[test]
    fn shed_policy_ladder_order() {
        let mut default = ShedLadder::new(ShedPolicy::default());
        for depth in [Some(0), Some(usize::MAX), None] {
            assert_eq!(
                default.pick_level(depth),
                DegradationLevel::Full,
                "default policy never sheds"
            );
        }
        let mut forced = ShedLadder::new(ShedPolicy {
            forced: Some(DegradationLevel::Greedy),
            adaptive: true,
        });
        for depth in [Some(0), Some(usize::MAX), None] {
            assert_eq!(forced.pick_level(depth), DegradationLevel::Greedy);
        }
        assert!(DegradationLevel::Full < DegradationLevel::Skip);
    }

    /// A forced degradation level must shed identically at every worker
    /// count — the deterministic half of the ladder (queue-depth-driven
    /// shedding is inherently timing-dependent and defaults off).
    #[test]
    fn forced_degradation_is_deterministic_across_threads() {
        let app = two_service_chain(57);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        let run = |threads: usize, level: DegradationLevel| -> Vec<WindowResult> {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            let engine = OnlineEngine::start(
                tw,
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    shards: threads,
                    shed: ShedPolicy {
                        forced: Some(level),
                        ..ShedPolicy::default()
                    },
                    ..OnlineConfig::default()
                },
            );
            let ingest = engine.ingest_handle();
            for r in &records {
                ingest.send(*r).unwrap();
            }
            drop(ingest);
            engine.shutdown()
        };

        for level in [DegradationLevel::ShrinkBatch, DegradationLevel::Greedy] {
            let runs: Vec<Vec<WindowResult>> = [1, 2, 8].iter().map(|&t| run(t, level)).collect();
            assert!(runs[0].len() >= 4, "got {} windows", runs[0].len());
            for other in &runs[1..] {
                assert_eq!(runs[0].len(), other.len());
                for (a, b) in runs[0].iter().zip(other) {
                    assert_eq!(a.index, b.index);
                    assert_eq!(a.records, b.records);
                    assert_eq!(a.degradation, level);
                    assert_eq!(b.degradation, level);
                    for r in &a.records {
                        assert_eq!(
                            a.reconstruction.mapping.children(r.rpc),
                            b.reconstruction.mapping.children(r.rpc),
                            "degraded mapping diverged in window {} at {level:?}",
                            a.index
                        );
                    }
                }
            }
        }
    }

    /// Forced Skip sheds every window with explicit accounting: nothing
    /// reconstructed, nothing silently lost.
    #[test]
    fn forced_skip_accounts_for_all_records() {
        let app = two_service_chain(58);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_secs(1)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                channel_capacity: 1024,
                shed: ShedPolicy {
                    forced: Some(DegradationLevel::Skip),
                    ..ShedPolicy::default()
                },
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        for r in records {
            ingest.send(r).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();
        assert!(!windows.is_empty());
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len(), "skip must not lose records");
        for w in &windows {
            assert_eq!(w.degradation, DegradationLevel::Skip);
            assert_eq!(w.shed_records, w.records.len());
            assert!(w.reconstruction.mapping.is_empty());
            assert_eq!(w.mapped_fraction(), 0.0);
        }
    }

    /// Warm mode publishes posteriors in window order: every window after
    /// the first starts from a non-empty prior, and shutdown hands back
    /// the final registry for persistence.
    #[test]
    fn warm_engine_carries_registry_across_windows() {
        let app = two_service_chain(54);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                channel_capacity: 1024,
                warm_start: true,
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        for r in records {
            ingest.send(r).unwrap();
        }
        drop(ingest);
        let (windows, registry) = engine.shutdown_with_registry();
        assert!(windows.len() >= 4, "got {} windows", windows.len());
        assert_eq!(windows[0].warm_edges, 0, "first window is cold");
        for w in &windows[1..] {
            assert!(w.warm_edges > 0, "window {} did not warm-start", w.index);
        }
        // warm_edges reflects the prior *before* the window was absorbed,
        // so it only grows along the stream.
        for pair in windows.windows(2) {
            assert!(pair[0].warm_edges <= pair[1].warm_edges);
        }
        let registry = registry.expect("warm engine returns its registry");
        assert!(!registry.is_empty());
        assert_eq!(registry.rounds(), windows.len() as u64);
        // Every record still processed exactly once, in window order.
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len());
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    /// The merged result stream is byte-identical at 1, 2, and 8 window
    /// shards — the router stamps window indices before fan-out, so shard
    /// count can only change *where* a window reconstructs, never what it
    /// contains or where it lands in the output order. Runs with the
    /// sanitize stage embedded so the full composed graph is exercised.
    #[test]
    fn sharded_merge_is_deterministic_across_shard_counts() {
        let app = two_service_chain(59);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        let run = |shards: usize| -> (Vec<WindowResult>, Vec<String>) {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            let engine = OnlineEngine::start(
                tw,
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 64,
                    shards,
                    sanitize: Some(crate::sanitize::SanitizeConfig::default()),
                    ..OnlineConfig::default()
                },
            );
            let names = engine.stage_names();
            let ingest = engine.ingest_handle();
            for r in &records {
                ingest.send(*r).unwrap();
            }
            drop(ingest);
            (engine.shutdown(), names)
        };

        let (base, names) = run(1);
        assert!(base.len() >= 4, "got {} windows", base.len());
        assert!(names.iter().any(|n| n == "sanitize"));
        assert_eq!(names.iter().filter(|n| n.starts_with("window/")).count(), 1);
        let total: usize = base.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len(), "no records lost at 1 shard");
        for shards in [2usize, 8] {
            let (other, names) = run(shards);
            assert_eq!(
                names.iter().filter(|n| n.starts_with("window/")).count(),
                shards
            );
            assert_eq!(base.len(), other.len());
            for (a, b) in base.iter().zip(&other) {
                assert_eq!(a.index, b.index, "merge must restore global order");
                assert_eq!(a.end, b.end);
                assert_eq!(a.records, b.records, "window contents moved between shards");
                for r in &a.records {
                    assert_eq!(
                        a.reconstruction.mapping.children(r.rpc),
                        b.reconstruction.mapping.children(r.rpc),
                        "mapping diverged in window {} at {shards} shards",
                        a.index
                    );
                }
            }
        }
    }

    /// Shutdown drains partial windows *through reconstruction*: windows
    /// that never saw a cut mark still come back reconstructed (mapped
    /// spans, nominal ends) from `shutdown_with_registry`, and in warm
    /// mode the flushed windows are absorbed into the returned registry.
    #[test]
    fn shutdown_drain_reconstructs_unflushed_windows() {
        let app = two_service_chain(60);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_millis(400)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        // Window far longer than the run: every record is still buffered
        // in an open window when the stream closes.
        let tw = TraceWeaver::new(call_graph, Params::default());
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_secs(3_600),
                warm_start: true,
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        for r in &records {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let (windows, registry) = engine.shutdown_with_registry();

        assert!(!windows.is_empty(), "open windows must flush at shutdown");
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len(), "records silently dropped");
        for w in &windows {
            assert!(
                w.reconstruction.summary().mapped_spans > 0,
                "window {} flushed without reconstruction",
                w.index
            );
            assert_eq!(w.end, Nanos((w.index + 1) * Nanos::from_secs(3_600).0));
        }
        let registry = registry.expect("warm engine returns its registry");
        assert_eq!(
            registry.rounds(),
            windows.len() as u64,
            "flushed windows must be absorbed before the registry is returned"
        );
        assert!(!registry.is_empty());
    }

    /// The adaptive ladder escalates on a sustained positive depth slope,
    /// holds inside the dead band, and relaxes on a draining queue — with
    /// a hold-down between transitions so it cannot flap rung-to-rung.
    #[test]
    fn adaptive_ladder_hysteresis() {
        let mut s = AdaptiveState::new(AdaptiveShed {
            alpha: 1.0, // no smoothing: the raw delta is the slope
            up_slope: 0.5,
            down_slope: -0.5,
            hold: 2,
        });
        assert_eq!(s.on_tick(0), DegradationLevel::Full);
        // Depth climbing by 2/tick: escalate, then hold for 2 ticks.
        assert_eq!(s.on_tick(2), DegradationLevel::ShrinkBatch);
        assert_eq!(s.on_tick(4), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(6), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        // Flat depth sits in the dead band: no transition either way.
        s.cooldown = 0;
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        // Draining: relax one rung per hold-down period, down to Full.
        assert_eq!(s.on_tick(5), DegradationLevel::ShrinkBatch);
        assert_eq!(s.on_tick(2), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(0), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(
            s.on_tick(0),
            DegradationLevel::ShrinkBatch,
            "flat: dead band"
        );
        s.last_depth = 2.0; // next tick at depth 0 sees a -2 drain slope
        assert_eq!(s.on_tick(0), DegradationLevel::Full);
    }

    /// Checkpoint round-trip: write a checkpoint at a mid-stream sealed
    /// watermark, restart the engine from it, and replay the remainder of
    /// the stream — the resumed engine must emit windows byte-identical
    /// to the uninterrupted run from the watermark on, at 1, 2, and 8
    /// shards, with `tw_pipeline_recovery_*` reporting the restore and a
    /// zero gap (and the true gap when windows really were lost).
    #[test]
    fn checkpoint_restore_matches_uninterrupted_run() {
        let app = two_service_chain(61);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        // Sorted by response arrival the by-timestamp window index is
        // monotone along the stream (no late records), so a suffix replay
        // reproduces the baseline's routing decisions exactly.
        let mut records = out.records.clone();
        records.sort_by_key(|r| (r.recv_resp, r.rpc));
        let window = Nanos::from_millis(250);
        let by_ts = |r: &RpcRecord| r.recv_resp.0.div_ceil(window.0).saturating_sub(1);

        let run = |shards: usize,
                   dir: Option<&std::path::Path>,
                   recs: &[RpcRecord],
                   telemetry: &Registry|
         -> Vec<WindowResult> {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            let engine = OnlineEngine::start(
                tw,
                OnlineConfig {
                    window,
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    shards,
                    checkpoint: dir.map(CheckpointConfig::new),
                    telemetry: telemetry.clone(),
                    ..OnlineConfig::default()
                },
            );
            let ingest = engine.ingest_handle();
            for r in recs {
                ingest.send(*r).unwrap();
            }
            drop(ingest);
            engine.shutdown()
        };

        for shards in [1usize, 2, 8] {
            let baseline = run(shards, None, &records, &Registry::new());
            assert!(baseline.len() >= 4, "got {} windows", baseline.len());
            let watermark = baseline[baseline.len() / 2].index;
            let suffix: Vec<RpcRecord> = records
                .iter()
                .copied()
                .filter(|r| by_ts(r) >= watermark)
                .collect();
            let dir =
                std::env::temp_dir().join(format!("twck-resume-{}-{shards}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            crate::checkpoint::write_checkpoint(
                &dir,
                &crate::checkpoint::CheckpointDoc {
                    watermark,
                    window_ns: window.0,
                    sanitizer: None,
                    registry: None,
                    archived: None,
                },
            )
            .unwrap();
            let telemetry = Registry::new();
            let resumed = run(shards, Some(&dir), &suffix, &telemetry);
            let expected: Vec<&WindowResult> =
                baseline.iter().filter(|w| w.index >= watermark).collect();
            assert_eq!(expected.len(), resumed.len(), "at {shards} shards");
            for (a, b) in expected.iter().zip(&resumed) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.end, b.end);
                assert_eq!(
                    a.records, b.records,
                    "window {} diverged after restore at {shards} shards",
                    a.index
                );
                for r in &a.records {
                    assert_eq!(
                        a.reconstruction.mapping.children(r.rpc),
                        b.reconstruction.mapping.children(r.rpc),
                        "mapping diverged in window {} after restore",
                        a.index
                    );
                }
            }
            let text = telemetry.render();
            assert!(
                text.contains("tw_pipeline_recovery_restores_total 1"),
                "restore not counted:\n{text}"
            );
            assert!(
                text.contains("tw_pipeline_recovery_windows_lost 0"),
                "no gap expected:\n{text}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Crash gap: resume from watermark W but replay only from W+2 —
        // the probe must report exactly the two windows that died with
        // the previous process.
        let baseline = run(1, None, &records, &Registry::new());
        let watermark = baseline[baseline.len() / 2].index;
        let gap_suffix: Vec<RpcRecord> = records
            .iter()
            .copied()
            .filter(|r| by_ts(r) >= watermark + 2)
            .collect();
        assert!(!gap_suffix.is_empty());
        let dir = std::env::temp_dir().join(format!("twck-gap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::checkpoint::write_checkpoint(
            &dir,
            &crate::checkpoint::CheckpointDoc {
                watermark,
                window_ns: window.0,
                sanitizer: None,
                registry: None,
                archived: None,
            },
        )
        .unwrap();
        let telemetry = Registry::new();
        let _ = run(1, Some(&dir), &gap_suffix, &telemetry);
        assert!(
            telemetry
                .render()
                .contains("tw_pipeline_recovery_windows_lost 2"),
            "gap not reported:\n{}",
            telemetry.render()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpointed warm engine persists its registry and sanitizer
    /// state: a clean shutdown seals every window into the checkpoint,
    /// and the next start warm-starts its very first window from the
    /// restored posterior instead of the cold bootstrap.
    #[test]
    fn warm_checkpoint_persists_and_restores_registry() {
        let app = two_service_chain(62);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        let dir = std::env::temp_dir().join(format!("twck-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let start = |dir: &std::path::Path| {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            OnlineEngine::start(
                tw,
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    warm_start: true,
                    sanitize: Some(crate::sanitize::SanitizeConfig::default()),
                    checkpoint: Some(CheckpointConfig::new(dir)),
                    ..OnlineConfig::default()
                },
            )
        };

        let engine = start(&dir);
        let ingest = engine.ingest_handle();
        for r in &records {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let (windows, registry) = engine.shutdown_with_registry();
        let registry = registry.expect("warm engine returns its registry");
        assert!(windows.len() >= 4);

        let doc = crate::checkpoint::load_checkpoint(&dir).expect("final checkpoint written");
        let last = windows.iter().map(|w| w.index).max().unwrap();
        assert_eq!(
            doc.watermark,
            last + 1,
            "clean shutdown seals every flushed window"
        );
        assert!(doc.sanitizer.is_some(), "sanitizer state checkpointed");
        let saved = doc.registry.expect("warm registry checkpointed");
        assert_eq!(saved.rounds(), registry.rounds());
        assert_eq!(saved.len(), registry.len());

        // Restart against the same directory: the restored registry (not
        // the empty bootstrap) seeds the first window. The post-restart
        // traffic is *fresh* (later ids and timestamps) — the restored
        // sanitizer rightly rejects replays of pre-watermark records.
        let engine = start(&dir);
        let ingest = engine.ingest_handle();
        let shift = Nanos::from_secs(10);
        for r in records.iter().take(200) {
            let mut fresh = *r;
            fresh.rpc = tw_model::ids::RpcId(r.rpc.0 + 1_000_000);
            fresh.send_req = Nanos(r.send_req.0 + shift.0);
            fresh.recv_req = Nanos(r.recv_req.0 + shift.0);
            fresh.send_resp = Nanos(r.send_resp.0 + shift.0);
            fresh.recv_resp = Nanos(r.recv_resp.0 + shift.0);
            ingest.send(fresh).unwrap();
        }
        drop(ingest);
        let (windows_b, _) = engine.shutdown_with_registry();
        assert!(!windows_b.is_empty());
        assert!(
            windows_b[0].warm_edges > 0,
            "first window after restore must warm-start from the checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Kill-a-stage-mid-window: a stage that panics on one poison record
    /// is restarted by the supervisor, the poison lands in the
    /// dead-letter queue, and every window *not* containing the poison is
    /// byte-identical to the fault-free run — at 1, 2, and 8 shards.
    #[test]
    fn stage_panic_quarantines_poison_and_preserves_other_windows() {
        use tw_model::ids::RpcId;

        let app = two_service_chain(63);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        let poison = records[records.len() / 2].rpc;
        let window = Nanos::from_millis(250);

        struct PoisonStage {
            poison: RpcId,
        }
        impl Stage for PoisonStage {
            type In = RpcRecord;
            type Out = RpcRecord;
            fn name(&self) -> &str {
                "poison"
            }
            fn process(&mut self, rec: RpcRecord, _ctx: &StageCtx, out: &mut Emitter<RpcRecord>) {
                assert!(rec.rpc != self.poison, "poison record {:?}", rec.rpc);
                out.emit(rec);
            }
        }

        let run = |shards: usize, poison: Option<RpcId>, telemetry: &Registry| {
            let tw = TraceWeaver::new(call_graph.clone(), Params::default());
            let base = TraceWeaver::new(tw.call_graph().clone(), tw.params().share_threads(shards));
            let metrics = EngineMetrics::new(telemetry);
            let queue = QueueCfg {
                capacity: 1024,
                policy: Backpressure::Block,
            };
            let supervisor = Supervisor::default();
            let dlq = supervisor.dead_letters().clone();
            let (tx, builder) = PipelineBuilder::<RpcRecord>::source(telemetry, queue);
            let pipeline = builder
                .supervised(supervisor)
                .stage(
                    PoisonStage {
                        poison: poison.unwrap_or(RpcId(u64::MAX)),
                    },
                    queue,
                )
                .shard(
                    shards,
                    WindowRouter::new(window, Nanos::from_millis(50)),
                    |i| WindowShard {
                        name: format!("window/{i}"),
                        window,
                        shed: ShedLadder::new(ShedPolicy::default()),
                        ladder: LadderedWeaver::new(base.clone()),
                        metrics: metrics.clone(),
                        open: BTreeMap::new(),
                        last_level: None,
                        warm: None,
                        sealed: None,
                        trace: None,
                        collect_spans: BTreeMap::new(),
                    },
                    queue,
                )
                .build();
            for r in &records {
                tx.send(*r).unwrap();
            }
            drop(tx);
            (pipeline.shutdown(), dlq)
        };

        for shards in [1usize, 2, 8] {
            let (clean_report, _) = run(shards, None, &Registry::new());
            let clean = clean_report.expect_clean();
            let telemetry = Registry::new();
            let (report, dlq) = run(shards, Some(poison), &telemetry);
            assert!(
                report.is_clean(),
                "one panic must restart, not escalate: {:?}",
                report
                    .failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
            );
            let faulted = report.results;
            assert_eq!(
                clean.len(),
                faulted.len(),
                "windows lost at {shards} shards"
            );
            for (a, b) in clean.iter().zip(&faulted) {
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
}
