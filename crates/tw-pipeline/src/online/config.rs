//! What can be configured, and what one reconstructed window carries: the
//! online engine's public data types.

use crate::checkpoint::CheckpointConfig;
use crate::sanitize::SanitizeConfig;
use std::time::Duration;
use tw_core::{DelayRegistry, Reconstruction};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_store::ArchiveConfig;
use tw_telemetry::trace::SpanRecorder;
use tw_telemetry::Registry;

/// How much of the reconstruction pipeline a window ran through — the
/// load-shedding ladder of DESIGN.md §11, ordered lightest to heaviest
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

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Window length (paper suggests 1–5s of spans per optimization).
    pub window: Nanos,
    /// Extra wait beyond the window end, covering the app's maximum
    /// response latency: a window is reconstructed at end + grace/2 and
    /// published at end + grace (a late record makes the cut recompute).
    pub grace: Nanos,
    /// Every queue in the pipeline graph is bounded to this many items. A
    /// full queue makes its producer wait, so pressure reaches the ingest
    /// socket and no queue drops anything; only the [`ShedPolicy`] ladder
    /// trades work for freshness.
    pub channel_capacity: usize,
    /// Run a [`crate::SanitizeStage`] between ingest and windowing, inside the
    /// same supervised graph ([`crate::net::serve_online_sanitized`] sets
    /// this). `None` feeds records to the window router unfiltered.
    pub sanitize: Option<SanitizeConfig>,
    /// Carry a [`DelayRegistry`] across windows: each window warm-starts
    /// from the posterior published by the previous window, decoupling
    /// estimation quality from window size (§5.3's window-sizing
    /// tension). Parallelism stays inside each window, on
    /// [`tw_core::Params::threads`] workers. `twctl serve` always runs
    /// warm; `false` reconstructs every window cold.
    pub warm_start: bool,
    /// Starting registry for warm mode — e.g. loaded from a previous
    /// run's posterior or `twctl learn-delays` output. `None` starts
    /// empty (the first window seeds cold and publishes the first
    /// posterior).
    pub initial_registry: Option<DelayRegistry>,
    /// Load shedding, the engine's one overload response (DESIGN.md §11).
    /// Disabled by default to preserve determinism across thread counts.
    pub shed: ShedPolicy,
    /// Crash-safe checkpointing (DESIGN.md §12): the window shard persists
    /// the sealed-window watermark, sanitizer skew state, and warm registry
    /// as it seals; the next start restores them and resumes past the
    /// watermark.
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
    /// head-sampled window records one span tree as it flows sanitize →
    /// route → collect → reconstruct → result hand-off → absorb (warm
    /// windows), with supervisor restarts and checkpoint writes attached
    /// as events, and slow-window latency observations carry
    /// `window_id`/`span_id` exemplars. `None` (the default) disables self-tracing entirely.
    /// Like metrics, tracing never feeds back into reconstruction.
    pub trace: Option<SpanRecorder>,
    /// Durable trace archive (DESIGN.md §14): when set, an archive sink
    /// stage after the window shard converts each sealed window's
    /// reconstruction into stored traces and appends them to a segmented
    /// on-disk archive (`tw-store`), queryable via
    /// [`crate::OnlineEngine::archive`], `GET /traces`, and `twctl query`.
    /// The archive's durable watermark rides in the checkpoint so restarts
    /// neither re-archive nor lose sealed windows. `None` (the default)
    /// disables archiving entirely.
    pub archive: Option<ArchiveConfig>,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: Nanos::from_secs(1),
            grace: Nanos::from_millis(200),
            channel_capacity: 65_536,
            sanitize: None,
            warm_start: false,
            initial_registry: None,
            shed: ShedPolicy::default(),
            checkpoint: None,
            telemetry: Registry::new(),
            trace: None,
            archive: None,
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
    /// Windows still open in the shard when this one was sealed — a live
    /// back-pressure signal (persistently > 0 means reconstruction can't
    /// keep up with ingest at this thread count).
    pub queue_depth: usize,
    /// Wall-clock time the reconstruction of this window took, at end +
    /// grace/2 or, after a late record, at the cut; the warm registry's
    /// refit, which runs after the hand-off, is not in it.
    pub latency: Duration,
    /// Delay-registry edges this window warm-started from (0 = cold
    /// start: no prior, or warm mode disabled).
    pub warm_edges: usize,
    /// Ladder rung this window ran at (DESIGN.md §11). Anything but
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
