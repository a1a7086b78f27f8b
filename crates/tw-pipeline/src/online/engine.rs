//! How the engine recovers, starts and drains: [`recover`] reads back
//! where a previous process stopped, [`OnlineEngine::try_start`] assembles
//! the supervised graph from that point, and shutdown drains it in order.
//! The stages are the engine's only threads: the window shard makes the
//! checkpoint, the archive stage writes it once it holds its windows, and
//! the archive maintains itself at commit.

use super::config::{OnlineConfig, WindowResult};
use super::router::WindowRouter;
use super::shard::{EngineMetrics, WindowShard};
use crate::archive::ArchiveStage;
use crate::checkpoint::{
    load_checkpoint, CheckpointDoc, CheckpointError, RecoveryMetrics, ShardCheckpoint,
};
use crate::pipeline::{Pipeline, PipelineBuilder};
use crate::sanitize::{SanitizeMetrics, SanitizeStage, SanitizeStats, SanitizerSnapshotSlot};
use crate::supervise::{DeadLetterQueue, Supervisor};
use crossbeam::channel::{Receiver, Sender};
use std::sync::Arc;
use tw_core::TraceWeaver;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_store::TraceArchive;

/// The online engine: a supervised [`Pipeline`] chaining (optional)
/// sanitize → window-router → window shard → (optional) archive, built
/// with [`PipelineBuilder`].
///
/// Dropping / closing the ingest sender cascades an ordered shutdown
/// through the graph: every stage drains its input, flushes buffered
/// state (open windows reconstruct, they are never dropped), and closes
/// its output. Fields drop in declaration order, so dropping the engine
/// closes `ingest` before `pipeline`'s drop drains and joins the graph.
pub struct OnlineEngine {
    ingest: Option<Sender<RpcRecord>>,
    results: Receiver<WindowResult>,
    pipeline: Option<Pipeline<WindowResult>>,
    sanitize_metrics: Option<SanitizeMetrics>,
    dead_letters: DeadLetterQueue,
    archive: Option<Arc<TraceArchive>>,
}

/// Where a (re)started engine picks up: what [`recover`] read back from
/// the checkpoint of a previous process, and the archive it reopened.
#[derive(Default)]
struct ResumePoint {
    /// The restored checkpoint, whose watermark is the first window the
    /// router may cut; the default (watermark 0) on a fresh start.
    checkpoint: CheckpointDoc,
    /// `tw_pipeline_recovery_*` handles, when checkpointing is configured.
    recovery: Option<RecoveryMetrics>,
    /// The opened trace archive, when archiving is configured.
    archive: Option<Arc<TraceArchive>>,
}

/// Restore persisted online state before anything is built: the watermark
/// seeds the router, the sanitizer snapshot seeds the skew filters, and
/// the checkpointed registry seeds the warm chain. Every way a checkpoint
/// can be unusable is a counted cold start, never an error; an archive
/// directory that cannot be opened is the one error.
fn recover(config: &OnlineConfig) -> std::io::Result<ResumePoint> {
    let window_ns = config.window.0;
    let mut resume = ResumePoint::default();
    if let Some(ck) = &config.checkpoint {
        let rm = RecoveryMetrics::new(&config.telemetry);
        match load_checkpoint(&ck.dir) {
            Ok(doc) if doc.window_ns == window_ns => {
                rm.restores.inc();
                rm.watermark.set(doc.watermark as f64);
                resume.checkpoint = doc;
            }
            Ok(doc) => {
                // A watermark computed under a different window size
                // indexes different windows — unusable, cold start.
                eprintln!(
                    "tw-online: checkpoint window {}ns != configured {window_ns}ns; cold start",
                    doc.window_ns
                );
                rm.cold_corrupt.inc();
            }
            Err(err) => {
                rm.count_cold_start(&err);
                if !matches!(err, CheckpointError::Missing) {
                    eprintln!("tw-online: checkpoint not restored: {err}; cold start");
                }
            }
        }
        resume.recovery = Some(rm);
    }
    if let Some(cfg) = &config.archive {
        let archive = TraceArchive::open(cfg.clone(), &config.telemetry).map_err(|err| {
            std::io::Error::new(err.kind(), format!("archive {}: {err}", cfg.dir.display()))
        })?;
        resume.archive = Some(Arc::new(archive));
    }
    Ok(resume)
}

impl OnlineEngine {
    /// [`try_start`](Self::try_start) for callers whose archive directory
    /// is known to open.
    ///
    /// # Panics
    /// If [`OnlineConfig::archive`] names a directory that cannot be
    /// opened.
    pub fn start(tw: TraceWeaver, config: OnlineConfig) -> Self {
        Self::try_start(tw, config).expect("tw-online: archive directory unavailable")
    }

    /// Recover from any checkpoint and start the graph. Fails, before
    /// any stage runs, only when the archive directory cannot be opened.
    pub fn try_start(tw: TraceWeaver, mut config: OnlineConfig) -> std::io::Result<Self> {
        config.window = Nanos(config.window.0.max(1));
        let mut resume = recover(&config)?;
        let watermark = resume.checkpoint.watermark;
        let shed = config.shed;
        let window = config.window;
        let trace = config.trace.clone();
        let metrics = EngineMetrics::new(&config.telemetry, trace.clone());
        let capacity = config.channel_capacity;

        // The window shard makes the checkpoint from the sanitizer's latest
        // snapshot; the archive stage writes it once it holds its windows.
        let mut archive_stage = resume.archive.clone().map(ArchiveStage::new);
        let checkpoint = match (&config.checkpoint, &resume.recovery) {
            (Some(cfg), Some(rm)) => {
                let mut ck = ShardCheckpoint::new(cfg, window.0, watermark, rm.clone());
                if let Some(stage) = &mut archive_stage {
                    stage.checkpoint = Some(ck.hand_off());
                }
                ck.sanitizer = config
                    .sanitize
                    .as_ref()
                    .map(|_| SanitizerSnapshotSlot::default());
                Some(ck)
            }
            _ => None,
        };

        // The checkpointed registry takes precedence over any configured
        // bootstrap (it is strictly newer).
        let warm_state = config.warm_start.then(|| {
            let restored = resume.checkpoint.registry.take();
            restored
                .or(config.initial_registry.take())
                .unwrap_or_default()
        });

        let mut supervisor = Supervisor::new(DeadLetterQueue::default());
        if let Some(recorder) = &trace {
            supervisor = supervisor.with_recorder(recorder.clone());
        }
        let dead_letters = supervisor.dead_letters().clone();
        let (ingest_tx, builder) =
            PipelineBuilder::<RpcRecord>::source(&config.telemetry, capacity);
        let builder = builder.supervised(supervisor);
        let (builder, sanitize_metrics) = match config.sanitize.take() {
            Some(cfg) => {
                let mut stage = SanitizeStage::new_in(cfg, &config.telemetry);
                if let Some(snapshot) = &resume.checkpoint.sanitizer {
                    stage.sanitizer.restore(snapshot);
                }
                if let Some(recorder) = &trace {
                    stage = stage.with_trace(recorder.clone(), window.0);
                }
                stage.snapshot_slot = checkpoint.as_ref().and_then(|c| c.sanitizer.clone());
                let handle = stage.sanitizer.metrics.clone();
                (builder.stage(stage, capacity), Some(handle))
            }
            None => (builder, None),
        };
        let mut router = WindowRouter::new(window, config.grace, trace.clone());
        if let (Some(rm), true) = (&resume.recovery, watermark > 0) {
            router = router.resume(watermark, rm);
        }
        let mut shard = WindowShard::new(window, shed, tw, metrics);
        shard.warm = warm_state;
        shard.checkpoint = checkpoint;
        shard.trace = trace.clone();
        let builder = builder.stage(router, capacity).stage(shard, capacity);
        let builder = match archive_stage {
            Some(stage) => builder.stage(stage, capacity),
            None => builder,
        };
        let pipeline = builder.build();

        Ok(OnlineEngine {
            ingest: Some(ingest_tx),
            results: pipeline.results().clone(),
            pipeline: Some(pipeline),
            sanitize_metrics,
            dead_letters,
            archive: resume.archive,
        })
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
        self.sanitize_metrics
            .as_ref()
            .map(SanitizeMetrics::snapshot)
    }

    /// The supervised pipeline's dead-letter queue: records quarantined
    /// because a stage panicked on them (DESIGN.md §11). Shares state
    /// with the running graph, so it is inspectable live and stays
    /// readable after shutdown.
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
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
    ///
    /// The shutdown is ordered and drain-safe: closing the ingest sender
    /// cascades end-of-stream down the graph, every still-open window
    /// flushes *through reconstruction* before the shard exits, and the
    /// results queue is drained while stages are joined, so nothing is
    /// silently dropped and a bounded results queue can never deadlock
    /// the join. The shard's flush makes the final checkpoint, the one way
    /// out for the final registry; the archive's flush commits, then writes it.
    pub fn shutdown(mut self) -> Vec<WindowResult> {
        self.ingest.take(); // close the source: the shutdown cascade begins
        let Some(pipeline) = self.pipeline.take() else {
            return Vec::new();
        };
        let report = pipeline.shutdown();
        for failure in &report.failures {
            eprintln!("tw-online: {failure}");
        }
        report.results
    }

    /// Like [`shutdown`](Self::shutdown), but also returns the embedded
    /// sanitize stage's final per-reason counters (`None` when
    /// [`OnlineConfig::sanitize`] was not set) — final because the drain
    /// completed before the snapshot was taken.
    pub fn shutdown_with_stats(self) -> (Vec<WindowResult>, Option<SanitizeStats>) {
        let metrics = self.sanitize_metrics.clone();
        (
            self.shutdown(),
            metrics.as_ref().map(SanitizeMetrics::snapshot),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointConfig;
    use crate::online::testutil::assert_same_windows;
    use crate::online::{DegradationLevel, ShedPolicy};
    use std::path::{Path, PathBuf};
    use tw_core::{DelayRegistry, Params};
    use tw_model::metrics::end_to_end_accuracy_all_roots;
    use tw_sim::apps::two_service_chain;
    use tw_sim::{Simulator, Workload};
    use tw_telemetry::trace::{SpanRecorder, TraceConfig};
    use tw_telemetry::Registry;

    /// A weaver on `threads` reconstruction workers.
    fn weaver(graph: &tw_model::CallGraph, threads: usize) -> TraceWeaver {
        let params = Params {
            threads,
            ..Params::default()
        };
        TraceWeaver::new(graph.clone(), params)
    }

    /// An empty checkpoint directory for `tag`.
    fn checkpoint_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The registry the final checkpoint in `dir` carries: what a warm
    /// engine's drain leaves.
    fn final_registry(dir: &Path) -> DelayRegistry {
        let doc = crate::checkpoint::load_checkpoint(dir).expect("final checkpoint written");
        doc.registry.expect("warm registry checkpointed")
    }

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

    /// The warm engine must emit the same windows, in the same order, with
    /// the same mappings at 1, 2 and 8 reconstruction threads — workers
    /// only change wall time.
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
            let engine = OnlineEngine::start(
                weaver(&call_graph, threads),
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    warm_start: true,
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
        assert!(
            seq.len() >= 4,
            "expected several windows, got {}",
            seq.len()
        );
        for threads in [2, 8] {
            let par = run(threads);
            assert_same_windows(&seq, &par, &format!("{threads} threads"));
            for (a, b) in seq.iter().zip(&par) {
                // Worker metrics are populated.
                assert!(a.latency.as_nanos() > 0);
                assert!(b.queue_depth <= seq.len());
            }
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
            let engine = OnlineEngine::start(
                weaver(&call_graph, threads),
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    warm_start: true,
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
            for (other, threads) in runs[1..].iter().zip([2, 8]) {
                assert_same_windows(&runs[0], other, &format!("{level:?} at {threads} threads"));
                assert!(other.iter().all(|w| w.degradation == level));
            }
            assert!(runs[0].iter().all(|w| w.degradation == level));
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
    /// the first starts from a non-empty prior, and the final checkpoint
    /// carries the final registry for persistence.
    #[test]
    fn warm_engine_carries_registry_across_windows() {
        let app = two_service_chain(54);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let dir = checkpoint_dir("carries");
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                channel_capacity: 1024,
                warm_start: true,
                checkpoint: Some(CheckpointConfig::new(&dir)),
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
        let registry = final_registry(&dir);
        assert!(!registry.is_empty());
        assert_eq!(registry.rounds(), windows.len() as u64);
        // Every record still processed exactly once, in window order.
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len());
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The composed graph — sanitize → window-router → window/0 — emits a
    /// byte-identical warm result stream at 1, 2 and 8 reconstruction
    /// threads, and loses no record.
    #[test]
    fn composed_graph_is_deterministic_across_threads() {
        let app = two_service_chain(59);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        let run = |threads: usize| -> (Vec<WindowResult>, Vec<String>) {
            let engine = OnlineEngine::start(
                weaver(&call_graph, threads),
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 64,
                    warm_start: true,
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
        assert_eq!(names, ["sanitize", "window-router", "window/0"]);
        let total: usize = base.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len(), "no records lost");
        for threads in [2, 8] {
            let (other, _) = run(threads);
            assert_same_windows(&base, &other, &format!("{threads} threads"));
        }
    }

    /// The online chain is the offline chain: replaying each emitted
    /// window's records, in index order, through the composed warm pass
    /// from an empty registry reproduces every window's mappings and
    /// ranked candidates and the engine's final registry, at 1 and 2
    /// threads. Where the shard runs the refit does not change what it
    /// computes. The stream is dense enough that the prior matters: a
    /// shard that reconstructs window k against window k-2's posterior
    /// fails here (at 400 rps it passed).
    #[test]
    fn warm_engine_chain_matches_offline_replay() {
        let app = two_service_chain(64);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 1_500.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);

        for threads in [1, 2] {
            let tw = weaver(&call_graph, threads);
            let dir = checkpoint_dir(&format!("chain-{threads}"));
            let engine = OnlineEngine::start(
                tw.clone(),
                OnlineConfig {
                    window: Nanos::from_millis(250),
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    warm_start: true,
                    checkpoint: Some(CheckpointConfig::new(&dir)),
                    ..OnlineConfig::default()
                },
            );
            let ingest = engine.ingest_handle();
            for r in &records {
                ingest.send(*r).unwrap();
            }
            drop(ingest);
            let windows = engine.shutdown();
            let online = final_registry(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            assert!(windows.len() >= 4, "got {} windows", windows.len());
            assert!(windows.windows(2).all(|p| p[0].index < p[1].index));

            let mut offline = DelayRegistry::new();
            for w in &windows {
                let (expected, posterior) =
                    tw.reconstruct_records_with_registry(&w.records, &offline);
                offline = posterior;
                let got = &w.reconstruction;
                for r in &w.records {
                    assert_eq!(
                        got.mapping.children(r.rpc),
                        expected.mapping.children(r.rpc),
                        "{threads} threads: mapping diverged in window {}",
                        w.index
                    );
                    assert_eq!(
                        got.ranked.candidates(r.rpc),
                        expected.ranked.candidates(r.rpc),
                        "{threads} threads: ranking diverged in window {}",
                        w.index
                    );
                }
            }
            assert_eq!(
                online, offline,
                "{threads} threads: online registry chain left the offline one"
            );
        }
    }

    /// Shutdown drains partial windows *through reconstruction*: windows
    /// that never saw a cut mark still come back reconstructed (mapped
    /// spans, nominal ends) from `shutdown`, and in warm mode the flushed
    /// windows are absorbed into the final checkpoint's registry.
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
        let dir = checkpoint_dir("drain");
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_secs(3_600),
                warm_start: true,
                checkpoint: Some(CheckpointConfig::new(&dir)),
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        for r in &records {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();

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
        let registry = final_registry(&dir);
        assert_eq!(
            registry.rounds(),
            windows.len() as u64,
            "flushed windows must be absorbed before the final checkpoint"
        );
        assert!(!registry.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoint round-trip: checkpoint a warm engine at a mid-stream
    /// sealed watermark, restart from it, and replay the remainder of the
    /// stream — the resumed engine must emit windows byte-identical to the
    /// uninterrupted run from the watermark on, at 1, 2 and 8 threads,
    /// with `tw_pipeline_recovery_*` reporting the restore and a zero gap
    /// (and the true gap when windows really were lost).
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
        let by_ts = |r: &RpcRecord| crate::online::window_of(r.recv_resp, window.0);

        let start = |threads: usize, dir: Option<&Path>, telemetry: &Registry| {
            OnlineEngine::start(
                weaver(&call_graph, threads),
                OnlineConfig {
                    window,
                    grace: Nanos::from_millis(50),
                    channel_capacity: 1024,
                    warm_start: true,
                    checkpoint: dir.map(CheckpointConfig::new),
                    telemetry: telemetry.clone(),
                    ..OnlineConfig::default()
                },
            )
        };
        let feed = |engine: &OnlineEngine, recs: &[RpcRecord]| {
            let ingest = engine.ingest_handle();
            for r in recs {
                ingest.send(*r).unwrap();
            }
        };
        // The registry a warm engine holds after sealing every window
        // before `watermark` — what its checkpoint at that point carries.
        let registry_before = |threads: usize, watermark: u64| {
            let prefix: Vec<RpcRecord> = records
                .iter()
                .copied()
                .filter(|r| by_ts(r) < watermark)
                .collect();
            let dir = checkpoint_dir(&format!("prefix-{threads}"));
            let engine = start(threads, Some(&dir), &Registry::new());
            feed(&engine, &prefix);
            engine.shutdown();
            let registry = final_registry(&dir);
            let _ = std::fs::remove_dir_all(&dir);
            registry
        };
        let checkpoint = |tag: &str, watermark: u64, registry: DelayRegistry| {
            let dir = checkpoint_dir(tag);
            crate::checkpoint::write_checkpoint(
                &dir,
                &crate::checkpoint::CheckpointDoc {
                    watermark,
                    window_ns: window.0,
                    sanitizer: None,
                    registry: Some(registry),
                    archived: None,
                },
            )
            .unwrap();
            dir
        };

        let baseline = {
            let engine = start(1, None, &Registry::new());
            feed(&engine, &records);
            engine.shutdown()
        };
        assert!(baseline.len() >= 4, "got {} windows", baseline.len());
        let watermark = baseline[baseline.len() / 2].index;
        let suffix: Vec<RpcRecord> = records
            .iter()
            .copied()
            .filter(|r| by_ts(r) >= watermark)
            .collect();
        let expected: Vec<WindowResult> = baseline
            .into_iter()
            .filter(|w| w.index >= watermark)
            .collect();
        let registry = registry_before(1, watermark);
        for threads in [1, 2, 8] {
            assert_eq!(
                registry_before(threads, watermark),
                registry,
                "checkpointed registry moved at {threads} threads"
            );
            let dir = checkpoint(&format!("resume-{threads}"), watermark, registry.clone());
            let telemetry = Registry::new();
            let engine = start(threads, Some(&dir), &telemetry);
            feed(&engine, &suffix);
            let resumed = engine.shutdown();
            assert_same_windows(
                &expected,
                &resumed,
                &format!("after restore at {threads} threads"),
            );
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
        let gap_suffix: Vec<RpcRecord> = suffix
            .iter()
            .copied()
            .filter(|r| by_ts(r) >= watermark + 2)
            .collect();
        assert!(!gap_suffix.is_empty());
        let dir = checkpoint("gap", watermark, registry);
        let telemetry = Registry::new();
        let engine = start(1, Some(&dir), &telemetry);
        feed(&engine, &gap_suffix);
        let _ = engine.shutdown();
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
        let dir = checkpoint_dir("warm");

        let start = |dir: &Path| {
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
        let windows = engine.shutdown();
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
        assert_eq!(saved.rounds(), windows.len() as u64);
        assert!(!saved.is_empty());

        // Restart against the same directory: the restored registry (not
        // the empty bootstrap) seeds the first window. The post-restart
        // traffic is *fresh* (later ids and timestamps): the router would
        // drop a replay of a pre-watermark window as replayed.
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
        let windows_b = engine.shutdown();
        assert!(!windows_b.is_empty());
        assert!(
            windows_b[0].warm_edges > 0,
            "first window after restore must warm-start from the checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The window shard writes the checkpoint at the end of a seal once the
    /// interval has passed, and once more after the drain. With a zero
    /// interval every seal writes, and each write lands on the sealed
    /// window's own span tree, after the result hand-off and the refit
    /// that follows it.
    #[test]
    fn every_seal_writes_the_checkpoint_at_a_zero_interval() {
        let app = two_service_chain(63);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(2)));
        let mut records = out.records.clone();
        records.sort_by_key(|r| r.send_req);
        let dir = std::env::temp_dir().join(format!("twck-every-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let telemetry = Registry::new();
        let recorder = SpanRecorder::new(TraceConfig::default(), &telemetry);
        let engine = OnlineEngine::start(
            TraceWeaver::new(call_graph, Params::default()),
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                channel_capacity: 1024,
                warm_start: true,
                checkpoint: Some(CheckpointConfig {
                    interval: std::time::Duration::ZERO,
                    ..CheckpointConfig::new(&dir)
                }),
                telemetry: telemetry.clone(),
                trace: Some(recorder.clone()),
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        for r in &records {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();
        assert!(windows.len() >= 4, "got {} windows", windows.len());
        assert!(
            windows.windows(2).all(|p| p[1].index == p[0].index + 1),
            "every index holds records, so every seal emitted a window"
        );

        let trees = recorder.finished_snapshot();
        for w in &windows {
            let tree = trees.iter().find(|t| t.window == w.index).expect("tree");
            let written = format!("checkpoint written (watermark {})", w.index + 1);
            let at = |message: &str| {
                let event = tree.events.iter().find(|e| e.message == message);
                event.unwrap_or_else(|| panic!("window {} tree lacks `{message}`", w.index))
            };
            let absorb = tree
                .spans
                .iter()
                .find(|s| s.name == "absorb")
                .expect("absorb span");
            assert!(at("result hand-off").at_ns <= absorb.start_ns);
            assert!(absorb.end_ns.expect("closed") <= at(&written).at_ns);
        }
        let writes = format!("tw_pipeline_checkpoint_writes_total {}", windows.len() + 1);
        let text = telemetry.render();
        assert!(
            text.contains(&writes),
            "one write per seal plus the drain's:\n{text}"
        );
        let doc = crate::checkpoint::load_checkpoint(&dir).unwrap();
        assert_eq!(doc.watermark, windows.last().unwrap().index + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
