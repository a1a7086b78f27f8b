//! Crash-safe checkpointing of online state (DESIGN.md §12).
//!
//! A process crash used to lose everything the online engine had
//! accumulated: the windowing watermark (so a restart re-derived window
//! indices from scratch), the sanitizer's skew/drift filters (so
//! correction restarted cold and mis-corrected until re-convergence),
//! and the warm [`DelayRegistry`] (so reconstruction quality fell back
//! to the bootstrap for many windows). This module periodically
//! snapshots all three into one atomically-replaced file: a
//! single-frame [`tw_store::frame`] file with the `TWCK` magic and a JSON
//! [`CheckpointDoc`] payload. Any mismatch on load is a *clean*
//! rejection: the engine falls back to a cold start and counts the
//! reason, it never trusts a corrupt checkpoint.
//!
//! Consistency model: the three state sources are sampled near-in-time
//! but not transactionally — the watermark is authoritative (it is what
//! restart resumes from), while sanitizer and registry snapshots may
//! trail it by a bounded publication interval. Both are *estimators*, so
//! staleness degrades correction/warm-start quality marginally; it never
//! produces wrong window membership. Windows sealed after the last
//! checkpoint are lost on crash (bounded by the checkpoint interval) and
//! reported honestly via `tw_pipeline_recovery_windows_lost`.

use crate::sanitize::{SanitizerSnapshot, SanitizerSnapshotSlot};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tw_core::{DelayRegistry, RegistryWatch};
use tw_store::frame::{read_json, write_json};
use tw_telemetry::trace::SpanRecorder;
use tw_telemetry::{Counter, Gauge, Registry};

const MAGIC: [u8; 4] = *b"TWCK";
/// Checkpoint file name inside the configured directory.
pub const CHECKPOINT_FILE: &str = "online.ckpt";

/// Checkpointing configuration for [`crate::OnlineConfig::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// How often the checkpointer thread writes a snapshot. Bounds the
    /// recovery gap: at most this much sealed progress is lost on crash.
    pub interval: Duration,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every second.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval: Duration::from_secs(1),
        }
    }
}

/// The serialized checkpoint payload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CheckpointDoc {
    /// Sealed watermark: every window with index < this was
    /// reconstructed and handed downstream before the checkpoint.
    /// Restart resumes routing at this index.
    pub watermark: u64,
    /// Window length (ns) the watermark was computed under. A restart
    /// with a different window size must not trust the watermark.
    pub window_ns: u64,
    /// Latest published sanitizer state, if the pipeline sanitizes.
    pub sanitizer: Option<SanitizerSnapshot>,
    /// Latest published warm registry, if the engine runs warm.
    pub registry: Option<DelayRegistry>,
    /// Archived-window watermark sampled from the trace archive, if the
    /// engine archives. Older checkpoints (or archive-off runs) simply
    /// omit the key, which deserializes as `None`.
    pub archived: Option<u64>,
}

/// Why a checkpoint could not be loaded: the shared framed-file error,
/// whose `reason()` labels `tw_pipeline_recovery_cold_starts_total`.
pub use tw_store::StoreError as CheckpointError;

/// Serialize and atomically persist a checkpoint into `dir`.
pub fn write_checkpoint(dir: &Path, doc: &CheckpointDoc) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_json(&dir.join(CHECKPOINT_FILE), MAGIC, doc)
}

/// Load and validate the checkpoint in `dir`. Every failure mode is a
/// typed [`CheckpointError`]; callers fall back to a cold start and
/// count [`CheckpointError::reason`].
pub fn load_checkpoint(dir: &Path) -> Result<CheckpointDoc, CheckpointError> {
    read_json(&dir.join(CHECKPOINT_FILE), MAGIC)
}

/// Registry handles for the `tw_pipeline_recovery_*` /
/// `tw_pipeline_checkpoint_*` families. Registered as soon as
/// checkpointing is configured, so a healthy run still exports the
/// families at zero.
#[derive(Debug, Clone)]
pub struct RecoveryMetrics {
    /// `tw_pipeline_recovery_restores_total`
    pub restores: Counter,
    /// `tw_pipeline_recovery_cold_starts_total{reason}`
    pub cold_missing: Counter,
    pub cold_corrupt: Counter,
    pub cold_io: Counter,
    /// `tw_pipeline_recovery_windows_lost`
    pub windows_lost: Gauge,
    /// `tw_pipeline_recovery_watermark`
    pub watermark: Gauge,
    /// `tw_pipeline_checkpoint_writes_total`
    pub writes: Counter,
    /// `tw_pipeline_checkpoint_errors_total`
    pub write_errors: Counter,
}

impl RecoveryMetrics {
    pub fn new(registry: &Registry) -> Self {
        let cold = |reason: &str| {
            registry.counter_with(
                "tw_pipeline_recovery_cold_starts_total",
                "Engine starts that could not restore a checkpoint, by reason.",
                &[("reason", reason)],
            )
        };
        RecoveryMetrics {
            restores: registry.counter(
                "tw_pipeline_recovery_restores_total",
                "Engine starts that restored online state from a checkpoint.",
            ),
            cold_missing: cold("missing"),
            cold_corrupt: cold("corrupt"),
            cold_io: cold("io"),
            windows_lost: registry.gauge(
                "tw_pipeline_recovery_windows_lost",
                "Recovery gap of the most recent restore: window indices between the restored watermark and the first live record (bounded by the checkpoint interval).",
            ),
            watermark: registry.gauge(
                "tw_pipeline_recovery_watermark",
                "Sealed window watermark restored from (or written to) the checkpoint.",
            ),
            writes: registry.counter(
                "tw_pipeline_checkpoint_writes_total",
                "Checkpoint files atomically written.",
            ),
            write_errors: registry.counter(
                "tw_pipeline_checkpoint_errors_total",
                "Checkpoint writes that failed (the previous checkpoint stays intact).",
            ),
        }
    }

    /// Count one failed restore under its reason label.
    pub fn count_cold_start(&self, err: &CheckpointError) {
        match err.reason() {
            "missing" => self.cold_missing.inc(),
            "io" => self.cold_io.inc(),
            _ => self.cold_corrupt.inc(),
        }
    }
}

/// Live handles the checkpointer samples: the window shard's sealed
/// watermark (`index + 1` after it seals a window), the sanitizer's
/// published snapshot, and the warm registry watch. Cloning shares the
/// underlying state.
#[derive(Clone)]
pub struct CheckpointSources {
    pub sealed: Arc<AtomicU64>,
    pub window_ns: u64,
    pub sanitizer: SanitizerSnapshotSlot,
    pub registry: RegistryWatch,
    /// Trace-archive durable watermark, when the engine archives.
    pub archive: Option<Arc<AtomicU64>>,
}

impl CheckpointSources {
    pub fn new(window_ns: u64, start_watermark: u64) -> Self {
        CheckpointSources {
            sealed: Arc::new(AtomicU64::new(start_watermark)),
            window_ns,
            sanitizer: SanitizerSnapshotSlot::default(),
            registry: RegistryWatch::new(),
            archive: None,
        }
    }

    /// Assemble the current checkpoint payload.
    pub fn doc(&self) -> CheckpointDoc {
        CheckpointDoc {
            watermark: self.sealed.load(Ordering::Acquire),
            window_ns: self.window_ns,
            sanitizer: self.sanitizer.lock().clone(),
            registry: self.registry.latest(),
            archived: self.archive.as_ref().map(|w| w.load(Ordering::Acquire)),
        }
    }
}

/// The background checkpoint writer: samples [`CheckpointSources`] every
/// interval and atomically replaces the checkpoint file. Stop with
/// [`stop_and_flush`](Checkpointer::stop_and_flush), which writes one
/// final checkpoint after the pipeline has drained (so a clean shutdown
/// resumes past everything).
pub struct Checkpointer {
    dir: PathBuf,
    sources: CheckpointSources,
    metrics: RecoveryMetrics,
    recorder: Option<SpanRecorder>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Checkpointer {
    pub fn spawn(
        cfg: &CheckpointConfig,
        sources: CheckpointSources,
        metrics: RecoveryMetrics,
        recorder: Option<SpanRecorder>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let dir = cfg.dir.clone();
            let interval = cfg.interval.max(Duration::from_millis(10));
            let sources = sources.clone();
            let metrics = metrics.clone();
            let recorder = recorder.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("tw-checkpoint".into())
                .spawn(move || {
                    let mut last_watermark = None;
                    while !stop.load(Ordering::Acquire) {
                        std::thread::park_timeout(interval);
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let doc = sources.doc();
                        // Skip redundant writes while the stream is idle
                        // at the same watermark.
                        if last_watermark == Some(doc.watermark) {
                            continue;
                        }
                        last_watermark = Some(doc.watermark);
                        write_doc(&dir, &doc, &metrics, recorder.as_ref());
                    }
                })
                .expect("spawn checkpoint thread")
        };
        Checkpointer {
            dir: cfg.dir.clone(),
            sources,
            metrics,
            recorder,
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the writer thread and persist one final checkpoint from the
    /// current (post-drain) state.
    pub fn stop_and_flush(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        write_doc(
            &self.dir,
            &self.sources.doc(),
            &self.metrics,
            self.recorder.as_ref(),
        );
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

fn write_doc(
    dir: &Path,
    doc: &CheckpointDoc,
    metrics: &RecoveryMetrics,
    recorder: Option<&SpanRecorder>,
) {
    match write_checkpoint(dir, doc) {
        Ok(()) => {
            metrics.writes.inc();
            metrics.watermark.set(doc.watermark as f64);
            if let Some(rec) = recorder {
                rec.event_newest(format!("checkpoint written (watermark {})", doc.watermark));
            }
        }
        Err(e) => {
            metrics.write_errors.inc();
            eprintln!("tw-checkpoint: write failed: {e}");
            if let Some(rec) = recorder {
                rec.event_newest(format!("checkpoint write failed: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("twck-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let doc = CheckpointDoc {
            watermark: 42,
            window_ns: 1_000_000_000,
            sanitizer: Some(SanitizerSnapshot {
                watermark: 77,
                records_since_resolve: 9,
                ..SanitizerSnapshot::default()
            }),
            registry: None,
            archived: Some(40),
        };
        write_checkpoint(&dir, &doc).unwrap();
        let loaded = load_checkpoint(&dir).unwrap();
        assert_eq!(loaded.watermark, 42);
        assert_eq!(loaded.archived, Some(40));
        assert_eq!(loaded.window_ns, 1_000_000_000);
        let snap = loaded.sanitizer.unwrap();
        assert_eq!(snap.watermark, 77);
        assert_eq!(snap.records_since_resolve, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_checkpoints_rejected_cleanly() {
        let dir = std::env::temp_dir().join(format!("twck-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            load_checkpoint(&dir),
            Err(CheckpointError::Missing)
        ));

        let doc = CheckpointDoc {
            watermark: 7,
            window_ns: 1,
            sanitizer: None,
            registry: None,
            archived: None,
        };
        write_checkpoint(&dir, &doc).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let good = std::fs::read(&path).unwrap();

        // Flip a payload bit: CRC must catch it.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = load_checkpoint(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::BadCrc), "got {err}");
        assert_eq!(err.reason(), "corrupt");

        // Truncate mid-payload.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(CheckpointError::Truncated)
        ));

        // Wrong magic.
        let mut wrong = good.clone();
        wrong[0] = b'X';
        std::fs::write(&path, &wrong).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(CheckpointError::BadMagic)
        ));

        // Future version.
        let mut future = good;
        future[4] = 99;
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            load_checkpoint(&dir),
            Err(CheckpointError::BadVersion(99))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
