//! Crash-safe checkpointing of online state (DESIGN.md §12).
//!
//! A process crash used to lose everything the online engine had
//! accumulated: the windowing watermark (so a restart re-derived window
//! indices from scratch), the sanitizer's skew/drift filters (so
//! correction restarted cold and mis-corrected until re-convergence),
//! and the warm [`DelayRegistry`] (so reconstruction quality fell back
//! to the bootstrap for many windows). The window shard persists all
//! three into one atomically-replaced file: a single-frame
//! [`tw_store::frame`] file with the `TWCK` magic and a JSON
//! [`CheckpointDoc`] payload. It writes at the end of a seal, once the
//! interval has passed since its last write, and once more after the
//! drain, so no thread of its own runs. Any mismatch on load is a
//! *clean* rejection: the engine falls back to a cold start and counts
//! the reason, it never trusts a corrupt checkpoint.
//!
//! Consistency model: the watermark and the registry are the shard's own
//! and exact at the write — the watermark is authoritative (it is what
//! restart resumes from). The sanitizer snapshot may trail it by one
//! publication interval; it is an *estimator*, so staleness degrades
//! correction quality marginally and never produces wrong window
//! membership. Windows sealed after the last write are lost on crash
//! (the seals since that write) and reported honestly via
//! `tw_pipeline_recovery_windows_lost`.

use crate::sanitize::{SanitizerSnapshot, SanitizerSnapshotSlot};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tw_core::DelayRegistry;
use tw_store::frame::{read_json, write_json};
use tw_store::TraceArchive;
use tw_telemetry::{Counter, Gauge, Registry};

const MAGIC: [u8; 4] = *b"TWCK";
/// Checkpoint file name inside the configured directory.
pub const CHECKPOINT_FILE: &str = "online.ckpt";

/// Checkpointing configuration for [`crate::OnlineConfig::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// Least time between two writes. The window shard writes at the
    /// first seal after it has passed, so a crash loses the seals since
    /// the last write.
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
                "Recovery gap of the most recent restore: window indices between the restored watermark and the first live record (the seals since the last checkpoint write).",
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

/// The checkpoint as the window shard keeps it (DESIGN.md §12): the
/// sealed watermark it advances at every seal, the other stages' state it
/// reads when it writes, and when it last wrote.
pub(crate) struct ShardCheckpoint {
    dir: PathBuf,
    interval: Duration,
    window_ns: u64,
    /// `index + 1` of the last window sealed.
    sealed: u64,
    last_write: Instant,
    metrics: RecoveryMetrics,
    /// The sanitize stage's published snapshot, when it sanitizes.
    pub(crate) sanitizer: Option<SanitizerSnapshotSlot>,
    /// The archive whose durable watermark rides along, when it archives.
    pub(crate) archive: Option<Arc<TraceArchive>>,
}

impl ShardCheckpoint {
    pub(crate) fn new(
        cfg: &CheckpointConfig,
        window_ns: u64,
        watermark: u64,
        metrics: RecoveryMetrics,
    ) -> Self {
        ShardCheckpoint {
            dir: cfg.dir.clone(),
            interval: cfg.interval,
            window_ns,
            sealed: watermark,
            last_write: Instant::now(),
            metrics,
            sanitizer: None,
            archive: None,
        }
    }

    /// Window `index` is sealed: advance the watermark past it, and write
    /// when the interval has passed since the last write. Returns the
    /// span event describing a write.
    pub(crate) fn seal(&mut self, index: u64, registry: Option<&DelayRegistry>) -> Option<String> {
        self.sealed = self.sealed.max(index + 1);
        (self.last_write.elapsed() >= self.interval).then(|| self.write(registry))
    }

    /// Write the checkpoint now and describe the outcome.
    pub(crate) fn write(&mut self, registry: Option<&DelayRegistry>) -> String {
        self.last_write = Instant::now();
        let doc = CheckpointDoc {
            watermark: self.sealed,
            window_ns: self.window_ns,
            sanitizer: self.sanitizer.as_ref().and_then(|s| s.lock().clone()),
            registry: registry.cloned(),
            archived: self.archive.as_ref().map(|a| a.watermark()),
        };
        match write_checkpoint(&self.dir, &doc) {
            Ok(()) => {
                self.metrics.writes.inc();
                self.metrics.watermark.set(doc.watermark as f64);
                format!("checkpoint written (watermark {})", doc.watermark)
            }
            Err(e) => {
                self.metrics.write_errors.inc();
                eprintln!("tw-online: checkpoint write failed: {e}");
                format!("checkpoint write failed: {e}")
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
