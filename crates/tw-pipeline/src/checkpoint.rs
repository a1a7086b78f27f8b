//! Crash-safe checkpointing of online state (DESIGN.md §12): one
//! atomically replaced `TWCK` file holding a JSON [`CheckpointDoc`]. Its
//! watermark is the one frontier of a restart: the window shard makes a
//! document at a seal once the interval has passed and after the drain,
//! and writes it itself, or, with an archive, hands it to the archive
//! stage, which writes it once the archive holds every window it names.
//! A load failure is a counted cold start, never a trusted corrupt file.

use crate::sanitize::{SanitizerSnapshot, SanitizerSnapshotSlot};
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tw_core::DelayRegistry;
use tw_store::frame::{read_json, write_json};
use tw_telemetry::{Counter, Gauge, Registry};

const MAGIC: [u8; 4] = *b"TWCK";
/// Checkpoint file name inside the configured directory.
pub const CHECKPOINT_FILE: &str = "online.ckpt";

/// Checkpointing configuration for [`crate::OnlineConfig::checkpoint`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// Least time between two documents: the window shard makes one at
    /// the first seal after it has passed.
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
    /// reconstructed, handed downstream and, with an archive, committed.
    /// Restart resumes routing at this index and drops replays below it.
    pub watermark: u64,
    /// Window length (ns) the watermark was computed under. A restart
    /// with a different window size must not trust the watermark.
    pub window_ns: u64,
    /// Latest published sanitizer state, if the pipeline sanitizes.
    pub sanitizer: Option<SanitizerSnapshot>,
    /// Latest published warm registry, if the engine runs warm.
    pub registry: Option<DelayRegistry>,
    /// The archive's durable watermark when the archive stage wrote this
    /// document (`None` without an archive). Nothing reads it back.
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
    /// `tw_pipeline_recovery_replayed_total`
    pub replayed: Counter,
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
                "Recovery gap of the most recent restore: window indices between the restored watermark and the first live record (windows sealed after the last checkpoint a crash left).",
            ),
            watermark: registry.gauge(
                "tw_pipeline_recovery_watermark",
                "Sealed window watermark restored from (or written to) the checkpoint.",
            ),
            replayed: registry.counter(
                "tw_pipeline_recovery_replayed_total",
                "Records dropped after a restore because they were routed to a window below the restored watermark.",
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

/// The one checkpoint write: into `dir`, counted, the outcome described.
fn commit(dir: &Path, doc: &CheckpointDoc, metrics: &RecoveryMetrics) -> String {
    match write_checkpoint(dir, doc) {
        Ok(()) => {
            metrics.writes.inc();
            metrics.watermark.set(doc.watermark as f64);
            format!("checkpoint written (watermark {})", doc.watermark)
        }
        Err(e) => {
            metrics.write_errors.inc();
            eprintln!("tw-online: checkpoint write failed: {e}");
            format!("checkpoint write failed: {e}")
        }
    }
}

/// The checkpoint as the window shard keeps it (DESIGN.md §12): the
/// sealed watermark it advances at every seal, the sanitizer state it
/// reads when a document is due, and when it last made one.
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
    /// Where documents go instead of to disk once [`Self::hand_off`] ran.
    archive: Option<Sender<CheckpointDoc>>,
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

    /// Send every document to the archive stage from now on, and return
    /// that stage's end of the hand-off.
    pub(crate) fn hand_off(&mut self) -> DueCheckpoints {
        let (tx, inbox) = unbounded();
        self.archive = Some(tx);
        DueCheckpoints {
            dir: self.dir.clone(),
            metrics: self.metrics.clone(),
            inbox,
            ready: None,
            ahead: None,
        }
    }

    /// Window `index` is sealed: advance the watermark past it, and make
    /// a document if it `emitted` a result and the interval has passed
    /// since the last one. An empty window makes none, so no more
    /// documents wait on the archive stage than results queue for it.
    /// Returns the span event describing it.
    pub(crate) fn seal(
        &mut self,
        index: u64,
        emitted: bool,
        registry: Option<&DelayRegistry>,
    ) -> Option<String> {
        self.sealed = self.sealed.max(index + 1);
        (emitted && self.last_write.elapsed() >= self.interval).then(|| self.write(registry))
    }

    /// Make a document now: write it, or hand it to the archive stage.
    pub(crate) fn write(&mut self, registry: Option<&DelayRegistry>) -> String {
        self.last_write = Instant::now();
        let doc = CheckpointDoc {
            watermark: self.sealed,
            window_ns: self.window_ns,
            sanitizer: self.sanitizer.as_ref().and_then(|s| s.lock().clone()),
            registry: registry.cloned(),
            archived: None,
        };
        let Some(archive) = &self.archive else {
            return commit(&self.dir, &doc, &self.metrics);
        };
        if archive.send(doc).is_ok() {
            return format!("checkpoint to the archive (watermark {})", self.sealed);
        }
        self.metrics.write_errors.inc();
        "checkpoint dropped: the archive stage is gone".to_string()
    }
}

/// The documents the window shard handed the archive stage, each written
/// once the archive's durable watermark covers it. A commit covers every
/// window observed, so only the newest document they cover is kept.
pub(crate) struct DueCheckpoints {
    dir: PathBuf,
    metrics: RecoveryMetrics,
    inbox: Receiver<CheckpointDoc>,
    /// The newest document naming only windows observed.
    ready: Option<CheckpointDoc>,
    /// The first one taken from the hand-off ahead of them.
    ahead: Option<CheckpointDoc>,
}

impl DueCheckpoints {
    /// Write the ready document once the archive's watermark `archived`
    /// covers it — with `last`, the newest one, whatever it names: windows
    /// past the last one `observed` were empty.
    pub(crate) fn write(&mut self, observed: u64, archived: u64, last: bool) {
        let observed = if last { u64::MAX } else { observed };
        while let Some(doc) = self.ahead.take().or_else(|| self.inbox.try_recv().ok()) {
            if doc.watermark > observed {
                self.ahead = Some(doc);
                break;
            }
            self.ready = Some(doc);
        }
        if let Some(mut doc) = self.ready.take_if(|d| last || d.watermark <= archived) {
            doc.archived = Some(archived);
            commit(&self.dir, &doc, &self.metrics);
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

    /// A shard checkpoint writing a document at every seal into the
    /// archive stage's hand-off, and the stage's end of it.
    fn handed_off(dir: &Path) -> (ShardCheckpoint, DueCheckpoints) {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = CheckpointConfig {
            interval: Duration::ZERO,
            ..CheckpointConfig::new(dir)
        };
        let mut shard = ShardCheckpoint::new(&cfg, 1, 0, RecoveryMetrics::new(&Registry::new()));
        let due = shard.hand_off();
        (shard, due)
    }

    /// However many documents wait on an archive that covers none, the
    /// final write puts the newest on disk: its watermark and registry.
    #[test]
    fn final_write_keeps_the_newest_waiting_document() {
        for n in [17u64, 18] {
            let dir = std::env::temp_dir().join(format!("twck-last-{n}-{}", std::process::id()));
            let (mut shard, mut due) = handed_off(&dir);
            let mut registry = DelayRegistry::default();
            for index in 0..n {
                registry.finish_round();
                shard.seal(index, true, Some(&registry));
            }
            due.write(0, 0, false);
            assert!(
                load_checkpoint(&dir).is_err(),
                "an uncovered document was written"
            );
            due.write(0, 0, true);
            let doc = load_checkpoint(&dir).unwrap();
            assert_eq!(doc.watermark, n);
            assert_eq!(doc.registry.unwrap().rounds(), n);
            assert_eq!(doc.archived, Some(0));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A document is written once the archive's watermark covers it, and
    /// never one naming a window the archive has not committed. An empty
    /// window makes no document.
    #[test]
    fn documents_wait_for_the_archive_to_cover_them() {
        let dir = std::env::temp_dir().join(format!("twck-cover-{}", std::process::id()));
        let (mut shard, mut due) = handed_off(&dir);
        for index in 0..6 {
            shard.seal(index, true, None);
        }
        assert_eq!(shard.seal(6, false, None), None, "an empty window made one");
        let on_disk = || {
            load_checkpoint(&dir)
                .ok()
                .map(|d| (d.watermark, d.archived))
        };
        due.write(4, 0, false);
        assert_eq!(on_disk(), None);
        due.write(4, 4, false);
        assert_eq!(on_disk(), Some((4, Some(4))));
        due.write(6, 4, false);
        assert_eq!(on_disk(), Some((4, Some(4))));
        due.write(6, 6, false);
        assert_eq!(on_disk(), Some((6, Some(6))));
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
