//! The archive manifest: the single durable source of truth for which
//! segments exist, their footer indexes, and the archived-window
//! watermark.
//!
//! The manifest is a single-frame [`crate::frame`] file (`TWSM` magic,
//! JSON payload), replaced atomically. The commit protocol is
//! strictly ordered: a new segment file is written (and fsynced) *first*,
//! then the manifest that references it. A crash between the two leaves
//! an orphan segment the next open removes — previously committed
//! segments are untouched, and because the watermark only advances in the
//! same manifest commit, the orphan's windows re-archive on replay.

use crate::frame::{read_json, write_json, StoreError};
use crate::segment::SegmentIndex;
use serde::{Deserialize, Serialize};
use std::path::Path;

const MAGIC: [u8; 4] = *b"TWSM";
/// Manifest file name inside the archive directory.
pub const MANIFEST_FILE: &str = "archive.manifest";

/// One committed segment, with its footer index embedded so queries can
/// prune without opening the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// File name inside the archive directory (`seg-XXXXXXXX.twsg`).
    pub file: String,
    /// Allocation sequence number (monotone; file names embed it).
    pub seq: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// True for a tail-retention salvage segment: its traces already
    /// survived one eviction, so retention drops it without re-salvage.
    pub tail: bool,
    /// The segment's footer index.
    pub index: SegmentIndex,
}

/// The manifest payload.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Next segment sequence number to allocate.
    pub next_seq: u64,
    /// Archived-window watermark: every window with index < this has its
    /// traces durably inside a committed segment. Restarts skip archiving
    /// below it (no duplicates) and the engine resumes routing no later
    /// than it (no lost sealed windows).
    pub watermark: u64,
    /// Committed segments, ascending `seq`.
    pub segments: Vec<SegmentMeta>,
}

impl Manifest {
    /// Total committed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Total committed traces.
    pub fn total_traces(&self) -> u64 {
        self.segments.iter().map(|s| s.index.traces).sum()
    }

    /// File name for segment `seq`.
    pub fn segment_file(seq: u64) -> String {
        format!("seg-{seq:08}.twsg")
    }
}

/// Atomically persist the manifest into `dir`.
pub fn save_manifest(dir: &Path, manifest: &Manifest) -> std::io::Result<()> {
    write_json(&dir.join(MANIFEST_FILE), MAGIC, manifest)
}

/// Load and validate the manifest in `dir`. Every failure mode is a typed
/// [`StoreError`]; callers fall back to a cold start and report
/// [`StoreError::reason`].
pub fn load_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    read_json(&dir.join(MANIFEST_FILE), MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::testutil::trace;

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("twsm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_manifest(&dir), Err(StoreError::Missing)));

        let traces = vec![trace(0, 1, 2, 10, 30)];
        let manifest = Manifest {
            next_seq: 1,
            watermark: 5,
            segments: vec![SegmentMeta {
                file: Manifest::segment_file(0),
                seq: 0,
                bytes: 123,
                tail: false,
                index: SegmentIndex::build(&traces),
            }],
        };
        save_manifest(&dir, &manifest).unwrap();
        assert_eq!(load_manifest(&dir).unwrap(), manifest);

        // Bit flip → clean corrupt rejection.
        let path = dir.join(MANIFEST_FILE);
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        let mid = good.len() / 2;
        bad[mid] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        let err = load_manifest(&dir).unwrap_err();
        assert_eq!(err.reason(), "corrupt", "got {err}");

        // Truncation → clean rejection.
        std::fs::write(&path, &good[..good.len() - 2]).unwrap();
        assert!(matches!(load_manifest(&dir), Err(StoreError::Truncated)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
