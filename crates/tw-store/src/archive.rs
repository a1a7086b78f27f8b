//! The live archive: an active in-memory buffer of recently sealed
//! windows, committed segments on disk, and the maintenance passes
//! (compaction + retention) that keep the directory bounded.
//!
//! Every layout change — a seal, a compaction, a retention pass — is one
//! crash-ordered `commit`:
//!
//! 1. the new traces, if any, become segment `next_seq`, written via
//!    write-temp→fsync→rename;
//! 2. the manifest — listing that segment in place of the ones it
//!    replaces, with the archived-window watermark — replaces the old one
//!    the same way;
//! 3. the replaced segment files are deleted.
//!
//! A crash after (1) but before (2) leaves an orphan segment file: the
//! next open removes it, and because the watermark only advances in (2),
//! the orphan's windows are re-archived on replay. A crash before (1)
//! loses only the active buffer, again below the watermark; one after
//! (2) leaves replaced files the next open removes. Committed segments
//! are immutable and never rewritten in place, so previously sealed data
//! survives every crash point. A seal that wrote a segment then
//! maintains: a new segment is the only event that can change what
//! compaction or retention would do, so the layout on disk is a function
//! of the window stream, never of wall time.

use crate::frame::StoreError;
use crate::manifest::{load_manifest, save_manifest, Manifest, SegmentMeta};
use crate::metrics::StoreMetrics;
use crate::query::TraceQuery;
use crate::segment::{
    encoded_len, keep_first, read_segment, scan_segment, write_segment, StoredTrace,
};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tw_telemetry::Registry;

/// Traces with latency at or above this (or flagged degraded) survive
/// retention's eviction into a tail segment.
const TAIL_LATENCY_NS: u64 = 500_000_000;

/// Merge small segments (< `segment_bytes / 2`) once at least this many
/// have accumulated.
const COMPACT_MIN_SEGMENTS: usize = 4;

/// Archive configuration ([`crate::TraceArchive::open`]).
#[derive(Debug, Clone)]
pub struct ArchiveConfig {
    /// Archive directory (created if missing).
    pub dir: PathBuf,
    /// Seal the active buffer into a segment once its traces encode to
    /// this many bytes of file (the frame headers and the footer index,
    /// a few hundred bytes per segment, come on top).
    pub segment_bytes: u64,
    /// Retention cap: evict the oldest segments while committed bytes
    /// exceed this (0 = unbounded). Eviction is segment-granular, but
    /// *tail retention* first salvages each evicted segment's degraded
    /// and slow (≥ [`TAIL_LATENCY_NS`]) traces into a tail segment — the
    /// rare slow traces are the ones worth keeping.
    pub retention_bytes: u64,
}

impl ArchiveConfig {
    /// Archive into `dir` with 1 MiB segments and unbounded retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArchiveConfig {
            dir: dir.into(),
            segment_bytes: 1 << 20,
            retention_bytes: 0,
        }
    }
}

struct State {
    manifest: Manifest,
    /// Traces of sealed windows not yet committed to a segment.
    active: Vec<StoredTrace>,
    /// Bytes `active` will occupy in a segment's directory and span-row
    /// frames.
    active_bytes: u64,
    /// `highest observed window index + 1`: what the watermark advances
    /// to at the next commit.
    pending: u64,
}

/// The live trace archive. Thread-safe; share via `Arc` between the
/// pipeline's archive stage, the window shard's checkpoint, and the
/// metrics server's `/traces` endpoint.
pub struct TraceArchive {
    dir: PathBuf,
    cfg: ArchiveConfig,
    metrics: StoreMetrics,
    state: Mutex<State>,
    /// Durable archived-window watermark, mirrored from the manifest
    /// after every commit, so reading it never waits on a commit's fsync.
    watermark: AtomicU64,
}

impl TraceArchive {
    /// Open (or create) the archive in `cfg.dir`. A corrupt or unreadable
    /// manifest is rejected *cleanly*: the archive starts fresh, the
    /// reason is reported on stderr and in
    /// `tw_store_cold_starts_total{reason}` — it never panics and
    /// never trusts a torn file. Orphan segment files (a crash between
    /// segment write and manifest commit) are removed.
    pub fn open(cfg: ArchiveConfig, registry: &Registry) -> std::io::Result<TraceArchive> {
        std::fs::create_dir_all(&cfg.dir)?;
        let metrics = StoreMetrics::new(registry);
        let mut manifest = match load_manifest(&cfg.dir) {
            Ok(m) => m,
            Err(StoreError::Missing) => Manifest::default(),
            Err(err) => {
                match err.reason() {
                    "io" => metrics.cold_io.inc(),
                    _ => metrics.cold_corrupt.inc(),
                }
                eprintln!("tw-store: manifest rejected: {err}; cold start");
                Manifest::default()
            }
        };
        // A listed segment whose file vanished is real data loss: report
        // it and carry on with what exists.
        manifest.segments.retain(|seg| {
            let present = cfg.dir.join(&seg.file).is_file();
            if !present {
                metrics.errors.inc();
                eprintln!("tw-store: segment {} listed but missing; dropped", seg.file);
            }
            present
        });
        // Remove uncommitted leftovers: orphan segments and stale temp
        // files from interrupted writes.
        if let Ok(entries) = std::fs::read_dir(&cfg.dir) {
            let listed: std::collections::HashSet<&str> =
                manifest.segments.iter().map(|s| s.file.as_str()).collect();
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                let orphan = name.starts_with("seg-")
                    && name.ends_with(".twsg")
                    && !listed.contains(name.as_str());
                let stale_tmp = name.ends_with(".tmp");
                if orphan || stale_tmp {
                    let _ = std::fs::remove_file(entry.path());
                    if orphan {
                        metrics.orphans.inc();
                        eprintln!("tw-store: removed orphan segment {name} (uncommitted)");
                    }
                }
            }
        }
        let watermark = AtomicU64::new(manifest.watermark);
        let archive = TraceArchive {
            dir: cfg.dir.clone(),
            metrics,
            state: Mutex::new(State {
                pending: manifest.watermark,
                manifest,
                active: Vec::new(),
                active_bytes: 0,
            }),
            watermark,
            cfg,
        };
        archive.publish_gauges(&archive.state.lock().manifest);
        Ok(archive)
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durable archived-window watermark: every window with index below
    /// it is inside a committed segment.
    pub fn watermark(&self) -> u64 {
        self.watermark.load(Ordering::Acquire)
    }

    /// Committed segment count.
    pub fn segment_count(&self) -> usize {
        self.state.lock().manifest.segments.len()
    }

    /// Committed bytes.
    pub fn committed_bytes(&self) -> u64 {
        self.state.lock().manifest.total_bytes()
    }

    /// Committed traces (the active buffer excluded).
    pub fn committed_traces(&self) -> u64 {
        self.state.lock().manifest.total_traces()
    }

    /// Ingest one sealed window's reconstructed traces, in window order:
    /// [`append`](Self::append) them, then seal if that filled the buffer.
    pub fn observe_window(&self, index: u64, traces: Vec<StoredTrace>) {
        if self.append(index, traces) {
            self.sync();
        }
    }

    /// Add one window's traces to the active buffer, where queries find
    /// them; true once it holds a segment's worth. A window below the
    /// durable watermark replays archived data (a restart re-reconstructing
    /// past the archive frontier) and is skipped: no double-archiving.
    pub fn append(&self, index: u64, traces: Vec<StoredTrace>) -> bool {
        let mut state = self.state.lock();
        if index < state.manifest.watermark {
            return false;
        }
        self.metrics.appends.add(traces.len() as u64);
        for trace in traces {
            state.active_bytes += encoded_len(&trace);
            state.active.push(trace);
        }
        state.pending = state.pending.max(index + 1);
        state.active_bytes >= self.cfg.segment_bytes
    }

    /// Seal the active buffer (if any) and commit the manifest, making
    /// everything observed so far durable. The shutdown flush path.
    pub fn sync(&self) {
        self.seal_locked(&mut self.state.lock());
    }

    /// One maintenance pass: merge small segments, then enforce
    /// retention. Every commit that writes a segment runs it; call it
    /// directly for a directory that was opened and not written to
    /// (opening never maintains).
    pub fn maintain(&self) {
        self.maintain_locked(&mut self.state.lock());
    }

    fn maintain_locked(&self, state: &mut State) {
        self.compact_locked(state);
        self.retain_locked(state);
    }

    /// Serve a query against committed segments (pruned via their footer
    /// indexes) plus the not-yet-sealed active buffer. Results are in
    /// (window, start, root, end) order, capped at the query's limit. A
    /// limited query does not read a segment that cannot change its
    /// answer, so it does not report that segment's corruption either;
    /// nor does it clone an active trace past the limit.
    pub fn query(&self, q: &TraceQuery) -> Vec<StoredTrace> {
        let _timer = self.metrics.query_seconds.start_timer();
        let state = self.state.lock();
        let mut active: Vec<&StoredTrace> = state.active.iter().filter(|t| q.matches(t)).collect();
        keep_first(&mut active, q.effective_limit(), |t| t);
        let on_error = |seg: &SegmentMeta, err: StoreError| {
            self.metrics.errors.inc();
            eprintln!("tw-store: query skipped segment {}: {err}", seg.file);
        };
        let active = active.into_iter().cloned().collect();
        scan_committed(&self.dir, &state.manifest, q, active, on_error)
    }

    fn publish_gauges(&self, manifest: &Manifest) {
        self.metrics.segments.set(manifest.segments.len() as f64);
        self.metrics.bytes.set(manifest.total_bytes() as f64);
        self.metrics.watermark.set(manifest.watermark as f64);
    }

    /// Seal the active buffer (if any) and advance the watermark to
    /// `pending`; a seal that wrote a segment then maintains. On failure
    /// the buffer stays and retries at the next seal.
    fn seal_locked(&self, state: &mut State) {
        if state.active.is_empty() && state.manifest.watermark == state.pending {
            return;
        }
        let (wrote, pending) = (!state.active.is_empty(), state.pending);
        if self.commit(&mut state.manifest, &[], &state.active, false, pending) && wrote {
            state.active.clear();
            state.active_bytes = 0;
            self.metrics.seals.inc();
            self.maintain_locked(state);
        }
    }

    fn compact_locked(&self, state: &mut State) {
        let threshold = (self.cfg.segment_bytes / 2).max(1);
        let small: Vec<SegmentMeta> = state
            .manifest
            .segments
            .iter()
            .filter(|s| !s.tail && s.bytes < threshold)
            .cloned()
            .collect();
        if small.len() < COMPACT_MIN_SEGMENTS {
            return;
        }
        let mut merged = Vec::new();
        for seg in &small {
            match read_segment(&self.dir.join(&seg.file)) {
                Ok(traces) => merged.extend(traces),
                Err(err) => {
                    // Never compact what we cannot re-read bit-exactly:
                    // leave the pass for the operator to investigate.
                    self.metrics.errors.inc();
                    eprintln!("tw-store: compaction aborted, segment {}: {err}", seg.file);
                    return;
                }
            }
        }
        merged.sort_by_key(StoredTrace::sort_key);
        let watermark = state.manifest.watermark;
        if self.commit(&mut state.manifest, &small, &merged, false, watermark) {
            self.metrics.compactions.inc();
        }
    }

    fn retain_locked(&self, state: &mut State) {
        let cap = self.cfg.retention_bytes;
        if cap == 0 {
            return;
        }
        // Oldest first, but never the newest segment.
        let mut total = state.manifest.total_bytes();
        let mut evict: Vec<SegmentMeta> = Vec::new();
        for seg in &state.manifest.segments[..state.manifest.segments.len().saturating_sub(1)] {
            if total <= cap {
                break;
            }
            total -= seg.bytes;
            evict.push(seg.clone());
        }
        if evict.is_empty() {
            return;
        }
        // Tail retention: salvage the slow/degraded traces of evicted
        // non-tail segments before the bulk is dropped. Tail segments are
        // final — evicting one drops its traces for good.
        let mut salvaged: Vec<StoredTrace> = Vec::new();
        let mut dropped = 0;
        for seg in &evict {
            dropped += seg.index.traces;
            if !seg.tail {
                match read_segment(&self.dir.join(&seg.file)) {
                    Ok(traces) => {
                        for trace in traces {
                            if trace.degraded || trace.latency_ns >= TAIL_LATENCY_NS {
                                salvaged.push(trace);
                                dropped -= 1;
                            }
                        }
                    }
                    Err(err) => {
                        self.metrics.errors.inc();
                        eprintln!("tw-store: retention could not salvage {}: {err}", seg.file);
                    }
                }
            }
        }
        salvaged.sort_by_key(StoredTrace::sort_key);
        let watermark = state.manifest.watermark;
        if self.commit(&mut state.manifest, &evict, &salvaged, true, watermark) {
            // Counted only now: an eviction is real once committed.
            self.metrics.dropped_size.add(dropped);
            self.metrics.tail_kept.add(salvaged.len() as u64);
        }
    }

    /// The one commit, shared by seal, compaction and retention: write
    /// `traces` (if any) as segment `next_seq`, then save a manifest that
    /// lists it in place of `replaced` and carries `watermark`, then —
    /// only now that no reader of the new manifest references them —
    /// delete the replaced files. On any failure `manifest` is untouched,
    /// the uncommitted segment file is removed and the error counted.
    /// Returns whether it committed.
    fn commit(
        &self,
        manifest: &mut Manifest,
        replaced: &[SegmentMeta],
        traces: &[StoredTrace],
        tail: bool,
        watermark: u64,
    ) -> bool {
        let mut next = manifest.clone();
        next.segments.retain(|s| !replaced.contains(s));
        next.watermark = watermark;
        let mut written = None;
        if !traces.is_empty() {
            let seq = next.next_seq;
            let file = Manifest::segment_file(seq);
            let path = self.dir.join(&file);
            match write_segment(&path, traces) {
                Ok((bytes, index)) => {
                    next.next_seq = seq + 1;
                    next.segments.push(SegmentMeta {
                        file,
                        seq,
                        bytes,
                        tail,
                        index,
                    });
                    written = Some(path);
                }
                Err(err) => {
                    self.metrics.errors.inc();
                    eprintln!("tw-store: segment {file} write failed: {err}");
                    return false;
                }
            }
        }
        if let Err(err) = save_manifest(&self.dir, &next) {
            self.metrics.errors.inc();
            eprintln!("tw-store: manifest write failed: {err}");
            if let Some(path) = written {
                let _ = std::fs::remove_file(path);
            }
            return false;
        }
        for seg in replaced {
            let _ = std::fs::remove_file(self.dir.join(&seg.file));
        }
        *manifest = next;
        self.watermark.store(watermark, Ordering::Release);
        self.publish_gauges(manifest);
        true
    }
}

/// The one segment loop: `seed` plus every match of `q` in the committed
/// segments its footer index cannot rule out, in result order and capped
/// at the limit. Segments are visited by their first window, so once the
/// limit is reached, a segment whose first window lies past the window of
/// the limit-th result cannot change the answer; neither can any after
/// it, and none of them is read. An unlimited query reads every segment
/// that may match. An unreadable segment contributes nothing and is
/// handed to `on_error`, which decides what that means to the caller.
///
/// A window's traces all live in one segment or in the active buffer, so
/// traces with equal sort keys come from one place and keep its order:
/// the answer is the same whatever order the segments are visited in.
fn scan_committed(
    dir: &Path,
    manifest: &Manifest,
    q: &TraceQuery,
    seed: Vec<StoredTrace>,
    mut on_error: impl FnMut(&SegmentMeta, StoreError),
) -> Vec<StoredTrace> {
    let limit = q.effective_limit();
    let mut segments: Vec<&SegmentMeta> = manifest
        .segments
        .iter()
        .filter(|seg| q.may_match_segment(&seg.index))
        .collect();
    segments.sort_by_key(|seg| (seg.index.min_window, seg.seq));
    let mut out = seed;
    for seg in segments {
        if out.len() >= limit {
            out.sort_by_key(StoredTrace::sort_key);
            out.truncate(limit);
            if seg.index.min_window > out[limit - 1].window {
                break;
            }
        }
        match scan_segment(&dir.join(&seg.file), q, limit) {
            Ok(hits) => out.extend(hits),
            Err(err) => on_error(seg, err),
        }
    }
    out.sort_by_key(StoredTrace::sort_key);
    out.truncate(limit);
    out
}

/// Read-only query against an archive directory — no lock, no cleanup,
/// no mutation (`twctl query --dir`, offline tooling). Manifest and
/// segment failures propagate as typed errors instead of being skipped.
pub fn read_query(dir: &Path, q: &TraceQuery) -> Result<Vec<StoredTrace>, StoreError> {
    let manifest = load_manifest(dir)?;
    let mut failed = None;
    let out = scan_committed(dir, &manifest, q, Vec::new(), |_, err| {
        failed.get_or_insert(err);
    });
    failed.map_or(Ok(out), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MANIFEST_FILE;
    use crate::segment::testutil::trace;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg(dir: &Path) -> ArchiveConfig {
        ArchiveConfig {
            segment_bytes: 1, // seal after every window
            ..ArchiveConfig::new(dir)
        }
    }

    #[test]
    fn appends_seal_persist_and_reload() {
        let dir = tmp_dir("rt");
        let registry = Registry::new();
        let archive = TraceArchive::open(tiny_cfg(&dir), &registry).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        archive.observe_window(1, vec![trace(1, 2, 7, 3_000, 700_000_000)]);
        assert_eq!(archive.watermark(), 2);
        assert_eq!(archive.segment_count(), 2);

        // Live query sees both; filters apply.
        let all = archive.query(&TraceQuery::default());
        assert_eq!(all.len(), 2);
        let slow = archive.query(&TraceQuery {
            min_latency_ns: Some(100_000_000),
            ..TraceQuery::default()
        });
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].root, 2);

        // Replayed window below the watermark is skipped, not duplicated.
        archive.observe_window(1, vec![trace(1, 2, 7, 3_000, 700_000_000)]);
        assert_eq!(archive.query(&TraceQuery::default()).len(), 2);

        // A reopened archive serves the same committed traces.
        drop(archive);
        let reopened = TraceArchive::open(tiny_cfg(&dir), &Registry::new()).unwrap();
        assert_eq!(reopened.watermark(), 2);
        assert_eq!(reopened.query(&TraceQuery::default()).len(), 2);

        let text = registry.render();
        assert!(text.contains("tw_store_seals_total 2"), "{text}");
        assert!(text.contains("tw_store_appends_total 2"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `segment_bytes` counts bytes of file: when the size threshold seals
    /// the buffer, its running count is exactly the sealed segment's
    /// directory and span-row payloads — the file minus its frame headers
    /// and footer.
    #[test]
    fn active_bytes_at_a_seal_are_the_sealed_body_bytes() {
        let dir = tmp_dir("sizes");
        let cfg = ArchiveConfig {
            segment_bytes: 1_000,
            ..ArchiveConfig::new(&dir)
        };
        let archive = TraceArchive::open(cfg, &Registry::new()).unwrap();
        let mut counted = 0;
        for window in 0.. {
            let mut t = trace(window, window + 1, 7, 1_000, 2_000);
            let span = t.spans[0];
            t.spans
                .extend(std::iter::repeat_n(span, window as usize % 3));
            counted += encoded_len(&t);
            archive.observe_window(window, vec![t]);
            if archive.segment_count() == 1 {
                break;
            }
            assert_eq!(archive.state.lock().active_bytes, counted);
            assert!(counted < 1_000, "sealed late");
        }
        assert!(counted >= 1_000, "sealed early at {counted}");

        let meta = archive.state.lock().manifest.segments[0].clone();
        let file = std::fs::read(dir.join(&meta.file)).unwrap();
        let frame_len = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        let directory = frame_len(8);
        let rows = frame_len(8 + 12 + directory as usize);
        assert_eq!(directory + rows, counted);
        let footer = crate::frame::to_json(&meta.index).unwrap().len() as u64;
        assert_eq!(meta.bytes, 8 + 3 * 12 + counted + footer);
        assert_eq!(meta.bytes, file.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn active_buffer_is_queryable_and_sync_commits_it() {
        let dir = tmp_dir("active");
        let cfg = ArchiveConfig::new(&dir); // 1 MiB: nothing seals on its own
        let archive = TraceArchive::open(cfg.clone(), &Registry::new()).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 3, 10, 20)]);
        assert_eq!(archive.segment_count(), 0, "still buffered");
        assert_eq!(archive.watermark(), 0, "not durable yet");
        assert_eq!(archive.query(&TraceQuery::default()).len(), 1);

        archive.sync();
        assert_eq!(archive.segment_count(), 1);
        assert_eq!(archive.watermark(), 1);

        // Watermark-only commit: no traces, but durable progress.
        archive.observe_window(5, Vec::new());
        archive.sync();
        assert_eq!(archive.watermark(), 6);
        assert_eq!(archive.segment_count(), 1, "no empty segment written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_segment_from_crash_is_removed_and_committed_data_survives() {
        let dir = tmp_dir("orphan");
        let registry = Registry::new();
        let archive = TraceArchive::open(tiny_cfg(&dir), &registry).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        assert_eq!(archive.watermark(), 1);
        drop(archive);

        // Simulate the crash point: a segment written but the process
        // died before the manifest commit.
        let orphan = dir.join(Manifest::segment_file(9));
        write_segment(&orphan, &[trace(9, 99, 7, 5_000, 6_000)]).unwrap();
        assert!(orphan.is_file());

        let registry = Registry::new();
        let reopened = TraceArchive::open(tiny_cfg(&dir), &registry).unwrap();
        assert!(!orphan.is_file(), "orphan removed at open");
        assert_eq!(reopened.watermark(), 1, "watermark unaffected by orphan");
        let all = reopened.query(&TraceQuery::default());
        assert_eq!(all.len(), 1, "committed segment survived the crash");
        assert_eq!(all[0].root, 1);
        assert!(registry.render().contains("tw_store_orphans_total 1"));

        // The orphan's window was never marked archived: replaying it
        // archives it now.
        reopened.observe_window(9, vec![trace(9, 99, 7, 5_000, 6_000)]);
        assert_eq!(reopened.query(&TraceQuery::default()).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_cold_starts_with_reason() {
        let dir = tmp_dir("coldstart");
        let archive = TraceArchive::open(tiny_cfg(&dir), &Registry::new()).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        drop(archive);
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let registry = Registry::new();
        let reopened = TraceArchive::open(tiny_cfg(&dir), &registry).unwrap();
        assert_eq!(reopened.watermark(), 0, "fresh archive");
        assert!(registry
            .render()
            .contains("tw_store_cold_starts_total{reason=\"corrupt\"} 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The commit that writes the `COMPACT_MIN_SEGMENTS`-th small segment
    /// merges them all: no separate maintenance call.
    #[test]
    fn compaction_merges_small_segments() {
        let dir = tmp_dir("compact");
        let registry = Registry::new();
        let cfg = ArchiveConfig {
            // Large enough that a one-trace segment is "small" (< half),
            // with per-window seals forced below.
            segment_bytes: 64 << 10,
            ..ArchiveConfig::new(&dir)
        };
        let archive = TraceArchive::open(cfg, &registry).unwrap();
        let last = COMPACT_MIN_SEGMENTS as u64 - 1;
        for w in 0..=last {
            archive.observe_window(w, vec![trace(w, w + 1, 7, w * 1_000, w * 1_000 + 500)]);
            if w < last {
                archive.sync();
                assert_eq!(archive.segment_count(), w as usize + 1, "merged too early");
            }
        }
        let before = archive.query(&TraceQuery::default());
        assert_eq!(before.len(), COMPACT_MIN_SEGMENTS);
        archive.sync();
        assert_eq!(archive.segment_count(), 1, "smalls merged into one");
        assert_eq!(archive.query(&TraceQuery::default()), before);
        assert!(registry.render().contains("tw_store_compactions_total 1"));

        // Reload proves the merged layout is durable and self-consistent.
        let reopened = TraceArchive::open(tiny_cfg(&dir), &Registry::new()).unwrap();
        assert_eq!(reopened.query(&TraceQuery::default()), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Roots of every trace the archive answers with, in result order.
    fn roots(archive: &TraceArchive) -> Vec<u64> {
        let all = archive.query(&TraceQuery::default());
        all.iter().map(|t| t.root).collect()
    }

    /// A series' value in `registry`'s exposition (`name` with labels).
    fn series(registry: &Registry, name: &str) -> f64 {
        let text = registry.render();
        let value = text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok());
        value.unwrap_or_else(|| panic!("{name} not exported:\n{text}"))
    }

    const DROPPED: &str = "tw_store_retention_dropped_total{reason=\"size\"}";
    const TAIL_KEPT: &str = "tw_store_tail_kept_total";
    const ERRORS: &str = "tw_store_errors_total";

    /// Retention runs at the commit that exceeded the cap: its bulk goes
    /// at once, and its slow traces live on in a tail segment.
    #[test]
    fn retention_drops_bulk_but_salvages_tail_traces() {
        let dir = tmp_dir("retain");
        let registry = Registry::new();
        let cfg = ArchiveConfig {
            // Every window seals alone, and no segment is under half of
            // one byte, so compaction never runs.
            segment_bytes: 1,
            retention_bytes: 600, // room for one single-trace segment, not two
            ..ArchiveConfig::new(&dir)
        };
        let archive = TraceArchive::open(cfg, &registry).unwrap();
        // Window 0: fast (droppable). Window 1: slow (tail-worthy).
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        assert_eq!(roots(&archive), [1], "the newest segment is never evicted");
        archive.observe_window(1, vec![trace(1, 2, 7, 10_000, 900_000_000)]);
        assert!(
            archive.committed_bytes() <= 600,
            "over the cap after its commit"
        );
        assert_eq!(roots(&archive), [2], "bulk dropped");
        assert_eq!(series(&registry, DROPPED), 1.0);

        // Evicting the slow trace's segment salvages it into a tail segment.
        archive.observe_window(2, vec![trace(2, 3, 7, 2_000_000, 2_000_010)]);
        assert_eq!(roots(&archive), [2, 3], "tail trace salvaged");
        assert_eq!(series(&registry, DROPPED), 1.0);
        assert_eq!(series(&registry, TAIL_KEPT), 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir` with its bytes, by name.
    fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().is_file())
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Segment files in the archive's directory its manifest does not list.
    fn unlisted(archive: &TraceArchive) -> Vec<String> {
        let state = archive.state.lock();
        let listed = |file: &String| state.manifest.segments.iter().any(|s| &s.file == file);
        let files = listing(&archive.dir).into_iter().map(|(file, _)| file);
        files
            .filter(|f| f.starts_with("seg-") && f.ends_with(".twsg") && !listed(f))
            .collect()
    }

    /// The counters a committed pass moves: seals, compactions, tail
    /// salvages and retention drops.
    fn pass_counts(registry: &Registry) -> [f64; 4] {
        [
            "tw_store_seals_total",
            "tw_store_compactions_total",
            TAIL_KEPT,
            DROPPED,
        ]
        .map(|name| series(registry, name))
    }

    /// A pass that cannot commit changes nothing: for seal, compaction
    /// and retention, a directory in place of the new segment or of the
    /// manifest's temp file fails the pass, which leaves the layout, the
    /// watermark and every pass counter as they were, counts one error
    /// and leaves no uncommitted segment behind. Unblocked, the next pass
    /// lays out the directory exactly as a run that never failed.
    #[test]
    fn failed_commit_changes_nothing_and_retries_cleanly() {
        type Setup = fn(&Path, &Registry) -> TraceArchive;
        type Pass = fn(&TraceArchive);
        // Each pass, how to reach the point just before it, and the pass
        // counters it moves in a run that never fails.
        let passes: [(&str, Setup, Pass, [f64; 4]); 3] = [
            (
                "seal",
                |dir, registry| {
                    let archive = TraceArchive::open(ArchiveConfig::new(dir), registry).unwrap();
                    archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
                    archive
                },
                TraceArchive::sync,
                [1.0, 0.0, 0.0, 0.0],
            ),
            (
                "compaction",
                |dir, registry| {
                    // Four one-byte-threshold seals, then reopened with a
                    // threshold that makes all four small.
                    let archive = TraceArchive::open(tiny_cfg(dir), &Registry::new()).unwrap();
                    for w in 0..COMPACT_MIN_SEGMENTS as u64 {
                        archive.observe_window(
                            w,
                            vec![trace(w, w + 1, 7, w * 1_000, w * 1_000 + 500)],
                        );
                    }
                    drop(archive);
                    let cfg = ArchiveConfig {
                        segment_bytes: 64 << 10,
                        ..ArchiveConfig::new(dir)
                    };
                    TraceArchive::open(cfg, registry).unwrap()
                },
                TraceArchive::maintain,
                [0.0, 1.0, 0.0, 0.0],
            ),
            (
                "retention",
                |dir, registry| {
                    // Window 0 holds a slow trace (salvaged) and a fast
                    // one (dropped); the cap then evicts its segment.
                    let archive = TraceArchive::open(tiny_cfg(dir), &Registry::new()).unwrap();
                    let slow = trace(0, 1, 7, 1_000, 900_000_000);
                    archive.observe_window(0, vec![slow, trace(0, 2, 7, 2_000, 3_000)]);
                    archive.observe_window(1, vec![trace(1, 3, 7, 10_000, 20_000)]);
                    drop(archive);
                    let cfg = ArchiveConfig {
                        retention_bytes: 600,
                        ..tiny_cfg(dir)
                    };
                    TraceArchive::open(cfg, registry).unwrap()
                },
                TraceArchive::maintain,
                [0.0, 0.0, 1.0, 1.0],
            ),
        ];
        for (name, setup, pass, moves) in passes {
            let clean = tmp_dir(&format!("commit-{name}"));
            let clean_registry = Registry::new();
            let reference = setup(&clean, &clean_registry);
            pass(&reference);
            let want = listing(&clean);
            assert_eq!(unlisted(&reference), Vec::<String>::new(), "{name}");
            assert_eq!(pass_counts(&clean_registry), moves, "{name}");

            for blocked in ["segment", "manifest"] {
                let dir = tmp_dir(&format!("commit-{name}-{blocked}"));
                let registry = Registry::new();
                let archive = setup(&dir, &registry);
                let layout =
                    |a: &TraceArchive| (a.segment_count(), a.committed_bytes(), a.watermark());
                let before = (layout(&archive), pass_counts(&registry));
                let errors = series(&registry, ERRORS);
                let block = match blocked {
                    "segment" => {
                        let seq = archive.state.lock().manifest.next_seq;
                        dir.join(Manifest::segment_file(seq))
                    }
                    _ => dir.join(format!("{MANIFEST_FILE}.tmp")),
                };
                std::fs::create_dir(&block).unwrap();
                pass(&archive);

                let case = format!("{name} with the {blocked} blocked");
                assert_eq!((layout(&archive), pass_counts(&registry)), before, "{case}");
                assert_eq!(series(&registry, ERRORS), errors + 1.0, "{case}");
                assert_eq!(unlisted(&archive), Vec::<String>::new(), "{case}");

                std::fs::remove_dir(&block).unwrap();
                pass(&archive);
                assert!(
                    listing(&dir) == want,
                    "{case}: retry differs from a clean run"
                );
                assert_eq!(pass_counts(&registry), moves, "{case}");
                assert_eq!(series(&registry, ERRORS), errors + 1.0, "{case}");
                let _ = std::fs::remove_dir_all(&dir);
            }
            let _ = std::fs::remove_dir_all(&clean);
        }
    }

    #[test]
    fn read_query_is_read_only_and_reports_corruption() {
        let dir = tmp_dir("roq");
        let archive = TraceArchive::open(tiny_cfg(&dir), &Registry::new()).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        archive.observe_window(1, vec![trace(1, 2, 9, 3_000, 4_000)]);
        drop(archive);

        let hits = read_query(
            &dir,
            &TraceQuery {
                service: Some(9),
                ..TraceQuery::default()
            },
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].root, 2);

        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_query(&dir, &TraceQuery::default()).unwrap_err();
        assert_eq!(err.reason(), "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A limited query stops before a segment that cannot change its
    /// answer, so that segment's corruption goes unreported; the
    /// unlimited query still reads it and reports it.
    #[test]
    fn limited_query_skips_a_corrupt_segment_past_its_cut() {
        let dir = tmp_dir("cut");
        let registry = Registry::new();
        let archive = TraceArchive::open(tiny_cfg(&dir), &registry).unwrap();
        archive.observe_window(0, vec![trace(0, 1, 7, 1_000, 2_000)]);
        let window1 = (2..5).map(|root| trace(1, root, 7, 3_000, 3_000 + root));
        archive.observe_window(1, window1.collect());
        archive.observe_window(2, vec![trace(2, 5, 7, 5_000, 6_000)]);
        let past_cut = archive.state.lock().manifest.segments[2].clone();
        assert_eq!(past_cut.index.min_window, 2);
        let path = dir.join(&past_cut.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // The second result is in window 1, so window 2's segment is not
        // read.
        let limited = TraceQuery {
            limit: 2,
            ..TraceQuery::default()
        };
        let want = [1, 2];
        let got = archive.query(&limited);
        assert_eq!(got.iter().map(|t| t.root).collect::<Vec<_>>(), want);
        assert_eq!(series(&registry, ERRORS), 0.0);
        let read = read_query(&dir, &limited).unwrap();
        assert_eq!(read.iter().map(|t| t.root).collect::<Vec<_>>(), want);

        let unlimited = TraceQuery {
            limit: usize::MAX,
            ..TraceQuery::default()
        };
        assert_eq!(archive.query(&unlimited).len(), 4);
        assert_eq!(series(&registry, ERRORS), 1.0);
        let err = read_query(&dir, &unlimited).unwrap_err();
        assert_eq!(err.reason(), "corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A limited service query builds, from a segment holding more
    /// matches, only the traces it returns: the first by sort key, not the
    /// first in the file.
    #[test]
    fn a_limited_query_builds_only_what_it_returns() {
        use crate::segment::testutil::built;
        let dir = tmp_dir("built");
        let archive = TraceArchive::open(ArchiveConfig::new(&dir), &Registry::new()).unwrap();
        let traces = (0..10).map(|root| trace(0, root, 7 + root as u32 % 2, 2_000 - root, 3_000));
        archive.observe_window(0, traces.collect());
        archive.sync();
        assert_eq!(archive.segment_count(), 1);

        let q = TraceQuery {
            service: Some(7),
            limit: 2,
            ..TraceQuery::default()
        };
        let (hits, n) = built(|| read_query(&dir, &q).unwrap());
        assert_eq!(hits.iter().map(|t| t.root).collect::<Vec<_>>(), [8, 6]);
        assert_eq!(n, 2);
        let (live, n) = built(|| archive.query(&q));
        assert_eq!((live, n), (hits, 2));
        let unlimited = TraceQuery {
            limit: usize::MAX,
            ..q
        };
        assert_eq!(built(|| archive.query(&unlimited)).1, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    mod scan {
        use super::*;
        use proptest::prelude::*;
        use tw_model::ids::OperationId;

        /// What happens after a window is observed.
        #[derive(Debug, Clone, Copy)]
        enum Then {
            Nothing,
            Sync,
            Maintain,
        }

        /// One window: each trace's (start, duration, service, op), then
        /// the step that follows it. Starts collide, so the window at a cut
        /// often holds several traces tied on (window, start).
        fn window() -> impl Strategy<Value = (Vec<(u64, u64, u32, u32)>, Then)> {
            (
                prop::collection::vec((0u64..3, 0u64..3, 0u32..3, 0u32..2), 0..6),
                (0usize..4)
                    .prop_map(|i| [Then::Nothing, Then::Nothing, Then::Sync, Then::Maintain][i]),
            )
        }

        /// A query's filters, each set or not, without its limit.
        fn filters() -> impl Strategy<Value = TraceQuery> {
            (
                (prop::option::of(0u32..3), prop::option::of(0u32..2)),
                prop::option::of(0u64..3),
                prop::option::of(0u64..12),
                prop::option::of(0u64..12_000),
                prop::option::of(0u64..32_000),
            )
                .prop_map(|((service, op), min_latency_ns, window, from_ns, to_ns)| {
                    TraceQuery {
                        service,
                        op,
                        min_latency_ns,
                        window,
                        from_ns,
                        to_ns,
                        ..TraceQuery::default()
                    }
                })
        }

        /// `matches`, then sort, then truncate: the answer by definition.
        fn brute_force(traces: &[StoredTrace], q: &TraceQuery) -> Vec<StoredTrace> {
            let mut hits: Vec<StoredTrace> =
                traces.iter().filter(|t| q.matches(t)).cloned().collect();
            hits.sort_by_key(StoredTrace::sort_key);
            hits.truncate(q.effective_limit());
            hits
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Archives laid out by seals, compaction and the active
            /// buffer, with small segments so that a compaction lists a
            /// merged early-window segment after later ones: the live and
            /// the read-only query both answer every limit exactly as the
            /// brute force over every observed trace does.
            #[test]
            fn limited_scans_answer_like_brute_force(
                windows in prop::collection::vec(window(), 1..32),
                segment_bytes in (0usize..3).prop_map(|i| [300u64, 1_500, 2_500][i]),
                queries in prop::collection::vec(filters(), 1..6),
            ) {
                let dir = tmp_dir("prop-scan");
                let cfg = ArchiveConfig {
                    segment_bytes,
                    ..ArchiveConfig::new(&dir)
                };
                let archive = TraceArchive::open(cfg, &Registry::new()).unwrap();
                let mut observed = Vec::new();
                for (w, (traces, then)) in (0u64..).zip(windows) {
                    let traces: Vec<StoredTrace> = traces
                        .into_iter()
                        .map(|(start, duration, service, op)| {
                            let start = w * 1_000 + start;
                            let root = observed.len() as u64 + 1;
                            let mut t = trace(w, root, service, start, start + 1 + duration);
                            t.spans[0].record.callee.op = OperationId(op);
                            observed.push(t.clone());
                            t
                        })
                        .collect();
                    archive.observe_window(w, traces);
                    match then {
                        Then::Nothing => {}
                        Then::Sync => archive.sync(),
                        Then::Maintain => archive.maintain(),
                    }
                }
                let watermark = archive.watermark();
                let committed: Vec<StoredTrace> =
                    observed.iter().filter(|t| t.window < watermark).cloned().collect();
                // Until the first commit there is no manifest to read.
                let read = |q: &TraceQuery| match read_query(&dir, q) {
                    Err(StoreError::Missing) if watermark == 0 => Vec::new(),
                    result => result.unwrap(),
                };
                for q in &queries {
                    for limit in [0, 1, 2, 7, 200, usize::MAX] {
                        let q = TraceQuery { limit, ..q.clone() };
                        prop_assert_eq!(archive.query(&q), brute_force(&observed, &q), "{:?}", q);
                        prop_assert_eq!(read(&q), brute_force(&committed, &q), "{:?}", q);
                    }
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
