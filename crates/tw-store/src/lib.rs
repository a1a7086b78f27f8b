//! `tw-store`: a durable, queryable archive of reconstructed traces
//! (DESIGN.md §14).
//!
//! The online pipeline reconstructs a `WindowResult` per window and then —
//! before this crate — dropped it: only metrics and a bounded span ring
//! survived a run. The archive is the missing sink: an append-only,
//! segmented store of *reconstructed traces* (not raw records) with
//! time/service/latency-indexed retrieval, so operators can answer "show
//! me the slow checkout traces from 14:02" long after the window flowed
//! through.
//!
//! Layout on disk, under one archive directory:
//!
//! * **Segments** (`seg-XXXXXXXX.twsg`) — immutable, CRC-framed files,
//!   each holding a batch of sealed [`StoredTrace`]s as fixed-width
//!   binary rows (a trace directory, then the spans) plus a footer
//!   [`SegmentIndex`] (min/max timestamp, per-service and per-endpoint
//!   record counts, a latency histogram). Written once via
//!   write-temp→fsync→rename; never modified afterwards.
//! * **Manifest** (`archive.manifest`) — the single source of truth for
//!   which segments exist, also CRC-framed and atomically replaced. A
//!   segment is *durable* exactly when the manifest lists it; a crash
//!   between a segment write and the manifest commit leaves an orphan
//!   file that the next open removes (its windows were never recorded as
//!   archived, so replay re-archives them — nothing silently vanishes).
//!
//! The archive maintains itself at commit, with no thread of its own:
//! every commit that writes a segment then merges small segments and
//! enforces a byte cap with a *tail-retention* policy: when a segment is
//! evicted, its high-latency and degraded traces are salvaged into a
//! tail segment first — the rare slow traces are the valuable ones.
//!
//! Reads go through [`TraceQuery`] (time range × service × endpoint ×
//! min-latency), either against a live [`TraceArchive`] (which also sees
//! the not-yet-sealed active buffer) or read-only against a directory via
//! [`read_query`] (no lock, no mutation — `twctl query --dir`).

pub mod archive;
pub mod frame;
pub mod manifest;
pub mod metrics;
pub mod query;
pub mod segment;

pub use archive::{read_query, ArchiveConfig, TraceArchive};
pub use frame::StoreError;
pub use manifest::{load_manifest, save_manifest, Manifest, SegmentMeta, MANIFEST_FILE};
pub use metrics::StoreMetrics;
pub use query::{TraceQuery, TracesDoc};
pub use segment::{
    read_segment, read_segment_index, write_segment, SegmentIndex, StoredSpan, StoredTrace,
};
