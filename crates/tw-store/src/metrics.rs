//! The `tw_store_*` metric family: archive size, append/seal/compaction
//! throughput, retention accounting, and query latency. Registered
//! eagerly at archive open so a healthy run still exports the family at
//! zero.

use tw_telemetry::{Buckets, Counter, Gauge, Histogram, Registry};

/// Registry handles for the archive's self-telemetry.
#[derive(Debug, Clone)]
pub struct StoreMetrics {
    /// `tw_store_segments` — committed segments in the manifest.
    pub segments: Gauge,
    /// `tw_store_bytes` — committed segment bytes.
    pub bytes: Gauge,
    /// `tw_store_watermark` — archived-window watermark.
    pub watermark: Gauge,
    /// `tw_store_appends_total` — traces appended to the active buffer.
    pub appends: Counter,
    /// `tw_store_seals_total` — segments sealed and committed.
    pub seals: Counter,
    /// `tw_store_compactions_total` — small-segment merges.
    pub compactions: Counter,
    /// `tw_store_retention_dropped_total{reason="size"}` — traces evicted
    /// by the retention byte cap (salvaged tail traces excluded).
    pub dropped_size: Counter,
    /// `tw_store_tail_kept_total` — high-latency/degraded traces salvaged
    /// into a tail segment when their segment was evicted.
    pub tail_kept: Counter,
    /// `tw_store_query_seconds` — one observation per query served (its
    /// `_count` is the query count).
    pub query_seconds: Histogram,
    /// `tw_store_errors_total` — segment/manifest writes or reads that
    /// failed at runtime (the archive keeps serving; the previous
    /// committed state stays intact).
    pub errors: Counter,
    /// `tw_store_cold_starts_total{reason}` — archive opens that could
    /// not load the manifest (fresh archive after a corrupt/io reject;
    /// `missing` is a normal first boot and not counted).
    pub cold_corrupt: Counter,
    pub cold_io: Counter,
    /// `tw_store_orphans_total` — uncommitted segment files removed at
    /// open (a crash between segment write and manifest commit).
    pub orphans: Counter,
}

impl StoreMetrics {
    pub fn new(registry: &Registry) -> Self {
        let cold = |reason: &str| {
            registry.counter_with(
                "tw_store_cold_starts_total",
                "Archive opens that rejected the manifest and started fresh, by reason.",
                &[("reason", reason)],
            )
        };
        StoreMetrics {
            segments: registry.gauge(
                "tw_store_segments",
                "Committed segments listed in the archive manifest.",
            ),
            bytes: registry.gauge(
                "tw_store_bytes",
                "Total bytes of committed archive segments.",
            ),
            watermark: registry.gauge(
                "tw_store_watermark",
                "Archived-window watermark: windows below it are durably stored.",
            ),
            appends: registry.counter(
                "tw_store_appends_total",
                "Reconstructed traces appended to the archive's active buffer.",
            ),
            seals: registry.counter(
                "tw_store_seals_total",
                "Segments sealed and committed to the manifest.",
            ),
            compactions: registry.counter(
                "tw_store_compactions_total",
                "Compaction passes that merged small segments into one.",
            ),
            dropped_size: registry.counter_with(
                "tw_store_retention_dropped_total",
                "Traces evicted by the retention pass, by cap that triggered it.",
                &[("reason", "size")],
            ),
            tail_kept: registry.counter(
                "tw_store_tail_kept_total",
                "High-latency or degraded traces salvaged into a tail segment at eviction.",
            ),
            query_seconds: registry.histogram(
                "tw_store_query_seconds",
                "Wall-clock time per trace query, including segment reads.",
                Buckets::exponential(1e-5, 4.0, 10),
            ),
            errors: registry.counter(
                "tw_store_errors_total",
                "Archive reads/writes that failed at runtime (previous committed state intact).",
            ),
            cold_corrupt: cold("corrupt"),
            cold_io: cold("io"),
            orphans: registry.counter(
                "tw_store_orphans_total",
                "Uncommitted segment files removed at open (crash before manifest commit).",
            ),
        }
    }
}
