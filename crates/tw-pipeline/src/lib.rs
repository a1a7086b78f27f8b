//! Deployment modes for TraceWeaver (paper §5.3).
//!
//! * [`store`] — **offline** mode: spans are persisted as JSON lines and
//!   reconstructed later, and a span file can teach a delay registry that
//!   warm-starts an engine;
//! * [`online`] — **online** mode: spans stream into a running engine
//!   (over a crossbeam channel, as they would over the wire via
//!   `tw_capture::wire`) that reconstructs tumbling windows in real time;
//! * [`net`] — a TCP span transport: agents export wire frames to an
//!   ingestion server feeding the engine;
//! * [`sanitize`] — a defensive stage between ingestion and the engine:
//!   truncation and non-causal rejection, bounded dedup, and clock-skew
//!   correction (DESIGN.md §9);
//! * [`pipeline`] — the staged-pipeline core: the [`Stage`] abstraction,
//!   bounded blocking inter-stage queues, and the [`PipelineBuilder`] the
//!   online path chains its stages with (DESIGN.md §11);
//! * [`sampling`] — **tail-based sampling** on reconstructed traces: once
//!   a window is mapped, a configured fraction of complete traces is kept
//!   and the rest dropped — the sampling style head-based tracing cannot
//!   provide without context propagation (§6.6 discusses why head-based
//!   sampling is unsupported).
//!
//! Every stage reports into a [`tw_telemetry::Registry`] (DESIGN.md §10):
//! pass one registry to the server/sanitizer/engine and serve it over
//! HTTP with [`MetricsServer`] for a Prometheus-scrapeable view of the
//! whole pipeline.

pub mod archive;
pub mod checkpoint;
pub mod net;
pub mod online;
pub mod pipeline;
pub mod sampling;
pub mod sanitize;
pub mod store;
pub mod supervise;

pub use archive::{stored_traces, ArchiveStage};
pub use checkpoint::{
    load_checkpoint, write_checkpoint, CheckpointConfig, CheckpointDoc, CheckpointError,
    RecoveryMetrics,
};
pub use net::{
    export_records, export_records_with, fetch, fetch_traces, IngestServer, MetricsServer,
    ServeHealth,
};
pub use online::{DegradationLevel, OnlineConfig, OnlineEngine, ShedPolicy, WindowResult};
pub use pipeline::{
    DeadLetterPayload, Emitter, Pipeline, PipelineBuilder, ShutdownReport, Stage, StageCtx,
};
pub use sampling::TailSampler;
pub use sanitize::{
    SanitizeConfig, SanitizeStage, SanitizeStats, Sanitizer, SanitizerSnapshot,
    SanitizerSnapshotSlot,
};
pub use store::{learn_delays, load_registry, load_spans, save_registry, save_spans};
pub use supervise::{DeadLetter, DeadLetterQueue, StageFailure, Supervisor};
