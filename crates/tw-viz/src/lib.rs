//! Terminal visualization for TraceWeaver.
//!
//! Reconstructed traces are only useful if operators can look at them;
//! this crate renders them (and evaluation data) in any terminal:
//!
//! * [`waterfall`] — the classic trace waterfall (Gantt) view, like
//!   Jaeger's timeline but in plain text,
//! * [`boxplot`] — ASCII boxplots for percentile summaries (the Figure 6a
//!   style of the paper).
//!
//! Everything returns `String`s; nothing writes to stdout directly, so
//! output composes with any logging setup.

pub mod boxplot;
pub mod waterfall;

pub use boxplot::render_boxplots;
pub use waterfall::render_waterfall;
