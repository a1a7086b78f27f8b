//! Span-level self-tracing: one span tree per reconstruction window.
//!
//! TraceWeaver reconstructs traces for services it cannot instrument; this
//! module turns the tracer on itself. A [`SpanRecorder`] records a bounded
//! ring of per-window span trees as each window flows through the online
//! pipeline (sanitize → route → collect → reconstruct → result hand-off →
//! absorb), with supervisor restarts and checkpoint writes attached as
//! span events.
//!
//! Design constraints mirror the metrics layer:
//!
//! * **Lock-cheap** — the hot path (per-record) never touches the recorder;
//!   spans are created per *window* (route/collect/reconstruct/absorb), so the
//!   per-window mutex is uncontended in practice. Unsampled windows cost
//!   one modulo.
//! * **Bounded** — finished trees live in a ring of configurable capacity;
//!   the oldest tree is evicted when the ring is full. Open trees are
//!   force-sealed if the active set outgrows the same bound, so a window
//!   that never cuts cannot leak.
//! * **Head-sampled by window index** — `index % sample == 0` keeps every
//!   stage's view of "is this window traced" identical without
//!   coordination, which is what makes span trees deterministic across
//!   runs and thread counts.
//!
//! [`SpanGuard`] mirrors `StageTimer`: RAII finish-on-drop with an explicit
//! `discard`.

use crate::{Counter, Registry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Knobs for the self-tracing layer: `sample` is `twctl serve
/// --trace-sample`, and `ring` keeps its default there.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Head-sampling modulus: window `i` is traced iff `i % sample == 0`.
    /// `1` traces every window; `0` disables tracing entirely.
    pub sample: u64,
    /// Capacity of the finished-tree ring (and cap on open trees).
    pub ring: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample: 1,
            ring: 64,
        }
    }
}

/// One recorded span: explicit id, explicit parent id (None for the window
/// root), and start/end offsets in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct SpanData {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    /// None while the span is still open; filled on guard drop or seal.
    pub end_ns: Option<u64>,
}

/// A point event attached to a span (supervisor restart, checkpoint write,
/// window cut, result hand-off).
#[derive(Clone, Debug)]
pub struct EventData {
    pub at_ns: u64,
    /// Span the event is attached to (the root span for window-level
    /// events).
    pub span: u64,
    pub message: String,
}

/// The span tree of one reconstruction window.
#[derive(Clone, Debug)]
pub struct WindowTrace {
    pub window: u64,
    pub root: u64,
    pub spans: Vec<SpanData>,
    pub events: Vec<EventData>,
    pub sealed: bool,
}

struct RecorderInner {
    sample: u64,
    ring: usize,
    epoch: Instant,
    next_id: AtomicU64,
    active: Mutex<BTreeMap<u64, WindowTrace>>,
    finished: Mutex<VecDeque<WindowTrace>>,
    /// `tw_trace_windows_sampled_total`: windows head-sampling selected.
    windows_sampled: Counter,
}

/// Records one span tree per sampled window into a bounded ring. Cloning is
/// cheap and clones share storage, so the recorder can be threaded through
/// every pipeline stage like a metric handle.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("sample", &self.inner.sample)
            .field("ring", &self.inner.ring)
            .finish()
    }
}

impl SpanRecorder {
    /// New recorder registering `tw_trace_windows_sampled_total` on
    /// `registry`.
    pub fn new(cfg: TraceConfig, registry: &Registry) -> Self {
        SpanRecorder {
            inner: Arc::new(RecorderInner {
                sample: cfg.sample,
                ring: cfg.ring.max(1),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                active: Mutex::new(BTreeMap::new()),
                finished: Mutex::new(VecDeque::new()),
                windows_sampled: registry.counter(
                    "tw_trace_windows_sampled_total",
                    "Windows selected by head-sampling for self-tracing.",
                ),
            }),
        }
    }

    /// True if both handles share the same storage.
    pub fn same_as(&self, other: &SpanRecorder) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    fn alloc_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Head-sampling decision for a window index. Deterministic across
    /// stages and runs.
    pub fn sampled(&self, window: u64) -> bool {
        self.inner.sample != 0 && window.is_multiple_of(self.inner.sample)
    }

    /// Start a stage span under `window`'s tree (creating the root span
    /// lazily on first touch). Returns `None` for unsampled windows, so the
    /// caller pays nothing but the modulo.
    pub fn span(&self, window: u64, name: &str) -> Option<SpanGuard> {
        if !self.sampled(window) {
            return None;
        }
        let id = self.start_span(window, None, name);
        Some(SpanGuard {
            rec: self.clone(),
            window,
            id,
            armed: true,
        })
    }

    /// Allocate and register a span; `parent` of `None` means "child of the
    /// window root". Creates the root span if this is the window's first.
    fn start_span(&self, window: u64, parent: Option<u64>, name: &str) -> u64 {
        let now = self.now_ns();
        let mut evicted = None;
        let id = {
            let mut active = self.inner.active.lock().unwrap();
            if !active.contains_key(&window) {
                // Bound the open set: a window that never cuts must not
                // leak. The evicted tree is sealed outside the lock — the
                // `active` and `finished` mutexes are never held together.
                if active.len() >= self.inner.ring {
                    if let Some((&oldest, _)) = active.iter().next() {
                        evicted = active.remove(&oldest);
                    }
                }
                let root = self.alloc_id();
                active.insert(
                    window,
                    WindowTrace {
                        window,
                        root,
                        spans: vec![SpanData {
                            id: root,
                            parent: None,
                            name: "window".to_string(),
                            start_ns: now,
                            end_ns: None,
                        }],
                        events: Vec::new(),
                        sealed: false,
                    },
                );
                self.inner.windows_sampled.inc();
            }
            let trace = active.get_mut(&window).unwrap();
            let parent = parent.unwrap_or(trace.root);
            let id = self.alloc_id();
            trace.spans.push(SpanData {
                id,
                parent: Some(parent),
                name: name.to_string(),
                start_ns: now,
                end_ns: None,
            });
            id
        };
        if let Some(trace) = evicted {
            self.finish_trace(trace, now);
        }
        id
    }

    fn finish_span(&self, window: u64, id: u64) {
        let now = self.now_ns();
        let mut active = self.inner.active.lock().unwrap();
        if let Some(trace) = active.get_mut(&window) {
            if let Some(span) = trace.spans.iter_mut().find(|s| s.id == id) {
                span.end_ns = Some(now);
            }
        }
    }

    fn drop_span(&self, window: u64, id: u64) {
        let mut active = self.inner.active.lock().unwrap();
        if let Some(trace) = active.get_mut(&window) {
            trace.spans.retain(|s| s.id != id);
        }
    }

    /// Attach an event to `window`'s tree (to span `span`, or the root when
    /// `None`). No-op for unsampled or unknown windows.
    pub fn event(&self, window: u64, span: Option<u64>, message: impl Into<String>) {
        if !self.sampled(window) {
            return;
        }
        let now = self.now_ns();
        let mut active = self.inner.active.lock().unwrap();
        if let Some(trace) = active.get_mut(&window) {
            let span = span.unwrap_or(trace.root);
            trace.events.push(EventData {
                at_ns: now,
                span,
                message: message.into(),
            });
        }
    }

    /// Attach an event to the newest open window tree. Used for events that
    /// are not attributable to a specific window from the call site
    /// (supervisor restarts).
    pub fn event_newest(&self, message: impl Into<String>) {
        let now = self.now_ns();
        let mut active = self.inner.active.lock().unwrap();
        if let Some((_, trace)) = active.iter_mut().next_back() {
            let span = trace.root;
            trace.events.push(EventData {
                at_ns: now,
                span,
                message: message.into(),
            });
        }
    }

    /// Root span id of `window`'s open tree, if it is sampled and active.
    /// Used to stamp `span_id` exemplar labels.
    pub fn root_id(&self, window: u64) -> Option<u64> {
        if !self.sampled(window) {
            return None;
        }
        let active = self.inner.active.lock().unwrap();
        active.get(&window).map(|t| t.root)
    }

    /// Seal `window`'s tree: close any still-open spans (including the
    /// root) and move it to the finished ring, evicting the oldest tree if
    /// the ring is full.
    pub fn seal(&self, window: u64) {
        let now = self.now_ns();
        let trace = {
            let mut active = self.inner.active.lock().unwrap();
            active.remove(&window)
        };
        if let Some(trace) = trace {
            self.finish_trace(trace, now);
        }
    }

    fn finish_trace(&self, mut trace: WindowTrace, now: u64) {
        for span in &mut trace.spans {
            if span.end_ns.is_none() {
                span.end_ns = Some(now);
            }
        }
        trace.sealed = true;
        let mut finished = self.inner.finished.lock().unwrap();
        while finished.len() >= self.inner.ring {
            finished.pop_front();
        }
        finished.push_back(trace);
    }

    /// Sealed trees currently in the ring, oldest first. Cloned for tests
    /// and the benchmark.
    pub fn finished_snapshot(&self) -> Vec<WindowTrace> {
        self.inner
            .finished
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .collect()
    }

    /// Render recent (sealed, newest first) and active trees as a JSON
    /// document for `GET /spans`.
    pub fn render_json(&self) -> String {
        let recent: Vec<WindowTrace> = {
            let finished = self.inner.finished.lock().unwrap();
            finished.iter().rev().cloned().collect()
        };
        let active: Vec<WindowTrace> = {
            let active = self.inner.active.lock().unwrap();
            active.values().cloned().collect()
        };
        let mut out = String::with_capacity(1024);
        out.push_str("{\"recent\":");
        render_traces(&mut out, &recent);
        out.push_str(",\"active\":");
        render_traces(&mut out, &active);
        out.push('}');
        out
    }
}

/// RAII span handle mirroring `StageTimer`: the span's end time is stamped
/// when the guard drops; [`SpanGuard::discard`] removes the span instead.
#[derive(Debug)]
pub struct SpanGuard {
    rec: SpanRecorder,
    window: u64,
    id: u64,
    armed: bool,
}

impl SpanGuard {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn window(&self) -> u64 {
        self.window
    }

    /// Attach an event to this span.
    pub fn event(&self, message: impl Into<String>) {
        self.rec.event(self.window, Some(self.id), message);
    }

    /// Start a child span of this span.
    pub fn child(&self, name: &str) -> SpanGuard {
        let id = self.rec.start_span(self.window, Some(self.id), name);
        SpanGuard {
            rec: self.rec.clone(),
            window: self.window,
            id,
            armed: true,
        }
    }

    /// Remove the span from the tree without recording an end time.
    pub fn discard(mut self) {
        self.armed = false;
        self.rec.drop_span(self.window, self.id);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            self.rec.finish_span(self.window, self.id);
        }
    }
}

/// Minimal JSON string escaping (the only JSON we emit by hand; the crate
/// is std-only by policy).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

fn render_traces(out: &mut String, traces: &[WindowTrace]) {
    use std::fmt::Write;
    out.push('[');
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"window\":{},\"root\":{},\"sealed\":{},\"spans\":[",
            t.window, t.root, t.sealed
        );
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "null".to_string()),
                escape_json(&s.name),
                s.start_ns,
                s.end_ns
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "null".to_string()),
            );
        }
        out.push_str("],\"events\":[");
        for (j, e) in t.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"at_ns\":{},\"span\":{},\"message\":\"{}\"}}",
                e.at_ns,
                e.span,
                escape_json(&e.message)
            );
        }
        out.push_str("]}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(sample: u64, ring: usize) -> SpanRecorder {
        SpanRecorder::new(TraceConfig { sample, ring }, &Registry::new())
    }

    #[test]
    fn span_tree_parentage_and_seal() {
        let rec = recorder(1, 8);
        let route = rec.span(0, "route").unwrap();
        let root = rec.root_id(0).unwrap();
        assert_eq!(route.window(), 0);
        drop(route);
        let collect = rec.span(0, "collect").unwrap();
        let inner = collect.child("reconstruct");
        drop(inner);
        drop(collect);
        rec.event(0, None, "cut");
        rec.seal(0);
        let trees = rec.finished_snapshot();
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert!(t.sealed);
        assert_eq!(t.root, root);
        let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["window", "route", "collect", "reconstruct"]);
        // Root has no parent; route/collect hang off the root; the
        // reconstruct child hangs off collect.
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(t.root));
        assert_eq!(t.spans[2].parent, Some(t.root));
        assert_eq!(t.spans[3].parent, Some(t.spans[2].id));
        assert!(t.spans.iter().all(|s| s.end_ns.is_some()));
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].span, t.root);
    }

    #[test]
    fn head_sampling_by_window_index() {
        let rec = recorder(4, 8);
        assert!(rec.sampled(0));
        assert!(!rec.sampled(1));
        assert!(rec.sampled(4));
        assert!(rec.span(3, "route").is_none());
        assert!(rec.span(4, "route").is_some());
        let off = recorder(0, 8);
        assert!(!off.sampled(0));
    }

    #[test]
    fn ring_is_bounded() {
        let reg = Registry::new();
        let rec = SpanRecorder::new(TraceConfig { sample: 1, ring: 2 }, &reg);
        for w in 0..5 {
            drop(rec.span(w, "route"));
            rec.seal(w);
        }
        let trees = rec.finished_snapshot();
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].window, 3);
        assert_eq!(trees[1].window, 4);
        let sampled = reg.counter("tw_trace_windows_sampled_total", "").get();
        assert_eq!(sampled, 5);
    }

    #[test]
    fn discard_removes_span() {
        let rec = recorder(1, 8);
        let g = rec.span(7, "route").unwrap();
        g.discard();
        rec.seal(7);
        let trees = rec.finished_snapshot();
        assert_eq!(trees[0].spans.len(), 1); // only the root remains
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let rec = recorder(1, 8);
        let g = rec.span(0, "route").unwrap();
        g.event("cut \"quoted\"");
        drop(g);
        rec.seal(0);
        drop(rec.span(1, "route").unwrap());
        let json = rec.render_json();
        assert!(json.starts_with("{\"recent\":["));
        assert!(json.contains("\"active\":["));
        assert!(json.contains("cut \\\"quoted\\\""));
        assert!(json.contains("\"name\":\"window\""));
    }
}
