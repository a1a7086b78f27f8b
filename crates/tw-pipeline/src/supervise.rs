//! Supervision for the staged pipeline (DESIGN.md §11): panic isolation
//! with `catch_unwind`, a per-stage restart budget (bounded exponential
//! backoff over a rolling window, escalate-to-shutdown when exhausted),
//! and a bounded dead-letter queue holding a record of every quarantined
//! input item.
//!
//! Before this module any stage panic unwound its thread and surfaced
//! only at join time, tearing the whole graph down and losing every open
//! window. Now a panicking `process` call quarantines the offending item
//! (the poison pill is *consumed*, never retried), counts it, and the
//! same stage instance resumes on the next item — open-window state
//! survives, so unaffected windows are byte-identical to a fault-free
//! run. Only a stage that keeps panicking faster than the restart budget
//! allows (5 restarts per rolling 30 s) escalates: it stops consuming,
//! which closes its queues and cascades an ordered shutdown through the
//! graph, and the failure is reported from [`crate::Pipeline::shutdown`] as a
//! [`StageFailure`] instead of a panic.
//!
//! Exported series (all registered per stage at spawn, so the families
//! are present — at zero — even on healthy pipelines):
//!
//! * `tw_pipeline_stage_panics_total{stage}` — panics caught in
//!   `process`/`flush`;
//! * `tw_pipeline_stage_restarts_total{stage}` — times the supervisor
//!   resumed a stage after a panic (after backoff);
//! * `tw_pipeline_dead_letter_total{stage,reason}` — items quarantined to
//!   the dead-letter queue, by reason (`panic`, `flush`, or `evicted`
//!   when the bounded queue dropped its oldest entry to make room).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tw_model::span::RpcRecord;
use tw_telemetry::trace::SpanRecorder;
use tw_telemetry::{Counter, Registry};

/// How the supervisor reacts to a panicking stage: restart with bounded
/// exponential backoff until [`MAX_RESTARTS`] inside a rolling
/// [`RESTART_WINDOW`] are spent, then escalate to an ordered shutdown.
/// Panics older than the window no longer count against the budget.
const MAX_RESTARTS: usize = 5;
const RESTART_WINDOW: Duration = Duration::from_secs(30);
/// Backoff before the first restart; doubles per restart within the
/// window, up to [`BACKOFF_MAX`].
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Backoff before restart number `n` (1-based): `BACKOFF_BASE * 2^(n-1)`,
/// capped at `BACKOFF_MAX`.
fn backoff(n: usize) -> Duration {
    let exp = n.saturating_sub(1).min(20) as u32;
    BACKOFF_BASE.saturating_mul(1u32 << exp).min(BACKOFF_MAX)
}

/// One quarantined input item: which stage it poisoned, why, and where in
/// the stage's input stream it sat. The item itself was consumed by the
/// panicking call (stages take ownership), so the record carries
/// provenance, not the payload. It is also what `GET /deadletters` serves
/// and `twctl deadletters` reads back.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeadLetter {
    /// Stage whose `process`/`flush` panicked.
    pub stage: String,
    /// Quarantine reason: `panic` (poison input item) or `flush` (panic
    /// draining buffered state at shutdown).
    pub reason: String,
    /// The panic payload, stringified.
    pub message: String,
    /// 1-based index of the item in the stage's input stream (0 for
    /// flush, which has no input item).
    pub item_seq: u64,
    /// The quarantined record itself, when the poisoned item carried one
    /// (captured by the runner via
    /// [`crate::pipeline::DeadLetterPayload`] before the panicking call
    /// consumed it). `twctl deadletters --resubmit` replays these.
    pub record: Option<RpcRecord>,
    /// Window index the poisoned item belonged to, when known — links the
    /// quarantine to the window's span tree on `GET /spans`.
    pub window: Option<u64>,
}

/// Bounded, shared dead-letter queue. When full, the oldest entry is
/// evicted (and counted) so the newest poison is always inspectable.
/// Cloning shares the same queue.
#[derive(Clone)]
pub struct DeadLetterQueue {
    inner: Arc<Mutex<VecDeque<DeadLetter>>>,
    capacity: usize,
}

impl DeadLetterQueue {
    /// A queue holding at most `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        DeadLetterQueue {
            inner: Arc::new(Mutex::new(VecDeque::new())),
            capacity: capacity.max(1),
        }
    }

    /// Append an entry, evicting the oldest when full. Returns true when
    /// an entry was evicted to make room.
    pub fn push(&self, letter: DeadLetter) -> bool {
        let mut q = self.inner.lock();
        let evicted = q.len() >= self.capacity && q.pop_front().is_some();
        q.push_back(letter);
        evicted
    }

    /// Snapshot of the queue contents, oldest first.
    pub fn snapshot(&self) -> Vec<DeadLetter> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been quarantined (or everything was
    /// drained).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl Default for DeadLetterQueue {
    fn default() -> Self {
        DeadLetterQueue::new(256)
    }
}

/// A stage failure surfaced from [`crate::Pipeline::shutdown`]: either a
/// supervisor escalation (restart budget exhausted) or a panic that
/// escaped the supervised loop entirely (runner bug).
#[derive(Debug, Clone)]
pub struct StageFailure {
    /// Stage name.
    pub stage: String,
    /// Stringified panic payload / escalation summary.
    pub payload: String,
}

impl std::fmt::Display for StageFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stage `{}` failed: {}", self.stage, self.payload)
    }
}

/// Pipeline-wide supervision state: the shared dead-letter queue and the
/// failure log [`crate::Pipeline::shutdown`] drains. Cloning shares both.
#[derive(Clone)]
pub struct Supervisor {
    dead_letters: DeadLetterQueue,
    failures: Arc<Mutex<Vec<StageFailure>>>,
    recorder: Option<SpanRecorder>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new(DeadLetterQueue::default())
    }
}

impl Supervisor {
    pub fn new(dead_letters: DeadLetterQueue) -> Self {
        Supervisor {
            dead_letters,
            failures: Arc::new(Mutex::new(Vec::new())),
            recorder: None,
        }
    }

    /// Attach a self-trace recorder: supervision decisions (restarts,
    /// escalations) become events on the affected window's span tree when
    /// the poison item carries a window, or on the newest sampled window
    /// otherwise.
    pub fn with_recorder(mut self, recorder: SpanRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The shared dead-letter queue (clone to inspect from outside the
    /// pipeline, e.g. `twctl serve`'s `/deadletters` endpoint).
    pub fn dead_letters(&self) -> &DeadLetterQueue {
        &self.dead_letters
    }

    /// Record a failure for [`crate::Pipeline::shutdown`] to surface.
    pub fn record_failure(&self, stage: &str, payload: String) {
        self.failures.lock().push(StageFailure {
            stage: stage.to_string(),
            payload,
        });
    }

    /// Drain the accumulated failures (shutdown path).
    pub fn take_failures(&self) -> Vec<StageFailure> {
        std::mem::take(&mut *self.failures.lock())
    }

    /// Per-stage supervision handle with its metric series registered.
    pub fn for_stage(&self, registry: &Registry, stage: &str) -> StageSupervisor {
        let dead_letter = |reason: &str| {
            registry.counter_with(
                "tw_pipeline_dead_letter_total",
                "Input items quarantined to the dead-letter queue, by stage and reason.",
                &[("stage", stage), ("reason", reason)],
            )
        };
        StageSupervisor {
            stage: stage.to_string(),
            shared: self.clone(),
            panics: registry.counter_with(
                "tw_pipeline_stage_panics_total",
                "Panics caught inside a stage's process/flush by the supervisor.",
                &[("stage", stage)],
            ),
            restarts: registry.counter_with(
                "tw_pipeline_stage_restarts_total",
                "Times the supervisor resumed a stage after a caught panic.",
                &[("stage", stage)],
            ),
            quarantined: dead_letter("panic"),
            flush_quarantined: dead_letter("flush"),
            evicted: dead_letter("evicted"),
            recent: VecDeque::new(),
        }
    }
}

/// What the supervised run loop should do after a caught panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Resume the same stage instance after sleeping the backoff.
    Restart(Duration),
    /// Budget exhausted: stop consuming, cascade an ordered shutdown.
    Escalate,
}

/// Per-stage supervision state, owned by the stage's runner thread.
pub struct StageSupervisor {
    stage: String,
    shared: Supervisor,
    panics: Counter,
    restarts: Counter,
    quarantined: Counter,
    flush_quarantined: Counter,
    evicted: Counter,
    recent: VecDeque<Instant>,
}

impl StageSupervisor {
    /// Emit a supervision event onto the self-trace, targeting the
    /// poisoned item's window when known.
    fn trace_event(&self, window: Option<u64>, message: String) {
        let Some(recorder) = &self.shared.recorder else {
            return;
        };
        match window {
            Some(w) => recorder.event(w, None, message),
            None => recorder.event_newest(message),
        }
    }

    /// Handle a panic from `process` on item `item_seq`: quarantine the
    /// item (with whatever payload provenance the runner captured), then
    /// decide restart-or-escalate against the rolling budget.
    pub fn on_panic(
        &mut self,
        message: &str,
        item_seq: u64,
        record: Option<RpcRecord>,
        window: Option<u64>,
    ) -> Verdict {
        self.panics.inc();
        self.quarantined.inc();
        if self.shared.dead_letters.push(DeadLetter {
            stage: self.stage.clone(),
            reason: "panic".to_string(),
            message: message.to_string(),
            item_seq,
            record,
            window,
        }) {
            self.evicted.inc();
        }
        let now = Instant::now();
        while self
            .recent
            .front()
            .is_some_and(|t| now.duration_since(*t) > RESTART_WINDOW)
        {
            self.recent.pop_front();
        }
        if self.recent.len() >= MAX_RESTARTS {
            self.shared.record_failure(
                &self.stage,
                format!(
                    "escalated after {} restarts within {RESTART_WINDOW:?}: {message}",
                    self.recent.len(),
                ),
            );
            self.trace_event(
                window,
                format!("stage `{}` escalated after panic: {message}", self.stage),
            );
            return Verdict::Escalate;
        }
        self.recent.push_back(now);
        self.restarts.inc();
        self.trace_event(
            window,
            format!("stage `{}` restarted after panic: {message}", self.stage),
        );
        Verdict::Restart(backoff(self.recent.len()))
    }

    /// Handle a panic from `flush`: quarantine and record, never restart
    /// (flush runs exactly once, at shutdown).
    pub fn on_flush_panic(&mut self, message: &str) {
        self.panics.inc();
        self.flush_quarantined.inc();
        if self.shared.dead_letters.push(DeadLetter {
            stage: self.stage.clone(),
            reason: "flush".to_string(),
            message: message.to_string(),
            item_seq: 0,
            record: None,
            window: None,
        }) {
            self.evicted.inc();
        }
        self.shared
            .record_failure(&self.stage, format!("flush panicked: {message}"));
    }
}

/// Stringify a panic payload (`&str` and `String` payloads verbatim,
/// anything else opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(1), Duration::from_millis(10));
        assert_eq!(backoff(2), Duration::from_millis(20));
        assert_eq!(backoff(3), Duration::from_millis(40));
        assert_eq!(backoff(7), Duration::from_millis(640));
        assert_eq!(backoff(8), Duration::from_secs(1), "capped");
        assert_eq!(backoff(usize::MAX), Duration::from_secs(1), "no overflow");
    }

    #[test]
    fn dead_letter_queue_bounded_with_eviction() {
        let q = DeadLetterQueue::new(2);
        let mk = |seq| DeadLetter {
            stage: "s".into(),
            reason: "panic".into(),
            message: format!("boom {seq}"),
            item_seq: seq,
            record: None,
            window: None,
        };
        assert!(!q.push(mk(1)));
        assert!(!q.push(mk(2)));
        assert!(q.push(mk(3)), "third push evicts the oldest");
        let snap = q.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].item_seq, 2);
        assert_eq!(snap[1].item_seq, 3);
    }

    #[test]
    fn supervisor_escalates_after_budget() {
        let registry = Registry::new();
        let sup = Supervisor::new(DeadLetterQueue::new(8));
        let mut stage = sup.for_stage(&registry, "flaky");
        for seq in 1..=MAX_RESTARTS as u64 {
            assert_eq!(
                stage.on_panic("boom", seq, None, None),
                Verdict::Restart(backoff(seq as usize))
            );
        }
        assert_eq!(stage.on_panic("boom", 6, None, None), Verdict::Escalate);
        let failures = sup.take_failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].payload.contains("escalated"));
        assert_eq!(sup.dead_letters().len(), 6, "every poison quarantined");
        let text = registry.render();
        assert!(text.contains("tw_pipeline_stage_panics_total{stage=\"flaky\"} 6"));
        assert!(text.contains("tw_pipeline_stage_restarts_total{stage=\"flaky\"} 5"));
        assert!(text.contains("tw_pipeline_dead_letter_total{reason=\"panic\",stage=\"flaky\"} 6"));
    }

    #[test]
    fn dead_letter_carries_payload_provenance() {
        let registry = Registry::new();
        let sup = Supervisor::default();
        let mut stage = sup.for_stage(&registry, "shard/0");
        use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
        use tw_model::time::Nanos;
        let rec = RpcRecord {
            rpc: RpcId(17),
            caller: ServiceId(1),
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(2), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos(100),
            recv_req: Nanos(110),
            send_resp: Nanos(120),
            recv_resp: Nanos(130),
            caller_thread: None,
            callee_thread: None,
        };
        stage.on_panic("boom", 4, Some(rec), Some(9));
        let snap = sup.dead_letters().snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].window, Some(9));
        assert_eq!(snap[0].record.expect("record captured").rpc, RpcId(17));
        // Serializes with the payload inline for /deadletters + twctl.
        let json = serde_json::to_string(&snap[0]).unwrap();
        assert!(json.contains("\"window\":9"));
        assert!(json.contains("\"recv_resp\":130"));
    }
}
