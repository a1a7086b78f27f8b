//! The staged-pipeline core: a first-class [`Stage`] abstraction, bounded
//! blocking inter-stage queues, and a [`PipelineBuilder`] that chains
//! stages into one supervised linear graph with a single ordered shutdown
//! path (DESIGN.md §11).
//!
//! Every hop between stages is the same bounded queue with the same
//! observability:
//!
//! * `tw_pipeline_queue_depth{stage}` — items waiting in the queue that
//!   feeds each stage, sampled at every dequeue;
//! * `tw_pipeline_stage_busy_seconds{stage}` — cumulative wall-clock time
//!   each stage spent inside `process`/`flush` (monotone gauge);
//! * `tw_pipeline_items_total{stage}` — items a stage has consumed.
//!
//! A full queue makes its producer wait, so pressure propagates hop by
//! hop back to the TCP ingest socket and no queue ever drops an item.
//! Trading work for freshness is the window shard's decision, made per
//! window and accounted (the shed ladder, `online/shed.rs`), not a
//! queue's.
//!
//! Shutdown is ordered and drain-safe: closing the pipeline's entry
//! sender lets each stage drain its input, run [`Stage::flush`], and drop
//! its output sender, cascading end-of-stream downstream. The supervising
//! [`Pipeline::shutdown`] joins stages in topological order while
//! draining the results queue, so a results queue shorter than the
//! remaining output can never deadlock the join.

use crate::supervise::{panic_message, StageFailure, StageSupervisor, Supervisor, Verdict};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tw_model::span::RpcRecord;
use tw_telemetry::{Counter, Gauge, Registry};

/// Provenance a stream item can lend to the dead-letter queue. The runner
/// captures both hooks *before* `process` consumes the item (an
/// `RpcRecord` is `Copy`, so the capture is a register move, not a
/// serialization), and attaches them to the [`crate::DeadLetter`] only
/// when that call panics — so quarantined items carry the actual payload
/// and window for `twctl deadletters` to print and resubmit, at zero cost
/// on the non-panicking path.
pub trait DeadLetterPayload {
    /// The wire record this item carries, if any.
    fn dead_letter_record(&self) -> Option<RpcRecord> {
        None
    }

    /// The window index this item belongs to, if known.
    fn dead_letter_window(&self) -> Option<u64> {
        None
    }
}

impl DeadLetterPayload for RpcRecord {
    fn dead_letter_record(&self) -> Option<RpcRecord> {
        Some(*self)
    }
}

/// Opaque test/demo streams carry no provenance.
impl DeadLetterPayload for u64 {}

/// Per-dequeue context the runner hands a stage: the live depth of the
/// queue feeding it, for load-shedding decisions ([`crate::ShedPolicy`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCtx {
    /// Items waiting in this stage's input queue when the current item
    /// was dequeued (0 inside [`Stage::flush`]).
    pub queue_depth: usize,
}

/// A pipeline stage: consume items one at a time, emit zero or more
/// downstream. Stages own their state and run on their own thread; the
/// runner handles queueing, telemetry, and shutdown ordering.
pub trait Stage: Send + 'static {
    type In: Send + DeadLetterPayload + 'static;
    type Out: Send + 'static;

    /// Stage name, used as the `stage` label on the `tw_pipeline_*`
    /// series and as the thread name.
    fn name(&self) -> &str;

    /// Process one item. Emission is explicit — a filter emits 0..1, a
    /// windower emits whole windows when cuts pass.
    fn process(&mut self, item: Self::In, ctx: &StageCtx, out: &mut Emitter<Self::Out>);

    /// Drain on shutdown: called exactly once, after the input closes and
    /// every queued item was processed. Emit whatever is still buffered —
    /// this is where partially-filled windows flush through
    /// reconstruction instead of being dropped.
    fn flush(&mut self, _ctx: &StageCtx, _out: &mut Emitter<Self::Out>) {}
}

/// A stage's handle on its output queue.
pub struct Emitter<T> {
    tx: Sender<T>,
    closed: bool,
}

impl<T> Emitter<T> {
    /// Emit one item, waiting while the queue is full. On a closed
    /// downstream the item is dropped and the emitter latches closed
    /// (shutdown path).
    pub fn emit(&mut self, item: T) {
        if !self.closed && self.tx.send(item).is_err() {
            self.closed = true;
        }
    }

    /// True once the receiver is gone; the stage can stop doing work
    /// whose output has nowhere to go.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Registry handles for one stage's `tw_pipeline_*` series.
#[derive(Debug, Clone)]
struct StageMetrics {
    depth: Gauge,
    busy: Gauge,
    items: Counter,
}

impl StageMetrics {
    fn new(registry: &Registry, stage: &str) -> Self {
        StageMetrics {
            depth: registry.gauge_with(
                "tw_pipeline_queue_depth",
                "Items waiting in the bounded queue feeding each stage, sampled at dequeue.",
                &[("stage", stage)],
            ),
            busy: registry.gauge_with(
                "tw_pipeline_stage_busy_seconds",
                "Cumulative wall-clock seconds each stage spent processing (monotone).",
                &[("stage", stage)],
            ),
            items: registry.counter_with(
                "tw_pipeline_items_total",
                "Items consumed by each stage.",
                &[("stage", stage)],
            ),
        }
    }
}

/// Run one stage to completion under supervision: drain the input queue
/// with every `process` call fenced by `catch_unwind`, then flush (also
/// fenced). A panic quarantines the consumed item to the dead-letter
/// queue and either resumes the *same* stage instance after backoff —
/// buffered state (open windows, dedup rings) survives, so unaffected
/// output is byte-identical to a fault-free run — or, once the restart
/// budget is spent, escalates: the loop stops consuming, which closes
/// its queues and cascades an ordered shutdown through the graph.
fn run_stage<S: Stage>(
    mut stage: S,
    rx: Receiver<S::In>,
    mut out: Emitter<S::Out>,
    metrics: StageMetrics,
    mut sup: StageSupervisor,
) {
    let mut escalated = false;
    let mut item_seq = 0u64;
    for item in rx.iter() {
        item_seq += 1;
        let ctx = StageCtx {
            queue_depth: rx.len(),
        };
        metrics.depth.set(ctx.queue_depth as f64);
        metrics.items.inc();
        let record = item.dead_letter_record();
        let window = item.dead_letter_window();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| stage.process(item, &ctx, &mut out)));
        metrics.busy.add(t0.elapsed().as_secs_f64());
        if let Err(payload) = result {
            match sup.on_panic(&panic_message(payload.as_ref()), item_seq, record, window) {
                Verdict::Restart(backoff) => std::thread::sleep(backoff),
                Verdict::Escalate => {
                    escalated = true;
                    break;
                }
            }
        }
        if out.is_closed() {
            // Downstream is gone: dropping `rx` on return propagates the
            // close upstream, so pressure never deadlocks on a dead tail.
            break;
        }
    }
    if !escalated {
        let t0 = Instant::now();
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            stage.flush(&StageCtx::default(), &mut out)
        })) {
            sup.on_flush_panic(&panic_message(payload.as_ref()));
        }
        metrics.busy.add(t0.elapsed().as_secs_f64());
    }
    metrics.depth.set(0.0);
}

/// Composes stages into a supervised linear graph. Start from
/// [`PipelineBuilder::source`], chain [`stage`](PipelineBuilder::stage)s,
/// then [`build`](PipelineBuilder::build). Every hop is a bounded queue with
/// `tw_pipeline_*` telemetry in the builder's registry.
pub struct PipelineBuilder<T: Send + 'static> {
    registry: Registry,
    supervisor: Supervisor,
    stages: Vec<(String, JoinHandle<()>)>,
    tail: Receiver<T>,
}

impl<T: Send + 'static> PipelineBuilder<T> {
    /// Open a pipeline with a source queue of `capacity` items (at least
    /// 1): the returned `Sender` is the entry point (hand it to an
    /// `IngestServer`, a capture thread, a test). Dropping every clone of
    /// it initiates the ordered shutdown cascade. Stages run under a
    /// default [`Supervisor`]; share one you hold a handle on with
    /// [`supervised`](Self::supervised) before appending stages.
    pub fn source(registry: &Registry, capacity: usize) -> (Sender<T>, PipelineBuilder<T>) {
        let (tx, rx) = bounded(capacity.max(1));
        (
            tx,
            PipelineBuilder {
                registry: registry.clone(),
                supervisor: Supervisor::default(),
                stages: Vec::new(),
                tail: rx,
            },
        )
    }

    /// Replace the pipeline's supervisor (dead-letter queue, failure log,
    /// trace recorder). Applies to stages appended *after* this call, so
    /// install it right after [`source`](Self::source).
    pub fn supervised(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Append a stage fed by the current tail, whose *output* hop is a
    /// bounded queue of `capacity` items (at least 1).
    pub fn stage<S>(mut self, stage: S, capacity: usize) -> PipelineBuilder<S::Out>
    where
        S: Stage<In = T>,
    {
        let name = stage.name().to_string();
        let (tx, rx) = bounded(capacity.max(1));
        let out = Emitter { tx, closed: false };
        let metrics = StageMetrics::new(&self.registry, &name);
        let sup = self.supervisor.for_stage(&self.registry, &name);
        let input = self.tail;
        let handle = std::thread::Builder::new()
            .name(format!("tw-{name}"))
            .spawn(move || run_stage(stage, input, out, metrics, sup))
            .expect("spawn stage thread");
        self.stages.push((name, handle));
        PipelineBuilder {
            registry: self.registry,
            supervisor: self.supervisor,
            stages: self.stages,
            tail: rx,
        }
    }

    /// Seal the graph: the current tail becomes the results queue.
    pub fn build(self) -> Pipeline<T> {
        Pipeline {
            results: self.tail,
            supervisor: self.supervisor,
            stages: self.stages,
        }
    }
}

/// A running pipeline: the results queue plus the supervised stage
/// threads in topological order.
pub struct Pipeline<T> {
    results: Receiver<T>,
    supervisor: Supervisor,
    stages: Vec<(String, JoinHandle<()>)>,
}

impl<T> Pipeline<T> {
    /// The results queue (clone the receiver to consume live).
    pub fn results(&self) -> &Receiver<T> {
        &self.results
    }

    /// Stage names in topological order (sources first).
    pub fn stage_names(&self) -> Vec<&str> {
        self.stages.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Ordered drain-safe shutdown. Close the entry sender first; then
    /// this joins every stage upstream-to-downstream while continuously
    /// draining the results queue, so in-flight windows flush through
    /// reconstruction and a bounded results queue can never deadlock the
    /// join. Returns everything drained (live-consumed results excluded)
    /// plus every [`StageFailure`] the supervisor recorded — a panic
    /// never propagates out of the join path.
    pub fn shutdown(mut self) -> ShutdownReport<T> {
        let mut results = Vec::new();
        self.join_draining(|item| results.push(item));
        results.extend(self.results.try_iter());
        ShutdownReport {
            results,
            failures: self.supervisor.take_failures(),
        }
    }

    /// Join every stage upstream-to-downstream, handing whatever reaches
    /// the results queue meanwhile to `sink` so no stage blocks on it.
    fn join_draining(&mut self, mut sink: impl FnMut(T)) {
        for (name, handle) in self.stages.drain(..) {
            while !handle.is_finished() {
                if let Ok(item) = self.results.recv_timeout(Duration::from_millis(5)) {
                    sink(item);
                }
            }
            if let Err(payload) = handle.join() {
                // A panic that escaped the supervised loop (a runner bug):
                // report, never re-panic.
                self.supervisor
                    .record_failure(&name, panic_message(payload.as_ref()));
            }
        }
    }
}

/// What [`Pipeline::shutdown`] returns: the drained results plus every
/// stage failure (escalations, flush panics, escaped panics) recorded
/// over the pipeline's lifetime.
#[must_use = "check `failures` (or call `expect_clean`) so stage failures are not silently dropped"]
pub struct ShutdownReport<T> {
    /// Everything drained from the results queue.
    pub results: Vec<T>,
    /// Stage failures, in the order they were recorded.
    pub failures: Vec<StageFailure>,
}

impl<T> ShutdownReport<T> {
    /// Unwrap the results, panicking (in the *caller*, not a `Drop`)
    /// if any stage failed. For tests and callers that treat any stage
    /// failure as fatal.
    pub fn expect_clean(self) -> Vec<T> {
        let failures: Vec<String> = self.failures.iter().map(StageFailure::to_string).collect();
        assert!(
            failures.is_empty(),
            "pipeline stages failed: {}",
            failures.join("; ")
        );
        self.results
    }
}

impl<T> Drop for Pipeline<T> {
    fn drop(&mut self) {
        // Best-effort: drain results so no stage blocks on a full queue
        // while the cascade finishes.
        self.join_draining(drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A stage that forwards with a fixed per-item delay.
    struct SlowStage {
        name: String,
        delay: std::time::Duration,
        max_depth_seen: Arc<AtomicUsize>,
    }

    impl Stage for SlowStage {
        type In = u64;
        type Out = u64;
        fn name(&self) -> &str {
            &self.name
        }
        fn process(&mut self, item: u64, ctx: &StageCtx, out: &mut Emitter<u64>) {
            self.max_depth_seen
                .fetch_max(ctx.queue_depth, Ordering::Relaxed);
            std::thread::sleep(self.delay);
            out.emit(item);
        }
    }

    /// Doubler with buffered flush, exercising drain-on-shutdown.
    struct BufferedStage {
        held: Vec<u64>,
    }

    impl Stage for BufferedStage {
        type In = u64;
        type Out = u64;
        fn name(&self) -> &str {
            "buffered"
        }
        fn process(&mut self, item: u64, _ctx: &StageCtx, _out: &mut Emitter<u64>) {
            self.held.push(item);
        }
        fn flush(&mut self, _ctx: &StageCtx, out: &mut Emitter<u64>) {
            for item in self.held.drain(..) {
                out.emit(item * 2);
            }
        }
    }

    #[test]
    fn blocking_queue_bounds_depth_and_loses_nothing() {
        let registry = Registry::new();
        let depth = Arc::new(AtomicUsize::new(0));
        let (tx, builder) = PipelineBuilder::<u64>::source(&registry, 4);
        let pipeline = builder
            .stage(
                SlowStage {
                    name: "slow".into(),
                    delay: std::time::Duration::from_micros(200),
                    max_depth_seen: depth.clone(),
                },
                4,
            )
            .build();
        // Producer on its own thread: with every queue bounded at 4, it
        // *will* block on the full source queue until the consumer makes
        // room — the main thread meanwhile drains results via shutdown.
        let producer = std::thread::spawn(move || {
            for i in 0..500u64 {
                tx.send(i).unwrap(); // blocks when the 4-slot queue fills
            }
        });
        let out = pipeline.shutdown().expect_clean();
        producer.join().unwrap();
        assert_eq!(out.len(), 500, "a blocking queue loses nothing");
        assert!(
            depth.load(Ordering::Relaxed) <= 4,
            "queue depth bounded by capacity, saw {}",
            depth.load(Ordering::Relaxed)
        );
        let text = registry.render();
        assert!(text.contains("tw_pipeline_items_total{stage=\"slow\"} 500"));
    }

    #[test]
    fn flush_drains_buffered_state_through_shutdown() {
        let registry = Registry::new();
        let (tx, builder) = PipelineBuilder::<u64>::source(&registry, 8);
        // Results queue (capacity 2) far smaller than the flushed output:
        // shutdown must drain while joining or it would deadlock.
        let pipeline = builder.stage(BufferedStage { held: Vec::new() }, 2).build();
        for i in 0..64u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let out = pipeline.shutdown().expect_clean();
        assert_eq!(out.len(), 64, "flush emitted everything buffered");
        assert_eq!(out[5], 10, "flush ran the stage's transformation");
    }
}
