//! `online_saturate` and `online_paced`: one seeded, faulted stream through
//! the production topology (see [`crate::online`]), first as fast as the
//! socket accepts it, then at its native pace.
//!
//! Why saturate: ~100 sparse warm windows, so per-record decode / sanitize /
//! route costs, per-window fixed costs, registry refits and the JSON
//! archive encoding have their largest share and MIS its smallest; its
//! `records_per_s` is the sustainable rate the paced run is read against.
//!
//! Why paced: freshness at a fixed offered rate (~30 % of saturation) is
//! what an operator watches; idle gaps, wake-ups and queue hand-offs that
//! saturation hides show up as latency here, and latency rises before the
//! saturated throughput falls.

use crate::common::{fingerprint, median_setup, Scratch, SETUP_REPS};
use crate::input::{online_stream, Input, WINDOW};
use crate::online::{encode_chunks, run_topology, window_due_ns, Chunk, OnlineRun};
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::replay::{stage_replay, write_trace};
use crate::report::{check, Check, Report, Values};
use crate::series::{core_series, global_delta, Snap};
use crate::spans::{Tracer, NO_WINDOW};
use crate::stats::{median, percentile};
use crate::workloads::query::every_trace;
use crate::Args;
use std::time::Instant;
use tw_model::metrics::end_to_end_accuracy_all_roots;
use tw_pipeline::{DegradationLevel, OnlineConfig};
use tw_store::read_query;
use tw_telemetry::trace::{SpanRecorder, TraceConfig};
use tw_telemetry::Registry;

pub const SATURATE: &str = "online_saturate";
pub const PACED: &str = "online_paced";

/// Stream the closed loop replays: 17 s at 600 rps, ~62 k records, ~68
/// windows, ~35 sealed segments — about 5 s of wall per repetition.
pub const SATURATE_STREAM_MILLIS: u64 = 17_000;
/// The closed loop repeats (on fresh directories) until the run's
/// seconds are spent, and at least three times: the rate comes from the
/// median repetition, so one repetition hit by a noisy neighbour does
/// not move it.
const MIN_SATURATE_REPS: usize = 3;
/// Chunks of the stream the untimed warm-up pass pushes through a
/// throw-away topology (~1 s): thread spawns, the loopback socket, the
/// archive and checkpoint directories and the allocator are warm before
/// the first timed byte.
const WARMUP_CHUNKS: usize = 200;
/// Observed 97.9–98.6 % over 20 seeds (each 250 ms window boundary splits
/// the few traces in flight across it).
const ACCURACY_FLOOR_PCT: f64 = 97.0;

pub struct Prepared {
    pub paced: bool,
    pub input: Input,
    pub chunks: Vec<Chunk>,
    pub setup_s: f64,
}

pub fn prepare(seed: u64, seconds: u64, paced: bool, scratch: &Scratch) -> Prepared {
    let millis = if paced {
        seconds * 1_000
    } else {
        SATURATE_STREAM_MILLIS
    };
    let ((input, chunks), setup_s) = median_setup(|| {
        let input = online_stream(seed, millis);
        let chunks = encode_chunks(&input.records);
        let warm = &chunks[..WARMUP_CHUNKS.min(chunks.len())];
        run_topology(&input, warm, &scratch.dir("warmup"), None, false);
        (input, chunks)
    });
    Prepared {
        paced,
        input,
        chunks,
        setup_s,
    }
}

/// Per-window result latency of a paced run, ms: arrival of the
/// `WindowResult` on `results()` (it has passed the archive stage, so its
/// traces are queryable) minus the instant `window end + grace` was due
/// on the schedule. A generator stall delays the send, not the due time,
/// so it counts against the system.
pub fn paced_latencies_ms(run: &OnlineRun, chunks: &[Chunk]) -> Vec<f64> {
    let due = window_due_ns(chunks, WINDOW.0, OnlineConfig::default().grace.0);
    run.windows
        .iter()
        .filter_map(|w| {
            let arrived = w
                .arrived?
                .saturating_duration_since(run.epoch)
                .as_secs_f64();
            let due_ns = (*due.get(w.index as usize)?)?;
            Some((arrived - due_ns as f64 / 1e9) * 1e3)
        })
        .collect()
}

/// Output checks every online run must pass.
pub fn output_checks(
    run: &OnlineRun,
    input: &Input,
    scratch_dir: &std::path::Path,
) -> (f64, Vec<Check>) {
    let accuracy = end_to_end_accuracy_all_roots(&run.mapping, &input.truth).percent();
    let s = &run.sanitize;
    let injected = input.faults.map_or(0, |f| f.duplicated as u64);
    let read_back =
        read_query(&scratch_dir.join("archive"), &every_trace()).map_or(0, |t| t.len() as u64);
    let checks = vec![
        check(
            "accuracy_floor",
            accuracy >= ACCURACY_FLOOR_PCT,
            format!("{accuracy:.2} % >= {ACCURACY_FLOOR_PCT} %"),
        ),
        check(
            "records_conserved",
            s.received == run.sent_records as u64
                && s.received == s.passed + s.rejected()
                && s.passed == run.window_records() as u64,
            format!(
                "sent {} = received {} = in windows {} + dropped by the sanitizer {}",
                run.sent_records,
                s.received,
                run.window_records(),
                s.rejected()
            ),
        ),
        check(
            "only_injected_duplicates_dropped",
            s.duplicates == injected && s.rejected() == injected,
            format!("{} dropped, {injected} duplicates injected", s.rejected()),
        ),
        check(
            "archive_read_back",
            read_back == run.committed_traces && read_back > 0,
            format!(
                "read_query returns {read_back} of {} committed traces in {} segments",
                run.committed_traces, run.segments
            ),
        ),
    ];
    (accuracy, checks)
}

pub fn measure(p: &Prepared, seconds: u64, scratch: &Scratch) -> Report {
    let dir = scratch.dir("online");
    let mut runs: Vec<OnlineRun> = Vec::new();
    let mut prints = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    loop {
        let run = run_topology(&p.input, &p.chunks, &dir, None, p.paced);
        prints.push(fingerprint(&run.mapping));
        runs.push(run);
        let spent = t0.elapsed().as_secs_f64() >= seconds as f64;
        if p.paced || (spent && runs.len() >= MIN_SATURATE_REPS) {
            break;
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    let reps = runs.len();
    let last = runs.last().expect("at least one run");
    let sent: f64 = runs.iter().map(|r| r.sent_records as f64).sum();
    let rep_s: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let failed: u64 = runs.iter().map(OnlineRun::failed_records).sum();

    let (accuracy, mut checks) = output_checks(last, &p.input, &dir);
    checks.push(check(
        "fingerprint_stable",
        prints.windows(2).all(|w| w[0] == w[1]),
        format!("{reps} repetitions, mapping digest {:016x}", prints[0]),
    ));
    let (latency_ms, latency_samples) = if p.paced {
        let samples = paced_latencies_ms(last, &p.chunks);
        let lag_max = last.lag_ms.iter().copied().fold(0.0, f64::max);
        checks.push(check(
            "loadgen_on_schedule",
            lag_max < WINDOW.as_millis_f64() && !samples.is_empty(),
            format!("largest send lag {lag_max:.3} ms, must stay under one window"),
        ));
        (median(&samples), samples.len())
    } else {
        (median(&rep_s) * 1e3, reps)
    };

    let mut values = Values::default();
    values.set(
        "records_per_s",
        last.sent_records as f64 / median(&rep_s),
        reps,
    );
    values.set("result_latency_p50_ms", latency_ms, latency_samples);
    values.set("cpu_ms_per_krec", cpu_s * 1e3 / (sent / 1e3), reps);
    values.set("accuracy_pct", accuracy, p.input.truth.roots().len());
    values.set(
        "bytes_per_trace",
        last.committed_bytes as f64 / last.committed_traces.max(1) as f64,
        last.committed_traces as usize,
    );
    values.set("peak_rss_mb", peak_rss_mib(), 1);
    values.set("setup_s", p.setup_s, SETUP_REPS);
    Report {
        workload: if p.paced { PACED } else { SATURATE },
        traced: false,
        attempted: sent as u64,
        failed,
        values,
        checks,
        notes: vec![format!("repetition wall times, s: {rep_s:.3?}")],
    }
}

/// Mark-to-pickup wait per window, ms, from the program's own span trees:
/// the router's `route` span ends when it broadcasts the window's cut
/// mark, the shard's `collect` span ends when the mark is dequeued.
pub fn queue_waits_ms(recorder: &SpanRecorder) -> Vec<f64> {
    recorder
        .finished_snapshot()
        .iter()
        .filter_map(|tree| {
            let end = |name: &str| {
                tree.spans
                    .iter()
                    .find(|s| s.name == name)
                    .and_then(|s| s.end_ns)
            };
            let (routed, collected) = (end("route")?, end("collect")?);
            Some(collected.saturating_sub(routed) as f64 / 1e6)
        })
        .collect()
}

/// Per-layer values read from one finished run: its registry, its window
/// results, its sanitizer counters and the program's span trees.
fn run_series(
    values: &mut Values,
    run: &OnlineRun,
    recorder: &SpanRecorder,
    chunks: &[Chunk],
) -> String {
    let snap = Snap::of(&run.registry);
    let busy = |stage| snap.value("tw_pipeline_stage_busy_seconds", &[("stage", stage)]);
    let windows = run.windows.len();
    values.set(
        "ingest.frames",
        snap.value("tw_ingest_frames_total", &[]),
        1,
    );
    values.set(
        "ingest.decode_errors",
        snap.value("tw_ingest_decode_errors_total", &[]),
        1,
    );
    values.set("ingest.drain_s", run.drain_s, 1);
    let s = &run.sanitize;
    values.set("sanitize.busy_s", busy("sanitize"), 1);
    values.set("sanitize.records_in", s.received as f64, 1);
    values.set("sanitize.records_out", s.passed as f64, 1);
    values.set("sanitize.dropped", s.rejected() as f64, 1);
    values.set(
        "sanitize.pass_ratio",
        s.passed as f64 / s.received.max(1) as f64,
        1,
    );
    values.set("engine.router_busy_s", busy("window-router"), 1);
    values.set("engine.window_busy_s", busy("window/0"), 1);
    values.set("engine.merge_busy_s", busy("window-router-merge"), 1);
    values.set("engine.windows", windows as f64, 1);
    let reconstruct_ms: Vec<f64> = run
        .windows
        .iter()
        .map(|w| w.reconstruct.as_secs_f64() * 1e3)
        .collect();
    values.set(
        "engine.window_reconstruct_p50_ms",
        median(&reconstruct_ms),
        windows,
    );
    values.set(
        "engine.window_reconstruct_p90_ms",
        percentile(&reconstruct_ms, 0.9),
        windows,
    );
    let waits = queue_waits_ms(recorder);
    values.set("engine.queue_wait_p50_ms", median(&waits), waits.len());
    let latencies = paced_latencies_ms(run, chunks);
    if run.lag_ms.is_empty() {
        // Closed loop: no schedule, so no due time to measure from.
        values.set("engine.result_latency_p90_ms", 0.0, 0);
    } else {
        values.set(
            "engine.result_latency_p90_ms",
            percentile(&latencies, 0.9),
            latencies.len(),
        );
        let lag_max = run.lag_ms.iter().copied().fold(0.0, f64::max);
        values.set("loadgen.lag_p50_ms", median(&run.lag_ms), run.lag_ms.len());
        values.set("loadgen.lag_max_ms", lag_max, run.lag_ms.len());
    }
    values.set(
        "loadgen.cpu_share_pct",
        100.0 * run.loadgen_busy_s / run.wall_s,
        1,
    );
    let reconstruct_s = reconstruct_ms.iter().sum::<f64>() / 1e3;
    values.set(
        "engine.overhead_pct",
        100.0 * (run.wall_s - reconstruct_s) / run.wall_s,
        1,
    );
    let depth_max = run.windows.iter().map(|w| w.queue_depth).max().unwrap_or(0);
    values.set("engine.pickup_queue_depth_max", depth_max as f64, windows);
    let degraded = run
        .windows
        .iter()
        .filter(|w| w.degradation != DegradationLevel::Full)
        .count();
    values.set("engine.degraded_windows", degraded as f64, windows);
    let shed: usize = run.windows.iter().map(|w| w.shed_records).sum();
    values.set("engine.shed_records", shed as f64, windows);
    let records = run.window_records().max(1);
    values.set(
        "core.reconstruct_ns_per_rec",
        reconstruct_s * 1e9 / records as f64,
        records,
    );
    let (mapped, top, total) = run.windows.iter().fold((0, 0, 0), |(m, t, n), w| {
        (
            m + w.mapped_spans,
            t + w.top_choice_spans,
            n + w.total_spans,
        )
    });
    values.set(
        "core.mapped_ratio",
        mapped as f64 / total.max(1) as f64,
        total,
    );
    values.set(
        "core.top_choice_ratio",
        top as f64 / total.max(1) as f64,
        total,
    );
    values.set("archive_stage.busy_s", busy("archive"), 1);
    values.set("store.seals", snap.value("tw_store_seals_total", &[]), 1);
    values.set(
        "store.appends",
        snap.value("tw_store_appends_total", &[]),
        1,
    );
    values.set(
        "checkpoint.writes",
        snap.value("tw_pipeline_checkpoint_writes_total", &[]),
        1,
    );
    values.set(
        "telemetry.series",
        (tw_telemetry::global().series_count() + run.registry.series_count()) as f64,
        1,
    );
    format!(
        "stage busy seconds of {:.3} s wall: window shard {:.3} ({:.1} %), sanitize {:.3}, router {:.3}, merge {:.3}, archive {:.3}",
        run.wall_s,
        busy("window/0"),
        100.0 * busy("window/0") / run.wall_s,
        busy("sanitize"),
        busy("window-router"),
        busy("window-router-merge"),
        busy("archive"),
    )
}

/// The traced run: the stage replay, then the topology once more with a
/// bench-held every-window `SpanRecorder`. The closed loop first runs once
/// without the recorder, so the recorder's own cost is on the report.
pub fn trace(p: &Prepared, args: &Args, scratch: &Scratch) -> Report {
    let mut t = Tracer::new();
    let mut values = Values::default();
    let mut checks = stage_replay(
        &mut t,
        &p.input.graph,
        &p.input.records,
        scratch,
        &mut values,
    );

    let dir = scratch.dir("online");
    let untraced = (!p.paced).then(|| {
        t.call("topology.untraced", NO_WINDOW, || {
            run_topology(&p.input, &p.chunks, &dir, None, false)
        })
    });
    let recorder = SpanRecorder::new(
        TraceConfig {
            sample: 1,
            // Every window of the run stays in the ring.
            ring: 4_096,
        },
        &Registry::new(),
    );
    let (run, delta) = global_delta(|| {
        t.call("topology.traced", NO_WINDOW, || {
            run_topology(&p.input, &p.chunks, &dir, Some(&recorder), p.paced)
        })
    });
    core_series(&mut values, &delta);
    values.set(
        "registry.edges",
        Snap::of(tw_telemetry::global()).value("tw_core_registry_edges", &[]),
        1,
    );
    values.set(
        "registry.quarantined",
        delta.value("tw_core_registry_quarantined_total", &[]),
        1,
    );
    let note = run_series(&mut values, &run, &recorder, &p.chunks);
    if let Some(base) = &untraced {
        let rate = |r: &OnlineRun| r.sent_records as f64 / r.wall_s;
        values.set(
            "telemetry.trace_overhead_pct",
            100.0 * (rate(base) - rate(&run)) / rate(base),
            1,
        );
    }

    let (_, run_checks) = output_checks(&run, &p.input, &dir);
    checks.extend(run_checks);
    let name = if p.paced { PACED } else { SATURATE };
    write_trace(&t, scratch.out_dir(), name, args.seed);
    Report {
        workload: name,
        traced: true,
        attempted: run.sent_records as u64,
        failed: run.failed_records(),
        values,
        checks,
        notes: vec![note],
    }
}
