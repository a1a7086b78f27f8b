//! `offline_dense`: cold `TraceWeaver::reconstruct_records` calls over
//! dense one-second windows.
//!
//! Why: at 900 rps every service sees several overlapping requests at any
//! instant, so candidate enumeration, scoring, MIS batches and GMM fits do
//! ~all the work and capture, pipeline and store do none. `tw-core`'s cost
//! per record depends on this density, not on the record count (see
//! `core.scaling_ratio` / `core.density_ratio`), so a call covers one
//! second of stream. A few budget-limited MIS solves carry most of a
//! call's time and their number differs from stream to stream, so the run
//! cycles over six independent streams instead of repeating one: the rate
//! then averages over six times as much input.

use crate::common::{fingerprint, median_setup, traces_of, Scratch, SETUP_REPS};
use crate::input::{clean_stream, derive_seed, Input, DENSE_RPS};
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::replay::{stage_replay, write_trace};
use crate::report::{check, Report, Values};
use crate::series::{core_series, global_delta};
use crate::spans::Tracer;
use crate::stats::median;
use crate::Args;
use std::hint::black_box;
use std::time::Instant;
use tw_core::{Params, TraceWeaver};
use tw_model::metrics::{end_to_end_accuracy_all_roots, AccuracyReport};
use tw_store::{read_segment, write_segment};

pub const NAME: &str = "offline_dense";

/// Length of one stream: ~5.5 k records, ~1.8 s per cold call.
pub const STREAM_MILLIS: u64 = 1_000;
/// Independent streams a run cycles over: one full cycle (~11 s) fits in
/// the run's 15 s with room for a slower host, so accuracy always covers
/// the same six streams.
pub const STREAMS: usize = 6;
/// Prefix of the first stream the untimed warm-up pass reconstructs
/// (~1.3 s), so allocator arenas, the global `tw_core_*` handles and the
/// page cache are in their steady state before the first timed call.
const WARMUP_RECORDS: usize = 4_000;
/// Observed 98.0–99.6 % on single streams and 98.5–99.1 % over a cycle
/// of six; a real regression in matching quality moves it by whole
/// points.
const ACCURACY_FLOOR_PCT: f64 = 97.5;

pub struct Prepared {
    pub inputs: Vec<Input>,
    pub tw: TraceWeaver,
    pub setup_s: f64,
    /// Mapping digest of each set-up pass's warm-up: the same input three
    /// times, so the digests must agree.
    pub warmup_prints: Vec<u64>,
}

pub fn prepare(seed: u64) -> Prepared {
    let mut warmup_prints = Vec::new();
    let ((inputs, tw), setup_s) = median_setup(|| {
        let inputs: Vec<Input> = (0..STREAMS as u64)
            .map(|k| clean_stream(derive_seed(seed, 100 + k), DENSE_RPS, STREAM_MILLIS))
            .collect();
        let tw = TraceWeaver::new(inputs[0].graph.clone(), Params::default());
        let records = &inputs[0].records;
        let warm = &records[..WARMUP_RECORDS.min(records.len())];
        warmup_prints.push(fingerprint(
            &tw.reconstruct_records(black_box(warm)).mapping,
        ));
        (inputs, tw)
    });
    Prepared {
        inputs,
        tw,
        setup_s,
        warmup_prints,
    }
}

pub fn measure(p: &Prepared, seconds: u64, scratch: &Scratch) -> Report {
    let mut call_ms = Vec::new();
    let mut call_rate = Vec::new();
    let mut done = 0usize;
    let mut accuracy = AccuracyReport::default();
    let mut first = None;
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds as f64 {
        let call = call_ms.len();
        let input = &p.inputs[call % STREAMS];
        let c0 = Instant::now();
        let result = p.tw.reconstruct_records(black_box(&input.records));
        let call_s = c0.elapsed().as_secs_f64();
        call_ms.push(call_s * 1e3);
        call_rate.push(input.records.len() as f64 / call_s);
        done += input.records.len();
        // Accuracy covers the first cycle: every stream once.
        if call < STREAMS {
            accuracy.merge(end_to_end_accuracy_all_roots(&result.mapping, &input.truth));
        }
        // The first call's result (stream 0) is the one stored and read back.
        first.get_or_insert(black_box(result));
    }
    let cpu_s = cpu_seconds() - cpu0;
    let calls = call_ms.len();
    let result = first.expect("at least one call fits in any run length");
    let input = &p.inputs[0];

    let roots = accuracy.total;
    let accuracy = accuracy.percent();
    let traces = traces_of(0, &input.records, result);
    let segment = scratch.dir("offline").join("seg-00000000.twsg");
    std::fs::create_dir_all(segment.parent().expect("segment has a parent"))
        .expect("scratch is writable");
    let (bytes, _) = write_segment(&segment, &traces).expect("segment write");
    let read_back = read_segment(&segment).expect("segment readable");

    let mut values = Values::default();
    // The median call's rate: streams differ in how many hard MIS solves
    // they hold and hosts have slow seconds; neither moves a median much.
    values.set("records_per_s", median(&call_rate), calls);
    values.set("result_latency_p50_ms", median(&call_ms), calls);
    values.set("cpu_ms_per_krec", cpu_s * 1e3 / (done as f64 / 1e3), calls);
    values.set("accuracy_pct", accuracy, roots);
    values.set(
        "bytes_per_trace",
        bytes as f64 / traces.len() as f64,
        traces.len(),
    );
    values.set("peak_rss_mb", peak_rss_mib(), 1);
    values.set("setup_s", p.setup_s, SETUP_REPS);
    Report {
        workload: NAME,
        traced: false,
        attempted: done as u64,
        failed: 0,
        values,
        notes: vec![format!("call wall times, ms: {call_ms:.1?}")],
        checks: vec![
            check(
                "accuracy_floor",
                accuracy >= ACCURACY_FLOOR_PCT,
                format!("{accuracy:.2} % >= {ACCURACY_FLOOR_PCT} %"),
            ),
            check(
                "fingerprint_stable",
                p.warmup_prints.windows(2).all(|w| w[0] == w[1]),
                format!(
                    "{} warm-up passes over one input, mapping digest {:016x}",
                    p.warmup_prints.len(),
                    p.warmup_prints[0]
                ),
            ),
            check(
                "traces_read_back",
                read_back == traces,
                format!("{} of {} stored traces", read_back.len(), traces.len()),
            ),
        ],
    }
}

/// Slices behind `core.scaling_ratio`: `perf65`'s sweep grows its input
/// 14-fold.
const SLICES: usize = 14;

/// The traced run: one instrumented call, the two ratios that say whether
/// `tw-core`'s cost per record follows input size or input density, and
/// the stage replay.
pub fn trace(p: &Prepared, args: &Args, scratch: &Scratch) -> Report {
    let input = &p.inputs[0];
    let records = &input.records;
    let n = records.len();
    let mut t = Tracer::new();
    let mut values = Values::default();
    let mut checks = stage_replay(&mut t, &input.graph, records, scratch, &mut values);

    let (result, delta) = global_delta(|| {
        t.call("core.reconstruct_records", 0, || {
            p.tw.reconstruct_records(records)
        })
    });
    let call_s = t.durations_ms("core.reconstruct_records")[0] / 1e3;
    core_series(&mut values, &delta);
    let summary = result.summary();
    let spans = summary.total_spans.max(1) as f64;
    values.set("core.reconstruct_ns_per_rec", call_s * 1e9 / n as f64, n);
    values.set(
        "core.mapped_ratio",
        summary.mapped_spans as f64 / spans,
        summary.total_spans,
    );
    values.set(
        "core.top_choice_ratio",
        summary.top_choice_spans as f64 / spans,
        summary.total_spans,
    );
    let staged = values.get("core.candidates_s").value
        + values.get("core.seed_s").value
        + values.get("core.optimize_s").value;
    let note = format!(
        "tw_core_stage_seconds account for {:.1} % of the call's {call_s:.3} s",
        100.0 * staged / call_s
    );

    // Same stream cut into 14 time-contiguous slices: same density, same
    // total input, 14 times smaller calls. (A single 1/14 prefix holds
    // anything from none to several of the hard MIS solves that carry the
    // time, so its rate alone says little.)
    for slice in records.chunks(n.div_ceil(SLICES)) {
        black_box(t.call("core.reconstruct_slice", 0, || {
            p.tw.reconstruct_records(slice)
        }));
    }
    let slices_s = t.durations_ms("core.reconstruct_slice").iter().sum::<f64>() / 1e3;
    let full_rate = n as f64 / call_s;
    values.set(
        "core.scaling_ratio",
        full_rate / (n as f64 / slices_s),
        SLICES,
    );
    // Same record count, a third of the request rate: same size, sparser.
    let sparse = clean_stream(
        derive_seed(args.seed, 100),
        DENSE_RPS / 3.0,
        STREAM_MILLIS * 3,
    );
    let sparse = &sparse.records[..n.min(sparse.records.len())];
    black_box(t.call("core.reconstruct_sparse", 0, || {
        p.tw.reconstruct_records(sparse)
    }));
    let sparse_s = t.durations_ms("core.reconstruct_sparse")[0] / 1e3;
    values.set(
        "core.density_ratio",
        full_rate / (sparse.len() as f64 / sparse_s),
        1,
    );

    let accuracy = end_to_end_accuracy_all_roots(&result.mapping, &input.truth).percent();
    checks.push(check(
        "accuracy_floor",
        accuracy >= ACCURACY_FLOOR_PCT,
        format!("{accuracy:.2} % >= {ACCURACY_FLOOR_PCT} %"),
    ));
    write_trace(&t, scratch.out_dir(), NAME, args.seed);
    Report {
        workload: NAME,
        traced: true,
        attempted: n as u64,
        failed: 0,
        values,
        checks,
        notes: vec![note],
    }
}
