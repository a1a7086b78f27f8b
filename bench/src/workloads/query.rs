//! `archive_query`: a fixed list of eight queries, cycled, against an
//! archive the online write path built during set-up.
//!
//! Why: it reads what the online workloads write, so a segment format or
//! index that speeds one side at the other's cost shows in one report —
//! `setup_s` here *is* the write path (engine → archive stage → sealed
//! segments), the measured phase is the read path.

use crate::common::{median_setup, Scratch, SETUP_REPS};
use crate::input::{online_stream, Input};
use crate::online::{online_config, SEGMENT_BYTES};
use crate::procfs::{cpu_seconds, peak_rss_mib};
use crate::replay::{stage_replay, write_trace};
use crate::report::{check, Report, Values};
use crate::series::Snap;
use crate::spans::{Tracer, NO_WINDOW};
use crate::stats::{median, percentile};
use crate::Args;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tw_core::{Params, TraceWeaver};
use tw_pipeline::{OnlineEngine, SanitizeConfig};
use tw_store::{
    load_manifest, read_query, ArchiveConfig, Manifest, StoredTrace, TraceArchive, TraceQuery,
};
use tw_telemetry::Registry;

pub const NAME: &str = "archive_query";

/// Stream the archive is built from: 5 s at 600 rps — ~3 k traces in
/// ~17 segments of 256 KiB, ~1.5 s through the engine.
pub const ARCHIVE_STREAM_MILLIS: u64 = 5_000;
/// Queries per cycle, two of each class.
pub const QUERIES_PER_CYCLE: usize = 8;

/// One of the four query classes: its latency metric and the span names
/// its calls are recorded under — on the stage replay's own small archive
/// and in the traced query phase (one `Tracer` holds both).
pub struct QueryClass {
    pub metric: &'static str,
    pub replay_span: &'static str,
    pub traced_span: &'static str,
}

/// The classes in cycle order; query `i` of a cycle belongs to
/// `CLASSES[i / 2]`.
pub const CLASSES: [QueryClass; 4] = [
    QueryClass {
        metric: "store.query_window_p50_ms",
        replay_span: "store.query.window",
        traced_span: "archive.query.window",
    },
    QueryClass {
        metric: "store.query_service_p50_ms",
        replay_span: "store.query.service",
        traced_span: "archive.query.service",
    },
    QueryClass {
        metric: "store.query_range_p50_ms",
        replay_span: "store.query.range",
        traced_span: "archive.query.range",
    },
    QueryClass {
        metric: "store.query_minlat_p50_ms",
        replay_span: "store.query.minlat",
        traced_span: "archive.query.minlat",
    },
];

/// The query that selects every trace.
pub fn every_trace() -> TraceQuery {
    TraceQuery {
        limit: usize::MAX,
        ..TraceQuery::default()
    }
}

/// Over all (query, segment) pairs, how many the footer index cannot
/// rule out, and how many pairs there are.
pub fn segments_scanned(queries: &[TraceQuery], manifest: &Manifest) -> (usize, usize) {
    let may_match = queries
        .iter()
        .flat_map(|q| {
            manifest
                .segments
                .iter()
                .map(|s| q.may_match_segment(&s.index))
        })
        .filter(|m| *m)
        .count();
    (may_match, queries.len() * manifest.segments.len())
}

pub struct Prepared {
    pub input: Input,
    pub dir: PathBuf,
    pub archive: TraceArchive,
    /// Registry the query-side archive handle reports into.
    pub registry: Registry,
    /// Every committed trace, for the brute-force reference.
    pub all: Vec<StoredTrace>,
    pub queries: Vec<TraceQuery>,
    pub setup_s: f64,
}

fn archive_config(dir: &Path) -> ArchiveConfig {
    ArchiveConfig {
        segment_bytes: SEGMENT_BYTES,
        ..ArchiveConfig::new(dir)
    }
}

/// Push the stream through engine → archive stage into `dir/archive`.
fn build_archive(input: &Input, dir: &Path, registry: &Registry) {
    let _ = std::fs::remove_dir_all(dir);
    let config = tw_pipeline::OnlineConfig {
        sanitize: Some(SanitizeConfig::default()),
        ..online_config(dir, registry, None)
    };
    let tw = TraceWeaver::new(input.graph.clone(), Params::default());
    let engine = OnlineEngine::start(tw, config);
    let ingest = engine.ingest_handle();
    for rec in &input.records {
        ingest.send(*rec).expect("engine accepts records");
    }
    drop(ingest);
    black_box(engine.shutdown());
}

/// Sort and cap exactly as the archive documents its result order.
fn ordered(mut traces: Vec<StoredTrace>, limit: usize) -> Vec<StoredTrace> {
    traces.sort_by(|a, b| {
        (a.window, a.start, a.root)
            .cmp(&(b.window, b.start, b.root))
            .then_with(|| a.end.cmp(&b.end))
    });
    traces.truncate(limit);
    traces
}

/// What a query must return, computed the slow way: `TraceQuery::matches`
/// over every trace, no index, no pruning.
pub fn brute_force(all: &[StoredTrace], q: &TraceQuery) -> Vec<StoredTrace> {
    ordered(
        all.iter().filter(|t| q.matches(t)).cloned().collect(),
        q.effective_limit(),
    )
}

/// The fixed query list, derived from the archive's own contents so it
/// selects something on every seed: two by window (prunable by the
/// footer's window range), two by service + operation (unprunable, capped
/// at 200 results), two time ranges of 5 % of the stream (prunable by
/// min/max timestamp), two latency floors at p99 and p99.9 (full scans).
pub fn query_list(all: &[StoredTrace]) -> Vec<TraceQuery> {
    assert!(!all.is_empty(), "archive holds traces");
    let any = every_trace();
    let (w0, w1) = (all[0].window, all[all.len() - 1].window);
    let window = |third: u64| TraceQuery {
        window: Some(w0 + (w1 - w0) * third / 3),
        ..any.clone()
    };
    let deepest = all[0].spans.iter().max_by_key(|s| s.depth).expect("spans");
    let second = all[0].spans.get(1).expect("a trace has a child span");
    let service = |s: &tw_store::StoredSpan| TraceQuery {
        service: Some(s.record.callee.service.0),
        op: Some(s.record.callee.op.0),
        limit: 200,
        ..TraceQuery::default()
    };
    let (t0, t1) = (all[0].start, all[all.len() - 1].end);
    let range = |percent: u64| {
        let from = t0 + (t1 - t0) * percent / 100;
        TraceQuery {
            from_ns: Some(from),
            to_ns: Some(from + (t1 - t0) / 20),
            ..any.clone()
        }
    };
    let latencies: Vec<f64> = all.iter().map(|t| t.latency_ns as f64).collect();
    let minlat = |q: f64| TraceQuery {
        min_latency_ns: Some(percentile(&latencies, q) as u64),
        ..any.clone()
    };
    vec![
        window(1),
        window(2),
        service(second),
        service(deepest),
        range(25),
        range(60),
        minlat(0.99),
        minlat(0.999),
    ]
}

pub fn prepare(seed: u64, scratch: &Scratch) -> Prepared {
    let dir = scratch.dir("query");
    let (input, setup_s) = median_setup(|| {
        let input = online_stream(seed, ARCHIVE_STREAM_MILLIS);
        build_archive(&input, &dir, &Registry::new());
        input
    });
    let archive_dir = dir.join("archive");
    let registry = Registry::new();
    let archive =
        TraceArchive::open(archive_config(&archive_dir), &registry).expect("archive reopens");
    let all = read_query(&archive_dir, &every_trace()).expect("archive readable");
    let queries = query_list(&all);
    Prepared {
        input,
        dir: archive_dir,
        archive,
        registry,
        all,
        queries,
        setup_s,
    }
}

/// Share of `results` equal to their brute-force reference, in percent,
/// with a description of the first mismatch.
pub fn verify(
    queries: &[TraceQuery],
    results: &[Vec<StoredTrace>],
    references: &[Vec<StoredTrace>],
) -> (f64, Option<String>) {
    let mut equal = 0usize;
    let mut first_bad = None;
    for (i, (got, want)) in results.iter().zip(references).enumerate() {
        if got == want {
            equal += 1;
        } else if first_bad.is_none() {
            first_bad = Some(format!(
                "query {i} ({:?}) returned {} traces, brute force {}",
                queries[i],
                got.len(),
                want.len()
            ));
        }
    }
    (
        100.0 * equal as f64 / results.len().max(1) as f64,
        first_bad,
    )
}

pub fn measure(p: &Prepared, seconds: u64) -> Report {
    let references: Vec<Vec<StoredTrace>> =
        p.queries.iter().map(|q| brute_force(&p.all, q)).collect();
    let errors0 = Snap::of(&p.registry).value("tw_store_errors_total", &[]);
    let mut cycle_ms = Vec::new();
    let mut returned = 0usize;
    let mut first: Vec<Vec<StoredTrace>> = Vec::new();
    let mut last: Vec<Vec<StoredTrace>> = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds as f64 {
        let c0 = Instant::now();
        let results: Vec<Vec<StoredTrace>> = p
            .queries
            .iter()
            .map(|q| p.archive.query(black_box(q)))
            .collect();
        cycle_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        returned += results.iter().map(Vec::len).sum::<usize>();
        if first.is_empty() {
            first = results;
        } else {
            last = results;
        }
    }
    let cpu_s = cpu_seconds() - cpu0;
    let cycles = cycle_ms.len();
    let errors = Snap::of(&p.registry).value("tw_store_errors_total", &[]) - errors0;

    // Every cycle returned the same number of traces as the reference;
    // the first and the last are compared trace by trace.
    let expected: usize = references.iter().map(Vec::len).sum();
    let (acc_first, bad_first) = verify(&p.queries, &first, &references);
    let (acc_last, bad_last) = if last.is_empty() {
        (acc_first, None)
    } else {
        verify(&p.queries, &last, &references)
    };
    let accuracy = acc_first.min(acc_last);

    let mut values = Values::default();
    // Every cycle returns the same traces, so the median cycle gives a
    // rate that one slow cycle does not move.
    values.set(
        "records_per_s",
        expected as f64 / (median(&cycle_ms) / 1e3),
        cycles,
    );
    values.set("result_latency_p50_ms", median(&cycle_ms), cycles);
    values.set(
        "cpu_ms_per_krec",
        cpu_s * 1e3 / (returned as f64 / 1e3),
        cycles,
    );
    values.set("accuracy_pct", accuracy, 2 * QUERIES_PER_CYCLE);
    values.set(
        "bytes_per_trace",
        p.archive.committed_bytes() as f64 / p.archive.committed_traces().max(1) as f64,
        p.archive.committed_traces() as usize,
    );
    values.set("peak_rss_mb", peak_rss_mib(), 1);
    values.set("setup_s", p.setup_s, SETUP_REPS);
    Report {
        workload: NAME,
        traced: false,
        attempted: (cycles * QUERIES_PER_CYCLE) as u64,
        failed: errors as u64,
        values,
        notes: vec![format!(
            "{cycles} cycles of {QUERIES_PER_CYCLE} queries over {} segments",
            p.archive.segment_count()
        )],
        checks: vec![
            check(
                "results_equal_brute_force",
                accuracy == 100.0,
                bad_first.or(bad_last).unwrap_or_else(|| {
                    format!("{QUERIES_PER_CYCLE} queries, first and last cycle")
                }),
            ),
            check(
                "every_cycle_same_size",
                returned == expected * cycles,
                format!("{returned} traces over {cycles} cycles, {expected} per cycle expected"),
            ),
            check(
                "archive_read_back",
                p.all.len() as u64 == p.archive.committed_traces() && !p.all.is_empty(),
                format!(
                    "read_query returns {} of {} committed traces in {} segments",
                    p.all.len(),
                    p.archive.committed_traces(),
                    p.archive.segment_count()
                ),
            ),
        ],
    }
}

/// The traced run: the stage replay over the stream the archive was built
/// from, then half the run's seconds of query cycles with a span around
/// every `TraceArchive::query` call.
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

    let references: Vec<Vec<StoredTrace>> =
        p.queries.iter().map(|q| brute_force(&p.all, q)).collect();
    let mut first: Vec<Vec<StoredTrace>> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds as f64 / 2.0 {
        let results = t.span("query_cycle", NO_WINDOW, |t| {
            p.queries
                .iter()
                .enumerate()
                .map(|(i, q)| t.call(CLASSES[i / 2].traced_span, NO_WINDOW, || p.archive.query(q)))
                .collect::<Vec<_>>()
        });
        if first.is_empty() {
            first = results;
        }
    }
    for class in &CLASSES {
        let ms = t.durations_ms(class.traced_span);
        values.set(class.metric, median(&ms), ms.len());
    }
    let cycles = t.durations_ms("query_cycle");
    values.set(
        "store.query_cycle_p90_ms",
        percentile(&cycles, 0.9),
        cycles.len(),
    );
    for q in &p.queries {
        black_box(
            t.call("archive.read_query", NO_WINDOW, || read_query(&p.dir, q))
                .expect("read-only query"),
        );
    }
    let rq = t.durations_ms("archive.read_query");
    values.set("store.read_query_p50_ms", median(&rq), rq.len());
    for _ in 0..5 {
        black_box(t.call("archive.open", NO_WINDOW, || {
            TraceArchive::open(archive_config(&p.dir), &Registry::new()).expect("archive reopens")
        }));
    }
    let open = t.durations_ms("archive.open");
    values.set("store.open_ms", median(&open), open.len());
    let manifest = load_manifest(&p.dir).expect("manifest loads");
    let (may_match, pairs) = segments_scanned(&p.queries, &manifest);
    values.set(
        "store.segments_scanned_ratio",
        may_match as f64 / pairs.max(1) as f64,
        pairs,
    );

    let (accuracy, bad) = verify(&p.queries, &first, &references);
    checks.push(check(
        "results_equal_brute_force",
        accuracy == 100.0,
        bad.unwrap_or_else(|| format!("{QUERIES_PER_CYCLE} queries, first traced cycle")),
    ));
    write_trace(&t, scratch.out_dir(), NAME, args.seed);
    Report {
        workload: NAME,
        traced: true,
        attempted: (cycles.len() * QUERIES_PER_CYCLE) as u64,
        failed: Snap::of(&p.registry).value("tw_store_errors_total", &[]) as u64,
        values,
        checks,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::traces_of;
    use crate::input::clean_stream;

    fn some_traces() -> Vec<StoredTrace> {
        let input = clean_stream(11, 300.0, 400);
        let tw = TraceWeaver::new(input.graph.clone(), Params::default());
        let result = tw.reconstruct_records(&input.records);
        ordered(traces_of(3, &input.records, result), usize::MAX)
    }

    #[test]
    fn brute_force_filters_orders_and_caps() {
        let all = some_traces();
        assert!(all.len() > 50);
        let slowest = all.iter().map(|t| t.latency_ns).max().unwrap();
        let q = TraceQuery {
            min_latency_ns: Some(slowest),
            limit: usize::MAX,
            ..TraceQuery::default()
        };
        let got = brute_force(&all, &q);
        assert!(!got.is_empty() && got.iter().all(|t| t.latency_ns == slowest));
        // The default limit caps at 100, in (window, start, root) order.
        let capped = brute_force(&all, &TraceQuery::default());
        assert_eq!(capped.len(), 100);
        assert_eq!(capped[..], all[..100]);
        assert!(brute_force(
            &all,
            &TraceQuery {
                window: Some(99),
                ..q
            }
        )
        .is_empty());
    }

    #[test]
    fn query_list_has_two_of_each_class_and_selects_something() {
        let all = some_traces();
        let queries = query_list(&all);
        assert_eq!(queries.len(), QUERIES_PER_CYCLE);
        assert_eq!(queries.len(), 2 * CLASSES.len());
        assert!(queries[0].window.is_some() && queries[1].window.is_some());
        assert!(queries[2].service.is_some() && queries[3].op.is_some());
        assert!(queries[4].from_ns.is_some() && queries[5].to_ns.is_some());
        assert!(queries[6].min_latency_ns.is_some() && queries[7].min_latency_ns.is_some());
        for q in &queries {
            assert!(!brute_force(&all, q).is_empty(), "{q:?} selects nothing");
        }
    }

    /// The command exits non-zero when an output check fails: a corrupted
    /// reference makes `verify` report a mismatch, and the report built
    /// from it is not correct.
    #[test]
    fn a_corrupted_reference_fails_the_run() {
        let all = some_traces();
        let queries = query_list(&all);
        let results: Vec<Vec<StoredTrace>> = queries.iter().map(|q| brute_force(&all, q)).collect();
        let mut references = results.clone();
        assert_eq!(verify(&queries, &results, &references), (100.0, None));
        references[6][0].latency_ns += 1;
        let (accuracy, bad) = verify(&queries, &results, &references);
        assert_eq!(accuracy, 87.5);
        assert!(bad.expect("mismatch described").starts_with("query 6"));
        let report = Report {
            workload: NAME,
            traced: false,
            attempted: 8,
            failed: 0,
            values: Values::default(),
            checks: vec![check(
                "results_equal_brute_force",
                accuracy == 100.0,
                String::new(),
            )],
            notes: Vec::new(),
        };
        assert!(!report.correct());
    }
}
