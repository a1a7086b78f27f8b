//! Archive durability end to end (DESIGN.md §14): the on-disk archive a
//! warm pipeline run produces must be byte-identical at every thread
//! count, a clean restart must neither re-archive nor lose sealed windows,
//! a `kill -9` must neither lose nor rewrite a window (DESIGN.md §12), a
//! stalled results consumer must cost no sealed window, and live queries
//! over HTTP must resolve exemplar window ids.

use crossbeam::channel::Sender;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tw_core::{Params, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_pipeline::{
    fetch_traces, load_checkpoint, stored_traces, CheckpointConfig, MetricsServer, OnlineConfig,
    OnlineEngine, SanitizeConfig, WindowResult,
};
use tw_sim::apps::hotel_reservation;
use tw_sim::{Simulator, Workload};
use tw_store::{read_query, ArchiveConfig, StoredTrace, TraceQuery};
use tw_telemetry::Registry;

fn workload(seed: u64) -> (tw_model::CallGraph, Vec<RpcRecord>) {
    workload_at(seed, 200.0, Nanos::from_secs(2))
}

/// `hotel_reservation(seed)` at `rps` Poisson arrivals for `length`, in
/// response-arrival order.
fn workload_at(seed: u64, rps: f64, length: Nanos) -> (tw_model::CallGraph, Vec<RpcRecord>) {
    let app = hotel_reservation(seed);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, rps, length));
    let mut records = out.records;
    records.sort_by_key(|r| (r.recv_resp, r.rpc));
    (call_graph, records)
}

fn archive_cfg(dir: &Path) -> ArchiveConfig {
    ArchiveConfig {
        // Small segments so several seal mid-run.
        segment_bytes: 64 << 10,
        ..ArchiveConfig::new(dir)
    }
}

/// A weaver on `threads` reconstruction workers.
fn weaver(call_graph: &tw_model::CallGraph, threads: usize) -> TraceWeaver {
    let params = Params {
        threads,
        ..Params::default()
    };
    TraceWeaver::new(call_graph.clone(), params)
}

/// Run the warm engine over `records` on `threads` workers, archiving.
fn run_engine(
    call_graph: &tw_model::CallGraph,
    records: &[RpcRecord],
    threads: usize,
    archive_dir: &Path,
    checkpoint_dir: Option<&Path>,
) {
    let engine = OnlineEngine::start(
        weaver(call_graph, threads),
        OnlineConfig {
            window: Nanos::from_millis(250),
            grace: Nanos::from_millis(50),
            channel_capacity: 4096,
            warm_start: true,
            archive: Some(archive_cfg(archive_dir)),
            checkpoint: checkpoint_dir.map(CheckpointConfig::new),
            ..OnlineConfig::default()
        },
    );
    let ingest = engine.ingest_handle();
    for r in records {
        ingest.send(*r).unwrap();
    }
    drop(ingest);
    let windows = engine.shutdown();
    assert!(!windows.is_empty(), "engine produced windows");
}

fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-archrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every trace the archive in `dir` has committed, in query order.
fn all_traces(dir: &Path) -> Vec<StoredTrace> {
    let all = TraceQuery {
        limit: usize::MAX,
        ..TraceQuery::default()
    };
    read_query(dir, &all).unwrap()
}

/// Offer every record without reading a result: wait for room while the
/// graph moves, and once the unread results have stopped it (no room for
/// half a second), give up on the rest. Returns how many were accepted.
fn offer_until_stalled(ingest: &Sender<RpcRecord>, records: &[RpcRecord]) -> usize {
    let mut stopped = false;
    let mut accepted = 0usize;
    for r in records {
        let deadline = Instant::now() + Duration::from_millis(500);
        while !stopped {
            if ingest.try_send(*r).is_ok() {
                accepted += 1;
                break;
            }
            std::thread::sleep(Duration::from_micros(50));
            stopped = Instant::now() > deadline;
        }
    }
    accepted
}

/// Run an engine over `records` on 2 workers, every record offered before
/// the shutdown drain reads the results.
fn run_all(
    call_graph: &tw_model::CallGraph,
    config: OnlineConfig,
    records: &[RpcRecord],
) -> Vec<WindowResult> {
    let engine = OnlineEngine::start(weaver(call_graph, 2), config);
    let ingest = engine.ingest_handle();
    for r in records {
        ingest.send(*r).unwrap();
    }
    drop(ingest);
    engine.shutdown()
}

/// What `kill -9` leaves on disk, deterministically: an engine under
/// `config` with every queue one item deep is offered `records` until its
/// unread results stall the graph, and each `(from, to)` directory is
/// copied while nothing moves. The engine is drained afterwards; the
/// copies are what a restart finds.
fn crash_copy(
    call_graph: &tw_model::CallGraph,
    config: OnlineConfig,
    records: &[RpcRecord],
    copies: &[(&Path, &Path)],
) {
    let engine = OnlineEngine::start(
        weaver(call_graph, 2),
        OnlineConfig {
            channel_capacity: 1,
            ..config
        },
    );
    let ingest = engine.ingest_handle();
    let accepted = offer_until_stalled(&ingest, records);
    assert!(accepted < records.len(), "the graph never stalled");
    for (from, to) in copies {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).into_iter().flatten() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
    drop(ingest);
    drop(engine.shutdown());
}

/// The same windows, with the same ends, records and mappings, in the
/// same order.
fn assert_same_windows(a: &[WindowResult], b: &[WindowResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: window count");
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.index, b.index, "{what}: window order");
        assert_eq!(a.end, b.end, "{what}: window {} end", a.index);
        assert_eq!(a.records, b.records, "{what}: window {}", a.index);
        for r in &a.records {
            assert_eq!(
                a.reconstruction.mapping.children(r.rpc),
                b.reconstruction.mapping.children(r.rpc),
                "{what}: mapping diverged in window {}",
                a.index
            );
        }
    }
}

/// The archive stage sees windows in index order from the one window
/// shard: 1, 2 and 8 reconstruction threads must write byte-identical
/// archive directories (same segment files, same manifest).
#[test]
fn archive_byte_identical_across_threads() {
    let (call_graph, records) = workload(811);
    let baseline_dir = tmp("threads-1");
    run_engine(&call_graph, &records, 1, &baseline_dir, None);
    let baseline = dir_bytes(&baseline_dir);
    assert!(
        baseline
            .iter()
            .filter(|(n, _)| n.ends_with(".twsg"))
            .count()
            >= 1,
        "workload sealed at least one segment"
    );

    for threads in [2usize, 8] {
        let dir = tmp(&format!("threads-{threads}"));
        run_engine(&call_graph, &records, threads, &dir, None);
        let got = dir_bytes(&dir);
        assert_eq!(
            baseline.len(),
            got.len(),
            "file count diverged at {threads} threads"
        );
        for ((name_a, bytes_a), (name_b, bytes_b)) in baseline.iter().zip(&got) {
            assert_eq!(name_a, name_b, "file set diverged at {threads} threads");
            assert_eq!(
                bytes_a, bytes_b,
                "{name_a} not byte-identical at {threads} threads"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
}

/// A clean shutdown plus restart over the remainder of the stream
/// archives every trace exactly once: the checkpointed watermark and the
/// archive manifest watermark agree, so the resumed engine neither
/// re-archives old windows nor skips sealed-but-unarchived ones.
#[test]
fn restart_neither_duplicates_nor_loses_traces() {
    let (call_graph, records) = workload(812);
    let window = Nanos::from_millis(250);
    let by_ts = |r: &RpcRecord| r.recv_resp.0.div_ceil(window.0).saturating_sub(1);
    let mid = by_ts(&records[records.len() / 2]);
    let first: Vec<RpcRecord> = records.iter().copied().filter(|r| by_ts(r) < mid).collect();
    let second: Vec<RpcRecord> = records
        .iter()
        .copied()
        .filter(|r| by_ts(r) >= mid)
        .collect();
    assert!(!first.is_empty() && !second.is_empty());

    // Reference: one uninterrupted run.
    let ref_dir = tmp("restart-ref");
    run_engine(&call_graph, &records, 2, &ref_dir, None);
    let reference = read_query(
        &ref_dir,
        &TraceQuery {
            limit: usize::MAX,
            ..TraceQuery::default()
        },
    )
    .unwrap();
    assert!(!reference.is_empty());

    // Interrupted: first half, clean shutdown, restart, second half.
    let arch_dir = tmp("restart-arch");
    let ck_dir = tmp("restart-ck");
    run_engine(&call_graph, &first, 2, &arch_dir, Some(&ck_dir));
    run_engine(&call_graph, &second, 2, &arch_dir, Some(&ck_dir));
    let resumed = read_query(
        &arch_dir,
        &TraceQuery {
            limit: usize::MAX,
            ..TraceQuery::default()
        },
    )
    .unwrap();

    assert_eq!(
        reference.len(),
        resumed.len(),
        "trace count diverged across the restart"
    );
    let key = |t: &tw_store::StoredTrace| (t.window, t.root, t.start, t.end, t.spans.len());
    let mut keys: Vec<_> = resumed.iter().map(key).collect();
    keys.dedup();
    assert_eq!(keys.len(), resumed.len(), "no duplicate traces");
    for (a, b) in reference.iter().zip(&resumed) {
        assert_eq!(key(a), key(b), "trace diverged across the restart");
    }
    for dir in [&ref_dir, &arch_dir, &ck_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every queue blocks, so a consumer that stops reading stalls the graph
/// instead of losing what it already sealed: sealing advances the sealed
/// watermark past the window, so a dropped result would be lost for good.
/// With every queue one item deep and nothing reading the results until
/// the whole stream was offered, each window `tw_engine_windows_total`
/// counts must still reach the results and have its root traces in the
/// archive, and every record the ingest queue accepted must land in
/// exactly one result.
#[test]
fn stalled_consumer_loses_no_sealed_window() {
    let (call_graph, records) = workload(814);
    let window = Nanos::from_millis(100);
    let last = records.last().unwrap().recv_resp.0.div_ceil(window.0);
    assert!(last >= 10, "the stream spans {last} windows");
    let archive_dir = tmp("stalled");
    let telemetry = Registry::new();
    let engine = OnlineEngine::start(
        weaver(&call_graph, 1),
        OnlineConfig {
            window,
            grace: Nanos::from_millis(50),
            channel_capacity: 1,
            warm_start: true,
            archive: Some(archive_cfg(&archive_dir)),
            telemetry: telemetry.clone(),
            ..OnlineConfig::default()
        },
    );
    let ingest = engine.ingest_handle();
    let accepted = offer_until_stalled(&ingest, &records);
    drop(ingest);
    let results = engine.shutdown();

    let sealed: f64 = telemetry
        .render()
        .lines()
        .filter(|l| l.starts_with("tw_engine_windows_total{"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum();
    assert!(sealed > 0.0, "no window sealed");
    assert_eq!(results.len() as f64, sealed, "sealed windows were lost");
    let routed: usize = results.iter().map(|w| w.records.len()).sum();
    assert_eq!(routed, accepted, "accepted records were lost");
    let archived: BTreeSet<(u64, u64)> = all_traces(&archive_dir)
        .iter()
        .map(|t| (t.window, t.root))
        .collect();
    let expected: BTreeSet<(u64, u64)> = results
        .iter()
        .flat_map(stored_traces)
        .map(|t| (t.window, t.root))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(
        archived, expected,
        "archive is missing sealed windows' traces"
    );
    let _ = std::fs::remove_dir_all(&archive_dir);
}

/// A `kill -9` while the archive holds its windows only in memory: with
/// 64 MiB segments nothing is committed when the graph stalls, so no
/// checkpoint may name a sealed window either. A restart on what the
/// crash left, replaying the whole stream, must archive exactly the
/// uninterrupted run's traces, field for field, and emit its windows from
/// the restored watermark on: no window rewritten from a prior that
/// already absorbed it.
#[test]
fn kill_before_the_archive_commits_rewrites_no_window() {
    let (call_graph, records) = workload_at(812, 1_500.0, Nanos::from_secs(2));
    let config = |archive: &Path, checkpoint: &Path| OnlineConfig {
        window: Nanos::from_millis(250),
        grace: Nanos::from_millis(50),
        channel_capacity: 4096,
        warm_start: true,
        archive: Some(ArchiveConfig {
            segment_bytes: 64 << 20,
            ..ArchiveConfig::new(archive)
        }),
        checkpoint: Some(CheckpointConfig {
            interval: Duration::ZERO,
            ..CheckpointConfig::new(checkpoint)
        }),
        ..OnlineConfig::default()
    };
    let dirs: Vec<PathBuf> = ["ref-arch", "ref-ck", "arch", "ck", "arch-left", "ck-left"]
        .iter()
        .map(|tag| tmp(&format!("kill-archive-{tag}")))
        .collect();
    let [ref_arch, ref_ck, arch, ck, arch_left, ck_left] = &dirs[..] else {
        unreachable!()
    };

    let reference = run_all(&call_graph, config(ref_arch, ref_ck), &records);
    crash_copy(
        &call_graph,
        config(arch, ck),
        &records,
        &[(arch, arch_left), (ck, ck_left)],
    );
    let restored = load_checkpoint(ck_left).map_or(0, |doc| doc.watermark);
    let resumed = run_all(&call_graph, config(arch_left, ck_left), &records);

    let expected = all_traces(ref_arch);
    assert!(!expected.is_empty());
    assert!(
        all_traces(arch_left) == expected,
        "the restarted archive differs from the uninterrupted run's"
    );
    let from_watermark: Vec<WindowResult> = reference
        .into_iter()
        .filter(|w| w.index >= restored)
        .collect();
    assert_same_windows(&from_watermark, &resumed, "after the restart");
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A `kill -9` while the sanitizer has seen records of windows not yet
/// sealed, with no archive. A restart on the checkpoint the crash left,
/// replaying the whole stream, must rebuild every window from the restored
/// watermark `W` on with exactly the uninterrupted run's records, and
/// count each replayed record below `W` as `replayed`, not as a duplicate.
/// Every 25th record arrives 400 ms late, so some record of a window below
/// `W` was folded into one at or above it, and must land there again.
#[test]
fn kill_with_the_sanitizer_ahead_of_the_watermark_loses_no_record() {
    let (call_graph, mut records) = workload_at(812, 400.0, Nanos::from_secs(4));
    let late = Nanos::from_millis(400);
    let arrival: Vec<Nanos> = (0..records.len())
        .map(|i| records[i].recv_resp + if i % 25 == 0 { late } else { Nanos::ZERO })
        .collect();
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (arrival[i], records[i].rpc));
    records = order.iter().map(|&i| records[i]).collect();
    let config = |checkpoint: &Path, telemetry: &Registry| OnlineConfig {
        window: Nanos::from_millis(250),
        grace: Nanos::from_millis(50),
        channel_capacity: 4096,
        warm_start: true,
        sanitize: Some(SanitizeConfig::default()),
        checkpoint: Some(CheckpointConfig {
            interval: Duration::ZERO,
            ..CheckpointConfig::new(checkpoint)
        }),
        telemetry: telemetry.clone(),
        ..OnlineConfig::default()
    };
    let (ref_ck, ck, ck_left) = (
        tmp("kill-sanitize-ref"),
        tmp("kill-sanitize"),
        tmp("kill-sanitize-left"),
    );

    let reference = run_all(&call_graph, config(&ref_ck, &Registry::new()), &records);
    crash_copy(
        &call_graph,
        config(&ck, &Registry::new()),
        &records,
        &[(&ck, &ck_left)],
    );
    let restored = load_checkpoint(&ck_left)
        .expect("the crash left a checkpoint")
        .watermark;
    assert!(restored > 0, "no window sealed before the crash");
    let window = Nanos::from_millis(250).0;
    let folded_across = reference
        .iter()
        .filter(|w| w.index >= restored)
        .flat_map(|w| &w.records)
        .filter(|r| r.recv_resp.0.div_ceil(window) - 1 < restored)
        .count();
    assert!(folded_across > 0, "no late record crossed the watermark");
    let telemetry = Registry::new();
    let resumed = run_all(&call_graph, config(&ck_left, &telemetry), &records);

    let ids = |windows: &[WindowResult]| -> Vec<(u64, Vec<u64>)> {
        windows
            .iter()
            .filter(|w| w.index >= restored)
            .map(|w| {
                let mut ids: Vec<u64> = w.records.iter().map(|r| r.rpc.0).collect();
                ids.sort_unstable();
                (w.index, ids)
            })
            .collect()
    };
    let (got, want) = (ids(&resumed), ids(&reference));
    let sizes = |windows: &[(u64, Vec<u64>)]| -> Vec<(u64, usize)> {
        windows.iter().map(|(w, ids)| (*w, ids.len())).collect()
    };
    assert_eq!(
        sizes(&got),
        sizes(&want),
        "records per window from the watermark on"
    );
    assert!(got == want, "record ids from the watermark on");
    assert_eq!(resumed.len(), got.len(), "no window below the watermark");
    let below: usize = reference
        .iter()
        .filter(|w| w.index < restored)
        .map(|w| w.records.len())
        .sum();
    let text = telemetry.render();
    assert!(
        text.contains(&format!("tw_pipeline_recovery_replayed_total {below}\n")),
        "{below} replayed records expected:\n{text}"
    );
    assert!(
        text.contains("tw_sanitize_dropped_total{reason=\"duplicate\"} 0\n"),
        "the stream carries no duplicate:\n{text}"
    );
    for dir in [&ref_ck, &ck, &ck_left] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The live read path: a `MetricsServer` with the engine's archive
/// attached serves `GET /traces`, filters apply, and a window id (the
/// exemplar `window_id` label) resolves to that window's stored traces.
#[test]
fn http_traces_endpoint_serves_and_filters() {
    let (call_graph, records) = workload(813);
    let tw = TraceWeaver::new(call_graph, Params::default());
    let archive_dir = tmp("http");
    let telemetry = Registry::new();
    let engine = OnlineEngine::start(
        tw,
        OnlineConfig {
            window: Nanos::from_millis(250),
            grace: Nanos::from_millis(50),
            channel_capacity: 4096,
            archive: Some(archive_cfg(&archive_dir)),
            telemetry: telemetry.clone(),
            ..OnlineConfig::default()
        },
    );
    let health = tw_pipeline::ServeHealth::new();
    health.attach_archive(engine.archive().unwrap().clone());
    health.set_ready();
    let server = MetricsServer::bind("127.0.0.1:0", vec![telemetry], health).unwrap();
    let addr = server.local_addr();

    let ingest = engine.ingest_handle();
    for r in &records {
        ingest.send(*r).unwrap();
    }
    drop(ingest);
    let windows = engine.shutdown();
    assert!(!windows.is_empty());

    let all = fetch_traces(addr, &TraceQuery::default()).unwrap();
    assert!(!all.is_empty(), "queryable over HTTP after the drain");
    // Window-id resolution: pick a stored window and query just it.
    let window_id = all[0].window;
    let one = fetch_traces(
        addr,
        &TraceQuery {
            window: Some(window_id),
            ..TraceQuery::default()
        },
    )
    .unwrap();
    assert!(!one.is_empty());
    assert!(one.iter().all(|t| t.window == window_id));
    // A service filter narrows: the hotel app has multiple services, so
    // filtering on the frontend returns traces but an absent id returns
    // none.
    let absent = fetch_traces(
        addr,
        &TraceQuery {
            service: Some(9_999),
            ..TraceQuery::default()
        },
    )
    .unwrap();
    assert!(absent.is_empty());

    // The endpoint and a read of the directory agree to the nanosecond: a
    // 2.5 ms range from a trace's own start reaches the archive as it is.
    let from = all[all.len() / 2].start;
    let ids = |traces: Vec<StoredTrace>| {
        let mut ids: Vec<_> = traces.iter().map(|t| (t.window, t.root)).collect();
        ids.sort_unstable();
        ids
    };
    let bounded = TraceQuery {
        from_ns: Some(from),
        to_ns: Some(from + 2_500_000),
        limit: 100_000,
        ..TraceQuery::default()
    };
    let on_disk = ids(read_query(&archive_dir, &bounded).unwrap());
    assert!(!on_disk.is_empty());
    assert_eq!(ids(fetch_traces(addr, &bounded).unwrap()), on_disk);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&archive_dir);
}
