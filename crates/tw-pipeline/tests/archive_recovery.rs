//! Archive durability end to end (DESIGN.md §14): the on-disk archive a
//! warm pipeline run produces must be byte-identical at every thread
//! count, a clean restart must neither re-archive nor lose sealed windows,
//! a stalled results consumer must cost no sealed window, and live queries
//! over HTTP must resolve exemplar window ids.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tw_core::{Params, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_pipeline::{
    fetch_traces, stored_traces, CheckpointConfig, MetricsServer, OnlineConfig, OnlineEngine,
};
use tw_sim::apps::hotel_reservation;
use tw_sim::{Simulator, Workload};
use tw_store::{read_query, ArchiveConfig, TraceQuery};
use tw_telemetry::Registry;

fn workload(seed: u64) -> (tw_model::CallGraph, Vec<RpcRecord>) {
    let app = hotel_reservation(seed);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 200.0, Nanos::from_secs(2)));
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
    // Offer every record before reading anything: wait for room while the
    // graph moves, and once the unread results have stopped it (no room
    // for half a second), give up on the rest.
    let ingest = engine.ingest_handle();
    let mut stopped = false;
    let mut accepted = 0usize;
    for r in &records {
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
    let archived: BTreeSet<(u64, u64)> = read_query(
        &archive_dir,
        &TraceQuery {
            limit: usize::MAX,
            ..TraceQuery::default()
        },
    )
    .unwrap()
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
    let server = MetricsServer::bind_with("127.0.0.1:0", vec![telemetry], health).unwrap();
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

    server.shutdown();
    let _ = std::fs::remove_dir_all(&archive_dir);
}
