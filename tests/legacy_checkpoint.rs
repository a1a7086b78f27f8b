//! A checkpoint written while the sanitizer snapshot still carried its
//! dedup ring loads and restores (DESIGN.md §12): the ring is ignored,
//! so a restarted engine replaying the whole stream drops the records
//! below the restored watermark as replayed, by window, and takes every
//! later record, although the old ring named them all.

use std::path::PathBuf;
use traceweaver::pipeline::checkpoint::CHECKPOINT_FILE;
use traceweaver::pipeline::{
    load_checkpoint, CheckpointConfig, OnlineConfig, OnlineEngine, SanitizeConfig,
};
use traceweaver::prelude::*;
use traceweaver::store::frame::write_json;
use traceweaver::telemetry::Registry;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tw-legacy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoint_with_a_dedup_ring_loads_and_restores() {
    let app = traceweaver::sim::apps::two_service_chain(71);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 300.0, Nanos::from_secs(2)));
    let mut records = out.records;
    records.sort_by_key(|r| (r.recv_resp, r.rpc));
    let window = Nanos::from_millis(250);
    let watermark = 4;

    // The layout before the ring left the snapshot: every id of the
    // stream in the ring, as if the previous process had seen them all.
    let ring: Vec<String> = records.iter().map(|r| r.rpc.0.to_string()).collect();
    let legacy = format!(
        r#"{{"watermark":{watermark},"window_ns":{},"sanitizer":{{"anchor":null,"watermark":0,"records_since_resolve":0,"dedup_ring":[{}],"edges":[],"services":[]}},"registry":null,"archived":null}}"#,
        window.0,
        ring.join(",")
    );
    let legacy: serde::Value = serde_json::from_str(&legacy).unwrap();
    let dir = tmp("ring");
    std::fs::create_dir_all(&dir).unwrap();
    write_json(&dir.join(CHECKPOINT_FILE), *b"TWCK", &legacy).unwrap();
    let doc = load_checkpoint(&dir).expect("a checkpoint with a ring loads");
    assert_eq!((doc.watermark, doc.window_ns), (watermark, window.0));
    assert!(doc.sanitizer.is_some());

    let telemetry = Registry::new();
    let engine = OnlineEngine::start(
        TraceWeaver::new(call_graph, Params::default()),
        OnlineConfig {
            window,
            grace: Nanos::from_millis(50),
            channel_capacity: 1024,
            warm_start: true,
            sanitize: Some(SanitizeConfig::default()),
            checkpoint: Some(CheckpointConfig::new(&dir)),
            telemetry: telemetry.clone(),
            ..OnlineConfig::default()
        },
    );
    let ingest = engine.ingest_handle();
    for r in &records {
        ingest.send(*r).unwrap();
    }
    drop(ingest);
    let windows = engine.shutdown();

    let text = telemetry.render();
    assert!(
        text.contains("tw_pipeline_recovery_restores_total 1\n"),
        "{text}"
    );
    assert!(
        text.contains("tw_sanitize_dropped_total{reason=\"duplicate\"} 0\n"),
        "the old ring must not reject the replay:\n{text}"
    );
    assert!(windows.iter().all(|w| w.index >= watermark));
    let taken: usize = windows.iter().map(|w| w.records.len()).sum();
    let replayed = records.len() - taken;
    assert!(
        taken > 0 && replayed > 0,
        "{taken} taken, {replayed} replayed"
    );
    assert!(
        text.contains(&format!("tw_pipeline_recovery_replayed_total {replayed}\n")),
        "{replayed} replayed records expected:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
