//! End-to-end self-tracing: the online pipeline records one span tree per
//! window (sanitize → route → collect → reconstruct → result hand-off →
//! absorb),
//! slow-window exemplars on `/metrics` link to those trees via
//! `GET /spans`, and the trees are deterministic across thread counts.

use std::collections::BTreeMap;
use tw_core::{Params, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_pipeline::net::{export_records, fetch, serve_online_sanitized, MetricsServer, ServeHealth};
use tw_pipeline::{OnlineConfig, OnlineEngine, SanitizeConfig};
use tw_sim::apps::two_service_chain;
use tw_sim::{Simulator, Workload};
use tw_telemetry::trace::{SpanRecorder, TraceConfig};
use tw_telemetry::Registry;

fn workload(seed: u64) -> (tw_model::callgraph::CallGraph, Vec<RpcRecord>) {
    let app = two_service_chain(seed);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_millis(800)));
    let mut records = out.records;
    records.sort_by_key(|r| (r.recv_resp, r.rpc));
    (call_graph, records)
}

/// Per-window span-name sequences from the recorder's sealed ring.
fn tree_shapes(recorder: &SpanRecorder) -> BTreeMap<u64, Vec<String>> {
    recorder
        .finished_snapshot()
        .into_iter()
        .map(|t| {
            assert!(t.sealed, "ring only holds sealed trees");
            (
                t.window,
                t.spans.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            )
        })
        .collect()
}

#[test]
fn span_trees_are_deterministic_across_threads() {
    let (call_graph, records) = workload(91);

    let run = |threads: usize| {
        let recorder = SpanRecorder::new(
            TraceConfig {
                sample: 1,
                ring: 256,
            },
            &Registry::new(),
        );
        let params = Params {
            threads,
            ..Params::default()
        };
        let tw = TraceWeaver::new(call_graph.clone(), params);
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(100),
                grace: Nanos::from_millis(50),
                warm_start: true,
                sanitize: Some(SanitizeConfig::default()),
                trace: Some(recorder.clone()),
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        for rec in &records {
            ingest.send(*rec).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();
        assert!(!windows.is_empty(), "engine produced windows");
        (tree_shapes(&recorder), windows.len())
    };

    let (one, windows_one) = run(1);
    let (two, _) = run(2);
    let (eight, _) = run(8);

    assert_eq!(one.len(), windows_one, "one sealed tree per emitted window");
    assert_eq!(one, two, "1-thread and 2-thread span trees diverge");
    assert_eq!(one, eight, "1-thread and 8-thread span trees diverge");

    // Every tree covers the full online path in stage order; the warm
    // refit for the next window comes after the result.
    for (window, names) in &one {
        assert_eq!(
            names,
            &[
                "window",
                "sanitize",
                "route",
                "collect",
                "reconstruct",
                "absorb"
            ],
            "unexpected span shape for window {window}"
        );
    }
}

#[test]
fn slow_window_exemplar_links_to_span_tree() {
    let (call_graph, records) = workload(92);

    let registry = Registry::new();
    let recorder = SpanRecorder::new(TraceConfig::default(), &registry);
    let health = ServeHealth::new();
    health.attach_spans(recorder.clone());
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![registry.clone()], health.clone())
        .expect("bind metrics endpoint");

    let tw = TraceWeaver::new(call_graph, Params::default());
    let config = OnlineConfig {
        window: Nanos::from_millis(100),
        grace: Nanos::from_millis(50),
        telemetry: registry,
        trace: Some(recorder.clone()),
        ..OnlineConfig::default()
    };
    let (server, engine) =
        serve_online_sanitized("127.0.0.1:0", tw, config, SanitizeConfig::default())
            .expect("start pipeline");
    health.set_ready();
    export_records(server.local_addr(), &records).expect("export records");
    server.shutdown();
    let windows = engine.shutdown();
    assert!(!windows.is_empty());

    let text = fetch(scrape.local_addr(), "/metrics").expect("scrape /metrics");

    // Exemplars flip the exposition to OpenMetrics (EOF-terminated) and a
    // latency bucket carries a window_id/span_id exemplar.
    assert!(text.ends_with("# EOF\n"), "OpenMetrics exposition:\n{text}");
    let exemplar_line = text
        .lines()
        .find(|l| l.starts_with("tw_engine_window_latency_seconds_bucket") && l.contains(" # {"))
        .unwrap_or_else(|| panic!("no latency exemplar in:\n{text}"));
    let window_id: u64 = exemplar_line
        .split("window_id=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no window_id label on: {exemplar_line}"));
    let span_id = exemplar_line
        .split("span_id=\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("no span_id label on: {exemplar_line}"));

    // The exemplar's window resolves to a sealed span tree on /spans,
    // rooted at the exemplar's span id.
    let spans = fetch(scrape.local_addr(), "/spans").expect("fetch /spans");
    scrape.shutdown();
    assert!(
        spans.contains(&format!(
            "{{\"window\":{window_id},\"root\":{span_id},\"sealed\":true"
        )),
        "window {window_id} (root {span_id}) not on /spans:\n{spans}"
    );
    assert!(spans.contains("\"name\":\"reconstruct\""), "{spans}");

    // The exposition also lints clean as OpenMetrics with exemplars.
    let report = tw_telemetry::lint::lint(&text).expect("exposition lints clean");
    assert!(report.exemplars >= 1, "lint counted no exemplars");
}
