//! End-to-end self-telemetry: run a live loopback pipeline (TCP ingest →
//! sanitizer → online engine → tw-core tasks → tw-solver) and scrape its
//! `GET /metrics` endpoint, asserting the exposition is lint-clean and
//! covers every stage of DESIGN.md §10.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tw_core::{Params, TraceWeaver};
use tw_model::time::Nanos;
use tw_pipeline::net::{export_records, fetch, serve_online_sanitized, MetricsServer};
use tw_pipeline::{DeadLetter, DeadLetterQueue, OnlineConfig, SanitizeConfig, ServeHealth};
use tw_sim::apps::two_service_chain;
use tw_sim::{Simulator, Workload};
use tw_telemetry::http::get;
use tw_telemetry::Registry;

#[test]
fn scrape_covers_every_pipeline_stage() {
    let app = two_service_chain(90);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(1)));

    // One shared registry for the pipeline stages; the algorithm crates
    // (tw-core / tw-solver) report into the process-global registry, so
    // the scrape endpoint merges both.
    let registry = Registry::new();
    let scrape = MetricsServer::bind(
        "127.0.0.1:0",
        vec![registry.clone(), tw_telemetry::global().clone()],
        ServeHealth::new(),
    )
    .expect("bind metrics endpoint");

    let tw = TraceWeaver::new(call_graph, Params::default());
    let config = OnlineConfig {
        window: Nanos::from_millis(250),
        telemetry: registry,
        ..OnlineConfig::default()
    };
    let (server, engine) =
        serve_online_sanitized("127.0.0.1:0", tw, config, SanitizeConfig::default())
            .expect("start pipeline");

    let mut records = out.records.clone();
    records.sort_by_key(|r| r.send_req);
    export_records(server.local_addr(), &records).expect("export records");

    // Drain in pipeline order: the server first, then the engine's
    // ordered shutdown cascade (sanitize → window router → window shard).
    server.shutdown();
    let (results, sanitize_stats) = engine.shutdown_with_stats();
    let sanitize_stats = sanitize_stats.expect("sanitize stage embedded");
    assert!(!results.is_empty(), "engine produced windows");
    assert_eq!(sanitize_stats.received, records.len() as u64);

    let text = fetch(scrape.local_addr(), "/metrics").expect("scrape /metrics");
    scrape.shutdown();

    let report = tw_telemetry::lint::lint(&text).expect("exposition lints clean");
    assert!(
        report.samples >= 25,
        "expected >= 25 series, got {} in:\n{text}",
        report.samples
    );
    // Every stage of the pipeline must be represented in one scrape:
    // ingest, sanitize, window engine, core task internals and solver.
    for prefix in [
        "tw_ingest_",
        "tw_sanitize_",
        "tw_pipeline_",
        "tw_engine_",
        "tw_core_",
        "tw_solver_",
    ] {
        assert!(
            report.names.iter().any(|n| n.starts_with(prefix)),
            "no series with prefix {prefix} in:\n{text}"
        );
    }

    // The four stages of a window's reconstruction each have a series, so
    // their sums account for the window (DESIGN.md §10).
    for stage in ["candidates", "seed", "optimize", "absorb"] {
        let series = format!("tw_core_stage_seconds_count{{stage=\"{stage}\"}}");
        assert!(text.contains(&series), "no {series} in:\n{text}");
    }

    // The conservation law of a clean run, read from the scrape: every
    // frame the one client sent is a record the sanitizer received, and
    // each one it received it passed or dropped by reason; every record it
    // passed sits in exactly one window, and the shed counter is the
    // windows' own count of skipped records.
    let value = |series: &str| sample(&text, series);
    let frames = value("tw_ingest_frames_total");
    assert_eq!(frames, records.len() as f64);
    assert_eq!(value("tw_sanitize_received_total"), frames);
    let passed = value("tw_sanitize_passed_total");
    assert_eq!(passed, sanitize_stats.passed as f64);
    assert_eq!(
        passed + family_sum(&text, "tw_sanitize_dropped_total"),
        frames
    );
    let windowed: usize = results.iter().map(|w| w.records.len()).sum();
    assert_eq!(passed, windowed as f64);
    let shed: usize = results.iter().map(|w| w.shed_records).sum();
    assert_eq!(value("tw_engine_shed_records_total"), shed as f64);
    assert_eq!(
        family_sum(&text, "tw_engine_windows_total"),
        results.len() as f64
    );
    // One client, served whole: the listener's own wake-up at shutdown is
    // not a connection, and nothing was discarded.
    assert_eq!(value("tw_ingest_connections_total"), 1.0);
    assert_eq!(value("tw_ingest_connections_dropped_total"), 0.0);
    assert_eq!(value("tw_ingest_bytes_discarded_total"), 0.0);
}

/// The value of one series, named as exposed (labels included).
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
}

/// The sum over every labelled series of the family `name`.
fn family_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix('{')?.split_once("} "))
        .map(|(_, value)| value.parse::<f64>().expect("a sample value"))
        .sum()
}

/// A scrape against a path other than /metrics 404s instead of hanging.
#[test]
fn unknown_path_is_a_clean_404() {
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![Registry::new()], ServeHealth::new())
        .expect("bind");
    let mut stream = TcpStream::connect(scrape.local_addr()).expect("connect");
    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "got: {response}");
    scrape.shutdown();
}

/// Query values come off the socket: a nanosecond bound at `u64::MAX`, or
/// one that is not a number, filters as it parses (or not at all), and the
/// single scrape thread lives to answer the next request.
#[test]
fn huge_traces_query_value_saturates_and_server_survives() {
    let dir = std::env::temp_dir().join(format!("tw-scrape-sat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive =
        tw_store::TraceArchive::open(tw_store::ArchiveConfig::new(&dir), &Registry::new())
            .expect("open archive");
    let health = ServeHealth::new();
    health.attach_archive(std::sync::Arc::new(archive));
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![Registry::new()], health).expect("bind");

    let max = u64::MAX;
    for value in [max.to_string(), "1e99".into(), "-1".into(), "x".repeat(64)] {
        let path = format!("/traces?min_latency_ns={value}&from_ns={value}&to_ns={value}");
        let (status, body) = get(scrape.local_addr(), &path, Duration::from_secs(5)).expect("GET");
        assert_eq!(status, 200, "{value}: {body}");
        assert_eq!(body, "{\"traces\":[]}", "{value}");
    }
    let (status, body) = get(scrape.local_addr(), "/healthz", Duration::from_secs(5))
        .expect("GET /healthz after the hostile query");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    scrape.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// No request carries a body: one that declares a `Content-Length` is
/// answered 413 before anything more is read, and the endpoint keeps
/// serving.
#[test]
fn declared_request_body_is_refused_with_413() {
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![Registry::new()], ServeHealth::new())
        .expect("bind");
    let mut stream = TcpStream::connect(scrape.local_addr()).expect("connect");
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "got: {response}");
    let (status, body) = get(scrape.local_addr(), "/healthz", Duration::from_secs(5))
        .expect("GET /healthz after the refused body");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    scrape.shutdown();
}

/// The endpoint answers one connection at a time, so a request head has
/// one deadline, not one per read: a client trickling a head that never
/// ends must not hold the liveness probe behind it.
#[test]
fn slow_client_does_not_stall_the_scrape_endpoint() {
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![Registry::new()], ServeHealth::new())
        .expect("bind");
    let addr = scrape.local_addr();
    let trickle = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let start = Instant::now();
        for byte in b"GET /metrics HTTP/1.1\r\n" {
            if start.elapsed() >= Duration::from_secs(6) || stream.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    std::thread::sleep(Duration::from_millis(300));
    let start = Instant::now();
    let (status, body) = get(addr, "/healthz", Duration::from_secs(4))
        .expect("GET /healthz while another client trickles its head");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "{:?}",
        start.elapsed()
    );
    trickle.join().unwrap();
    scrape.shutdown();
}

/// `GET /deadletters` serves the quarantine as `DeadLetter`s, and what it
/// serves parses back into `DeadLetter`s equal to the queue's, every field
/// included (the record `twctl deadletters --resubmit` replays).
#[test]
fn dead_letters_round_trip_through_the_endpoint() {
    let queue = DeadLetterQueue::new(4);
    let app = two_service_chain(7);
    let root = app.roots[0];
    let out = Simulator::new(app.config).unwrap().run(&Workload::poisson(
        root,
        100.0,
        Nanos::from_millis(50),
    ));
    queue.push(DeadLetter {
        stage: "window-router".into(),
        reason: "panic".into(),
        message: "poison \"record\"\n".into(),
        item_seq: 17,
        record: Some(out.records[0]),
        window: Some(3),
    });
    queue.push(DeadLetter {
        stage: "archive".into(),
        reason: "flush".into(),
        message: String::new(),
        item_seq: 0,
        record: None,
        window: None,
    });
    let health = ServeHealth::new();
    health.attach_dead_letters(queue.clone());
    let scrape = MetricsServer::bind("127.0.0.1:0", vec![Registry::new()], health).expect("bind");
    let body = fetch(scrape.local_addr(), "/deadletters").expect("GET /deadletters");
    let served: Vec<DeadLetter> = serde_json::from_str(&body).expect("a list of DeadLetter");
    assert_eq!(served, queue.snapshot());
    scrape.shutdown();
}
