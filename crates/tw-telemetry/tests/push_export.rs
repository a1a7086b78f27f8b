//! Push-exporter integration tests: batch delivery, snapshot diffing, and
//! retry across a sink kill/restart (the CI smoke scenario, in-process).

use std::time::{Duration, Instant};
use tw_telemetry::push::{PushConfig, PushExporter, PushSink};
use tw_telemetry::trace::{SpanRecorder, TraceConfig};
use tw_telemetry::Registry;

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn push_delivers_exposition_and_spans() {
    let sink = PushSink::bind("127.0.0.1:0").expect("bind sink");
    let reg = Registry::new();
    reg.counter("tw_demo_records_total", "records").add(3);
    let recorder = SpanRecorder::new(TraceConfig::default(), &reg);
    drop(recorder.span(0, "route").expect("window 0 sampled"));
    recorder.seal(0);

    let mut cfg = PushConfig::new(sink.addr().to_string());
    cfg.interval = Duration::from_millis(25);
    let exporter = PushExporter::spawn(cfg, vec![reg.clone()], Some(recorder), &reg);

    assert!(
        wait_until(Duration::from_secs(5), || sink.batches() >= 1),
        "sink never received a batch"
    );
    let body = sink.last_body();
    assert!(body.contains("tw_demo_records_total"), "exposition missing");
    assert!(body.contains("\"spans\":"), "span trees missing");
    assert!(body.contains("\"name\":\\\"route\\\"") || body.contains("\"name\":\"route\""));

    // With nothing changing, cycles are skipped rather than re-POSTed.
    let skipped = reg.counter("tw_export_push_skipped_total", "");
    assert!(
        wait_until(Duration::from_secs(5), || skipped.get() >= 1),
        "unchanged snapshot was never skipped"
    );

    exporter.stop_and_flush();
    sink.shutdown();
}

#[test]
fn push_retries_across_sink_restart() {
    let sink = PushSink::bind("127.0.0.1:0").expect("bind sink");
    let addr = sink.addr();
    let reg = Registry::new();
    let records = reg.counter("tw_demo_records_total", "records");
    records.add(1);

    let mut cfg = PushConfig::new(addr.to_string());
    cfg.interval = Duration::from_millis(25);
    cfg.attempts = 200;
    cfg.backoff_base = Duration::from_millis(10);
    cfg.backoff_max = Duration::from_millis(50);
    let exporter = PushExporter::spawn(cfg, vec![reg.clone()], None, &reg);

    assert!(
        wait_until(Duration::from_secs(5), || sink.batches() >= 1),
        "no batch before the restart"
    );

    // Kill the sink, change the snapshot so the next cycle must push, and
    // let the exporter spin in its retry loop.
    sink.shutdown();
    records.add(1);
    std::thread::sleep(Duration::from_millis(150));

    // Restart the sink on the same port; the in-flight retry loop should
    // land a batch without losing it.
    let deadline = Instant::now() + Duration::from_secs(5);
    let sink2 = loop {
        match PushSink::bind(&addr.to_string()) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("cannot rebind sink on {addr}: {e}"),
        }
    };
    assert!(
        wait_until(Duration::from_secs(10), || sink2.batches() >= 1),
        "no batch delivered after the sink restart"
    );
    let retries = reg.counter("tw_export_push_retries_total", "").get();
    assert!(retries >= 1, "restart did not register any retries");
    assert_eq!(reg.counter("tw_export_push_failures_total", "").get(), 0);

    exporter.stop_and_flush();
    sink2.shutdown();
}

/// The sink bounds what it will buffer: a declared `Content-Length` over
/// the cap is answered 413 before any body is read, and the sink keeps
/// serving.
#[test]
fn sink_rejects_oversized_declared_body_with_413() {
    use std::io::{Read, Write};

    let sink = PushSink::bind("127.0.0.1:0").expect("bind sink");
    let mut stream = std::net::TcpStream::connect(sink.addr()).expect("connect");
    stream
        .write_all(b"POST /push HTTP/1.1\r\nHost: x\r\nContent-Length: 1099511627776\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "got: {response}");
    assert_eq!(sink.batches(), 0);

    let (status, _) =
        tw_telemetry::http::request(sink.addr(), "POST", "/push", "{}", Duration::from_secs(5))
            .expect("POST after the rejected one");
    assert_eq!(status, 200);
    assert_eq!((sink.batches(), sink.last_body().as_str()), (1, "{}"));
    sink.shutdown();
}
