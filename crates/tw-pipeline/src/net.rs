//! TCP span transport: capture agents export length-prefixed span frames
//! (`tw_capture::wire`) over TCP to an ingestion server that feeds a
//! reconstruction sink.
//!
//! This is the wire path of the paper's online deployment (§5.3): eBPF
//! agents on application nodes ship spans to a running TraceWeaver
//! instance. The server runs one thread per connection on the one
//! blocking accept loop, `tw_telemetry::listen` — span export is a
//! low-fan-in workload (one agent per node), so thread-per-connection is
//! the robust, simple choice.

use crate::online::{OnlineConfig, OnlineEngine};
use crossbeam::channel::Sender;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tw_capture::wire::{encode_records, FrameDecoder};
use tw_core::TraceWeaver;
use tw_model::span::RpcRecord;
use tw_telemetry::http::{self, Request, Response};
use tw_telemetry::listen::Listener;
use tw_telemetry::{Counter, Registry};

/// Consecutive decode failures tolerated on one connection before the
/// server stops resynchronizing and drops it: a stream that keeps failing
/// this many times in a row is garbage, not a glitch, and scanning it
/// byte by byte forever would burn a thread on an adversarial client.
pub const MAX_CONSECUTIVE_DECODE_ERRORS: u32 = 32;

/// Registry-backed ingestion counters, shared by the connection threads
/// (DESIGN.md §10).
#[derive(Debug, Clone)]
struct IngestMetrics {
    connections: Counter,
    connections_dropped: Counter,
    frames: Counter,
    decode_errors: Counter,
    bytes_discarded: Counter,
}

impl IngestMetrics {
    fn new(registry: &Registry) -> Self {
        IngestMetrics {
            connections: registry.counter(
                "tw_ingest_connections_total",
                "Capture-agent TCP connections served (including ones later dropped).",
            ),
            connections_dropped: registry.counter(
                "tw_ingest_connections_dropped_total",
                "Connections dropped after consecutive decode failures exhausted resync.",
            ),
            frames: registry.counter(
                "tw_ingest_frames_total",
                "Wire frames decoded into records and forwarded to the pipeline.",
            ),
            decode_errors: registry.counter(
                "tw_ingest_decode_errors_total",
                "Individual frame decode failures (the stream resynchronizes and survives).",
            ),
            bytes_discarded: registry.counter(
                "tw_ingest_bytes_discarded_total",
                "Bytes consumed by failed decodes or abandoned when a connection dropped.",
            ),
        }
    }
}

/// A running span-ingestion server.
///
/// Incoming frames are decoded and forwarded to the sink channel (e.g.
/// an [`crate::OnlineEngine`]'s ingest handle), one worker thread per
/// connection on the one accept loop, [`Listener`]. Malformed streams
/// close their connection; other connections are unaffected. The
/// `tw_ingest_*` series count how many streams failed and how much data
/// they took with them.
pub struct IngestServer {
    listener: Listener,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl IngestServer {
    /// Bind and start accepting. Use `"127.0.0.1:0"` to pick a free port.
    /// The `tw_ingest_*` series land in `registry`, so a pipeline (and its
    /// [`MetricsServer`] scrape endpoint) can share one.
    pub fn bind(
        addr: &str,
        sink: Sender<RpcRecord>,
        registry: &Registry,
    ) -> std::io::Result<IngestServer> {
        let metrics = IngestMetrics::new(registry);
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let spawned = workers.clone();
        let listener = Listener::bind(addr, "tw-ingest", move |stream| {
            let mut spawned = spawned.lock();
            // An exited thread keeps its stack until it is joined or its
            // handle dropped; a long-lived server sees many short
            // connections, so let go of the finished ones.
            spawned.retain(|w| !w.is_finished());
            let (sink, stats) = (sink.clone(), metrics.clone());
            spawned.push(std::thread::spawn(move || {
                let _ = serve_connection(stream, sink, &stats);
            }));
        })?;
        Ok(IngestServer { listener, workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stop accepting and serve every connection made before the call to
    /// EOF (as drop does).
    pub fn shutdown(self) {}
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        self.listener.stop();
        for worker in self.workers.lock().drain(..) {
            let _ = worker.join();
        }
    }
}

/// Decode one connection's frame stream into the sink until EOF.
///
/// A decode failure no longer kills the connection outright: the decoder
/// resynchronizes (skipping a byte when the failed parse consumed
/// nothing, e.g. a corrupt length prefix) and keeps scanning for the
/// next frame boundary, so one mangled frame costs one frame, not the
/// whole stream. Only [`MAX_CONSECUTIVE_DECODE_ERRORS`] failures in a
/// row — a stream that is garbage, not glitched — drop the connection.
/// The frame length itself is bounded by `tw_capture::wire::MAX_FRAME`,
/// so a corrupt prefix can never trigger a huge allocation.
fn serve_connection(
    mut stream: TcpStream,
    sink: Sender<RpcRecord>,
    stats: &IngestMetrics,
) -> std::io::Result<()> {
    stats.connections.inc();
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut consecutive_errors: u32 = 0;
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // clean EOF
        }
        decoder.feed(&buf[..n]);
        loop {
            let pending_before = decoder.pending_bytes();
            match decoder.next_record() {
                Ok(Some(rec)) => {
                    consecutive_errors = 0;
                    stats.frames.inc();
                    if sink.send(rec).is_err() {
                        return Ok(()); // sink closed: drop the rest
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    stats.decode_errors.inc();
                    consecutive_errors += 1;
                    if consecutive_errors >= MAX_CONSECUTIVE_DECODE_ERRORS {
                        // Still-buffered bytes are lost with the
                        // connection; count them so operators can see
                        // how much data a misbehaving agent is costing.
                        stats.bytes_discarded.add(decoder.pending_bytes() as u64);
                        stats.connections_dropped.inc();
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("dropping connection after {consecutive_errors} consecutive wire errors: {e}"),
                        ));
                    }
                    // Resynchronize: bytes the failed parse consumed are
                    // gone either way; if it consumed nothing (corrupt
                    // length prefix), slide one byte to search for the
                    // next boundary.
                    let mut discarded = (pending_before - decoder.pending_bytes()) as u64;
                    if discarded == 0 {
                        discarded = decoder.resync() as u64;
                    }
                    stats.bytes_discarded.add(discarded);
                }
            }
        }
    }
}

/// The full online deployment topology (§5.3) in one call: start an
/// [`OnlineEngine`] (a supervised staged pipeline, DESIGN.md §11) and
/// bind an [`IngestServer`] as its source, so capture agents export wire
/// frames straight into windowed reconstruction. Shut down the server
/// before the engine so in-flight connections drain into the final
/// windows. Fails if the archive directory cannot be opened or `addr`
/// cannot be bound.
pub fn serve_online(
    addr: &str,
    tw: TraceWeaver,
    config: OnlineConfig,
) -> std::io::Result<(IngestServer, OnlineEngine)> {
    let registry = config.telemetry.clone();
    let engine = OnlineEngine::try_start(tw, config)?;
    let server = IngestServer::bind(addr, engine.ingest_handle(), &registry)?;
    Ok((server, engine))
}

/// [`serve_online`] with a [`SanitizeStage`](crate::SanitizeStage)
/// composed between the ingest source and the window router, inside the
/// engine's supervised graph: decoded records are deduplicated,
/// causality-checked and skew-corrected before they reach windowing
/// (DESIGN.md §9). Shut down the server first, then the engine
/// — the engine's ordered shutdown drains the sanitizer into the window
/// shard before it flushes. Read the sanitizer's final counters with
/// [`OnlineEngine::sanitize_stats`].
pub fn serve_online_sanitized(
    addr: &str,
    tw: TraceWeaver,
    mut config: OnlineConfig,
    sanitize: crate::SanitizeConfig,
) -> std::io::Result<(IngestServer, OnlineEngine)> {
    config.sanitize = Some(sanitize);
    serve_online(addr, tw, config)
}

/// Connect+write attempts [`export_records`] makes per batch, and the
/// backoff between them: `BASE · 2ⁿ⁻¹` capped at `MAX`, with deterministic
/// jitter of up to +25 % ([`backoff`]).
const EXPORT_ATTEMPTS: u32 = 5;
const EXPORT_BACKOFF_BASE: Duration = Duration::from_millis(20);
const EXPORT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Backoff before retry `attempt + 1` (1-based `attempt`): `base · 2ⁿ⁻¹`
/// capped at `max`, plus up to +25 % jitter from splitmix64 over
/// (attempt, port) — no RNG state, so schedules are reproducible run to
/// run yet desynchronized across clients of different servers.
fn backoff(base: Duration, max: Duration, attempt: u32, port: u16) -> Duration {
    let exp = attempt.saturating_sub(1).min(20);
    let nominal = base.saturating_mul(1u32 << exp).min(max);
    let mut z = ((u64::from(attempt) << 32) | u64::from(port)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    nominal + nominal.mul_f64((z % 256) as f64 / 1024.0)
}

/// Transient failures worth retrying: the server not (yet) accepting, or
/// a non-blocking/interrupted write. Anything else (e.g. permission
/// errors) fails fast.
fn retryable(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::NotConnected
    )
}

/// Client side: connect and export a batch of records as wire frames,
/// retrying transient failures (connect refusal while the ingest server
/// restarts, `WouldBlock`/`Interrupted` mid write) up to five attempts
/// under bounded exponential backoff.
pub fn export_records(addr: SocketAddr, records: &[RpcRecord]) -> std::io::Result<()> {
    export_records_with(addr, records, EXPORT_ATTEMPTS)
}

/// [`export_records`] with an explicit number of attempts (clamped to at
/// least 1). Each attempt is a fresh connect+write (frames are encoded
/// once).
pub fn export_records_with(
    addr: SocketAddr,
    records: &[RpcRecord],
    attempts: u32,
) -> std::io::Result<()> {
    let frames = encode_records(records);
    let attempts = attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let result = TcpStream::connect(addr).and_then(|mut stream| {
            stream.write_all(&frames)?;
            stream.flush()
        });
        match result {
            Err(err) if attempt < attempts && retryable(&err) => std::thread::sleep(backoff(
                EXPORT_BACKOFF_BASE,
                EXPORT_BACKOFF_MAX,
                attempt,
                addr.port(),
            )),
            result => return result,
        }
    }
}

/// A minimal HTTP scrape endpoint serving `GET /metrics` in Prometheus
/// text exposition format v0.0.4.
///
/// An [`http::Server`] (one connection at a time, no request bodies)
/// routing through `serve_scrape`. The served document is
/// [`Registry::render_multi`] over `sources` — pass the pipeline's
/// registry plus [`tw_telemetry::global()`] to cover all five stages
/// (ingest, sanitize, engine, core task, solver) in one scrape.
pub struct MetricsServer {
    server: http::Server,
}

/// Liveness/readiness/introspection state served next to `/metrics`
/// (DESIGN.md §12). Clone it into the process that builds the pipeline
/// and flip [`set_ready`](ServeHealth::set_ready) once the graph is up
/// and any checkpoint restore has finished; `/readyz` answers 503 until
/// then. Attach the supervised pipeline's [`DeadLetterQueue`] to make
/// quarantined records inspectable at `/deadletters`.
#[derive(Clone, Default)]
pub struct ServeHealth {
    ready: Arc<AtomicBool>,
    dead_letters: Arc<parking_lot::Mutex<Option<crate::supervise::DeadLetterQueue>>>,
    spans: Arc<parking_lot::Mutex<Option<tw_telemetry::trace::SpanRecorder>>>,
    archive: Arc<parking_lot::Mutex<Option<Arc<tw_store::TraceArchive>>>>,
}

impl ServeHealth {
    /// Not-ready state with no dead-letter queue attached.
    pub fn new() -> Self {
        ServeHealth::default()
    }

    /// Expose `queue` at `GET /deadletters`. Callable before or after
    /// the server binds (the pipeline — and its queue — is typically
    /// built while `/readyz` still answers 503).
    pub fn attach_dead_letters(&self, queue: crate::supervise::DeadLetterQueue) {
        *self.dead_letters.lock() = Some(queue);
    }

    /// Expose `recorder`'s span trees at `GET /spans` (recent sealed
    /// windows plus still-active ones, as JSON). Exemplars on
    /// `/metrics` carry `span_id` labels that resolve here.
    pub fn attach_spans(&self, recorder: tw_telemetry::trace::SpanRecorder) {
        *self.spans.lock() = Some(recorder);
    }

    /// Expose `archive` at `GET /traces` (stored reconstructed traces as
    /// JSON, filterable by the [`tw_store::TraceQuery`] fields as query
    /// parameters: `window`/`service`/`op`/`min_latency_ns`/`from_ns`/
    /// `to_ns`/`limit`, times in ns as the archive holds them). The
    /// `window_id` exemplar labels on `/metrics` resolve here via
    /// `?window=`.
    pub fn attach_archive(&self, archive: Arc<tw_store::TraceArchive>) {
        *self.archive.lock() = Some(archive);
    }

    /// Flip `/readyz` to 200: pipeline built, checkpoint restored.
    pub fn set_ready(&self) {
        self.ready.store(true, Ordering::SeqCst);
    }

    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }
}

impl MetricsServer {
    /// Bind and start serving. Use `"127.0.0.1:0"` to pick a free port.
    /// `/healthz` answers 200 as soon as the accept loop runs, `/readyz`
    /// answers 503 until [`ServeHealth::set_ready`], and `/deadletters`
    /// serves the attached quarantine queue as JSON.
    pub fn bind(
        addr: &str,
        sources: Vec<Registry>,
        health: ServeHealth,
    ) -> std::io::Result<MetricsServer> {
        let server = http::Server::bind(addr, move |request| {
            serve_scrape(&request, &sources, &health)
        })?;
        Ok(MetricsServer { server })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop accepting, answer every connection made before the call, and
    /// join the accept thread (as drop does).
    pub fn shutdown(self) {}
}

/// Route one request: `GET /metrics` gets the rendered exposition,
/// `/healthz`/`/readyz` the liveness/readiness probes, `/deadletters`,
/// `/spans` and `/traces` their JSON documents, anything else a 404.
fn serve_scrape(request: &Request, sources: &[Registry], health: &ServeHealth) -> Response {
    let json = |doc: Result<String, serde_json::Error>| Response {
        status: "200 OK",
        content_type: "application/json; charset=utf-8",
        body: doc.unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}")),
    };
    let not_found = |what: &str| Response::text("404 Not Found", what);
    if request.method != "GET" {
        return not_found("not found\n");
    }
    match request.path.as_str() {
        "/metrics" => {
            let refs: Vec<&Registry> = sources.iter().collect();
            // When any histogram carries exemplars, serve the OpenMetrics
            // exposition (exemplar syntax is not valid in the v0.0.4 text
            // format); plain registries keep the classic content type so
            // pre-OpenMetrics scrapers are unaffected.
            if tw_telemetry::snapshot_has_exemplars(&Registry::merged_snapshot(&refs)) {
                Response {
                    status: "200 OK",
                    content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8",
                    body: Registry::render_multi_openmetrics(&refs),
                }
            } else {
                Response {
                    status: "200 OK",
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: Registry::render_multi(&refs),
                }
            }
        }
        "/spans" => match health.spans.lock().as_ref() {
            Some(recorder) => json(Ok(recorder.render_json())),
            None => not_found("no span recorder attached\n"),
        },
        "/traces" => match health.archive.lock().as_ref() {
            Some(archive) => json(serde_json::to_string(&tw_store::TracesDoc {
                traces: archive.query(&parse_trace_query(&request.query)),
            })),
            None => not_found("no trace archive attached\n"),
        },
        // Liveness: answering at all means the accept loop is alive.
        "/healthz" => Response::text("200 OK", "ok\n"),
        "/readyz" if health.is_ready() => Response::text("200 OK", "ready\n"),
        "/readyz" => Response::text("503 Service Unavailable", "starting\n"),
        "/deadletters" => match health.dead_letters.lock().as_ref() {
            Some(queue) => json(serde_json::to_string(&queue.snapshot())),
            None => not_found("no dead-letter queue attached\n"),
        },
        _ => not_found("not found\n"),
    }
}

/// Parse `/traces` query parameters into a [`tw_store::TraceQuery`], its
/// fields under their own names and units (times in ns).
/// Unknown keys and unparsable values are ignored (the filter stays
/// `None`/default) — a scrape URL typo widens the result instead of
/// erroring the endpoint.
fn parse_trace_query(raw: &str) -> tw_store::TraceQuery {
    let mut q = tw_store::TraceQuery::default();
    for pair in raw.split('&') {
        let Some((key, value)) = pair.split_once('=') else {
            continue;
        };
        match key {
            "window" => q.window = value.parse().ok(),
            "service" => q.service = value.parse().ok(),
            "op" => q.op = value.parse().ok(),
            "min_latency_ns" => q.min_latency_ns = value.parse().ok(),
            "from_ns" => q.from_ns = value.parse().ok(),
            "to_ns" => q.to_ns = value.parse().ok(),
            "limit" => q.limit = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    q
}

/// `GET` one path from a [`MetricsServer`] — `/metrics`, `/deadletters`,
/// `/spans` — and return the body. Errors on connect failure or a non-200
/// status (a 404 when nothing serving that path is attached).
pub fn fetch(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let (status, body) = http::get(addr, path, Duration::from_secs(5))?;
    if status != 200 {
        return Err(std::io::Error::other(format!(
            "GET {path} failed: {status}"
        )));
    }
    Ok(body)
}

/// Query a [`MetricsServer`]'s `/traces` endpoint and return the parsed
/// stored traces: the answer [`tw_store::read_query`] gives on the
/// archive's directory, to the nanosecond. Errors if no archive is
/// attached (404) or the body is not a valid [`tw_store::TracesDoc`].
pub fn fetch_traces(
    addr: SocketAddr,
    query: &tw_store::TraceQuery,
) -> std::io::Result<Vec<tw_store::StoredTrace>> {
    let fields = [
        ("window", query.window),
        ("service", query.service.map(u64::from)),
        ("op", query.op.map(u64::from)),
        ("min_latency_ns", query.min_latency_ns),
        ("from_ns", query.from_ns),
        ("to_ns", query.to_ns),
        ("limit", Some(query.limit as u64).filter(|&limit| limit > 0)),
    ];
    let params: Vec<String> = fields
        .iter()
        .filter_map(|(key, value)| value.map(|v| format!("{key}={v}")))
        .collect();
    let path = format!("/traces?{}", params.join("&"));
    let body = fetch(addr, &path)?;
    let doc: tw_store::TracesDoc = serde_json::from_str(&body)?;
    Ok(doc.traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::span::EXTERNAL;
    use tw_model::time::Nanos;

    /// A server's `tw_ingest_*` counts, read from its registry.
    #[derive(Debug)]
    struct Counts {
        connections: u64,
        connections_dropped: u64,
        decode_errors: u64,
        bytes_discarded: u64,
    }

    fn counts(registry: &Registry) -> Counts {
        let get = |name| registry.counter(name, "").get();
        Counts {
            connections: get("tw_ingest_connections_total"),
            connections_dropped: get("tw_ingest_connections_dropped_total"),
            decode_errors: get("tw_ingest_decode_errors_total"),
            bytes_discarded: get("tw_ingest_bytes_discarded_total"),
        }
    }

    fn rec(rpc: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(1), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos(rpc * 1_000),
            recv_req: Nanos(rpc * 1_000 + 10),
            send_resp: Nanos(rpc * 1_000 + 500),
            recv_resp: Nanos(rpc * 1_000 + 510),
            caller_thread: Some(1),
            callee_thread: Some(2),
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let (base, max) = (Duration::from_millis(20), Duration::from_secs(1));
        assert_eq!(backoff(base, max, 1, 9200), backoff(base, max, 1, 9200));
        for n in 1..=40 {
            // nominal <= max, jitter adds at most 25%.
            assert!(backoff(base, max, n, 9200) <= max.mul_f64(1.25));
        }
    }

    #[test]
    fn single_client_round_trip() {
        let (tx, rx) = unbounded();
        let server = IngestServer::bind("127.0.0.1:0", tx, &Registry::new()).unwrap();
        let records: Vec<RpcRecord> = (0..100).map(rec).collect();
        export_records(server.local_addr(), &records).unwrap();

        let mut received = Vec::new();
        for _ in 0..records.len() {
            received.push(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        assert_eq!(received, records);
        server.shutdown();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let (tx, rx) = unbounded();
        let server = IngestServer::bind("127.0.0.1:0", tx, &Registry::new()).unwrap();
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|k| {
                std::thread::spawn(move || {
                    let batch: Vec<RpcRecord> = (0..50).map(|i| rec(k * 1_000 + i)).collect();
                    export_records(addr, &batch).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..200 {
            got.push(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        // All records arrive exactly once (order across clients is free).
        let mut ids: Vec<u64> = got.iter().map(|r| r.rpc.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
        server.shutdown();
    }

    /// Every connection made before `shutdown()` is served to EOF: the
    /// batches are written (not necessarily accepted) when it is called,
    /// and all of their records are in the sink when it returns.
    #[test]
    fn connections_made_before_shutdown_are_served_to_eof() {
        let (tx, rx) = unbounded();
        let server = IngestServer::bind("127.0.0.1:0", tx, &Registry::new()).unwrap();
        let addr = server.local_addr();
        for k in 0..8u64 {
            let batch: Vec<RpcRecord> = (0..50).map(|i| rec(k * 1_000 + i)).collect();
            export_records(addr, &batch).unwrap();
        }
        server.shutdown();
        let mut ids: Vec<u64> = rx.try_iter().map(|r| r.rpc.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn garbage_stream_dropped_after_consecutive_errors() {
        let (tx, rx) = unbounded();
        let registry = Registry::new();
        let server = IngestServer::bind("127.0.0.1:0", tx, &registry).unwrap();
        let addr = server.local_addr();
        // Pure-garbage connection: every window of 0xFF… decodes as an
        // absurd frame length, so resync never finds a boundary and the
        // consecutive-error limit fires.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0xFF; 64]).unwrap();
        }
        // A healthy connection still works afterwards.
        let records: Vec<RpcRecord> = (0..10).map(rec).collect();
        export_records(addr, &records).unwrap();
        let mut received = Vec::new();
        for _ in 0..records.len() {
            received.push(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        assert_eq!(received, records);
        // The garbage stream shows up in the counters (its thread runs
        // concurrently, so poll briefly).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let stats = loop {
            let s = counts(&registry);
            if s.connections_dropped >= 1 || std::time::Instant::now() >= deadline {
                break s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(stats.connections_dropped, 1, "garbage stream dropped");
        assert_eq!(
            stats.decode_errors, MAX_CONSECUTIVE_DECODE_ERRORS as u64,
            "errors counted up to the drop limit"
        );
        // 31 single-byte resyncs + everything still buffered at drop
        // time; with all 64 bytes buffered that totals the whole stream.
        assert!(
            (MAX_CONSECUTIVE_DECODE_ERRORS as u64..=64).contains(&stats.bytes_discarded),
            "bytes_discarded = {}",
            stats.bytes_discarded
        );
        assert!(stats.connections >= 2, "garbage + healthy connections");
        server.shutdown();
    }

    #[test]
    fn single_corrupt_frame_resyncs_without_dropping_connection() {
        let (tx, rx) = unbounded();
        let registry = Registry::new();
        let server = IngestServer::bind("127.0.0.1:0", tx, &registry).unwrap();
        let addr = server.local_addr();
        // One frame with a bad version byte, then healthy frames, all on
        // the SAME connection: the decoder consumes the bad frame, the
        // error is counted, and the stream keeps flowing.
        let records: Vec<RpcRecord> = (0..10).map(rec).collect();
        let mut payload = encode_records(&[rec(999)]).to_vec();
        payload[4] = 77; // corrupt the version byte
        payload.extend_from_slice(&encode_records(&records));
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&payload).unwrap();
        }
        let mut received = Vec::new();
        for _ in 0..records.len() {
            received.push(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        assert_eq!(received, records, "frames after the corrupt one survive");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let stats = loop {
            let s = counts(&registry);
            if s.decode_errors >= 1 || std::time::Instant::now() >= deadline {
                break s;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.connections_dropped, 0, "connection survived");
        assert!(stats.bytes_discarded >= 4, "bad frame counted as discarded");
        server.shutdown();
    }

    #[test]
    fn healthy_streams_leave_error_counters_at_zero() {
        let (tx, rx) = unbounded();
        let registry = Registry::new();
        let server = IngestServer::bind("127.0.0.1:0", tx, &registry).unwrap();
        let records: Vec<RpcRecord> = (0..20).map(rec).collect();
        export_records(server.local_addr(), &records).unwrap();
        for _ in 0..records.len() {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        let stats = counts(&registry);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.bytes_discarded, 0);
        server.shutdown();
    }

    #[test]
    fn serve_online_wires_tcp_into_windows() {
        use tw_core::Params;
        use tw_model::time::Nanos as N;
        let app = tw_sim::apps::two_service_chain(54);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = tw_sim::Simulator::new(app.config).unwrap();
        let out = sim.run(&tw_sim::Workload::poisson(root, 200.0, N::from_millis(400)));

        let tw = TraceWeaver::new(call_graph, Params::default());
        let (server, engine) = serve_online(
            "127.0.0.1:0",
            tw,
            crate::online::OnlineConfig {
                window: N::from_millis(100),
                grace: N::from_millis(50),
                channel_capacity: 4_096,
                warm_start: true,
                ..crate::online::OnlineConfig::default()
            },
        )
        .unwrap();
        export_records(server.local_addr(), &out.records).unwrap();
        // Server first: its connections must drain into the engine
        // before ingestion closes.
        server.shutdown();
        let windows = engine.shutdown();
        let total: usize = windows.iter().map(|w| w.records.len()).sum();
        assert_eq!(total, out.records.len());
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index, "windows must emit in order");
        }
    }

    #[test]
    fn shutdown_is_clean_and_idempotent_on_drop() {
        let (tx, _rx) = unbounded();
        let server = IngestServer::bind("127.0.0.1:0", tx, &Registry::new()).unwrap();
        server.shutdown();
        // Dropping another server without explicit shutdown is also fine.
        let (tx2, _rx2) = unbounded();
        let _server2 = IngestServer::bind("127.0.0.1:0", tx2, &Registry::new()).unwrap();
    }
}
