//! Push-based telemetry export: periodic snapshot diffing + batched POST
//! of Prometheus exposition and JSON span trees to a configurable sink.
//!
//! The scrape model (`GET /metrics`) assumes the collector can reach us;
//! the push exporter covers the inverse deployment: a background thread
//! renders the merged exposition (OpenMetrics, so exemplars survive) plus
//! the recent span trees, skips the POST when nothing changed since the
//! last successful push, and otherwise delivers one batch with bounded
//! retries and the deterministic [`http::backoff`] jitter `tw-pipeline`'s
//! record-export retry also uses, so failure schedules are reproducible
//! in tests and CI.

use crate::http::{self, Response};
use crate::trace::{escape_json, SpanRecorder};
use crate::{Counter, Registry};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Push-exporter knobs, surfaced as `--push-url` / `--push-interval-ms`.
#[derive(Clone, Debug)]
pub struct PushConfig {
    /// Sink endpoint: `host:port`, `host:port/path`, or with an `http://`
    /// prefix. Path defaults to `/push`.
    pub url: String,
    /// Interval between snapshot attempts.
    pub interval: Duration,
    /// Delivery attempts per batch before counting a failure.
    pub attempts: u32,
    pub backoff_base: Duration,
    pub backoff_max: Duration,
}

impl PushConfig {
    pub fn new(url: impl Into<String>) -> Self {
        PushConfig {
            url: url.into(),
            interval: Duration::from_millis(1000),
            attempts: 5,
            backoff_base: Duration::from_millis(20),
            backoff_max: Duration::from_secs(1),
        }
    }

    /// Split the url into (`host:port`, `path`).
    fn endpoint(&self) -> (String, String) {
        let rest = self
            .url
            .strip_prefix("http://")
            .unwrap_or(self.url.as_str());
        match rest.find('/') {
            Some(i) => (rest[..i].to_string(), rest[i..].to_string()),
            None => (rest.to_string(), "/push".to_string()),
        }
    }
}

/// Client timeout for one POST to the sink (connect, read, write).
const POST_TIMEOUT: Duration = Duration::from_secs(2);
/// Largest batch body a [`PushSink`] accepts; larger ones get `413`.
const MAX_BATCH_BYTES: usize = 16 * 1024 * 1024;

struct PushMetrics {
    batches: Counter,
    retries: Counter,
    failures: Counter,
    skipped: Counter,
}

impl PushMetrics {
    fn new(registry: &Registry) -> Self {
        PushMetrics {
            batches: registry.counter(
                "tw_export_push_batches_total",
                "Telemetry batches successfully POSTed to the push sink.",
            ),
            retries: registry.counter(
                "tw_export_push_retries_total",
                "Push delivery attempts retried after a transient failure.",
            ),
            failures: registry.counter(
                "tw_export_push_failures_total",
                "Telemetry batches dropped after exhausting delivery attempts.",
            ),
            skipped: registry.counter(
                "tw_export_push_skipped_total",
                "Push cycles skipped because the snapshot was unchanged.",
            ),
        }
    }
}

/// Background push exporter. Spawned once next to the online engine;
/// [`PushExporter::stop_and_flush`] performs a final unconditional push so
/// the sink sees the terminal counter values.
pub struct PushExporter {
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl PushExporter {
    /// Spawn the exporter. `sources` are merged into one exposition
    /// document (deduplicated by identity, like `render_multi`);
    /// `recorder`, when present, contributes span trees to each batch.
    /// `tw_export_push_*` counters register on `registry`.
    pub fn spawn(
        cfg: PushConfig,
        sources: Vec<Registry>,
        recorder: Option<SpanRecorder>,
        registry: &Registry,
    ) -> PushExporter {
        let metrics = PushMetrics::new(registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = thread::Builder::new()
            .name("tw-push".to_string())
            .spawn(move || {
                let mut last_pushed: Option<String> = None;
                loop {
                    let stopping = stop2.load(Ordering::Acquire);
                    if !stopping {
                        thread::park_timeout(cfg.interval);
                    }
                    let stopping = stopping || stop2.load(Ordering::Acquire);
                    push_once(
                        &cfg,
                        &sources,
                        recorder.as_ref(),
                        &metrics,
                        &mut last_pushed,
                        stopping,
                    );
                    if stopping {
                        return;
                    }
                }
            })
            .expect("spawn tw-push thread");
        PushExporter {
            stop,
            thread: Some(thread),
        }
    }

    /// Signal shutdown, deliver one final unconditional batch, and join.
    pub fn stop_and_flush(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for PushExporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Render one batch body (`{"metrics": "<exposition>", "spans": {...}}`)
/// plus its diff key: the raw exposition with the exporter's own
/// `tw_export_push_*` sample lines removed (so a successful push, which
/// increments `batches`, does not make every subsequent snapshot look
/// new), concatenated with the span document.
fn render_batch(sources: &[Registry], recorder: Option<&SpanRecorder>) -> (String, String) {
    let refs: Vec<&Registry> = sources.iter().collect();
    let exposition = Registry::render_multi_openmetrics(&refs);
    let spans = recorder
        .map(|r| r.render_json())
        .unwrap_or_else(|| "null".to_string());
    let key = format!("{}\x00{}", diff_key(&exposition), spans);
    let body = format!(
        "{{\"metrics\":\"{}\",\"spans\":{}}}",
        escape_json(&exposition),
        spans
    );
    (body, key)
}

/// Strip the exporter's own counters from the exposition for diffing.
fn diff_key(exposition: &str) -> String {
    exposition
        .lines()
        .filter(|l| !l.contains("tw_export_push_"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn push_once(
    cfg: &PushConfig,
    sources: &[Registry],
    recorder: Option<&SpanRecorder>,
    metrics: &PushMetrics,
    last_pushed: &mut Option<String>,
    force: bool,
) {
    let (body, key) = render_batch(sources, recorder);
    if !force && last_pushed.as_deref() == Some(key.as_str()) {
        metrics.skipped.inc();
        return;
    }
    let (host, path) = cfg.endpoint();
    let port = host
        .rsplit(':')
        .next()
        .and_then(|p| p.parse::<u16>().ok())
        .unwrap_or(0);
    for attempt in 1..=cfg.attempts.max(1) {
        match post(&host, &path, &body) {
            Ok(()) => {
                metrics.batches.inc();
                *last_pushed = Some(key);
                return;
            }
            Err(_) if attempt < cfg.attempts.max(1) => {
                metrics.retries.inc();
                thread::sleep(http::backoff(
                    cfg.backoff_base,
                    cfg.backoff_max,
                    attempt,
                    port,
                ));
            }
            Err(_) => {
                metrics.failures.inc();
            }
        }
    }
}

/// One POST; success is any 2xx status.
fn post(host: &str, path: &str, body: &str) -> std::io::Result<()> {
    let addr = host
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unresolvable sink"))?;
    let (status, _) = http::request(addr, "POST", path, body, POST_TIMEOUT)?;
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "push sink returned non-2xx",
        ))
    }
}

/// Minimal loopback sink for tests, the bench, and the CI smoke job:
/// accepts POSTed batches, counts them, and retains the latest body.
pub struct PushSink {
    server: http::Server,
    batches: Arc<AtomicU64>,
    last: Arc<Mutex<String>>,
}

impl PushSink {
    /// Bind on `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> std::io::Result<PushSink> {
        let batches = Arc::new(AtomicU64::new(0));
        let last = Arc::new(Mutex::new(String::new()));
        let (b2, l2) = (batches.clone(), last.clone());
        let server = http::Server::bind(addr, MAX_BATCH_BYTES, move |request| {
            if request.method != "POST" {
                return Response::text("405 Method Not Allowed", "");
            }
            *l2.lock().expect("sink body lock poisoned") = request.body;
            b2.fetch_add(1, Ordering::Release);
            Response::text("200 OK", "")
        })?;
        Ok(PushSink {
            server,
            batches,
            last,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Number of batches accepted so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Acquire)
    }

    /// Latest accepted batch body.
    pub fn last_body(&self) -> String {
        self.last.lock().expect("sink body lock poisoned").clone()
    }

    /// Stop accepting and join the listener thread (as drop does).
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        let cfg = PushConfig::new("http://127.0.0.1:9200/ingest");
        assert_eq!(
            cfg.endpoint(),
            ("127.0.0.1:9200".to_string(), "/ingest".to_string())
        );
        let bare = PushConfig::new("127.0.0.1:9200");
        assert_eq!(
            bare.endpoint(),
            ("127.0.0.1:9200".to_string(), "/push".to_string())
        );
    }

    #[test]
    fn diff_key_ignores_own_counters() {
        let a = "tw_x_total 1\ntw_export_push_batches_total 1\n";
        let b = "tw_x_total 1\ntw_export_push_batches_total 2\n";
        assert_eq!(diff_key(a), diff_key(b));
    }
}
