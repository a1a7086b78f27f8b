//! The live path: `serve` runs the staged online pipeline behind a TCP
//! listener, and `replay` streams a span file into it.

use super::{flag, num, opt_num, params_from, read_json, spans_flag, Flags};
use std::path::Path;
use traceweaver::prelude::*;

/// The live pipeline `serve` runs: one registry behind the scrape
/// endpoint, the self-trace recorder, TCP ingest into the online engine,
/// and a consumer that takes every window result off the engine's results
/// queue as it is emitted.
struct LivePipeline {
    scrape: Option<traceweaver::pipeline::MetricsServer>,
    recorder: Option<traceweaver::telemetry::trace::SpanRecorder>,
    server: traceweaver::pipeline::IngestServer,
    engine: OnlineEngine,
    /// Returns `(windows, mapped spans)` consumed once the queue closes.
    consumer: std::thread::JoinHandle<(usize, usize)>,
}

fn mapped_spans(window: &traceweaver::pipeline::WindowResult) -> usize {
    window.reconstruction.summary().mapped_spans
}

impl LivePipeline {
    /// Build the pipeline from the flags. `/healthz` answers as soon as
    /// the endpoint binds; `/readyz` stays 503 until the graph is up and
    /// any checkpoint restore has finished.
    fn start(flags: &Flags, tw: TraceWeaver) -> Result<Self, String> {
        use traceweaver::pipeline::net::{serve_online, MetricsServer, ServeHealth};
        use traceweaver::telemetry::trace::{SpanRecorder, TraceConfig};

        let listen = flags.get("listen").map_or("127.0.0.1:0", String::as_str);
        let registry = traceweaver::telemetry::Registry::new();
        let mut config = online_config_from(flags, registry.clone())?;
        let health = ServeHealth::new();
        let scrape = match flags.get("metrics") {
            Some(addr) => Some(
                MetricsServer::bind(
                    addr,
                    vec![registry.clone(), traceweaver::telemetry::global().clone()],
                    health.clone(),
                )
                .map_err(|e| format!("metrics endpoint {addr}: {e}"))?,
            ),
            None => None,
        };
        // Self-tracing head-samples every `--trace-sample`th window (0 is
        // off) into the default sealed-tree ring.
        let sample = num(flags, "trace-sample", 1u64)?;
        let trace = TraceConfig {
            sample,
            ..TraceConfig::default()
        };
        let recorder = (sample > 0).then(|| SpanRecorder::new(trace, &registry));
        config.trace = recorder.clone();
        if let Some(rec) = &recorder {
            health.attach_spans(rec.clone());
        }
        let (server, engine) = serve_online(listen, tw, config).map_err(|e| e.to_string())?;
        health.attach_dead_letters(engine.dead_letters().clone());
        if let Some(archive) = engine.archive() {
            health.attach_archive(archive.clone());
        }
        health.set_ready();

        // Nothing downstream of this process takes window results: tally
        // each one and drop it, so the results queue never fills (a full
        // one blocks the shard, and through it the whole graph back to
        // the ingest socket) and no window outlives its own summary.
        let results = engine.results().clone();
        let consumer = std::thread::spawn(move || {
            results.iter().fold((0, 0), |(windows, mapped), w| {
                (windows + 1, mapped + mapped_spans(&w))
            })
        });
        Ok(LivePipeline {
            scrape,
            recorder,
            server,
            engine,
            consumer,
        })
    }

    /// Drain in pipeline order so every stage's counters are final — the
    /// server first (its connections drain into the engine), then the
    /// engine's single ordered shutdown cascade — and print the run's
    /// summary under `label`. The scrape endpoint is handed back still
    /// serving.
    fn finish(self, label: &str) -> Result<Option<traceweaver::pipeline::MetricsServer>, String> {
        self.server.shutdown();
        let dead_letters = self.engine.dead_letters().clone();
        let (rest, stats) = self.engine.shutdown_with_stats();
        // The results queue closed with the last stage, so the consumer
        // has returned; what it did not get to, the drain returned.
        let (windows, mapped) = self.consumer.join().map_err(|_| "results consumer died")?;
        let windows = windows + rest.len();
        let mapped = mapped + rest.iter().map(mapped_spans).sum::<usize>();
        if !dead_letters.is_empty() {
            println!("dead letters: {} quarantined record(s)", dead_letters.len());
            for letter in dead_letters.snapshot() {
                println!(
                    "  [{}] stage {} item #{}: {}",
                    letter.reason, letter.stage, letter.item_seq, letter.message
                );
            }
        }
        let stats = stats.ok_or("sanitize stage missing from pipeline")?;
        println!(
            "{label}: {} records in, {} passed sanitization, {windows} windows, {mapped} spans mapped",
            stats.received, stats.passed
        );
        Ok(self.scrape)
    }
}

/// Export recorded spans to a running `twctl serve` ingest listener over
/// the capture wire protocol, as a capture agent does (`twctl help`).
pub(crate) fn cmd_replay(flags: &Flags) -> Result<(), String> {
    use traceweaver::pipeline::{export_records, export_records_with};

    let mut records = spans_flag(flags)?;
    let to = flag(flags, "to")?;
    let addr: std::net::SocketAddr = to.parse().map_err(|e| format!("--to {to}: {e}"))?;
    let batch: usize = num(flags, "batch", 500usize)?.max(1);
    let pace_ms: u64 = num(flags, "pace-ms", 0u64)?;
    let retries: Option<u32> = opt_num(flags, "retries")?;

    records.sort_by_key(|r| r.send_req);
    let batches = records.len().div_ceil(batch);
    for chunk in records.chunks(batch) {
        match retries {
            Some(attempts) => export_records_with(addr, chunk, attempts),
            None => export_records(addr, chunk),
        }
        .map_err(|e| format!("{to}: {e}"))?;
        if pace_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(pace_ms));
        }
    }
    println!(
        "replayed {} spans to {to} in {batches} batch(es)",
        records.len()
    );
    Ok(())
}

/// Run the staged online pipeline as a standalone server (`twctl help`).
pub(crate) fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let duration_ms: u64 = num(flags, "duration-ms", 0u64)?;
    let tw = TraceWeaver::new(graph, params_from(flags));
    let live = LivePipeline::start(flags, tw)?;

    println!("ingest listening on {}", live.server.local_addr());
    if let Some(archive) = live.engine.archive() {
        println!("trace archive at {}", archive.dir().display());
    }
    if let Some(scrape) = &live.scrape {
        println!("metrics at http://{}/metrics", scrape.local_addr());
        if live.recorder.is_some() {
            println!("span trees at http://{}/spans", scrape.local_addr());
        }
        if live.engine.archive().is_some() {
            println!("traces at http://{}/traces", scrape.local_addr());
        }
    }
    println!("stages: {}", live.engine.stage_names().join(" → "));

    if duration_ms == 0 {
        println!("serving until killed (pass --duration-ms to bound the run)");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(duration_ms));

    if let Some(scrape) = live.finish(&format!("served {duration_ms}ms"))? {
        // The final exposition, once every stage has drained.
        if let Some(out) = flags.get("metrics-out") {
            let text = traceweaver::pipeline::fetch(scrape.local_addr(), "/metrics")
                .map_err(|e| e.to_string())?;
            traceweaver::store::frame::atomic_write(Path::new(out), text.as_bytes())
                .map_err(|e| format!("{out}: {e}"))?;
            println!("wrote {out}");
        }
        scrape.shutdown();
    }
    Ok(())
}

/// A directory flag's value, rejected when it names an existing
/// non-directory: unchecked, the stage using it would fail only once
/// serving (the archive fails to open, no checkpoint write succeeds).
/// A missing directory is fine — its stage creates it.
fn dir_flag<'a>(flags: &'a Flags, name: &str) -> Result<Option<&'a String>, String> {
    match flags.get(name) {
        Some(dir) if Path::new(dir).exists() && !Path::new(dir).is_dir() => {
            Err(format!("--{name} {dir}: not a directory"))
        }
        value => Ok(value),
    }
}

/// Build an [`OnlineConfig`] from `--window-ms`, `--grace-ms`,
/// `--capacity` and the rest of the pipeline flags, with the sanitizer's
/// defaults. `serve` is its one caller, so new pipeline flags land in
/// exactly one place.
fn online_config_from(
    flags: &Flags,
    telemetry: traceweaver::telemetry::Registry,
) -> Result<OnlineConfig, String> {
    let defaults = OnlineConfig::default();
    let grace = opt_num(flags, "grace-ms")?.map_or(defaults.grace, Nanos::from_millis);
    let checkpoint = match dir_flag(flags, "checkpoint-dir")? {
        Some(dir) => {
            let mut cfg = traceweaver::pipeline::CheckpointConfig::new(dir);
            cfg.interval =
                std::time::Duration::from_millis(num(flags, "checkpoint-interval-ms", 1_000u64)?);
            Some(cfg)
        }
        None if flags.contains_key("checkpoint-interval-ms") => {
            return Err("--checkpoint-interval-ms requires --checkpoint-dir".to_string());
        }
        None => None,
    };
    let archive = match dir_flag(flags, "archive-dir")? {
        Some(dir) => {
            let mut cfg = traceweaver::store::ArchiveConfig::new(dir);
            cfg.segment_bytes = num(flags, "archive-segment-bytes", cfg.segment_bytes)?;
            cfg.retention_bytes = num(flags, "archive-retention", cfg.retention_bytes)?;
            Some(cfg)
        }
        None => {
            for dependent in ["archive-segment-bytes", "archive-retention"] {
                if flags.contains_key(dependent) {
                    return Err(format!("--{dependent} requires --archive-dir"));
                }
            }
            None
        }
    };
    let shed = traceweaver::pipeline::ShedPolicy {
        adaptive: flags.contains_key("adaptive-shed"),
        ..defaults.shed
    };
    Ok(OnlineConfig {
        window: Nanos::from_millis(num(flags, "window-ms", 500u64)?),
        grace,
        // Each window starts from the delay registry the previous one
        // published, which is also what the benchmark measures.
        warm_start: true,
        channel_capacity: num(flags, "capacity", defaults.channel_capacity)?,
        sanitize: Some(Default::default()),
        checkpoint,
        archive,
        shed,
        telemetry,
        ..defaults
    })
}
