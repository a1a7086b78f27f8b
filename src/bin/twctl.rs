//! `twctl` — command-line front end for the TraceWeaver toolkit.
//!
//! ```text
//! twctl simulate    --app hotel --rps 300 --millis 2000 --seed 7 --out-dir run/
//! twctl learn-graph --app hotel --seed 7 --replays 12 --out run/graph.json
//! twctl reconstruct --spans run/spans.jsonl --graph run/graph.json --jaeger run/traces.json
//! twctl evaluate    --spans run/spans.jsonl --graph run/graph.json --truth run/truth.json
//! ```
//!
//! `simulate` writes three artifacts into `--out-dir`: `spans.jsonl`
//! (observable records, one JSON per line), `graph.json` (the app's call
//! graph + dependency order), and `truth.json` (ground truth — for
//! evaluation only). `reconstruct` needs only the first two, exactly like
//! a production deployment.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use traceweaver::capture::{generate_test_traces, infer_call_graph};
use traceweaver::model::export::to_jaeger;
use traceweaver::model::span::EXTERNAL;
use traceweaver::model::RpcRecord;
use traceweaver::prelude::*;
use traceweaver::sim::apps::{
    hotel_reservation, media_microservices, nodejs_app, two_service_chain, BenchApp,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    // Flags are checked against the command's table before its handler
    // runs, so a mistyped flag never binds a socket or writes a file.
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => parse_flags(cmd, &args[1..]).and_then(|flags| (cmd.run)(&flags)),
        None => Err(format!("unknown command `{name}` (see `twctl help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One `twctl` subcommand: its handler and every flag it accepts, as
/// space-separated lists so commands sharing a flag block share one list.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    /// Flags that take a value (`--name VALUE`).
    values: &'static [&'static str],
    /// Boolean flags (`--name`).
    switches: &'static [&'static str],
}

/// The live-pipeline block of `serve`: what `online_config_from` and
/// `trace_recorder_from` read.
const PIPELINE_VALUES: &str = "window-ms grace-ms capacity \
    checkpoint-dir checkpoint-interval-ms archive-dir archive-segment-bytes archive-retention \
    trace-sample span-ring";
const PIPELINE_SWITCHES: &str = "adaptive-shed no-drift";
/// What `maybe_sanitize` reads.
const SANITIZE_SWITCHES: &str = "sanitize no-drift";

const COMMANDS: &[Command] = &[
    Command {
        name: "simulate",
        run: cmd_simulate,
        values: &["app rps millis seed out-dir"],
        switches: &[],
    },
    Command {
        name: "learn-graph",
        run: cmd_learn_graph,
        values: &["app seed replays out"],
        switches: &[],
    },
    Command {
        name: "learn-delays",
        run: cmd_learn_delays,
        values: &["spans graph window-ms out"],
        switches: &["dynamism"],
    },
    Command {
        name: "reconstruct",
        run: cmd_reconstruct,
        values: &["spans graph delay-model jaeger"],
        switches: &["dynamism", SANITIZE_SWITCHES],
    },
    Command {
        name: "evaluate",
        run: cmd_evaluate,
        values: &["spans graph truth delay-model"],
        switches: &["dynamism", SANITIZE_SWITCHES],
    },
    Command {
        name: "waterfall",
        run: cmd_waterfall,
        values: &["spans graph trace width"],
        switches: &["dynamism"],
    },
    Command {
        name: "serve",
        run: cmd_serve,
        values: &[
            "graph listen metrics duration-ms metrics-out",
            PIPELINE_VALUES,
        ],
        switches: &["dynamism", PIPELINE_SWITCHES],
    },
    Command {
        name: "replay",
        run: cmd_replay,
        values: &["spans to batch pace-ms retries"],
        switches: &[],
    },
    Command {
        name: "metrics",
        run: cmd_metrics,
        values: &["addr"],
        switches: &[],
    },
    Command {
        name: "top",
        run: cmd_top,
        values: &["addr interval-ms iterations limit"],
        switches: &[],
    },
    Command {
        name: "deadletters",
        run: cmd_deadletters,
        values: &["addr to"],
        switches: &["resubmit"],
    },
    Command {
        name: "query",
        run: cmd_query,
        values: &["dir addr service op window min-latency-ms from-ms to-ms limit"],
        switches: &["json"],
    },
    Command {
        name: "help",
        run: cmd_help,
        values: &[],
        switches: &[],
    },
];

const USAGE: &str = "\
twctl — non-intrusive request tracing toolkit

USAGE:
  twctl simulate     --app <hotel|media|nodejs|chain> [--rps N] [--millis N] [--seed N] --out-dir DIR
  twctl learn-graph  --app <hotel|media|nodejs|chain> [--seed N] [--replays N] --out FILE
  twctl learn-delays --spans FILE --graph FILE [--window-ms N] [--dynamism] --out FILE
  twctl reconstruct  --spans FILE --graph FILE [--delay-model FILE] [--dynamism] [--jaeger FILE]
                     [--sanitize] [--no-drift]
  twctl evaluate     --spans FILE --graph FILE --truth FILE [--delay-model FILE] [--dynamism]
                     [--sanitize] [--no-drift]
  twctl waterfall    --spans FILE --graph FILE [--trace N] [--width N] [--dynamism]
  twctl serve        --graph FILE [--listen ADDR] [--metrics ADDR] [--duration-ms N]
                     [--metrics-out FILE] [--dynamism] [pipeline flags]
  twctl replay       --spans FILE --to HOST:PORT [--batch N] [--pace-ms N] [--retries N]
  twctl metrics      --addr HOST:PORT
  twctl top          --addr HOST:PORT [--interval-ms N] [--iterations N] [--limit N]
  twctl deadletters  --addr HOST:PORT [--resubmit --to HOST:PORT]
  twctl query        (--dir DIR | --addr HOST:PORT) [--service N] [--op N] [--window N]
                     [--min-latency-ms N] [--from-ms N] [--to-ms N] [--limit N] [--json]
  twctl help

  pipeline flags:    [--window-ms N] [--grace-ms N] [--capacity N]
                     [--adaptive-shed] [--no-drift]
                     [--checkpoint-dir DIR] [--checkpoint-interval-ms N]
                     [--archive-dir DIR] [--archive-segment-bytes N] [--archive-retention BYTES]
                     [--trace-sample N] [--span-ring N]

A flag the command does not list, or a value flag without a value, is an
error before any work starts.

`learn-delays` replays recorded spans through warm-started windows and
writes the learned per-process delay registry as JSON; pass it back via
--delay-model to warm-start later reconstructions (skips the seed
bootstrap, fewer EM passes).

`metrics` fetches and prints a running pipeline's exposition once; `top`
polls it and shows, on fixed lines, each service's clock skew and drift,
where window time goes by stage and by reconstruction phase, the share
of spans mapped and the engine's degradation, then the busiest series
with per-second rates.

`serve` runs the staged online pipeline as a standalone server: TCP
ingest at --listen (default 127.0.0.1:0), sanitize, windowing,
reconstruction, with the Prometheus exposition at --metrics. It drains
and prints a summary after --duration-ms (--metrics-out then writes the
final exposition to a file), or serves until killed when the flag is
absent. The engine always runs warm: every window starts from the delay
registry the previous one learned. --capacity bounds
every inter-stage queue; a full queue makes its producer wait, back to
the ingest socket, so no queue drops a record.
--adaptive-shed turns on load shedding: the degradation ladder moves one
rung at a time on the queue-depth slope (EWMA, with hysteresis), and
every record of a skipped window is counted. Without it no window is
ever shed.
--checkpoint-dir enables crash-safe recovery: the window shard saves
its sealed watermark, the sanitizer's skew state and the delay registry
to DIR at the first seal after each --checkpoint-interval-ms (default
1000) and at the drain (with --archive-dir, once the archive holds
those windows); the next start restores them, drops replayed records
routed below that watermark, and reports both in
tw_pipeline_recovery_* metrics. The metrics endpoint also serves
/healthz (liveness), /readyz (503 until the restore finishes), and
/deadletters (records quarantined by the stage supervisor as JSON).
--archive-dir adds a durable trace archive behind the window shard: every
sealed window's reconstructed traces are appended to CRC-framed
segment files (sealed at --archive-segment-bytes, default 1 MiB) under
an atomically-committed manifest; each commit then merges small
segments and enforces --archive-retention, a cap on the archive's total
bytes (evicting oldest-first but salvaging high-latency/degraded traces
into a tail segment). The checkpoint never runs ahead of the archive, so
a crash + restart neither re-archives nor loses sealed windows; progress
is visible in the tw_store_* metrics and the metrics endpoint gains
GET /traces.

`query` reads archived traces back — read-only from an archive
directory (--dir, works offline or against a live server's dir) or
over HTTP from a serving pipeline's /traces endpoint (--addr); both
give the same answer. All filters are conjunctive: --service/--op match callee endpoints,
--window resolves an exemplar window_id, --min-latency-ms keeps slow
traces, --from-ms/--to-ms bound the stream-time range, --limit caps
results (default 100). --json prints the raw TracesDoc instead of the
one-line-per-trace summary.

`replay` exports recorded spans (e.g. from `simulate --out-dir`) to a
running `serve` ingest listener over the capture wire protocol, in
--batch-sized connections --pace-ms apart, with up to --retries
connect attempts per batch under exponential backoff — a paced replay
rides over a server crash + restart instead of dying on the first
refused connection.

`--sanitize` runs recorded spans through the online sanitizer (dedup,
causality, skew correction) before reconstructing. Skew correction
tracks per-edge clock *drift* (offset + slope) by default; --no-drift
falls back to the constant-offset estimator. The same flag applies to
the live pipeline behind `serve`.

Self-tracing: the live pipeline records one span tree per window
(sanitize → route → collect → reconstruct → result hand-off → absorb,
plus supervisor restarts and checkpoint writes as events).
--trace-sample N head-samples every Nth window (default 1 = all, 0 =
off), --span-ring bounds the sealed-tree ring. Trees are served at GET
/spans next to /metrics, and slow-window latency histogram buckets carry
OpenMetrics exemplars whose window_id/span_id labels resolve there (the
exposition switches to the OpenMetrics content type when exemplars are
present).

`deadletters` fetches a serving pipeline's /deadletters quarantine and
pretty-prints each record with its failure reason, stage, and window
(the window links to its span tree on /spans); --resubmit --to replays
the captured payloads back into an ingest listener over the capture
wire protocol.";

type Flags = HashMap<String, String>;

fn parse_flags(cmd: &Command, args: &[String]) -> Result<Flags, String> {
    let lists = |groups: &[&str], name: &str| {
        groups
            .iter()
            .any(|group| group.split_whitespace().any(|flag| flag == name))
    };
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{arg}`"));
        };
        let value = if lists(cmd.switches, name) {
            "true"
        } else if lists(cmd.values, name) {
            match args.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => return Err(format!("--{name} needs a value")),
            }
        } else {
            return Err(format!(
                "unknown flag --{name} for `twctl {}` (see `twctl help`)",
                cmd.name
            ));
        };
        flags.insert(name.to_string(), value.to_string());
    }
    Ok(flags)
}

fn cmd_help(_flags: &Flags) -> Result<(), String> {
    println!("{USAGE}");
    Ok(())
}

fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn num<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    Ok(opt_num(flags, name)?.unwrap_or(default))
}

/// Like [`num`], but absence means "no filter" rather than a default.
fn opt_num<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn app_by_name(name: &str, seed: u64) -> Result<BenchApp, String> {
    match name {
        "hotel" => Ok(hotel_reservation(seed)),
        "media" => Ok(media_microservices(seed)),
        "nodejs" => Ok(nodejs_app(seed)),
        "chain" => Ok(two_service_chain(seed)),
        other => Err(format!("unknown app `{other}` (hotel|media|nodejs|chain)")),
    }
}

/// Write `value` as pretty JSON to `path`, atomically: a crash leaves the
/// old file or the new one, never a truncated one.
fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    traceweaver::store::frame::atomic_write(path, json.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The records of the `--spans` file.
fn spans_flag(flags: &Flags) -> Result<Vec<RpcRecord>, String> {
    let path = flag(flags, "spans")?;
    load_spans(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let app = app_by_name(flag(flags, "app")?, num(flags, "seed", 42u64)?)?;
    let rps: f64 = num(flags, "rps", 300.0)?;
    let millis: u64 = num(flags, "millis", 2_000u64)?;
    let out_dir = PathBuf::from(flag(flags, "out-dir")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    let graph = app.config.call_graph();
    let root = *app
        .roots
        .first()
        .ok_or_else(|| format!("app `{}` has no root endpoints", app.name))?;
    let sim = Simulator::new(app.config).map_err(|e| e.to_string())?;
    let out = sim.run(&Workload::poisson(root, rps, Nanos::from_millis(millis)));
    println!(
        "simulated {} requests, {} spans",
        out.stats.arrivals, out.stats.total_rpcs
    );

    let spans_path = out_dir.join("spans.jsonl");
    save_spans(&spans_path, &out.records).map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("wrote {}", spans_path.display());

    write_json(&out_dir.join("graph.json"), &graph)?;
    write_json(&out_dir.join("truth.json"), &out.truth)?;

    Ok(())
}

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
    /// Build the pipeline from the shared flag block. `/healthz` answers
    /// as soon as the endpoint binds; `/readyz` stays 503 until the graph
    /// is up and any checkpoint restore has finished.
    fn start(
        flags: &Flags,
        tw: TraceWeaver,
        listen: &str,
        metrics_addr: Option<&str>,
    ) -> Result<Self, String> {
        use traceweaver::pipeline::net::{serve_online, MetricsServer, ServeHealth};

        let registry = traceweaver::telemetry::Registry::new();
        let mut config = online_config_from(flags, registry.clone())?;
        let health = ServeHealth::new();
        let scrape = match metrics_addr {
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
        let recorder = trace_recorder_from(flags, &registry)?;
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

/// Write the final exposition to `--metrics-out`, when given.
fn write_metrics_out(
    flags: &Flags,
    scrape: &traceweaver::pipeline::MetricsServer,
) -> Result<(), String> {
    if let Some(out) = flags.get("metrics-out") {
        let text =
            traceweaver::pipeline::fetch_metrics(scrape.local_addr()).map_err(|e| e.to_string())?;
        traceweaver::store::frame::atomic_write(Path::new(out), text.as_bytes())
            .map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Export recorded spans to a running `twctl serve` ingest listener over
/// the capture wire protocol — the same path a real capture agent takes,
/// including the bounded retry/backoff of [`export_records_with`], so a
/// replay rides over a server restart instead of dying on the first
/// refused connection. `--batch` splits the stream into separate
/// connections and `--pace-ms` sleeps between them, so a long replay
/// spans real time (letting a checkpointing server seal windows and
/// snapshot mid-stream).
fn cmd_replay(flags: &Flags) -> Result<(), String> {
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

/// Run the staged online pipeline as a standalone server: TCP ingest →
/// sanitize → windowing → warm reconstruction, with an optional
/// Prometheus scrape endpoint. Bounded by `--duration-ms` when given,
/// otherwise serves until the process is killed.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let listen = flags.get("listen").map_or("127.0.0.1:0", String::as_str);
    let duration_ms: u64 = num(flags, "duration-ms", 0u64)?;
    let tw = TraceWeaver::new(graph, params_from(flags));
    let live = LivePipeline::start(flags, tw, listen, flags.get("metrics").map(String::as_str))?;

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
        write_metrics_out(flags, &scrape)?;
        scrape.shutdown();
    }
    Ok(())
}

fn cmd_learn_graph(flags: &Flags) -> Result<(), String> {
    let app = app_by_name(flag(flags, "app")?, num(flags, "seed", 42u64)?)?;
    let replays: usize = num(flags, "replays", 12usize)?;
    let out = PathBuf::from(flag(flags, "out")?);

    let mut traces = Vec::new();
    for &root in &app.roots {
        traces.extend(generate_test_traces(&app.config, root, replays, 0xC0FFEE));
    }
    let learned = infer_call_graph(&traces);
    println!(
        "learned call graph from {} isolated replays ({} endpoints)",
        traces.len(),
        learned.len()
    );
    write_json(&out, &learned)
}

fn params_from(flags: &Flags) -> Params {
    if flags.contains_key("dynamism") {
        Params::with_dynamism()
    } else {
        Params::default()
    }
}

/// Reconstruct `records`, warm from the `--delay-model` registry when the
/// flag is present. The warm pass's gaps are dropped: nothing here keeps
/// a posterior, so no absorb round is paid for.
fn reconstruct_maybe_warm(
    flags: &Flags,
    tw: &TraceWeaver,
    records: &[RpcRecord],
) -> Result<Reconstruction, String> {
    let Some(path) = flags.get("delay-model") else {
        return Ok(tw.reconstruct_records(records));
    };
    let registry = load_registry(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "loaded delay model: {} edges across {} processes ({} rounds)",
        registry.len(),
        registry.processes(),
        registry.rounds()
    );
    Ok(tw.reconstruct_records_warm(records, &registry).0)
}

fn cmd_learn_delays(flags: &Flags) -> Result<(), String> {
    let records = spans_flag(flags)?;
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let window_ms: u64 = num(flags, "window-ms", 500u64)?;
    let out = PathBuf::from(flag(flags, "out")?);

    let tw = TraceWeaver::new(graph, params_from(flags));
    let registry = learn_delays(&tw, &records, Nanos::from_millis(window_ms));
    println!(
        "learned {} delay edges across {} processes from {} spans ({} windows)",
        registry.len(),
        registry.processes(),
        records.len(),
        registry.rounds()
    );
    save_registry(&out, &registry).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(())
}

/// Build a [`SanitizeConfig`] from the one sanitizer flag, `--no-drift`.
fn sanitize_config_from(flags: &Flags) -> traceweaver::pipeline::SanitizeConfig {
    traceweaver::pipeline::SanitizeConfig {
        drift_correction: !flags.contains_key("no-drift"),
    }
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

/// Build an [`OnlineConfig`] from the shared staged-pipeline flag block —
/// `--window-ms`, `--grace-ms`, `--capacity` and the rest of
/// `PIPELINE_VALUES` — plus `--no-drift` via
/// [`sanitize_config_from`]. `serve` is its one caller, so new pipeline
/// flags land in exactly one place.
fn online_config_from(
    flags: &Flags,
    telemetry: traceweaver::telemetry::Registry,
) -> Result<OnlineConfig, String> {
    let defaults = OnlineConfig::default();
    let grace = match flags.contains_key("grace-ms") {
        true => Nanos::from_millis(num(flags, "grace-ms", 0u64)?),
        false => defaults.grace,
    };
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
        sanitize: Some(sanitize_config_from(flags)),
        checkpoint,
        archive,
        shed,
        telemetry,
        ..defaults
    })
}

/// Build the self-tracing [`SpanRecorder`] from `--trace-sample` (head
/// sampling modulus, default 1 = every window; 0 disables tracing) and
/// `--span-ring` (sealed-tree ring capacity). The recorder's sampled
/// window count lands on `registry`.
fn trace_recorder_from(
    flags: &Flags,
    registry: &traceweaver::telemetry::Registry,
) -> Result<Option<traceweaver::telemetry::trace::SpanRecorder>, String> {
    let sample: u64 = num(flags, "trace-sample", 1u64)?;
    if sample == 0 {
        return Ok(None);
    }
    let ring: usize = num(flags, "span-ring", 64usize)?.max(1);
    Ok(Some(traceweaver::telemetry::trace::SpanRecorder::new(
        traceweaver::telemetry::trace::TraceConfig { sample, ring },
        registry,
    )))
}

/// Apply `--sanitize` when requested: replay the recorded spans through
/// the online sanitizer (dedup, causality, skew correction) and keep the
/// survivors.
fn maybe_sanitize(flags: &Flags, records: Vec<RpcRecord>) -> Vec<RpcRecord> {
    if !flags.contains_key("sanitize") {
        return records;
    }
    let mut sanitizer = traceweaver::pipeline::Sanitizer::new(sanitize_config_from(flags));
    let total = records.len();
    let clean = sanitizer.sanitize_batch(records);
    let stats = sanitizer.stats();
    println!(
        "sanitized: {}/{total} records passed ({} rejected, {} skew-corrected)",
        clean.len(),
        stats.rejected(),
        stats.skew_corrected
    );
    clean
}

fn cmd_reconstruct(flags: &Flags) -> Result<(), String> {
    let records = maybe_sanitize(flags, spans_flag(flags)?);
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let tw = TraceWeaver::new(graph, params_from(flags));
    let result = reconstruct_maybe_warm(flags, &tw, &records)?;
    let s = result.summary();
    println!(
        "reconstructed {}/{} spans across {} tasks ({} batches, {:.1}% mapped)",
        s.mapped_spans,
        s.total_spans,
        s.tasks,
        s.batches,
        s.mapped_fraction() * 100.0
    );

    if let Some(jaeger_path) = flags.get("jaeger") {
        let (catalog, by_id, roots) = span_index(&records);
        let doc = to_jaeger(&roots, &result.mapping, &by_id, &catalog);
        write_json(Path::new(jaeger_path), &doc)?;
    }
    Ok(())
}

/// What a span file does not ship, rebuilt from its records: a catalog
/// naming every service `service-N` and every operation `op-N`, the
/// records by id, and the external (root) records in file order.
fn span_index(records: &[RpcRecord]) -> (Catalog, HashMap<RpcId, RpcRecord>, Vec<RpcId>) {
    let mut catalog = Catalog::new();
    let max_svc = records
        .iter()
        .filter(|r| r.callee.service.0 != u32::MAX)
        .map(|r| r.callee.service.0)
        .max()
        .unwrap_or(0);
    let max_op = records.iter().map(|r| r.callee.op.0).max().unwrap_or(0);
    for s in 0..=max_svc {
        catalog.service(&format!("service-{s}"));
    }
    for o in 0..=max_op {
        catalog.operation(&format!("op-{o}"));
    }
    let by_id = records.iter().map(|r| (r.rpc, *r)).collect();
    let roots = records
        .iter()
        .filter(|r| r.caller == EXTERNAL)
        .map(|r| r.rpc)
        .collect();
    (catalog, by_id, roots)
}

fn cmd_waterfall(flags: &Flags) -> Result<(), String> {
    let records = spans_flag(flags)?;
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let width: usize = num(flags, "width", 60usize)?;
    let tw = TraceWeaver::new(graph, params_from(flags));
    let result = tw.reconstruct_records(&records);

    let (catalog, by_id, roots) = span_index(&records);
    if roots.is_empty() {
        return Err("no root (external) spans in the input".into());
    }
    let idx: usize = num(flags, "trace", 0usize)?;
    let root = *roots
        .get(idx)
        .ok_or_else(|| format!("--trace {idx} out of range (have {} traces)", roots.len()))?;
    print!(
        "{}",
        traceweaver::viz::render_waterfall(root, &result.mapping, &by_id, &catalog, width)
    );
    Ok(())
}

/// Resolve `--addr` into a socket address.
fn scrape_addr(flags: &Flags) -> Result<std::net::SocketAddr, String> {
    let addr = flag(flags, "addr")?;
    addr.parse()
        .map_err(|e| format!("--addr `{addr}`: {e} (expected HOST:PORT)"))
}

fn cmd_metrics(flags: &Flags) -> Result<(), String> {
    let addr = scrape_addr(flags)?;
    let text = traceweaver::pipeline::fetch_metrics(addr).map_err(|e| format!("{addr}: {e}"))?;
    print!("{text}");
    Ok(())
}

/// Fetch a running pipeline's `/deadletters` quarantine and pretty-print
/// it; `--resubmit --to HOST:PORT` replays the quarantined records (the
/// ones whose payload was captured) back into an ingest listener over the
/// capture wire protocol.
fn cmd_deadletters(flags: &Flags) -> Result<(), String> {
    use traceweaver::pipeline::{export_records, fetch_deadletters, DeadLetter};

    let addr = scrape_addr(flags)?;
    let text = fetch_deadletters(addr).map_err(|e| format!("{addr}: {e}"))?;
    let letters: Vec<DeadLetter> =
        serde_json::from_str(&text).map_err(|e| format!("{addr}: /deadletters: {e}"))?;
    if letters.is_empty() {
        println!("no dead letters");
        return Ok(());
    }
    println!("{} quarantined record(s):", letters.len());
    for letter in &letters {
        let window = letter
            .window
            .map_or_else(|| "-".to_string(), |w| w.to_string());
        println!(
            "  [{}] stage {} item #{} window {}: {}",
            letter.reason, letter.stage, letter.item_seq, window, letter.message
        );
        if let Some(rec) = &letter.record {
            println!(
                "      rpc {} {}:{} -> {}:{} recv_resp {}ns",
                rec.rpc.0,
                rec.caller.0,
                rec.caller_replica,
                rec.callee.service.0,
                rec.callee_replica,
                rec.recv_resp.0
            );
        }
    }

    if !flags.contains_key("resubmit") {
        return Ok(());
    }
    let to = flag(flags, "to")?;
    let to_addr: std::net::SocketAddr = to.parse().map_err(|e| format!("--to {to}: {e}"))?;
    let records: Vec<RpcRecord> = letters.iter().filter_map(|l| l.record).collect();
    if records.is_empty() {
        println!("nothing to resubmit: no quarantined payload was captured");
        return Ok(());
    }
    export_records(to_addr, &records).map_err(|e| format!("{to}: {e}"))?;
    println!(
        "resubmitted {}/{} quarantined record(s) to {to}",
        records.len(),
        letters.len()
    );
    Ok(())
}

/// Build a [`tw_store::TraceQuery`] from the shared query-filter flags.
/// Millisecond flags are converted to the stream-nanosecond clock the
/// archive stores, clamped to the largest whole millisecond.
fn trace_query_from(flags: &Flags) -> Result<traceweaver::store::TraceQuery, String> {
    let ns = |ms: u64| ms.min(u64::MAX / 1_000_000) * 1_000_000;
    Ok(traceweaver::store::TraceQuery {
        from_ns: opt_num::<u64>(flags, "from-ms")?.map(ns),
        to_ns: opt_num::<u64>(flags, "to-ms")?.map(ns),
        service: opt_num(flags, "service")?,
        op: opt_num(flags, "op")?,
        min_latency_ns: opt_num::<u64>(flags, "min-latency-ms")?.map(ns),
        window: opt_num(flags, "window")?,
        limit: num(flags, "limit", 0usize)?,
    })
}

/// Query archived traces — read-only from an archive directory (`--dir`)
/// or over HTTP from a serving pipeline's `/traces` endpoint (`--addr`).
/// Prints a one-line summary per trace, or the raw JSON document with
/// `--json`.
fn cmd_query(flags: &Flags) -> Result<(), String> {
    let query = trace_query_from(flags)?;
    let traces = match (flags.get("dir"), flags.get("addr")) {
        (Some(dir), None) => traceweaver::store::read_query(Path::new(dir), &query)
            .map_err(|e| format!("{dir}: {e}"))?,
        (None, Some(_)) => {
            let addr = scrape_addr(flags)?;
            traceweaver::pipeline::fetch_traces(addr, &query).map_err(|e| format!("{addr}: {e}"))?
        }
        _ => return Err("query needs exactly one of --dir DIR or --addr HOST:PORT".to_string()),
    };
    if flags.contains_key("json") {
        let doc = traceweaver::store::TracesDoc { traces };
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if traces.is_empty() {
        println!("no traces matched");
        return Ok(());
    }
    println!("{} trace(s):", traces.len());
    for t in &traces {
        println!(
            "  window {:>4} root {:>6} [{} .. {}] {:>10.3}ms {:>3} span(s){}",
            t.window,
            t.root,
            t.start,
            t.end,
            t.latency_ns as f64 / 1e6,
            t.spans.len(),
            if t.degraded { " degraded" } else { "" },
        );
    }
    Ok(())
}

/// One scrape parsed into `(series, value)` pairs. Comment lines and
/// OpenMetrics exemplars (` # {…} value` after a bucket's count) are
/// skipped; the series key keeps its labels so rates line up across polls.
fn parse_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let sample = l.split_once(" # ").map_or(l, |(sample, _)| sample);
            let (name, value) = sample.rsplit_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// The series of the family `name` in a parsed scrape: `(labels, value)`
/// each, the labels as exposed between the braces ("" for none).
fn family<'a>(
    samples: &'a [(String, f64)],
    name: &'a str,
) -> impl Iterator<Item = (&'a str, f64)> + 'a {
    samples.iter().filter_map(move |(series, value)| {
        let labels = series.strip_prefix(name)?;
        let labels = match labels {
            "" => "",
            _ => labels.strip_prefix('{')?.strip_suffix('}')?,
        };
        Some((labels, *value))
    })
}

/// The sum over every series of the family `name` (0 when absent).
fn total(samples: &[(String, f64)], name: &str) -> f64 {
    family(samples, name).fold(0.0, |sum, (_, v)| sum + v)
}

/// The value of `key` in an exposed label set.
fn label<'a>(labels: &'a str, key: &str) -> &'a str {
    labels
        .split(',')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix("=\"")?.strip_suffix('"'))
        .unwrap_or("")
}

/// The fixed lines at the head of `twctl top`, each read by family name:
/// whether the clocks drift (per service), where window time goes (per
/// stage, and per reconstruction phase), how far to trust the mappings,
/// and whether the engine degrades.
fn operator_screen(samples: &[(String, f64)]) -> Vec<String> {
    let join = |parts: Vec<String>| {
        if parts.is_empty() {
            "-".to_string()
        } else {
            parts.join(", ")
        }
    };
    let drift: HashMap<&str, f64> = family(samples, "tw_sanitize_drift_ppb")
        .map(|(labels, ppb)| (label(labels, "service"), ppb))
        .collect();
    let clocks = family(samples, "tw_sanitize_skew_offset_ns")
        .map(|(labels, ns)| {
            let service = label(labels, "service");
            let ppb = drift.get(service).copied().unwrap_or(0.0);
            format!("{service} {:+.1}µs {ppb:+.0}ppb", ns / 1e3)
        })
        .collect();
    let innovation = total(samples, "tw_sanitize_drift_innovation_ns_total")
        / total(samples, "tw_sanitize_drift_samples_total").max(1.0);
    let at = |name: &str, labels: &str| {
        family(samples, name)
            .find(|(l, _)| *l == labels)
            .map_or(0.0, |(_, v)| v)
    };
    let stages = family(samples, "tw_pipeline_stage_busy_seconds")
        .map(|(labels, busy)| {
            format!(
                "{} {busy:.3}s busy/{:.0} items/{:.0} queued",
                label(labels, "stage"),
                at("tw_pipeline_items_total", labels),
                at("tw_pipeline_queue_depth", labels)
            )
        })
        .collect();
    let phases = family(samples, "tw_core_stage_seconds_sum")
        .map(|(labels, s)| format!("{} {s:.3}s", label(labels, "stage")))
        .collect();
    let spans = total(samples, "tw_core_candidates_per_span_count");
    let mapped = total(samples, "tw_core_spans_mapped_total");
    let rungs = family(samples, "tw_engine_windows_total")
        .map(|(labels, n)| format!("{} {n:.0}", label(labels, "shed_level")))
        .collect();
    let backlog = total(samples, "tw_engine_pickup_queue_depth_sum")
        / total(samples, "tw_engine_pickup_queue_depth_count").max(1.0);
    vec![
        format!("clocks    skew, drift by service: {}", join(clocks)),
        format!(
            "          {:.0} records corrected; drift fit off by {:.1}µs on average",
            total(samples, "tw_sanitize_skew_corrected_total"),
            innovation / 1e3
        ),
        format!("stages    {}", join(stages)),
        format!("phases    {}", join(phases)),
        format!(
            "trust     {:.1}% of {spans:.0} spans mapped",
            100.0 * mapped / spans.max(1.0)
        ),
        format!(
            "degraded  windows by rung: {}; {:.0} rung changes, {:.0} records shed, {backlog:.1} windows waiting at pickup",
            join(rungs),
            total(samples, "tw_engine_shed_transitions_total"),
            total(samples, "tw_engine_shed_records_total")
        ),
    ]
}

fn cmd_top(flags: &Flags) -> Result<(), String> {
    let addr = scrape_addr(flags)?;
    let interval_ms: u64 = num(flags, "interval-ms", 1_000u64)?;
    let iterations: u64 = num(flags, "iterations", 0u64)?; // 0 = forever
    let limit: usize = num(flags, "limit", 20usize)?;

    let mut prev: HashMap<String, f64> = HashMap::new();
    let mut round = 0u64;
    loop {
        let text =
            traceweaver::pipeline::fetch_metrics(addr).map_err(|e| format!("{addr}: {e}"))?;
        let samples = parse_samples(&text);
        // Busiest series first: rank by absolute per-interval delta, then
        // by value, so moving counters float to the top of the board.
        let secs = interval_ms as f64 / 1000.0;
        let mut rows: Vec<(String, f64, Option<f64>)> = samples
            .iter()
            .map(|(name, value)| {
                let rate = prev.get(name).map(|p| (value - p) / secs);
                (name.clone(), *value, rate)
            })
            .collect();
        rows.sort_by(|a, b| {
            let ka = (a.2.unwrap_or(0.0).abs(), a.1);
            let kb = (b.2.unwrap_or(0.0).abs(), b.1);
            kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
        });
        println!(
            "--- {addr} · {} series · poll {} ---",
            samples.len(),
            round + 1
        );
        for line in operator_screen(&samples) {
            println!("{line}");
        }
        println!("{:>14}  {:>12}  series", "value", "rate/s");
        for (name, value, rate) in rows.iter().take(limit) {
            let rate = rate.map_or_else(|| "-".to_string(), |r| format!("{r:.1}"));
            println!("{value:>14}  {rate:>12}  {name}");
        }
        prev = samples.into_iter().collect();
        round += 1;
        if iterations != 0 && round >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let records = maybe_sanitize(flags, spans_flag(flags)?);
    let graph: CallGraph = read_json(flag(flags, "graph")?)?;
    let truth: TruthIndex = read_json(flag(flags, "truth")?)?;
    let tw = TraceWeaver::new(graph, params_from(flags));
    let result = reconstruct_maybe_warm(flags, &tw, &records)?;

    let e2e = end_to_end_accuracy_all_roots(&result.mapping, &truth);
    let per_span = per_service_accuracy(&result.mapping, &truth, records.iter().map(|r| r.rpc));
    let top5 = top_k_accuracy(&result.ranked, &truth, records.iter().map(|r| r.rpc), 5);
    println!(
        "end-to-end accuracy: {:.2}% ({}/{})",
        e2e.percent(),
        e2e.correct,
        e2e.total
    );
    println!("per-span accuracy:   {:.2}%", per_span.percent());
    println!("top-5 accuracy:      {:.2}%", top5.percent());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn flags_in(text: &str) -> BTreeSet<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|token| token.strip_prefix("--"))
            .collect()
    }

    /// USAGE's synopsis lists, for every command, exactly the flags its
    /// table entry accepts.
    #[test]
    fn usage_synopsis_matches_the_command_table() {
        let synopsis = USAGE
            .split_once("USAGE:\n")
            .and_then(|(_, rest)| rest.split_once("\nA flag the command"))
            .expect("synopsis block")
            .0;
        let mut entries: BTreeMap<&str, String> = BTreeMap::new();
        let mut current = "";
        for line in synopsis.lines() {
            if let Some(rest) = line.strip_prefix("  twctl ") {
                current = rest.split_whitespace().next().unwrap();
            } else if line.starts_with("  pipeline flags:") {
                current = "pipeline flags";
            }
            entries.entry(current).or_default().push_str(line);
        }
        assert_eq!(entries.len(), COMMANDS.len() + 1);
        for cmd in COMMANDS {
            let entry = &entries[cmd.name];
            let mut listed = flags_in(entry);
            if entry.contains("[pipeline flags]") {
                listed.extend(flags_in(&entries["pipeline flags"]));
            }
            let accepted: BTreeSet<&str> = cmd
                .values
                .iter()
                .chain(cmd.switches)
                .flat_map(|group| group.split_whitespace())
                .collect();
            assert_eq!(listed, accepted, "twctl {}", cmd.name);
        }
    }

    /// `top`'s fixed lines read their families by name from a scrape, and
    /// a scrape without them (no sanitizer, nothing served yet) renders.
    #[test]
    fn operator_screen_reads_each_signal_by_name() {
        let text = "\
tw_sanitize_skew_offset_ns{service=\"1\"} 312400
tw_sanitize_drift_ppb{service=\"1\"} 100000
tw_sanitize_skew_corrected_total 7
tw_sanitize_drift_samples_total 4
tw_sanitize_drift_innovation_ns_total 8000
tw_pipeline_stage_busy_seconds{stage=\"window/0\"} 1.5
tw_pipeline_items_total{stage=\"window/0\"} 30
tw_pipeline_queue_depth{stage=\"window/0\"} 2
tw_core_stage_seconds_sum{stage=\"optimize\"} 0.25
tw_core_stage_seconds_sum{stage=\"score\"} 0.05
tw_core_stage_seconds_sum{stage=\"solve\"} 0.1
tw_core_stage_seconds_sum{stage=\"refit\"} 0.075
tw_core_stage_seconds_sum{stage=\"unattributed\"} 0.025
tw_core_candidates_per_span_count 200
tw_core_spans_mapped_total 150
tw_engine_windows_total{shed_level=\"full\"} 9
tw_engine_windows_total{shed_level=\"skip\"} 1
tw_engine_shed_transitions_total{shed_level=\"skip\"} 1
tw_engine_shed_records_total 40
tw_engine_pickup_queue_depth_sum 5
tw_engine_pickup_queue_depth_count 10
";
        assert_eq!(
            operator_screen(&parse_samples(text)),
            [
                "clocks    skew, drift by service: 1 +312.4µs +100000ppb",
                "          7 records corrected; drift fit off by 2.0µs on average",
                "stages    window/0 1.500s busy/30 items/2 queued",
                "phases    optimize 0.250s, score 0.050s, solve 0.100s, refit 0.075s, \
                 unattributed 0.025s",
                "trust     75.0% of 200 spans mapped",
                "degraded  windows by rung: full 9, skip 1; 1 rung changes, 40 records shed, \
                 0.5 windows waiting at pickup",
            ]
        );
        let empty = operator_screen(&[]);
        assert_eq!(empty[0], "clocks    skew, drift by service: -");
        assert_eq!(empty[4], "trust     0.0% of 0 spans mapped");
    }

    /// A bucket's exemplar is not a sample: `top` ranks the bucket's count
    /// under the bucket's own name.
    #[test]
    fn exemplars_are_not_samples() {
        assert_eq!(
            parse_samples("b_bucket{le=\"1\"} 2 # {window_id=\"3\"} 0.5"),
            [("b_bucket{le=\"1\"}".to_string(), 2.0)]
        );
    }
}
