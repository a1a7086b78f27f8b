//! `twctl` — command-line front end for the TraceWeaver toolkit. This file
//! holds the command table, flag parsing and `help`; each handler lives
//! with its decision:
//!
//! * `offline` — span files: simulate, learn, reconstruct, evaluate;
//! * `serve` — the live pipeline (`serve`) and the stream into it (`replay`);
//! * `ops` — a running pipeline read back: metrics, top, dead letters, query.

mod offline;
mod ops;
mod serve;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use traceweaver::model::RpcRecord;
use traceweaver::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    // Flags are checked against the command's table before its handler
    // runs, so a mistyped flag never binds a socket or writes a file.
    let result = match COMMANDS.iter().find(|c| c.name() == name) {
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

/// One `twctl` subcommand: its handler and its synopsis, `NAME FLAGS…` as
/// `help` prints it (each line after a `\n` aligned under the first),
/// which is the one list of the flags it accepts.
struct Command {
    run: fn(&Flags) -> Result<(), String>,
    synopsis: &'static str,
}

impl Command {
    fn name(&self) -> &'static str {
        self.synopsis.split(' ').next().unwrap_or_default()
    }

    /// Every flag the command accepts, `[pipeline flags]` expanded.
    fn flags(&self) -> Vec<(String, bool)> {
        flags_of(&self.synopsis.replace("[pipeline flags]", PIPELINE_FLAGS))
    }
}

/// The live-pipeline flags of `serve`: what `serve::online_config_from`
/// and the self-trace recorder read.
const PIPELINE_FLAGS: &str = "[--window-ms N] [--grace-ms N] [--capacity N]\n\
    [--adaptive-shed]\n\
    [--checkpoint-dir DIR] [--checkpoint-interval-ms N]\n\
    [--archive-dir DIR] [--archive-segment-bytes N] [--archive-retention BYTES]\n\
    [--trace-sample N]";

const COMMANDS: &[Command] = &[
    Command {
        run: offline::cmd_simulate,
        synopsis: "simulate --app <hotel|media|nodejs|chain> [--rps N] [--millis N] [--seed N] --out-dir DIR",
    },
    Command {
        run: offline::cmd_learn_graph,
        synopsis: "learn-graph --app <hotel|media|nodejs|chain> [--seed N] [--replays N] --out FILE",
    },
    Command {
        run: offline::cmd_learn_delays,
        synopsis: "learn-delays --spans FILE --graph FILE [--window-ms N] [--dynamism] --out FILE",
    },
    Command {
        run: offline::cmd_reconstruct,
        synopsis: "reconstruct --spans FILE --graph FILE [--delay-model FILE] [--dynamism] [--jaeger FILE]\n\
                   [--sanitize]",
    },
    Command {
        run: offline::cmd_evaluate,
        synopsis: "evaluate --spans FILE --graph FILE --truth FILE [--delay-model FILE] [--dynamism]\n\
                   [--sanitize]",
    },
    Command {
        run: offline::cmd_waterfall,
        synopsis: "waterfall --spans FILE --graph FILE [--trace N] [--width N] [--dynamism]",
    },
    Command {
        run: serve::cmd_serve,
        synopsis: "serve --graph FILE [--listen ADDR] [--metrics ADDR] [--duration-ms N]\n\
                   [--metrics-out FILE] [--dynamism] [pipeline flags]",
    },
    Command {
        run: serve::cmd_replay,
        synopsis: "replay --spans FILE --to HOST:PORT [--batch N] [--pace-ms N] [--retries N]",
    },
    Command {
        run: ops::cmd_metrics,
        synopsis: "metrics --addr HOST:PORT",
    },
    Command {
        run: ops::cmd_top,
        synopsis: "top --addr HOST:PORT [--interval-ms N] [--iterations N] [--limit N]",
    },
    Command {
        run: ops::cmd_deadletters,
        synopsis: "deadletters --addr HOST:PORT [--resubmit --to HOST:PORT]",
    },
    Command {
        run: ops::cmd_query,
        synopsis: "query (--dir DIR | --addr HOST:PORT) [--service N] [--op N] [--window N]\n\
                   [--min-latency-ms N] [--from-ms N] [--to-ms N] [--limit N] [--json]",
    },
    Command {
        run: cmd_help,
        synopsis: "help",
    },
];

/// What `help` prints below the synopses.
const ABOUT: &str = "\
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
causality, skew correction) before reconstructing, as the live pipeline
behind `serve` always does. Skew correction tracks per-edge clock
*drift* (offset + slope).

Self-tracing: the live pipeline records one span tree per window
(sanitize → route → collect → reconstruct → result hand-off → absorb,
plus supervisor restarts and checkpoint writes as events).
--trace-sample N head-samples every Nth window (default 1 = all, 0 =
off); the last 64 sealed trees are kept. Trees are served at GET
/spans next to /metrics, and slow-window latency histogram buckets carry
OpenMetrics exemplars whose window_id/span_id labels resolve there (the
exposition switches to the OpenMetrics content type when exemplars are
present).

`deadletters` fetches a serving pipeline's /deadletters quarantine and
pretty-prints each record with its failure reason, stage, and window
(the window links to its span tree on /spans); --resubmit --to replays
the captured payloads back into an ingest listener over the capture
wire protocol.";

/// The full `help` text: one synopsis per command, continuation lines
/// aligned under the first, then the pipeline block and [`ABOUT`].
fn usage() -> String {
    let entry = |head: &str, synopsis: &str| {
        let body = synopsis.replace('\n', &format!("\n{:21}", ""));
        format!("  {head:<19}{body}").trim_end().to_string()
    };
    let commands: Vec<String> = COMMANDS
        .iter()
        .map(|c| {
            let (name, flags) = c.synopsis.split_once(' ').unwrap_or((c.synopsis, ""));
            entry(&format!("twctl {name}"), flags)
        })
        .collect();
    format!(
        "twctl — non-intrusive request tracing toolkit\n\nUSAGE:\n{}\n\n{}\n\n{ABOUT}",
        commands.join("\n"),
        entry("pipeline flags:", PIPELINE_FLAGS)
    )
}

/// The flags a synopsis lists, `(name, takes a value)` each. A flag takes
/// a value when a placeholder (`N`, `FILE`, `DIR`, `ADDR`, `HOST:PORT`,
/// `BYTES`, `<a|b>`) follows it, not another flag or `|`.
fn flags_of(synopsis: &str) -> Vec<(String, bool)> {
    let tokens: Vec<&str> = synopsis
        .split_whitespace()
        .map(|token| token.trim_matches(['[', ']', '(', ')']))
        .collect();
    let next = tokens.iter().skip(1).chain(&["--"]);
    let pairs = tokens.iter().zip(next);
    pairs
        .filter_map(|(token, next)| {
            let placeholder = !next.starts_with("--") && *next != "|";
            Some((token.strip_prefix("--")?.to_string(), placeholder))
        })
        .collect()
}

type Flags = HashMap<String, String>;

fn parse_flags(cmd: &Command, args: &[String]) -> Result<Flags, String> {
    let accepted = cmd.flags();
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{arg}`"));
        };
        let Some(&(_, takes_value)) = accepted.iter().find(|(flag, _)| flag == name) else {
            let cmd = cmd.name();
            return Err(format!(
                "unknown flag --{name} for `twctl {cmd}` (see `twctl help`)"
            ));
        };
        let value = if !takes_value {
            "true"
        } else {
            match args.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => return Err(format!("--{name} needs a value")),
            }
        };
        flags.insert(name.to_string(), value.to_string());
    }
    Ok(flags)
}

fn cmd_help(_flags: &Flags) -> Result<(), String> {
    println!("{}", usage());
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

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// The records of the `--spans` file.
fn spans_flag(flags: &Flags) -> Result<Vec<RpcRecord>, String> {
    let path = flag(flags, "spans")?;
    load_spans(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn params_from(flags: &Flags) -> Params {
    if flags.contains_key("dynamism") {
        Params::with_dynamism()
    } else {
        Params::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name() == name).unwrap()
    }

    /// Whether `twctl NAME --FLAG` takes a value (`None`: not accepted).
    fn takes_value(name: &str, flag: &str) -> Option<bool> {
        let flags = command(name).flags();
        flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|&(_, value)| value)
    }

    /// Each row's synopsis is the command's one flag list: it yields the
    /// switches, the value flags (the pipeline fragment's too) and `help`.
    #[test]
    fn the_command_table_is_the_one_flag_list() {
        for name in ["reconstruct", "evaluate"] {
            assert_eq!(takes_value(name, "sanitize"), Some(false), "{name}");
        }
        assert_eq!(takes_value("query", "json"), Some(false));
        assert_eq!(takes_value("deadletters", "resubmit"), Some(false));
        for name in [
            "learn-delays",
            "reconstruct",
            "evaluate",
            "waterfall",
            "replay",
        ] {
            assert_eq!(takes_value(name, "spans"), Some(true), "{name}");
        }
        assert_eq!(takes_value("serve", "archive-retention"), Some(true));
        let pipeline = flags_of(PIPELINE_FLAGS);
        assert_eq!(pipeline.len(), 10);
        for (flag, value) in &pipeline {
            assert_eq!(takes_value("serve", flag), Some(*value), "serve --{flag}");
        }
        let query = command("query").flags();
        assert_eq!(query[..2], [("dir".into(), true), ("addr".into(), true)]);
        assert!(command("help").flags().is_empty());
        assert_eq!(takes_value("metrics", "graph"), None);

        let usage = usage();
        let synopses: Vec<&str> = usage
            .lines()
            .filter_map(|line| line.strip_prefix("  twctl "))
            .map(|line| line.split(' ').next().unwrap())
            .collect();
        let names: Vec<&str> = COMMANDS.iter().map(Command::name).collect();
        assert_eq!(synopses, names);
        assert!(usage.contains("\n  pipeline flags:    [--window-ms N] [--grace-ms N]"));
    }
}
