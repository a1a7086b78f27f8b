//! `twctl` as a process: flags are checked against the command's table
//! before any work, the offline happy path still writes its artifacts, and
//! `serve` keeps reconstructing — warm — for as long as spans arrive.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Run `twctl <line>` from the system temp directory, so relative
/// `--out-dir`s land there.
fn twctl(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_twctl"))
        .current_dir(std::env::temp_dir())
        .args(line.split_whitespace())
        .output()
        .expect("twctl runs")
}

/// Exit 1, nothing on stdout, and an `error:` line containing `needle`.
fn assert_rejected(line: &str, needle: &str) {
    let out = twctl(line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{line}: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{line}: expected `{needle}` in: {stderr}"
    );
    assert!(out.stdout.is_empty(), "`{line}` did work before failing");
}

#[test]
fn unknown_flag_is_rejected_before_any_work() {
    // A typo of a flag must not serve silently without it.
    assert_rejected("serve --graph g.json --capcity 4", "unknown flag --capcity");
    // A flag another command owns is still unknown here.
    assert_rejected("metrics --graph g.json", "unknown flag --graph");

    let dir = format!("twctl-cli-unknown-{}", std::process::id());
    assert_rejected(
        &format!("simulate --app chain --out-dir {dir} --sed 5"),
        "unknown flag --sed",
    );
    assert!(
        !std::env::temp_dir().join(dir).exists(),
        "rejected simulate created its --out-dir"
    );
}

#[test]
fn value_flag_without_a_value_is_rejected() {
    // `--listen` must not take the next flag as its address.
    assert_rejected(
        "serve --graph g.json --listen --adaptive-shed",
        "--listen needs a value",
    );
    assert_rejected("metrics --addr", "--addr needs a value");
}

#[test]
fn removed_flags_are_rejected() {
    for flag in ["--skew-alpha", "--drift-window", "--drift-max-ppm"] {
        assert_rejected(
            &format!("evaluate --spans s --graph g --truth t --sanitize {flag} 1"),
            "unknown flag",
        );
    }
    // Flags nothing set: the sanitizer always tracks drift, and the
    // self-trace ring keeps its default size.
    assert_rejected("serve --graph g.json --no-drift", "unknown flag --no-drift");
    assert_rejected(
        "evaluate --spans s --graph g --truth t --sanitize --no-drift",
        "unknown flag --no-drift",
    );
    assert_rejected(
        "serve --graph g.json --span-ring 8",
        "unknown flag --span-ring",
    );
    // `serve` always runs one warm window shard, so `--shards` is unknown;
    // an empty stdout means it failed before binding.
    assert_rejected("serve --graph g.json --shards 2", "unknown flag --shards");
    // Every queue blocks; the shed ladder is the one overload response.
    assert_rejected(
        "serve --graph g.json --backpressure shed",
        "unknown flag --backpressure",
    );
    // Telemetry is scrape-only: the push exporter's flags and its sink
    // command are gone.
    assert_rejected(
        "serve --graph g.json --push-url 127.0.0.1:1",
        "unknown flag --push-url",
    );
    let dir = format!("twctl-cli-push-{}", std::process::id());
    assert_rejected(
        &format!("simulate --app chain --out-dir {dir} --push-interval-ms 10"),
        "unknown flag --push-interval-ms",
    );
    // `serve --metrics` plus `replay` is the one live path: simulate only
    // writes its artifacts, so its loopback pipeline's flags are gone.
    for flag in [
        "--metrics",
        "--metrics-hold-ms",
        "--metrics-out",
        "--window-ms",
    ] {
        assert_rejected(
            &format!("simulate --app chain --out-dir {dir} {flag} 1"),
            &format!("unknown flag {flag}"),
        );
    }
    assert_rejected(
        "push-sink --listen 127.0.0.1:0",
        "unknown command `push-sink`",
    );
    // Workload scenarios are parked: the SocialNetwork app is gone.
    assert_rejected(
        &format!("simulate --app social --out-dir {dir}"),
        "unknown app",
    );
}

#[test]
fn help_exits_zero_and_unknown_command_does_not() {
    for alias in ["help", "--help", "-h"] {
        let out = twctl(alias);
        assert_eq!(out.status.code(), Some(0), "{alias}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE:"));
    }
    assert_rejected("frobnicate", "unknown command");
}

#[test]
fn simulate_writes_its_three_artifacts() {
    let dir = format!("twctl-cli-simulate-{}", std::process::id());
    let out = twctl(&format!(
        "simulate --app chain --rps 100 --millis 200 --seed 5 --out-dir {dir}"
    ));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let dir = std::env::temp_dir().join(dir);
    for artifact in ["spans.jsonl", "graph.json", "truth.json"] {
        let len = std::fs::metadata(dir.join(artifact)).map_or(0, |m| m.len());
        assert!(len > 0, "{artifact} missing or empty");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh scratch directory holding one simulated hotel stream.
fn simulated(tag: &str, millis: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twctl-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = twctl(&format!(
        "simulate --app hotel --rps 300 --millis {millis} --out-dir {}",
        dir.display()
    ));
    assert!(out.status.success(), "{}", stderr_of(&out));
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A directory flag naming a regular file is an argument error before
/// serve binds — not a panic (`--archive-dir`) nor a serve that never
/// checkpoints (`--checkpoint-dir`). An archive directory that cannot be
/// created, under a regular file, is an error once serve opens it.
#[test]
fn directory_flags_naming_a_file_are_rejected() {
    let dir = simulated("dir-flags", 200);
    let file = dir.join("graph.json");
    for flag in ["--archive-dir", "--checkpoint-dir"] {
        assert_rejected(
            &format!(
                "serve --graph {0} --duration-ms 1 {flag} {0}",
                file.display()
            ),
            &format!("{flag} {}: not a directory", file.display()),
        );
    }
    let under = file.join("archive");
    assert_rejected(
        &format!(
            "serve --graph {} --duration-ms 1 --archive-dir {}",
            file.display(),
            under.display()
        ),
        &format!("archive {}: ", under.display()),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A running `twctl serve` on ports the kernel picked, read back from its
/// own start-up lines.
struct Serve {
    child: Child,
    stdout: BufReader<ChildStdout>,
    ingest: String,
    metrics: String,
}

impl Serve {
    /// `serve --graph <dir>/graph.json --checkpoint-dir <dir>/ckpt
    /// --metrics-out <dir>/final.txt --window-ms 250 <extra>`.
    fn start(dir: &Path, extra: &str) -> Serve {
        let line = format!(
            "serve --graph {0}/graph.json --listen 127.0.0.1:0 --metrics 127.0.0.1:0 \
             --checkpoint-dir {0}/ckpt --metrics-out {0}/final.txt --window-ms 250 {extra}",
            dir.display()
        );
        let mut child = Command::new(env!("CARGO_BIN_EXE_twctl"))
            .args(line.split_whitespace())
            .stdout(Stdio::piped())
            .spawn()
            .expect("twctl serve starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let (mut ingest, mut metrics) = (None, None);
        while ingest.is_none() || metrics.is_none() {
            let mut line = String::new();
            assert!(stdout.read_line(&mut line).unwrap() > 0, "serve exited");
            if let Some(addr) = line.strip_prefix("ingest listening on ") {
                ingest = Some(addr.trim().to_string());
            } else if let Some(url) = line.strip_prefix("metrics at http://") {
                metrics = Some(url.trim().trim_end_matches("/metrics").to_string());
            }
        }
        Serve {
            child,
            stdout,
            ingest: ingest.unwrap(),
            metrics: metrics.unwrap(),
        }
    }

    /// Send the whole stream over one connection, so arrival order — and
    /// with it the window count — is the stream's own.
    fn replay(&self, dir: &Path) {
        let out = twctl(&format!(
            "replay --spans {}/spans.jsonl --to {} --batch 1000000",
            dir.display(),
            self.ingest
        ));
        assert!(out.status.success(), "{}", stderr_of(&out));
    }

    /// Wait out `--duration-ms` and return the `served …` summary line.
    fn summary(mut self) -> String {
        let rest: Vec<String> = (&mut self.stdout).lines().map(Result::unwrap).collect();
        assert!(self.child.wait().unwrap().success(), "{rest:?}");
        rest.into_iter()
            .find(|l| l.starts_with("served "))
            .expect("summary line")
    }
}

/// A failed assertion must not leave a server behind.
impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Value of the un-labelled or fully-labelled series `name` in an
/// exposition.
fn sample(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

const FULL_WINDOWS: &str = "tw_engine_windows_total{shed_level=\"full\"}";

/// Nothing else takes window results off a served engine, so `serve` must:
/// with every queue bounded at 8, an unconsumed results queue used to stop
/// the pipeline for good after 18 of this stream's 48 windows. And `serve`
/// runs the warm engine, so its checkpoint carries the registry.
#[test]
fn serve_keeps_reconstructing_and_runs_warm_at_one_shard() {
    let dir = simulated("serve-warm", 12_000);
    let serve = Serve::start(&dir, "--capacity 8 --duration-ms 20000");
    serve.replay(&dir);

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut live = 0.0;
    while live < 40.0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(250));
        let out = twctl(&format!("metrics --addr {}", serve.metrics));
        assert!(out.status.success(), "{}", stderr_of(&out));
        live = sample(&String::from_utf8_lossy(&out.stdout), FULL_WINDOWS).unwrap_or(0.0);
    }
    assert!(live >= 40.0, "stuck at {live} windows while serving");

    let summary = serve.summary();
    let scrape = std::fs::read_to_string(dir.join("final.txt")).unwrap();
    let windows = sample(&scrape, FULL_WINDOWS).unwrap();
    assert!(
        summary.contains(&format!(", {windows} windows, ")),
        "counter says {windows}: {summary}"
    );
    assert!(sample(&scrape, "tw_engine_warm_edges").unwrap() > 0.0);
    assert!(sample(&scrape, "tw_core_warm_tasks_total").unwrap() > 0.0);
    let registry = traceweaver::pipeline::load_checkpoint(&dir.join("ckpt"))
        .expect("final checkpoint")
        .registry
        .expect("a warm engine checkpoints its registry");
    assert!(!registry.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
