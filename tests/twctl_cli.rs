//! `twctl` as a process: flags are checked against the command's table
//! before any work, and the offline happy path still writes its artifacts.

use std::process::{Command, Output};

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
    // A typo of `--shards` must not serve silently with one shard.
    assert_rejected("serve --graph g.json --shard 4", "unknown flag --shard");
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
fn removed_sanitizer_flags_are_rejected() {
    for flag in ["--skew-alpha", "--drift-window", "--drift-max-ppm"] {
        assert_rejected(
            &format!("evaluate --spans s --graph g --truth t --sanitize {flag} 1"),
            "unknown flag",
        );
    }
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
