//! promlint: lint a Prometheus text-exposition (v0.0.4) document.
//!
//! Usage:
//!   promlint <file|-> [--min-series N] [--require-prefix p1,p2,...]
//!
//! Reads the document from a file (or stdin with `-`), validates it with
//! `tw_telemetry::lint`, and optionally enforces a minimum sample count and
//! that at least one sample name starts with each required prefix. Exits
//! non-zero with a diagnostic on the first violation. Used by the CI
//! metrics-smoke job against a `twctl serve --metrics` run fed by `twctl
//! replay`.

use std::io::Read;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut min_series: usize = 0;
    let mut prefixes: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--min-series" => {
                let Some(v) = it.next() else {
                    return usage("--min-series needs a value");
                };
                match v.parse() {
                    Ok(n) => min_series = n,
                    Err(_) => return usage("--min-series needs an integer"),
                }
            }
            "--require-prefix" => {
                let Some(v) = it.next() else {
                    return usage("--require-prefix needs a value");
                };
                prefixes.extend(v.split(',').filter(|p| !p.is_empty()).map(String::from));
            }
            "--help" | "-h" => return usage(""),
            other if input.is_none() => input = Some(other.to_string()),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }

    let Some(path) = input else {
        return usage("missing input file (use `-` for stdin)");
    };
    let mut text = String::new();
    let read = if path == "-" {
        std::io::stdin().read_to_string(&mut text).map(|_| ())
    } else {
        std::fs::read_to_string(&path).map(|s| {
            text = s;
        })
    };
    if let Err(e) = read {
        eprintln!("promlint: cannot read {path}: {e}");
        return ExitCode::FAILURE;
    }

    let report = match tw_telemetry::lint::lint(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("promlint: FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };

    if report.samples < min_series {
        eprintln!(
            "promlint: FAIL: {} series found, need at least {min_series}",
            report.samples
        );
        return ExitCode::FAILURE;
    }
    for prefix in &prefixes {
        if !report.names.iter().any(|n| n.starts_with(prefix.as_str())) {
            eprintln!("promlint: FAIL: no series with prefix `{prefix}`");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "promlint: OK: {} series across {} families, {} exemplars",
        report.samples, report.families, report.exemplars
    );
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("promlint: {err}");
    }
    eprintln!("usage: promlint <file|-> [--min-series N] [--require-prefix p1,p2,...]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
