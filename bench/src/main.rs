//! The repository's benchmark: one command, four seeded workloads from the
//! socket to the archive, seven end-to-end metrics, and per-layer numbers
//! timed from outside. See `README.md` in this directory.

mod common;
mod input;
mod noise;
mod online;
mod procfs;
mod replay;
mod report;
mod series;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given; the same
/// value `BENCHMARK.json` passes.
pub const RUN_SECONDS: u64 = 15;

const USAGE: &str = "usage: tw-e2e-bench --seed <u64> [--workload <name>] [--seconds <n>] \
[--trace <0|1> | --traced] [--noise <n>]
  workloads: offline_dense online_saturate online_paced archive_query
  without --workload every workload runs, each in a process of its own
  --noise <n> runs two interleaved sets of n runs per workload and compares
  them against the bounds in BENCHMARK.json";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub noise: Option<usize>,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        noise: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}"));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.traced = number()? != 0,
            "--noise" => args.noise = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some(n) = args.noise {
        noise::run(&args, n)
    } else if let Some(name) = &args.workload {
        let report = workloads::run(name, &args);
        println!(
            "workload {} seed {} seconds {} traced {} host {}",
            report.workload,
            args.seed,
            args.seconds,
            args.traced,
            procfs::host()
        );
        print!("{}", report.render());
        report.correct()
    } else {
        workloads::run_each_in_a_process(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_contract_flags_parse() {
        let args = parse_args(&argv(
            "--workload online_paced --seed 42 --seconds 15 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: Some("online_paced".into()),
                seed: 42,
                seconds: 15,
                traced: true,
                noise: None,
            }
        );
        assert!(!parse_args(&argv("--seed 1 --trace 0")).unwrap().traced);
        assert!(parse_args(&argv("--seed 1 --traced")).unwrap().traced);
        assert_eq!(parse_args(&argv("--seed 1")).unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate 1")).is_err());
    }
}
