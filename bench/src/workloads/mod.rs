//! The four workloads. Each is one process: set up (three times, for a
//! steady `setup_s`), measure for `--seconds`, check the outputs.

pub mod offline;
pub mod online;
pub mod query;

use crate::common::Scratch;
use crate::report::Report;
use crate::Args;

pub const NAMES: [&str; 4] = [offline::NAME, online::SATURATE, online::PACED, query::NAME];

pub fn run(name: &str, args: &Args) -> Report {
    let scratch = Scratch::new();
    match name {
        offline::NAME => {
            let p = offline::prepare(args.seed);
            if args.traced {
                offline::trace(&p, args, &scratch)
            } else {
                offline::measure(&p, args.seconds, &scratch)
            }
        }
        online::SATURATE | online::PACED => {
            let paced = name == online::PACED;
            let p = online::prepare(args.seed, args.seconds, paced, &scratch);
            if args.traced {
                online::trace(&p, args, &scratch)
            } else {
                online::measure(&p, args.seconds, &scratch)
            }
        }
        query::NAME => {
            let p = query::prepare(args.seed, &scratch);
            if args.traced {
                query::trace(&p, args, &scratch)
            } else {
                query::measure(&p, args.seconds)
            }
        }
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    }
}

/// No `--workload`: run every workload in a process of its own (peak RSS
/// and the global registry are per process) and pass its report through.
pub fn run_each_in_a_process(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for name in NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status()
            .expect("child benchmark process starts");
        all_ok &= status.success();
    }
    all_ok
}
