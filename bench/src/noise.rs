//! `--noise N`: is the benchmark steady enough for its own bounds?
//!
//! Runs every workload 2·N times — two sets, A and B, interleaved so both
//! see the same host-load phases. Run *i* of either set uses seed
//! `--seed + i`, so the spread inside a set includes what a change of seed
//! does (the acceptance check of this benchmark draws a new seed per run)
//! while the two sets' medians compare identical inputs. For every
//! (workload, end-to-end metric) pair it prints both medians, the
//! quartiles, the spread (interquartile range over the median, Python's
//! `statistics.quantiles(n=4)`) and the gap between the sets' medians in
//! the direction that counts as worse, each against the metric's bound
//! from `BENCHMARK.json`. The table is also written to
//! `bench/out/noise.md`; `README.md` carries a copy.

use crate::common::bench_dir;
use crate::report::END_TO_END;
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::NAMES;
use crate::Args;
use serde::Value;
use std::collections::BTreeMap;

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        _ => &[],
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    entries(v).iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// `end_to_end[].bound` by metric name from the text of `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Seq(metrics)) = field(&doc, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(
            |m| match (field(m, "name"), field(m, "bound").and_then(number)) {
                (Some(Value::Str(name)), Some(bound)) => Ok((name.clone(), bound)),
                _ => Err("an end_to_end entry lacks name or bound".to_string()),
            },
        )
        .collect()
}

/// The metric values of one run, from the JSON object on the last line
/// of its output; `None` if the run reported itself incorrect.
pub fn parse_result(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let doc: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    if !matches!(field(&doc, "correct"), Some(Value::Bool(true))) {
        return None;
    }
    Some(
        entries(field(&doc, "metrics")?)
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), number(field(m, "value")?)?)))
            .collect(),
    )
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn run(args: &Args, n: usize) -> bool {
    let bounds = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| parse_bounds(&text));
    let bounds = match bounds {
        Ok(b) => b,
        Err(err) => {
            eprintln!("error: bounds unavailable: {err}");
            return false;
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    // samples[workload][set][metric] -> values
    let mut samples: BTreeMap<&str, [BTreeMap<String, Vec<f64>>; 2]> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..n {
        for workload in NAMES {
            // Alternate which set goes first.
            for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                let out = std::process::Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &(args.seed + i as u64).to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", "0"])
                    .output()
                    .expect("child benchmark process starts");
                let stdout = String::from_utf8_lossy(&out.stdout);
                match parse_result(&stdout).filter(|_| out.status.success()) {
                    Some(metrics) => {
                        let sets = samples.entry(workload).or_default();
                        for (name, value) in metrics {
                            sets[set].entry(name).or_default().push(value);
                        }
                    }
                    None => {
                        all_correct = false;
                        eprintln!("{workload} seed {} failed:\n{stdout}", args.seed + i as u64);
                    }
                }
                eprintln!(
                    "noise: run {} of {n}, set {}, {workload} done",
                    i + 1,
                    ["A", "B"][set]
                );
            }
        }
    }

    let mut table = String::from(
        "| workload | metric | median A | median B | quartiles A | spread A | spread B | B worse by | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n",
    );
    let mut steady = all_correct;
    for (workload, sets) in &samples {
        for def in END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(def.name), sets[1].get(def.name)) else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let bound = bounds.get(def.name).copied().unwrap_or(0.0);
            let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
            let gap = worse_by(median(a), median(b), def.better).max(worse_by(
                median(b),
                median(a),
                def.better,
            ));
            // setup_s is held to the bound between sets, not within one.
            let spread_ok = def.name == "setup_s" || spread_a.max(spread_b) <= bound;
            let ok = spread_ok && gap <= bound;
            steady &= ok;
            let [q1, q2, q3] = quartiles(a);
            table.push_str(&format!(
                "| {workload} | {} | {:.4} | {:.4} | {q1:.4} / {q2:.4} / {q3:.4} | {:.2} % | {:.2} % | {:.2} % | {:.1} % | {} |\n",
                def.name,
                median(a),
                median(b),
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * gap,
                100.0 * bound,
                if ok { "ok" } else { "NOISY" },
            ));
        }
    }
    print!("{table}");
    let out_dir = bench_dir().join("out");
    let out = out_dir.join("noise.md");
    if std::fs::create_dir_all(&out_dir).is_ok() && std::fs::write(&out, &table).is_ok() {
        println!("table written to {}", out.display());
    }
    steady
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let text = r#"{"command":["x"],"end_to_end":[
            {"name":"records_per_s","unit":"rec/s","better":"higher","bound":0.1},
            {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        let bounds = parse_bounds(text).expect("valid");
        assert_eq!(bounds["records_per_s"], 0.1);
        assert_eq!(bounds["setup_s"], 0.25);
        assert!(parse_bounds("{}").is_err());
        assert!(parse_bounds(r#"{"end_to_end":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn results_parse_from_the_last_line_only_when_correct() {
        let good = "noise\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"},\"n\":{\"value\":3,\"unit\":\"count\"}}}\n";
        let m = parse_result(good).expect("correct run");
        assert_eq!((m["setup_s"], m["n"]), (1.5, 3.0));
        assert!(parse_result(&good.replace("true", "false")).is_none());
        assert!(parse_result("not json").is_none());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 90.0, "higher") - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "lower") + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(0.0, 5.0, "lower"), 0.0);
    }
}
