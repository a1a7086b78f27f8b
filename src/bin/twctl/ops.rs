//! Reading a running pipeline back: its exposition (`metrics`, and `top`'s
//! operator screen over it), its dead letters, and its trace archive.

use super::{flag, num, opt_num, Flags};
use std::collections::HashMap;
use std::path::Path;
use traceweaver::model::RpcRecord;

/// Resolve `--addr` into a socket address.
fn scrape_addr(flags: &Flags) -> Result<std::net::SocketAddr, String> {
    let addr = flag(flags, "addr")?;
    addr.parse()
        .map_err(|e| format!("--addr `{addr}`: {e} (expected HOST:PORT)"))
}

pub(crate) fn cmd_metrics(flags: &Flags) -> Result<(), String> {
    let addr = scrape_addr(flags)?;
    let text =
        traceweaver::pipeline::fetch(addr, "/metrics").map_err(|e| format!("{addr}: {e}"))?;
    print!("{text}");
    Ok(())
}

/// Pretty-print a running pipeline's `/deadletters`, and resubmit the
/// captured records with `--resubmit --to HOST:PORT` (`twctl help`).
pub(crate) fn cmd_deadletters(flags: &Flags) -> Result<(), String> {
    use traceweaver::pipeline::{export_records, fetch, DeadLetter};

    let addr = scrape_addr(flags)?;
    let text = fetch(addr, "/deadletters").map_err(|e| format!("{addr}: {e}"))?;
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

/// Query archived traces from `--dir` or a server's `/traces` at `--addr`
/// (`twctl help`): one line per trace, or the raw document with `--json`.
pub(crate) fn cmd_query(flags: &Flags) -> Result<(), String> {
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

pub(crate) fn cmd_top(flags: &Flags) -> Result<(), String> {
    let addr = scrape_addr(flags)?;
    let interval_ms: u64 = num(flags, "interval-ms", 1_000u64)?;
    let iterations: u64 = num(flags, "iterations", 0u64)?; // 0 = forever
    let limit: usize = num(flags, "limit", 20usize)?;

    let mut prev: HashMap<String, f64> = HashMap::new();
    let mut round = 0u64;
    loop {
        let text =
            traceweaver::pipeline::fetch(addr, "/metrics").map_err(|e| format!("{addr}: {e}"))?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
