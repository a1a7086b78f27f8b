//! The offline commands, on span files: `simulate` writes `spans.jsonl`
//! (observable records, one JSON per line), `graph.json` (the app's call
//! graph + dependency order) and `truth.json` (ground truth, for
//! evaluation only); `reconstruct` needs only the first two, exactly like
//! a production deployment.

use super::{flag, num, params_from, read_json, spans_flag, Flags};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use traceweaver::model::export::to_jaeger;
use traceweaver::model::span::EXTERNAL;
use traceweaver::model::RpcRecord;
use traceweaver::prelude::*;
use traceweaver::sim::apps::{
    hotel_reservation, media_microservices, nodejs_app, two_service_chain, BenchApp,
};

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

pub(crate) fn cmd_simulate(flags: &Flags) -> Result<(), String> {
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

pub(crate) fn cmd_learn_graph(flags: &Flags) -> Result<(), String> {
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

pub(crate) fn cmd_learn_delays(flags: &Flags) -> Result<(), String> {
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

/// Apply `--sanitize` when requested: replay the recorded spans through
/// the online sanitizer (dedup, causality, skew correction) and keep the
/// survivors.
fn maybe_sanitize(flags: &Flags, records: Vec<RpcRecord>) -> Vec<RpcRecord> {
    if !flags.contains_key("sanitize") {
        return records;
    }
    let mut sanitizer = traceweaver::pipeline::Sanitizer::new(Default::default());
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

pub(crate) fn cmd_reconstruct(flags: &Flags) -> Result<(), String> {
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

pub(crate) fn cmd_waterfall(flags: &Flags) -> Result<(), String> {
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

pub(crate) fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
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
