//! Offline deployment mode: persist spans as JSON lines, and learn /
//! persist delay registries for warm-starting engines.

use std::io::{BufRead, BufReader};
use std::path::Path;
use tw_core::{DelayRegistry, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_store::frame::atomic_write;

fn invalid_data(e: serde_json::Error) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// `records` in `(send_req, rpc)` order.
fn sorted(records: &[RpcRecord]) -> Vec<RpcRecord> {
    let mut all = records.to_vec();
    all.sort_unstable_by_key(|r| (r.send_req, r.rpc));
    all
}

/// Persist `records` as JSON lines, in `(send_req, rpc)` order. Atomic
/// ([`atomic_write`]), so a crash mid-save never truncates an existing
/// file.
pub fn save_spans(path: &Path, records: &[RpcRecord]) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    for rec in &sorted(records) {
        serde_json::to_writer(&mut bytes, rec)?;
        bytes.push(b'\n');
    }
    atomic_write(path, &bytes)
}

/// Load the records of a JSON-lines span file, skipping blank lines.
pub fn load_spans(path: &Path) -> std::io::Result<Vec<RpcRecord>> {
    let mut records = Vec::new();
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        let line = line?;
        if !line.trim().is_empty() {
            records.push(serde_json::from_str(&line).map_err(invalid_data)?);
        }
    }
    Ok(records)
}

/// Replay `records` through warm-started windows of length `window` and
/// return the accumulated delay registry: window *k+1* starts from window
/// *k*'s posterior, exactly like the online warm path. Windows run over
/// `(send_req, rpc)` order and start at the first record; a zero `window`
/// processes every record as a single window. Feed the result to
/// `OnlineConfig::initial_registry` or a warm
/// `reconstruct_records_with_registry` call.
pub fn learn_delays(tw: &TraceWeaver, records: &[RpcRecord], window: Nanos) -> DelayRegistry {
    let mut registry = DelayRegistry::new();
    let all = sorted(records);
    let Some(first) = all.first() else {
        return registry;
    };
    if window == Nanos::ZERO {
        return tw.reconstruct_records_with_registry(&all, &registry).1;
    }
    let mut start = first.send_req;
    let mut lo = 0usize;
    while lo < all.len() {
        let end = start + window;
        let hi = lo + all[lo..].partition_point(|r| r.send_req < end);
        if hi > lo {
            registry = tw
                .reconstruct_records_with_registry(&all[lo..hi], &registry)
                .1;
        }
        lo = hi;
        start = end;
    }
    registry
}

/// Persist a delay registry as pretty-printed JSON (the `twctl
/// learn-delays` output format; see DESIGN.md §8). Atomic, like
/// [`save_spans`].
pub fn save_registry(path: &Path, registry: &DelayRegistry) -> std::io::Result<()> {
    let mut text = serde_json::to_string_pretty(registry).map_err(invalid_data)?;
    text.push('\n');
    atomic_write(path, text.as_bytes())
}

/// Load a delay registry saved by [`save_registry`].
pub fn load_registry(path: &Path) -> std::io::Result<DelayRegistry> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(invalid_data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::span::EXTERNAL;

    fn rec(rpc: u64, at_us: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(0), OperationId(0)),
            callee_replica: 0,
            send_req: Nanos::from_micros(at_us),
            recv_req: Nanos::from_micros(at_us + 10),
            send_resp: Nanos::from_micros(at_us + 100),
            recv_resp: Nanos::from_micros(at_us + 110),
            caller_thread: None,
            callee_thread: None,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("tw-pipeline-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        // Saved in (send_req, rpc) order, whatever order they came in.
        save_spans(&path, &[rec(2, 500), rec(0, 100), rec(1, 500)]).unwrap();
        let loaded = load_spans(&path).unwrap();
        assert_eq!(loaded, vec![rec(0, 100), rec(1, 500), rec(2, 500)]);
        save_spans(&path, &[]).unwrap();
        assert!(load_spans(&path).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn registry_file_round_trip() {
        use std::collections::HashMap;
        use tw_core::delays::EdgeKey;
        use tw_model::span::ProcessKey;

        let mut registry = DelayRegistry::new();
        let process = ProcessKey::new(ServiceId(1), 0);
        let edge = EdgeKey::Final {
            served: Endpoint::new(ServiceId(1), OperationId(0)),
        };
        let mut gaps = HashMap::new();
        gaps.insert(edge, vec![100.0, 120.0, 95.0, 130.0, 110.0]);
        registry.absorb(process, &gaps);
        registry.finish_round();

        let dir = std::env::temp_dir().join("tw-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.json");
        save_registry(&path, &registry).unwrap();
        let loaded = load_registry(&path).unwrap();
        assert_eq!(loaded.rounds(), registry.rounds());
        assert_eq!(loaded.len(), registry.len());
        let model = loaded.model_for(&process).expect("process survives");
        let original = registry.model_for(&process).unwrap();
        let x = 105.0;
        assert!((model.log_pdf(&edge, x) - original.log_pdf(&edge, x)).abs() < 1e-9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn learn_delays_accumulates_windows() {
        use tw_core::Params;
        use tw_sim::apps::two_service_chain;
        use tw_sim::{Simulator, Workload};

        let app = two_service_chain(55);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 400.0, Nanos::from_secs(1)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let registry = learn_delays(&tw, &out.records, Nanos::from_millis(250));
        assert!(!registry.is_empty(), "learned registry has edges");
        assert!(registry.rounds() >= 2, "several windows absorbed");
        // Single-window replay also works and sees every record.
        let one_shot = learn_delays(&tw, &out.records, Nanos::ZERO);
        assert!(!one_shot.is_empty());
        assert_eq!(one_shot.rounds(), 1);
        assert!(learn_delays(&tw, &[], Nanos::ZERO).is_empty());
    }
}
