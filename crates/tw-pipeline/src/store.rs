//! Offline deployment mode: persist spans, reconstruct on demand, and
//! learn / persist delay registries for warm-starting engines.

use parking_lot::RwLock;
use std::io::BufReader;
use std::path::Path;
use tw_core::{DelayRegistry, Reconstruction, TraceWeaver};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_store::frame::atomic_write;

/// Store contents plus the sort flag guarding the binary-search index.
#[derive(Debug, Default)]
struct Inner {
    records: Vec<RpcRecord>,
    /// Whether `records` is currently sorted by `(send_req, rpc)`.
    /// Ingest appends unsorted and clears this; the first query after an
    /// ingest re-sorts once, so N ingests + M queries cost one sort, not
    /// M scans.
    sorted: bool,
}

/// A thread-safe append-only span store with time-range queries and
/// JSON-lines persistence.
///
/// Records are kept sorted by `(send_req, rpc)` lazily: ingestion is a
/// plain append, and the first query after an ingest sorts the backing
/// vector so every range query is a pair of binary searches over a
/// contiguous slice instead of a full scan.
#[derive(Debug, Default)]
pub struct OfflineStore {
    inner: RwLock<Inner>,
}

impl OfflineStore {
    pub fn new() -> Self {
        OfflineStore::default()
    }

    /// Append a batch of records (any order; queries sort internally).
    pub fn ingest(&self, batch: &[RpcRecord]) {
        if batch.is_empty() {
            return;
        }
        let mut inner = self.inner.write();
        inner.records.extend_from_slice(batch);
        inner.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().records.is_empty()
    }

    /// Sort the backing vector if an ingest dirtied it since the last
    /// query. Double-checked under the write lock: concurrent queries may
    /// race to this point and only one should pay for the sort.
    fn ensure_sorted(&self) {
        if self.inner.read().sorted {
            return;
        }
        let mut inner = self.inner.write();
        if !inner.sorted {
            inner.records.sort_unstable_by_key(|r| (r.send_req, r.rpc));
            inner.sorted = true;
        }
    }

    /// Records whose request was sent within `[from, to)`, in
    /// `(send_req, rpc)` order.
    pub fn query(&self, from: Nanos, to: Nanos) -> Vec<RpcRecord> {
        self.ensure_sorted();
        let inner = self.inner.read();
        let recs = &inner.records;
        let lo = recs.partition_point(|r| r.send_req < from);
        let hi = recs.partition_point(|r| r.send_req < to);
        recs[lo..hi].to_vec()
    }

    /// Reconstruct traces for a time range on demand (the paper's offline
    /// workflow: "TraceWeaver can selectively run the algorithm on spans
    /// from that period").
    pub fn reconstruct_range(&self, tw: &TraceWeaver, from: Nanos, to: Nanos) -> Reconstruction {
        tw.reconstruct_records(&self.query(from, to))
    }

    /// Replay the whole store through warm-started windows of length
    /// `window` and return the accumulated delay registry: window *k+1*
    /// starts from window *k*'s posterior, exactly like the online warm
    /// path. Feed the result to `OnlineConfig::initial_registry` or a
    /// warm `reconstruct_records_with_registry` call. A zero `window`
    /// processes the store as a single window.
    pub fn learn_delays(&self, tw: &TraceWeaver, window: Nanos) -> DelayRegistry {
        let mut registry = DelayRegistry::new();
        let all = self.query(Nanos::ZERO, Nanos::MAX);
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

    /// Persist all records as JSON lines, in `(send_req, rpc)` order.
    /// Atomic ([`atomic_write`]), so a crash mid-save never truncates an
    /// existing store.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.ensure_sorted();
        let mut bytes = Vec::new();
        for rec in self.inner.read().records.iter() {
            serde_json::to_writer(&mut bytes, rec)?;
            bytes.push(b'\n');
        }
        atomic_write(path, &bytes)
    }

    /// Load records from a JSON-lines file into a new store.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let reader = BufReader::new(file);
        let mut records = Vec::new();
        use std::io::BufRead;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: RpcRecord = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            records.push(rec);
        }
        Ok(OfflineStore {
            inner: RwLock::new(Inner {
                records,
                sorted: false,
            }),
        })
    }
}

/// Persist a delay registry as pretty-printed JSON (the `twctl
/// learn-delays` output format; see DESIGN.md §8). Atomic, like
/// [`OfflineStore::save`].
pub fn save_registry(path: &Path, registry: &DelayRegistry) -> std::io::Result<()> {
    let mut text = serde_json::to_string_pretty(registry)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    text.push('\n');
    atomic_write(path, text.as_bytes())
}

/// Load a delay registry saved by [`save_registry`].
pub fn load_registry(path: &Path) -> std::io::Result<DelayRegistry> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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
    fn ingest_and_query_range() {
        let store = OfflineStore::new();
        store.ingest(&[rec(0, 100), rec(1, 500), rec(2, 900)]);
        assert_eq!(store.len(), 3);
        let hits = store.query(Nanos::from_micros(200), Nanos::from_micros(800));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rpc, RpcId(1));
    }

    /// Queries between ingests must keep seeing a consistent sorted view:
    /// every ingest dirties the sort flag and the next query re-sorts.
    #[test]
    fn interleaved_ingest_and_query() {
        let store = OfflineStore::new();
        // Out-of-order first batch.
        store.ingest(&[rec(2, 900), rec(0, 100)]);
        let hits = store.query(Nanos::ZERO, Nanos::MAX);
        assert_eq!(
            hits.iter().map(|r| r.rpc).collect::<Vec<_>>(),
            vec![RpcId(0), RpcId(2)],
            "query returns (send_req, rpc) order"
        );
        // Second ingest lands *before* existing records in time.
        store.ingest(&[rec(1, 500), rec(3, 50)]);
        let hits = store.query(Nanos::from_micros(60), Nanos::from_micros(600));
        assert_eq!(
            hits.iter().map(|r| r.rpc).collect::<Vec<_>>(),
            vec![RpcId(0), RpcId(1)],
            "records from both batches merge into one sorted view"
        );
        // Boundary semantics: [from, to) half-open on send_req.
        let hits = store.query(Nanos::from_micros(50), Nanos::from_micros(100));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rpc, RpcId(3));
        // Ties on send_req break by rpc id.
        store.ingest(&[rec(10, 500)]);
        let hits = store.query(Nanos::from_micros(500), Nanos::from_micros(501));
        assert_eq!(
            hits.iter().map(|r| r.rpc).collect::<Vec<_>>(),
            vec![RpcId(1), RpcId(10)]
        );
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn save_load_round_trip() {
        let store = OfflineStore::new();
        store.ingest(&[rec(0, 100), rec(1, 500)]);
        let dir = std::env::temp_dir().join("tw-pipeline-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        store.save(&path).unwrap();
        let loaded = OfflineStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.query(Nanos::ZERO, Nanos::MAX),
            store.query(Nanos::ZERO, Nanos::MAX)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store() {
        let store = OfflineStore::new();
        assert!(store.is_empty());
        assert!(store.query(Nanos::ZERO, Nanos::MAX).is_empty());
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
        let store = OfflineStore::new();
        store.ingest(&out.records);

        let tw = TraceWeaver::new(call_graph, Params::default());
        let registry = store.learn_delays(&tw, Nanos::from_millis(250));
        assert!(!registry.is_empty(), "learned registry has edges");
        assert!(registry.rounds() >= 2, "several windows absorbed");
        // Single-window replay also works and sees every record.
        let one_shot = store.learn_delays(&tw, Nanos::ZERO);
        assert!(!one_shot.is_empty());
        assert_eq!(one_shot.rounds(), 1);
    }
}
