//! Pieces every workload shares: the scratch directory, repeated set-up,
//! the mapping fingerprint, and the conversions into stored traces.

use crate::stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tw_core::Reconstruction;
use tw_model::mapping::Mapping;
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;
use tw_pipeline::{stored_traces, DegradationLevel, WindowResult};
use tw_store::StoredTrace;

/// Set-up passes per run; `setup_s` is their median, so one slow pass
/// (a cold page cache, a scheduler hiccup) does not move the metric.
pub const SETUP_REPS: usize = 3;

/// This package's directory: `bench` when run from the checkout root
/// (how `BENCHMARK.json`'s command runs), otherwise the directory the
/// binary was built from.
pub fn bench_dir() -> PathBuf {
    if Path::new("bench/Cargo.toml").is_file() {
        PathBuf::from("bench")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Scratch space under `bench/out/`, inside the checkout and ignored by
/// git, removed when the run ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Scratch {
        let dir = bench_dir()
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("bench/out is writable");
        Scratch(dir)
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// `bench/out/`, where trace files are left for the reader.
    pub fn out_dir(&self) -> &Path {
        self.0.parent().expect("scratch lives under bench/out")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median wall time of one pass.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous pass first so peak memory is one set-up's.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median(&times))
}

/// Order-independent digest of a mapping (FNV-1a over the sorted
/// parent → children lists): equal digests across repetitions show the
/// program computed the same answer every time.
pub fn fingerprint(mapping: &Mapping) -> u64 {
    let mut pairs: Vec<(u64, Vec<u64>)> = mapping
        .iter()
        .map(|(p, kids)| (p.0, kids.iter().map(|k| k.0).collect()))
        .collect();
    pairs.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (parent, kids) in pairs {
        eat(parent);
        eat(kids.len() as u64);
        kids.into_iter().for_each(&mut eat);
    }
    h
}

/// Wrap an offline reconstruction as the window result the archive stage
/// would have seen, so `stored_traces` — the real conversion — applies.
pub fn as_window(
    index: u64,
    records: &[RpcRecord],
    reconstruction: Reconstruction,
) -> WindowResult {
    WindowResult {
        index,
        end: records
            .iter()
            .map(|r| r.recv_resp)
            .max()
            .unwrap_or(Nanos::ZERO),
        records: records.to_vec(),
        reconstruction,
        queue_depth: 0,
        latency: Duration::ZERO,
        warm_edges: 0,
        degradation: DegradationLevel::Full,
        shed_records: 0,
    }
}

pub fn traces_of(
    index: u64,
    records: &[RpcRecord],
    reconstruction: Reconstruction,
) -> Vec<StoredTrace> {
    stored_traces(&as_window(index, records, reconstruction))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_model::ids::RpcId;

    #[test]
    fn fingerprint_ignores_insertion_order_but_not_content() {
        let mut a = Mapping::new();
        a.assign(RpcId(1), [RpcId(2), RpcId(3)]);
        a.assign(RpcId(4), [RpcId(5)]);
        let mut b = Mapping::new();
        b.assign(RpcId(4), [RpcId(5)]);
        b.assign(RpcId(1), [RpcId(2), RpcId(3)]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut c = Mapping::new();
        c.assign(RpcId(1), [RpcId(2)]);
        c.assign(RpcId(4), [RpcId(5), RpcId(3)]);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn median_setup_runs_every_pass_and_keeps_the_last() {
        let mut calls = 0;
        let (last, secs) = median_setup(|| {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (SETUP_REPS, SETUP_REPS));
        assert!(secs >= 0.0);
    }
}
