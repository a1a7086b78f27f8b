//! Benchmark harness shared by the per-figure binaries.
//!
//! Every table and figure of the paper's evaluation (§6) has a binary in
//! `src/bin/` that regenerates it:
//!
//! | binary  | paper artifact |
//! |---------|----------------|
//! | `fig4a` | accuracy vs load, 3 apps × 4 algorithms (+ top-5 series) |
//! | `fig4b` | accuracy vs end-to-end response-time bracket |
//! | `fig4c` | accuracy under caching dynamism (5%–80% hit rate) |
//! | `fig4d` | accuracy under async-I/O interleaving |
//! | `fig5`  | ablation study |
//! | `fig6a` | Alibaba dataset: accuracy vs load multiple (15 graphs) |
//! | `fig6b` | per-service confidence vs accuracy (Pearson r) |
//! | `fig6c` | tail-latency troubleshooting use case |
//! | `fig6d` | A/B-testing use case (p-value vs redirect fraction) |
//!
//! Each binary prints its table and writes a JSON artifact under
//! `results/`. Set `TW_BENCH_QUICK=1` to shrink workloads for smoke runs.
//! No binary here takes a timing: §6.5 (runtime to map spans) and every
//! other wall-clock number come from the repository benchmark in `bench/`
//! (`offline_dense` `records_per_s`).

pub mod harness;
pub mod report;

pub use harness::{bench_threads, e2e_accuracy, reconstruct_with, sim_app, traceweaver, Algo};
pub use report::{RunMeta, Table};

/// True when quick mode is requested (CI / smoke runs).
pub fn quick_mode() -> bool {
    std::env::var("TW_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Scale a duration in milliseconds down in quick mode.
pub fn ms(full: u64) -> u64 {
    if quick_mode() {
        (full / 8).max(100)
    } else {
        full
    }
}
