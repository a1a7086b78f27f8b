//! Tunable parameters (paper Table 1) plus the ablation toggles used by
//! the Figure 5 study.

use serde::{Deserialize, Serialize};

/// TraceWeaver's tuning knobs. Defaults follow the paper's Table 1.
///
/// Note: the paper's Table 1 lists `B = 30` while the §4.1 step-2 text
/// mentions a threshold of 100; we default to the table value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Maximum size of an optimization batch (Table 1: B = 30).
    pub batch_size: usize,
    /// Maximum candidates kept per span for the joint optimization
    /// (Table 1: K = 5).
    pub top_k: usize,
    /// Buckets used for the seed-distribution variance estimate
    /// (Table 1: R = 10).
    pub seed_buckets: usize,
    /// Wall-clock budget, in microseconds, shared by all MIS solves of one
    /// reconstruction pass (0 = unbounded). When the deadline expires each
    /// remaining batch ships its greedy incumbent and is counted in
    /// [`crate::TaskReport::inexact_batches`]. NOTE: a nonzero deadline
    /// makes results timing-dependent — paths that guarantee bit-identical
    /// output across thread counts must leave it 0.
    pub solver_deadline_us: u64,
    /// Workers per reconstruction pass (per shard, online): per-container
    /// tasks are pulled from one shared queue, and each task runs
    /// sequentially. `1` (the default) runs inline; `0` acts as `1`.
    /// Output is identical for every value — threads change wall time
    /// only.
    pub threads: usize,
    /// Enable dynamism handling (skip spans). Off by default: the static
    /// algorithm is the paper's §4.1; turn on for workloads with caching /
    /// failures / A-B subsetting.
    pub handle_dynamism: bool,
    /// Thread-affinity hints (paper §7 "Identifying thread affinity"):
    /// when both the parent's recv thread and a candidate child's send
    /// thread are known, require them to match. Sound ONLY for services
    /// with a blocking worker-pool model (no hand-offs); enable it per
    /// deployment when that is known to hold. Off by default.
    pub use_thread_hints: bool,

    // --- Ablation toggles (Figure 5) ---
    /// Use the dependency order to constrain candidates (line 3 of the
    /// ablation: "using invocation order to apply constraints").
    pub use_order_constraints: bool,
    /// Iterate to improve delay distributions (line 4: when false, only
    /// the seed-Gaussian pass runs).
    pub use_iteration: bool,
    /// Jointly optimize across spans in batches (line 5: when false, each
    /// span independently takes its best-scoring candidate, first-come
    /// first-served on conflicts).
    pub use_joint_optimization: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            batch_size: 30,
            top_k: 5,
            seed_buckets: 10,
            solver_deadline_us: 0,
            threads: 1,
            handle_dynamism: false,
            use_thread_hints: false,
            use_order_constraints: true,
            use_iteration: true,
            use_joint_optimization: true,
        }
    }
}

impl Params {
    /// Paper defaults with dynamism handling enabled.
    pub fn with_dynamism() -> Self {
        Params {
            handle_dynamism: true,
            ..Params::default()
        }
    }

    /// Paper defaults plus thread-affinity candidate pruning (§7), for
    /// deployments known to use blocking worker pools.
    pub fn with_thread_hints() -> Self {
        Params {
            use_thread_hints: true,
            ..Params::default()
        }
    }

    /// Paper defaults with `threads` reconstruction workers.
    pub fn with_threads(threads: usize) -> Self {
        Params {
            threads,
            ..Params::default()
        }
    }

    /// Ablation: no dependency-order constraints.
    pub fn ablate_order_constraints(mut self) -> Self {
        self.use_order_constraints = false;
        self
    }

    /// Ablation: no distribution-improving iterations.
    pub fn ablate_iteration(mut self) -> Self {
        self.use_iteration = false;
        self
    }

    /// Ablation: no joint optimization (greedy per-span assignment).
    pub fn ablate_joint_optimization(mut self) -> Self {
        self.use_joint_optimization = false;
        self
    }

    /// Materialize [`Params::solver_deadline_us`] as an absolute instant,
    /// anchored at the moment of the call (reconstruction-pass start).
    /// `None` when the budget is 0 (unbounded).
    pub fn solver_deadline(&self) -> Option<std::time::Instant> {
        (self.solver_deadline_us > 0).then(|| {
            std::time::Instant::now() + std::time::Duration::from_micros(self.solver_deadline_us)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let p = Params::default();
        assert_eq!(p.batch_size, 30);
        assert_eq!(p.top_k, 5);
        assert_eq!(p.seed_buckets, 10);
        assert_eq!(p.threads, 1, "default must stay sequential");
    }

    #[test]
    fn with_threads_builder() {
        let p = Params::with_threads(8);
        assert_eq!(p.threads, 8);
        assert_eq!(p.batch_size, Params::default().batch_size);
    }

    #[test]
    fn ablation_builders() {
        let p = Params::default().ablate_order_constraints();
        assert!(!p.use_order_constraints);
        let p = Params::default().ablate_iteration();
        assert!(!p.use_iteration);
        let p = Params::default().ablate_joint_optimization();
        assert!(!p.use_joint_optimization);
    }
}
