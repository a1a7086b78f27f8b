//! Combinatorial solvers used by TraceWeaver's joint optimization.
//!
//! The paper solves each optimization batch as a maximum-weight independent
//! set (MIS) problem using Gurobi (§4.1 step 5). This crate provides a
//! self-contained replacement:
//!
//! * [`mis`] — an exact branch-and-bound weighted MIS solver with a greedy
//!   incumbent, a clique-cover bound and a node budget; when the budget is
//!   exhausted it degrades to the best solution found (still a valid
//!   independent set),
//! * [`waterfill`] — the water-filling allocator that distributes skip-span
//!   budget across batches when handling call-graph dynamism (§4.2).

pub mod bitset;
pub mod mis;
mod telemetry;
pub mod waterfill;

pub use bitset::BitSet;
pub use mis::{ConflictGraph, MisSolution, SolveOptions};
pub use telemetry::register_metrics;
pub use waterfill::water_fill;
