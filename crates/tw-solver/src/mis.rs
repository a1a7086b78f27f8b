//! Maximum-weight independent set.
//!
//! TraceWeaver casts each optimization batch as MIS: vertices are candidate
//! mappings (weight ∝ likelihood score), edges connect conflicting
//! candidates — two candidates of the same incoming span, or two candidates
//! sharing an outgoing span (§4.1 step 5). Batches are small (≲ 150
//! vertices), so an exact branch-and-bound solves them optimally, like the
//! paper's Gurobi. Its upper bound is a greedy weighted clique cover of the
//! vertices still available: both kinds of edge above come in cliques, so
//! the cover has about one clique per span that can still be assigned and
//! the bound follows the coverage still achievable. (Every weight carries
//! the same large coverage bonus, so a bound that sums the remaining
//! weights prunes nothing: it promises a bonus per vertex where at most one
//! per span can be had.) A node budget keeps worst-case inputs bounded; if
//! it is ever exhausted, the best solution found so far (at least as good
//! as greedy) is returned and flagged as inexact.

use crate::bitset::BitSet;

/// A vertex-weighted conflict graph.
///
/// # Examples
/// ```
/// use tw_solver::mis::{ConflictGraph, SolveOptions};
/// // Path 0—1—2 with a heavy middle vertex: the optimum takes just {1}.
/// let mut g = ConflictGraph::new(vec![1.0, 10.0, 1.0]);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// let solution = g.solve(&SolveOptions::default());
/// assert_eq!(solution.chosen, vec![1]);
/// assert!(solution.exact);
/// ```
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    weights: Vec<f64>,
    adj: Vec<BitSet>,
}

/// Solver knobs.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Maximum branch-and-bound nodes explored before giving up on
    /// optimality (the incumbent is still returned).
    pub node_budget: u64,
    /// Wall-clock deadline: once `Instant::now()` passes it, the search
    /// halts and the incumbent (at least as good as greedy) is returned
    /// flagged inexact. Checked every [`DEADLINE_CHECK_INTERVAL`] nodes
    /// so the clock read does not dominate small solves. `None` means no
    /// time bound. NOTE: a deadline makes results timing-dependent —
    /// engines that guarantee cross-thread determinism must leave it
    /// `None` (see DESIGN.md §9).
    pub deadline: Option<std::time::Instant>,
}

/// How many search nodes are expanded between deadline checks. Bounds
/// deadline overshoot to the time of ~1k node expansions.
pub const DEADLINE_CHECK_INTERVAL: u64 = 1024;

/// The node budget of both [`SolveOptions::default`] and `tw-core`'s
/// `Params::default`. Reconstruction's batches close in a handful of
/// nodes; the budget only bounds the worst case.
pub const DEFAULT_NODE_BUDGET: u64 = 500_000;

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_budget: DEFAULT_NODE_BUDGET,
            deadline: None,
        }
    }
}

/// Result of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MisSolution {
    /// Chosen vertices (ascending).
    pub chosen: Vec<usize>,
    /// Total weight of the chosen set.
    pub weight: f64,
    /// True if the branch-and-bound proved optimality.
    pub exact: bool,
    /// Search nodes expanded (0 for [`ConflictGraph::solve_greedy`]); the
    /// amount this solve added to `tw_solver_nodes_expanded_total`.
    pub nodes: u64,
}

impl ConflictGraph {
    /// Create a graph with the given vertex weights and no edges.
    ///
    /// # Panics
    /// Panics if any weight is negative or non-finite: MIS with negative
    /// weights silently drops those vertices, which is never what the
    /// caller wants here (shift scores before building the graph).
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "vertex weights must be finite and non-negative"
        );
        let n = weights.len();
        ConflictGraph {
            weights,
            adj: (0..n).map(|_| BitSet::new(n)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.weights.len()
    }

    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Add a conflict edge between `u` and `v` (idempotent; self-loops are
    /// ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v {
            return;
        }
        self.adj[u].insert(v);
        self.adj[v].insert(u);
    }

    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(v)
    }

    /// Verify a vertex set is independent.
    pub fn is_independent(&self, vs: &[usize]) -> bool {
        for (i, &u) in vs.iter().enumerate() {
            for &v in &vs[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Greedy solution: repeatedly take the vertex maximizing
    /// `weight / (1 + degree)` among remaining vertices, then delete its
    /// neighborhood.
    pub fn solve_greedy(&self) -> MisSolution {
        let n = self.len();
        let mut remaining = BitSet::full(n);
        let mut chosen = Vec::new();
        let mut weight = 0.0;
        loop {
            let mut best: Option<(f64, usize)> = None;
            for v in remaining.iter() {
                let mut live_deg = 0usize;
                for u in self.adj[v].iter() {
                    if remaining.contains(u) {
                        live_deg += 1;
                    }
                }
                let score = self.weights[v] / (1.0 + live_deg as f64);
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, v));
                }
            }
            let Some((_, v)) = best else { break };
            chosen.push(v);
            weight += self.weights[v];
            remaining.remove(v);
            remaining.subtract(&self.adj[v]);
        }
        chosen.sort_unstable();
        MisSolution {
            chosen,
            weight,
            exact: false,
            nodes: 0,
        }
    }

    /// Exact branch-and-bound solve (falls back to the greedy incumbent if
    /// the node budget or the deadline runs out).
    pub fn solve(&self, opts: &SolveOptions) -> MisSolution {
        let telemetry = crate::telemetry::metrics();
        telemetry.solves.inc();
        let n = self.len();
        if n == 0 {
            return MisSolution {
                chosen: vec![],
                weight: 0.0,
                exact: true,
                nodes: 0,
            };
        }

        // Rank space: heaviest vertex first, so the lowest available rank
        // is always the heaviest available vertex — the head of a clique
        // in the cover below.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.weights[b]
                .partial_cmp(&self.weights[a])
                .expect("weights are finite")
        });
        let rank_of = {
            let mut r = vec![0usize; n];
            for (rank, &v) in order.iter().enumerate() {
                r[v] = rank;
            }
            r
        };
        let weights: Vec<f64> = order.iter().map(|&v| self.weights[v]).collect();
        let mut adj: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        for v in 0..n {
            for u in self.adj[v].iter() {
                adj[rank_of[v]].insert(rank_of[u]);
            }
        }

        let greedy = self.solve_greedy();
        let mut search = Search {
            weights: &weights,
            adj: &adj,
            node_budget: opts.node_budget,
            deadline: opts.deadline,
            nodes: 0,
            halt: None,
            current: Vec::new(),
            best_weight: greedy.weight,
            best_set: greedy.chosen.iter().map(|&v| rank_of[v]).collect(),
        };
        search.expand(BitSet::full(n), 0.0);

        // Per-solve accounting only — the search itself records nothing.
        telemetry.nodes_expanded.add(search.nodes);
        if let Some(halt) = search.halt {
            telemetry.inexact.inc();
            if halt == Halt::Deadline {
                telemetry.deadline_expired.inc();
            }
        }

        // Map rank-space solution back to caller vertex ids.
        let mut chosen: Vec<usize> = search.best_set.iter().map(|&r| order[r]).collect();
        chosen.sort_unstable();
        MisSolution {
            chosen,
            weight: search.best_weight,
            exact: search.halt.is_none(),
            nodes: search.nodes,
        }
    }
}

/// Why a search stopped before proving optimality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    Budget,
    Deadline,
}

/// State of one branch-and-bound search over rank-space vertices.
struct Search<'a> {
    weights: &'a [f64],
    adj: &'a [BitSet],
    node_budget: u64,
    deadline: Option<std::time::Instant>,
    /// Search nodes expanded so far.
    nodes: u64,
    halt: Option<Halt>,
    /// Vertices included on the path to the node being expanded.
    current: Vec<usize>,
    best_weight: f64,
    best_set: Vec<usize>,
}

impl Search<'_> {
    /// Expand the search node whose included vertices weigh `acc` and
    /// whose still-compatible vertices are `avail`.
    fn expand(&mut self, mut avail: BitSet, acc: f64) {
        if self.nodes >= self.node_budget {
            self.halt = Some(Halt::Budget);
            return;
        }
        if self.nodes.is_multiple_of(DEADLINE_CHECK_INTERVAL)
            && self
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
        {
            self.halt = Some(Halt::Deadline);
            return;
        }
        self.nodes += 1;

        // An incumbent is replaced only by a strictly heavier set.
        if acc > self.best_weight {
            self.best_weight = acc;
            self.best_set.clone_from(&self.current);
        }

        // Greedy clique cover of `avail`, as (vertex, bound) in cover order.
        // An independent set holds at most one vertex of a clique, and a
        // clique's head (its lowest rank) is its heaviest member, so a
        // vertex's bound — the sum of the heads of the cliques opened up to
        // it — is at least the weight of any independent set among the
        // vertices covered up to it.
        let mut cover: Vec<(usize, f64)> = Vec::with_capacity(avail.len());
        let mut heads = 0.0;
        let mut uncovered = avail.clone();
        while let Some(head) = uncovered.first() {
            heads += self.weights[head];
            // Vertices that can still join the clique: uncovered and
            // adjacent to every member so far.
            let mut joinable = uncovered.clone();
            let mut member = head;
            loop {
                uncovered.remove(member);
                cover.push((member, heads));
                joinable.intersect_with(&self.adj[member]);
                match joinable.first() {
                    Some(next) => member = next,
                    None => break,
                }
            }
        }

        // Branch on the last-covered vertex first: each step enumerates the
        // independent sets whose last vertex in cover order is `v`, so what
        // is left afterwards lies among the vertices covered before it —
        // and one cover serves every child of this node.
        for &(v, bound) in cover.iter().rev() {
            if acc + bound <= self.best_weight {
                return;
            }
            avail.remove(v);
            let mut child = avail.clone();
            child.subtract(&self.adj[v]);
            self.current.push(v);
            self.expand(child, acc + self.weights[v]);
            self.current.pop();
            if self.halt.is_some() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(g: &ConflictGraph) -> MisSolution {
        g.solve(&SolveOptions::default())
    }

    #[test]
    fn empty_graph() {
        let g = ConflictGraph::new(vec![]);
        let s = solve(&g);
        assert!(s.chosen.is_empty());
        assert_eq!(s.weight, 0.0);
        assert!(s.exact);
    }

    #[test]
    fn no_edges_takes_everything() {
        let g = ConflictGraph::new(vec![1.0, 2.0, 3.0]);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 1, 2]);
        assert_eq!(s.weight, 6.0);
    }

    #[test]
    fn single_edge_takes_heavier() {
        let mut g = ConflictGraph::new(vec![1.0, 5.0]);
        g.add_edge(0, 1);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![1]);
        assert_eq!(s.weight, 5.0);
    }

    #[test]
    fn triangle_takes_max_vertex() {
        let mut g = ConflictGraph::new(vec![2.0, 3.0, 4.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![2]);
    }

    #[test]
    fn path_graph_alternation() {
        // Path 0-1-2-3-4 with uniform weights: optimum is {0,2,4}.
        let mut g = ConflictGraph::new(vec![1.0; 5]);
        for i in 0..4 {
            g.add_edge(i, i + 1);
        }
        let s = solve(&g);
        assert_eq!(s.chosen, vec![0, 2, 4]);
        assert!(s.exact);
    }

    #[test]
    fn weighted_path_prefers_heavy_middle() {
        // Path 0-1-2; middle vertex outweighs both ends.
        let mut g = ConflictGraph::new(vec![1.0, 10.0, 1.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let s = solve(&g);
        assert_eq!(s.chosen, vec![1]);
        assert_eq!(s.weight, 10.0);
    }

    #[test]
    fn greedy_is_feasible() {
        let mut g = ConflictGraph::new(vec![3.0, 2.0, 2.0, 3.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let s = g.solve_greedy();
        assert!(g.is_independent(&s.chosen));
        // Exact must be at least as good as greedy.
        let e = solve(&g);
        assert!(e.weight >= s.weight);
        assert_eq!(e.weight, 6.0); // {0, 3}
    }

    #[test]
    fn exact_beats_or_matches_greedy_on_random_graphs() {
        // Deterministic pseudo-random graphs via a simple LCG.
        let mut state = 12345u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        for trial in 0..20 {
            let n = 12 + trial % 8;
            let mut weights = Vec::new();
            for _ in 0..n {
                weights.push(1.0 + rand() * 10.0);
            }
            let mut g = ConflictGraph::new(weights);
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand() < 0.3 {
                        g.add_edge(u, v);
                    }
                }
            }
            let greedy = g.solve_greedy();
            let exact = solve(&g);
            assert!(g.is_independent(&exact.chosen));
            assert!(
                exact.weight >= greedy.weight - 1e-9,
                "exact {} < greedy {} at trial {trial}",
                exact.weight,
                greedy.weight
            );
            assert!(exact.exact);
        }
    }

    #[test]
    fn exact_matches_brute_force_small() {
        let mut state = 999u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (u32::MAX as f64 / 2.0)
        };
        for _ in 0..30 {
            let n = 10;
            let weights: Vec<f64> = (0..n).map(|_| 1.0 + rand() * 5.0).collect();
            let mut g = ConflictGraph::new(weights.clone());
            for u in 0..n {
                for v in (u + 1)..n {
                    if rand() < 0.4 {
                        g.add_edge(u, v);
                    }
                }
            }
            // Brute force over all subsets.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let vs: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                if g.is_independent(&vs) {
                    let w: f64 = vs.iter().map(|&i| weights[i]).sum();
                    best = best.max(w);
                }
            }
            let s = solve(&g);
            assert!((s.weight - best).abs() < 1e-9, "{} vs {}", s.weight, best);
        }
    }

    #[test]
    fn node_budget_degrades_gracefully() {
        // Uniform 5-cycle: greedy finds 2 and no clique cover of an odd
        // cycle says less than 3, so the root cannot close the search.
        let mut g = ConflictGraph::new(vec![1.0; 5]);
        for u in 0..5 {
            g.add_edge(u, (u + 1) % 5);
        }
        let s = g.solve(&SolveOptions {
            node_budget: 1,
            ..SolveOptions::default()
        });
        assert!(!s.exact);
        assert!(g.is_independent(&s.chosen));
        assert!(s.weight > 0.0);
        assert_eq!(s.nodes, 1, "the budget is the number of nodes expanded");
        let s = solve(&g);
        assert!(s.exact);
        assert_eq!(s.weight, 2.0);
    }

    #[test]
    fn cover_bound_closes_a_conflict_free_graph_at_the_root() {
        // Greedy takes every vertex and the cover is one clique per
        // vertex: bound == incumbent, so the root is the only node.
        let s = solve(&ConflictGraph::new(vec![1.0, 2.0, 3.0]));
        assert!(s.exact);
        assert_eq!(s.nodes, 1);
    }

    /// 200 uniform-weight vertices with seeded random edges at density 0.1:
    /// far beyond what any deadline in these tests lets the search finish.
    fn hard_graph() -> ConflictGraph {
        use rand::{Rng, SeedableRng};
        let n = 200;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        let mut g = ConflictGraph::new(vec![1.0; n]);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.1) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn deadline_halt_reports_the_nodes_it_expanded() {
        let g = hard_graph();
        let node_budget = 1 << 40;
        let s = g.solve(&SolveOptions {
            node_budget,
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_millis(5)),
        });
        assert!(!s.exact);
        assert!(g.is_independent(&s.chosen));
        assert!(s.weight >= g.solve_greedy().weight);
        // The clock is read only every DEADLINE_CHECK_INTERVAL nodes, and a
        // deadline halt must not be reported as the whole budget.
        assert!(s.nodes.is_multiple_of(DEADLINE_CHECK_INTERVAL));
        assert!(s.nodes < node_budget, "{} nodes", s.nodes);
    }

    #[test]
    fn expired_deadline_returns_greedy_incumbent() {
        let mut g = ConflictGraph::new(vec![3.0, 2.0, 2.0, 3.0]);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let s = g.solve(&SolveOptions {
            deadline: Some(past),
            ..SolveOptions::default()
        });
        assert!(!s.exact, "deadline-hit solves are flagged inexact");
        assert_eq!(s.nodes, 0, "no node is expanded past the deadline");
        assert!(g.is_independent(&s.chosen));
        let greedy = g.solve_greedy();
        assert!(s.weight >= greedy.weight, "incumbent at least greedy");
    }

    #[test]
    fn generous_deadline_stays_exact() {
        let mut g = ConflictGraph::new(vec![1.0; 12]);
        for i in 0..11 {
            g.add_edge(i, i + 1);
        }
        let far = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let s = g.solve(&SolveOptions {
            deadline: Some(far),
            ..SolveOptions::default()
        });
        assert!(s.exact);
        assert_eq!(s.weight, 6.0); // alternating vertices of a 12-path
    }

    #[test]
    #[should_panic]
    fn negative_weights_rejected() {
        let _ = ConflictGraph::new(vec![1.0, -2.0]);
    }
}
