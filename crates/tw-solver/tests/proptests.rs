//! Property-based tests for the MIS solver and water-filling allocator.

use proptest::prelude::*;
use tw_solver::mis::{ConflictGraph, SolveOptions};
use tw_solver::water_fill;

/// Random small graph: weights plus an edge bitmask.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = (Vec<f64>, Vec<(usize, usize)>)> {
    (2..max_n).prop_flat_map(|n| {
        let weights = prop::collection::vec(0.0f64..100.0, n);
        let edges = prop::collection::vec((0..n, 0..n), 0..n * 2);
        (weights, edges)
    })
}

fn build(weights: Vec<f64>, edges: &[(usize, usize)]) -> ConflictGraph {
    let mut g = ConflictGraph::new(weights);
    for &(u, v) in edges {
        if u != v {
            g.add_edge(u, v);
        }
    }
    g
}

/// One candidate mapping of a parent: the child ids it claims and its
/// score crumb in `0..SCORE_RANGE`.
type Candidate = (Vec<usize>, f64);

const SCORE_RANGE: f64 = 10.0;

/// Batches shaped like the ones `tw-core`'s `optimize_mis` builds:
/// `parents` parents with `candidates` candidates each, every candidate
/// claiming 1–3 children out of a shared pool of `pool_per_parent` child
/// ids per parent. The smaller the pool, the more candidates of different
/// parents compete for a child.
fn batch_strategy(
    parents: std::ops::Range<usize>,
    candidates: std::ops::Range<usize>,
    pool_per_parent: usize,
) -> impl Strategy<Value = Vec<Vec<Candidate>>> {
    parents.prop_flat_map(move |p| {
        let children = prop::collection::vec(0..pool_per_parent * p, 1..4);
        let candidate = (children, 0.0..SCORE_RANGE);
        prop::collection::vec(prop::collection::vec(candidate, candidates.clone()), p)
    })
}

/// Every candidate's weight is one coverage bonus above the whole score
/// range, as in `optimize_mis`.
fn batch_weight(batch: &[Vec<Candidate>], score: f64) -> f64 {
    SCORE_RANGE * (batch.len() as f64 + 1.0) + score
}

/// The batch's conflict graph: a clique per parent and a clique per shared
/// child. Vertices are the candidates in batch order.
fn batch_graph(batch: &[Vec<Candidate>]) -> ConflictGraph {
    let vertices: Vec<(usize, &Candidate)> = batch
        .iter()
        .enumerate()
        .flat_map(|(p, cands)| cands.iter().map(move |c| (p, c)))
        .collect();
    let weights = vertices
        .iter()
        .map(|(_, c)| batch_weight(batch, c.1))
        .collect();
    let mut g = ConflictGraph::new(weights);
    for (u, (pu, cu)) in vertices.iter().enumerate() {
        for (v, (pv, cv)) in vertices.iter().enumerate().skip(u + 1) {
            if pu == pv || cu.0.iter().any(|child| cv.0.contains(child)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Best total weight over every assignment of parents `p..` — each parent
/// unassigned or given one candidate whose children are all unclaimed.
/// Exhaustive: `(K + 1)^P` assignments, no bounding.
fn best_assignment(batch: &[Vec<Candidate>], p: usize, claimed: &mut [bool]) -> f64 {
    let Some(cands) = batch.get(p) else {
        return 0.0;
    };
    let mut best = best_assignment(batch, p + 1, claimed);
    for (children, score) in cands {
        if children.iter().any(|&c| claimed[c]) {
            continue;
        }
        for &c in children {
            claimed[c] = true;
        }
        let rest = best_assignment(batch, p + 1, claimed);
        best = best.max(batch_weight(batch, *score) + rest);
        for &c in children {
            claimed[c] = false;
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solution_is_always_independent((weights, edges) in graph_strategy(20)) {
        let g = build(weights.clone(), &edges);
        let s = g.solve(&SolveOptions::default());
        prop_assert!(g.is_independent(&s.chosen));
        let recomputed: f64 = s.chosen.iter().map(|&v| weights[v]).sum();
        prop_assert!((s.weight - recomputed).abs() < 1e-9, "{} vs {}", s.weight, recomputed);
    }

    #[test]
    fn exact_at_least_greedy((weights, edges) in graph_strategy(18)) {
        let g = build(weights, &edges);
        let greedy = g.solve_greedy();
        let exact = g.solve(&SolveOptions::default());
        prop_assert!(exact.weight >= greedy.weight - 1e-9);
    }

    #[test]
    fn exact_matches_brute_force((weights, edges) in graph_strategy(12)) {
        let g = build(weights.clone(), &edges);
        let n = weights.len();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let vs: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if g.is_independent(&vs) {
                best = best.max(vs.iter().map(|&i| weights[i]).sum());
            }
        }
        let s = g.solve(&SolveOptions::default());
        prop_assert!((s.weight - best).abs() < 1e-6, "solver {} vs brute {}", s.weight, best);
    }

    #[test]
    fn batch_shaped_graphs_match_assignment_brute_force(batch in batch_strategy(1..9, 1..6, 2)) {
        let g = batch_graph(&batch);
        let best = best_assignment(&batch, 0, &mut vec![false; 2 * batch.len()]);
        let s = g.solve(&SolveOptions::default());
        prop_assert!(s.exact);
        prop_assert!(g.is_independent(&s.chosen));
        prop_assert!((s.weight - best).abs() < 1e-6, "solver {} vs brute {}", s.weight, best);
    }

    #[test]
    fn greedy_solution_is_maximal((weights, edges) in graph_strategy(20)) {
        let g = build(weights, &edges);
        let s = g.solve_greedy();
        // No vertex can be added without breaking independence.
        for v in 0..g.len() {
            if s.chosen.contains(&v) {
                continue;
            }
            let conflicts = s.chosen.iter().any(|&u| g.has_edge(u, v));
            prop_assert!(conflicts, "vertex {v} could be added to greedy solution");
        }
    }

    #[test]
    fn water_fill_invariants(
        budget in 0usize..500,
        quotas in prop::collection::vec(0usize..50, 0..30),
    ) {
        let alloc = water_fill(budget, &quotas);
        prop_assert_eq!(alloc.len(), quotas.len());
        for (a, q) in alloc.iter().zip(&quotas) {
            prop_assert!(a <= q);
        }
        let total: usize = alloc.iter().sum();
        let expected = budget.min(quotas.iter().sum());
        prop_assert_eq!(total, expected);
    }

    #[test]
    fn water_fill_max_min_fair(
        budget in 1usize..100,
        quotas in prop::collection::vec(1usize..30, 2..10),
    ) {
        // Fairness: if consumer i got strictly less than consumer j, then
        // i must be saturated (water-filling never over-serves one consumer
        // while another unsaturated one has less).
        let alloc = water_fill(budget, &quotas);
        for i in 0..alloc.len() {
            for j in 0..alloc.len() {
                if alloc[i] + 1 < alloc[j] {
                    prop_assert_eq!(
                        alloc[i], quotas[i],
                        "consumer {} under-served vs {}: {:?} quotas {:?}",
                        i, j, alloc, quotas
                    );
                }
            }
        }
    }
}

/// A full batch (Table 1: B = 30 parents × K = 5 candidates = 150
/// vertices) is far beyond any brute force, so this pins what can be
/// checked: a valid set no lighter than greedy, proven optimal, in a node
/// count a weight-sum bound misses by orders of magnitude (it ran this
/// instance out of the 500 k budget; the cover bound takes 1,319 nodes).
/// The instance is fixed by the seed string, so the count repeats exactly.
///
/// The pool is wide on purpose. Scores here are uniform, so in a tight
/// pool the best candidates of many parents collide, and settling such a
/// batch on clique-cover bounds alone can still cost the whole budget;
/// reconstruction's batches are easier — the best candidate is right for
/// ~99 % of spans — and close in one or two nodes.
#[test]
fn full_batch_is_solved_exactly_within_pinned_nodes() {
    const NODE_CEILING: u64 = 2_000;
    let mut rng = TestRng::for_test("full_batch_is_solved_exactly_within_pinned_nodes");
    let batch = batch_strategy(30..31, 5..6, 40).sample(&mut rng);
    let g = batch_graph(&batch);
    assert_eq!(g.len(), 150);
    let s = g.solve(&SolveOptions::default());
    assert!(g.is_independent(&s.chosen));
    assert!(s.weight >= g.solve_greedy().weight);
    assert!(s.exact, "{} nodes", s.nodes);
    assert!(s.nodes <= NODE_CEILING, "{} nodes", s.nodes);
}
