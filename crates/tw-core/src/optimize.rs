//! Joint optimization per batch (paper §4.1 step 5).
//!
//! Each batch becomes a maximum-weight independent set instance: vertices
//! are the top-K candidate mappings per span with weights proportional to
//! their likelihood score; edges connect (a) candidates of the same span
//! and (b) candidates claiming a common outgoing span. Because raw
//! log-likelihood scores are negative, weights are shifted positive and
//! given a uniform coverage bonus, so the optimum assigns as many spans as
//! possible and breaks ties by total likelihood — the paper's intent with
//! an off-the-shelf MIS solver (Gurobi there, branch-and-bound here).

use crate::candidates::Candidate;
use crate::params::Params;
use std::borrow::Borrow;
use tw_solver::mis::{ConflictGraph, SolveOptions};

/// Result of optimizing one batch: the per-parent candidate picks plus
/// whether the joint solve was exact. `exact = false` only when the MIS
/// solver degraded to its greedy incumbent (node budget or wall-clock
/// deadline exhausted) — the deliberate greedy ablation reports `true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAssignment {
    /// Per parent, the index into its candidate list (or `None` if the
    /// parent went unassigned).
    pub picks: Vec<Option<usize>>,
    /// False when the solver shipped a degraded (greedy-incumbent) answer.
    pub exact: bool,
}

/// Assign one candidate per parent (if possible) in a batch.
///
/// `per_parent[i]` holds parent `i`'s scored candidates, best first and
/// already truncated to top-K, owned or borrowed. `deadline` is the
/// reconstruction pass's shared wall-clock cutoff (degradation ladder,
/// DESIGN.md §9); `None` leaves the solve bounded only by the solver's
/// [`tw_solver::mis::DEFAULT_NODE_BUDGET`].
pub fn optimize_batch<C: Borrow<Candidate>>(
    per_parent: &[Vec<C>],
    params: &Params,
    deadline: Option<std::time::Instant>,
) -> BatchAssignment {
    if params.use_joint_optimization {
        optimize_mis(per_parent, deadline)
    } else {
        BatchAssignment {
            picks: optimize_greedy(per_parent),
            exact: true,
        }
    }
}

/// Exact MIS-based joint optimization: the top candidates when they are
/// the unique optimum (DESIGN.md §7), a branch-and-bound search otherwise.
fn optimize_mis<C: Borrow<Candidate>>(
    per_parent: &[Vec<C>],
    deadline: Option<std::time::Instant>,
) -> BatchAssignment {
    let weight = solver_weight(per_parent);
    #[cfg(test)]
    tests::MIS_BATCHES.with(|n| n.set(n.get() + 1));
    if let Some(picks) = unique_optimum(per_parent, &weight) {
        return BatchAssignment { picks, exact: true };
    }
    #[cfg(test)]
    tests::MIS_SEARCHES.with(|n| n.set(n.get() + 1));
    solve_mis(per_parent, &weight, deadline)
}

/// A score's vertex weight: shifted positive, plus a coverage bonus larger
/// than the total score range so that covering one more span always wins.
fn solver_weight<C: Borrow<Candidate>>(per_parent: &[Vec<C>]) -> impl Fn(f64) -> f64 {
    let scores = || per_parent.iter().flatten().map(|c| c.borrow().score);
    let min_s = scores().fold(f64::INFINITY, f64::min);
    let max_s = scores().fold(f64::NEG_INFINITY, f64::max);
    let range = (max_s - min_s).max(1.0);
    let bonus = range * (per_parent.len() as f64 + 1.0);
    move |s: f64| (s - min_s) + bonus
}

/// Every parent's first candidate, when each strictly outweighs that
/// parent's others and no two claim a common child: then no other
/// independent set weighs as much.
fn unique_optimum<C: Borrow<Candidate>>(
    per_parent: &[Vec<C>],
    weight: &impl Fn(f64) -> f64,
) -> Option<Vec<Option<usize>>> {
    let mut claimed: Vec<usize> = Vec::new();
    for cands in per_parent.iter().filter(|c| !c.is_empty()) {
        let top = weight(cands[0].borrow().score);
        if cands[1..].iter().any(|c| weight(c.borrow().score) >= top) {
            return None;
        }
        claimed.extend(cands[0].borrow().children.iter().flatten());
    }
    claimed.sort_unstable();
    let disjoint = claimed.windows(2).all(|w| w[0] != w[1]);
    let picks = per_parent.iter().map(|c| c.first().map(|_| 0));
    disjoint.then(|| picks.collect())
}

/// The branch-and-bound search over the batch's conflict graph.
fn solve_mis<C: Borrow<Candidate>>(
    per_parent: &[Vec<C>],
    weight: &impl Fn(f64) -> f64,
    deadline: Option<std::time::Instant>,
) -> BatchAssignment {
    let mut vertices: Vec<(usize, usize, &Candidate)> = Vec::new(); // (parent, index, candidate)
    for (p, cands) in per_parent.iter().enumerate() {
        for (c, cand) in cands.iter().enumerate() {
            vertices.push((p, c, cand.borrow()));
        }
    }
    let n = vertices.len();
    let mut g = ConflictGraph::new(vertices.iter().map(|v| weight(v.2.score)).collect());
    for u in 0..n {
        for v in (u + 1)..n {
            let ((pu, _, cu), (pv, _, cv)) = (vertices[u], vertices[v]);
            if pu == pv || cu.conflicts_with(cv) {
                g.add_edge(u, v);
            }
        }
    }
    let solution = g.solve(&SolveOptions {
        deadline,
        ..SolveOptions::default()
    });

    let mut out = vec![None; per_parent.len()];
    for &v in &solution.chosen {
        let (p, c, _) = vertices[v];
        debug_assert!(out[p].is_none(), "solver assigned a span twice");
        out[p] = Some(c);
    }
    BatchAssignment {
        picks: out,
        exact: solution.exact,
    }
}

/// Ablation: greedy per-span assignment in span order — each span takes
/// its best-scoring candidate whose children are still unclaimed.
fn optimize_greedy<C: Borrow<Candidate>>(per_parent: &[Vec<C>]) -> Vec<Option<usize>> {
    let mut used: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut out = vec![None; per_parent.len()];
    for (p, cands) in per_parent.iter().enumerate() {
        for (c, cand) in cands.iter().map(Borrow::borrow).enumerate() {
            let mut kids = cand.children.iter().flatten();
            if kids.all(|idx| !used.contains(idx)) {
                used.extend(cand.children.iter().flatten());
                out[p] = Some(c);
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Batches `optimize_mis` weighed on this thread, and of those the
        /// ones that reached the branch-and-bound search.
        pub(super) static MIS_BATCHES: Cell<usize> = const { Cell::new(0) };
        pub(super) static MIS_SEARCHES: Cell<usize> = const { Cell::new(0) };
    }

    /// What `f` returns, with the batches it weighed and the searches it
    /// ran on this thread.
    fn mis_counts<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
        let read = || (MIS_BATCHES.with(Cell::get), MIS_SEARCHES.with(Cell::get));
        let (batches, searches) = read();
        let out = f();
        let (batches_after, searches_after) = read();
        (out, batches_after - batches, searches_after - searches)
    }

    fn cand(parent: usize, children: Vec<Option<usize>>, score: f64) -> Candidate {
        Candidate {
            parent,
            children,
            score,
        }
    }

    /// The batch solved by the branch-and-bound search alone, as every
    /// batch was before the shortcut.
    fn full_solve(per_parent: &[Vec<Candidate>]) -> BatchAssignment {
        solve_mis(per_parent, &solver_weight(per_parent), None)
    }

    /// The shortcut's answer against the full search's: same picks, same
    /// `exact`. Returns whether the batch reached the search.
    fn assert_matches_full_solve(per_parent: &[Vec<Candidate>]) -> bool {
        let (out, _, searches) =
            mis_counts(|| optimize_batch(per_parent, &Params::default(), None));
        assert_eq!(out, full_solve(per_parent), "{per_parent:?}");
        searches > 0
    }

    #[test]
    fn empty_batch() {
        let out = optimize_batch::<Candidate>(&[], &Params::default(), None);
        assert!(out.picks.is_empty());
        assert!(out.exact);
        let out = optimize_batch::<Candidate>(&[vec![]], &Params::default(), None);
        assert_eq!(out.picks, vec![None]);
        assert!(out.exact);
    }

    #[test]
    fn single_parent_takes_best() {
        let per_parent = vec![vec![
            cand(0, vec![Some(0)], -1.0),
            cand(0, vec![Some(1)], -5.0),
        ]];
        let out = optimize_batch(&per_parent, &Params::default(), None);
        assert_eq!(out.picks, vec![Some(0)]);
        assert!(out.exact);
    }

    #[test]
    fn conflicting_parents_resolved_globally() {
        // Parent 0's best is child 0 (score -1); parent 1's only option is
        // child 0 (score -2). Greedy in order would starve parent 1; the
        // MIS must instead give parent 0 its second choice so both map.
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -3.0)],
            vec![cand(1, vec![Some(0)], -2.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), None);
        assert_eq!(out.picks, vec![Some(1), Some(0)], "coverage beats greed");
    }

    #[test]
    fn greedy_mode_starves_later_parent() {
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -3.0)],
            vec![cand(1, vec![Some(0)], -2.0)],
        ];
        let params = Params::default().ablate_joint_optimization();
        let out = optimize_batch(&per_parent, &params, None);
        assert_eq!(out.picks, vec![Some(0), None]);
        assert!(out.exact, "deliberate greedy ablation is not 'inexact'");
    }

    #[test]
    fn no_double_assignment_of_children() {
        let per_parent = vec![
            vec![cand(0, vec![Some(5), Some(6)], -1.0)],
            vec![cand(1, vec![Some(6), Some(7)], -1.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), None);
        let assigned = out.picks.iter().flatten().count();
        assert_eq!(assigned, 1, "conflicting candidates can't both win");
    }

    #[test]
    fn likelihood_breaks_ties_at_equal_coverage() {
        // Both assignments cover both parents; the higher-scoring pairing
        // must win.
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -10.0)],
            vec![cand(1, vec![Some(1)], -1.0), cand(1, vec![Some(0)], -10.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), None);
        assert_eq!(out.picks, vec![Some(0), Some(0)]);
    }

    #[test]
    fn skip_candidates_do_not_conflict() {
        // Two parents both "skip everything": no shared concrete child, so
        // both can be assigned.
        let per_parent = vec![
            vec![cand(0, vec![None], -20.0)],
            vec![cand(1, vec![None], -20.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), None);
        assert_eq!(out.picks, vec![Some(0), Some(0)]);
    }

    #[test]
    fn expired_deadline_marks_batch_inexact() {
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -3.0)],
            vec![cand(1, vec![Some(0)], -2.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), Some(past));
        assert!(!out.exact, "deadline-hit batches are flagged inexact");
        // The greedy incumbent still assigns every non-conflicting parent.
        assert!(out.picks.iter().flatten().count() >= 1);
        // A batch whose top candidates are the unique optimum needs no
        // search, so no deadline can degrade it.
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -3.0)],
            vec![cand(1, vec![Some(1)], -2.0)],
        ];
        let out = optimize_batch(&per_parent, &Params::default(), Some(past));
        assert_eq!(out.picks, vec![Some(0), Some(0)]);
        assert!(out.exact, "a batch settled without a search is exact");
    }

    #[test]
    fn tied_top_weights_reach_the_search() {
        // Parent 0's two candidates tie: the top is not the unique optimum.
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], -1.0), cand(0, vec![Some(1)], -1.0)],
            vec![cand(1, vec![Some(2)], -2.0)],
        ];
        assert!(assert_matches_full_solve(&per_parent));
        // Scores a rounding step apart shift to the same solver weight.
        let s = -1.0f64;
        let below = f64::from_bits(s.to_bits() + 1);
        assert!(below < s);
        let per_parent = vec![
            vec![cand(0, vec![Some(0)], s), cand(0, vec![Some(1)], below)],
            vec![cand(1, vec![Some(2)], -1e9)],
        ];
        let weight = solver_weight(&per_parent);
        assert_eq!(weight(s), weight(below));
        assert!(assert_matches_full_solve(&per_parent));
    }

    #[test]
    fn shortcut_skips_empty_lists_and_all_skip_candidates() {
        let per_parent = vec![
            vec![
                cand(0, vec![Some(0), None], -1.0),
                cand(0, vec![Some(1), None], -4.0),
            ],
            vec![],
            vec![
                cand(2, vec![None, None], -30.0),
                cand(2, vec![None, Some(0)], -31.0),
            ],
            vec![cand(3, vec![None, None], -30.0)],
        ];
        assert!(!assert_matches_full_solve(&per_parent));
        let out = optimize_batch(&per_parent, &Params::default(), None);
        assert_eq!(out.picks, vec![Some(0), None, Some(0), Some(0)]);
        // Tops that claim a common child reach the search.
        let per_parent = vec![
            vec![cand(0, vec![Some(0), Some(1)], -1.0)],
            vec![],
            vec![
                cand(2, vec![None, Some(1)], -2.0),
                cand(2, vec![None, None], -9.0),
            ],
        ];
        assert!(assert_matches_full_solve(&per_parent));
    }

    /// Batches shaped like `tw-solver`'s `batch_strategy` builds them: each
    /// parent 0–4 candidates, best first, each claiming 1–3 children from a
    /// pool of `pool_per_parent` ids per parent or skipping a slot. Scores
    /// are continuous, or whole numbers so that tops tie.
    fn batch_strategy() -> impl Strategy<Value = Vec<Vec<Candidate>>> {
        (1usize..7, 1usize..6, any::<bool>()).prop_flat_map(|(parents, pool_per_parent, whole)| {
            let child = prop::option::of(0..pool_per_parent * parents);
            let score = (0.0..10.0f64).prop_map(move |s| if whole { s.floor() } else { s });
            let candidate = (prop::collection::vec(child, 1..4), score);
            prop::collection::vec(prop::collection::vec(candidate, 0..5), parents).prop_map(
                |batch| {
                    batch
                        .into_iter()
                        .enumerate()
                        .map(|(p, cands)| {
                            let mut cands: Vec<Candidate> = cands
                                .into_iter()
                                .map(|(children, score)| cand(p, children, -score))
                                .collect();
                            cands.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap());
                            cands
                        })
                        .collect()
                },
            )
        })
    }

    /// With no deadline, every batch gets the branch-and-bound's picks and
    /// `exact`, whether or not it reached the search; and both paths run.
    #[test]
    fn shortcut_matches_the_full_solve() {
        let mut rng = TestRng::for_test("shortcut_matches_the_full_solve");
        let (mut searched, mut settled) = (0usize, 0usize);
        for _ in 0..512 {
            let batch = batch_strategy().sample(&mut rng);
            if assert_matches_full_solve(&batch) {
                searched += 1;
            } else {
                settled += 1;
            }
        }
        assert!(
            searched > 50 && settled > 50,
            "{searched} searched, {settled} settled"
        );
    }

    /// On a dense hotel stream the top candidates settle almost every
    /// batch: at most one in ten reaches the search.
    #[test]
    fn most_dense_batches_settle_without_a_search() {
        use crate::task::ReconstructionTask;
        use tw_model::mapping::{Mapping, RankedMapping};
        let app = tw_sim::apps::hotel_reservation(7);
        let graph = app.config.call_graph();
        let sim = tw_sim::Simulator::new(app.config.clone()).expect("valid app config");
        let out = sim.run(&tw_sim::Workload::poisson(
            app.roots[0],
            900.0,
            tw_model::time::Nanos::from_millis(1_000),
        ));
        let params = Params::default();
        let ((), batches, searches) = mis_counts(|| {
            for (_, view) in tw_model::span::split_by_process(&out.records) {
                let (mut mapping, mut ranked) = (Mapping::new(), RankedMapping::new());
                ReconstructionTask::new(&graph, &params, &view).run(&mut mapping, &mut ranked);
            }
        });
        assert!(batches > 500, "{batches} batches");
        assert!(
            searches * 10 <= batches,
            "{searches} of {batches} batches searched"
        );
    }
}
