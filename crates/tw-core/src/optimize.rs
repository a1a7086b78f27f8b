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
/// already truncated to top-K. `deadline` is the reconstruction pass's
/// shared wall-clock cutoff (degradation ladder, DESIGN.md §9); `None`
/// leaves the solve bounded only by the solver's
/// [`tw_solver::mis::DEFAULT_NODE_BUDGET`].
pub fn optimize_batch(
    per_parent: &[Vec<Candidate>],
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

/// Exact MIS-based joint optimization.
fn optimize_mis(
    per_parent: &[Vec<Candidate>],
    deadline: Option<std::time::Instant>,
) -> BatchAssignment {
    // Flatten vertices.
    let mut vertex_owner: Vec<(usize, usize)> = Vec::new(); // (parent, cand idx)
    let mut raw_scores: Vec<f64> = Vec::new();
    for (p, cands) in per_parent.iter().enumerate() {
        for (c, cand) in cands.iter().enumerate() {
            vertex_owner.push((p, c));
            raw_scores.push(cand.score);
        }
    }
    let n = vertex_owner.len();
    if n == 0 {
        return BatchAssignment {
            picks: vec![None; per_parent.len()],
            exact: true,
        };
    }

    // Shift scores positive; add a coverage bonus larger than the total
    // score range so that covering one more span always wins.
    let min_s = raw_scores.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_s = raw_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (max_s - min_s).max(1.0);
    let bonus = range * (per_parent.len() as f64 + 1.0);
    let weights: Vec<f64> = raw_scores.iter().map(|s| (s - min_s) + bonus).collect();

    let mut g = ConflictGraph::new(weights);
    for u in 0..n {
        for v in (u + 1)..n {
            let (pu, cu) = vertex_owner[u];
            let (pv, cv) = vertex_owner[v];
            if pu == pv || per_parent[pu][cu].conflicts_with(&per_parent[pv][cv]) {
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
        let (p, c) = vertex_owner[v];
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
fn optimize_greedy(per_parent: &[Vec<Candidate>]) -> Vec<Option<usize>> {
    let mut used: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut out = vec![None; per_parent.len()];
    for (p, cands) in per_parent.iter().enumerate() {
        for (c, cand) in cands.iter().enumerate() {
            let free = cand
                .children
                .iter()
                .flatten()
                .all(|idx| !used.contains(idx));
            if free {
                for idx in cand.children.iter().flatten() {
                    used.insert(*idx);
                }
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

    fn cand(parent: usize, children: Vec<Option<usize>>, score: f64) -> Candidate {
        Candidate {
            parent,
            children,
            score,
        }
    }

    #[test]
    fn empty_batch() {
        let out = optimize_batch(&[], &Params::default(), None);
        assert!(out.picks.is_empty());
        assert!(out.exact);
        let out = optimize_batch(&[vec![]], &Params::default(), None);
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
    }
}
