//! Reading the program's public `tw_*` series from registry snapshots.

use tw_telemetry::{FamilySnapshot, Registry, ValueSnapshot};

/// A point-in-time copy of a registry.
pub struct Snap(Vec<FamilySnapshot>);

impl Snap {
    pub fn of(registry: &Registry) -> Snap {
        Snap(registry.snapshot())
    }

    fn series<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = &'a ValueSnapshot> + 'a {
        self.0
            .iter()
            .filter(move |f| f.name == name)
            .flat_map(|f| f.series.iter())
            .filter(move |(have, _)| {
                labels
                    .iter()
                    .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
            })
            .map(|(_, v)| v)
    }

    /// Sum of every counter or gauge series of `name` carrying `labels`
    /// (0 when the family does not exist: the layer never registered it).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.series(name, labels)
            .map(|v| match v {
                ValueSnapshot::Counter(c) => *c as f64,
                ValueSnapshot::Gauge(g) => *g,
                ValueSnapshot::Histogram { .. } => 0.0,
            })
            .sum()
    }

    /// `(sum, count)` over every histogram series of `name` carrying
    /// `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (f64, u64) {
        self.series(name, labels)
            .fold((0.0, 0), |(s, c), v| match v {
                ValueSnapshot::Histogram { sum, count, .. } => (s + sum, c + count),
                _ => (s, c),
            })
    }
}

/// Growth of the process-global registry between two snapshots. The
/// algorithm crates (`tw-core`, `tw-solver`, `tw-capture`) record there,
/// and it accumulates over the whole process, so one phase's share is a
/// difference.
pub struct Delta {
    pub before: Snap,
    pub after: Snap,
}

impl Delta {
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.after.value(name, labels) - self.before.value(name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> (f64, u64) {
        let (s1, c1) = self.after.histogram(name, labels);
        let (s0, c0) = self.before.histogram(name, labels);
        (s1 - s0, c1 - c0)
    }
}

/// Run `f` and return what it added to the global registry.
pub fn global_delta<R>(f: impl FnOnce() -> R) -> (R, Delta) {
    let before = Snap::of(tw_telemetry::global());
    let out = f();
    let after = Snap::of(tw_telemetry::global());
    (out, Delta { before, after })
}

/// Counters and stage times `tw-core`, `tw-solver` and `tw-stats` exported
/// on the global registry while `phase` ran.
pub fn core_series(values: &mut crate::report::Values, delta: &Delta) {
    let stage_s = |stage| {
        delta
            .histogram("tw_core_stage_seconds", &[("stage", stage)])
            .0
    };
    values.set("core.candidates_s", stage_s("candidates"), 1);
    values.set("core.seed_s", stage_s("seed"), 1);
    values.set("core.optimize_s", stage_s("optimize"), 1);
    values.set("core.tasks", delta.value("tw_core_tasks_total", &[]), 1);
    values.set(
        "core.warm_tasks",
        delta.value("tw_core_warm_tasks_total", &[]),
        1,
    );
    values.set(
        "core.candidates_total",
        delta.value("tw_core_candidates_total", &[]),
        1,
    );
    let (cand_sum, parents) = delta.histogram("tw_core_candidates_per_span", &[]);
    values.set(
        "core.candidates_per_parent_mean",
        cand_sum / parents.max(1) as f64,
        parents as usize,
    );
    let (size_sum, batches) = delta.histogram("tw_core_batch_size", &[]);
    values.set("core.batches", delta.value("tw_core_batches_total", &[]), 1);
    values.set(
        "core.batch_size_mean",
        size_sum / batches.max(1) as f64,
        batches as usize,
    );
    values.set(
        "core.em_iterations",
        delta.value("tw_core_em_iterations_total", &[]),
        1,
    );
    let solves = delta.value("tw_solver_solves_total", &[]);
    let nodes = delta.value("tw_solver_nodes_expanded_total", &[]);
    values.set("solver.solves", solves, 1);
    values.set("solver.nodes_expanded", nodes, 1);
    values.set(
        "solver.nodes_per_solve",
        nodes / solves.max(1.0),
        solves as usize,
    );
    values.set(
        "solver.inexact",
        delta.value("tw_solver_inexact_total", &[]),
        1,
    );
    values.set(
        "solver.deadline_expired",
        delta.value("tw_solver_deadline_expired_total", &[]),
        1,
    );
    let (comp_sum, fits) = delta.histogram("tw_core_gmm_components", &[]);
    values.set("stats.gmm_fits", fits as f64, 1);
    values.set(
        "stats.gmm_components_mean",
        comp_sum / fits.max(1) as f64,
        fits as usize,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tw_telemetry::Buckets;

    #[test]
    fn values_sum_over_matching_label_sets() {
        let r = Registry::new();
        r.counter_with("x_total", "h", &[("stage", "a")]).add(3);
        r.counter_with("x_total", "h", &[("stage", "b")]).add(4);
        r.gauge_with("busy", "h", &[("stage", "a")]).set(1.5);
        let h = r.histogram_with("lat", "h", Buckets::fixed(&[1.0]), &[("stage", "a")]);
        h.observe(0.5);
        h.observe(2.0);
        let snap = Snap::of(&r);
        assert_eq!(snap.value("x_total", &[("stage", "a")]), 3.0);
        assert_eq!(snap.value("x_total", &[]), 7.0);
        assert_eq!(snap.value("busy", &[("stage", "a")]), 1.5);
        assert_eq!(snap.value("missing", &[]), 0.0);
        assert_eq!(snap.histogram("lat", &[("stage", "a")]), (2.5, 2));
        assert_eq!(snap.histogram("lat", &[("stage", "zzz")]), (0.0, 0));
    }

    #[test]
    fn delta_subtracts_the_earlier_snapshot() {
        let r = Registry::new();
        let c = r.counter("n_total", "h");
        c.add(10);
        let before = Snap::of(&r);
        c.add(5);
        let delta = Delta {
            before,
            after: Snap::of(&r),
        };
        assert_eq!(delta.value("n_total", &[]), 5.0);
    }
}
