//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use tw_stats::desc::{percentile, Summary};
use tw_stats::gaussian::Gaussian;
use tw_stats::gmm::{Gmm, GmmFitOptions, MomentSummary, Widths};
use tw_stats::pearson_correlation;
use tw_stats::sampler::Sampler;
use tw_stats::special::{beta_inc_reg, student_t_two_sided_p};
use tw_stats::welch_t_test;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..max_len)
}

proptest! {
    #[test]
    fn percentile_within_range(xs in finite_vec(200), p in 0.0f64..100.0) {
        let v = percentile(&xs, p);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo && v <= hi);
    }

    #[test]
    fn percentile_monotone_in_p(xs in finite_vec(100), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
    }

    #[test]
    fn summary_ordering(xs in finite_vec(300)) {
        let s = Summary::of(&xs);
        prop_assert!(s.min <= s.p5 && s.p5 <= s.p25 && s.p25 <= s.p50);
        prop_assert!(s.p50 <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        prop_assert!(s.mean >= s.min && s.mean <= s.max);
    }

    #[test]
    fn gaussian_log_pdf_finite(mu in -1e4f64..1e4, sigma in 0.0f64..1e3, x in -1e5f64..1e5) {
        let g = Gaussian::new(mu, sigma);
        prop_assert!(g.log_pdf(x).is_finite());
    }

    #[test]
    fn beta_inc_in_unit_interval(a in 0.1f64..20.0, b in 0.1f64..20.0, x in 0.0f64..1.0) {
        let v = beta_inc_reg(a, b, x);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "I_{x}({a},{b}) = {v}");
    }

    #[test]
    fn t_test_p_value_valid(t in -50.0f64..50.0, df in 1.0f64..200.0) {
        let p = student_t_two_sided_p(t, df);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn welch_symmetry(xs in finite_vec(50), ys in finite_vec(50)) {
        if let (Some(r1), Some(r2)) = (welch_t_test(&xs, &ys), welch_t_test(&ys, &xs)) {
            prop_assert!((r1.t + r2.t).abs() < 1e-9);
            prop_assert!((r1.p_two_sided - r2.p_two_sided).abs() < 1e-9);
        }
    }

    #[test]
    fn pearson_bounded(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..100)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson_correlation(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }

    #[test]
    fn gmm_fit_never_panics_and_is_finite(
        xs in prop::collection::vec(-1e4f64..1e4, 1..120),
        c in 1usize..5,
        probe in -1e4f64..1e4,
    ) {
        let rows = MomentSummary::of_sample(&xs);
        let gmm = Gmm::fit(&rows, Widths::One(c), &[], &GmmFitOptions::default()).0;
        prop_assert!(!gmm.is_empty());
        prop_assert!(gmm.log_pdf(probe).is_finite());
        let total: f64 = gmm.components.iter().map(|c| c.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gmm_bic_sweep_never_worse_than_single(
        xs in prop::collection::vec(-1e3f64..1e3, 10..150),
    ) {
        let (opts, rows) = (GmmFitOptions::default(), MomentSummary::of_sample(&xs));
        let (auto, fits) = Gmm::fit(&rows, Widths::Sweep, &[], &opts);
        let single = Gmm::fit(&rows, Widths::One(1), &[], &opts).0;
        prop_assert_eq!(&fits[0], &single);
        prop_assert!(auto.bic(&rows) <= single.bic(&rows) + 1e-6);
    }

    /// What holds of the sweep wherever it stops, on gap-shaped samples of
    /// 1–4 modes: never worse than the single Gaussian it starts from,
    /// never more components than asked for, and a mixture the delay
    /// registry would accept (finite parameters, positive weights and
    /// sigmas, weights summing to one).
    #[test]
    fn gmm_bic_sweep_on_multimodal_gaps_is_bounded_and_sane(
        seed in 0u64..1_000,
        modes in 1usize..5,
        n in 10usize..300,
        max_components in 1usize..6,
    ) {
        let mut s = Sampler::new(seed);
        let xs: Vec<f64> = (0..n)
            .map(|i| match i % modes {
                0 => s.log_normal(5.0, 0.3),
                1 => s.normal(900.0, 40.0),
                2 => s.normal(2500.0, 90.0),
                _ => s.normal(6000.0, 200.0),
            })
            .collect();
        let opts = GmmFitOptions { max_components, ..GmmFitOptions::default() };
        let rows = MomentSummary::of_sample(&xs);
        let (auto, fits) = Gmm::fit(&rows, Widths::Sweep, &[], &opts);
        prop_assert!(auto.bic(&rows) <= fits[0].bic(&rows));
        prop_assert!((1..=max_components).contains(&auto.len()));
        for c in &auto.components {
            prop_assert!(c.weight.is_finite() && c.weight > 0.0);
            prop_assert!(c.gaussian.mu.is_finite());
            prop_assert!(c.gaussian.sigma.is_finite() && c.gaussian.sigma > 0.0);
        }
        let total: f64 = auto.components.iter().map(|c| c.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }
}
