//! Gaussian Mixture Models fit by Expectation-Maximization, with Bayesian
//! Information Criterion model selection.
//!
//! This implements the delay-distribution machinery of TraceWeaver §4.1
//! step 3: after the first iteration, inferred (parent, child) gaps are fit
//! with a GMM whose component count is chosen by sweeping `C = 1..=C_max`
//! and minimizing BIC.

use crate::desc::{mean, percentile_sorted, population_variance};
use crate::gaussian::{Gaussian, SIGMA_FLOOR};
use serde::{Deserialize, Serialize};

/// One mixture component: a weighted Gaussian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmmComponent {
    /// Mixing weight π_c, in (0, 1]; weights of a mixture sum to 1.
    pub weight: f64,
    pub gaussian: Gaussian,
}

/// A univariate Gaussian mixture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gmm {
    pub components: Vec<GmmComponent>,
}

/// Options controlling the EM fit and the BIC sweep.
#[derive(Debug, Clone, Copy)]
pub struct GmmFitOptions {
    /// Largest component count tried by [`Gmm::fit_auto`] (paper: C = 5,
    /// text sweeps up to 20). The sweeps clamp it to [`MAX_COMPONENTS`].
    pub max_components: usize,
    /// Maximum EM iterations per candidate model.
    pub max_iters: usize,
    /// Convergence threshold on mean log-likelihood improvement.
    pub tol: f64,
}

impl Default for GmmFitOptions {
    fn default() -> Self {
        GmmFitOptions {
            max_components: 5,
            max_iters: 100,
            tol: 1e-6,
        }
    }
}

/// The largest component count [`Gmm::fit_weighted`] fits (Table 1:
/// C = 5): its EM kernel is compiled once per width up to here. Mixtures
/// up to this size are also scored without touching the heap; a longer
/// one (deserialised, say) still scores, on the heap.
pub const MAX_COMPONENTS: usize = 8;

impl Gmm {
    /// A single-component mixture equal to the given Gaussian. This is how
    /// TraceWeaver's iteration 1 seed distribution is represented.
    pub fn single(g: Gaussian) -> Self {
        Gmm {
            components: vec![GmmComponent {
                weight: 1.0,
                gaussian: g,
            }],
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the mixture has no components (an unusable model).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Log density at `x` via log-sum-exp over components.
    pub fn log_pdf(&self, x: f64) -> f64 {
        debug_assert!(!self.components.is_empty());
        let term = |c: &GmmComponent| c.weight.max(f64::MIN_POSITIVE).ln() + c.gaussian.log_pdf(x);
        let n = self.components.len();
        if n <= MAX_COMPONENTS {
            let mut logs = [0.0; MAX_COMPONENTS];
            for (l, c) in logs.iter_mut().zip(&self.components) {
                *l = term(c);
            }
            log_sum_exp(&logs[..n])
        } else {
            log_sum_exp(&self.components.iter().map(term).collect::<Vec<f64>>())
        }
    }

    /// Density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Mean of the mixture.
    pub fn mean(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.gaussian.mu)
            .sum()
    }

    /// Total log-likelihood of a sample under this mixture.
    pub fn log_likelihood(&self, xs: &[f64]) -> f64 {
        self.log_pdfs(xs).sum()
    }

    /// [`Gmm::log_pdf`] at each of `xs`, with each component's `ln weight`
    /// and `ln sigma` taken once per mixture, not once per point.
    fn log_pdfs<'a>(&'a self, xs: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
        let lns: Vec<(f64, f64)> = self
            .components
            .iter()
            .map(|c| (c.weight.max(f64::MIN_POSITIVE).ln(), c.gaussian.sigma.ln()))
            .collect();
        let mut logs = vec![0.0; lns.len()];
        xs.iter().map(move |&x| {
            for ((l, c), &(ln_w, ln_sigma)) in logs.iter_mut().zip(&self.components).zip(&lns) {
                *l = ln_w + c.gaussian.log_pdf_given(x, ln_sigma);
            }
            log_sum_exp(&logs)
        })
    }

    /// Bayesian Information Criterion: `k ln n − 2 ln L` with
    /// `k = 3C − 1` free parameters (C means, C sigmas, C−1 weights).
    pub fn bic(&self, xs: &[f64]) -> f64 {
        let k = (3 * self.components.len() - 1) as f64;
        let n = xs.len().max(1) as f64;
        k * n.ln() - 2.0 * self.log_likelihood(xs)
    }

    /// Fit a mixture with exactly `c` components using EM.
    ///
    /// Initialization is deterministic: component means are placed at evenly
    /// spaced quantiles of the sample, sigmas at the overall sigma, weights
    /// uniform. Returns a single-component fit if the sample is too small to
    /// support `c` components.
    pub fn fit(xs: &[f64], c: usize, opts: &GmmFitOptions) -> Self {
        Gmm::fit_weighted(xs, &vec![1.0; xs.len()], c, opts)
    }

    /// Weighted EM fit: each sample `xs[i]` counts with weight `ws[i]`.
    ///
    /// This is the reservoir-refit path of the warm-start delay registry:
    /// gap samples from older windows are exponentially down-weighted, so
    /// the mixture tracks the *current* delay regime while still smoothing
    /// over many windows. With unit weights this is exactly [`Gmm::fit`].
    ///
    /// # Panics
    /// If `c` is 0 or above [`MAX_COMPONENTS`], or `ws` is not one weight
    /// per sample.
    pub fn fit_weighted(xs: &[f64], ws: &[f64], c: usize, opts: &GmmFitOptions) -> Self {
        assert!(c >= 1, "component count must be >= 1");
        assert!(
            c <= MAX_COMPONENTS,
            "component count must be <= MAX_COMPONENTS ({MAX_COMPONENTS})"
        );
        assert_eq!(xs.len(), ws.len(), "one weight per sample");
        if xs.is_empty() {
            return Gmm::single(Gaussian::new(0.0, 1.0));
        }
        let total_w: f64 = ws.iter().sum();
        if c == 1 || xs.len() < 2 * c || total_w <= 0.0 {
            return Gmm::single(Gaussian::fit_weighted(xs, ws));
        }
        let em = match c {
            2 => em::<2>,
            3 => em::<3>,
            4 => em::<4>,
            5 => em::<5>,
            6 => em::<6>,
            7 => em::<7>,
            8 => em::<8>,
            _ => unreachable!("component count checked above"),
        };
        Gmm {
            components: em(xs, ws, total_w, opts),
        }
    }

    /// Sweep `C = 1..=opts.max_components` until two counts running fail to
    /// improve BIC, and return the BIC minimizer (paper §4.1 step 3).
    ///
    /// # Examples
    /// ```
    /// use tw_stats::gmm::{Gmm, GmmFitOptions};
    /// // Clearly bimodal data: BIC selects two components.
    /// let xs: Vec<f64> = (0..200)
    ///     .map(|i| if i % 2 == 0 { 10.0 } else { 500.0 } + (i % 7) as f64)
    ///     .collect();
    /// let gmm = Gmm::fit_auto(&xs, &GmmFitOptions::default());
    /// assert!(gmm.len() >= 2);
    /// assert!(gmm.log_pdf(500.0) > gmm.log_pdf(250.0));
    /// ```
    pub fn fit_auto(xs: &[f64], opts: &GmmFitOptions) -> Self {
        Gmm::fit_auto_weighted(xs, &vec![1.0; xs.len()], opts)
    }

    /// Weighted log-likelihood of a sample under this mixture.
    pub fn log_likelihood_weighted(&self, xs: &[f64], ws: &[f64]) -> f64 {
        self.log_pdfs(xs).zip(ws).map(|(l, &w)| w * l).sum()
    }

    /// BIC over a weighted sample: the effective sample size is the total
    /// weight, so heavily decayed reservoirs prefer simpler models.
    pub fn bic_weighted(&self, xs: &[f64], ws: &[f64]) -> f64 {
        let k = (3 * self.components.len() - 1) as f64;
        let n_eff = ws.iter().sum::<f64>().max(1.0);
        k * n_eff.ln() - 2.0 * self.log_likelihood_weighted(xs, ws)
    }

    /// [`Gmm::fit_auto`] over a weighted sample, scored by weighted BIC.
    pub fn fit_auto_weighted(xs: &[f64], ws: &[f64], opts: &GmmFitOptions) -> Self {
        let max = opts.max_components.clamp(1, MAX_COMPONENTS);
        min_bic(xs, ws, 1..=max, true, opts)
    }

    /// Weighted BIC selection over a *narrowed* sweep: only component
    /// counts within one of `near` (plus the single-Gaussian fallback) are
    /// tried. When a model is refit round after round on a slowly-evolving
    /// sample set — the delay registry's absorb loop — the optimal count
    /// rarely jumps, so sweeping all of `{1, near-1, near, near+1}` (the set
    /// skips counts, so a rise below `near` says nothing about it) instead
    /// of `1..=C_max` buys back most of the sweep cost and can still grow or
    /// shrink the mixture by one per round.
    pub fn fit_auto_weighted_near(
        xs: &[f64],
        ws: &[f64],
        opts: &GmmFitOptions,
        near: usize,
    ) -> Self {
        let max = opts.max_components.clamp(1, MAX_COMPONENTS);
        let near = near.clamp(1, max);
        let mut counts = vec![1, near.saturating_sub(1).max(1), near, (near + 1).min(max)];
        counts.sort_unstable();
        counts.dedup();
        min_bic(xs, ws, counts, false, opts)
    }
}

/// [`Gmm::fit_weighted`]'s EM loop at a width `C` fixed at compile time,
/// for `2 <= C <= xs.len() / 2` and `total_w = Σ ws > 0`.
///
/// Every per-component value lives in a `[f64; C]`, and the M-step's mass
/// and mean sums ride in the E-step pass, right after each
/// responsibility. Each accumulator still sees, value by value, the same
/// floating-point operations in the same order as the textbook loop kept
/// in this module's tests, which holds them to `==` — keep it that way:
/// this fit decides every mapping (DESIGN.md §7, "EM kernel").
fn em<const C: usize>(
    xs: &[f64],
    ws: &[f64],
    total_w: f64,
    opts: &GmmFitOptions,
) -> Vec<GmmComponent> {
    let overall_sigma = population_variance(xs).sqrt().max(SIGMA_FLOOR);
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in GMM sample"));
    let mut comps: [GmmComponent; C] = std::array::from_fn(|i| {
        let q = (i as f64 + 0.5) / C as f64 * 100.0;
        GmmComponent {
            weight: 1.0 / C as f64,
            gaussian: Gaussian::new(percentile_sorted(&sorted, q), overall_sigma),
        }
    });

    // A row first holds the sample's per-component log terms, then its
    // responsibilities, which the variance pass reads back.
    let mut resp = vec![[0.0f64; C]; xs.len()];
    let mut prev_ll = f64::NEG_INFINITY;
    for _ in 0..opts.max_iters {
        let ln_w: [f64; C] = std::array::from_fn(|j| comps[j].weight.max(f64::MIN_POSITIVE).ln());
        let ln_sigma: [f64; C] = std::array::from_fn(|j| comps[j].gaussian.sigma.ln());

        // E-step, with the masses and weighted sums the M-step divides.
        let (mut ll, mut nj, mut mu) = (0.0, [0.0f64; C], [0.0f64; C]);
        for ((&x, &w), row) in xs.iter().zip(ws).zip(resp.iter_mut()) {
            for j in 0..C {
                row[j] = ln_w[j] + comps[j].gaussian.log_pdf_given(x, ln_sigma[j]);
            }
            let lse = log_sum_exp(row);
            ll += w * lse;
            for j in 0..C {
                let r = (row[j] - lse).exp();
                row[j] = r;
                let wr = w * r;
                nj[j] += wr;
                mu[j] += wr * x;
            }
        }

        // M-step: the means, then one pass for the variances around them.
        for j in 0..C {
            mu[j] /= nj[j];
        }
        let mut var = [0.0f64; C];
        for ((&x, &w), row) in xs.iter().zip(ws).zip(&resp) {
            for j in 0..C {
                let d = x - mu[j];
                var[j] += w * row[j] * d * d;
            }
        }
        for (j, cm) in comps.iter_mut().enumerate() {
            *cm = if nj[j] < 1e-12 {
                // Dead component: re-seed at the sample mean so it can
                // recover, with a tiny weight.
                GmmComponent {
                    weight: 1e-6,
                    gaussian: Gaussian::new(mean(xs), overall_sigma),
                }
            } else {
                GmmComponent {
                    weight: nj[j] / total_w,
                    gaussian: Gaussian::new(mu[j], (var[j] / nj[j]).sqrt()),
                }
            };
        }
        normalize_weights(&mut comps);

        if (ll - prev_ll).abs() / total_w <= opts.tol {
            break;
        }
        prev_ll = ll;
    }
    comps.to_vec()
}

/// The one BIC sweep over ascending `counts`: lowest weighted BIC wins, the
/// smaller count on a tie. `stop_when_rising` (contiguous counts only) ends
/// it after two counts running that do not beat the best — DESIGN.md §7.
fn min_bic(
    xs: &[f64],
    ws: &[f64],
    counts: impl IntoIterator<Item = usize>,
    stop_when_rising: bool,
    opts: &GmmFitOptions,
) -> Gmm {
    let (mut best, mut rises): (Option<(f64, Gmm)>, usize) = (None, 0);
    for c in counts {
        #[cfg(test)]
        tests::SWEEP_FITS.with(|n| n.set(n.get() + 1));
        let gmm = Gmm::fit_weighted(xs, ws, c, opts);
        let bic = gmm.bic_weighted(xs, ws);
        match &best {
            Some((b, _)) if *b <= bic => rises += 1,
            _ => (best, rises) = (Some((bic, gmm)), 0),
        }
        if stop_when_rising && rises == 2 {
            break;
        }
    }
    best.expect("at least one candidate model").1
}

fn normalize_weights(comps: &mut [GmmComponent]) {
    let total: f64 = comps.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in comps.iter_mut() {
            c.weight /= total;
        }
    }
}

/// Numerically stable log(sum(exp(xs))): `max + ln Σ exp(x − max)`, the
/// sum taken in order. The first maximal term is `exp(0) = 1` exactly, so
/// it is the literal; `x > max` skips NaN as `f64::max` does.
#[inline(always)]
fn log_sum_exp(xs: &[f64]) -> f64 {
    let (mut max, mut top) = (f64::NEG_INFINITY, 0);
    for (j, &x) in xs.iter().enumerate() {
        if x > max {
            (max, top) = (x, j);
        }
    }
    if !max.is_finite() {
        return max;
    }
    let mut sum = 0.0;
    for (j, &x) in xs.iter().enumerate() {
        sum += if j == top { 1.0 } else { (x - max).exp() };
    }
    max + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Fits `min_bic` has performed on this thread: the sweeps' cost in
        /// the unit that matters, counted rather than timed.
        pub(super) static SWEEP_FITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Fits performed by the sweeps `f` runs.
    fn sweep_fits<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = SWEEP_FITS.with(|n| n.get());
        let out = f();
        (out, SWEEP_FITS.with(|n| n.get()) - before)
    }

    /// Deterministic interleaved bimodal sample: half near 10, half near 50.
    fn bimodal() -> Vec<f64> {
        let mut xs = Vec::new();
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.3 - 0.9;
            if i % 2 == 0 {
                xs.push(10.0 + jitter);
            } else {
                xs.push(50.0 + jitter);
            }
        }
        xs
    }

    #[test]
    fn single_component_fit_is_mle() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let gmm = Gmm::fit(&xs, 1, &GmmFitOptions::default());
        assert_eq!(gmm.len(), 1);
        assert!((gmm.components[0].gaussian.mu - 2.5).abs() < 1e-12);
    }

    #[test]
    fn two_component_fit_finds_modes() {
        let xs = bimodal();
        let gmm = Gmm::fit(&xs, 2, &GmmFitOptions::default());
        let mut mus: Vec<f64> = gmm.components.iter().map(|c| c.gaussian.mu).collect();
        mus.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((mus[0] - 10.0).abs() < 1.0, "low mode at {}", mus[0]);
        assert!((mus[1] - 50.0).abs() < 1.0, "high mode at {}", mus[1]);
    }

    #[test]
    fn bic_prefers_two_components_on_bimodal() {
        let xs = bimodal();
        let opts = GmmFitOptions::default();
        let auto = Gmm::fit_auto(&xs, &opts);
        assert!(auto.len() >= 2, "BIC should reject a single Gaussian");
    }

    #[test]
    fn bic_prefers_one_component_on_unimodal() {
        // A genuinely Gaussian sample: extra components do not pay for
        // their BIC penalty.
        let mut s = crate::sampler::Sampler::new(4);
        let xs: Vec<f64> = (0..400).map(|_| s.normal(20.0, 2.0)).collect();
        let auto = Gmm::fit_auto(&xs, &GmmFitOptions::default());
        assert_eq!(auto.len(), 1, "BIC should select 1 component");
    }

    #[test]
    fn weights_sum_to_one() {
        let gmm = Gmm::fit(&bimodal(), 3, &GmmFitOptions::default());
        let total: f64 = gmm.components.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn log_pdf_matches_manual_mixture() {
        let gmm = Gmm {
            components: vec![
                GmmComponent {
                    weight: 0.3,
                    gaussian: Gaussian::new(0.0, 1.0),
                },
                GmmComponent {
                    weight: 0.7,
                    gaussian: Gaussian::new(5.0, 2.0),
                },
            ],
        };
        let x = 2.0;
        let manual = 0.3 * Gaussian::new(0.0, 1.0).pdf(x) + 0.7 * Gaussian::new(5.0, 2.0).pdf(x);
        assert!((gmm.pdf(x) - manual).abs() < 1e-12);
    }

    #[test]
    fn mixture_mean() {
        let gmm = Gmm {
            components: vec![
                GmmComponent {
                    weight: 0.5,
                    gaussian: Gaussian::new(0.0, 1.0),
                },
                GmmComponent {
                    weight: 0.5,
                    gaussian: Gaussian::new(10.0, 1.0),
                },
            ],
        };
        assert!((gmm.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        let gmm = Gmm::fit(&[], 3, &GmmFitOptions::default());
        assert_eq!(gmm.len(), 1);
        let gmm = Gmm::fit(&[1.0], 3, &GmmFitOptions::default());
        assert_eq!(gmm.len(), 1);
        assert!(gmm.log_pdf(1.0).is_finite());
        // Identical points: sigma floored, density finite.
        let gmm = Gmm::fit(&[2.0; 50], 2, &GmmFitOptions::default());
        assert!(gmm.log_pdf(2.0).is_finite());
    }

    #[test]
    fn log_likelihood_higher_for_better_model() {
        let xs = bimodal();
        let one = Gmm::fit(&xs, 1, &GmmFitOptions::default());
        let two = Gmm::fit(&xs, 2, &GmmFitOptions::default());
        assert!(two.log_likelihood(&xs) > one.log_likelihood(&xs));
    }

    #[test]
    fn unit_weights_match_unweighted_fit() {
        let xs = bimodal();
        let ws = vec![1.0; xs.len()];
        for c in 1..=3 {
            let a = Gmm::fit(&xs, c, &GmmFitOptions::default());
            let b = Gmm::fit_weighted(&xs, &ws, c, &GmmFitOptions::default());
            assert_eq!(a, b, "unit-weight fit diverged at c={c}");
        }
        let a = Gmm::fit_auto(&xs, &GmmFitOptions::default());
        let b = Gmm::fit_auto_weighted(&xs, &ws, &GmmFitOptions::default());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn down_weighted_mode_loses_mass() {
        // Two modes, but the high mode's samples carry tiny weight: the
        // weighted fit must put most mixing weight on the low mode.
        let mut xs = Vec::new();
        let mut ws = Vec::new();
        for i in 0..200 {
            let jitter = (i % 7) as f64 * 0.3 - 0.9;
            if i % 2 == 0 {
                xs.push(10.0 + jitter);
                ws.push(1.0);
            } else {
                xs.push(50.0 + jitter);
                ws.push(0.05);
            }
        }
        let gmm = Gmm::fit_weighted(&xs, &ws, 2, &GmmFitOptions::default());
        let low_weight: f64 = gmm
            .components
            .iter()
            .filter(|c| c.gaussian.mu < 30.0)
            .map(|c| c.weight)
            .sum();
        assert!(low_weight > 0.8, "low mode weight {low_weight}");
    }

    #[test]
    fn weighted_gaussian_fit_tracks_heavy_samples() {
        let g = Gaussian::fit_weighted(&[0.0, 10.0], &[3.0, 1.0]);
        assert!((g.mu - 2.5).abs() < 1e-12);
        let empty = Gaussian::fit_weighted(&[], &[]);
        assert!(empty.sigma > 0.0);
    }

    /// `Gaussian::log_pdf` as `fit_weighted_reference` has always called it.
    fn reference_log_pdf(g: &Gaussian, x: f64) -> f64 {
        let z = (x - g.mu) / g.sigma;
        -0.5 * z * z - g.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn reference_log_sum_exp(xs: &[f64]) -> f64 {
        let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !m.is_finite() {
            return m;
        }
        m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
    }

    fn reference_mixture_log_pdf(gmm: &Gmm, x: f64) -> f64 {
        let logs: Vec<f64> = gmm
            .components
            .iter()
            .map(|c| c.weight.max(f64::MIN_POSITIVE).ln() + reference_log_pdf(&c.gaussian, x))
            .collect();
        reference_log_sum_exp(&logs)
    }

    /// The textbook EM loop `Gmm::fit_weighted` was before it was made
    /// allocation-free: a `Vec` and two logarithms per (sample, component),
    /// three strided M-step passes, a sort per component. The oracle:
    /// `fit_weighted` must return exactly what this returns.
    fn fit_weighted_reference(xs: &[f64], ws: &[f64], c: usize, opts: &GmmFitOptions) -> Gmm {
        if xs.is_empty() {
            return Gmm::single(Gaussian::new(0.0, 1.0));
        }
        let total_w: f64 = ws.iter().sum();
        if c == 1 || xs.len() < 2 * c || total_w <= 0.0 {
            return Gmm::single(Gaussian::fit_weighted(xs, ws));
        }

        let overall_sigma = population_variance(xs).sqrt().max(SIGMA_FLOOR);
        let mut comps: Vec<GmmComponent> = (0..c)
            .map(|i| {
                let q = (i as f64 + 0.5) / c as f64 * 100.0;
                GmmComponent {
                    weight: 1.0 / c as f64,
                    gaussian: Gaussian::new(crate::desc::percentile(xs, q), overall_sigma),
                }
            })
            .collect();

        let n = xs.len();
        let mut resp = vec![0.0f64; n * c];
        let mut prev_ll = f64::NEG_INFINITY;

        for _ in 0..opts.max_iters {
            let mut ll = 0.0;
            for (i, &x) in xs.iter().enumerate() {
                let logs: Vec<f64> = comps
                    .iter()
                    .map(|cm| {
                        cm.weight.max(f64::MIN_POSITIVE).ln() + reference_log_pdf(&cm.gaussian, x)
                    })
                    .collect();
                let lse = reference_log_sum_exp(&logs);
                ll += ws[i] * lse;
                for (j, &lj) in logs.iter().enumerate() {
                    resp[i * c + j] = (lj - lse).exp();
                }
            }

            for j in 0..c {
                let nj: f64 = (0..n).map(|i| ws[i] * resp[i * c + j]).sum();
                if nj < 1e-12 {
                    comps[j] = GmmComponent {
                        weight: 1e-6,
                        gaussian: Gaussian::new(mean(xs), overall_sigma),
                    };
                    continue;
                }
                let mu: f64 = (0..n).map(|i| ws[i] * resp[i * c + j] * xs[i]).sum::<f64>() / nj;
                let var: f64 = (0..n)
                    .map(|i| {
                        let d = xs[i] - mu;
                        ws[i] * resp[i * c + j] * d * d
                    })
                    .sum::<f64>()
                    / nj;
                comps[j] = GmmComponent {
                    weight: nj / total_w,
                    gaussian: Gaussian::new(mu, var.sqrt()),
                };
            }
            normalize_weights(&mut comps);

            if (ll - prev_ll).abs() / total_w <= opts.tol {
                break;
            }
            prev_ll = ll;
        }

        Gmm { components: comps }
    }

    /// `fit_weighted` against the reference on one sample, at every
    /// component count and both iteration caps in use, then the fitted
    /// mixture's `log_pdf` against the reference scoring on the sample.
    fn assert_matches_reference(xs: &[f64], ws: &[f64], what: &str) {
        for c in 1..=5 {
            for max_iters in [40, 100] {
                let opts = GmmFitOptions {
                    max_iters,
                    ..GmmFitOptions::default()
                };
                let fitted = Gmm::fit_weighted(xs, ws, c, &opts);
                let reference = fit_weighted_reference(xs, ws, c, &opts);
                assert_eq!(fitted, reference, "{what}, c={c}, max_iters={max_iters}");
                for &x in xs.iter().take(50) {
                    let (a, b) = (fitted.log_pdf(x), reference_mixture_log_pdf(&fitted, x));
                    assert!(a == b || (a.is_nan() && b.is_nan()), "{what}: {a} vs {b}");
                }
            }
        }
    }

    /// Weights of a decayed reservoir: the sample arrived in rounds of
    /// `round` gaps, each round halving every older one.
    fn decayed_weights(n: usize, round: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.5f64.powi(((n - 1 - i) / round) as i32))
            .collect()
    }

    #[test]
    fn fit_is_bit_identical_to_the_reference_loop() {
        for seed in [1, 2] {
            let mut s = crate::sampler::Sampler::new(seed);
            for n in [0, 1, 3, 9, 10, 57, 200, 1000] {
                // Gaps as the registry sees them: a log-normal body, a slow
                // second mode, a few outliers.
                let xs: Vec<f64> = (0..n)
                    .map(|i| match i % 10 {
                        0..=5 => s.log_normal(5.0, 0.4),
                        6..=8 => s.normal(900.0, 60.0),
                        _ => s.exponential(4000.0),
                    })
                    .collect();
                assert_matches_reference(&xs, &vec![1.0; n], &format!("unit weights, n={n}"));
                assert_matches_reference(&xs, &decayed_weights(n, 64), &format!("decayed, n={n}"));
            }
        }
    }

    #[test]
    fn degenerate_fits_are_bit_identical_to_the_reference_loop() {
        // Constant sample: every sigma sits on the floor.
        assert_matches_reference(&[2.0; 50], &[1.0; 50], "constant");
        assert_matches_reference(&[2.0; 50], &decayed_weights(50, 8), "constant, decayed");
        // All weight gone: the single-Gaussian fallback.
        assert_matches_reference(&[1.0, 2.0, 3.0, 4.0], &[0.0; 4], "zero weights");

        // Two point masses and three components: the outer two collapse
        // onto the masses and starve the middle one, which is re-seeded at
        // the sample mean with weight 1e-6.
        let xs: Vec<f64> = (0..80)
            .map(|i| if i % 2 == 0 { 0.0 } else { 10.0 })
            .collect();
        let ws = vec![1.0; xs.len()];
        let starved = Gmm::fit_weighted(&xs, &ws, 3, &GmmFitOptions::default());
        assert!(
            starved
                .components
                .iter()
                .any(|c| c.gaussian.mu == 5.0 && c.weight < 2e-6),
            "no re-seeded component in {starved:?}"
        );
        assert_matches_reference(&xs, &ws, "dead component");
    }

    /// The exhaustive sweep `fit_auto` was before it learned to stop: every
    /// count `1..=max_components`, unweighted fit, unweighted BIC.
    fn fit_auto_reference(xs: &[f64], opts: &GmmFitOptions) -> Gmm {
        let mut best: Option<(f64, Gmm)> = None;
        for c in 1..=opts.max_components.max(1) {
            let gmm = Gmm::fit(xs, c, opts);
            let bic = gmm.bic(xs);
            match &best {
                Some((b, _)) if *b <= bic => {}
                _ => best = Some((bic, gmm)),
            }
        }
        best.expect("at least one candidate model").1
    }

    /// Gap-shaped samples of 1–4 modes: a log-normal body, then up to
    /// three slower modes, at the sizes an edge sees in one window.
    fn gap_samples() -> Vec<(String, Vec<f64>)> {
        let mut out = Vec::new();
        for seed in [1, 2, 3] {
            let mut s = crate::sampler::Sampler::new(seed);
            for modes in 1..=4usize {
                for n in [3, 12, 60, 250, 900] {
                    let xs: Vec<f64> = (0..n)
                        .map(|i| match i % modes {
                            0 => s.log_normal(5.0, 0.3),
                            1 => s.normal(900.0, 40.0),
                            2 => s.normal(2500.0, 90.0),
                            _ => s.normal(6000.0, 200.0),
                        })
                        .collect();
                    out.push((format!("seed {seed}, {modes} modes, n={n}"), xs));
                }
            }
        }
        out
    }

    #[test]
    fn contiguous_sweep_stops_after_two_counts_that_do_not_pay() {
        let opts = GmmFitOptions::default();
        let (mut stopped, mut exhaustive) = (0, 0);
        for (what, xs) in gap_samples() {
            let (auto, fits) = sweep_fits(|| Gmm::fit_auto(&xs, &opts));
            // It stops where the rule says: two counts running that did not
            // beat the best before them, or out of counts.
            let (mut best, mut rises, mut expected) = (f64::INFINITY, 0, opts.max_components);
            for c in 1..=opts.max_components {
                let bic = Gmm::fit(&xs, c, &opts).bic(&xs);
                (best, rises) = if best <= bic {
                    (best, rises + 1)
                } else {
                    (bic, 0)
                };
                if rises == 2 {
                    expected = c;
                    break;
                }
            }
            assert_eq!(fits, expected, "{what}");
            // What it returns is the exhaustive sweep cut at that count...
            let cut = GmmFitOptions {
                max_components: fits,
                ..opts
            };
            assert_eq!(auto, fit_auto_reference(&xs, &cut), "{what}");
            // ...and the cut loses nothing once a sample is too large for a
            // late component to pay by collapsing onto one point (on a few
            // dozen gaps the exhaustive sweep can find such a spike at C = 5
            // after two rises; `gap_samples` has four of those).
            if xs.len() >= 250 {
                assert_eq!(auto, fit_auto_reference(&xs, &opts), "{what}");
            }
            stopped += fits;
            exhaustive += opts.max_components;
        }
        assert!(stopped < exhaustive, "{stopped} fits of {exhaustive}");
    }

    #[test]
    fn unit_weight_sweep_is_the_unweighted_sweep() {
        // `fit_auto` is `fit_auto_weighted` at unit weights: the BIC it
        // ranks by must be the unweighted BIC to the bit.
        for (what, xs) in gap_samples() {
            let ws = vec![1.0; xs.len()];
            for c in 1..=5 {
                let gmm = Gmm::fit(&xs, c, &GmmFitOptions::default());
                assert_eq!(gmm.bic(&xs), gmm.bic_weighted(&xs, &ws), "{what}, c={c}");
            }
        }
    }

    #[test]
    fn narrowed_sweep_still_tries_every_count_in_its_set() {
        let opts = GmmFitOptions {
            max_iters: 40,
            tol: 1e-5,
            ..GmmFitOptions::default()
        };
        // Unimodal reservoir: BIC rises straight after C = 1, so a
        // contiguous sweep stops after three fits. The narrowed one must
        // not stop at all.
        let mut s = crate::sampler::Sampler::new(4);
        let xs: Vec<f64> = (0..400).map(|_| s.normal(20.0, 2.0)).collect();
        let ws = decayed_weights(xs.len(), 64);
        let (full, fits) = sweep_fits(|| Gmm::fit_auto_weighted(&xs, &ws, &opts));
        assert_eq!((full.len(), fits), (1, 3));
        let sets = [
            (1, vec![1, 2]),
            (3, vec![1, 2, 3, 4]),
            (4, vec![1, 3, 4, 5]),
            (5, vec![1, 4, 5]),
        ];
        for (near, set) in sets {
            let (narrowed, fits) =
                sweep_fits(|| Gmm::fit_auto_weighted_near(&xs, &ws, &opts, near));
            assert_eq!(fits, set.len(), "near={near}");
            // And it returns what fitting all of them by hand returns.
            let by_hand = set
                .iter()
                .map(|&c| Gmm::fit_weighted(&xs, &ws, c, &opts))
                .min_by(|a, b| {
                    let (a, b) = (a.bic_weighted(&xs, &ws), b.bic_weighted(&xs, &ws));
                    a.partial_cmp(&b).expect("finite BIC")
                })
                .expect("non-empty set");
            assert_eq!(narrowed, by_hand, "near={near}");
        }
    }

    #[test]
    fn large_mixtures_score_like_small_ones() {
        // More components than `fit_weighted` fits or `log_pdf` keeps on
        // the stack, as a deserialised model may carry: built by hand.
        let mut s = crate::sampler::Sampler::new(3);
        let n = MAX_COMPONENTS + 2;
        let gmm = Gmm {
            components: (0..n)
                .map(|i| GmmComponent {
                    weight: 1.0 / n as f64,
                    gaussian: Gaussian::new(s.log_normal(5.0, 0.8), 1.0 + i as f64 * 7.0),
                })
                .collect(),
        };
        let xs: Vec<f64> = (0..400).map(|_| s.log_normal(5.0, 0.8)).collect();
        for &x in &xs {
            assert_eq!(gmm.log_pdf(x), reference_mixture_log_pdf(&gmm, x));
        }
        let textbook: f64 = xs.iter().map(|&x| reference_mixture_log_pdf(&gmm, x)).sum();
        assert_eq!(gmm.log_likelihood(&xs), textbook);
    }

    #[test]
    fn sweeps_cap_the_component_count() {
        let xs: Vec<f64> = gap_samples().pop().expect("samples").1;
        let ws = decayed_weights(xs.len(), 64);
        let opts = GmmFitOptions {
            max_components: 20,
            max_iters: 40,
            ..GmmFitOptions::default()
        };
        assert!(Gmm::fit_auto(&xs, &opts).len() <= MAX_COMPONENTS);
        assert!(Gmm::fit_auto_weighted(&xs, &ws, &opts).len() <= MAX_COMPONENTS);
        assert!(Gmm::fit_auto_weighted_near(&xs, &ws, &opts, 20).len() <= MAX_COMPONENTS);
    }

    #[test]
    #[should_panic(expected = "MAX_COMPONENTS")]
    fn fit_past_the_cap_panics() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        Gmm::fit(&xs, MAX_COMPONENTS + 1, &GmmFitOptions::default());
    }

    /// Gap-shaped samples for the generated oracle: 1–4 modes, optionally
    /// snapped to a grid (repeated values) and with one constant run.
    fn generated_gaps(
        seed: u64,
        n: usize,
        modes: usize,
        grid: f64,
        run: (usize, usize),
    ) -> Vec<f64> {
        let mut s = crate::sampler::Sampler::new(seed);
        let mut xs: Vec<f64> = (0..n)
            .map(|i| match i % modes {
                0 => s.log_normal(5.0, 0.4),
                1 => s.normal(900.0, 60.0),
                2 => s.exponential(4000.0),
                _ => s.normal(2500.0, 90.0),
            })
            .map(|x| {
                if grid > 0.0 {
                    (x / grid).round() * grid
                } else {
                    x
                }
            })
            .collect();
        let start = run.0.min(n);
        let end = (start + run.1).min(n);
        xs[start..end].fill(420.0);
        xs
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The oracle at every width the kernel is compiled for, and the
        /// BIC against a per-point textbook sum, both to the bit.
        #[test]
        fn every_width_is_bit_identical_to_the_reference_loop(
            seed in 0u64..1_000_000,
            n in 0usize..601,
            modes in 1usize..5,
            grid in 0usize..3,
            run in (0usize..600, 0usize..200),
            weights in 0u8..3,
            c in 1usize..MAX_COMPONENTS + 1,
            max_iters in 0usize..4,
            tol in 0usize..2,
        ) {
            let xs = generated_gaps(seed, n, modes, [0.0, 1.0, 50.0][grid], run);
            let (max_iters, tol) = ([1, 2, 40, 100][max_iters], [1e-6, 1e-5][tol]);
            let ws: Vec<f64> = match weights {
                0 => vec![1.0; n],
                1 => decayed_weights(n, 64),
                _ => {
                    let mut s = crate::sampler::Sampler::new(seed ^ 0x5eed);
                    (0..n).map(|_| if s.coin(0.2) { 0.0 } else { s.uniform() }).collect()
                }
            };
            let opts = GmmFitOptions { max_iters, tol, ..GmmFitOptions::default() };
            let fitted = Gmm::fit_weighted(&xs, &ws, c, &opts);
            proptest::prop_assert_eq!(&fitted, &fit_weighted_reference(&xs, &ws, c, &opts));

            let k = (3 * fitted.len() - 1) as f64;
            let n_eff = ws.iter().sum::<f64>().max(1.0);
            let ll: f64 = xs
                .iter()
                .zip(&ws)
                .map(|(&x, &w)| w * reference_mixture_log_pdf(&fitted, x))
                .sum();
            let textbook = k * n_eff.ln() - 2.0 * ll;
            proptest::prop_assert_eq!(fitted.bic_weighted(&xs, &ws).to_bits(), textbook.to_bits());
        }
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&[-1000.0, -1000.0]) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
