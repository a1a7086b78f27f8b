//! Gaussian Mixture Models fit by Expectation-Maximization, with Bayesian
//! Information Criterion model selection.
//!
//! This implements the delay-distribution machinery of TraceWeaver §4.1
//! step 3: after the first iteration, inferred (parent, child) gaps are fit
//! with a GMM whose component count is chosen by sweeping `C = 1..=C_max`
//! and minimizing BIC.

use crate::desc::{percentile_sorted, population_variance};
use crate::gaussian::{Gaussian, SIGMA_FLOOR};
use serde::{Deserialize, Serialize};

/// One mixture component: a weighted Gaussian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GmmComponent {
    /// Mixing weight π_c, in (0, 1]; weights of a mixture sum to 1.
    pub weight: f64,
    pub gaussian: Gaussian,
}

impl GmmComponent {
    /// `(ln weight, ln sigma)`: the logarithms of its parameters that
    /// [`Gmm::log_pdf_given`] takes.
    pub fn log_terms(&self) -> (f64, f64) {
        let ln_w = self.weight.max(f64::MIN_POSITIVE).ln();
        (ln_w, self.gaussian.sigma.ln())
    }
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
    /// Maximum EM maps (E-step plus M-step) per candidate model, SQUAREM's
    /// stabilising maps included.
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
        self.log_pdf_given(x, self.components.iter().map(GmmComponent::log_terms))
    }

    /// Every component's [`GmmComponent::log_terms`], in order.
    pub fn log_terms(&self) -> Vec<(f64, f64)> {
        self.components.iter().map(|c| c.log_terms()).collect()
    }

    /// [`Gmm::log_pdf`] for a caller that already holds each component's
    /// [`GmmComponent::log_terms`], so scoring many points under one
    /// mixture takes no logarithm of a parameter.
    pub fn log_pdf_given(&self, x: f64, terms: impl IntoIterator<Item = (f64, f64)>) -> f64 {
        debug_assert!(!self.components.is_empty());
        let mut logs = self
            .components
            .iter()
            .zip(terms)
            .map(|(c, (ln_w, ln_sigma))| ln_w + c.gaussian.log_pdf_given(x, ln_sigma));
        let n = self.components.len();
        if n <= MAX_COMPONENTS {
            let mut stack = [0.0; MAX_COMPONENTS];
            stack.iter_mut().zip(&mut logs).for_each(|(l, t)| *l = t);
            log_sum_exp(&mut stack[..n])
        } else {
            log_sum_exp(&mut logs.collect::<Vec<f64>>())
        }
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
        self.log_likelihood_weighted(xs, &vec![1.0; xs.len()])
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
        fit_with(xs, ws, c, opts, &mut None, None).0
    }

    /// Sweep `C = 1..=opts.max_components` up to the first count that does
    /// not improve BIC, and return the BIC minimizer (paper §4.1 step 3).
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
        Gmm::fit_auto_from(xs, &[], opts).0
    }

    /// [`Gmm::fit_auto`] whose EM at each width starts from the fit of that
    /// width in `starts`, if any, instead of from quantiles. Returns the BIC
    /// minimizer and the fit at every width the sweep ran, to start the
    /// next sweep of a nearby sample from.
    pub fn fit_auto_from(xs: &[f64], starts: &[Gmm], opts: &GmmFitOptions) -> (Self, Vec<Gmm>) {
        let max = opts.max_components.clamp(1, MAX_COMPONENTS);
        min_bic(xs, &vec![1.0; xs.len()], 1..=max, true, starts, opts)
    }

    /// Weighted log-likelihood of a sample under this mixture.
    pub fn log_likelihood_weighted(&self, xs: &[f64], ws: &[f64]) -> f64 {
        // Each component's `ln weight` and `ln sigma` once per mixture.
        let terms = self.log_terms();
        let log_pdfs = xs
            .iter()
            .map(|&x| self.log_pdf_given(x, terms.iter().copied()));
        log_pdfs.zip(ws).map(|(l, &w)| w * l).sum()
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
        min_bic(xs, ws, 1..=max, true, &[], opts).0
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
        min_bic(xs, ws, counts, false, &[], opts).0
    }
}

/// [`Gmm::fit_weighted`] with what EM's initialisation reads in `init`:
/// the sorted sample and its overall σ, the same at every width. The first
/// fit that runs EM fills it, so a sweep sorts its sample once, not once
/// per count. EM starts from `start` where it has `c` components. Returns
/// the fit and the EM maps it ran.
fn fit_with(
    xs: &[f64],
    ws: &[f64],
    c: usize,
    opts: &GmmFitOptions,
    init: &mut Option<(Vec<f64>, f64)>,
    start: Option<&Gmm>,
) -> (Gmm, usize) {
    assert!(c >= 1, "component count must be >= 1");
    assert!(
        c <= MAX_COMPONENTS,
        "component count must be <= MAX_COMPONENTS ({MAX_COMPONENTS})"
    );
    assert_eq!(xs.len(), ws.len(), "one weight per sample");
    if xs.is_empty() {
        return (Gmm::single(Gaussian::new(0.0, 1.0)), 0);
    }
    let total_w: f64 = ws.iter().sum();
    if c == 1 || xs.len() < 2 * c || total_w <= 0.0 {
        return (Gmm::single(Gaussian::fit_weighted(xs, ws)), 0);
    }
    let (sorted, overall_sigma) = init.get_or_insert_with(|| {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in GMM sample"));
        (sorted, population_variance(xs).sqrt().max(SIGMA_FLOOR))
    });
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
    let start = start.map(|g| &g.components[..]).filter(|s| s.len() == c);
    let (components, maps) = em(xs, ws, total_w, sorted, *overall_sigma, start, opts);
    (Gmm { components }, maps)
}

/// [`Gmm::fit_weighted`]'s EM at a width `C` fixed at compile time, for
/// `2 <= C <= xs.len() / 2` and `total_w = Σ ws > 0`: from `start`, or
/// else from the sorted sample's quantiles and its overall σ. Returns the
/// fit and the maps it ran.
///
/// SQUAREM (Varadhan & Roland, 2008) drives the EM map F ([`em_map`]).
/// A cycle maps θ₁ = F(θ₀) and θ₂ = F(θ₁), steps over (w, μ, ln σ) to
/// θ′ = θ₀ − 2αr + α²v, with r = θ₁ − θ₀, v = θ₂ − 2θ₁ + θ₀ and
/// |α| = ‖r‖/‖v‖ clamped to [1, `step_max`] ([`extrapolate`]), and
/// stabilises with F(θ′). It goes on from F(θ′) unless ll(θ′) < ll(θ₁), and
/// from θ₂ then. `step_max` (Du & Varadhan, 2020) is 1 at the start, ×4
/// after an accepted step that reached it, ÷4 (not below 1) after a
/// rejected one. Every map counts against `max_iters`; EM stops once a
/// map, not a step, gains at most `tol` per unit weight. The textbook loop
/// in this module's tests takes the same steps and holds the kernel to
/// `==`: this fit decides every mapping (DESIGN.md §7).
fn em<const C: usize>(
    xs: &[f64],
    ws: &[f64],
    total_w: f64,
    sorted: &[f64],
    overall_sigma: f64,
    start: Option<&[GmmComponent]>,
    opts: &GmmFitOptions,
) -> (Vec<GmmComponent>, usize) {
    let cold = |i: usize| GmmComponent {
        weight: 1.0 / C as f64,
        gaussian: Gaussian::new(
            percentile_sorted(sorted, (i as f64 + 0.5) / C as f64 * 100.0),
            overall_sigma,
        ),
    };
    let mut theta = std::array::from_fn(|i| start.map_or_else(|| cold(i), |s| s[i]));
    // A row holds the sample's per-component log terms, then their
    // `exp(l − max)`, then its responsibilities, which the variance pass
    // reads back.
    let mut resp = vec![[0.0f64; C]; xs.len()];
    let mut map = |theta: &[GmmComponent; C]| em_map(xs, ws, total_w, cold, theta, &mut resp);
    let converged = |ll: f64, prev: f64| (ll - prev).abs() / total_w <= opts.tol;
    let (mut maps, mut prev_ll, mut step_max) = (0, f64::NEG_INFINITY, 1.0);
    while maps < opts.max_iters {
        let (ll0, t1) = map(&theta);
        maps += 1;
        if converged(ll0, prev_ll) || maps == opts.max_iters {
            return (t1.to_vec(), maps);
        }
        let (ll1, t2) = map(&t1);
        maps += 1;
        if converged(ll1, ll0) || maps == opts.max_iters {
            return (t2.to_vec(), maps);
        }
        let (stepped, bounded) = extrapolate(&theta, &t1, &t2, step_max);
        let (ll, next) = map(&stepped);
        maps += 1;
        if ll < ll1 || ll.is_nan() {
            (theta, prev_ll, step_max) = (t2, ll1, (step_max / 4.0).max(1.0));
        } else {
            (theta, prev_ll) = (next, ll);
            if bounded {
                step_max *= 4.0;
            }
        }
    }
    (theta.to_vec(), maps)
}

/// One EM map F(θ): the E-step's weighted log-likelihood of `comps` and
/// the M-step's mixture. The E-step takes each responsibility from the
/// log-sum-exp's own terms, `r = e · (1/Σe)` (one `exp` per term, not
/// two), and the M-step's mass and mean sums ride in the same pass. Each
/// accumulator sees, value by value, the same floating-point operations in
/// the same order as the textbook loop.
fn em_map<const C: usize>(
    xs: &[f64],
    ws: &[f64],
    total_w: f64,
    cold: impl Fn(usize) -> GmmComponent,
    comps: &[GmmComponent; C],
    resp: &mut [[f64; C]],
) -> (f64, [GmmComponent; C]) {
    let ln_w: [f64; C] = std::array::from_fn(|j| comps[j].weight.max(f64::MIN_POSITIVE).ln());
    let ln_sigma: [f64; C] = std::array::from_fn(|j| comps[j].gaussian.sigma.ln());

    // E-step, with the masses and weighted sums the M-step divides.
    let (mut ll, mut nj, mut mu) = (0.0, [0.0f64; C], [0.0f64; C]);
    for ((&x, &w), row) in xs.iter().zip(ws).zip(resp.iter_mut()) {
        for j in 0..C {
            row[j] = ln_w[j] + comps[j].gaussian.log_pdf_given(x, ln_sigma[j]);
        }
        let (lse, sum) = exp_terms(row);
        ll += w * lse;
        let inv = 1.0 / sum;
        for j in 0..C {
            let r = row[j] * inv;
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
    for ((&x, &w), row) in xs.iter().zip(ws).zip(resp.iter()) {
        for j in 0..C {
            let d = x - mu[j];
            var[j] += w * row[j] * d * d;
        }
    }
    let mut next: [GmmComponent; C] = std::array::from_fn(|j| {
        if nj[j] < 1e-12 {
            // Dead component: re-seed it at its cold start, tiny weight, so
            // it can recover and two that die together stay apart.
            GmmComponent {
                weight: 1e-6,
                ..cold(j)
            }
        } else {
            GmmComponent {
                weight: nj[j] / total_w,
                gaussian: Gaussian::new(mu[j], (var[j] / nj[j]).sqrt()),
            }
        }
    });
    normalize_weights(&mut next);
    (ll, next)
}

/// SQUAREM's step from θ₀ = `t0`, θ₁ = `t1`, θ₂ = `t2` (see [`em`]), weights
/// renormalised (`t2` where one is not positive or a value not finite),
/// and whether |α| reached `step_max`.
fn extrapolate<const C: usize>(
    t0: &[GmmComponent; C],
    t1: &[GmmComponent; C],
    t2: &[GmmComponent; C],
    step_max: f64,
) -> ([GmmComponent; C], bool) {
    let coords = |c: &GmmComponent| [c.weight, c.gaussian.mu, c.gaussian.sigma.ln()];
    let (mut r, mut v, mut rr, mut vv) = ([[0.0; 3]; C], [[0.0; 3]; C], 0.0, 0.0);
    for j in 0..C {
        let (a, b, c) = (coords(&t0[j]), coords(&t1[j]), coords(&t2[j]));
        for k in 0..3 {
            r[j][k] = b[k] - a[k];
            v[j][k] = c[k] - 2.0 * b[k] + a[k];
            rr += r[j][k] * r[j][k];
            vv += v[j][k] * v[j][k];
        }
    }
    let ratio = rr.sqrt() / vv.sqrt(); // NaN where nothing moved: α = −1
    let (alpha, bounded) = (-ratio.max(1.0).min(step_max), ratio >= step_max);
    let mut out = *t2;
    for j in 0..C {
        let a = coords(&t0[j]);
        let p: [f64; 3] =
            std::array::from_fn(|k| a[k] - 2.0 * alpha * r[j][k] + alpha * alpha * v[j][k]);
        let sigma = p[2].exp();
        if p[0] <= 0.0 || !(p[0].is_finite() && p[1].is_finite() && sigma.is_finite()) {
            return (*t2, bounded);
        }
        out[j] = GmmComponent {
            weight: p[0],
            gaussian: Gaussian::new(p[1], sigma),
        };
    }
    normalize_weights(&mut out);
    (out, bounded)
}

/// The one BIC sweep over ascending `counts`: lowest weighted BIC wins, the
/// smaller count on a tie. `stop_when_rising` (contiguous counts only) ends
/// it at the first count that does not beat the best — DESIGN.md §7. The
/// fit at each width starts from the mixture of that width in `starts`.
/// Returns the winner and every fit, in the order run.
fn min_bic(
    xs: &[f64],
    ws: &[f64],
    counts: impl IntoIterator<Item = usize>,
    stop_when_rising: bool,
    starts: &[Gmm],
    opts: &GmmFitOptions,
) -> (Gmm, Vec<Gmm>) {
    let (mut best, mut fits, mut init) = (None, Vec::new(), None);
    for c in counts {
        #[cfg(test)]
        tests::SWEEP_FITS.with(|n| n.set(n.get() + 1));
        let start = starts.iter().find(|g| g.len() == c);
        let gmm = fit_with(xs, ws, c, opts, &mut init, start).0;
        let bic = gmm.bic_weighted(xs, ws);
        fits.push(gmm);
        match best {
            Some((_, b)) if b <= bic => {
                if stop_when_rising {
                    break;
                }
            }
            _ => best = Some((fits.len() - 1, bic)),
        }
    }
    let best = best.expect("at least one candidate model").0;
    (fits[best].clone(), fits)
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
/// sum taken in order, with each term `exp(x − max)` left in its `x`.
/// Returns `(lse, Σ)`. The first maximal term is `exp(0) = 1` exactly, so
/// it is the literal; `x > max` skips NaN as `f64::max` does. A
/// non-finite maximum is the lse itself: every term is then
/// `exp(x − max)` as it stands and `Σ` is 1, so `term / Σ` is
/// `exp(x − lse)`.
#[inline(always)]
fn exp_terms(xs: &mut [f64]) -> (f64, f64) {
    let (mut max, mut top) = (f64::NEG_INFINITY, 0);
    for (j, &x) in xs.iter().enumerate() {
        if x > max {
            (max, top) = (x, j);
        }
    }
    if !max.is_finite() {
        for x in xs.iter_mut() {
            *x = (*x - max).exp();
        }
        return (max, 1.0);
    }
    let mut sum = 0.0;
    for (j, x) in xs.iter_mut().enumerate() {
        *x = if j == top { 1.0 } else { (*x - max).exp() };
        sum += *x;
    }
    (max + sum.ln(), sum)
}

/// [`exp_terms`]' lse; `xs` is left holding the terms.
#[inline(always)]
fn log_sum_exp(xs: &mut [f64]) -> f64 {
    exp_terms(xs).0
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
        let pdf = |g: Gaussian| g.log_pdf(x).exp();
        let manual = 0.3 * pdf(Gaussian::new(0.0, 1.0)) + 0.7 * pdf(Gaussian::new(5.0, 2.0));
        assert!((gmm.log_pdf(x).exp() - manual).abs() < 1e-12);
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

    /// One sample's E-step in the ratio form: from its `Vec` of log terms,
    /// the max (the literal 1 at the first maximum), `e_j = exp(l_j − max)`,
    /// `s = Σ e_j` in order, `lse = max + ln s` and `r_j = e_j · (1/s)`. A
    /// non-finite max is the lse, and `r_j = exp(l_j − lse)`.
    fn ratio_responsibilities(logs: &[f64]) -> (f64, Vec<f64>) {
        let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !m.is_finite() {
            return (m, logs.iter().map(|&l| (l - m).exp()).collect());
        }
        let top = logs.iter().position(|&l| l == m).expect("a maximum");
        let es: Vec<f64> = (0..logs.len())
            .map(|j| if j == top { 1.0 } else { (logs[j] - m).exp() })
            .collect();
        let s: f64 = es.iter().sum();
        let inv = 1.0 / s;
        (m + s.ln(), es.iter().map(|&e| e * inv).collect())
    }

    /// One sample's E-step in the exp form the kernel used until it took
    /// `r = e / Σe`: `lse` by log-sum-exp, then `r_j = exp(l_j − lse)`.
    fn exp_responsibilities(logs: &[f64]) -> (f64, Vec<f64>) {
        let lse = reference_log_sum_exp(logs);
        (lse, logs.iter().map(|&l| (l - lse).exp()).collect())
    }

    /// The oracle: the textbook EM loop `Gmm::fit_weighted` was before it
    /// was made allocation-free, with the ratio-form E-step and SQUAREM's
    /// steps. `fit_weighted` must return exactly what this returns.
    fn fit_weighted_reference(xs: &[f64], ws: &[f64], c: usize, opts: &GmmFitOptions) -> Gmm {
        textbook_em(xs, ws, c, opts, None, ratio_responsibilities, true).0
    }

    /// The same loop with the exp-form E-step: what `fit_weighted` returned
    /// before the ratio form, which it must stay close to.
    fn fit_weighted_exp_reference(xs: &[f64], ws: &[f64], c: usize, opts: &GmmFitOptions) -> Gmm {
        textbook_em(xs, ws, c, opts, None, exp_responsibilities, true).0
    }

    /// What a textbook run records: the log-likelihood of each iterate it
    /// accepted, in order, the EM maps it ran, and whether a map re-seeded
    /// a dead component or put one on the σ floor.
    #[derive(Debug, Default)]
    struct Run {
        accepted: Vec<f64>,
        maps: usize,
        irregular: bool,
    }

    /// A `Vec` and two logarithms per (sample, component), one E-step per
    /// sample from `responsibilities`, three strided M-step passes, a sort
    /// per component. From `start` where it has `c` components, else from
    /// quantiles, a dead component re-seeded at its own quantile. With
    /// `squarem`, SQUAREM drives the map over flattened `(w, μ, ln σ)`
    /// vectors under the same step bound; without it, plain EM runs one map
    /// after another.
    fn textbook_em(
        xs: &[f64],
        ws: &[f64],
        c: usize,
        opts: &GmmFitOptions,
        start: Option<&Gmm>,
        responsibilities: fn(&[f64]) -> (f64, Vec<f64>),
        squarem: bool,
    ) -> (Gmm, Run) {
        let mut run = Run::default();
        if xs.is_empty() {
            return (Gmm::single(Gaussian::new(0.0, 1.0)), run);
        }
        let total_w: f64 = ws.iter().sum();
        if c == 1 || xs.len() < 2 * c || total_w <= 0.0 {
            return (Gmm::single(Gaussian::fit_weighted(xs, ws)), run);
        }

        let overall_sigma = population_variance(xs).sqrt().max(SIGMA_FLOOR);
        let cold = |i: usize| {
            let q = (i as f64 + 0.5) / c as f64 * 100.0;
            GmmComponent {
                weight: 1.0 / c as f64,
                gaussian: Gaussian::new(crate::desc::percentile(xs, q), overall_sigma),
            }
        };
        let mut comps: Vec<GmmComponent> = match start.filter(|s| s.len() == c) {
            Some(start) => start.components.clone(),
            None => (0..c).map(cold).collect(),
        };

        let n = xs.len();
        let map = |comps: &[GmmComponent], run: &mut Run| -> (f64, Vec<GmmComponent>) {
            run.maps += 1;
            let mut resp = vec![0.0f64; n * c];
            let mut ll = 0.0;
            for (i, &x) in xs.iter().enumerate() {
                let logs: Vec<f64> = comps
                    .iter()
                    .map(|cm| {
                        cm.weight.max(f64::MIN_POSITIVE).ln() + reference_log_pdf(&cm.gaussian, x)
                    })
                    .collect();
                let (lse, r) = responsibilities(&logs);
                ll += ws[i] * lse;
                resp[i * c..(i + 1) * c].copy_from_slice(&r);
            }

            let mut next = comps.to_vec();
            for j in 0..c {
                let nj: f64 = (0..n).map(|i| ws[i] * resp[i * c + j]).sum();
                if nj < 1e-12 {
                    next[j] = GmmComponent {
                        weight: 1e-6,
                        ..cold(j)
                    };
                    run.irregular = true;
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
                next[j] = GmmComponent {
                    weight: nj / total_w,
                    gaussian: Gaussian::new(mu, var.sqrt()),
                };
                run.irregular |= next[j].gaussian.sigma <= SIGMA_FLOOR;
            }
            normalize_weights(&mut next);
            (ll, next)
        };
        let converged = |ll: f64, prev: f64| (ll - prev).abs() / total_w <= opts.tol;

        let mut prev_ll = f64::NEG_INFINITY;
        if !squarem {
            for _ in 0..opts.max_iters {
                let (ll, next) = map(&comps, &mut run);
                run.accepted.push(ll);
                comps = next;
                if converged(ll, prev_ll) {
                    break;
                }
                prev_ll = ll;
            }
            return (Gmm { components: comps }, run);
        }

        let flat = |t: &[GmmComponent]| -> Vec<f64> {
            t.iter()
                .flat_map(|c| [c.weight, c.gaussian.mu, c.gaussian.sigma.ln()])
                .collect()
        };
        let norm = |u: &[f64]| u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mut step_max = 1.0f64;
        'cycles: while run.maps < opts.max_iters {
            // θ₁ = F(θ₀) and θ₂ = F(θ₁), each an accepted iterate.
            let mut thetas = vec![comps.clone()];
            for _ in 0..2 {
                let (ll, next) = map(thetas.last().expect("an iterate"), &mut run);
                let prev = run.accepted.last().copied().filter(|_| thetas.len() > 1);
                run.accepted.push(ll);
                thetas.push(next);
                if converged(ll, prev.unwrap_or(prev_ll)) || run.maps == opts.max_iters {
                    comps = thetas.pop().expect("an iterate");
                    break 'cycles;
                }
            }
            let ll1 = run.accepted[run.accepted.len() - 1];
            // The step over the flattened differences, then F(θ′).
            let (f0, f1, f2) = (flat(&thetas[0]), flat(&thetas[1]), flat(&thetas[2]));
            let r: Vec<f64> = (0..f0.len()).map(|i| f1[i] - f0[i]).collect();
            let v: Vec<f64> = (0..f0.len()).map(|i| f2[i] - 2.0 * f1[i] + f0[i]).collect();
            let ratio = norm(&r) / norm(&v);
            let alpha = -(if ratio > step_max {
                step_max
            } else if ratio >= 1.0 {
                ratio
            } else {
                1.0
            });
            let p: Vec<f64> = (0..f0.len())
                .map(|i| f0[i] - 2.0 * alpha * r[i] + alpha * alpha * v[i])
                .collect();
            let valid = p.chunks(3).all(|q| {
                q[0] > 0.0 && q[0].is_finite() && q[1].is_finite() && q[2].exp().is_finite()
            });
            let mut stepped: Vec<GmmComponent> = p
                .chunks(3)
                .map(|q| GmmComponent {
                    weight: q[0],
                    gaussian: Gaussian::new(q[1], q[2].exp()),
                })
                .collect();
            if valid {
                normalize_weights(&mut stepped);
            } else {
                stepped = thetas[2].clone();
            }
            let (ll, next) = map(&stepped, &mut run);
            if ll >= ll1 {
                run.accepted.push(ll);
                comps = next;
                prev_ll = ll;
                if ratio >= step_max {
                    step_max *= 4.0;
                }
            } else {
                comps = thetas.pop().expect("an iterate");
                prev_ll = ll1;
                step_max = 1f64.max(step_max / 4.0);
            }
        }
        (Gmm { components: comps }, run)
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
        // its cold-start quantile, the median 5, with weight 1e-6.
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
    fn contiguous_sweep_stops_at_the_first_count_that_does_not_pay() {
        let opts = GmmFitOptions::default();
        let (mut stopped, mut exhaustive) = (0, 0);
        for (what, xs) in gap_samples() {
            let (auto, fits) = sweep_fits(|| Gmm::fit_auto(&xs, &opts));
            // It stops where the rule says: the first count that did not
            // beat the best before it, or out of counts.
            let (mut best, mut expected) = (f64::INFINITY, opts.max_components);
            for c in 1..=opts.max_components {
                let bic = Gmm::fit(&xs, c, &opts).bic(&xs);
                if best <= bic {
                    expected = c;
                    break;
                }
                best = bic;
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
            // dozen gaps the exhaustive sweep can find such a spike after a
            // rise; `gap_samples` has seven of those).
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
        // contiguous sweep stops after two fits. The narrowed one must
        // not stop at all.
        let mut s = crate::sampler::Sampler::new(4);
        let xs: Vec<f64> = (0..400).map(|_| s.normal(20.0, 2.0)).collect();
        let ws = decayed_weights(xs.len(), 64);
        let (full, fits) = sweep_fits(|| Gmm::fit_auto_weighted(&xs, &ws, &opts));
        assert_eq!((full.len(), fits), (1, 2));
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The ratio form moves a fit by rounding only. On the width
        /// oracle's samples, converged and fixed-count fits keep the exp
        /// form's component count and reach its weighted log-likelihood
        /// within 1e-6 per unit weight. A fit with a component on the σ
        /// floor is held to 1e-4 instead: that component is a point mass,
        /// so an ulp δ of its mean moves each of its points' log density
        /// by (δ/σ)²/2, about 5e-6 at σ = 1e-9, in either form. Fits that
        /// stop by `tol` are compared unless both forms run to the cap: two
        /// capped fits on a flat likelihood can end apart, as SQUAREM's
        /// steps amplify a rounding difference. Their maps are held close
        /// one at a time by `ratio_maps_stay_close_to_the_exp_form`.
        #[test]
        fn ratio_fits_stay_close_to_the_exp_form(
            seed in 0u64..1_000_000,
            n in 0usize..601,
            modes in 1usize..5,
            grid in 0usize..3,
            run in (0usize..600, 0usize..200),
            weights in 0u8..3,
            c in 1usize..MAX_COMPONENTS + 1,
        ) {
            let xs = generated_gaps(seed, n, modes, [0.0, 1.0, 50.0][grid], run);
            let ws: Vec<f64> = match weights {
                0 => vec![1.0; n],
                1 => decayed_weights(n, 64),
                _ => {
                    let mut s = crate::sampler::Sampler::new(seed ^ 0x5eed);
                    (0..n).map(|_| if s.coin(0.2) { 0.0 } else { s.uniform() }).collect()
                }
            };
            let total_w = ws.iter().sum::<f64>().max(f64::MIN_POSITIVE);
            for (max_iters, tol) in [(100, 1e-6), (100, 1e-5), (10, -1.0), (40, -1.0)] {
                let opts = GmmFitOptions { max_iters, tol, ..GmmFitOptions::default() };
                let (ratio, maps) = fit_with(&xs, &ws, c, &opts, &mut None, None);
                let (exp, exp_run) =
                    textbook_em(&xs, &ws, c, &opts, None, exp_responsibilities, true);
                proptest::prop_assert_eq!(ratio.len(), exp.len());
                if tol > 0.0 && maps == max_iters && exp_run.maps == max_iters {
                    continue;
                }
                let (a, b) = (
                    ratio.log_likelihood_weighted(&xs, &ws),
                    exp.log_likelihood_weighted(&xs, &ws),
                );
                let drift = if a == b { 0.0 } else { (a - b).abs() / total_w };
                let on_floor = ratio
                    .components
                    .iter()
                    .chain(&exp.components)
                    .any(|c| c.gaussian.sigma <= SIGMA_FLOOR);
                let bound = if on_floor { 1e-4 } else { 1e-6 };
                proptest::prop_assert!(
                    drift <= bound,
                    "max_iters={} tol={}: {} vs {} ({} per unit weight)",
                    max_iters, tol, a, b, drift
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The ratio form moves a map by rounding only. From each iterate
        /// the exp form reaches on the width oracle's samples (its fits of
        /// 1, 2, 10, 40 and 100 maps), one kernel map keeps the exp form's
        /// component count and reaches its weighted log-likelihood within
        /// 1e-6 per unit weight. A map with a component on the σ floor is
        /// held to 1e-4 instead: that component is a point mass, so an ulp
        /// δ of its mean moves each of its points' log density by
        /// (δ/σ)²/2, about 5e-6 at σ = 1e-9, in either form. Unlike
        /// `ratio_fits_stay_close_to_the_exp_form`, it reaches capped fits.
        #[test]
        fn ratio_maps_stay_close_to_the_exp_form(
            seed in 0u64..1_000_000,
            n in 0usize..601,
            modes in 1usize..5,
            grid in 0usize..3,
            run in (0usize..600, 0usize..200),
            weights in 0u8..3,
            c in 1usize..MAX_COMPONENTS + 1,
        ) {
            let xs = generated_gaps(seed, n, modes, [0.0, 1.0, 50.0][grid], run);
            let ws: Vec<f64> = match weights {
                0 => vec![1.0; n],
                1 => decayed_weights(n, 64),
                _ => {
                    let mut s = crate::sampler::Sampler::new(seed ^ 0x5eed);
                    (0..n).map(|_| if s.coin(0.2) { 0.0 } else { s.uniform() }).collect()
                }
            };
            let total_w = ws.iter().sum::<f64>().max(f64::MIN_POSITIVE);
            let one = GmmFitOptions { max_iters: 1, ..GmmFitOptions::default() };
            for max_iters in [1, 2, 10, 40, 100] {
                let opts = GmmFitOptions { max_iters, ..GmmFitOptions::default() };
                let from = fit_weighted_exp_reference(&xs, &ws, c, &opts);
                let ratio = fit_with(&xs, &ws, c, &one, &mut None, Some(&from)).0;
                let exp =
                    textbook_em(&xs, &ws, c, &one, Some(&from), exp_responsibilities, true).0;
                proptest::prop_assert_eq!(ratio.len(), exp.len());
                let (a, b) = (
                    ratio.log_likelihood_weighted(&xs, &ws),
                    exp.log_likelihood_weighted(&xs, &ws),
                );
                let drift = if a == b { 0.0 } else { (a - b).abs() / total_w };
                let on_floor = ratio
                    .components
                    .iter()
                    .chain(&exp.components)
                    .any(|c| c.gaussian.sigma <= SIGMA_FLOOR);
                let bound = if on_floor { 1e-4 } else { 1e-6 };
                proptest::prop_assert!(
                    drift <= bound,
                    "from {} maps: {} vs {} ({} per unit weight)",
                    max_iters, a, b, drift
                );
            }
        }
    }

    /// The EM maps `fit_with` reports, counted rather than timed, against
    /// plain EM's on the `gap_samples` and `bimodal` fixtures at every
    /// width the sweeps fit: 31 % fewer maps over the fixtures (7,077
    /// against 10,224), at least 25 % asserted. The step bound keeps a
    /// step out of a flatter basin, so no fit runs to the cap where plain
    /// EM converges.
    #[test]
    fn squarem_runs_fewer_maps_than_plain_em() {
        let mut samples = gap_samples();
        samples.push(("bimodal".into(), bimodal()));
        let opts = GmmFitOptions::default();
        let (mut plain, mut fast) = (0, 0);
        for (what, xs) in &samples {
            let ws = vec![1.0; xs.len()];
            for c in 2..=opts.max_components {
                let slow = textbook_em(xs, &ws, c, &opts, None, ratio_responsibilities, false);
                let maps = fit_with(xs, &ws, c, &opts, &mut None, None).1;
                assert!(
                    maps < opts.max_iters || slow.1.maps == opts.max_iters,
                    "{what}, C = {c}: {maps} maps where plain EM converges in {}",
                    slow.1.maps
                );
                (plain, fast) = (plain + slow.1.maps, fast + maps);
            }
        }
        assert!(
            100 * fast <= 75 * plain,
            "{fast} maps against plain EM's {plain}"
        );
    }

    #[test]
    fn components_that_die_together_are_re_seeded_apart() {
        // Two of four components start as one far beyond the sample, so
        // both die in the first map; each comes back at its own quantile.
        let xs = bimodal();
        let ws = vec![1.0; xs.len()];
        let far = |mu| GmmComponent {
            weight: 0.25,
            gaussian: Gaussian::new(mu, 1.0),
        };
        let start = Gmm {
            components: vec![far(10.0), far(50.0), far(1e6), far(1e6)],
        };
        let opts = GmmFitOptions::default();
        let (fitted, run) = textbook_em(
            &xs,
            &ws,
            4,
            &opts,
            Some(&start),
            ratio_responsibilities,
            true,
        );
        assert!(run.irregular, "no component died");
        assert_eq!(
            fit_with(&xs, &ws, 4, &opts, &mut None, Some(&start)).0,
            fitted
        );
        for (i, a) in fitted.components.iter().enumerate() {
            for b in &fitted.components[i + 1..] {
                assert_ne!(a, b, "duplicate component in {fitted:?}");
            }
        }
    }

    /// A sweep started from its own sample's per-width fits is at its
    /// fixed point: a width whose fit converged stops within three maps,
    /// and where every width converged the same width wins.
    #[test]
    fn a_sweep_started_from_its_own_fits_stays_put() {
        let opts = GmmFitOptions::default();
        for (what, xs) in gap_samples() {
            let ws = vec![1.0; xs.len()];
            let (best, fits) = Gmm::fit_auto_from(&xs, &[], &opts);
            let mut all_converged = true;
            for (c, fit) in (1..)
                .zip(&fits)
                .filter(|(c, fit)| *c >= 2 && fit.len() == *c)
            {
                let cold = fit_with(&xs, &ws, c, &opts, &mut None, None).1;
                if cold == opts.max_iters {
                    all_converged = false;
                    continue;
                }
                let again = fit_with(&xs, &ws, c, &opts, &mut None, Some(fit)).1;
                assert!(again <= 3, "{what}, C = {c}: {again} maps from its own fit");
            }
            if all_converged {
                let (again, _) = Gmm::fit_auto_from(&xs, &fits, &opts);
                assert_eq!(again.len(), best.len(), "{what}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// SQUAREM keeps EM's ascent: the log-likelihood of the iterates it
        /// accepts never falls, from quantiles or from a start, but by
        /// rounding (1e-12 per unit weight). Where a map re-seeds a dead
        /// component or puts one on the σ floor, EM's own map is not
        /// monotone (the re-seed takes 1e-6 of the weight; a point mass
        /// costs (δ/σ)²/2 per point for an ulp δ of its mean), and 1e-4
        /// holds. The kernel is `==` to the textbook loop that records them.
        #[test]
        fn accepted_iterates_never_lose_likelihood(
            seed in 0u64..1_000_000,
            n in 0usize..601,
            modes in 1usize..5,
            grid in 0usize..3,
            run in (0usize..600, 0usize..200),
            decayed in 0u8..2,
            c in 2usize..MAX_COMPONENTS + 1,
            warm in 0u8..2,
        ) {
            let xs = generated_gaps(seed, n, modes, [0.0, 1.0, 50.0][grid], run);
            let ws = if decayed == 1 { decayed_weights(n, 64) } else { vec![1.0; n] };
            let opts = GmmFitOptions::default();
            let start = (warm == 1).then(|| {
                let nearby = generated_gaps(seed + 1, n, modes, [0.0, 1.0, 50.0][grid], run);
                Gmm::fit_weighted(&nearby, &ws, c, &opts)
            });
            let (fitted, run) =
                textbook_em(&xs, &ws, c, &opts, start.as_ref(), ratio_responsibilities, true);
            let kernel = fit_with(&xs, &ws, c, &opts, &mut None, start.as_ref());
            proptest::prop_assert_eq!(&kernel.0, &fitted);
            proptest::prop_assert_eq!(kernel.1, run.maps);
            let total_w = ws.iter().sum::<f64>().max(f64::MIN_POSITIVE);
            let bound = if run.irregular { 1e-4 } else { 1e-12 };
            for pair in run.accepted.windows(2) {
                let drop = (pair[0] - pair[1]) / total_w;
                proptest::prop_assert!(drop <= bound, "{:?}", run);
            }
        }

        /// A fit started from a mixture never ends below that mixture's
        /// weighted log-likelihood on the sample it is fitted to.
        #[test]
        fn a_started_fit_never_ends_below_its_start(
            seed in 0u64..1_000_000,
            n in 0usize..601,
            modes in 1usize..5,
            grid in 0usize..3,
            decayed in 0u8..2,
            c in 2usize..MAX_COMPONENTS + 1,
            max_iters in 0usize..4,
        ) {
            let xs = generated_gaps(seed, n, modes, [0.0, 1.0, 50.0][grid], (0, 0));
            let ws = if decayed == 1 { decayed_weights(n, 64) } else { vec![1.0; n] };
            let nearby = generated_gaps(seed + 1, n, modes, [0.0, 1.0, 50.0][grid], (0, 0));
            let opts = GmmFitOptions::default();
            let start = Gmm::fit_weighted(&nearby, &ws, c, &opts);
            let opts = GmmFitOptions { max_iters: [1, 2, 3, 100][max_iters], ..opts };
            let fitted = fit_with(&xs, &ws, c, &opts, &mut None, Some(&start)).0;
            if start.len() == c {
                let (a, b) = (
                    fitted.log_likelihood_weighted(&xs, &ws),
                    start.log_likelihood_weighted(&xs, &ws),
                );
                proptest::prop_assert!(a >= b, "{} from {}", a, b);
            }
        }
    }

    #[test]
    fn log_sum_exp_stability() {
        assert!((log_sum_exp(&mut [-1000.0, -1000.0]) - (-1000.0 + 2.0f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&mut [f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }
}
