//! Univariate Gaussian distribution.

use serde::{Deserialize, Serialize};

/// Minimum standard deviation enforced when fitting, to keep log-densities
/// finite when a delay distribution is (nearly) deterministic.
pub const SIGMA_FLOOR: f64 = 1e-9;

/// A univariate normal distribution N(mu, sigma).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gaussian {
    pub mu: f64,
    pub sigma: f64,
}

impl Gaussian {
    /// Create a Gaussian; `sigma` is floored at [`SIGMA_FLOOR`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        Gaussian {
            mu,
            sigma: sigma.max(SIGMA_FLOOR),
        }
    }

    /// Maximum-likelihood fit (population variance) over a sample.
    pub fn fit(xs: &[f64]) -> Self {
        let mu = crate::desc::mean(xs);
        let sigma = crate::desc::population_variance(xs).sqrt();
        Gaussian::new(mu, sigma)
    }

    /// Natural log of the pdf at `x`.
    pub fn log_pdf(&self, x: f64) -> f64 {
        self.log_pdf_given(x, self.sigma.ln())
    }

    /// [`Gaussian::log_pdf`] for a caller that already holds
    /// `ln_sigma = self.sigma.ln()` (the EM loop, once per iteration
    /// instead of once per sample).
    #[inline]
    pub(crate) fn log_pdf_given(&self, x: f64, ln_sigma: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - ln_sigma - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_normal_density() {
        let g = Gaussian::new(0.0, 1.0);
        assert!((g.log_pdf(0.0).exp() - 0.3989422804).abs() < 1e-9);
        assert!((g.log_pdf(1.0).exp() - 0.2419707245).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_parameters() {
        // Symmetric sample around 10 with spread 2.
        let xs = [8.0, 9.0, 10.0, 11.0, 12.0];
        let g = Gaussian::fit(&xs);
        assert!((g.mu - 10.0).abs() < 1e-12);
        assert!((g.sigma - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sigma_floor_applied() {
        let g = Gaussian::new(0.0, 0.0);
        assert!(g.sigma >= SIGMA_FLOOR);
        assert!(g.log_pdf(0.0).is_finite());
        let g = Gaussian::fit(&[5.0, 5.0, 5.0]);
        assert!(g.sigma >= SIGMA_FLOOR);
    }
}
