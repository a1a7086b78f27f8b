//! Statistics substrate for TraceWeaver.
//!
//! Everything the reconstruction algorithm and the evaluation harness need
//! statistically is implemented here from scratch:
//!
//! * deterministic random samplers for workload generation ([`sampler`]),
//! * descriptive statistics and percentiles ([`desc`]),
//! * univariate Gaussians ([`gaussian`]),
//! * Gaussian Mixture Models fit by Expectation-Maximization with Bayesian
//!   Information Criterion model selection ([`gmm`]) — the heart of
//!   TraceWeaver's delay-distribution estimation (paper §4.1 step 3),
//! * Welch's two-sample t-test ([`ttest`]) used by the A/B-testing use case
//!   (paper §6.4.2),
//! * Pearson correlation ([`pearson`]) used for the confidence-score
//!   evaluation (paper §6.3.2).
//!
//! No external math crates are used; special functions (ln-gamma,
//! regularized incomplete beta) live in [`special`].

pub mod desc;
pub mod gaussian;
pub mod gmm;
pub mod pearson;
pub mod sampler;
pub mod special;
pub mod ttest;

pub use desc::{mean, median, percentile, std_dev, variance, Summary};
pub use gaussian::Gaussian;
pub use gmm::{Gmm, GmmComponent, GmmFitOptions, Widths};
pub use pearson::pearson_correlation;
pub use sampler::{DelayDistribution, Sampler};
pub use ttest::{welch_t_test, TTestResult};
