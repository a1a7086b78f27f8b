//! Special functions needed by the statistical routines.
//!
//! Implementations follow the classic numerical recipes: a Lanczos series
//! for `ln_gamma` and a modified Lentz continued fraction for the
//! regularized incomplete beta function (which gives the Student-t CDF used
//! by the t-test).

/// Natural log of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    // Published Lanczos coefficients, kept verbatim even where the literal
    // exceeds f64 precision.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.99999999999980993,
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// Computed with the continued-fraction expansion (Numerical Recipes §6.4)
/// using the symmetry relation to stay in the rapidly-converging region.
pub fn beta_inc_reg(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc_reg: a and b must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cont_frac(a, b, x) / a
    } else {
        1.0 - front * beta_cont_frac(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cont_frac(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-14;
    const TINY: f64 = 1.0e-30;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Two-sided p-value for a Student-t statistic with `df` degrees of freedom.
pub fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() || df <= 0.0 {
        return f64::NAN;
    }
    // P(|T| > t) = I_{df/(df+t^2)}(df/2, 1/2)
    beta_inc_reg(df / 2.0, 0.5, df / (df + t * t))
}

/// One-sided (upper tail) p-value for a Student-t statistic.
pub fn student_t_one_sided_p(t: f64, df: f64) -> f64 {
    let two = student_t_two_sided_p(t, df);
    if t >= 0.0 {
        two / 2.0
    } else {
        1.0 - two / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        close(ln_gamma(1.0), 0.0, 1e-10);
        close(ln_gamma(2.0), 0.0, 1e-10);
        close(ln_gamma(5.0), (24.0f64).ln(), 1e-9);
        close(ln_gamma(10.0), (362880.0f64).ln(), 1e-8);
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-9);
    }

    #[test]
    fn beta_inc_boundaries() {
        close(beta_inc_reg(2.0, 3.0, 0.0), 0.0, 1e-12);
        close(beta_inc_reg(2.0, 3.0, 1.0), 1.0, 1e-12);
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1,1) = x
        for i in 1..10 {
            let x = i as f64 / 10.0;
            close(beta_inc_reg(1.0, 1.0, x), x, 1e-9);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        close(
            beta_inc_reg(2.5, 1.5, 0.3),
            1.0 - beta_inc_reg(1.5, 2.5, 0.7),
            1e-9,
        );
    }

    #[test]
    fn t_dist_p_values() {
        // t = 0 → p = 1 for any df.
        close(student_t_two_sided_p(0.0, 10.0), 1.0, 1e-9);
        // Large |t| → p ≈ 0.
        assert!(student_t_two_sided_p(50.0, 10.0) < 1e-8);
        // Known quantile: t_{0.975, 10} ≈ 2.228 → two-sided p ≈ 0.05.
        close(student_t_two_sided_p(2.228, 10.0), 0.05, 2e-3);
    }

    #[test]
    fn t_dist_one_sided() {
        let p2 = student_t_two_sided_p(2.0, 15.0);
        close(student_t_one_sided_p(2.0, 15.0), p2 / 2.0, 1e-12);
        close(student_t_one_sided_p(-2.0, 15.0), 1.0 - p2 / 2.0, 1e-12);
    }
}
