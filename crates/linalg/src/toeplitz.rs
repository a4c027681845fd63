//! Levinson–Durbin recursion for Toeplitz systems.
//!
//! The Yule–Walker equations of AR(p) fitting have the form `R φ = r`, where `R`
//! is the symmetric Toeplitz matrix of autocovariances `R[i][j] = r(|i-j|)` and
//! the right-hand side is `r(1..=p)`. Levinson–Durbin solves this in `O(p²)`
//! instead of `O(p³)` and produces, as by-products, the reflection coefficients
//! and the innovation variance at every order — both exposed because the
//! `predictors` crate uses the innovation variance for order diagnostics.

use crate::{LinalgError, Result};

/// Output of the Levinson–Durbin recursion at the requested order `p`.
#[derive(Debug, Clone, PartialEq)]
pub struct LevinsonResult {
    /// AR coefficients `φ₁..φ_p` such that `x_t ≈ Σ φ_i x_{t-i}`.
    pub coefficients: Vec<f64>,
    /// Reflection (partial autocorrelation) coefficients `k₁..k_p`.
    pub reflection: Vec<f64>,
    /// Innovation (one-step prediction error) variance at order `p`.
    pub innovation_variance: f64,
}

/// Solves the Yule–Walker equations at order `p` from autocovariances
/// `r[0..=p]` (`r[0]` is the zero-lag autocovariance, i.e. the variance).
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] if `p == 0` or `r.len() < p + 1`;
/// * [`LinalgError::Singular`] if `r[0] <= 0` or the prediction-error variance
///   collapses to a non-positive value mid-recursion (perfectly predictable or
///   degenerate input).
pub fn levinson_durbin(r: &[f64], p: usize) -> Result<LevinsonResult> {
    let (mut phi, mut prev) = (vec![0.0; p], vec![0.0; p]);
    let mut reflection = Vec::with_capacity(p);
    let innovation_variance = levinson_durbin_into(r, &mut phi, &mut prev, |k| reflection.push(k))?;
    Ok(LevinsonResult { coefficients: phi, reflection, innovation_variance })
}

/// [`levinson_durbin`] at order `p = phi.len()` into caller storage: the
/// coefficients land in `phi`, `prev` (same length) is the recursion's
/// workspace, and each reflection coefficient goes to `reflection` as it is
/// found. Returns the innovation variance. Allocates nothing — the AR refit
/// runs it on reused buffers. On error `phi` holds a partial recursion.
///
/// # Errors
///
/// Same conditions as [`levinson_durbin`].
///
/// # Panics
///
/// Panics if `prev` is shorter than `phi`.
pub fn levinson_durbin_into(
    r: &[f64],
    phi: &mut [f64],
    prev: &mut [f64],
    mut reflection: impl FnMut(f64),
) -> Result<f64> {
    let p = phi.len();
    if p == 0 {
        return Err(LinalgError::InvalidArgument("levinson_durbin: order must be >= 1".into()));
    }
    if r.len() < p + 1 {
        return Err(LinalgError::InvalidArgument(format!(
            "levinson_durbin: need {} autocovariances for order {p}, got {}",
            p + 1,
            r.len()
        )));
    }
    if !(r[0].is_finite() && r[0] > 0.0) {
        return Err(LinalgError::Singular(format!(
            "levinson_durbin: zero-lag autocovariance must be positive, got {}",
            r[0]
        )));
    }

    // phi[i] = φ_{i+1} at the current order.
    phi.fill(0.0);
    let prev = &mut prev[..p];
    prev.fill(0.0);
    let mut e = r[0];

    for k in 0..p {
        // acc = r[k+1] - Σ_{j<k} φ_j r[k-j]
        let mut acc = r[k + 1];
        for j in 0..k {
            acc -= phi[j] * r[k - j];
        }
        if e <= 0.0 || !e.is_finite() {
            return Err(LinalgError::Singular(format!(
                "levinson_durbin: prediction-error variance degenerated at order {k}"
            )));
        }
        let kk = acc / e;
        reflection(kk);

        prev[..k].copy_from_slice(&phi[..k]);
        phi[k] = kk;
        for j in 0..k {
            phi[j] = prev[j] - kk * prev[k - 1 - j];
        }
        e *= 1.0 - kk * kk;
    }
    Ok(e)
}

/// Multiplies the symmetric Toeplitz matrix defined by first column `r[0..n]`
/// with vector `x` — used in tests to verify Levinson solutions directly.
///
/// # Panics
///
/// Panics if `x.len() > r.len()`.
pub fn toeplitz_matvec(r: &[f64], x: &[f64]) -> Vec<f64> {
    let n = x.len();
    assert!(n <= r.len(), "toeplitz_matvec: need r for all lags");
    (0..n).map(|i| (0..n).map(|j| r[i.abs_diff(j)] * x[j]).sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_one_is_lag_one_autocorrelation() {
        // For AR(1): φ₁ = r(1)/r(0).
        let r = [2.0, 1.0];
        let out = levinson_durbin(&r, 1).unwrap();
        assert!((out.coefficients[0] - 0.5).abs() < 1e-15);
        assert!((out.innovation_variance - 2.0 * (1.0 - 0.25)).abs() < 1e-15);
    }

    #[test]
    fn solves_the_toeplitz_system_exactly() {
        // Verify R φ = r(1..=p) by direct multiplication.
        let r = [4.0, 2.0, 1.0, 0.5, 0.2];
        for p in 1..=4 {
            let out = levinson_durbin(&r, p).unwrap();
            let lhs = toeplitz_matvec(&r, &out.coefficients);
            for i in 0..p {
                assert!(
                    (lhs[i] - r[i + 1]).abs() < 1e-10,
                    "order {p}, row {i}: {} vs {}",
                    lhs[i],
                    r[i + 1]
                );
            }
        }
    }

    #[test]
    fn recovers_known_ar2_from_theoretical_autocovariance() {
        // AR(2) x_t = 0.5 x_{t-1} + 0.3 x_{t-2} + e_t, sigma2 = 1.
        // Theoretical autocovariances satisfy the Yule-Walker recursion:
        // rho(1) = phi1 / (1 - phi2); rho(k) = phi1 rho(k-1) + phi2 rho(k-2).
        let (phi1, phi2) = (0.5, 0.3);
        let rho1 = phi1 / (1.0 - phi2);
        let rho2 = phi1 * rho1 + phi2;
        let rho3 = phi1 * rho2 + phi2 * rho1;
        let r = [1.0, rho1, rho2, rho3];
        let out = levinson_durbin(&r, 2).unwrap();
        assert!((out.coefficients[0] - phi1).abs() < 1e-12);
        assert!((out.coefficients[1] - phi2).abs() < 1e-12);
    }

    #[test]
    fn innovation_variance_decreases_with_order() {
        let r = [4.0, 2.0, 1.0, 0.5, 0.2];
        let mut last = f64::INFINITY;
        for p in 1..=4 {
            let out = levinson_durbin(&r, p).unwrap();
            assert!(out.innovation_variance <= last + 1e-12);
            assert!(out.innovation_variance > 0.0);
            last = out.innovation_variance;
        }
    }

    #[test]
    fn white_noise_has_zero_coefficients() {
        let r = [1.0, 0.0, 0.0, 0.0];
        let out = levinson_durbin(&r, 3).unwrap();
        assert!(out.coefficients.iter().all(|&c| c.abs() < 1e-15));
        assert!((out.innovation_variance - 1.0).abs() < 1e-15);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(levinson_durbin(&[1.0, 0.5], 0).is_err());
        assert!(levinson_durbin(&[1.0], 1).is_err());
        assert!(levinson_durbin(&[0.0, 0.0], 1).is_err());
        assert!(levinson_durbin(&[-1.0, 0.0], 1).is_err());
    }

    #[test]
    fn perfectly_correlated_series_degenerates() {
        // r(k) = r(0) for all k means x is constant: order-2 fit must fail
        // because the order-1 innovation variance hits exactly zero.
        let r = [1.0, 1.0, 1.0];
        let err = levinson_durbin(&r, 2).unwrap_err();
        assert!(matches!(err, LinalgError::Singular(_)));
    }

    #[test]
    fn reflection_coefficients_are_bounded_for_valid_sequences() {
        // For a positive-definite autocovariance sequence, |k_i| < 1.
        let r = [3.0, 1.5, 0.9, 0.4];
        let out = levinson_durbin(&r, 3).unwrap();
        for &k in &out.reflection {
            assert!(k.abs() < 1.0, "reflection {k}");
        }
    }

    #[test]
    fn toeplitz_matvec_known() {
        let r = [2.0, 1.0, 0.0];
        let y = toeplitz_matvec(&r, &[1.0, 1.0, 1.0]);
        // Row 0: 2+1+0, row 1: 1+2+1, row 2: 0+1+2.
        assert_eq!(y, vec![3.0, 4.0, 3.0]);
    }
}
