//! Descriptive statistics over `&[f64]` slices.
//!
//! These are the numerical inputs to normalisation (mean/std), AR fitting
//! (autocovariance), and several predictors (median, trimmed mean). All
//! functions take plain slices so they compose with both [`crate::Series`] and
//! raw window views.

use crate::{Result, TsError};

/// Arithmetic mean. Returns 0.0 for an empty slice (documented convention:
/// callers that care should check emptiness first).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    linalg::kernels::sum(xs) / xs.len() as f64
}

/// Population variance (`1/n` normalisation), 0.0 for fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    linalg::kernels::centered_sum_sq(xs, mean(xs)) / xs.len() as f64
}

/// Sample variance (`1/(n-1)` normalisation), 0.0 for fewer than 2 points.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    linalg::kernels::centered_sum_sq(xs, mean(xs)) / (xs.len() - 1) as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value; `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum value; `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Median (average of the two central order statistics for even lengths).
///
/// # Errors
///
/// Returns [`TsError::TooShort`] for an empty slice.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile, `q` in `[0, 1]`.
///
/// # Errors
///
/// * [`TsError::TooShort`] for an empty slice;
/// * [`TsError::InvalidArgument`] if `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(TsError::TooShort { what: "quantile", needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(TsError::InvalidArgument(format!("quantile {q} outside [0, 1]")));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over a slice already sorted ascending by [`f64::total_cmp`] —
/// the allocation-free entry point for callers that keep their own sorted
/// scratch buffer.
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(TsError::TooShort { what: "quantile", needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(TsError::InvalidArgument(format!("quantile {q} outside [0, 1]")));
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// [`quantile`] via in-place selection instead of a full sort — `O(n)` and
/// bit-identical to [`quantile_sorted`] over the sorted input: selection
/// surfaces exactly the order statistics the interpolation reads. Reorders
/// `xs`; for callers whose buffer is already sorted, use [`quantile_sorted`].
///
/// # Errors
///
/// Same conditions as [`quantile`].
pub fn quantile_select(xs: &mut [f64], q: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(TsError::TooShort { what: "quantile", needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(TsError::InvalidArgument(format!("quantile {q} outside [0, 1]")));
    }
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut lo_v, rest) = xs.select_nth_unstable_by(lo, |a, b| a.total_cmp(b));
    let hi_v = if hi == lo {
        lo_v
    } else {
        // hi == lo + 1: the next order statistic is the minimum of the
        // partition right of the pivot.
        rest.iter().copied().min_by(f64::total_cmp).expect("hi < len: right partition non-empty")
    };
    Ok(lo_v * (1.0 - frac) + hi_v * frac)
}

/// α-trimmed mean: drops the `floor(alpha * n)` smallest and largest values
/// before averaging. `alpha` in `[0, 0.5)`.
///
/// # Errors
///
/// * [`TsError::TooShort`] for an empty slice;
/// * [`TsError::InvalidArgument`] if `alpha` is outside `[0, 0.5)`.
pub fn trimmed_mean(xs: &[f64], alpha: f64) -> Result<f64> {
    if xs.is_empty() {
        return Err(TsError::TooShort { what: "trimmed_mean", needed: 1, got: 0 });
    }
    if !(0.0..0.5).contains(&alpha) {
        return Err(TsError::InvalidArgument(format!("trim fraction {alpha} outside [0, 0.5)")));
    }
    let k = (alpha * xs.len() as f64).floor() as usize;
    if 2 * k >= xs.len() {
        // Trimming would remove everything; fall back to the median.
        return median(xs);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(mean(&sorted[k..xs.len() - k]))
}

/// Autocovariance at lags `0..=max_lag` with the biased `1/n` normalisation
/// (the standard choice for Yule–Walker: it guarantees a positive-semidefinite
/// autocovariance sequence).
///
/// # Errors
///
/// Returns [`TsError::TooShort`] unless `xs.len() > max_lag`.
pub fn autocovariance(xs: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let mut acov = vec![0.0; max_lag + 1];
    autocovariance_into(xs, &mut acov)?;
    Ok(acov)
}

/// [`autocovariance`] at lags `0..out.len()` into caller storage — the
/// allocation-free form the AR refit uses.
///
/// # Errors
///
/// Returns [`TsError::TooShort`] unless `xs.len() >= out.len()`.
pub fn autocovariance_into(xs: &[f64], out: &mut [f64]) -> Result<()> {
    if xs.len() < out.len() {
        return Err(TsError::TooShort { what: "autocovariance", needed: out.len(), got: xs.len() });
    }
    let n = xs.len();
    let m = mean(xs);
    for (lag, acov) in out.iter_mut().enumerate() {
        // Lag-`lag` autocovariance is the centered dot of the series against
        // its own `lag`-shifted view.
        let s = linalg::kernels::centered_dot(&xs[lag..], &xs[..n - lag], m);
        *acov = s / n as f64;
    }
    Ok(())
}

/// Autocorrelation at lags `0..=max_lag` (autocovariance scaled by `r(0)`).
///
/// # Errors
///
/// * [`TsError::TooShort`] unless `xs.len() > max_lag`;
/// * [`TsError::Degenerate`] for a constant series (zero variance).
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Result<Vec<f64>> {
    let acov = autocovariance(xs, max_lag)?;
    let r0 = acov[0];
    if r0 <= 0.0 {
        return Err(TsError::Degenerate("autocorrelation of a constant series".into()));
    }
    Ok(acov.iter().map(|&c| c / r0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
        assert!((sample_variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_conventions() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(sample_variance(&[1.0]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[3.0]), Some(3.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
        assert!(quantile(&xs, -0.1).is_err());
    }

    #[test]
    fn quantile_select_is_bit_identical_to_sorting_quantile() {
        // Pseudo-random slices of every parity and size, every interpolation
        // regime: selection must reproduce the sort-based result exactly.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        };
        for len in 1..40usize {
            let xs: Vec<f64> = (0..len).map(|_| next()).collect();
            for q in [0.0, 0.25, 1.0 / 3.0, 0.5, 0.77, 0.99, 1.0] {
                let expect = quantile(&xs, q).unwrap();
                let mut scratch = xs.clone();
                let got = quantile_select(&mut scratch, q).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "len {len}, q {q}");
            }
        }
        assert!(quantile_select(&mut [], 0.5).is_err());
        assert!(quantile_select(&mut [1.0], 1.5).is_err());
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        // 20% trim drops one value from each end: mean of [2, 3, 4] = 3.
        assert_eq!(trimmed_mean(&xs, 0.2).unwrap(), 3.0);
        // Zero trim is the plain mean.
        assert_eq!(trimmed_mean(&xs, 0.0).unwrap(), 22.0);
        assert!(trimmed_mean(&xs, 0.5).is_err());
        assert!(trimmed_mean(&[], 0.1).is_err());
    }

    #[test]
    fn trimmed_mean_tiny_slice_falls_back_to_median() {
        // n = 2, alpha = 0.49 -> k = 0 -> plain mean; n = 3, alpha = 0.4 -> k = 1,
        // 2k < 3 so trim keeps the middle element.
        assert_eq!(trimmed_mean(&[1.0, 5.0], 0.49).unwrap(), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0], 0.4).unwrap(), 2.0);
    }

    #[test]
    fn autocovariance_lag0_is_population_variance() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0, 6.0];
        let acov = autocovariance(&xs, 2).unwrap();
        assert!((acov[0] - variance(&xs)).abs() < 1e-12);
    }

    #[test]
    fn autocovariance_alternating_series() {
        // x = [+1, -1, +1, -1, ...]: r(1) should be strongly negative.
        let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let acf = autocorrelation(&xs, 2).unwrap();
        assert_eq!(acf[0], 1.0);
        assert!(acf[1] < -0.9);
        assert!(acf[2] > 0.9);
    }

    #[test]
    fn autocorrelation_constant_is_degenerate() {
        let xs = [2.0; 10];
        assert!(matches!(autocorrelation(&xs, 1), Err(TsError::Degenerate(_))));
    }

    #[test]
    fn autocovariance_length_check() {
        assert!(matches!(autocovariance(&[1.0, 2.0], 2), Err(TsError::TooShort { .. })));
    }

    #[test]
    fn autocorrelation_bounded_by_one() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 17) as f64).collect();
        let acf = autocorrelation(&xs, 10).unwrap();
        for &r in &acf {
            assert!(r.abs() <= 1.0 + 1e-12, "acf {r}");
        }
    }
}
