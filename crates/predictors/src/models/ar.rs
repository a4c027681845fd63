//! Autoregressive models fitted with Yule–Walker (the paper's parametric model).
//!
//! Dinda's host-load study — cited by the paper as the reason AR is in the
//! pool — found AR(16) the best accuracy/overhead trade-off, and the paper fits
//! AR with "the Yule-Walker technique". [`Ar::fit`] follows that recipe exactly:
//! sample autocovariances with `1/n` normalisation, solved by Levinson–Durbin.
//! [`Ari`] adds a differenced variant (the "I" of ARIMA) as the pool extension
//! the paper's future-work section anticipates.

use linalg::toeplitz::levinson_durbin_into;
use timeseries::stats;

use crate::{Predictor, PredictorError, Result};

/// A fitted AR(p) model: `x̂_{t+1} = μ + Σ φ_i (x_{t+1-i} − μ)`.
///
/// The mean `μ` is the training mean; on the z-normalised series of the paper's
/// pipeline it is ≈ 0, but keeping it makes the model correct on raw series too.
#[derive(Debug, Clone, PartialEq)]
pub struct Ar {
    order: usize,
    coefficients: Vec<f64>,
    mean: f64,
    innovation_variance: f64,
    degenerate: bool,
}

impl Ar {
    /// Fits an AR(`order`) model to `train` via Yule–Walker.
    ///
    /// A (near-)constant training series has no autocovariance structure; the
    /// paper's traces include long flat stretches (e.g. memory size), so rather
    /// than failing, the fit degrades to the persistence model
    /// (`φ = [1, 0, …]`) and marks itself [`Ar::is_degenerate`].
    ///
    /// # Errors
    ///
    /// * [`PredictorError::InvalidParameter`] if `order == 0`;
    /// * [`PredictorError::InsufficientData`] if `train.len() < 2 * order`
    ///   (too few points for meaningful autocovariance estimates).
    pub fn fit(train: &[f64], order: usize) -> Result<Self> {
        let mut ar = Self::unfitted(order);
        ar.refit(train, &mut Vec::new())?;
        Ok(ar)
    }

    /// An AR(`order`) with no coefficients yet, for a fit to fill.
    fn unfitted(order: usize) -> Self {
        Self {
            order,
            coefficients: Vec::new(),
            mean: 0.0,
            innovation_variance: 0.0,
            degenerate: false,
        }
    }

    /// The Yule–Walker fit on caller storage: `acov` holds lags `0..=p`,
    /// `prev` (length `p`) is the recursion's workspace.
    fn fit_with(&mut self, train: &[f64], acov: &mut [f64], prev: &mut [f64]) -> Result<()> {
        let order = self.order;
        if order == 0 {
            return Err(PredictorError::InvalidParameter("AR order must be >= 1".into()));
        }
        if train.len() < 2 * order {
            return Err(PredictorError::InsufficientData {
                model: "AR",
                needed: 2 * order,
                got: train.len(),
            });
        }
        self.mean = stats::mean(train);
        stats::autocovariance_into(train, acov)
            .map_err(|e| PredictorError::Numerical(e.to_string()))?;
        self.coefficients.clear();
        self.coefficients.reserve_exact(order);
        self.coefficients.resize(order, 0.0);

        // Degenerate series (constant, or numerically so) and perfectly
        // predictable input mid-recursion fall back to persistence instead
        // of failing the whole pool.
        let rel_floor = 1e-12 * linalg::kernels::dot(train, train).max(1e-300);
        let solved = (acov[0] > rel_floor)
            .then(|| levinson_durbin_into(acov, &mut self.coefficients, prev, |_| {}).ok())
            .flatten();
        match solved {
            Some(innovation_variance) => {
                self.innovation_variance = innovation_variance;
                self.degenerate = false;
            }
            None => {
                self.coefficients.fill(0.0);
                self.coefficients[0] = 1.0;
                self.innovation_variance = 0.0;
                self.degenerate = true;
            }
        }
        Ok(())
    }

    /// Reconstructs a fitted model from previously extracted parameters
    /// (the inverse of [`Ar::fitted_state`] via `Predictor`), without
    /// touching training data.
    ///
    /// # Errors
    ///
    /// * [`PredictorError::InvalidParameter`] for an empty coefficient
    ///   vector or non-finite `mean`/`innovation_variance`/coefficients.
    pub fn from_parts(
        coefficients: Vec<f64>,
        mean: f64,
        innovation_variance: f64,
        degenerate: bool,
    ) -> Result<Self> {
        if coefficients.is_empty() {
            return Err(PredictorError::InvalidParameter(
                "AR restore needs at least one coefficient".into(),
            ));
        }
        if coefficients.iter().any(|c| !c.is_finite())
            || !mean.is_finite()
            || !innovation_variance.is_finite()
        {
            return Err(PredictorError::InvalidParameter(
                "AR restore parameters must be finite".into(),
            ));
        }
        Ok(Self { order: coefficients.len(), coefficients, mean, innovation_variance, degenerate })
    }

    /// The model order `p`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Fitted coefficients `φ₁..φ_p` (lag-1 first).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Training-sample mean used for centering.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// One-step prediction-error variance from the Levinson recursion.
    pub fn innovation_variance(&self) -> f64 {
        self.innovation_variance
    }

    /// Whether the fit degraded to persistence on degenerate training data.
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }
}

impl Predictor for Ar {
    fn name(&self) -> &'static str {
        "AR"
    }

    fn min_history(&self) -> usize {
        self.order
    }

    /// The autocovariances and the Levinson workspace live in `work`.
    fn refit(&mut self, train: &[f64], work: &mut Vec<f64>) -> Result<()> {
        work.clear();
        work.resize(2 * self.order + 1, 0.0);
        let (acov, prev) = work.split_at_mut(self.order + 1);
        self.fit_with(train, acov, prev)
    }

    fn predict(&self, history: &[f64]) -> f64 {
        let n = history.len();
        debug_assert!(n >= self.order, "AR({}) fed {} points", self.order, n);
        let mut acc = self.mean;
        for (i, &phi) in self.coefficients.iter().enumerate() {
            // φ_{i+1} pairs with x_{t-i}: the (i+1)-th most recent value.
            acc += phi * (history[n - 1 - i] - self.mean);
        }
        acc
    }

    fn fitted_state(&self) -> Vec<f64> {
        // Layout: [mean, innovation_variance, degenerate, φ₁..φ_p].
        let mut out = Vec::with_capacity(3 + self.coefficients.len());
        out.push(self.mean);
        out.push(self.innovation_variance);
        out.push(if self.degenerate { 1.0 } else { 0.0 });
        out.extend_from_slice(&self.coefficients);
        out
    }
}

/// ARI(p, d): AR fitted on the `d`-times differenced series, with forecasts
/// integrated back to the original scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Ari {
    ar: Ar,
    diff_order: usize,
}

impl Ari {
    /// Fits an ARI(`order`, `diff_order`) model.
    ///
    /// # Errors
    ///
    /// * [`PredictorError::InvalidParameter`] if `diff_order == 0` (use [`Ar`])
    ///   or `order == 0`;
    /// * [`PredictorError::InsufficientData`] if differencing exhausts the
    ///   series or leaves too few points for the AR fit.
    pub fn fit(train: &[f64], order: usize, diff_order: usize) -> Result<Self> {
        if diff_order == 0 {
            return Err(PredictorError::InvalidParameter(
                "ARI with d = 0 is plain AR; use Ar::fit".into(),
            ));
        }
        let mut ari = Self { ar: Ar::unfitted(order), diff_order };
        ari.refit(train, &mut Vec::new())?;
        Ok(ari)
    }

    /// Reconstructs a fitted ARI from an [`Ar`] restored via
    /// [`Ar::from_parts`] and the differencing order.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::InvalidParameter`] if `diff_order == 0`.
    pub fn from_parts(ar: Ar, diff_order: usize) -> Result<Self> {
        if diff_order == 0 {
            return Err(PredictorError::InvalidParameter(
                "ARI with d = 0 is plain AR; use Ar::from_parts".into(),
            ));
        }
        Ok(Self { ar, diff_order })
    }

    /// The differencing order `d`.
    pub fn diff_order(&self) -> usize {
        self.diff_order
    }

    /// The underlying AR model over the differenced series.
    pub fn inner(&self) -> &Ar {
        &self.ar
    }
}

impl Predictor for Ari {
    fn name(&self) -> &'static str {
        "ARI"
    }

    fn min_history(&self) -> usize {
        self.ar.min_history() + self.diff_order
    }

    /// `work` holds the differenced series, then the inner AR fit's
    /// workspace.
    fn refit(&mut self, train: &[f64], work: &mut Vec<f64>) -> Result<()> {
        let d = self.diff_order;
        if train.len() <= d {
            return Err(PredictorError::InsufficientData {
                model: "ARI",
                needed: d + 1,
                got: train.len(),
            });
        }
        let p = self.ar.order;
        work.clear();
        work.extend_from_slice(train);
        work.resize(train.len() + 2 * p + 1, 0.0);
        let (diffed, rest) = work.split_at_mut(train.len());
        // Difference in place, `d` times: each pass is
        // `timeseries::diff::difference` on one fewer value.
        for len in (train.len() - d + 1..=train.len()).rev() {
            for i in 0..len - 1 {
                diffed[i] = diffed[i + 1] - diffed[i];
            }
        }
        let (acov, prev) = rest.split_at_mut(p + 1);
        self.ar.fit_with(&diffed[..train.len() - d], acov, prev)
    }

    fn predict(&self, history: &[f64]) -> f64 {
        // Difference the history d times, forecast the next difference at each
        // level from innermost out, then integrate back up. The forecast reads
        // only the last p + d values, so only those are differenced.
        let tail = &history[history.len().saturating_sub(self.min_history())..];
        let mut levels: Vec<Vec<f64>> = Vec::with_capacity(self.diff_order + 1);
        levels.push(tail.to_vec());
        for _ in 0..self.diff_order {
            let prev = levels.last().expect("non-empty by construction");
            let next = timeseries::diff::difference(prev).expect("min_history guarantees length");
            levels.push(next);
        }
        // Forecast the innermost differenced series with AR.
        let mut forecast = self.ar.predict(levels.last().expect("non-empty"));
        // Integrate: next value at level k = last(level k) + forecast(level k+1).
        for level in levels[..self.diff_order].iter().rev() {
            let last = *level.last().expect("non-empty");
            forecast = timeseries::diff::integrate_next(last, forecast);
        }
        forecast
    }

    fn fitted_state(&self) -> Vec<f64> {
        // The inner AR's layout; diff_order lives in the spec.
        self.ar.fitted_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{dist::Normal, Xoshiro256pp};

    /// Generates an AR(2) series with known coefficients.
    fn ar2_series(phi1: f64, phi2: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let noise = Normal::new(0.0, 1.0).unwrap();
        let mut xs = vec![0.0; n + 200];
        for t in 2..xs.len() {
            xs[t] = phi1 * xs[t - 1] + phi2 * xs[t - 2] + noise.sample(&mut rng);
        }
        xs.split_off(200) // drop burn-in
    }

    #[test]
    fn recovers_ar2_coefficients() {
        let xs = ar2_series(0.5, 0.3, 20_000, 1);
        let ar = Ar::fit(&xs, 2).unwrap();
        assert!(!ar.is_degenerate());
        assert!((ar.coefficients()[0] - 0.5).abs() < 0.05, "{:?}", ar.coefficients());
        assert!((ar.coefficients()[1] - 0.3).abs() < 0.05, "{:?}", ar.coefficients());
    }

    #[test]
    fn higher_order_fit_has_near_zero_extra_coefficients() {
        let xs = ar2_series(0.6, 0.2, 20_000, 2);
        let ar = Ar::fit(&xs, 5).unwrap();
        for &c in &ar.coefficients()[2..] {
            assert!(c.abs() < 0.1, "{:?}", ar.coefficients());
        }
    }

    #[test]
    fn ar_beats_last_on_its_own_process() {
        // On a strongly mean-reverting AR(1) with negative coefficient,
        // persistence is the wrong model and AR must win.
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let noise = Normal::new(0.0, 1.0).unwrap();
        let mut xs = vec![0.0; 5000];
        for t in 1..xs.len() {
            xs[t] = -0.7 * xs[t - 1] + noise.sample(&mut rng);
        }
        let (train, test) = xs.split_at(2500);
        let ar = Ar::fit(train, 1).unwrap();
        let mut ar_err = 0.0;
        let mut last_err = 0.0;
        for t in 1..test.len() {
            let h = &test[..t];
            ar_err += (ar.predict(h) - test[t]).powi(2);
            last_err += (h[h.len() - 1] - test[t]).powi(2);
        }
        assert!(ar_err < last_err * 0.6, "AR {ar_err} vs LAST {last_err}");
    }

    #[test]
    fn constant_series_degrades_to_persistence() {
        let xs = [4.2; 100];
        let ar = Ar::fit(&xs, 3).unwrap();
        assert!(ar.is_degenerate());
        assert_eq!(ar.predict(&[4.2, 4.2, 4.2]), 4.2);
        // And it behaves like LAST on any input.
        assert_eq!(ar.predict(&[0.0, 1.0, 9.0]), 9.0);
    }

    #[test]
    fn mean_centering_matters_on_shifted_series() {
        // White noise around 100: AR should predict ~100, not ~0.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let noise = Normal::new(100.0, 1.0).unwrap();
        let xs: Vec<f64> = (0..5000).map(|_| noise.sample(&mut rng)).collect();
        let ar = Ar::fit(&xs, 2).unwrap();
        let p = ar.predict(&[100.5, 99.5]);
        assert!((p - 100.0).abs() < 1.0, "{p}");
    }

    #[test]
    fn fit_validation() {
        assert!(Ar::fit(&[1.0, 2.0, 3.0], 0).is_err());
        assert!(matches!(
            Ar::fit(&[1.0, 2.0, 3.0], 2),
            Err(PredictorError::InsufficientData { .. })
        ));
    }

    #[test]
    fn accessors_report_fit() {
        let xs = ar2_series(0.5, 0.2, 5000, 5);
        let ar = Ar::fit(&xs, 2).unwrap();
        assert_eq!(ar.order(), 2);
        assert_eq!(ar.min_history(), 2);
        assert!(ar.innovation_variance() > 0.0);
        assert_eq!(ar.name(), "AR");
    }

    #[test]
    fn ari_handles_linear_trend_exactly_better_than_ar() {
        // x_t = t + small noise: differencing makes it stationary.
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let noise = Normal::new(0.0, 0.01).unwrap();
        let xs: Vec<f64> = (0..2000).map(|t| t as f64 + noise.sample(&mut rng)).collect();
        let (train, test) = xs.split_at(1000);
        let ari = Ari::fit(train, 2, 1).unwrap();
        let mut err = 0.0;
        let mut n = 0;
        for t in ari.min_history()..test.len() {
            let h = &test[..t];
            err += (ari.predict(h) - test[t]).powi(2);
            n += 1;
        }
        let mse = err / n as f64;
        // AR without differencing pulls towards the training mean (~500) and
        // does terribly out at 1000+; ARI must stay near-perfect.
        assert!(mse < 0.1, "ARI mse {mse}");
    }

    #[test]
    fn ari_validation() {
        assert!(Ari::fit(&[1.0; 50], 2, 0).is_err());
        assert!(Ari::fit(&[1.0, 2.0], 1, 3).is_err());
        let ari = Ari::fit(&(0..100).map(|i| i as f64).collect::<Vec<_>>(), 1, 1).unwrap();
        assert_eq!(ari.diff_order(), 1);
        assert_eq!(ari.min_history(), 2);
        assert_eq!(ari.name(), "ARI");
    }

    #[test]
    fn ari_constant_series_predicts_constant() {
        let xs = vec![3.0; 100];
        let ari = Ari::fit(&xs, 1, 1).unwrap();
        assert!(ari.inner().is_degenerate());
        assert_eq!(ari.predict(&[3.0, 3.0, 3.0]), 3.0);
    }
}
