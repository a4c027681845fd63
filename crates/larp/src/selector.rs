//! Selector strategies: the LARPredictor's k-NN choice and every baseline.
//!
//! A [`Selector`] is asked, before each test step, which pool member should
//! forecast the next value; after the value is revealed it may update internal
//! state. The key cost distinction the paper draws is captured by
//! [`Selector::runs_full_pool`]: the NWS baselines must execute *every*
//! predictor *every* step to maintain their error accounting, while the
//! k-NN selector runs only the model it picks.

use predictors::{PredictorId, PredictorPool};
use timeseries::metrics::{CumulativeMse, WindowedMse};

use crate::model::TrainedLarp;
use crate::Result;

/// A strategy for choosing the next-step predictor.
pub trait Selector {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the predictor for the next value, given the normalised history
    /// observed so far (length ≥ the pool window).
    ///
    /// # Errors
    ///
    /// Implementations may reject histories shorter than their window.
    fn select(&mut self, history: &[f64]) -> Result<PredictorId>;

    /// Receives the revealed actual value so error-tracking selectors can
    /// update. Called after every step, including the first.
    fn observe(&mut self, history: &[f64], actual: f64);

    /// Whether `observe` internally runs the whole pool (the cost the
    /// LARPredictor exists to avoid).
    fn runs_full_pool(&self) -> bool;
}

/// The LARPredictor's k-NN selector (testing phase of the paper).
pub struct KnnSelector<'a> {
    model: &'a TrainedLarp,
}

impl<'a> KnnSelector<'a> {
    /// Wraps a trained model.
    pub fn new(model: &'a TrainedLarp) -> Self {
        Self { model }
    }
}

impl Selector for KnnSelector<'_> {
    fn name(&self) -> &'static str {
        "Knn-LARP"
    }

    fn select(&mut self, history: &[f64]) -> Result<PredictorId> {
        self.model.select(history)
    }

    fn observe(&mut self, _history: &[f64], _actual: f64) {}

    fn runs_full_pool(&self) -> bool {
        false
    }
}

/// The NWS selection rule: run all predictors every step, keep a cumulative
/// MSE per predictor over the whole history, and choose the current minimum.
pub struct NwsCumMse<'a> {
    pool: &'a PredictorPool,
    accumulators: Vec<CumulativeMse>,
}

impl<'a> NwsCumMse<'a> {
    /// Creates the selector over a fitted pool.
    pub fn new(pool: &'a PredictorPool) -> Self {
        Self { pool, accumulators: (0..pool.len()).map(|_| CumulativeMse::new()).collect() }
    }
}

impl Selector for NwsCumMse<'_> {
    fn name(&self) -> &'static str {
        "Cum.MSE"
    }

    fn select(&mut self, _history: &[f64]) -> Result<PredictorId> {
        Ok(argmin_mse(self.accumulators.iter().map(|a| a.mse())))
    }

    fn observe(&mut self, history: &[f64], actual: f64) {
        for (forecast, acc) in
            self.pool.predict_all(history).into_iter().zip(&mut self.accumulators)
        {
            acc.record(forecast, actual);
        }
    }

    fn runs_full_pool(&self) -> bool {
        true
    }
}

/// The windowed variant: cumulative MSE over only the last `window` errors
/// (the paper's Fig. 6 "W-Cum.MSE" with window 2).
pub struct WindowedCumMse<'a> {
    pool: &'a PredictorPool,
    accumulators: Vec<WindowedMse>,
    window: usize,
}

impl<'a> WindowedCumMse<'a> {
    /// Creates the selector with the given error window.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LarpError::InvalidConfig`] if `window == 0`.
    pub fn new(pool: &'a PredictorPool, window: usize) -> Result<Self> {
        let accumulators = (0..pool.len())
            .map(|_| WindowedMse::new(window))
            .collect::<timeseries::Result<Vec<_>>>()
            .map_err(|e| crate::LarpError::InvalidConfig(e.to_string()))?;
        Ok(Self { pool, accumulators, window })
    }

    /// The configured error window.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Selector for WindowedCumMse<'_> {
    fn name(&self) -> &'static str {
        "W-Cum.MSE"
    }

    fn select(&mut self, _history: &[f64]) -> Result<PredictorId> {
        Ok(argmin_mse(self.accumulators.iter().map(|a| a.mse())))
    }

    fn observe(&mut self, history: &[f64], actual: f64) {
        for (forecast, acc) in
            self.pool.predict_all(history).into_iter().zip(&mut self.accumulators)
        {
            acc.record(forecast, actual);
        }
    }

    fn runs_full_pool(&self) -> bool {
        true
    }
}

/// Owned per-predictor windowed-error accounting for the online serving
/// layer's degradation ladder.
///
/// Unlike [`NwsCumMse`]/[`WindowedCumMse`] this holds no pool reference — the
/// pool is passed to each call — so it can live inside [`crate::OnlineLarp`]
/// across retrains (each retrain replaces the pool and resets the tracker in
/// place). The online layer only pays the full-pool cost
/// of [`PoolErrorTracker::observe`] while at least one predictor is
/// quarantined; on a healthy stream it is never consulted.
#[derive(Debug)]
pub struct PoolErrorTracker {
    accumulators: Vec<WindowedMse>,
}

impl PoolErrorTracker {
    /// Creates a tracker for a pool of `pool_len` members with the given
    /// error window.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LarpError::InvalidConfig`] if `window == 0`.
    pub fn new(pool_len: usize, window: usize) -> Result<Self> {
        let mut accumulators = Vec::with_capacity(pool_len);
        for _ in 0..pool_len {
            accumulators.push(
                WindowedMse::new(window)
                    .map_err(|e| crate::LarpError::InvalidConfig(e.to_string()))?,
            );
        }
        Ok(Self { accumulators })
    }

    /// Runs the whole pool on `history` and records each member's error
    /// against the revealed `actual`. Non-finite forecasts are recorded as a
    /// large finite penalty so a NaN-emitting model ranks last instead of
    /// poisoning its accumulator.
    pub fn observe(&mut self, pool: &PredictorPool, history: &[f64], actual: f64) {
        // One member at a time, so a quarantined step allocates nothing.
        for (id, acc) in pool.ids().zip(&mut self.accumulators) {
            let forecast = pool.predict_one(id, history);
            if forecast.is_finite() && actual.is_finite() {
                acc.record(forecast, actual);
            } else {
                acc.record(1e6, 0.0);
            }
        }
    }

    /// Forgets every member's errors, keeping the windows' allocations: the
    /// tracker reads as freshly created.
    pub fn reset(&mut self) {
        self.accumulators.iter_mut().for_each(WindowedMse::reset);
    }

    /// The lowest-error pool member among those for which `allowed` is true.
    /// Members without history yet rank as if their error were 0. Returns
    /// `None` if nothing is allowed.
    pub fn best_allowed(&self, allowed: impl Fn(PredictorId) -> bool) -> Option<PredictorId> {
        let mut best: Option<(PredictorId, f64)> = None;
        for (i, acc) in self.accumulators.iter().enumerate() {
            let id = PredictorId(i);
            if !allowed(id) {
                continue;
            }
            let v = acc.mse().unwrap_or(0.0);
            if best.is_none_or(|(_, bv)| v < bv) {
                best = Some((id, v));
            }
        }
        best.map(|(id, _)| id)
    }

    /// Heap bytes held by the tracker's error windows, for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.accumulators.capacity() * std::mem::size_of::<WindowedMse>()
            + self.accumulators.iter().map(WindowedMse::heap_bytes).sum::<usize>()
    }

    /// Number of pool members tracked.
    pub fn len(&self) -> usize {
        self.accumulators.len()
    }

    /// Whether the tracker tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.accumulators.is_empty()
    }
}

/// Always selects one fixed predictor — how the paper reports the single-model
/// columns (LAST / AR / SW) of Table 2.
pub struct Static {
    id: PredictorId,
    name: &'static str,
}

impl Static {
    /// Creates a static selector for pool member `id`, carrying the model's
    /// display name.
    pub fn new(id: PredictorId, name: &'static str) -> Self {
        Self { id, name }
    }
}

impl Selector for Static {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select(&mut self, _history: &[f64]) -> Result<PredictorId> {
        Ok(self.id)
    }

    fn observe(&mut self, _history: &[f64], _actual: f64) {}

    fn runs_full_pool(&self) -> bool {
        false
    }
}

/// Argmin over optional MSEs: predictors with no history yet rank as if their
/// error were 0 (everyone starts equal, ties resolve to the lowest id — for
/// the standard pool that is LAST, a sane cold-start default).
fn argmin_mse(mses: impl Iterator<Item = Option<f64>>) -> PredictorId {
    let mut best = PredictorId(0);
    let mut best_val = f64::INFINITY;
    for (i, m) in mses.enumerate() {
        let v = m.unwrap_or(0.0);
        if v < best_val {
            best_val = v;
            best = PredictorId(i);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_over(train: &[f64]) -> PredictorPool {
        PredictorPool::standard(train, 3).unwrap()
    }

    /// A two-model pool {LAST, SW_AVG(4)} where the winner on each workload
    /// shape is unambiguous (no AR, whose fit quality depends on the data).
    fn two_model_pool(train: &[f64]) -> PredictorPool {
        use predictors::ModelSpec;
        PredictorPool::from_specs(&[ModelSpec::Last, ModelSpec::SwAvg { window: 4 }], train)
            .unwrap()
    }

    #[test]
    fn nws_tracks_the_lowest_error_model() {
        // Smooth ramp: LAST has error 0.1 per step; SW_AVG(4) lags by ~0.25.
        // After a few observations NWS must settle on LAST (id 0).
        let t: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let pool = two_model_pool(&t);
        let mut sel = NwsCumMse::new(&pool);
        for step in 3..30 {
            sel.observe(&t[..step], t[step]);
        }
        assert_eq!(sel.select(&t[..30]).unwrap(), PredictorId(0));
    }

    #[test]
    fn nws_selection_matches_independent_cumulative_mse() {
        // On the standard pool, whatever NWS selects must be the argmin of
        // independently accumulated cumulative squared errors.
        let t: Vec<f64> = (0..120).map(|i| (i as f64 * 0.17).sin() * 2.0).collect();
        let pool = pool_over(&t);
        let mut sel = NwsCumMse::new(&pool);
        let mut sums = vec![0.0; pool.len()];
        for step in 3..80 {
            sel.observe(&t[..step], t[step]);
            for (i, f) in pool.predict_all(&t[..step]).iter().enumerate() {
                sums[i] += (f - t[step]).powi(2);
            }
        }
        let expect = sums
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
            .map(|(i, _)| PredictorId(i))
            .unwrap();
        assert_eq!(sel.select(&t[..80]).unwrap(), expect);
    }

    #[test]
    fn nws_cold_start_defaults_to_first_model() {
        let t: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let pool = pool_over(&t);
        let mut sel = NwsCumMse::new(&pool);
        assert_eq!(sel.select(&t[..5]).unwrap(), PredictorId(0));
    }

    #[test]
    fn windowed_selector_adapts_faster_than_cumulative() {
        // Phase 1 (long): LAST perfect. Phase 2: alternating noise where
        // SW_AVG wins. The windowed selector must flip soon after the switch,
        // while the cumulative one is still anchored to phase-1 history.
        // Phase 1 uses a unit-slope ramp so LAST accumulates real error
        // (1 per step) while SW_AVG(4) accumulates ~6.25 per step — enough
        // history to anchor the cumulative selector on LAST through phase 2.
        let mut t: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let base = t[199];
        t.extend((0..40).map(|i| base + if i % 2 == 0 { 1.0 } else { -1.0 }));
        let pool = two_model_pool(&t);
        let mut win = WindowedCumMse::new(&pool, 2).unwrap();
        let mut cum = NwsCumMse::new(&pool);
        for step in 3..t.len() {
            win.observe(&t[..step], t[step]);
            cum.observe(&t[..step], t[step]);
        }
        // After 40 noisy steps, the windowed selector must have flipped to
        // SW_AVG (id 1) while the cumulative one is still anchored to LAST
        // by its 200-step smooth prefix.
        assert_eq!(win.select(&t).unwrap(), PredictorId(1));
        assert_eq!(cum.select(&t).unwrap(), PredictorId(0));
    }

    #[test]
    fn windowed_zero_window_rejected() {
        let t: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let pool = pool_over(&t);
        assert!(WindowedCumMse::new(&pool, 0).is_err());
    }

    #[test]
    fn static_selector_is_constant() {
        let t: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut sel = Static::new(PredictorId(2), "SW_AVG");
        assert_eq!(sel.select(&t[..10]).unwrap(), PredictorId(2));
        sel.observe(&t[..10], 99.0);
        assert_eq!(sel.select(&t[..20]).unwrap(), PredictorId(2));
        assert!(!sel.runs_full_pool());
        assert_eq!(sel.name(), "SW_AVG");
    }

    #[test]
    fn tracker_ranks_by_windowed_error_and_respects_exclusions() {
        // Smooth ramp: LAST (id 0) beats SW_AVG (id 1).
        let t: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let pool = two_model_pool(&t);
        let mut tracker = PoolErrorTracker::new(pool.len(), 8).unwrap();
        for step in 4..60 {
            tracker.observe(&pool, &t[..step], t[step]);
        }
        assert_eq!(tracker.best_allowed(|_| true), Some(PredictorId(0)));
        // Excluding the winner falls through to the runner-up.
        assert_eq!(tracker.best_allowed(|id| id.0 != 0), Some(PredictorId(1)));
        // Excluding everything yields nothing.
        assert_eq!(tracker.best_allowed(|_| false), None);
        assert_eq!(tracker.len(), 2);
        assert!(!tracker.is_empty());
    }

    #[test]
    fn tracker_survives_nonfinite_observations() {
        let t: Vec<f64> = (0..60).map(|i| i as f64 * 0.1).collect();
        let pool = two_model_pool(&t);
        let mut tracker = PoolErrorTracker::new(pool.len(), 4).unwrap();
        for step in 4..20 {
            tracker.observe(&pool, &t[..step], t[step]);
        }
        // A NaN actual must not poison the accounting into unanimity loss.
        tracker.observe(&pool, &t[..20], f64::NAN);
        assert!(tracker.best_allowed(|_| true).is_some());
        assert!(PoolErrorTracker::new(2, 0).is_err());
    }

    #[test]
    fn cost_flags_match_paper_claims() {
        let t: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let pool = pool_over(&t);
        assert!(NwsCumMse::new(&pool).runs_full_pool());
        assert!(WindowedCumMse::new(&pool, 2).unwrap().runs_full_pool());
        assert!(!Static::new(PredictorId(0), "LAST").runs_full_pool());
    }
}
