//! The predictor pool: a fitted set of models addressed by [`PredictorId`].

use crate::{ModelSpec, Predictor, PredictorError, Result};

/// Index of a model within its pool.
///
/// Display is 1-based to match the paper's figure legends
/// ("Predictor Class: 1 - LAST, 2 - AR, 3 - SW_AVG").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredictorId(pub usize);

impl std::fmt::Display for PredictorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A fitted pool of predictors sharing one training context.
pub struct PredictorPool {
    models: Vec<Box<dyn Predictor>>,
    specs: Vec<ModelSpec>,
}

impl PredictorPool {
    /// Builds a pool from specs, fitting each model against `train`.
    ///
    /// # Errors
    ///
    /// Returns the first build error, or
    /// [`PredictorError::InvalidParameter`] for an empty spec list.
    pub fn from_specs(specs: &[ModelSpec], train: &[f64]) -> Result<Self> {
        let mut pool = Self { models: Vec::new(), specs: Vec::new() };
        pool.refit(specs, train, &mut Vec::new())?;
        Ok(pool)
    }

    /// [`PredictorPool::from_specs`] into this pool's storage. A pool built
    /// from the same `specs` refits every member in place
    /// ([`Predictor::refit`]), so a warm refit allocates nothing; any other
    /// pool is rebuilt. `work` is the members' fit scratch, kept by the
    /// caller across refits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PredictorPool::from_specs`]. After an error the
    /// pool must be refit before it predicts again.
    pub fn refit(&mut self, specs: &[ModelSpec], train: &[f64], work: &mut Vec<f64>) -> Result<()> {
        if specs.is_empty() {
            return Err(PredictorError::InvalidParameter("pool must contain a model".into()));
        }
        if self.specs == specs {
            return self.models.iter_mut().try_for_each(|m| m.refit(train, work));
        }
        let mut models = Vec::with_capacity(specs.len());
        for spec in specs {
            models.push(spec.build(train)?);
        }
        (self.models, self.specs) = (models, specs.to_vec());
        Ok(())
    }

    /// The paper's pool {LAST, AR(order), SW_AVG(order)} fitted on `train`.
    ///
    /// # Errors
    ///
    /// Propagates AR fitting errors (e.g. training series shorter than
    /// `2 * order`).
    pub fn standard(train: &[f64], order: usize) -> Result<Self> {
        Self::from_specs(&ModelSpec::standard_pool(order), train)
    }

    /// The extended 11-model pool fitted on `train`.
    ///
    /// # Errors
    ///
    /// Propagates build errors from any member model.
    pub fn extended(train: &[f64], order: usize) -> Result<Self> {
        Self::from_specs(&ModelSpec::extended_pool(order), train)
    }

    /// Reconstructs a fitted pool from specs plus the per-member fitted state
    /// previously extracted with [`PredictorPool::fitted_states`] — no
    /// training data, no refitting.
    ///
    /// # Errors
    ///
    /// * [`PredictorError::InvalidParameter`] for an empty spec list or a
    ///   state list whose length differs from the spec list;
    /// * propagated [`ModelSpec::rebuild`] errors.
    pub fn from_fitted(specs: &[ModelSpec], states: &[Vec<f64>]) -> Result<Self> {
        if specs.is_empty() {
            return Err(PredictorError::InvalidParameter("pool must contain a model".into()));
        }
        if specs.len() != states.len() {
            return Err(PredictorError::InvalidParameter(format!(
                "{} specs vs {} fitted states",
                specs.len(),
                states.len()
            )));
        }
        let models =
            specs.iter().zip(states).map(|(s, st)| s.rebuild(st)).collect::<Result<Vec<_>>>()?;
        Ok(Self { models, specs: specs.to_vec() })
    }

    /// Every member's train-derived state, in pool order (empty vectors for
    /// the non-parametric models). Together with the specs this fully
    /// describes the fitted pool.
    pub fn fitted_states(&self) -> Vec<Vec<f64>> {
        self.models.iter().map(|m| m.fitted_state()).collect()
    }

    /// All specs in pool order.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Approximate heap bytes held by the fitted pool: the boxed model list,
    /// the spec list, and every member's fitted state. Walks `fitted_state`
    /// (which allocates transiently), so this is for cold-path memory
    /// accounting only — never call it from the serving loop.
    pub fn heap_bytes(&self) -> usize {
        let state_doubles: usize = self.models.iter().map(|m| m.fitted_state().len()).sum();
        self.models.capacity() * std::mem::size_of::<Box<dyn Predictor>>()
            + self.specs.capacity() * std::mem::size_of::<ModelSpec>()
            + state_doubles * std::mem::size_of::<f64>()
    }

    /// Number of models in the pool.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the pool is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// All valid ids, in order.
    pub fn ids(&self) -> impl Iterator<Item = PredictorId> {
        (0..self.models.len()).map(PredictorId)
    }

    /// The display name of model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this pool.
    pub fn name(&self, id: PredictorId) -> &'static str {
        self.models[id.0].name()
    }

    /// All model names in pool order.
    pub fn names(&self) -> Vec<&'static str> {
        self.models.iter().map(|m| m.name()).collect()
    }

    /// The spec that produced model `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this pool.
    pub fn spec(&self, id: PredictorId) -> &ModelSpec {
        &self.specs[id.0]
    }

    /// The largest `min_history` over the pool — the number of warm-up points
    /// a driver must supply before every model can predict.
    pub fn min_history(&self) -> usize {
        self.models.iter().map(|m| m.min_history()).max().unwrap_or(1)
    }

    /// Runs a single model.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `history` is shorter than the pool's
    /// [`min_history`](Self::min_history) for that model.
    pub fn predict_one(&self, id: PredictorId, history: &[f64]) -> f64 {
        let m = &self.models[id.0];
        assert!(
            history.len() >= m.min_history(),
            "{} needs {} points, got {}",
            m.name(),
            m.min_history(),
            history.len()
        );
        m.predict(history)
    }

    /// Runs every model on the same history (the mix-of-expert step of the
    /// training phase), returning forecasts in pool order.
    ///
    /// # Panics
    ///
    /// Panics if `history` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn predict_all(&self, history: &[f64]) -> Vec<f64> {
        assert!(
            history.len() >= self.min_history(),
            "pool needs {} points, got {}",
            self.min_history(),
            history.len()
        );
        self.models.iter().map(|m| m.predict(history)).collect()
    }

    /// Identifies the best predictor for one step: the model whose forecast has
    /// the smallest absolute error against `actual` (the paper's §7.2.1
    /// labelling rule). Ties break toward the lower id, making labels
    /// deterministic. A non-finite error (NaN forecast or actual) ranks after
    /// every finite one, so corrupted inputs degrade the label rather than
    /// aborting the whole training pass.
    ///
    /// # Panics
    ///
    /// Panics if `history` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn best_for(&self, history: &[f64], actual: f64) -> (PredictorId, Vec<f64>) {
        let forecasts = self.predict_all(history);
        let best = forecasts
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| (*a - actual).abs().total_cmp(&(*b - actual).abs()))
            .map(|(i, _)| PredictorId(i))
            .expect("pool is non-empty");
        (best, forecasts)
    }

    /// Labels every `(window, next value)` pair of `series`: appends to
    /// `out`, for each `i` in `0..series.len() - window`, exactly the id
    /// `best_for(&series[i..i + window], series[i + window])` picks.
    /// Member-major — each member forecasts a block of windows in one
    /// [`Predictor::predict_frames`] call, and a running best per window
    /// takes the smallest error under `total_cmp`, first member on ties —
    /// with the blocks on the stack, so nothing but `out` is allocated. This
    /// is the labelling step the retrain path runs on every refit.
    ///
    /// # Panics
    ///
    /// Panics if `window` is shorter than the pool's
    /// [`min_history`](Self::min_history).
    pub fn best_ids_into(&self, series: &[f64], window: usize, out: &mut Vec<usize>) {
        const BLOCK: usize = 64;
        assert!(
            window >= self.min_history(),
            "pool needs {} points, got {window}",
            self.min_history()
        );
        let total = series.len().saturating_sub(window);
        out.reserve(total);
        // Errors are `abs()` values — sign bit clear, NaN included — and on
        // those `total_cmp` is exactly the unsigned order of the bit
        // patterns, which the running best compares without a branch.
        let (mut forecasts, mut best_err) = ([0.0; BLOCK], [0u64; BLOCK]);
        let mut start = 0;
        while start < total {
            let len = BLOCK.min(total - start);
            let first = out.len();
            out.resize(first + len, 0);
            let labels = &mut out[first..];
            let block = &series[start..start + len + window];
            let targets = &block[window..];
            for (id, model) in self.models.iter().enumerate() {
                model.predict_frames(block, window, &mut forecasts[..len]);
                for (((&f, &actual), best), label) in
                    forecasts.iter().zip(targets).zip(&mut best_err).zip(labels.iter_mut())
                {
                    let err = (f - actual).abs().to_bits();
                    // Strict `<` keeps the first minimum, as `min_by` does.
                    let better = id == 0 || err < *best;
                    *best = if better { err } else { *best };
                    *label = if better { id } else { *label };
                }
            }
            start += len;
        }
    }
}

impl std::fmt::Debug for PredictorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorPool").field("models", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> Vec<f64> {
        (0..100).map(|i| (i as f64 * 0.2).sin()).collect()
    }

    #[test]
    fn standard_pool_has_paper_ordering() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        assert_eq!(pool.names(), vec!["LAST", "AR", "SW_AVG"]);
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn predictor_id_displays_one_based() {
        assert_eq!(PredictorId(0).to_string(), "1");
        assert_eq!(PredictorId(2).to_string(), "3");
    }

    #[test]
    fn predict_all_matches_predict_one() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        let h: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let all = pool.predict_all(&h);
        for id in pool.ids() {
            assert_eq!(all[id.0], pool.predict_one(id, &h));
        }
    }

    #[test]
    fn best_for_picks_minimal_absolute_error() {
        let pool = PredictorPool::standard(&train(), 3).unwrap();
        // Ramp history: LAST says 9, SW_AVG says 8, AR says something else.
        let h = [7.0, 8.0, 9.0];
        let (best, forecasts) = pool.best_for(&h, 9.0);
        let err_best = (forecasts[best.0] - 9.0).abs();
        for f in &forecasts {
            assert!(err_best <= (f - 9.0).abs() + 1e-15);
        }
    }

    #[test]
    fn best_ids_into_matches_best_for_per_window() {
        // Lengths around the block size, a NaN target (non-finite errors
        // rank last) and a constant stretch (exact ties) included.
        let mut t: Vec<f64> = (0..300).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        t[40] = f64::NAN;
        t[100..120].fill(0.5);
        for pool in [PredictorPool::standard(&t[..60], 5), PredictorPool::extended(&t[..60], 5)] {
            let pool = pool.unwrap();
            for len in [6usize, 7, 40, 69, 70, 71, 200, 300] {
                let series = &t[..len];
                let mut out = vec![7];
                pool.best_ids_into(series, 5, &mut out);
                let expected: Vec<usize> = std::iter::once(7)
                    .chain(
                        (0..len - 5).map(|i| pool.best_for(&series[i..i + 5], series[i + 5]).0 .0),
                    )
                    .collect();
                assert_eq!(out, expected, "len {len}");
            }
        }
    }

    #[test]
    fn refit_in_place_matches_a_fresh_pool() {
        // One pool's storage refit across trains (a constant one included,
        // where AR degrades to persistence) and across spec lists: every
        // member's state and forecast equals a freshly built pool's.
        let wave: Vec<f64> =
            (0..120).map(|i| (i as f64 * 0.37).sin() * 2.0 + i as f64 * 0.01).collect();
        let flat = [0.75; 40];
        let mut pool = PredictorPool::standard(&wave[..40], 5).unwrap();
        let mut work = Vec::new();
        for (specs, t) in [
            (ModelSpec::standard_pool(5), &wave[20..60]),
            (ModelSpec::standard_pool(5), &flat[..]),
            (ModelSpec::extended_pool(5), &wave[..120]),
            (ModelSpec::extended_pool(5), &wave[50..90]),
            (ModelSpec::standard_pool(3), &wave[10..50]),
            (ModelSpec::standard_pool(3), &wave[60..100]),
        ] {
            pool.refit(&specs, t, &mut work).unwrap();
            let fresh = PredictorPool::from_specs(&specs, t).unwrap();
            assert_eq!(pool.specs(), fresh.specs());
            let bits = |p: &PredictorPool| -> Vec<Vec<u64>> {
                p.fitted_states().iter().map(|s| s.iter().map(|v| v.to_bits()).collect()).collect()
            };
            assert_eq!(bits(&pool), bits(&fresh), "{specs:?}");
            assert_eq!(pool.heap_bytes(), fresh.heap_bytes(), "{specs:?}");
            let h = &wave[70..90];
            for id in pool.ids() {
                assert_eq!(pool.predict_one(id, h).to_bits(), fresh.predict_one(id, h).to_bits());
            }
        }
        // A failed refit leaves a pool the next refit restores.
        assert!(pool.refit(&ModelSpec::extended_pool(5), &wave[..6], &mut work).is_err());
        assert!(pool.refit(&ModelSpec::standard_pool(5), &wave[..6], &mut work).is_err());
        pool.refit(&ModelSpec::standard_pool(5), &wave[..40], &mut work).unwrap();
        let fresh = PredictorPool::standard(&wave[..40], 5).unwrap();
        assert_eq!(pool.fitted_states(), fresh.fitted_states());
    }

    #[test]
    fn best_for_tie_breaks_to_lower_id() {
        // A constant history makes LAST and SW_AVG produce identical
        // forecasts; the tie must resolve to LAST (id 0).
        let t = [1.0; 50];
        let pool = PredictorPool::standard(&t, 3).unwrap();
        let (best, _) = pool.best_for(&[1.0, 1.0, 1.0], 1.0);
        assert_eq!(best, PredictorId(0));
    }

    #[test]
    fn min_history_is_pool_maximum() {
        let pool = PredictorPool::standard(&train(), 7).unwrap();
        assert_eq!(pool.min_history(), 7); // AR(7) dominates
    }

    #[test]
    #[should_panic(expected = "pool needs")]
    fn predict_all_panics_on_short_history() {
        let pool = PredictorPool::standard(&train(), 5).unwrap();
        pool.predict_all(&[1.0, 2.0]);
    }

    #[test]
    fn empty_spec_list_rejected() {
        assert!(matches!(
            PredictorPool::from_specs(&[], &train()),
            Err(PredictorError::InvalidParameter(_))
        ));
    }

    #[test]
    fn extended_pool_builds_with_eleven_models() {
        let pool = PredictorPool::extended(&train(), 5).unwrap();
        assert_eq!(pool.len(), 11);
        let h: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        for p in pool.predict_all(&h) {
            assert!(p.is_finite());
        }
    }

    #[test]
    fn spec_accessor_round_trips() {
        let pool = PredictorPool::standard(&train(), 4).unwrap();
        assert_eq!(pool.spec(PredictorId(1)), &ModelSpec::Ar { order: 4 });
    }
}
