//! The trained LARPredictor: normaliser + pool + PCA + k-NN, bundled.

use std::sync::Arc;

use learn::{KnnClassifier, Pca};
use predictors::{PredictorId, PredictorPool};
use timeseries::ZScore;

use crate::config::{FeatureReduction, LarpConfig};
use crate::labeler::label_ids_into;
use crate::selector::KnnSelector;
use crate::{LarpError, Result};

/// Caller-owned reusable buffers for the allocation-free serving path.
///
/// One `Scratch` per stream (or per shard worker, reused across the streams it
/// serves) lets the steady-state push → classify → predict cycle run without
/// touching the heap: every `_into` method writes into these buffers instead
/// of returning fresh `Vec`s. Buffers keep their capacity across calls, so
/// after the first few steps every field is a straight reuse.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Projected feature vector (PCA output, or the raw window when reduction
    /// is disabled).
    pub(crate) features: Vec<f64>,
    /// The k nearest `(label, squared distance)` pairs.
    pub(crate) neighbors: Vec<(usize, f64)>,
    /// Per-pool-member vote counts for ranked selection.
    pub(crate) votes: Vec<usize>,
    /// Per-pool-member nearest-neighbour distance for ranked selection.
    pub(crate) nearest: Vec<f64>,
    /// Ranked predictor ids, most preferred first.
    pub(crate) ranked: Vec<PredictorId>,
    /// Sanitized values produced by one ingest step.
    pub(crate) clean: Vec<f64>,
    /// Widened raw history for `f32`-ring streams (see
    /// [`crate::ResilienceConfig::f32_history`]); stays empty for `f64` rings,
    /// whose history is borrowed zero-copy.
    pub(crate) hist64: Vec<f64>,
    /// The normalised tail one step reads: the current window and each pool
    /// member's span (the fallback tracker's lookback while a member is
    /// quarantined), in the serving model's training units.
    pub(crate) norm: Vec<f64>,
}

impl Scratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ranking produced by the last [`TrainedLarp::select_ranked_into`].
    pub fn ranked(&self) -> &[PredictorId] {
        &self.ranked
    }
}

/// Temporaries of one training phase, reused by every fit on the same
/// thread: the normalised series, its window labels and window matrix, the
/// projected features, the pool members' fit workspace (the AR
/// autocovariances and Levinson recursion) and the probe's k-NN neighbours.
/// An online refit (a 40-sample tail, several thousand times a minute per
/// fleet) writes the model itself into a spent model's storage, so once
/// warm it allocates nothing.
#[derive(Default)]
struct FitBuffers {
    normalized: Vec<f64>,
    labels: Vec<usize>,
    windows: Vec<f64>,
    features: Vec<f64>,
    member_work: Vec<f64>,
    neighbors: Vec<(usize, f64)>,
}

impl FitBuffers {
    /// Buffers above this many values are freed after the fit, so one
    /// offline fit on a long trace does not pin its window matrix to the
    /// thread for good.
    const RETAIN_MAX: usize = 1 << 14;

    fn release_oversized(&mut self) {
        for buf in
            [&mut self.normalized, &mut self.windows, &mut self.features, &mut self.member_work]
        {
            if buf.capacity() > Self::RETAIN_MAX {
                *buf = Vec::new();
            }
        }
        if self.labels.capacity() > Self::RETAIN_MAX {
            self.labels = Vec::new();
        }
    }
}

thread_local! {
    static FIT_BUFFERS: std::cell::RefCell<FitBuffers> = std::cell::RefCell::default();
}

/// Runs `f` on this thread's [`FitBuffers`], trimming oversized ones after.
fn with_fit_buffers<R>(f: impl FnOnce(&mut FitBuffers) -> R) -> R {
    FIT_BUFFERS.with_borrow_mut(|bufs| {
        let out = f(bufs);
        bufs.release_oversized();
        out
    })
}

/// A LARPredictor after its training phase (paper §6.1).
///
/// Holds everything the testing phase needs: the train-derived z-score
/// coefficients, the fitted predictor pool, the PCA projection (if enabled)
/// and the labelled k-NN index. Create with [`TrainedLarp::train`].
pub struct TrainedLarp {
    /// Shared with the [`crate::OnlineLarp`] that refits this model, so a
    /// refit copies no configuration.
    pub(crate) config: Arc<LarpConfig>,
    pub(crate) zscore: ZScore,
    pub(crate) pool: PredictorPool,
    pub(crate) pca: Option<Pca>,
    pub(crate) knn: KnnClassifier,
    pub(crate) train_len: usize,
}

impl TrainedLarp {
    /// Runs the full training phase on a raw (unnormalised) training series.
    ///
    /// Steps (paper Figure 3): z-score fit → normalise → frame into windows of
    /// size `m` → label every window with its best predictor (all models run
    /// in parallel) → PCA fit on the windows → index (projected window, label)
    /// pairs in the k-NN classifier.
    ///
    /// # Errors
    ///
    /// * [`LarpError::InvalidConfig`] for an invalid configuration;
    /// * [`LarpError::InsufficientData`] if `train` is too short to produce
    ///   at least `k` labelled windows;
    /// * [`LarpError::Substrate`] for propagated fitting failures.
    pub fn train(train: &[f64], config: &LarpConfig) -> Result<Self> {
        Self::train_with_threads(train, config, default_threads())
    }

    /// [`TrainedLarp::train`] with an explicit labelling thread count
    /// (exposed for the PERF ablation benches).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainedLarp::train`].
    pub fn train_with_threads(train: &[f64], config: &LarpConfig, threads: usize) -> Result<Self> {
        Self::fit(train, &Arc::new(config.clone()), threads, None)
    }

    /// [`TrainedLarp::train`] under a shared configuration: the model holds
    /// another reference to `config` instead of a copy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainedLarp::train`].
    pub fn train_shared(train: &[f64], config: &Arc<LarpConfig>) -> Result<Self> {
        Self::fit(train, config, default_threads(), None)
    }

    /// [`TrainedLarp::train_shared`] into the storage of `spent`, a model
    /// that no longer serves (trained under any configuration): its PCA
    /// basis, k-NN store and pool members are refit in place, so a warm
    /// refit to the same shape allocates nothing. The model comes out bit
    /// for bit as a fresh fit would. This is the refit path of
    /// [`crate::OnlineLarp`]; `spent` is consumed either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainedLarp::train`].
    pub fn train_reusing(train: &[f64], config: &Arc<LarpConfig>, spent: Self) -> Result<Self> {
        Self::fit(train, config, default_threads(), Some(spent))
    }

    /// The training phase every entry point runs, writing the model into
    /// `spent`'s storage when there is one.
    fn fit(
        train: &[f64],
        config: &Arc<LarpConfig>,
        threads: usize,
        spent: Option<Self>,
    ) -> Result<Self> {
        config.validate()?;
        let m = config.window;
        // Need enough windows for PCA (>= 2) and for k neighbours.
        let min_windows = config.k.max(2);
        if train.len() < m + min_windows {
            return Err(LarpError::InsufficientData(format!(
                "training series of length {} cannot produce {min_windows} windows of size {m}",
                train.len()
            )));
        }

        let zscore = ZScore::fit(train)?;
        with_fit_buffers(|bufs| Self::fit_buffered(train, config, threads, zscore, spent, bufs))
    }

    /// The training phase after the z-score fit, on the thread's reused
    /// [`FitBuffers`]. Every temporary the fit needs lives in `bufs`; the
    /// model's own storage is `spent`'s, or new.
    fn fit_buffered(
        train: &[f64],
        config: &Arc<LarpConfig>,
        threads: usize,
        zscore: ZScore,
        spent: Option<Self>,
        bufs: &mut FitBuffers,
    ) -> Result<Self> {
        let m = config.window;
        let FitBuffers { normalized, labels, windows, features, member_work, .. } = bufs;
        zscore.apply_slice_into(train, normalized);
        let (pool, pca, knn) = match spent {
            Some(model) => (Some(model.pool), model.pca, Some(model.knn)),
            None => (None, None, None),
        };

        let pool = reuse(
            pool,
            |pool| pool.refit(&config.pool, normalized, member_work),
            || PredictorPool::from_specs(&config.pool, normalized),
        )?;
        // Labels only — the windows are overlapping subslices of
        // `normalized`; the k-NN index keeps its own byte copy.
        label_ids_into(&pool, normalized, m, threads, labels)?;
        let n_windows = labels.len();

        // Flat row-major window matrix: (u - m) × m.
        windows.clear();
        for i in 0..n_windows {
            windows.extend_from_slice(&normalized[i..i + m]);
        }

        let (pca, points, dim) = match &config.reduction {
            FeatureReduction::None => (None, &windows[..], m),
            reduction => {
                let p = match reduction {
                    FeatureReduction::Pca { dims } => reuse(
                        pca,
                        |p| p.refit_rows(windows, m, *dims),
                        || Pca::fit_rows(windows, m, *dims),
                    )?,
                    FeatureReduction::PcaFraction { min_fraction } => reuse(
                        pca,
                        |p| p.refit_fraction_rows(windows, m, *min_fraction),
                        || Pca::fit_fraction_rows(windows, m, *min_fraction),
                    )?,
                    FeatureReduction::None => unreachable!("handled above"),
                };
                p.transform_rows_into(windows, features)?;
                let dim = p.n_components();
                (Some(p), &features[..], dim)
            }
        };
        let knn = reuse(
            knn,
            |knn| knn.refit_flat(points, dim, labels, config.k),
            || KnnClassifier::fit_flat(points, dim, labels, config.k),
        )?;

        Ok(Self { config: Arc::clone(config), zscore, pool, pca, knn, train_len: train.len() })
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &LarpConfig {
        &self.config
    }

    /// The train-derived normalisation coefficients.
    pub fn zscore(&self) -> &ZScore {
        &self.zscore
    }

    /// The fitted predictor pool.
    pub fn pool(&self) -> &PredictorPool {
        &self.pool
    }

    /// The fitted PCA projection (if reduction is enabled).
    pub fn pca(&self) -> Option<&Pca> {
        self.pca.as_ref()
    }

    /// Heap bytes of the model, split as `(pool + knn + config, pca)`.
    pub fn heap_bytes_split(&self) -> (usize, usize) {
        let own = self.pool.heap_bytes()
            + self.knn.heap_bytes()
            + self.config.pool.capacity() * std::mem::size_of::<predictors::ModelSpec>();
        let pca = self.pca.as_ref().map_or(0, Pca::heap_bytes);
        (own, pca)
    }

    /// The labelled k-NN index.
    pub fn knn(&self) -> &KnnClassifier {
        &self.knn
    }

    /// Number of raw training points the model saw.
    pub fn train_len(&self) -> usize {
        self.train_len
    }

    /// Projects a normalised window of size `m` into the classification
    /// feature space.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] if `window.len()` differs from the
    /// configured `m`.
    pub fn features_for(&self, window: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.features_for_into(window, &mut out)?;
        Ok(out)
    }

    /// [`TrainedLarp::features_for`] writing into a caller-owned buffer
    /// (cleared first) instead of allocating.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainedLarp::features_for`].
    pub fn features_for_into(&self, window: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if window.len() != self.config.window {
            return Err(LarpError::InvalidConfig(format!(
                "window length {} does not match configured m = {}",
                window.len(),
                self.config.window
            )));
        }
        match &self.pca {
            Some(p) => p.transform_into(window, out)?,
            None => {
                out.clear();
                out.extend_from_slice(window);
            }
        }
        Ok(())
    }

    /// Testing-phase selection (paper §6.2): forecasts the best predictor for
    /// the *next* value given a normalised history of at least `m` points.
    /// Only the last `m` points (the current window) influence the choice.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InsufficientData`] if `history` is shorter than `m`.
    pub fn select(&self, history: &[f64]) -> Result<PredictorId> {
        let m = self.config.window;
        if history.len() < m {
            return Err(LarpError::InsufficientData(format!(
                "selection needs a window of {m} points, got {}",
                history.len()
            )));
        }
        let window = &history[history.len() - m..];
        let features = self.features_for(window)?;
        Ok(PredictorId(self.knn.classify(&features)?))
    }

    /// Ranked testing-phase selection: every pool member ordered from most to
    /// least preferred for the next step, into caller-owned scratch; the
    /// ranking lands in [`Scratch::ranked`].
    ///
    /// The head of the ranking is k-NN's majority vote (ties broken by nearest
    /// neighbour, then lowest id — the same rule as [`TrainedLarp::select`]);
    /// pool members that received no votes follow in id order. The online
    /// serving layer ranks this way and serves the head unless it is
    /// quarantined. Allocation-free once the scratch buffers have reached
    /// their steady-state sizes (a pool-sized ranking sorts with insertion
    /// sort, which needs no buffer).
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InsufficientData`] if `history` is shorter than `m`.
    pub fn select_ranked_into(&self, history: &[f64], scratch: &mut Scratch) -> Result<()> {
        let Scratch { features, neighbors, votes, nearest, ranked, .. } = scratch;
        self.select_ranked_fields(history, features, neighbors, votes, nearest, ranked)
    }

    /// [`TrainedLarp::select_ranked_into`] over individually borrowed scratch
    /// fields, so a caller that sourced `history` from *another* scratch
    /// buffer (the normalised tail) can still rank without a whole-struct
    /// borrow conflict.
    pub(crate) fn select_ranked_fields(
        &self,
        history: &[f64],
        features: &mut Vec<f64>,
        neighbors: &mut Vec<(usize, f64)>,
        votes: &mut Vec<usize>,
        nearest: &mut Vec<f64>,
        ranked: &mut Vec<PredictorId>,
    ) -> Result<()> {
        let m = self.config.window;
        if history.len() < m {
            return Err(LarpError::InsufficientData(format!(
                "selection needs a window of {m} points, got {}",
                history.len()
            )));
        }
        let window = &history[history.len() - m..];
        self.features_for_into(window, features)?;
        self.knn.neighbors_into(features, neighbors)?;

        // (votes, nearest distance) per pool member.
        votes.clear();
        votes.resize(self.pool.len(), 0);
        nearest.clear();
        nearest.resize(self.pool.len(), f64::INFINITY);
        for &(label, dist) in neighbors.iter() {
            if label < self.pool.len() {
                votes[label] += 1;
                if dist < nearest[label] {
                    nearest[label] = dist;
                }
            }
        }
        ranked.clear();
        ranked.extend((0..self.pool.len()).map(PredictorId));
        ranked.sort_by(|a, b| {
            votes[b.0]
                .cmp(&votes[a.0])
                .then(nearest[a.0].total_cmp(&nearest[b.0]))
                .then(a.0.cmp(&b.0))
        });
        Ok(())
    }

    /// Runs one specific pool member on a *raw-scale* history: normalises with
    /// the train coefficients, predicts, and de-normalises the forecast.
    /// The serving layer uses this to forecast with a fallback predictor when
    /// the k-NN choice is quarantined.
    ///
    /// # Errors
    ///
    /// * [`LarpError::InvalidConfig`] if `id` is not a pool member;
    /// * [`LarpError::InsufficientData`] if `history` is shorter than `m`.
    pub fn predict_with(&self, id: PredictorId, history: &[f64]) -> Result<f64> {
        if id.0 >= self.pool.len() {
            return Err(LarpError::InvalidConfig(format!(
                "predictor id {} outside pool of {} models",
                id.0,
                self.pool.len()
            )));
        }
        if history.len() < self.config.window {
            return Err(LarpError::InsufficientData(format!(
                "prediction needs a window of {} points, got {}",
                self.config.window,
                history.len()
            )));
        }
        let normalized = self.zscore.apply_slice(history);
        Ok(self.zscore.invert(self.pool.predict_one(id, &normalized)))
    }

    /// [`TrainedLarp::predict_with`] on an already-*normalised* history: runs
    /// one pool member and de-normalises the forecast, without re-normalising
    /// the input. The serving layer feeds this from the normalised history it
    /// maintains incrementally, which turns the per-step cost from
    /// `O(history)` (a full `apply_slice` pass plus its allocation) into the
    /// predictor's own window-sized work.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainedLarp::predict_with`].
    pub fn predict_with_normalized(&self, id: PredictorId, normalized: &[f64]) -> Result<f64> {
        if id.0 >= self.pool.len() {
            return Err(LarpError::InvalidConfig(format!(
                "predictor id {} outside pool of {} models",
                id.0,
                self.pool.len()
            )));
        }
        if normalized.len() < self.config.window {
            return Err(LarpError::InsufficientData(format!(
                "prediction needs a window of {} points, got {}",
                self.config.window,
                normalized.len()
            )));
        }
        Ok(self.zscore.invert(self.pool.predict_one(id, normalized)))
    }

    /// Runs one testing-phase step on a *normalised* history: selects the best
    /// predictor and runs only it. Returns `(chosen model, forecast)`.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InsufficientData`] if `history` is shorter than `m`.
    pub fn predict_next(&self, history: &[f64]) -> Result<(PredictorId, f64)> {
        let id = self.select(history)?;
        Ok((id, self.pool.predict_one(id, history)))
    }

    /// Runs one step on a *raw-scale* history: normalises with the train
    /// coefficients, predicts, and de-normalises the forecast. The work runs
    /// in the thread's reused fit buffers, so the probe a refit runs on its
    /// own training tail before it installs allocates nothing once warm.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InsufficientData`] if `history` is shorter than `m`.
    pub fn predict_next_raw(&self, history: &[f64]) -> Result<(PredictorId, f64)> {
        let m = self.config.window;
        if history.len() < m {
            return Err(LarpError::InsufficientData(format!(
                "selection needs a window of {m} points, got {}",
                history.len()
            )));
        }
        with_fit_buffers(|bufs| {
            let FitBuffers { normalized, features, neighbors, .. } = bufs;
            self.zscore.apply_slice_into(history, normalized);
            self.features_for_into(&normalized[history.len() - m..], features)?;
            let id = PredictorId(self.knn.classify_into(features, neighbors)?);
            Ok((id, self.zscore.invert(self.pool.predict_one(id, normalized))))
        })
    }

    /// A fresh [`KnnSelector`] view over this model for use with
    /// [`crate::run_selector`].
    pub fn selector(&self) -> KnnSelector<'_> {
        KnnSelector::new(self)
    }
}

impl std::fmt::Debug for TrainedLarp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedLarp")
            .field("window", &self.config.window)
            .field("k", &self.config.k)
            .field("pool", &self.pool.names())
            .field("pca_dims", &self.pca.as_ref().map(|p| p.n_components()))
            .field("train_windows", &self.knn.len())
            .finish()
    }
}

/// A fitted part: `spent` refit in place when there is one, else a fresh
/// `fit`.
fn reuse<T, E>(
    spent: Option<T>,
    refit: impl FnOnce(&mut T) -> std::result::Result<(), E>,
    fit: impl FnOnce() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    match spent {
        Some(mut part) => refit(&mut part).map(|()| part),
        None => fit(),
    }
}

/// Labelling thread count: the available parallelism, capped at 8 (labelling
/// is memory-bandwidth-bound beyond that for these tiny windows).
pub(crate) fn default_threads() -> usize {
    // available_parallelism re-reads cgroup quota files on every call on
    // Linux — tens of microseconds, which dwarfed a 40-sample retrain.
    // Parallelism doesn't change under us; resolve it once.
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regime_series(n: usize) -> Vec<f64> {
        // First half: smooth ramp (LAST-friendly); second half: alternating
        // noise around a level (SW_AVG-friendly).
        (0..n)
            .map(|t| {
                if t < n / 2 {
                    t as f64 * 0.05
                } else {
                    let noise = if t % 2 == 0 { 1.0 } else { -1.0 };
                    n as f64 * 0.025 + noise
                }
            })
            .collect()
    }

    #[test]
    fn trains_on_regime_series() {
        let s = regime_series(400);
        let model = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        assert_eq!(model.pool().len(), 3);
        assert_eq!(model.pca().unwrap().n_components(), 2);
        assert_eq!(model.knn().k(), 3);
        assert_eq!(model.train_len(), 200);
    }

    #[test]
    fn select_returns_valid_pool_member() {
        let s = regime_series(400);
        let model = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        let norm = model.zscore().apply_slice(&s[200..]);
        for t in 5..norm.len() {
            let id = model.select(&norm[..t]).unwrap();
            assert!(id.0 < 3);
        }
    }

    #[test]
    fn predict_next_runs_only_chosen_model() {
        let s = regime_series(300);
        let model = TrainedLarp::train(&s[..150], &LarpConfig::default()).unwrap();
        let norm = model.zscore().apply_slice(&s[150..]);
        let (id, forecast) = model.predict_next(&norm[..20]).unwrap();
        // The forecast must equal running that model directly.
        assert_eq!(forecast, model.pool().predict_one(id, &norm[..20]));
    }

    #[test]
    fn raw_prediction_round_trips_units() {
        // A series living around 1000 with +-50 swings: raw forecasts must be
        // in that range, not near zero.
        let s: Vec<f64> = (0..300).map(|t| 1000.0 + 50.0 * ((t as f64) * 0.1).sin()).collect();
        let model = TrainedLarp::train(&s[..150], &LarpConfig::default()).unwrap();
        let (_, forecast) = model.predict_next_raw(&s[150..200]).unwrap();
        assert!((900.0..1100.0).contains(&forecast), "{forecast}");
    }

    #[test]
    fn insufficient_history_is_an_error() {
        let s = regime_series(300);
        let model = TrainedLarp::train(&s[..150], &LarpConfig::default()).unwrap();
        assert!(model.select(&[1.0, 2.0]).is_err());
        assert!(model.features_for(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn too_short_training_series_rejected() {
        // 7 points cannot yield the k = 3 windows of size m = 5.
        let s = regime_series(7);
        assert!(matches!(
            TrainedLarp::train(&s, &LarpConfig::default()),
            Err(LarpError::InsufficientData(_))
        ));
        // 8 points pass the window check but starve the AR(5) fit, which
        // needs 2·order points; the failure surfaces as a substrate error.
        let s = regime_series(8);
        assert!(TrainedLarp::train(&s, &LarpConfig::default()).is_err());
    }

    #[test]
    fn reduction_none_classifies_in_window_space() {
        let s = regime_series(300);
        let mut config = LarpConfig::default();
        config.reduction = crate::config::FeatureReduction::None;
        let model = TrainedLarp::train(&s[..150], &config).unwrap();
        assert!(model.pca().is_none());
        assert_eq!(model.knn().dim(), 5);
    }

    #[test]
    fn fraction_reduction_picks_some_dims() {
        let s = regime_series(300);
        let mut config = LarpConfig::default();
        config.reduction = crate::config::FeatureReduction::PcaFraction { min_fraction: 0.9 };
        let model = TrainedLarp::train(&s[..150], &config).unwrap();
        let dims = model.pca().unwrap().n_components();
        assert!((1..=5).contains(&dims));
    }

    #[test]
    fn ranked_selection_covers_pool_and_leads_with_select() {
        let s = regime_series(400);
        let model = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        let norm = model.zscore().apply_slice(&s[200..]);
        let mut scratch = Scratch::new();
        for t in 5..norm.len() {
            model.select_ranked_into(&norm[..t], &mut scratch).unwrap();
            let ranked = scratch.ranked();
            assert_eq!(ranked.len(), model.pool().len());
            let mut ids: Vec<usize> = ranked.iter().map(|id| id.0).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2], "ranking must be a permutation");
            assert_eq!(ranked[0], model.select(&norm[..t]).unwrap());
        }
    }

    #[test]
    fn predict_with_matches_direct_pool_run() {
        let s: Vec<f64> = (0..300).map(|t| 1000.0 + 50.0 * ((t as f64) * 0.1).sin()).collect();
        let model = TrainedLarp::train(&s[..150], &LarpConfig::default()).unwrap();
        let history = &s[150..200];
        for id in 0..3 {
            let f = model.predict_with(PredictorId(id), history).unwrap();
            let norm = model.zscore().apply_slice(history);
            let direct = model.zscore().invert(model.pool().predict_one(PredictorId(id), &norm));
            assert_eq!(f, direct);
            assert!((900.0..1100.0).contains(&f), "{f}");
        }
        assert!(model.predict_with(PredictorId(7), history).is_err());
        assert!(model.predict_with(PredictorId(0), &[1.0, 2.0]).is_err());
    }

    #[test]
    fn into_variants_match_allocating_equivalents_bit_for_bit() {
        let s = regime_series(400);
        let model = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        let norm = model.zscore().apply_slice(&s[200..]);
        let mut scratch = Scratch::new();
        for t in 5..norm.len() {
            let h = &norm[..t];
            let window = &h[t - 5..];

            let features = model.features_for(window).unwrap();
            model.features_for_into(window, &mut scratch.features).unwrap();
            assert_eq!(scratch.features, features);

            model.select_ranked_into(h, &mut scratch).unwrap();
            assert_eq!(scratch.ranked()[0], model.select(h).unwrap());
        }
        // predict_with_normalized must agree with predict_with on the same
        // normalised bytes.
        let raw = &s[200..260];
        let normalized = model.zscore().apply_slice(raw);
        for id in 0..3 {
            let a = model.predict_with(PredictorId(id), raw).unwrap();
            let b = model.predict_with_normalized(PredictorId(id), &normalized).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(model.predict_with_normalized(PredictorId(9), &normalized).is_err());
        assert!(model.predict_with_normalized(PredictorId(0), &normalized[..2]).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let s = regime_series(400);
        let a = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        let b = TrainedLarp::train(&s[..200], &LarpConfig::default()).unwrap();
        let norm = a.zscore().apply_slice(&s[200..]);
        for t in 5..norm.len() {
            assert_eq!(a.select(&norm[..t]).unwrap(), b.select(&norm[..t]).unwrap());
        }
    }

    fn wave(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0 + (i % 7) as f64 * 0.2).collect()
    }

    /// Every bit a fitted model holds.
    fn model_bits(model: &TrainedLarp) -> Vec<u64> {
        let z = model.zscore();
        let mut bits: Vec<u64> = [z.mean(), z.std()].iter().map(|v| v.to_bits()).collect();
        for state in model.pool().fitted_states() {
            bits.extend(state.iter().map(|v| v.to_bits()));
        }
        if let Some(p) = model.pca() {
            let pca = p.mean().iter().chain(p.components().as_slice()).chain(p.eigenvalues());
            bits.extend(pca.chain([p.total_variance()].iter()).map(|v| v.to_bits()));
        }
        let knn = model.knn();
        bits.extend(knn.points_flat().iter().map(|v| v.to_bits()));
        bits.extend(knn.labels().iter().map(|&l| u64::from(l)));
        bits.extend([knn.k(), knn.dim(), model.pool().len(), model.train_len()].map(|v| v as u64));
        bits
    }

    #[test]
    fn train_reusing_matches_a_fresh_fit() {
        // One model's storage passed from fit to fit across windows, pools,
        // reductions and neighbour counts: each fit equals a fresh one bit
        // for bit.
        let s = wave(400);
        let configs = [
            LarpConfig::default(),
            LarpConfig::default(),
            LarpConfig::paper(16),
            LarpConfig { reduction: FeatureReduction::None, ..LarpConfig::default() },
            LarpConfig {
                reduction: FeatureReduction::PcaFraction { min_fraction: 0.9 },
                ..LarpConfig::default()
            },
            LarpConfig::extended(5),
            LarpConfig { k: 5, ..LarpConfig::default() },
            LarpConfig::default(),
        ];
        let mut spent = TrainedLarp::train(&s[..40], &LarpConfig::default()).unwrap();
        for (i, config) in configs.into_iter().enumerate() {
            let config = Arc::new(config);
            let t = &s[i * 30..i * 30 + 40 + 10 * (i % 3)];
            let fresh = TrainedLarp::train_shared(t, &config).unwrap();
            let reused = TrainedLarp::train_reusing(t, &config, spent).unwrap();
            assert_eq!(model_bits(&reused), model_bits(&fresh), "fit {i}");
            assert_eq!(reused.heap_bytes_split(), fresh.heap_bytes_split(), "fit {i}");
            assert_eq!(reused.predict_next_raw(t).unwrap(), fresh.predict_next_raw(t).unwrap());
            spent = reused;
        }
        // A failed fit consumes the spent model and reports the error.
        assert!(
            TrainedLarp::train_reusing(&s[..8], &Arc::new(LarpConfig::default()), spent).is_err()
        );
    }

    #[test]
    fn reused_fit_buffers_do_not_leak_between_fits() {
        // Fits of different shapes on one thread share the buffers; each
        // must come out exactly as it does on a fresh thread.
        let s = wave(400);
        let fresh = |t: Vec<f64>, config: LarpConfig| {
            std::thread::spawn(move || {
                let model = TrainedLarp::train(&t, &config).unwrap();
                (model.knn().points_flat().to_vec(), model.knn().labels().to_vec())
            })
            .join()
            .unwrap()
        };
        let none = LarpConfig { reduction: FeatureReduction::None, ..LarpConfig::default() };
        for (t, config) in [
            (s[..40].to_vec(), LarpConfig::default()),
            (s[..400].to_vec(), LarpConfig::paper(16)),
            (s[100..160].to_vec(), none),
            (s[..40].to_vec(), LarpConfig::default()),
        ] {
            let model = TrainedLarp::train(&t, &config).unwrap();
            let here = (model.knn().points_flat().to_vec(), model.knn().labels().to_vec());
            assert_eq!(here, fresh(t, config));
        }
    }
}
