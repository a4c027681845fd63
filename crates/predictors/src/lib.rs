//! One-step time-series predictors and the predictor pool.
//!
//! The paper's LARPredictor integrates a *pool* of simple one-step predictors
//! (§4: LAST, AR fitted by Yule–Walker, and the sliding-window average), and its
//! "future work" section calls for richer pools. This crate provides both:
//!
//! * [`pool::PredictorPool::standard`] — the paper's exact three-model pool,
//!   with class ordering matching the paper's figures (1 = LAST, 2 = AR,
//!   3 = SW_AVG);
//! * [`pool::PredictorPool::extended`] — the three paper models plus the
//!   NWS-inspired family (mean, EWMA, sliding median, trimmed mean, adaptive
//!   windows), the tendency model of Yang et al. and the polynomial-fit model
//!   of Zhang et al.
//!
//! # Model contract
//!
//! Every model implements [`Predictor`]: a *pure function* from a history
//! window (the most recent values, oldest first) to a forecast of the next
//! value. Statelessness is deliberate — the LARPredictor feeds each model the
//! same normalised window of size `m`, and the NWS baselines replay models over
//! arbitrary prefixes; a pure `predict(&[f64]) -> f64` serves both without
//! hidden coupling. Models that need fitting (AR/ARI) are fitted once at
//! construction from training data, exactly as the paper's training phase does.
//!
//! ```
//! use predictors::{Predictor, models::Last};
//!
//! let last = Last;
//! assert_eq!(last.predict(&[1.0, 2.0, 5.0]), 5.0);
//! ```
#![warn(missing_docs)]

pub mod models;
pub mod pool;
pub mod spec;

pub use pool::{PredictorId, PredictorPool};
pub use spec::ModelSpec;

/// Errors from model fitting and pool construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictorError {
    /// The training series is too short to fit the model.
    InsufficientData {
        /// Model being fitted.
        model: &'static str,
        /// Points required.
        needed: usize,
        /// Points available.
        got: usize,
    },
    /// Invalid model parameter (zero order/window, bad smoothing factor, ...).
    InvalidParameter(String),
    /// Underlying numerical failure (propagated from `linalg`/`timeseries`).
    Numerical(String),
}

impl std::fmt::Display for PredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorError::InsufficientData { model, needed, got } => {
                write!(f, "{model}: needs at least {needed} training points, got {got}")
            }
            PredictorError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            PredictorError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for PredictorError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, PredictorError>;

/// A one-step-ahead time-series predictor.
///
/// `history` is the most recent observations, **oldest first** — so
/// `history[history.len() - 1]` is the current value `x_t`, and the return
/// value is the forecast `x̂_{t+1}`.
pub trait Predictor: Send + Sync {
    /// Short stable name used in reports and figures (e.g. `"AR"`).
    fn name(&self) -> &'static str;

    /// Minimum number of history points `predict` needs.
    fn min_history(&self) -> usize;

    /// Forecasts the next value from `history`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `history.len() < self.min_history()`;
    /// callers go through [`PredictorPool`], which checks once per step.
    fn predict(&self, history: &[f64]) -> f64;

    /// Forecasts every frame of `series` at once:
    /// `out[i] = self.predict(&series[i..i + window])` for `i` in
    /// `0..out.len()`. The training phase's labelling pass runs each pool
    /// member this way, so one dynamic call covers a batch of windows and
    /// `predict` is called statically (and inlined) inside it. Overrides must
    /// keep `predict`'s arithmetic exactly.
    ///
    /// # Panics
    ///
    /// Panics if `series` is shorter than `out.len() - 1 + window`, and
    /// wherever `predict` would on a `window`-long history.
    fn predict_frames(&self, series: &[f64], window: usize, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.predict(&series[i..i + window]);
        }
    }

    /// Refits the train-derived state on `train` in place, reusing the
    /// model's own storage, so a warm refit allocates nothing. `work` is fit
    /// scratch the caller keeps across refits. The same fit as the model's
    /// constructor, bit for bit. The non-parametric models have nothing to
    /// refit.
    ///
    /// # Errors
    ///
    /// The constructor's fitting errors. After an error the model must be
    /// refit before it predicts again.
    fn refit(&mut self, train: &[f64], work: &mut Vec<f64>) -> Result<()> {
        let _ = (train, work);
        Ok(())
    }

    /// Train-derived state as a flat `f64` vector, for serialization.
    ///
    /// Empty for the non-parametric models (their behaviour is fully
    /// described by their [`ModelSpec`]); the fitted models (AR/ARI) encode
    /// their coefficients here. [`ModelSpec::rebuild`] is the inverse: spec +
    /// fitted state reproduces the model without retraining.
    fn fitted_state(&self) -> Vec<f64> {
        Vec::new()
    }
}
