//! LARPredictor — the Learning-Aided Adaptive Resource Predictor.
//!
//! This crate is the paper's contribution (Zhang & Figueiredo, IPPS 2007,
//! §5–§6): instead of running a pool of predictors in parallel forever and
//! selecting by cumulative error (the Network Weather Service approach), the
//! LARPredictor *learns* the mapping from workload shape to best predictor:
//!
//! 1. **Training phase** ([`TrainedLarp::train`]): normalise the training
//!    series (z-score), frame it into windows of size `m`, run *all* predictors
//!    on every window, and label each window with the predictor that had the
//!    smallest absolute one-step error. Reduce windows to `n` dimensions with
//!    PCA and index the labelled points with a k-NN classifier.
//! 2. **Testing phase** ([`TrainedLarp::select`] / [`run_selector`]): for each
//!    new window, project it through the same normaliser + PCA, ask the k-NN
//!    classifier which predictor will be best, and run **only that predictor**.
//!
//! The crate also implements every baseline the paper compares against, behind
//! the common [`Selector`] trait:
//!
//! * [`selector::NwsCumMse`] — NWS's run-everything, pick-lowest-cumulative-MSE
//!   forecaster selection;
//! * [`selector::WindowedCumMse`] — the fixed-window variant (paper Fig. 6,
//!   window 2);
//! * [`selector::Static`] — any single predictor run alone;
//! * the **P-LAR oracle** (perfect selector) computed inside
//!   [`eval::observed_best`].
//!
//! [`eval::TraceReport`] bundles the paper's whole §7 protocol: a random
//! contiguous 50/50 split, ten repetitions, and per-selector normalized MSE +
//! best-predictor forecasting accuracy.
//!
//! # Quickstart
//!
//! ```
//! use larp::{LarpConfig, TrainedLarp};
//!
//! // A regime-switching series: smooth ramp, then noisy plateau.
//! let series: Vec<f64> = (0..300)
//!     .map(|t| if t < 150 { t as f64 * 0.1 } else { 15.0 + ((t * 37) % 11) as f64 * 0.3 })
//!     .collect();
//! let (train, test) = series.split_at(150);
//!
//! let config = LarpConfig::default();
//! let model = TrainedLarp::train(train, &config).unwrap();
//! let run = larp::run_selector(&mut model.selector(), &model, test).unwrap();
//! assert!(run.mse.is_finite());
//! ```
#![warn(missing_docs)]

pub mod config;
pub mod diagnose;
pub mod eval;
pub mod ingest;
pub mod labeler;
pub mod model;
pub mod observe;
pub mod online;
pub mod parallel;
pub mod qa;
mod ring;
pub mod selector;
pub mod snapshot;

pub use config::{LarpConfig, ResilienceConfig};
pub use diagnose::{assess, Applicability, Recommendation};
pub use eval::{run_selector, SelectorRun, TraceReport};
pub use ingest::{GapFill, GuardedLarp, IngestConfig, IngestStats, OutlierPolicy, Sanitizer};
pub use model::{Scratch, TrainedLarp};
pub use observe::LarpObs;
pub use online::{HealthState, OnlineCounters, OnlineLarp, OnlineStep, StreamMemReport};
pub use qa::QualityAssuror;
pub use selector::Selector;

/// Errors from LARPredictor training and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum LarpError {
    /// The series is too short for the configured window/split.
    InsufficientData(String),
    /// An invalid configuration value.
    InvalidConfig(String),
    /// Propagated failure from a substrate crate.
    Substrate(String),
    /// A malformed or incompatible serialized snapshot.
    Snapshot(String),
}

impl std::fmt::Display for LarpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LarpError::InsufficientData(m) => write!(f, "insufficient data: {m}"),
            LarpError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            LarpError::Substrate(m) => write!(f, "substrate failure: {m}"),
            LarpError::Snapshot(m) => write!(f, "snapshot failure: {m}"),
        }
    }
}

impl std::error::Error for LarpError {}

impl From<predictors::PredictorError> for LarpError {
    fn from(e: predictors::PredictorError) -> Self {
        LarpError::Substrate(e.to_string())
    }
}

impl From<learn::LearnError> for LarpError {
    fn from(e: learn::LearnError) -> Self {
        LarpError::Substrate(e.to_string())
    }
}

impl From<timeseries::TsError> for LarpError {
    fn from(e: timeseries::TsError) -> Self {
        LarpError::Substrate(e.to_string())
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LarpError>;
