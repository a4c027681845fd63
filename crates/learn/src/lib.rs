//! Learning substrate: PCA, k-nearest-neighbour classification and the
//! paper's train/test split.
//!
//! This crate implements §5 of the paper:
//!
//! * [`Pca`] — principal component analysis over the Jacobi eigensolver of the
//!   `linalg` crate, used to project prediction windows from dimension `m`
//!   down to `n` (the paper fixes `n = 2`);
//! * [`KnnClassifier`] — majority-vote k-NN with Euclidean distance over
//!   z-scored features (the paper fixes `k = 3`), searched by brute force;
//! * [`split`] — the paper's "randomly chosen timestamp" contiguous 50/50
//!   train/test split and its repetition;
//! * [`vote`] — the majority vote with a nearest-neighbour tie-break.
//!
//! The paper's forecasting accuracy (the share of steps where the selected
//! predictor was the best one) is `larp::eval::forecasting_accuracy`.
#![warn(missing_docs)]

pub mod knn;
pub mod pca;
pub mod split;
pub mod vote;

pub use knn::KnnClassifier;
pub use pca::Pca;

/// Errors produced by the learning substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// Training data is empty or too small for the requested operation.
    InsufficientData(String),
    /// Invalid hyper-parameter (k = 0, n = 0, ...).
    InvalidParameter(String),
    /// Shape mismatch between training and query data.
    ShapeMismatch(String),
    /// Propagated numerical failure from `linalg`.
    Numerical(String),
}

impl std::fmt::Display for LearnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LearnError::InsufficientData(m) => write!(f, "insufficient data: {m}"),
            LearnError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            LearnError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            LearnError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for LearnError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LearnError>;
