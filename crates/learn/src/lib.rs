//! Learning substrate: PCA, k-nearest-neighbour classification, and the
//! supporting machinery (splits, classification metrics).
//!
//! This crate implements §5 of the paper:
//!
//! * [`Pca`] — principal component analysis over the Jacobi eigensolver of the
//!   `linalg` crate, used to project prediction windows from dimension `m`
//!   down to `n` (the paper fixes `n = 2`);
//! * [`KnnClassifier`] — majority-vote k-NN with Euclidean distance over
//!   z-scored features (the paper fixes `k = 3`), with interchangeable
//!   brute-force and kd-tree back-ends;
//! * [`split`] — the paper's "randomly chosen timestamp" contiguous 50/50
//!   train/test split plus k-fold utilities;
//! * [`eval`] — confusion matrices and accuracy (the best-predictor
//!   *forecasting accuracy* the paper reports).
#![warn(missing_docs)]

pub mod eval;
pub mod kdtree;
pub mod knn;
pub mod pca;
pub mod split;
pub mod vote;

pub use kdtree::KdTree;
pub use knn::{KnnBackend, KnnClassifier};
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
