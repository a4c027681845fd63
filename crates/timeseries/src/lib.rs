//! Time-series substrate for the LARPredictor workspace.
//!
//! This crate owns the data model that every other crate consumes:
//!
//! * [`Series`] — an equally-spaced sequence of observations with timing
//!   metadata (matches the paper's definition of a time series: "an ordered
//!   sequence of values of a variable at equally spaced time intervals");
//! * [`normalize::ZScore`] — zero-mean/unit-variance normalisation with
//!   *train-derived* coefficients, exactly as §6.2 prescribes ("the testing data
//!   are normalized using the normalization coefficient derived from the
//!   training phase");
//! * [`window`] — framing a series into overlapping prediction windows of size
//!   `m` (the paper's Figure 3 dataflow step);
//! * [`stats`] — descriptive statistics incl. autocovariance/autocorrelation
//!   (inputs to Yule–Walker AR fitting);
//! * [`metrics`] — MSE and friends, the paper's §4 evaluation measure;
//! * [`diff`] — differencing/integration for the ARI extension models.
#![warn(missing_docs)]

pub mod diff;
pub mod metrics;
pub mod normalize;
pub mod series;
pub mod stats;
pub mod window;

pub use normalize::ZScore;
pub use series::Series;
pub use window::Frames;

/// Errors produced by time-series operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TsError {
    /// The series (or window) is too short for the requested operation.
    TooShort {
        /// What was being computed.
        what: &'static str,
        /// Points required.
        needed: usize,
        /// Points available.
        got: usize,
    },
    /// An invalid parameter (zero window, negative interval, ...).
    InvalidArgument(String),
    /// The data is degenerate for the operation (e.g. zero variance).
    Degenerate(String),
}

impl std::fmt::Display for TsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsError::TooShort { what, needed, got } => {
                write!(f, "{what}: needs at least {needed} points, got {got}")
            }
            TsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            TsError::Degenerate(m) => write!(f, "degenerate data: {m}"),
        }
    }
}

impl std::error::Error for TsError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, TsError>;
