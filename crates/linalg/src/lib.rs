//! Small dense linear algebra for the LARPredictor workspace.
//!
//! The paper's pipeline needs exactly three numerical kernels, all of which are
//! implemented here from scratch (no BLAS/LAPACK):
//!
//! * **symmetric eigendecomposition** ([`sym_eigen::SymEigen`], cyclic Jacobi) —
//!   drives PCA in the `learn` crate;
//! * **Toeplitz solves** ([`toeplitz::levinson_durbin`]) — the Yule–Walker
//!   equations of AR model fitting in the `predictors` crate;
//! * **general small solves** ([`gauss::solve`] with partial pivoting and
//!   [`cholesky::Cholesky`]) — polynomial least-squares fitting and verification.
//!
//! Everything is built on a single row-major [`Matrix`] type plus free functions
//! over `&[f64]` slices ([`vecops`]). The slice primitives on the serving and
//! training hot paths (dot, squared distance, sums/moments, z-normalisation,
//! PCA projection) live in [`kernels`], which selects between a portable
//! scalar implementation and a runtime-detected x86_64 AVX2 one —
//! bit-identical by construction, see the module docs. The matrix
//! factorisations stay scalar: they operate on tiny `m × m` systems
//! (`m ≤ 16`). The ones an online refit runs — column means, covariance and
//! the Jacobi eigensolver — live in [`fixed`], monomorphised over the
//! dimension so each runs on stack arrays with constant trip counts.
#![warn(missing_docs)]

/// Calls `$f::<D>(args)` with `D = $d` for `d` in `1..=16`
/// ([`fixed::MAX_FIXED_DIM`]) and with the runtime instance `D = 0` above.
macro_rules! with_dim {
    ($d:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $d {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            13 => $f::<13>($($arg),*),
            14 => $f::<14>($($arg),*),
            15 => $f::<15>($($arg),*),
            16 => $f::<16>($($arg),*),
            _ => $f::<0>($($arg),*),
        }
    };
}

pub mod cholesky;
pub mod fixed;
pub mod gauss;
pub mod kernels;
pub mod matrix;
pub mod sym_eigen;
pub mod toeplitz;
pub mod vecops;

pub use cholesky::Cholesky;
pub use matrix::Matrix;
pub use sym_eigen::SymEigen;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible; the message names the operation and shapes.
    ShapeMismatch(String),
    /// The matrix is singular (or numerically so) for the requested operation.
    Singular(String),
    /// The matrix is not positive definite (Cholesky).
    NotPositiveDefinite(String),
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence(String),
    /// Invalid argument (empty input, zero dimension, ...).
    InvalidArgument(String),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            LinalgError::Singular(m) => write!(f, "singular matrix: {m}"),
            LinalgError::NotPositiveDefinite(m) => write!(f, "not positive definite: {m}"),
            LinalgError::NoConvergence(m) => write!(f, "no convergence: {m}"),
            LinalgError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
