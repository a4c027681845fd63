//! Symmetric eigendecomposition via the cyclic Jacobi rotation method (the
//! solver itself is [`crate::fixed::sym_eigen_into`]).
//!
//! Jacobi is the right tool here: the PCA covariance matrices in this workspace
//! are at most 16 × 16 (the prediction window size), and Jacobi is simple,
//! unconditionally stable, and computes eigen*vectors* to high relative accuracy —
//! which matters because the k-NN feature space is built from them.

use crate::{LinalgError, Matrix, Result};

/// Result of a symmetric eigendecomposition: `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted in **descending** order (PCA convention) and
/// `eigenvectors` stores the corresponding unit eigenvectors as **columns**.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, descending.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors, one per column, ordered to match `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidArgument`] if `a` is not square or not symmetric
    ///   (tolerance `1e-8 * max|a|`);
    /// * [`LinalgError::NoConvergence`] if the off-diagonal norm fails to reach
    ///   machine-level tolerance within 100 sweeps (does not happen for any
    ///   well-formed symmetric input of the sizes used here).
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::InvalidArgument(format!(
                "eigendecomposition requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let mut eigenvalues = vec![0.0; n];
        let mut rows = vec![0.0; n * n];
        crate::fixed::sym_eigen_into(a.as_slice(), n, &mut eigenvalues, &mut rows)?;
        Ok(Self { eigenvalues, eigenvectors: Matrix::from_vec(n, n, rows)?.transpose() })
    }

    /// The `k`-th unit eigenvector (column `k`), copied out.
    pub fn eigenvector(&self, k: usize) -> Vec<f64> {
        self.eigenvectors.col(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, e: &SymEigen) -> f64 {
        // max_k || A v_k - λ_k v_k ||
        let n = a.rows();
        let mut worst = 0.0f64;
        for k in 0..n {
            let v = e.eigenvector(k);
            let av = a.matvec(&v).unwrap();
            let r: f64 = av
                .iter()
                .zip(&v)
                .map(|(x, y)| (x - e.eigenvalues[k] * y).powi(2))
                .sum::<f64>()
                .sqrt();
            worst = worst.max(r);
        }
        worst
    }

    #[test]
    fn diagonal_matrix() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let e = SymEigen::decompose(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Leading eigenvector is (1, 1)/sqrt(2) up to sign.
        let v = e.eigenvector(0);
        assert!((v[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((v[0] - v[1]).abs() < 1e-12);
    }

    #[test]
    fn eigen_identity_av_equals_lambda_v() {
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5, 0.0],
            vec![1.0, 3.0, -1.0, 0.2],
            vec![0.5, -1.0, 2.0, 0.7],
            vec![0.0, 0.2, 0.7, 1.0],
        ])
        .unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        assert!(residual(&a, &e) < 1e-10, "residual {}", residual(&a, &e));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(&[vec![2.0, -1.0, 0.0], vec![-1.0, 2.0, -1.0], vec![0.0, -1.0, 2.0]])
                .unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-12);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[vec![5.0, 2.0, 1.0], vec![2.0, 4.0, 0.0], vec![1.0, 0.0, 3.0]])
            .unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        let trace = a[(0, 0)] + a[(1, 1)] + a[(2, 2)];
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn rejects_nonsquare_and_asymmetric() {
        assert!(SymEigen::decompose(&Matrix::zeros(2, 3)).is_err());
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(SymEigen::decompose(&a).is_err());
    }

    #[test]
    fn handles_negative_eigenvalues() {
        // [[0, 1], [1, 0]] has eigenvalues +1 and -1.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let e = SymEigen::decompose(&a).unwrap();
        assert!(e.eigenvalues.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn larger_random_symmetric_matrix() {
        // Deterministic pseudo-random symmetric 12x12 built from a simple hash.
        let n = 12;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let h = ((i * 31 + j * 17 + 7) % 23) as f64 / 23.0 - 0.5;
                a[(i, j)] = h;
                a[(j, i)] = h;
            }
        }
        let e = SymEigen::decompose(&a).unwrap();
        assert!(residual(&a, &e) < 1e-9);
        // Sorted descending.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }
}
