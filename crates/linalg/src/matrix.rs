//! A row-major dense `f64` matrix.

use crate::{LinalgError, Result};

/// Dense, row-major matrix of `f64`.
///
/// Element `(i, j)` lives at `data[i * cols + j]`. Indexing via `m[(i, j)]` is
/// bounds-checked by the underlying slice access.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero — zero-sized matrices are always a bug
    /// in this workspace.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "Matrix::zeros: dimensions must be positive");
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidArgument(format!(
                "matrix dimensions must be positive, got {rows}x{cols}"
            )));
        }
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }

    /// Replaces shape and contents with `rows × cols` row-major `data`,
    /// reusing the storage: no allocation when it holds exactly
    /// `data.len()` values. Storage left over from a larger matrix is given
    /// back.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Matrix::from_vec`]; the matrix is unchanged.
    pub fn assign(&mut self, rows: usize, cols: usize, data: &[f64]) -> Result<()> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "cannot assign {} values as {rows}x{cols}",
                data.len()
            )));
        }
        self.data.clear();
        self.data.reserve_exact(data.len());
        self.data.extend_from_slice(data);
        self.data.shrink_to(data.len());
        (self.rows, self.cols) = (rows, cols);
        Ok(())
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `rows` is empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let n = rows.len();
        if n == 0 {
            return Err(LinalgError::InvalidArgument("from_rows: no rows".into()));
        }
        let m = rows[0].len();
        if m == 0 {
            return Err(LinalgError::InvalidArgument("from_rows: empty rows".into()));
        }
        let mut data = Vec::with_capacity(n * m);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != m {
                return Err(LinalgError::InvalidArgument(format!(
                    "from_rows: row {i} has length {} but row 0 has {m}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Self::from_vec(n, m, data)
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless `self.cols == rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order: streams over rhs rows, friendly to the row-major layout.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless `v.len() == self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "matvec: {}x{} * vec[{}]",
                self.rows,
                self.cols,
                v.len()
            )));
        }
        Ok(self.iter_rows().map(|row| crate::kernels::dot(row, v)).collect())
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(&self, rhs: &Matrix, op: &str, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "{op}: {}x{} vs {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        let data = self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiplies every element by `s`, in place.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Frobenius norm: `sqrt(sum of squared elements)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute difference against `rhs`, or `None` on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return None;
        }
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(None, |acc, d| Some(acc.map_or(d, |m: f64| m.max(d))))
    }

    /// Whether the matrix is symmetric to within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Per-column means of the matrix (length `cols`).
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        crate::fixed::column_means_into(&self.data, self.cols, &mut means);
        means
    }

    /// Sample covariance matrix of the rows (observations), `cols × cols`.
    ///
    /// Uses the unbiased `1/(n-1)` normalisation; for a single observation the
    /// covariance is defined as the zero matrix.
    pub fn covariance(&self) -> Matrix {
        let mut cov = Matrix::zeros(self.cols, self.cols);
        crate::fixed::covariance_into(&self.data, self.cols, &mut cov.data);
        cov
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for row in self.iter_rows() {
            for (j, x) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{x:>12.6}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_reuses_storage_and_checks_shape() {
        let mut m = Matrix::zeros(2, 3);
        let ptr = m.as_slice().as_ptr();
        m.assign(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m, Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap());
        assert_eq!(m.as_slice().as_ptr(), ptr, "same-size assign moved the storage");
        assert!(m.assign(2, 2, &[1.0; 3]).is_err());
        assert!(m.assign(0, 2, &[]).is_err());
        assert_eq!((m.rows(), m.cols()), (3, 2), "a rejected assign changes nothing");
    }

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn zeros_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(0, 2, vec![]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument(_)));
    }

    #[test]
    fn identity_matvec_is_noop() {
        let id = Matrix::identity(3);
        let v = vec![1.0, -2.0, 3.5];
        assert_eq!(id.matvec(&v).unwrap(), v);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::ShapeMismatch(_))));
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.0]]).unwrap();
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-15);
    }

    #[test]
    fn scale_and_frobenius() {
        let mut m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!(approx(m.frobenius_norm(), 5.0));
        m.scale(2.0);
        assert!(approx(m.frobenius_norm(), 10.0));
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 3.0]]).unwrap();
        assert!(!a.is_symmetric(1e-9));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn column_means_simple() {
        let m = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0]]).unwrap();
        assert_eq!(m.column_means(), vec![2.0, 15.0]);
    }

    #[test]
    fn covariance_of_known_data() {
        // Perfectly correlated columns: cov = var on the diagonal and off it.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]).unwrap();
        let c = m.covariance();
        assert!(approx(c[(0, 0)], 1.0));
        assert!(approx(c[(1, 1)], 4.0));
        assert!(approx(c[(0, 1)], 2.0));
        assert!(approx(c[(1, 0)], 2.0));
    }

    #[test]
    fn covariance_single_row_is_zero() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(m.covariance().frobenius_norm(), 0.0);
    }

    #[test]
    fn covariance_is_symmetric() {
        let m = Matrix::from_rows(&[
            vec![1.0, 5.0, -2.0],
            vec![0.0, 2.0, 1.0],
            vec![4.0, -1.0, 3.0],
            vec![2.0, 2.0, 2.0],
        ])
        .unwrap();
        assert!(m.covariance().is_symmetric(1e-12));
    }

    #[test]
    fn row_col_accessors() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn display_renders_rows() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert_eq!(s.lines().count(), 2);
    }
}
