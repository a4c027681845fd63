//! Principal component analysis (paper §5.2).
//!
//! PCA here is a fitted linear map: the mean vector `μ` and the top-`n`
//! eigenvectors `V_q` of the training covariance (paper Eq. 7). Fitting uses
//! the Jacobi eigensolver — exact for the tiny `m × m` covariances produced by
//! prediction windows (`m ≤ 16` in all the paper's experiments).

use linalg::Matrix;

use crate::{LearnError, Result};

/// A fitted PCA projection.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `n × d` projection matrix: rows are the leading unit eigenvectors.
    components: Matrix,
    eigenvalues: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits PCA on `data` (rows = observations) keeping `n` components.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `n == 0` or `n > d`;
    /// * [`LearnError::InsufficientData`] if `data` has fewer than 2 rows;
    /// * [`LearnError::Numerical`] if the eigensolver fails.
    pub fn fit(data: &Matrix, n: usize) -> Result<Self> {
        Self::fit_rows(data.as_slice(), data.cols(), n)
    }

    /// [`Pca::fit`] over a row-major slice of `d`-wide observations — the
    /// refit path's form, which keeps its window matrix in a reused buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::fit`], plus [`LearnError::ShapeMismatch`]
    /// if `rows.len()` is not a multiple of `d`.
    pub fn fit_rows(rows: &[f64], d: usize, n: usize) -> Result<Self> {
        check_dims(d, n)?;
        Self::fit_with(rows, d, |_| n)
    }

    /// [`Pca::fit_rows`] into this projection's storage: a refit to the
    /// same shape allocates nothing. Same bits as a fresh fit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::fit_rows`]. After an error the projection
    /// must be refit before it is used again.
    pub fn refit_rows(&mut self, rows: &[f64], d: usize, n: usize) -> Result<()> {
        check_dims(d, n)?;
        self.refit_with(rows, d, |_| n)
    }

    /// Fits PCA on a row-major slice of `d`-wide observations keeping the
    /// smallest number of components whose cumulative explained variance
    /// reaches `min_fraction` (the paper's "predefined minimal fraction
    /// variance" criterion), with at least one component.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `min_fraction` is outside `(0, 1]`;
    /// * same data conditions as [`Pca::fit_rows`].
    pub fn fit_fraction_rows(rows: &[f64], d: usize, min_fraction: f64) -> Result<Self> {
        check_fraction(min_fraction)?;
        Self::fit_with(rows, d, |eigenvalues| components_for(eigenvalues, min_fraction))
    }

    /// [`Pca::fit_fraction_rows`] into this projection's storage, as
    /// [`Pca::refit_rows`] is to [`Pca::fit_rows`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pca::fit_fraction_rows`]. After an error the
    /// projection must be refit before it is used again.
    pub fn refit_fraction_rows(&mut self, rows: &[f64], d: usize, min_fraction: f64) -> Result<()> {
        check_fraction(min_fraction)?;
        self.refit_with(rows, d, |eigenvalues| components_for(eigenvalues, min_fraction))
    }

    /// A fresh projection: [`Pca::refit_with`] into new storage.
    fn fit_with(rows: &[f64], d: usize, keep: impl FnOnce(&[f64]) -> usize) -> Result<Self> {
        let mut pca = Self {
            mean: Vec::new(),
            // A placeholder the fit replaces; a matrix has at least one cell.
            components: Matrix::zeros(1, 1),
            eigenvalues: Vec::new(),
            total_variance: 0.0,
        };
        pca.refit_with(rows, d, keep)?;
        Ok(pca)
    }

    /// One decomposition into this projection's storage, keeping the leading
    /// `keep(clamped eigenvalues)` components. Truncating a full
    /// decomposition gives the same bits as decomposing again for fewer
    /// components: the eigensolver does not depend on how many vectors the
    /// caller keeps.
    fn refit_with(
        &mut self,
        rows: &[f64],
        d: usize,
        keep: impl FnOnce(&[f64]) -> usize,
    ) -> Result<()> {
        if d == 0 || !rows.len().is_multiple_of(d) {
            return Err(LearnError::ShapeMismatch(format!(
                "{} values are not rows of dim {d}",
                rows.len()
            )));
        }
        if rows.len() / d < 2 {
            return Err(LearnError::InsufficientData(format!(
                "PCA needs at least 2 observations, got {}",
                rows.len() / d
            )));
        }
        const MAX: usize = linalg::fixed::MAX_FIXED_DIM;
        // All d eigenpairs on the stack (heap above the fixed sizes); only
        // the kept ones are copied into the model.
        let (mut values_inline, mut vectors_inline) = ([0.0; MAX], [0.0; MAX * MAX]);
        let (mut values_heap, mut vectors_heap) = (Vec::new(), Vec::new());
        let (values, vectors): (&mut [f64], &mut [f64]) = if d <= MAX {
            (&mut values_inline[..d], &mut vectors_inline[..d * d])
        } else {
            values_heap.resize(d, 0.0);
            vectors_heap.resize(d * d, 0.0);
            (&mut values_heap, &mut vectors_heap)
        };
        // Exact sizes, as a fresh fit holds: a basis refit from a wider one
        // gives back the excess.
        self.mean.clear();
        self.mean.reserve_exact(d);
        self.mean.resize(d, 0.0);
        self.mean.shrink_to(d);
        linalg::fixed::principal_axes(rows, d, &mut self.mean, values, vectors)
            .map_err(|e| LearnError::Numerical(e.to_string()))?;
        // Covariance eigenvalues are >= 0 up to rounding; clamp tiny negatives.
        for l in values.iter_mut() {
            *l = l.max(0.0);
        }
        self.total_variance = values.iter().sum();
        let n = keep(values);
        self.components.assign(n, d, &vectors[..n * d]).expect("n >= 1 rows of dim d");
        self.eigenvalues.clear();
        self.eigenvalues.reserve_exact(n);
        self.eigenvalues.extend_from_slice(&values[..n]);
        self.eigenvalues.shrink_to(n);
        Ok(())
    }

    /// Reconstructs a fitted projection from its parts (the accessors are the
    /// inverse), for serialized-model restore without refitting.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] for an empty projection or a
    ///   non-finite `total_variance`;
    /// * [`LearnError::ShapeMismatch`] if `mean`/`eigenvalues` lengths do not
    ///   match the projection matrix.
    pub fn from_parts(
        mean: Vec<f64>,
        components: Matrix,
        eigenvalues: Vec<f64>,
        total_variance: f64,
    ) -> Result<Self> {
        if components.rows() == 0 || components.cols() == 0 {
            return Err(LearnError::InvalidParameter(
                "PCA restore needs a non-empty projection matrix".into(),
            ));
        }
        if !total_variance.is_finite() {
            return Err(LearnError::InvalidParameter(format!(
                "PCA total variance must be finite, got {total_variance}"
            )));
        }
        if mean.len() != components.cols() {
            return Err(LearnError::ShapeMismatch(format!(
                "mean dim {} vs projection input dim {}",
                mean.len(),
                components.cols()
            )));
        }
        if eigenvalues.len() != components.rows() {
            return Err(LearnError::ShapeMismatch(format!(
                "{} eigenvalues vs {} components",
                eigenvalues.len(),
                components.rows()
            )));
        }
        Ok(Self { mean, components, eigenvalues, total_variance })
    }

    /// The training mean vector `μ`.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The `n × d` projection matrix (rows are unit eigenvectors).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Total training variance (sum of all covariance eigenvalues).
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of retained components `n`.
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Input dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.components.cols()
    }

    /// Eigenvalues of the retained components (descending).
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Heap bytes held by the fitted projection (mean + components +
    /// eigenvalues), for per-stream memory accounting.
    pub fn heap_bytes(&self) -> usize {
        (self.mean.capacity()
            + self.components.rows() * self.components.cols()
            + self.eigenvalues.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Projects one observation into the component space.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `x.len() != input_dim()`.
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(self.n_components());
        self.transform_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Pca::transform`] into a caller-owned buffer (cleared first), for
    /// allocation-free repeated projection. Bit-identical to `transform`:
    /// each output is the same projection kernel applied to the same
    /// component row, and the kernel itself is bit-identical across its
    /// scalar/AVX2 dispatches.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `x.len() != input_dim()`.
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.input_dim() {
            return Err(LearnError::ShapeMismatch(format!(
                "PCA::transform: expected dim {}, got {}",
                self.input_dim(),
                x.len()
            )));
        }
        out.clear();
        for c in 0..self.n_components() {
            out.push(linalg::kernels::project_dot(self.components.row(c), x, &self.mean));
        }
        Ok(())
    }

    /// Projects every row of the row-major `rows` (`input_dim()` columns)
    /// into `out` (cleared first; `n_components()` values per row) with one
    /// batched kernel dispatch. Bit-identical to [`Pca::transform`] per row.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `rows.len()` is not a
    /// multiple of `input_dim()`.
    pub fn transform_rows_into(&self, rows: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let d = self.input_dim();
        if !rows.len().is_multiple_of(d) {
            return Err(LearnError::ShapeMismatch(format!(
                "PCA::transform_rows_into: {} values are not rows of dim {d}",
                rows.len()
            )));
        }
        out.clear();
        out.resize(rows.len() / d * self.n_components(), 0.0);
        linalg::kernels::project_rows(rows, &self.mean, self.components.as_slice(), out);
        Ok(())
    }
}

fn check_dims(d: usize, n: usize) -> Result<()> {
    if n == 0 || n > d {
        return Err(LearnError::InvalidParameter(format!(
            "PCA dimension must be in 1..={d}, got {n}"
        )));
    }
    Ok(())
}

fn check_fraction(min_fraction: f64) -> Result<()> {
    if !(min_fraction.is_finite() && 0.0 < min_fraction && min_fraction <= 1.0) {
        return Err(LearnError::InvalidParameter(format!(
            "variance fraction must be in (0, 1], got {min_fraction}"
        )));
    }
    Ok(())
}

/// The smallest number of leading components whose cumulative share of the
/// variance reaches `min_fraction`, at least one.
fn components_for(eigenvalues: &[f64], min_fraction: f64) -> usize {
    let total: f64 = eigenvalues.iter().sum();
    if total <= 0.0 {
        // Constant data: one component is as good as any.
        return 1;
    }
    let mut acc = 0.0;
    for (i, &l) in eigenvalues.iter().enumerate() {
        acc += l;
        if acc / total >= min_fraction {
            return i + 1;
        }
    }
    eigenvalues.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refit_matches_a_fresh_fit_bit_for_bit() {
        // One projection's storage refit across shapes and both criteria.
        let rows = |n: usize, d: usize, phase: f64| -> Vec<f64> {
            (0..n * d).map(|i| (i as f64 * 0.37 + phase).sin() * (1 + i % d) as f64).collect()
        };
        let bits = |p: &Pca| -> Vec<u64> {
            p.mean()
                .iter()
                .chain(p.components().as_slice())
                .chain(p.eigenvalues())
                .chain([p.total_variance()].iter())
                .map(|v| v.to_bits())
                .collect()
        };
        let mut pca = Pca::fit_rows(&rows(35, 5, 0.0), 5, 2).unwrap();
        for (n, d, phase, dims) in
            [(35, 5, 1.0, 2), (35, 5, 2.0, 2), (60, 16, 0.5, 3), (20, 3, 0.2, 1)]
        {
            let data = rows(n, d, phase);
            pca.refit_rows(&data, d, dims).unwrap();
            assert_eq!(bits(&pca), bits(&Pca::fit_rows(&data, d, dims).unwrap()));
            pca.refit_fraction_rows(&data, d, 0.9).unwrap();
            assert_eq!(bits(&pca), bits(&Pca::fit_fraction_rows(&data, d, 0.9).unwrap()));
        }
        assert!(pca.refit_rows(&rows(35, 5, 0.0), 5, 6).is_err());
    }

    /// Data stretched along the (1, 1) diagonal with slight noise off-axis.
    fn diagonal_data() -> Matrix {
        let mut rows = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 5.0 - 5.0;
            let off = if i % 2 == 0 { 0.1 } else { -0.1 };
            rows.push(vec![t + off, t - off]);
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn leading_component_finds_diagonal() {
        let pca = Pca::fit(&diagonal_data(), 1).unwrap();
        let c = pca.components.row(0);
        // Unit vector along (1, 1)/sqrt(2) up to sign — a small tilt remains
        // because the alternating off-axis noise correlates weakly with the
        // trend in this finite sample.
        assert!((c[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-2);
        assert!((c[0] - c[1]).abs() < 1e-2);
    }

    #[test]
    fn variance_concentrates_on_first_component() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        let share = pca.eigenvalues()[0] / pca.total_variance();
        assert!(share > 0.99, "{share}");
        assert!((pca.eigenvalues().iter().sum::<f64>() - pca.total_variance()).abs() < 1e-9);
    }

    #[test]
    fn transform_centers_data() {
        let data = diagonal_data();
        let pca = Pca::fit(&data, 2).unwrap();
        let mut projected = Vec::new();
        pca.transform_rows_into(data.as_slice(), &mut projected).unwrap();
        for c in 0..2 {
            let m = projected.iter().skip(c).step_by(2).sum::<f64>() / data.rows() as f64;
            assert!(m.abs() < 1e-9, "projected mean {m}");
        }
    }

    #[test]
    fn fit_fraction_selects_minimal_components() {
        let data = diagonal_data();
        let rows = data.as_slice();
        // 99% of variance lives on the diagonal: one component suffices.
        let pca = Pca::fit_fraction_rows(rows, 2, 0.95).unwrap();
        assert_eq!(pca.n_components(), 1);
        // Requiring 99.999% forces the second component in.
        let pca2 = Pca::fit_fraction_rows(rows, 2, 0.99999).unwrap();
        assert_eq!(pca2.n_components(), 2);
    }

    #[test]
    fn fit_fraction_validates() {
        let data = diagonal_data();
        assert!(Pca::fit_fraction_rows(data.as_slice(), 2, 0.0).is_err());
        assert!(Pca::fit_fraction_rows(data.as_slice(), 2, 1.5).is_err());
    }

    #[test]
    fn constant_data_fits_with_zero_variance() {
        let data = Matrix::from_rows(&[vec![2.0, 3.0], vec![2.0, 3.0], vec![2.0, 3.0]]).unwrap();
        let pca = Pca::fit(&data, 1).unwrap();
        assert_eq!(pca.total_variance(), 0.0);
        // Everything projects to the origin.
        assert_eq!(pca.transform(&[2.0, 3.0]).unwrap(), vec![0.0]);
        let frac = Pca::fit_fraction_rows(data.as_slice(), 2, 0.9).unwrap();
        assert_eq!(frac.n_components(), 1);
    }

    #[test]
    fn parameter_validation() {
        let data = diagonal_data();
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 3).is_err());
        let one_row = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        assert!(Pca::fit(&one_row, 1).is_err());
    }

    #[test]
    fn shape_mismatches_rejected() {
        let pca = Pca::fit(&diagonal_data(), 2).unwrap();
        assert!(pca.transform(&[1.0]).is_err());
        assert!(pca.transform_rows_into(&[1.0, 2.0, 3.0], &mut Vec::new()).is_err());
    }

    #[test]
    fn projection_preserves_pairwise_structure_on_dominant_axis() {
        // Points far apart along the diagonal must stay far apart after a
        // 2 -> 1 reduction; this is the property the k-NN stage relies on.
        let data = diagonal_data();
        let pca = Pca::fit(&data, 1).unwrap();
        let a = pca.transform(data.row(0)).unwrap();
        let b = pca.transform(data.row(49)).unwrap();
        let c = pca.transform(data.row(1)).unwrap();
        let d_far = (a[0] - b[0]).abs();
        let d_near = (a[0] - c[0]).abs();
        assert!(d_far > 5.0 * d_near);
    }
}
