//! Fixed-size kernels for the PCA fit path: column means, sample covariance
//! and the cyclic Jacobi symmetric eigendecomposition, over row-major `f64`
//! slices.
//!
//! Every online refit runs these on one small window matrix (`rows × d`,
//! `d` = the prediction window, ≤ 16 in all the paper's configurations), so
//! their constant factors are the fit's cost. Each body is written once,
//! generic over `const D: usize`, and instantiated for every `d` in
//! `1..=`[`MAX_FIXED_DIM`] plus a `D = 0` instance that reads `d` at run
//! time for anything larger. With `D` fixed every loop has a constant trip
//! count and every temporary (means, centred row, the working matrix, the
//! rotation accumulator, the eigenvalue order) is a stack array; the `D = 0`
//! instance keeps the same temporaries in `Vec`s.
//!
//! **Bit-identity rule.** Every instance performs exactly the arithmetic of
//! the plain runtime-sized loops kept as test references at the bottom of
//! this file, in the same order: each covariance cell receives one
//! `+= cᵢ·cⱼ` per row, in row order, from the same `xᵢ − μᵢ`; Jacobi runs the
//! same cyclic rotation order with the same convergence test and the same
//! finite/symmetric input checks; eigenpairs are ordered by the same stable
//! descending sort. The parity tests hold every instance to `to_bits`
//! equality with the references, so the fitted bases, snapshots and
//! forecasts built on these kernels are exactly the references'.

use crate::{LinalgError, Result};

/// Largest dimension with its own fixed-size instance; larger inputs run the
/// runtime-sized `D = 0` instance.
pub const MAX_FIXED_DIM: usize = 16;

/// The dimension a `D` instance runs at: `D` itself, or the runtime `d` for
/// the `D = 0` instance.
#[inline(always)]
pub(crate) const fn dim<const D: usize>(d: usize) -> usize {
    if D == 0 {
        d
    } else {
        D
    }
}

/// Zeroed temporaries of up to `D × D` values: a stack array in the fixed
/// instances, a heap buffer in the `D = 0` instance.
struct Temp<const D: usize> {
    inline: [[f64; D]; D],
    heap: Vec<f64>,
}

impl<const D: usize> Temp<D> {
    #[inline(always)]
    fn new(len: usize) -> Self {
        Self { inline: [[0.0; D]; D], heap: if D == 0 { vec![0.0; len] } else { Vec::new() } }
    }

    #[inline(always)]
    fn slice(&mut self, len: usize) -> &mut [f64] {
        if D == 0 {
            &mut self.heap[..len]
        } else {
            &mut self.inline.as_flattened_mut()[..len]
        }
    }
}

/// Per-column means of the row-major `rows` (`d` columns) into `out`.
///
/// # Panics
///
/// Panics if `d == 0`, `out.len() != d` or `rows.len()` is not a positive
/// multiple of `d`.
pub fn column_means_into(rows: &[f64], d: usize, out: &mut [f64]) {
    check_rows(rows, d);
    assert_eq!(out.len(), d, "column_means_into: output length {} vs dim {d}", out.len());
    with_dim!(d, column_means_fixed(rows, d, out))
}

/// Unbiased (`1/(n−1)`) sample covariance of the row-major `rows` (`d`
/// columns) into the row-major `d × d` `out`; zero for a single row.
///
/// # Panics
///
/// Panics if `d == 0`, `out.len() != d²` or `rows.len()` is not a positive
/// multiple of `d`.
pub fn covariance_into(rows: &[f64], d: usize, out: &mut [f64]) {
    check_rows(rows, d);
    assert_eq!(out.len(), d * d, "covariance_into: output length {} vs {d}x{d}", out.len());
    with_dim!(d, covariance_from_rows(rows, d, out))
}

/// Symmetric eigendecomposition of the row-major `n × n` matrix `a`:
/// `values` (length `n`) receives every eigenvalue in descending order and
/// `vectors` (length `k·n`, `k ≤ n`) the leading `k` unit eigenvectors as
/// rows.
///
/// # Errors
///
/// * [`LinalgError::InvalidArgument`] if `a` is not `n × n`, has a
///   non-finite entry or is not symmetric (tolerance
///   `1e-8 · max(max|a|, 1)`), or if the output lengths do not fit `n`;
/// * [`LinalgError::NoConvergence`] if the off-diagonal norm fails to reach
///   machine-level tolerance within 100 sweeps.
pub fn sym_eigen_into(a: &[f64], n: usize, values: &mut [f64], vectors: &mut [f64]) -> Result<()> {
    if n == 0 || a.len() != n * n {
        return Err(LinalgError::InvalidArgument(format!(
            "eigendecomposition requires a square matrix, got {} values for n = {n}",
            a.len()
        )));
    }
    check_outputs(n, values, vectors)?;
    with_dim!(n, sym_eigen_fixed(a, n, values, vectors))
}

/// The principal axes of the row-major `rows` (`d` columns) in one call:
/// column means into `mean` (length `d`), covariance eigenvalues into
/// `values` (length `d`, descending) and the leading `k` unit eigenvectors
/// as rows into `vectors` (length `k·d`). Bit-identical to
/// [`column_means_into`], [`covariance_into`] and [`sym_eigen_into`] in
/// sequence, but the covariance never leaves the stack.
///
/// # Errors
///
/// Same conditions as [`sym_eigen_into`] on the covariance (a non-finite
/// input makes the covariance non-finite).
///
/// # Panics
///
/// Panics if `d == 0`, `mean.len() != d` or `rows.len()` is not a positive
/// multiple of `d`.
pub fn principal_axes(
    rows: &[f64],
    d: usize,
    mean: &mut [f64],
    values: &mut [f64],
    vectors: &mut [f64],
) -> Result<()> {
    check_rows(rows, d);
    assert_eq!(mean.len(), d, "principal_axes: mean length {} vs dim {d}", mean.len());
    check_outputs(d, values, vectors)?;
    with_dim!(d, principal_axes_fixed(rows, d, mean, values, vectors))
}

fn check_rows(rows: &[f64], d: usize) {
    assert!(d > 0, "row-major kernels need a positive dimension");
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(d),
        "{} values are not a positive number of rows of dim {d}",
        rows.len()
    );
}

fn check_outputs(n: usize, values: &[f64], vectors: &[f64]) -> Result<()> {
    if values.len() != n || !vectors.len().is_multiple_of(n) || vectors.len() > n * n {
        return Err(LinalgError::InvalidArgument(format!(
            "eigen outputs of {} values and {} vector entries do not fit n = {n}",
            values.len(),
            vectors.len()
        )));
    }
    Ok(())
}

#[inline(always)]
fn column_means_fixed<const D: usize>(rows: &[f64], d: usize, out: &mut [f64]) {
    let d = dim::<D>(d);
    let out = &mut out[..d];
    out.fill(0.0);
    for row in rows.chunks_exact(d) {
        for (m, &x) in out.iter_mut().zip(&row[..d]) {
            *m += x;
        }
    }
    let n = (rows.len() / d) as f64;
    for m in out {
        *m /= n;
    }
}

/// Covariance of `rows` around `means` into the full `d × d` `out`.
#[inline(always)]
fn covariance_fixed<const D: usize>(rows: &[f64], d: usize, means: &[f64], out: &mut [f64]) {
    let d = dim::<D>(d);
    let (means, out) = (&means[..d], &mut out[..d * d]);
    out.fill(0.0);
    let n = rows.len() / d;
    if n < 2 {
        return;
    }
    let mut centred = Temp::<D>::new(d);
    let c = centred.slice(d);
    for row in rows.chunks_exact(d) {
        for ((ci, &x), &m) in c.iter_mut().zip(&row[..d]).zip(means) {
            *ci = x - m;
        }
        // Upper triangle only: one `+= cᵢ·cⱼ` per cell per row.
        for i in 0..d {
            let ci = c[i];
            for (o, &cj) in out[i * d + i..(i + 1) * d].iter_mut().zip(&c[i..]) {
                *o += ci * cj;
            }
        }
    }
    let norm = 1.0 / (n as f64 - 1.0);
    for i in 0..d {
        for j in i..d {
            let v = out[i * d + j] * norm;
            out[i * d + j] = v;
            out[j * d + i] = v;
        }
    }
}

#[inline(always)]
fn covariance_from_rows<const D: usize>(rows: &[f64], d: usize, out: &mut [f64]) {
    let n = dim::<D>(d);
    let mut means = Temp::<D>::new(n);
    let means = means.slice(n);
    column_means_fixed::<D>(rows, n, means);
    covariance_fixed::<D>(rows, n, means, out);
}

#[inline(always)]
fn principal_axes_fixed<const D: usize>(
    rows: &[f64],
    d: usize,
    mean: &mut [f64],
    values: &mut [f64],
    vectors: &mut [f64],
) -> Result<()> {
    let n = dim::<D>(d);
    column_means_fixed::<D>(rows, n, mean);
    let mut work = Temp::<D>::new(n * n);
    let m = work.slice(n * n);
    covariance_fixed::<D>(rows, n, mean, m);
    check_symmetric::<D>(m, n)?;
    jacobi_fixed::<D>(m, n, values, vectors)
}

#[inline(always)]
fn sym_eigen_fixed<const D: usize>(
    a: &[f64],
    n: usize,
    values: &mut [f64],
    vectors: &mut [f64],
) -> Result<()> {
    let n = dim::<D>(n);
    check_symmetric::<D>(a, n)?;
    let mut work = Temp::<D>::new(n * n);
    let m = work.slice(n * n);
    m.copy_from_slice(&a[..n * n]);
    jacobi_fixed::<D>(m, n, values, vectors)
}

/// The decomposition's input checks: finite entries (NaN would defeat the
/// convergence test, `NaN > tol` being false) and symmetry within
/// `1e-8 · max(max|a|, 1)`.
#[inline(always)]
fn check_symmetric<const D: usize>(a: &[f64], n: usize) -> Result<()> {
    let n = dim::<D>(n);
    let a = &a[..n * n];
    if a.iter().any(|x| !x.is_finite()) {
        return Err(LinalgError::InvalidArgument(
            "eigendecomposition requires finite matrix entries".into(),
        ));
    }
    let tol = 1e-8 * max_abs(a).max(1.0);
    for i in 0..n {
        for j in i + 1..n {
            if (a[i * n + j] - a[j * n + i]).abs() > tol {
                return Err(LinalgError::InvalidArgument(
                    "eigendecomposition requires a symmetric matrix".into(),
                ));
            }
        }
    }
    Ok(())
}

#[inline(always)]
fn max_abs(a: &[f64]) -> f64 {
    a.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Cyclic Jacobi on the checked `n × n` matrix `m` (overwritten). The
/// rotations accumulate into `vt`, the transpose of the reference's
/// eigenvector matrix, so each eigenvector is a contiguous row.
#[inline(always)]
fn jacobi_fixed<const D: usize>(
    m: &mut [f64],
    n: usize,
    values: &mut [f64],
    vectors: &mut [f64],
) -> Result<()> {
    const MAX_SWEEPS: usize = 100;
    let n = dim::<D>(n);
    let m = &mut m[..n * n];
    let scale = max_abs(m);
    let tol = f64::EPSILON * scale.max(f64::MIN_POSITIVE) * n as f64;
    let mut rot = Temp::<D>::new(n * n);
    let vt = rot.slice(n * n);
    for i in 0..n {
        vt[i * n + i] = 1.0;
    }

    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        if off_diagonal_norm::<D>(m, n) <= tol {
            converged = true;
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                rotate::<D>(m, vt, n, p, q);
            }
        }
    }
    if !converged && off_diagonal_norm::<D>(m, n) > tol {
        return Err(LinalgError::NoConvergence(format!(
            "Jacobi failed to converge in {MAX_SWEEPS} sweeps (off-norm {:.3e})",
            off_diagonal_norm::<D>(m, n)
        )));
    }

    // Stable insertion sort of the eigenpair order by descending eigenvalue
    // (`total_cmp`), the same permutation the reference's stable `sort_by`
    // produces.
    let mut order_inline = [0usize; D];
    let mut order_heap = Vec::new();
    let order: &mut [usize] = if D == 0 {
        order_heap.resize(n, 0);
        &mut order_heap
    } else {
        &mut order_inline
    };
    let diag = |i: usize| m[i * n + i];
    for a in 0..n {
        let x = a;
        let mut b = a;
        while b > 0 && diag(order[b - 1]).total_cmp(&diag(x)).is_lt() {
            order[b] = order[b - 1];
            b -= 1;
        }
        order[b] = x;
    }
    for (v, &i) in values[..n].iter_mut().zip(order.iter()) {
        *v = diag(i);
    }
    for (row, &i) in vectors.chunks_exact_mut(n).zip(order.iter()) {
        row.copy_from_slice(&vt[i * n..(i + 1) * n]);
    }
    Ok(())
}

/// Frobenius norm of the strictly upper off-diagonal part.
#[inline(always)]
fn off_diagonal_norm<const D: usize>(m: &[f64], n: usize) -> f64 {
    let n = dim::<D>(n);
    let mut s = 0.0;
    for i in 0..n {
        for &x in &m[i * n + i + 1..(i + 1) * n] {
            s += x * x;
        }
    }
    s.sqrt()
}

/// One Jacobi rotation zeroing `m[p][q]`, accumulated into the rows `p`, `q`
/// of `vt`.
#[inline(always)]
fn rotate<const D: usize>(m: &mut [f64], vt: &mut [f64], n: usize, p: usize, q: usize) {
    let n = dim::<D>(n);
    let apq = m[p * n + q];
    if apq == 0.0 {
        return;
    }
    let app = m[p * n + p];
    let aqq = m[q * n + q];
    // Stable computation of tan(theta) (Golub & Van Loan §8.4), as
    // `±1 / (|θ| + √(1+θ²))` rather than the reference's branch between
    // `1 / (θ ± √(1+θ²))`: negating both operands of a sum or quotient is
    // exact, so the bits agree, and θ's sign no longer costs a mispredicted
    // branch on the rotation chain. `+1` covers θ = −0.0 as `>=` does.
    let theta = (aqq - app) / (2.0 * apq);
    let sign = if theta >= 0.0 { 1.0 } else { -1.0 };
    let t = sign / (theta.abs() + (1.0 + theta * theta).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    let s = t * c;

    for k in 0..n {
        if k != p && k != q {
            let akp = m[k * n + p];
            let akq = m[k * n + q];
            let new_kp = c * akp - s * akq;
            let new_kq = s * akp + c * akq;
            m[k * n + p] = new_kp;
            m[p * n + k] = new_kp;
            m[k * n + q] = new_kq;
            m[q * n + k] = new_kq;
        }
    }
    m[p * n + p] = app - t * apq;
    m[q * n + q] = aqq + t * apq;
    m[p * n + q] = 0.0;
    m[q * n + p] = 0.0;

    let (head, tail) = vt.split_at_mut(q * n);
    for (vp, vq) in head[p * n..(p + 1) * n].iter_mut().zip(&mut tail[..n]) {
        let (vkp, vkq) = (*vp, *vq);
        *vp = c * vkp - s * vkq;
        *vq = s * vkp + c * vkq;
    }
}

#[cfg(test)]
pub(crate) mod reference {
    //! The runtime-sized loops the fixed kernels replaced, kept verbatim as
    //! the oracle of the bit-identity rule.

    /// Per-column means.
    pub fn column_means(rows: &[f64], d: usize) -> Vec<f64> {
        let mut means = vec![0.0; d];
        for row in rows.chunks_exact(d) {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        let n = (rows.len() / d) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Unbiased sample covariance, row-major `d × d`.
    pub fn covariance(rows: &[f64], d: usize) -> Vec<f64> {
        let n = rows.len() / d;
        let means = column_means(rows, d);
        let mut cov = vec![0.0; d * d];
        if n < 2 {
            return cov;
        }
        for row in rows.chunks_exact(d) {
            for i in 0..d {
                let ci = row[i] - means[i];
                let out = &mut cov[i * d + i..(i + 1) * d];
                for ((o, &rj), &mj) in out.iter_mut().zip(&row[i..]).zip(&means[i..]) {
                    *o += ci * (rj - mj);
                }
            }
        }
        let norm = 1.0 / (n as f64 - 1.0);
        for i in 0..d {
            for j in i..d {
                let v = cov[i * d + j] * norm;
                cov[i * d + j] = v;
                cov[j * d + i] = v;
            }
        }
        cov
    }

    /// Cyclic Jacobi: `(eigenvalues descending, eigenvectors as columns of a
    /// row-major n × n matrix)`, or `None` where the kernel must fail.
    pub fn sym_eigen(a: &[f64], n: usize) -> Option<(Vec<f64>, Vec<f64>)> {
        if a.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let scale = a.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let sym_tol = 1e-8 * scale.max(1.0);
        for i in 0..n {
            for j in i + 1..n {
                if (a[i * n + j] - a[j * n + i]).abs() > sym_tol {
                    return None;
                }
            }
        }
        let mut m = a.to_vec();
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }
        let tol = f64::EPSILON * scale.max(f64::MIN_POSITIVE) * n as f64;
        let mut converged = false;
        for _ in 0..100 {
            if off_diagonal_norm(&m, n) <= tol {
                converged = true;
                break;
            }
            for p in 0..n - 1 {
                for q in p + 1..n {
                    jacobi_rotate(&mut m, &mut v, n, p, q);
                }
            }
        }
        if !converged && off_diagonal_norm(&m, n) > tol {
            return None;
        }
        let mut order: Vec<usize> = (0..n).collect();
        let eig: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
        order.sort_by(|&i, &j| eig[j].total_cmp(&eig[i]));
        let values = order.iter().map(|&i| eig[i]).collect();
        let mut vectors = vec![0.0; n * n];
        for (new_col, &old_col) in order.iter().enumerate() {
            for r in 0..n {
                vectors[r * n + new_col] = v[r * n + old_col];
            }
        }
        Some((values, vectors))
    }

    fn off_diagonal_norm(m: &[f64], n: usize) -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                s += m[i * n + j] * m[i * n + j];
            }
        }
        s.sqrt()
    }

    fn jacobi_rotate(m: &mut [f64], v: &mut [f64], n: usize, p: usize, q: usize) {
        let apq = m[p * n + q];
        if apq == 0.0 {
            return;
        }
        let app = m[p * n + p];
        let aqq = m[q * n + q];
        let theta = (aqq - app) / (2.0 * apq);
        let t = if theta >= 0.0 {
            1.0 / (theta + (1.0 + theta * theta).sqrt())
        } else {
            1.0 / (theta - (1.0 + theta * theta).sqrt())
        };
        let c = 1.0 / (1.0 + t * t).sqrt();
        let s = t * c;
        for k in 0..n {
            if k != p && k != q {
                let akp = m[k * n + p];
                let akq = m[k * n + q];
                m[k * n + p] = c * akp - s * akq;
                m[p * n + k] = m[k * n + p];
                m[k * n + q] = s * akp + c * akq;
                m[q * n + k] = m[k * n + q];
            }
        }
        m[p * n + p] = app - t * apq;
        m[q * n + q] = aqq + t * apq;
        m[p * n + q] = 0.0;
        m[q * n + p] = 0.0;
        for k in 0..n {
            let vkp = v[k * n + p];
            let vkq = v[k * n + q];
            v[k * n + p] = c * vkp - s * vkq;
            v[k * n + q] = s * vkp + c * vkq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 1
        }

        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Window-like rows: a random walk framed into overlapping windows,
        /// with the occasional exactly repeated or zeroed value so ties and
        /// zero rotations occur.
        fn rows(&mut self, n: usize, d: usize) -> Vec<f64> {
            let mut series = Vec::with_capacity(n + d);
            let mut x = self.unit() * 10.0 - 5.0;
            for _ in 0..n + d {
                x += match self.next_u64() % 16 {
                    0 => 0.0,
                    1 => -x,
                    _ => self.unit() * 2.0 - 1.0,
                };
                series.push(x);
            }
            (0..n).flat_map(|i| series[i..i + d].to_vec()).collect()
        }
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x:?} vs {y:?}");
        }
    }

    /// Every fixed instance (d = 1..=16) and the runtime instance (d = 17,
    /// 20) against the reference loops, on random row counts.
    #[test]
    fn fixed_kernels_match_reference_bit_for_bit() {
        let mut g = Gen(0x5eed_f1fe_d000_0001);
        for d in (1..=MAX_FIXED_DIM).chain([17, 20]) {
            for _ in 0..12 {
                let n = 1 + (g.next_u64() % 60) as usize;
                let rows = g.rows(n, d);

                let mut means = vec![0.0; d];
                column_means_into(&rows, d, &mut means);
                assert_bits(&means, &reference::column_means(&rows, d), "means");

                let mut cov = vec![0.0; d * d];
                covariance_into(&rows, d, &mut cov);
                let ref_cov = reference::covariance(&rows, d);
                assert_bits(&cov, &ref_cov, "covariance");

                let (ref_values, ref_cols) = reference::sym_eigen(&ref_cov, d).expect("converges");
                let mut values = vec![0.0; d];
                let mut vectors = vec![0.0; d * d];
                sym_eigen_into(&cov, d, &mut values, &mut vectors).unwrap();
                assert_bits(&values, &ref_values, "eigenvalues");
                let mut ref_rows = vec![0.0; d * d];
                for r in 0..d {
                    for c in 0..d {
                        ref_rows[c * d + r] = ref_cols[r * d + c];
                    }
                }
                assert_bits(&vectors, &ref_rows, "eigenvectors");

                let k = 1 + (g.next_u64() as usize % d);
                let mut axes_mean = vec![0.0; d];
                let mut axes_values = vec![0.0; d];
                let mut axes_vectors = vec![0.0; k * d];
                principal_axes(&rows, d, &mut axes_mean, &mut axes_values, &mut axes_vectors)
                    .unwrap();
                assert_bits(&axes_mean, &means, "axes mean");
                assert_bits(&axes_values, &values, "axes values");
                assert_bits(&axes_vectors, &vectors[..k * d], "axes vectors");
            }
        }
    }

    #[test]
    fn asymmetric_within_tolerance_matches_reference() {
        // The symmetry check tolerates tiny asymmetry; the rotations then
        // read both triangles exactly as the reference does.
        let mut g = Gen(0x5eed_f1fe_d000_0002);
        for d in [2usize, 5, 9, 16, 18] {
            let rows = g.rows(30, d);
            let mut a = reference::covariance(&rows, d);
            a[1] += 1e-12;
            let (ref_values, _) = reference::sym_eigen(&a, d).expect("within tolerance");
            let mut values = vec![0.0; d];
            sym_eigen_into(&a, d, &mut values, &mut []).unwrap();
            assert_bits(&values, &ref_values, "eigenvalues");
        }
    }

    #[test]
    fn input_checks_reject_what_the_reference_rejects() {
        for d in [3usize, 17] {
            let mut values = vec![0.0; d];
            let mut a = vec![0.0; d * d];
            a[1] = f64::NAN;
            assert!(sym_eigen_into(&a, d, &mut values, &mut []).is_err());
            a[1] = 1.0;
            assert!(reference::sym_eigen(&a, d).is_none());
            assert!(sym_eigen_into(&a, d, &mut values, &mut []).is_err());
            assert!(sym_eigen_into(&a[1..], d, &mut values, &mut []).is_err());
            let mut rows = vec![1.0; 4 * d];
            rows[2] = f64::INFINITY;
            let mut mean = vec![0.0; d];
            assert!(principal_axes(&rows, d, &mut mean, &mut values, &mut []).is_err());
        }
    }
}
