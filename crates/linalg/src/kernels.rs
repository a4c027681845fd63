//! Runtime-dispatched vector kernels for the serving and training hot paths.
//!
//! Every kernel has two implementations — a portable scalar one and an
//! x86_64 AVX2 one (`std::arch` intrinsics, no external dependencies) — that
//! are **bit-identical by construction**: both accumulate reductions in the
//! same four strided lanes (lane `j` holds elements `j, j+4, j+8, …`),
//! combine the lanes in the fixed order `(l0 + l2) + (l1 + l3)` (exactly what
//! the AVX2 horizontal sum produces), process the `< 4` tail sequentially
//! after the lane combine, and perform the same per-element operation
//! sequence (multiply, round, add, round — no fused multiply-add anywhere,
//! so no single-rounding divergence). Elementwise kernels (axpy,
//! z-normalise, widen) are trivially identical per element. The parity tests
//! at the bottom of this file and the dispatch-forcing suite in CI
//! (`LARP_KERNELS=scalar`) hold both implementations to *exact* `to_bits`
//! equality on random lengths, alignments and subnormal inputs, with one
//! documented carve-out: when a result is NaN, only NaN-ness is guaranteed —
//! IEEE leaves NaN payload propagation unspecified and LLVM commutes scalar
//! additions, so payload bits are not reproducible even scalar-to-scalar.
//! (The serving pipeline sanitises NaN out before any kernel runs.)
//!
//! # Dispatch
//!
//! The implementation is chosen once per process ([`std::sync::OnceLock`]):
//! AVX2 when `is_x86_feature_detected!("avx2")` says so, scalar otherwise.
//! The environment variable `LARP_KERNELS` overrides the choice for testing:
//! `scalar` forces the portable path anywhere; `avx2` requests the SIMD path
//! and falls back to scalar (silently) where AVX2 is unavailable, so test
//! scripts can export it unconditionally. [`active`] reports the selection.

use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Scalar,
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    Avx2,
}

fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn mode() -> Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    *MODE.get_or_init(|| {
        let forced = std::env::var("LARP_KERNELS");
        match forced.as_deref() {
            Ok("scalar") => Mode::Scalar,
            // "avx2" (or auto): take SIMD when the CPU has it. An explicit
            // "avx2" on a host without it degrades to scalar so CI scripts
            // can export the variable unconditionally.
            _ => {
                if avx2_available() {
                    Mode::Avx2
                } else {
                    Mode::Scalar
                }
            }
        }
    })
}

/// Name of the selected implementation: `"avx2"` or `"scalar"`.
pub fn active() -> &'static str {
    match mode() {
        Mode::Scalar => "scalar",
        Mode::Avx2 => "avx2",
    }
}

/// Dispatches `$scalar_expr` / `$avx2_expr` on the process-wide mode.
///
/// The AVX2 arm only exists on x86_64; elsewhere the mode is always scalar.
macro_rules! dispatch {
    ($avx2:expr, $scalar:expr) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if mode() == Mode::Avx2 {
                // SAFETY: Mode::Avx2 is only ever selected after
                // `is_x86_feature_detected!("avx2")` returned true.
                return unsafe { $avx2 };
            }
        }
        $scalar
    }};
}

/// Dot product `Σ aᵢ·bᵢ`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    dispatch!(avx2::dot(a, b), scalar::dot(a, b))
}

/// Squared Euclidean distance `Σ (aᵢ−bᵢ)²`.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    dispatch!(avx2::squared_distance(a, b), scalar::squared_distance(a, b))
}

/// Plain sum `Σ xᵢ` (0.0 for an empty slice).
#[inline]
pub fn sum(xs: &[f64]) -> f64 {
    dispatch!(avx2::sum(xs), scalar::sum(xs))
}

/// Centered sum of squares `Σ (xᵢ−m)²` — the variance numerator.
#[inline]
pub fn centered_sum_sq(xs: &[f64], m: f64) -> f64 {
    dispatch!(avx2::centered_sum_sq(xs, m), scalar::centered_sum_sq(xs, m))
}

/// Lagged-covariance kernel `Σ (aᵢ−m)(bᵢ−m)` (both operands centered by the
/// same scalar mean) — the Yule–Walker autocovariance inner loop.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn centered_dot(a: &[f64], b: &[f64], m: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "centered_dot: length mismatch");
    dispatch!(avx2::centered_dot(a, b, m), scalar::centered_dot(a, b, m))
}

/// Projection kernel `Σ wᵢ·(xᵢ−mᵢ)` — one PCA component applied to a raw
/// observation without materialising the centered vector.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn project_dot(w: &[f64], x: &[f64], means: &[f64]) -> f64 {
    assert_eq!(w.len(), x.len(), "project_dot: weight/input length mismatch");
    assert_eq!(x.len(), means.len(), "project_dot: input/means length mismatch");
    dispatch!(avx2::project_dot(w, x, means), scalar::project_dot(w, x, means))
}

/// Batched PCA projection: projects every row `x` of the row-major `rows`
/// (`means.len()` columns) onto each row `w` of the row-major `components`,
/// writing `out[r·k + j] = Σ wⱼᵢ·(xᵢ−mᵢ)` for `k` components. One dispatch
/// for the whole batch, and bit-identical to [`project_dot`] per
/// (row, component): the same body, instantiated per dimension up to
/// [`crate::fixed::MAX_FIXED_DIM`].
///
/// # Panics
///
/// Panics if `means` is empty or on any length mismatch.
pub fn project_rows(rows: &[f64], means: &[f64], components: &[f64], out: &mut [f64]) {
    let d = means.len();
    assert!(d > 0, "project_rows: empty means");
    assert!(
        rows.len().is_multiple_of(d) && components.len().is_multiple_of(d),
        "project_rows: {} row values or {} component values are not rows of dim {d}",
        rows.len(),
        components.len()
    );
    assert_eq!(
        out.len(),
        rows.len() / d * (components.len() / d),
        "project_rows: output length mismatch"
    );
    if out.is_empty() {
        return;
    }
    dispatch!(
        avx2::project_rows(rows, means, components, out),
        scalar::project_rows(rows, means, components, out)
    )
}

/// `y += alpha · x` (BLAS axpy).
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    dispatch!(avx2::axpy(alpha, x, y), scalar::axpy(alpha, x, y))
}

/// Z-normalisation `outᵢ = (xᵢ−mean) / divisor` into a caller slice.
///
/// Division is kept as division (not reciprocal multiplication) so the
/// result is bit-identical to the scalar `ZScore::apply` loop.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn znorm_apply(xs: &[f64], mean: f64, divisor: f64, out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "znorm_apply: length mismatch");
    dispatch!(
        avx2::znorm_apply(xs, mean, divisor, out),
        scalar::znorm_apply(xs, mean, divisor, out)
    )
}

/// [`znorm_apply`] into a reusable `Vec` (cleared and resized first).
pub fn znorm_apply_into(xs: &[f64], mean: f64, divisor: f64, out: &mut Vec<f64>) {
    out.clear();
    out.resize(xs.len(), 0.0);
    znorm_apply(xs, mean, divisor, out);
}

/// Widens `f32` values to `f64` into a caller slice (exact conversion, so
/// trivially bit-identical across dispatches).
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn widen(src: &[f32], out: &mut [f64]) {
    assert_eq!(src.len(), out.len(), "widen: length mismatch");
    dispatch!(avx2::widen(src, out), scalar::widen(src, out))
}

/// [`widen`] into a reusable `Vec` (cleared and resized first).
pub fn widen_into(src: &[f32], out: &mut Vec<f64>) {
    out.clear();
    out.resize(src.len(), 0.0);
    widen(src, out);
}

/// Portable reference implementations. Every reduction uses the 4-lane
/// strided accumulation documented at the top of the file so the AVX2 twins
/// can match it exactly.
mod scalar {
    use crate::fixed::dim;

    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            s0 += a[i] * b[i];
            s1 += a[i + 1] * b[i + 1];
            s2 += a[i + 2] * b[i + 2];
            s3 += a[i + 3] * b[i + 3];
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            acc += a[i] * b[i];
            i += 1;
        }
        acc
    }

    pub(super) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            let d0 = a[i] - b[i];
            let d1 = a[i + 1] - b[i + 1];
            let d2 = a[i + 2] - b[i + 2];
            let d3 = a[i + 3] - b[i + 3];
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            let d = a[i] - b[i];
            acc += d * d;
            i += 1;
        }
        acc
    }

    pub(super) fn sum(xs: &[f64]) -> f64 {
        let n = xs.len();
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            s0 += xs[i];
            s1 += xs[i + 1];
            s2 += xs[i + 2];
            s3 += xs[i + 3];
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            acc += xs[i];
            i += 1;
        }
        acc
    }

    pub(super) fn centered_sum_sq(xs: &[f64], m: f64) -> f64 {
        let n = xs.len();
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            let d0 = xs[i] - m;
            let d1 = xs[i + 1] - m;
            let d2 = xs[i + 2] - m;
            let d3 = xs[i + 3] - m;
            s0 += d0 * d0;
            s1 += d1 * d1;
            s2 += d2 * d2;
            s3 += d3 * d3;
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            let d = xs[i] - m;
            acc += d * d;
            i += 1;
        }
        acc
    }

    pub(super) fn centered_dot(a: &[f64], b: &[f64], m: f64) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            s0 += (a[i] - m) * (b[i] - m);
            s1 += (a[i + 1] - m) * (b[i + 1] - m);
            s2 += (a[i + 2] - m) * (b[i + 2] - m);
            s3 += (a[i + 3] - m) * (b[i + 3] - m);
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            acc += (a[i] - m) * (b[i] - m);
            i += 1;
        }
        acc
    }

    pub(super) fn project_dot(w: &[f64], x: &[f64], means: &[f64]) -> f64 {
        project_dot_n::<0>(w, x, means)
    }

    pub(super) fn project_rows(rows: &[f64], means: &[f64], components: &[f64], out: &mut [f64]) {
        with_dim!(means.len(), project_rows_n(rows, means, components, out))
    }

    #[inline(always)]
    fn project_rows_n<const D: usize>(
        rows: &[f64],
        means: &[f64],
        components: &[f64],
        out: &mut [f64],
    ) {
        let d = dim::<D>(means.len());
        let k = components.len() / d;
        for (x, o) in rows.chunks_exact(d).zip(out.chunks_exact_mut(k)) {
            for (w, o) in components.chunks_exact(d).zip(o) {
                *o = project_dot_n::<D>(w, x, means);
            }
        }
    }

    /// [`project_dot`] for length `D` (`D = 0`: any length).
    #[inline(always)]
    fn project_dot_n<const D: usize>(w: &[f64], x: &[f64], means: &[f64]) -> f64 {
        let n = dim::<D>(w.len());
        let (w, x, means) = (&w[..n], &x[..n], &means[..n]);
        let lanes = n & !3;
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        let mut i = 0;
        while i < lanes {
            s0 += w[i] * (x[i] - means[i]);
            s1 += w[i + 1] * (x[i + 1] - means[i + 1]);
            s2 += w[i + 2] * (x[i + 2] - means[i + 2]);
            s3 += w[i + 3] * (x[i + 3] - means[i + 3]);
            i += 4;
        }
        let mut acc = (s0 + s2) + (s1 + s3);
        while i < n {
            acc += w[i] * (x[i] - means[i]);
            i += 1;
        }
        acc
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    pub(super) fn znorm_apply(xs: &[f64], mean: f64, divisor: f64, out: &mut [f64]) {
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = (x - mean) / divisor;
        }
    }

    pub(super) fn widen(src: &[f32], out: &mut [f64]) {
        for (o, &s) in out.iter_mut().zip(src) {
            *o = f64::from(s);
        }
    }
}

/// AVX2 twins. Each function mirrors its scalar counterpart operation for
/// operation; see the module docs for the bit-identity argument.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    use crate::fixed::dim;

    /// Unaligned 4-wide load from `p[i..i + 4]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(p: &[f64], i: usize) -> __m256d {
        debug_assert!(i + 4 <= p.len());
        // SAFETY: every call site keeps `i + 4 <= p.len()` (lane-loop bound).
        unsafe { _mm256_loadu_pd(p.as_ptr().add(i)) }
    }

    /// Unaligned 4-wide `f32` load from `p[i..i + 4]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_ps(p: &[f32], i: usize) -> __m128 {
        debug_assert!(i + 4 <= p.len());
        // SAFETY: every call site keeps `i + 4 <= p.len()` (lane-loop bound).
        unsafe { _mm_loadu_ps(p.as_ptr().add(i)) }
    }

    /// Unaligned 4-wide store to `p[i..i + 4]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(p: &mut [f64], i: usize, v: __m256d) {
        debug_assert!(i + 4 <= p.len());
        // SAFETY: every call site keeps `i + 4 <= p.len()` (lane-loop bound).
        unsafe { _mm256_storeu_pd(p.as_mut_ptr().add(i), v) }
    }

    /// Horizontal sum in the fixed combine order `(l0 + l2) + (l1 + l3)` —
    /// the order the scalar 4-lane reduction uses.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v); // [l0, l1]
        let hi = _mm256_extractf128_pd::<1>(v); // [l2, l3]
        let pair = _mm_add_pd(lo, hi); // [l0+l2, l1+l3]
        let swapped = _mm_unpackhi_pd(pair, pair);
        _mm_cvtsd_f64(_mm_add_sd(pair, swapped))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let va = load(a, i);
            let vb = load(b, i);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let d = _mm256_sub_pd(load(a, i), load(b, i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            let d = a[i] - b[i];
            total += d * d;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sum(xs: &[f64]) -> f64 {
        let n = xs.len();
        let lanes = n & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            acc = _mm256_add_pd(acc, load(xs, i));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            total += xs[i];
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn centered_sum_sq(xs: &[f64], m: f64) -> f64 {
        let n = xs.len();
        let lanes = n & !3;
        let vm = _mm256_set1_pd(m);
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let d = _mm256_sub_pd(load(xs, i), vm);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            let d = xs[i] - m;
            total += d * d;
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn centered_dot(a: &[f64], b: &[f64], m: f64) -> f64 {
        let n = a.len();
        let lanes = n & !3;
        let vm = _mm256_set1_pd(m);
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let da = _mm256_sub_pd(load(a, i), vm);
            let db = _mm256_sub_pd(load(b, i), vm);
            acc = _mm256_add_pd(acc, _mm256_mul_pd(da, db));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            total += (a[i] - m) * (b[i] - m);
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn project_dot(w: &[f64], x: &[f64], means: &[f64]) -> f64 {
        project_dot_n::<0>(w, x, means)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn project_rows(rows: &[f64], means: &[f64], components: &[f64], out: &mut [f64]) {
        with_dim!(means.len(), project_rows_n(rows, means, components, out))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn project_rows_n<const D: usize>(
        rows: &[f64],
        means: &[f64],
        components: &[f64],
        out: &mut [f64],
    ) {
        let d = dim::<D>(means.len());
        let k = components.len() / d;
        for (x, o) in rows.chunks_exact(d).zip(out.chunks_exact_mut(k)) {
            for (w, o) in components.chunks_exact(d).zip(o) {
                *o = project_dot_n::<D>(w, x, means);
            }
        }
    }

    /// [`project_dot`] for length `D` (`D = 0`: any length).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn project_dot_n<const D: usize>(w: &[f64], x: &[f64], means: &[f64]) -> f64 {
        let n = dim::<D>(w.len());
        let (w, x, means) = (&w[..n], &x[..n], &means[..n]);
        let lanes = n & !3;
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i < lanes {
            let c = _mm256_sub_pd(load(x, i), load(means, i));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(load(w, i), c));
            i += 4;
        }
        let mut total = hsum(acc);
        while i < n {
            total += w[i] * (x[i] - means[i]);
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let lanes = n & !3;
        let va = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i < lanes {
            let prod = _mm256_mul_pd(va, load(x, i));
            let cur = load(y, i);
            store(y, i, _mm256_add_pd(cur, prod));
            i += 4;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn znorm_apply(xs: &[f64], mean: f64, divisor: f64, out: &mut [f64]) {
        let n = xs.len();
        let lanes = n & !3;
        let vm = _mm256_set1_pd(mean);
        let vd = _mm256_set1_pd(divisor);
        let mut i = 0;
        while i < lanes {
            let z = _mm256_div_pd(_mm256_sub_pd(load(xs, i), vm), vd);
            store(out, i, z);
            i += 4;
        }
        while i < n {
            out[i] = (xs[i] - mean) / divisor;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn widen(src: &[f32], out: &mut [f64]) {
        let n = src.len();
        let lanes = n & !3;
        let mut i = 0;
        while i < lanes {
            let v = load_ps(src, i);
            store(out, i, _mm256_cvtps_pd(v));
            i += 4;
        }
        while i < n {
            out[i] = f64::from(src[i]);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream mixing magnitudes, signs, subnormals and
    /// NaN/infinities — the adversarial inputs of the parity contract.
    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 1
        }

        fn next(&mut self) -> f64 {
            let r = self.next_u64();
            match r % 64 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f64::MIN_POSITIVE / 8.0, // subnormal
                6 => -f64::MIN_POSITIVE / 16.0,
                7 => 1e300,
                8 => -1e-300,
                _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0,
            }
        }

        fn finite(&mut self) -> f64 {
            let r = self.next_u64();
            (r >> 11) as f64 / (1u64 << 53) as f64 * 20.0 - 10.0
        }

        fn vec(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.next()).collect()
        }
    }

    /// The parity contract: exact `to_bits` equality, except that a NaN
    /// result only requires NaN from the other side — IEEE leaves NaN
    /// payload propagation unspecified and LLVM freely commutes scalar
    /// additions, so payload bits are not reproducible even between two
    /// scalar builds.
    fn assert_bits_eq(a: f64, b: f64, what: &str) {
        if a.is_nan() && b.is_nan() {
            return;
        }
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a:?} vs {b:?}");
    }

    /// Runs `f` against both implementations of a reduction and asserts
    /// exact equality. On non-x86_64 (or hosts without AVX2) this degrades
    /// to scalar self-consistency.
    fn check_reduction(what: &str, scalar_v: f64, simd_v: Option<f64>) {
        if let Some(v) = simd_v {
            assert_bits_eq(scalar_v, v, what);
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn have_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[test]
    fn active_reports_a_known_mode() {
        assert!(matches!(active(), "scalar" | "avx2"));
    }

    #[test]
    fn scalar_and_avx2_are_bit_identical_on_adversarial_inputs() {
        let mut g = Gen(0x5eed_1234_abcd_0001);
        // Every length 0..64 plus some longer ones: covers all tail shapes
        // and the lane boundary; unaligned views via the offset slice.
        let lens: Vec<usize> = (0..64).chain([100, 255, 1000]).collect();
        for &len in &lens {
            let a = g.vec(len + 1);
            let b = g.vec(len + 1);
            for off in 0..=1usize.min(len) {
                let (ax, bx) = (&a[off..len], &b[off..len]);
                let shift = g.finite();
                // `mode()` is process-global, so exercise the two
                // implementations directly rather than through env.
                #[cfg(target_arch = "x86_64")]
                let simd = have_avx2();

                let s_dot = scalar::dot(ax, bx);
                let s_sq = scalar::squared_distance(ax, bx);
                let s_sum = scalar::sum(ax);
                let s_css = scalar::centered_sum_sq(ax, shift);
                let s_cd = scalar::centered_dot(ax, bx, shift);
                let s_pd = scalar::project_dot(ax, bx, &vec![shift; ax.len()]);
                #[cfg(target_arch = "x86_64")]
                if simd {
                    // SAFETY: guarded by have_avx2().
                    unsafe {
                        check_reduction("dot", s_dot, Some(avx2::dot(ax, bx)));
                        check_reduction("sqdist", s_sq, Some(avx2::squared_distance(ax, bx)));
                        check_reduction("sum", s_sum, Some(avx2::sum(ax)));
                        check_reduction(
                            "centered_sum_sq",
                            s_css,
                            Some(avx2::centered_sum_sq(ax, shift)),
                        );
                        check_reduction(
                            "centered_dot",
                            s_cd,
                            Some(avx2::centered_dot(ax, bx, shift)),
                        );
                        check_reduction(
                            "project_dot",
                            s_pd,
                            Some(avx2::project_dot(ax, bx, &vec![shift; ax.len()])),
                        );
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    check_reduction("dot", s_dot, None);
                    let _ = (s_sq, s_sum, s_css, s_cd, s_pd);
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_identical() {
        let mut g = Gen(0x5eed_5678_0000_0002);
        for len in (0..40).chain([129usize]) {
            let x = g.vec(len);
            let alpha = g.finite();
            let mean = g.finite();
            let divisor = g.finite().abs() + 0.5;
            let y0 = g.vec(len);

            let mut ys = y0.clone();
            scalar::axpy(alpha, &x, &mut ys);
            let mut zs = vec![0.0; len];
            scalar::znorm_apply(&x, mean, divisor, &mut zs);

            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                // SAFETY: guarded by have_avx2().
                unsafe {
                    let mut yv = y0.clone();
                    avx2::axpy(alpha, &x, &mut yv);
                    let mut zv = vec![0.0; len];
                    avx2::znorm_apply(&x, mean, divisor, &mut zv);
                    for i in 0..len {
                        assert_bits_eq(ys[i], yv[i], "axpy");
                        assert_bits_eq(zs[i], zv[i], "znorm_apply");
                    }
                }
            }
        }
    }

    #[test]
    fn widen_is_exact_in_both_paths() {
        let mut g = Gen(0x5eed_def0_0000_0004);
        for len in [0usize, 1, 3, 4, 5, 17, 100] {
            let src: Vec<f32> = (0..len).map(|_| g.next() as f32).collect();
            let mut out_s = vec![0.0; len];
            scalar::widen(&src, &mut out_s);
            for i in 0..len {
                assert_bits_eq(out_s[i], f64::from(src[i]), "widen scalar");
            }
            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                // SAFETY: guarded by have_avx2().
                unsafe {
                    let mut out_v = vec![0.0; len];
                    avx2::widen(&src, &mut out_v);
                    for i in 0..len {
                        assert_bits_eq(out_s[i], out_v[i], "widen");
                    }
                }
            }
        }
    }

    #[test]
    fn public_entry_points_agree_with_scalar_reference() {
        // Whatever mode the process selected, the dispatched result must be
        // bit-identical to the scalar reference — this is the cross-dispatch
        // parity contract exercised end-to-end (CI also runs the whole suite
        // under LARP_KERNELS=scalar).
        let mut g = Gen(0x5eed_1111_0000_0005);
        for len in [0usize, 1, 2, 3, 4, 7, 8, 40, 100] {
            let a = g.vec(len);
            let b = g.vec(len);
            let m = g.finite();
            assert_bits_eq(dot(&a, &b), scalar::dot(&a, &b), "pub dot");
            assert_bits_eq(
                squared_distance(&a, &b),
                scalar::squared_distance(&a, &b),
                "pub sqdist",
            );
            assert_bits_eq(sum(&a), scalar::sum(&a), "pub sum");
            assert_bits_eq(centered_sum_sq(&a, m), scalar::centered_sum_sq(&a, m), "pub css");
            assert_bits_eq(centered_dot(&a, &b, m), scalar::centered_dot(&a, &b, m), "pub cd");
        }
    }

    /// The batched projection against its reference, the per-(row,
    /// component) `project_dot` loop, for every fixed instance (d = 1..=16)
    /// and the runtime one, on random row counts, in both implementations
    /// and through the dispatched entry point.
    #[test]
    fn project_rows_matches_per_row_project_dot() {
        let mut g = Gen(0x5eed_3333_0000_0007);
        for d in (1..=16usize).chain([17, 23]) {
            for _ in 0..6 {
                let n = (g.next_u64() % 48) as usize;
                let k = 1 + (g.next_u64() % 3) as usize;
                let rows = g.vec(n * d);
                let means = g.vec(d);
                let comps = g.vec(k * d);
                let reference: Vec<f64> = rows
                    .chunks_exact(d)
                    .flat_map(|x| comps.chunks_exact(d).map(|w| scalar::project_dot(w, x, &means)))
                    .collect();
                let mut out = vec![0.0; n * k];
                if n > 0 {
                    scalar::project_rows(&rows, &means, &comps, &mut out);
                }
                for (a, b) in out.iter().zip(&reference) {
                    assert_bits_eq(*a, *b, "scalar project_rows");
                }
                let mut out = vec![0.0; n * k];
                project_rows(&rows, &means, &comps, &mut out);
                for (a, b) in out.iter().zip(&reference) {
                    assert_bits_eq(*a, *b, "dispatched project_rows");
                }
                #[cfg(target_arch = "x86_64")]
                if have_avx2() && n > 0 {
                    let mut out = vec![0.0; n * k];
                    // SAFETY: guarded by have_avx2().
                    unsafe { avx2::project_rows(&rows, &means, &comps, &mut out) };
                    for (a, b) in out.iter().zip(&reference) {
                        assert_bits_eq(*a, *b, "avx2 project_rows");
                    }
                }
            }
        }
    }

    #[test]
    fn vec_wrappers_resize_and_fill() {
        let mut out = Vec::new();
        znorm_apply_into(&[1.0, 2.0, 3.0], 2.0, 2.0, &mut out);
        assert_eq!(out, vec![-0.5, 0.0, 0.5]);
        let mut wide = vec![9.0; 10];
        widen_into(&[1.5f32, -2.0], &mut wide);
        assert_eq!(wide, vec![1.5, -2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
