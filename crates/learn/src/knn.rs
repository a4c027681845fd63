//! The k-nearest-neighbour classifier (paper §5.1).
//!
//! Memory-based: "training" stores the labelled points; classification finds
//! the `k` closest training points by Euclidean distance and takes the
//! majority vote. The neighbour search is brute force, `O(N)` per query as
//! in the paper: a served model indexes about 35 points and the paper's
//! tables a few hundred, too few for a logarithmic index to pay for itself.
//!
//! # Hot-path layout
//!
//! Training points live in one flat row-major buffer (stride =
//! [`dim`](KnnClassifier::dim)), so queries walk contiguous memory instead of
//! chasing per-point heap pointers. The search is one fused pass that
//! computes each point's distance and keeps the `k` best in the output
//! buffer (see `keep_nearest`) rather than sorting all `N` candidates, and
//! the `_into` query variants write into caller-owned scratch so the
//! steady-state serving path performs no heap allocation.

use linalg::vecops::squared_distance;

use crate::vote::majority_vote;
use crate::{LearnError, Result};

/// The largest class id a classifier stores: labels are kept as bytes.
pub const MAX_LABEL: usize = u8::MAX as usize;

/// A fitted k-NN classifier over a flat struct-of-arrays point store.
pub struct KnnClassifier {
    k: usize,
    /// Row-major `len × dim` training points.
    points: Box<[f64]>,
    dim: usize,
    /// One class per point; a class fits a byte (at most 256 classes).
    labels: Box<[u8]>,
    n_classes: usize,
}

impl KnnClassifier {
    /// "Trains" (indexes) the classifier on labelled points given as one
    /// flat row-major buffer (`points.len() == n · dim`), copied once into
    /// the index's store.
    ///
    /// # Errors
    ///
    /// * [`LearnError::InvalidParameter`] if `k == 0` or a label exceeds
    ///   [`MAX_LABEL`];
    /// * [`LearnError::InsufficientData`] if `points` is empty;
    /// * [`LearnError::ShapeMismatch`] if `dim == 0`, `points.len()` is not a
    ///   multiple of `dim`, or the point and label counts differ.
    pub fn fit_flat(points: &[f64], dim: usize, labels: &[usize], k: usize) -> Result<Self> {
        let mut knn = Self { k, points: Box::new([]), dim, labels: Box::new([]), n_classes: 0 };
        knn.refit_flat(points, dim, labels, k)?;
        Ok(knn)
    }

    /// [`KnnClassifier::fit_flat`] into this classifier's storage: a refit
    /// with as many points of the same width overwrites the point store and
    /// the labels in place and allocates nothing. Same index as a fresh fit.
    ///
    /// # Errors
    ///
    /// Same conditions as [`KnnClassifier::fit_flat`]. After an error the
    /// classifier must be refit before it is queried again.
    pub fn refit_flat(
        &mut self,
        points: &[f64],
        dim: usize,
        labels: &[usize],
        k: usize,
    ) -> Result<()> {
        if k == 0 {
            return Err(LearnError::InvalidParameter("k must be >= 1".into()));
        }
        if points.is_empty() {
            return Err(LearnError::InsufficientData("k-NN with no training points".into()));
        }
        if dim == 0 {
            return Err(LearnError::ShapeMismatch("points must have dimension >= 1".into()));
        }
        if !points.len().is_multiple_of(dim) {
            return Err(LearnError::ShapeMismatch(format!(
                "flat buffer of {} values is not a multiple of dim {dim}",
                points.len()
            )));
        }
        let n = points.len() / dim;
        if n != labels.len() {
            return Err(LearnError::ShapeMismatch(format!(
                "{n} points vs {} labels",
                labels.len()
            )));
        }
        let max_label = labels.iter().copied().max().unwrap_or(0);
        if max_label > MAX_LABEL {
            return Err(LearnError::InvalidParameter(format!(
                "label {max_label} exceeds the largest class id {MAX_LABEL}"
            )));
        }
        self.n_classes = max_label + 1;
        if self.points.len() == points.len() {
            self.points.copy_from_slice(points);
        } else {
            self.points = points.into();
        }
        if self.labels.len() == labels.len() {
            for (stored, &label) in self.labels.iter_mut().zip(labels) {
                *stored = label as u8;
            }
        } else {
            self.labels = labels.iter().map(|&l| l as u8).collect();
        }
        (self.k, self.dim) = (k, dim);
        Ok(())
    }

    /// Heap bytes held by the classifier: the point store and the labels.
    /// Used for per-stream memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<f64>() + self.labels.len()
    }

    /// The configured neighbour count `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed training points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the classifier has no training points (never after a fit).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of distinct classes (max label + 1).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The flat row-major training points (`len() · dim()` values, insertion
    /// order). Together with [`labels`](Self::labels) and `k` these fully
    /// describe the classifier — feed them back through
    /// [`KnnClassifier::fit_flat`] to restore a serialized instance.
    pub fn points_flat(&self) -> &[f64] {
        &self.points
    }

    /// One training point by index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// The training labels, parallel to [`points_flat`](Self::points_flat).
    pub fn labels(&self) -> &[u8] {
        &self.labels
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Returns the `k` nearest `(label, squared_distance)` pairs, nearest first.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn neighbors(&self, query: &[f64]) -> Result<Vec<(usize, f64)>> {
        let mut out = Vec::with_capacity(self.k + 1);
        self.neighbors_into(query, &mut out)?;
        Ok(out)
    }

    /// [`KnnClassifier::neighbors`] into a caller-owned buffer (cleared
    /// first). A buffer with capacity `k + 1` never reallocates.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn neighbors_into(&self, query: &[f64], out: &mut Vec<(usize, f64)>) -> Result<()> {
        if query.len() != self.dim {
            return Err(LearnError::ShapeMismatch(format!(
                "query dim {} vs training dim {}",
                query.len(),
                self.dim
            )));
        }
        out.clear();
        // One fused pass: each point's squared distance (the 2-d post-PCA
        // space spelled out, any other dim through the shared kernel) goes
        // straight into the bounded top-k.
        if self.dim == 2 {
            let (qx, qy) = (query[0], query[1]);
            for (i, p) in self.points.chunks_exact(2).enumerate() {
                let (dx, dy) = (qx - p[0], qy - p[1]);
                keep_nearest(out, self.k, i, dx * dx + dy * dy);
            }
        } else {
            for (i, p) in self.points.chunks_exact(self.dim).enumerate() {
                keep_nearest(out, self.k, i, squared_distance(query, p));
            }
        }
        for entry in out.iter_mut() {
            entry.0 = usize::from(self.labels[entry.0]);
        }
        Ok(())
    }

    /// Classifies one query by majority vote among its `k` nearest neighbours.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn classify(&self, query: &[f64]) -> Result<usize> {
        let mut scratch = Vec::with_capacity(self.k + 1);
        self.classify_into(query, &mut scratch)
    }

    /// [`KnnClassifier::classify`] using a caller-owned neighbour buffer, for
    /// allocation-free repeated queries.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::ShapeMismatch`] if `query.len() != dim()`.
    pub fn classify_into(&self, query: &[f64], scratch: &mut Vec<(usize, f64)>) -> Result<usize> {
        self.neighbors_into(query, scratch)?;
        Ok(majority_vote(scratch).expect("k >= 1 guarantees a neighbour"))
    }
}

/// Offers point `i` at squared distance `d` to `best`, the `k` nearest so far
/// in ascending `(distance, index)` order (`total_cmp`, so a NaN distance
/// ranks after every number). Points arrive in ascending index order, so a
/// candidate loses every distance tie: it is rejected unless it beats the
/// current `k`-th, and it is inserted from the back past strictly greater
/// distances only. The result is the first `k` of all points sorted by
/// `(distance, index)`. `best` never grows past `k`.
#[inline(always)]
fn keep_nearest(best: &mut Vec<(usize, f64)>, k: usize, i: usize, d: f64) {
    if best.len() == k {
        if best[k - 1].1.total_cmp(&d).is_le() {
            return;
        }
        best.pop();
    }
    best.push((i, d));
    let mut pos = best.len() - 1;
    while pos > 0 && best[pos - 1].1.total_cmp(&d).is_gt() {
        best[pos] = best[pos - 1];
        pos -= 1;
    }
    best[pos] = (i, d);
}

impl std::fmt::Debug for KnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnClassifier")
            .field("k", &self.k)
            .field("points", &self.len())
            .field("classes", &self.n_classes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{Rng64, Xoshiro256pp};

    /// Two well-separated Gaussian-ish blobs.
    fn blobs(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let (cx, cy, label) = if i % 2 == 0 { (-5.0, -5.0, 0) } else { (5.0, 5.0, 1) };
            pts.push(vec![cx + rng.uniform(-1.0, 1.0), cy + rng.uniform(-1.0, 1.0)]);
            labels.push(label);
        }
        (pts, labels)
    }

    /// Fits on equal-width points given one `Vec` per point.
    fn fit(pts: &[Vec<f64>], labels: &[usize], k: usize) -> Result<KnnClassifier> {
        KnnClassifier::fit_flat(&pts.concat(), pts[0].len(), labels, k)
    }

    #[test]
    fn refit_matches_a_fresh_fit() {
        // One classifier's storage refit across sizes and widths answers
        // every query exactly as a fresh fit does.
        let (pts, labels) = blobs(7, 40);
        let flat: Vec<f64> = pts.concat();
        let mut knn = KnnClassifier::fit_flat(&flat, 2, &labels, 3).unwrap();
        for (seed, n, dim, k) in [(1, 40, 2, 3), (2, 40, 2, 1), (3, 64, 1, 5), (4, 40, 2, 3)] {
            let (pts, labels) = blobs(seed, n);
            let flat: Vec<f64> = pts.concat();
            let points = &flat[..n * dim];
            knn.refit_flat(points, dim, &labels, k).unwrap();
            let fresh = KnnClassifier::fit_flat(points, dim, &labels, k).unwrap();
            assert_eq!((knn.k(), knn.dim()), (k, dim));
            assert_eq!(knn.points_flat(), fresh.points_flat());
            assert_eq!(knn.labels(), fresh.labels());
            assert_eq!(knn.n_classes(), fresh.n_classes());
            for i in 0..10 {
                let q = fresh.point(i);
                assert_eq!(knn.neighbors(q).unwrap(), fresh.neighbors(q).unwrap());
            }
        }
        assert!(knn.refit_flat(&flat, 2, &labels, 0).is_err());
    }

    #[test]
    fn separable_blobs_classify_perfectly() {
        let (pts, labels) = blobs(1, 100);
        let knn = fit(&pts, &labels, 3).unwrap();
        assert_eq!(knn.classify(&[-5.0, -4.5]).unwrap(), 0);
        assert_eq!(knn.classify(&[4.5, 5.5]).unwrap(), 1);
    }

    #[test]
    fn one_nn_returns_label_of_closest_point() {
        let knn = KnnClassifier::fit_flat(&[0.0, 0.0, 10.0, 0.0], 2, &[4, 9], 1).unwrap();
        assert_eq!(knn.classify(&[1.0, 0.0]).unwrap(), 4);
        assert_eq!(knn.classify(&[9.0, 0.0]).unwrap(), 9);
        assert_eq!(knn.n_classes(), 10);
    }

    #[test]
    fn bounded_topk_matches_full_sort_reference() {
        // The bounded top-k selection must return exactly the (index,
        // distance) pairs a sort-everything search produces, including tie
        // order. Labels are set to the point indices so `neighbors` exposes
        // indices directly. Duplicated points force exact distance ties.
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut pts: Vec<Vec<f64>> =
            (0..200).map(|_| vec![rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]).collect();
        for i in 0..20 {
            let dup = pts[i * 3].clone();
            pts.push(dup);
        }
        let n = pts.len();
        let labels: Vec<usize> = (0..n).collect();
        for k in [1, 3, 7, 50, n + 5] {
            let knn = fit(&pts, &labels, k).unwrap();
            for _ in 0..50 {
                let q = vec![rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)];
                // Score all N, full sort, truncate.
                let mut reference: Vec<(usize, f64)> =
                    pts.iter().enumerate().map(|(i, p)| (i, squared_distance(&q, p))).collect();
                reference.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                reference.truncate(k);
                assert_eq!(knn.neighbors(&q).unwrap(), reference, "k = {k}");
            }
        }
    }

    #[test]
    fn neighbors_into_reuses_the_buffer_without_reallocating() {
        let (pts, labels) = blobs(9, 120);
        let knn = fit(&pts, &labels, 5).unwrap();
        let mut buf = Vec::with_capacity(6);
        let ptr = buf.as_ptr();
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        for _ in 0..100 {
            let q = [rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)];
            knn.neighbors_into(&q, &mut buf).unwrap();
            assert_eq!(buf.len(), 5);
        }
        assert_eq!(ptr, buf.as_ptr(), "k+1-capacity buffer must never grow");
    }

    #[test]
    fn neighbors_are_sorted_nearest_first() {
        let (pts, labels) = blobs(4, 50);
        let knn = fit(&pts, &labels, 5).unwrap();
        let n = knn.neighbors(&[0.0, 0.0]).unwrap();
        assert_eq!(n.len(), 5);
        for w in n.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn k_exceeding_training_size_uses_all_points() {
        let knn = KnnClassifier::fit_flat(&[0.0, 1.0, 2.0], 1, &[0, 0, 1], 9).unwrap();
        // All three points vote: 0 wins 2:1.
        assert_eq!(knn.classify(&[0.5]).unwrap(), 0);
    }

    #[test]
    fn fit_validation() {
        assert!(KnnClassifier::fit_flat(&[1.0], 1, &[0], 0).is_err());
        assert!(KnnClassifier::fit_flat(&[1.0], 1, &[0, 1], 1).is_err());
        assert!(KnnClassifier::fit_flat(&[1.0, 2.0, 3.0], 2, &[0], 1).is_err());
        assert!(KnnClassifier::fit_flat(&[1.0, 2.0], 0, &[0], 1).is_err());
        assert!(KnnClassifier::fit_flat(&[], 2, &[], 1).is_err());
        // Labels are stored as bytes: class 255 is the largest.
        assert!(KnnClassifier::fit_flat(&[1.0, 2.0], 1, &[0, MAX_LABEL], 1).is_ok());
        assert!(KnnClassifier::fit_flat(&[1.0, 2.0], 1, &[0, MAX_LABEL + 1], 1).is_err());
    }

    #[test]
    fn query_dim_checked() {
        let (pts, labels) = blobs(8, 10);
        let knn = fit(&pts, &labels, 1).unwrap();
        assert!(knn.classify(&[1.0]).is_err());
    }
}
