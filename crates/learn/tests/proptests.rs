//! Randomized property tests for the learning substrate.
//!
//! Seeded `simrng` loops replace the original proptest strategies so the
//! suite runs without external crates; every case is deterministic per seed.

use learn::{eval, split, KdTree, KnnBackend, KnnClassifier, Pca};
use linalg::Matrix;
use simrng::{Rng64, Xoshiro256pp};

fn random_vec(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
}

fn points(rng: &mut Xoshiro256pp, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| random_vec(rng, dim, -50.0, 50.0)).collect()
}

/// kd-tree k-NN identical to brute force, including tie ordering.
#[test]
fn kdtree_equals_brute_force() {
    let mut rng = Xoshiro256pp::seed_from_u64(201);
    for _ in 0..48 {
        let pts = points(&mut rng, 40, 2);
        let q = random_vec(&mut rng, 2, -60.0, 60.0);
        let k = 1 + rng.next_below(7) as usize;
        let tree = KdTree::build(pts.clone()).unwrap();
        let got = tree.nearest(&q, k).unwrap();
        let mut all: Vec<(usize, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (i, (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        assert_eq!(got, all);
    }
}

/// Both k-NN back-ends classify identically for any k.
#[test]
fn knn_backends_agree() {
    let mut rng = Xoshiro256pp::seed_from_u64(202);
    for _ in 0..48 {
        let pts = points(&mut rng, 30, 3);
        let q = random_vec(&mut rng, 3, -60.0, 60.0);
        let k = 1 + rng.next_below(6) as usize;
        let labels: Vec<usize> = (0..pts.len()).map(|i| i % 3).collect();
        let brute =
            KnnClassifier::fit(pts.clone(), labels.clone(), k, KnnBackend::BruteForce).unwrap();
        let tree = KnnClassifier::fit(pts, labels, k, KnnBackend::KdTree).unwrap();
        assert_eq!(brute.classify(&q).unwrap(), tree.classify(&q).unwrap());
    }
}

/// PCA reconstruction error never increases with more components.
#[test]
fn pca_reconstruction_monotone() {
    let mut rng = Xoshiro256pp::seed_from_u64(203);
    for _ in 0..48 {
        let m = Matrix::from_vec(10, 4, random_vec(&mut rng, 40, -20.0, 20.0)).unwrap();
        let mut prev = f64::INFINITY;
        for n in 1..=4 {
            let pca = Pca::fit(&m, n).unwrap();
            let mut err = 0.0;
            for row in m.iter_rows() {
                let z = pca.transform(row).unwrap();
                let back = pca.inverse_transform(&z).unwrap();
                err += row.iter().zip(&back).map(|(a, b)| (a - b).powi(2)).sum::<f64>();
            }
            assert!(err <= prev + 1e-6, "n={n}: {err} > {prev}");
            prev = err;
        }
        // Full rank reconstructs exactly.
        assert!(prev < 1e-9 * m.frobenius_norm().max(1.0));
    }
}

/// Explained-variance ratios are a descending probability vector.
#[test]
fn pca_variance_ratios_valid() {
    let mut rng = Xoshiro256pp::seed_from_u64(204);
    for _ in 0..48 {
        let m = Matrix::from_vec(12, 5, random_vec(&mut rng, 60, -20.0, 20.0)).unwrap();
        let pca = Pca::fit(&m, 5).unwrap();
        let r = pca.explained_variance_ratio();
        let total: f64 = r.iter().sum();
        assert!(total <= 1.0 + 1e-9);
        for w in r.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &x in &r {
            assert!(x >= -1e-12);
        }
    }
}

/// Random contiguous splits partition the index range.
#[test]
fn splits_partition() {
    let mut rng = Xoshiro256pp::seed_from_u64(206);
    for _ in 0..48 {
        let len = 20 + rng.next_below(480) as usize;
        let min_each = 1 + rng.next_below(9) as usize;
        let seed = rng.next_below(1000);
        let mut split_rng = Xoshiro256pp::seed_from_u64(seed);
        if let Some(s) = split::random_contiguous_split(len, min_each, &mut split_rng) {
            assert_eq!(s.train.start, 0);
            assert_eq!(s.train.end, s.test.start);
            assert_eq!(s.test.end, len);
            assert!(s.train.len() >= min_each && s.test.len() >= min_each);
        } else {
            assert!(len < 2 * min_each || min_each == 0);
        }
    }
}

/// Accuracy equals the confusion matrix's trace ratio.
#[test]
fn accuracy_consistent_with_confusion() {
    let mut rng = Xoshiro256pp::seed_from_u64(207);
    for _ in 0..48 {
        let n = 1 + rng.next_below(59) as usize;
        let labels: Vec<usize> = (0..n).map(|_| rng.next_below(4) as usize).collect();
        let preds: Vec<usize> = (0..n).map(|_| rng.next_below(4) as usize).collect();
        let acc = eval::accuracy(&preds, &labels).unwrap();
        let cm = eval::ConfusionMatrix::from_labels(&preds, &labels).unwrap();
        assert!((acc - cm.accuracy()).abs() < 1e-12);
        assert_eq!(cm.total(), labels.len());
    }
}
