//! Randomized property tests for the learning substrate.
//!
//! Seeded `simrng` loops replace the original proptest strategies so the
//! suite runs without external crates; every case is deterministic per seed.

use learn::{eval, split, KdTree, KnnBackend, KnnClassifier, Pca};
use linalg::vecops::squared_distance;
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

/// The fused brute-force scan returns the first `k` of all points sorted by
/// `(distance, index)`: the same indices and the same distance bits, for
/// `k` past the point count too. Grid coordinates and copied points make
/// equal distances common, and some cases carry one NaN coordinate, which
/// must rank last.
#[test]
fn brute_force_scan_equals_sort_all_reference() {
    let mut rng = Xoshiro256pp::seed_from_u64(207);
    for dim in [1usize, 2, 3, 5, 16] {
        for case in 0..24 {
            let n = 1 + rng.next_below(48) as usize;
            let coord = |rng: &mut Xoshiro256pp| {
                if case % 2 == 0 {
                    rng.next_below(5) as f64 - 2.0
                } else {
                    rng.uniform(-3.0, 3.0)
                }
            };
            let mut pts: Vec<Vec<f64>> =
                (0..n).map(|_| (0..dim).map(|_| coord(&mut rng)).collect()).collect();
            for _ in 0..rng.next_below(4) {
                let copy = pts[rng.next_below(pts.len() as u64) as usize].clone();
                pts.push(copy);
            }
            if case % 3 == 0 {
                let i = rng.next_below(pts.len() as u64) as usize;
                pts[i][rng.next_below(dim as u64) as usize] = f64::NAN;
            }
            let q: Vec<f64> = (0..dim).map(|_| coord(&mut rng)).collect();
            let n = pts.len();
            // Labels are the point indices, so `neighbors` reports indices.
            let labels: Vec<usize> = (0..n).collect();
            let mut all: Vec<(usize, f64)> =
                pts.iter().enumerate().map(|(i, p)| (i, squared_distance(&q, p))).collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            for k in (1..=7).chain([n + 2]) {
                let knn =
                    KnnClassifier::fit(pts.clone(), labels.clone(), k, KnnBackend::BruteForce)
                        .unwrap();
                let got: Vec<(usize, u64)> =
                    knn.neighbors(&q).unwrap().iter().map(|&(i, d)| (i, d.to_bits())).collect();
                let want: Vec<(usize, u64)> =
                    all.iter().take(k).map(|&(i, d)| (i, d.to_bits())).collect();
                assert_eq!(got, want, "dim {dim}, case {case}, k {k}");
            }
        }
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
