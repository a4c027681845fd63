//! Randomized property tests for the learning substrate.
//!
//! Seeded `simrng` loops replace the original proptest strategies so the
//! suite runs without external crates; every case is deterministic per seed.

use learn::{split, KnnClassifier, Pca};
use linalg::vecops::squared_distance;
use linalg::Matrix;
use simrng::{Rng64, Xoshiro256pp};

fn random_vec(rng: &mut Xoshiro256pp, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..n).map(|_| rng.uniform(lo, hi)).collect()
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
                let knn = KnnClassifier::fit_flat(&pts.concat(), dim, &labels, k).unwrap();
                let got: Vec<(usize, u64)> =
                    knn.neighbors(&q).unwrap().iter().map(|&(i, d)| (i, d.to_bits())).collect();
                let want: Vec<(usize, u64)> =
                    all.iter().take(k).map(|&(i, d)| (i, d.to_bits())).collect();
                assert_eq!(got, want, "dim {dim}, case {case}, k {k}");
            }
        }
    }
}

/// The retained eigenvalues are non-negative, descending, and sum to at
/// most the total variance (exactly it at full rank).
#[test]
fn pca_eigenvalues_valid() {
    let mut rng = Xoshiro256pp::seed_from_u64(204);
    for _ in 0..48 {
        let m = Matrix::from_vec(12, 5, random_vec(&mut rng, 60, -20.0, 20.0)).unwrap();
        let full = Pca::fit(&m, 5).unwrap();
        let l = full.eigenvalues();
        assert!(
            (l.iter().sum::<f64>() - full.total_variance()).abs() <= 1e-9 * full.total_variance()
        );
        for w in l.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        for &x in l {
            assert!(x >= 0.0);
        }
        let two = Pca::fit(&m, 2).unwrap();
        assert!(two.eigenvalues().iter().sum::<f64>() <= two.total_variance());
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
