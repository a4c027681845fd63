//! PERF — microbenchmarks of the learning substrate (paper §7.3): PCA cost,
//! brute-force k-NN query cost against the index size N (35 is a served
//! model's index), and training indexing.

use std::hint::black_box;

use larp_bench::microbench::BenchGroup;
use learn::{KnnClassifier, Pca};
use linalg::Matrix;
use simrng::{Rng64, Xoshiro256pp};

fn window_matrix(rows: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * dim).map(|_| rng.uniform(-2.0, 2.0)).collect();
    Matrix::from_vec(rows, dim, data).unwrap()
}

fn bench_pca() {
    let g = BenchGroup::new("pca");
    for dim in [5usize, 16] {
        let data = window_matrix(512, dim, 1);
        g.bench(&format!("fit_{dim}"), || Pca::fit(black_box(&data), 2).unwrap());
        let pca = Pca::fit(&data, 2).unwrap();
        let query: Vec<f64> = (0..dim).map(|i| i as f64 * 0.1).collect();
        g.bench(&format!("transform_{dim}"), || pca.transform(black_box(&query)).unwrap());
    }
}

fn bench_knn_query() {
    let g = BenchGroup::new("knn_query");
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    for n in [35usize, 256, 1024, 4096, 16384] {
        let points: Vec<f64> = (0..2 * n).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let query = vec![0.3, -0.7];
        let knn = KnnClassifier::fit_flat(&points, 2, &labels, 3).unwrap();
        g.bench(&format!("brute_{n}"), || knn.classify(black_box(&query)).unwrap());
    }
}

fn bench_knn_index_build() {
    let g = BenchGroup::new("knn_index");
    let mut rng = Xoshiro256pp::seed_from_u64(3);
    let n = 4096;
    let points: Vec<f64> = (0..2 * n).map(|_| rng.uniform(-3.0, 3.0)).collect();
    let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
    g.bench("brute_fit_4096", || {
        KnnClassifier::fit_flat(black_box(&points), 2, &labels, 3).unwrap()
    });
}

fn main() {
    bench_pca();
    bench_knn_query();
    bench_knn_index_build();
}
