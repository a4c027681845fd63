//! PERF — the zero-allocation hot path, allocating vs scratch-reuse variants
//! side by side: k-NN query, PCA projection, and the full online serving step
//! (sanitize → normalize → classify → predict). The `_into` rows are what the
//! fleet workers actually run; the allocating rows are the pre-optimization
//! baseline kept for comparison.
//!
//! With `--json` the run additionally prints one JSON object mapping every
//! `group/name` row to its median ns/iter — the machine-readable artifact the
//! CI regression gate compares against `results/BENCH_hotpath.json`. Kernel
//! dispatch follows `LARP_KERNELS` as everywhere else, so the same run works
//! for both the AVX2 and forced-scalar profiles.

use std::hint::black_box;

use larp::{GuardedLarp, IngestConfig, LarpConfig, OnlineLarp, QualityAssuror, Scratch};
use larp_bench::microbench::BenchGroup;
use learn::{KnnClassifier, Pca};
use linalg::Matrix;
use simrng::{Rng64, Xoshiro256pp};

/// A [`BenchGroup`] that also records every `group/name → median ns` row for
/// the `--json` artifact.
struct Rec<'a> {
    group: &'static str,
    g: BenchGroup,
    rows: &'a mut Vec<(String, f64)>,
}

impl<'a> Rec<'a> {
    fn new(group: &'static str, rows: &'a mut Vec<(String, f64)>) -> Self {
        Self { group, g: BenchGroup::new(group), rows }
    }

    fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        let ns = self.g.bench(name, f);
        self.rows.push((format!("{}/{name}", self.group), ns));
    }
}

fn bench_knn_query(rows: &mut Vec<(String, f64)>) {
    let mut g = Rec::new("hot_knn", rows);
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    // 35 points ≈ the training set a 40-sample online retrain produces.
    for n in [35usize, 1024] {
        let points: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let knn = KnnClassifier::fit_flat(&points.concat(), 2, &labels, 3).unwrap();
        let query = vec![0.3, -0.7];
        g.bench(&format!("classify_alloc_{n}"), || knn.classify(black_box(&query)).unwrap());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        g.bench(&format!("classify_into_{n}"), || {
            knn.classify_into(black_box(&query), &mut scratch).unwrap()
        });
    }
}

fn bench_pca_project(rows: &mut Vec<(String, f64)>) {
    let mut g = Rec::new("hot_pca", rows);
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    let data: Vec<f64> = (0..512 * 5).map(|_| rng.uniform(-2.0, 2.0)).collect();
    let pca = Pca::fit(&Matrix::from_vec(512, 5, data).unwrap(), 2).unwrap();
    let window = [0.1, -0.4, 0.9, 0.2, -0.6];
    g.bench("project_alloc", || pca.transform(black_box(&window)).unwrap());
    let mut out = Vec::new();
    g.bench("project_into", || pca.transform_into(black_box(&window), &mut out).unwrap());
}

fn signal(minute: u64) -> f64 {
    40.0 + (minute as f64 * 0.17).sin() * 6.0 + (minute as f64 * 0.031).cos() * 2.5
}

fn warm_online() -> OnlineLarp {
    let qa = QualityAssuror::new(1e12, 8, 4).unwrap();
    let mut online = OnlineLarp::new(LarpConfig::default(), 40, qa).unwrap();
    for minute in 0..512u64 {
        online.push(signal(minute));
    }
    online
}

fn bench_online_step(rows: &mut Vec<(String, f64)>) {
    let mut g = Rec::new("hot_online_step", rows);
    let mut online = warm_online();
    let mut minute = 512u64;
    g.bench("push_internal_scratch", || {
        minute += 1;
        online.push(black_box(signal(minute)))
    });
    let mut online = warm_online();
    let mut scratch = Scratch::new();
    let mut minute = 512u64;
    g.bench("push_with_scratch", || {
        minute += 1;
        online.push_with(black_box(signal(minute)), &mut scratch)
    });

    let qa = QualityAssuror::new(1e12, 8, 4).unwrap();
    let mut guarded = GuardedLarp::new(IngestConfig::default(), LarpConfig::default(), 40, qa)
        .expect("valid guarded stack");
    let mut steps = Vec::new();
    let mut scratch = Scratch::new();
    for minute in 0..512u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
    }
    let mut minute = 512u64;
    g.bench("guarded_ingest_alloc", || {
        minute += 1;
        guarded.ingest(black_box(minute), black_box(signal(minute)))
    });
    let mut minute = 512u64;
    g.bench("guarded_ingest_into", || {
        minute += 1;
        guarded.ingest_into(black_box(minute), black_box(signal(minute)), &mut scratch, &mut steps)
    });
}

fn bench_retrain(rows: &mut Vec<(String, f64)>) {
    // The online serving layer retrains on a train_size (40) tail; on busy
    // fleets this happens every few steps per stream, so its cost is as much
    // part of the hot path as the per-sample step.
    let mut g = Rec::new("hot_retrain", rows);
    let tail: Vec<f64> = (0..40).map(signal).collect();
    let config = LarpConfig::default();
    g.bench("train_40_tail", || larp::TrainedLarp::train(black_box(&tail), &config).unwrap());

    let zscore = timeseries::ZScore::fit(&tail).unwrap();
    let normalized = zscore.apply_slice(&tail);
    g.bench("pool_fit_40", || {
        predictors::PredictorPool::from_specs(black_box(&config.pool), &normalized).unwrap()
    });
    let pool = predictors::PredictorPool::from_specs(&config.pool, &normalized).unwrap();
    g.bench("label_35_windows", || {
        larp::labeler::label_windows(black_box(&pool), &normalized, 5).unwrap()
    });
    let labeled = larp::labeler::label_windows(&pool, &normalized, 5).unwrap();
    let rows_: Vec<Vec<f64>> = labeled.iter().map(|lw| lw.window.clone()).collect();
    let matrix = Matrix::from_rows(&rows_).unwrap();
    g.bench("pca_fit_35x5", || Pca::fit(black_box(&matrix), 2).unwrap());
    g.bench("cov_35x5", || black_box(&matrix).covariance());
    let cov = matrix.covariance();
    g.bench("sym_eigen_5x5", || linalg::SymEigen::decompose(black_box(&cov)).unwrap());
}

fn bench_producer_signal(rows: &mut Vec<(String, f64)>) {
    // What the fleet_throughput producer pays per sample before the engine
    // ever sees it.
    let mut g = Rec::new("hot_producer", rows);
    let mut sig = vmsim::fleet_signal(2007, 17);
    let mut minute = 0u64;
    g.bench("fleet_signal_sample", || {
        minute += 1;
        sig.sample(black_box(minute))
    });
}

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    let mut rows: Vec<(String, f64)> = Vec::new();
    bench_knn_query(&mut rows);
    bench_pca_project(&mut rows);
    bench_online_step(&mut rows);
    bench_retrain(&mut rows);
    bench_producer_signal(&mut rows);
    if json {
        println!("{{");
        println!("  \"bench\": \"hotpath_micro\",");
        println!("  \"unit\": \"ns_per_iter_median\",");
        println!("  \"rows\": {{");
        for (i, (name, ns)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            println!("    \"{name}\": {ns:.1}{comma}");
        }
        println!("  }}");
        println!("}}");
    }
}
