//! Robustness and failure-injection tests: degenerate inputs, outliers,
//! boundary sizes, and alternative configurations through the full pipeline.

use larp::config::FeatureReduction;
use larp::eval::{observed_best_scored, run_selector_scored, TraceReport};
use larp::{LarpConfig, TrainedLarp};

/// A well-behaved base trace.
fn base_trace(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let regime = (t / 30) % 2;
            if regime == 0 {
                (t % 30) as f64 * 0.1
            } else {
                5.0 + if t % 2 == 0 { 1.0 } else { -1.0 }
            }
        })
        .collect()
}

#[test]
fn constant_trace_trains_and_predicts_exactly() {
    // A completely flat trace: z-score degrades to centering, AR degrades to
    // persistence, and every forecast must be exactly the constant.
    let values = vec![7.5; 100];
    let model = TrainedLarp::train(&values[..50], &LarpConfig::default()).unwrap();
    let (_, f) = model.predict_next_raw(&values[50..80]).unwrap();
    assert_eq!(f, 7.5);
    let report = TraceReport::evaluate("flat", &values, &LarpConfig::default(), 3, 1).unwrap();
    assert_eq!(report.mse_lar, 0.0);
    assert_eq!(report.mse_plar, 0.0);
}

#[test]
fn single_outlier_does_not_poison_training() {
    let mut values = base_trace(300);
    values[75] = 1e6; // monitoring glitch in the training half
    let model = TrainedLarp::train(&values[..150], &LarpConfig::default()).unwrap();
    let norm = model.zscore().apply_slice(&values);
    let run = run_selector_scored(&mut model.selector(), model.pool(), 5, &norm, 150).unwrap();
    assert!(run.mse.is_finite());
    for f in &run.forecasts {
        assert!(f.is_finite());
    }
}

#[test]
fn outlier_in_test_half_only_inflates_errors_finitely() {
    let mut values = base_trace(300);
    values[225] = 1e6;
    let report = TraceReport::evaluate("spiked", &values, &LarpConfig::default(), 3, 2).unwrap();
    assert!(report.mse_lar.is_finite());
    assert!(report.mse_plar <= report.mse_lar + 1e-9);
}

#[test]
fn minimum_viable_training_length() {
    // window + max(k, 2) is the documented minimum.
    let config = LarpConfig::default(); // m = 5, k = 3
    let values = base_trace(60);
    // AR(5) needs 2*5 = 10 points, windows need m + k = 8: 10 is the binding
    // minimum here.
    for len in 5..10 {
        assert!(TrainedLarp::train(&values[..len], &config).is_err(), "len {len}");
    }
    assert!(TrainedLarp::train(&values[..10], &config).is_ok());
}

#[test]
fn pca_fraction_and_none_reductions_run_end_to_end() {
    let values = base_trace(300);
    for reduction in [
        FeatureReduction::PcaFraction { min_fraction: 0.85 },
        FeatureReduction::None,
        FeatureReduction::Pca { dims: 1 },
        FeatureReduction::Pca { dims: 5 },
    ] {
        let config = LarpConfig { reduction: reduction.clone(), ..LarpConfig::default() };
        let report = TraceReport::evaluate("r", &values, &config, 2, 3)
            .unwrap_or_else(|e| panic!("{reduction:?}: {e}"));
        assert!(report.mse_lar.is_finite(), "{reduction:?}");
    }
}

#[test]
fn extended_pool_full_protocol() {
    let values = base_trace(400);
    let config = LarpConfig::extended(5);
    let report = TraceReport::evaluate("ext", &values, &config, 3, 4).unwrap();
    assert_eq!(report.model_names.len(), 11);
    assert!(report.mse_plar <= report.best_single_mse() + 1e-12);
    // All 11 per-model MSEs finite.
    for (name, mse) in report.model_names.iter().zip(&report.mse_models) {
        assert!(mse.is_finite(), "{name}");
    }
}

#[test]
fn oracle_pass_counts_are_consistent() {
    let values = base_trace(300);
    let config = LarpConfig::default();
    let model = TrainedLarp::train(&values[..150], &config).unwrap();
    let norm = model.zscore().apply_slice(&values);
    let oracle = observed_best_scored(model.pool(), 5, &norm, 150).unwrap();
    assert_eq!(oracle.best.len(), norm.len() - 150);
    assert_eq!(oracle.forecasts.len(), oracle.best.len());
    assert_eq!(oracle.actuals.len(), oracle.best.len());
    // Per-step best really is per-step argmin.
    for (i, all) in oracle.forecasts.iter().enumerate() {
        let actual = oracle.actuals[i];
        let best_err = (all[oracle.best[i].0] - actual).abs();
        for f in all {
            assert!(best_err <= (f - actual).abs() + 1e-12);
        }
    }
}

#[test]
fn alternating_series_prefers_averaging_models() {
    // Pathological persistence-hostile input: strict alternation. The
    // selector must not collapse onto LAST.
    let values: Vec<f64> = (0..300).map(|t| if t % 2 == 0 { 1.0 } else { -1.0 }).collect();
    let config = LarpConfig::default();
    let model = TrainedLarp::train(&values[..150], &config).unwrap();
    let norm = model.zscore().apply_slice(&values);
    let run = run_selector_scored(&mut model.selector(), model.pool(), 5, &norm, 150).unwrap();
    let last_picks = run.chosen.iter().filter(|c| c.0 == 0).count();
    assert!(
        last_picks < run.chosen.len() / 4,
        "picked LAST {last_picks}/{} times on pure alternation",
        run.chosen.len()
    );
    // And the achieved MSE must be far below LAST's (which is ~4x variance).
    let oracle = observed_best_scored(model.pool(), 5, &norm, 150).unwrap();
    assert!(run.mse < oracle.per_model_mse[0] * 0.5);
}

#[test]
fn report_handles_fold_count_of_one() {
    let values = base_trace(200);
    let report = TraceReport::evaluate("one", &values, &LarpConfig::default(), 1, 5).unwrap();
    assert_eq!(report.folds, 1);
}

#[test]
fn nan_in_training_data_errors_cleanly() {
    // NaN anywhere in the training half must produce a clean Err (the eigen
    // guard rejects a non-finite covariance), never a panic and never a
    // "trained" model that serves NaN.
    let mut values = base_trace(100);
    values[20] = f64::NAN;
    match TrainedLarp::train(&values[..50], &LarpConfig::default()) {
        Err(_) => {}
        Ok(model) => {
            // If some configuration ever trains through, it must still serve
            // finite forecasts.
            let (_, f) = model.predict_next_raw(&values[50..80]).unwrap();
            assert!(f.is_finite());
        }
    }
}

#[test]
fn sanitized_stream_matches_clean_training() {
    // A clean stream through the sanitizer is a no-op: the guarded stack and
    // a bare OnlineLarp must produce identical forecasts.
    use larp::{GuardedLarp, IngestConfig, OnlineLarp, QualityAssuror};
    let values = base_trace(200);
    let mut bare =
        OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(2.0, 8, 4).unwrap())
            .unwrap();
    let mut guarded = GuardedLarp::new(
        IngestConfig { outlier: larp::OutlierPolicy::None, ..IngestConfig::default() },
        LarpConfig::default(),
        40,
        QualityAssuror::new(2.0, 8, 4).unwrap(),
    )
    .unwrap();
    for (t, &v) in values.iter().enumerate() {
        let a = bare.push(v);
        let b = guarded.ingest(t as u64, v);
        assert_eq!(b.len(), 1, "clean sample must pass through 1:1");
        assert_eq!(a, b[0], "step {t}");
    }
    assert_eq!(guarded.sanitizer().stats().faults_sanitized(), 0);
}

#[test]
fn window_16_config_on_short_24h_geometry_errors_cleanly() {
    // m = 16 needs 2*16 = 32 training points minimum; a 40-point trace with a
    // ~50/50 split sits right at the edge and must either work or error
    // cleanly (never panic).
    let values = base_trace(40);
    let _ = TraceReport::evaluate("edge", &values, &LarpConfig::paper(16), 3, 6);
}
