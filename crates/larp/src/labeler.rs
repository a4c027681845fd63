//! Training-phase labelling: the parallel mix-of-experts step.
//!
//! For every training window the full pool runs and the model with the
//! smallest absolute one-step error becomes the window's class label (paper
//! §6.1/§7.2.1). This is the only place the LARPredictor ever runs all
//! predictors — and it is embarrassingly parallel across windows, so
//! [`label_ids_into`] splits a long window range over `std::thread` scoped
//! threads. [`label_windows`] is the window-copying reference the tests,
//! the diagnostics and the PERF bench use.

use predictors::{PredictorId, PredictorPool};
use timeseries::Frames;

use crate::{LarpError, Result};

/// One labelled training window.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledWindow {
    /// Index of the window within the framed training series.
    pub index: usize,
    /// The window itself (length `m`), copied out of the training buffer.
    pub window: Vec<f64>,
    /// Class label: the pool member with the smallest absolute error.
    pub label: PredictorId,
    /// The target value the window was scored against.
    pub target: f64,
}

/// Labels every `(window, next-value)` pair of `train` sequentially.
///
/// # Errors
///
/// Returns [`LarpError::InsufficientData`] if `train` yields no
/// (window, target) pair (`train.len() <= window`), or if the pool needs more
/// history than one window provides.
pub fn label_windows(
    pool: &PredictorPool,
    train: &[f64],
    window: usize,
) -> Result<Vec<LabeledWindow>> {
    let frames = prepare(pool, train, window)?;
    Ok(frames
        .with_targets()
        .enumerate()
        .map(|(index, (w, target))| {
            let (label, _) = pool.best_for(w, target);
            LabeledWindow { index, window: w.to_vec(), label, target }
        })
        .collect())
}

/// Labels every `(window, next-value)` pair of `train` with class indices
/// only — no window copies, no per-window forecast vectors — into `labels`
/// (cleared first), fanning a range of 256 windows or more out over
/// `threads` scoped worker threads. Produces exactly
/// `label_windows(..).iter().map(|lw| lw.label.0)` (a test pins this); the
/// sequential path allocates nothing once `labels` is sized: each range runs
/// [`PredictorPool::best_ids_into`], member by member over stack-held blocks
/// of windows. This is the path the online retrain loop takes several
/// thousand times per minute.
///
/// # Errors
///
/// * [`LarpError::InvalidConfig`] if `threads == 0`;
/// * the same data conditions as [`label_windows`].
pub fn label_ids_into(
    pool: &PredictorPool,
    train: &[f64],
    window: usize,
    threads: usize,
    labels: &mut Vec<usize>,
) -> Result<()> {
    if threads == 0 {
        return Err(LarpError::InvalidConfig("threads must be >= 1".into()));
    }
    let frames = prepare(pool, train, window)?;
    let total = frames.count_with_targets();
    labels.clear();
    labels.reserve(total);
    if threads == 1 || total < 256 {
        pool.best_ids_into(train, window, labels);
        return Ok(());
    }
    let chunk = total.div_ceil(threads);
    let ranges: Vec<(usize, usize)> = (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(total)))
        .filter(|(s, e)| s < e)
        .collect();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(start, end)| {
                s.spawn(move || {
                    let mut part = Vec::with_capacity(end - start);
                    pool.best_ids_into(&train[start..end + window], window, &mut part);
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("labeler worker panicked"))
            .collect::<Vec<Vec<_>>>()
    });
    for part in results {
        labels.extend_from_slice(&part);
    }
    Ok(())
}

fn prepare<'a>(pool: &PredictorPool, train: &'a [f64], window: usize) -> Result<Frames<'a>> {
    if window < pool.min_history() {
        return Err(LarpError::InvalidConfig(format!(
            "window {window} is smaller than the pool's minimum history {}",
            pool.min_history()
        )));
    }
    let frames =
        Frames::new(train, window).map_err(|e| LarpError::InsufficientData(e.to_string()))?;
    if frames.count_with_targets() == 0 {
        return Err(LarpError::InsufficientData(format!(
            "training series of length {} yields no (window, target) pair for window {window}",
            train.len()
        )));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.31).sin() * 3.0 + (i % 7) as f64 * 0.1).collect()
    }

    fn pool(train: &[f64], m: usize) -> PredictorPool {
        PredictorPool::standard(train, m).unwrap()
    }

    #[test]
    fn labels_cover_all_window_target_pairs() {
        let t = series(100);
        let p = pool(&t, 5);
        let labels = label_windows(&p, &t, 5).unwrap();
        assert_eq!(labels.len(), 95); // u - m
        for (i, lw) in labels.iter().enumerate() {
            assert_eq!(lw.index, i);
            assert_eq!(lw.window.len(), 5);
            assert!(lw.label.0 < p.len());
        }
    }

    #[test]
    fn label_is_argmin_absolute_error() {
        let t = series(60);
        let p = pool(&t, 5);
        for lw in label_windows(&p, &t, 5).unwrap() {
            let forecasts = p.predict_all(&lw.window);
            let best_err = (forecasts[lw.label.0] - lw.target).abs();
            for f in &forecasts {
                assert!(best_err <= (f - lw.target).abs() + 1e-15);
            }
        }
    }

    #[test]
    fn label_ids_matches_labeled_windows_in_both_regimes() {
        // Small series takes the sequential path; 300 windows with 4 threads
        // takes the parallel fan-out. Both must agree with the window-copying
        // reference exactly.
        for (n, threads) in [(100, 1), (100, 4), (300, 1), (300, 4)] {
            let t = series(n);
            let p = pool(&t, 5);
            let reference: Vec<usize> =
                label_windows(&p, &t, 5).unwrap().iter().map(|lw| lw.label.0).collect();
            let mut labels = vec![7; 3];
            label_ids_into(&p, &t, 5, threads, &mut labels).unwrap();
            assert_eq!(labels, reference, "n={n} threads={threads}");
        }
    }

    #[test]
    fn smooth_series_favors_last_peaky_series_mixes() {
        // A pure slow ramp: LAST (and AR) should dominate over SW_AVG,
        // which lags behind.
        let smooth: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let p = pool(&smooth, 5);
        let labels = label_windows(&p, &smooth, 5).unwrap();
        let sw_share =
            labels.iter().filter(|l| l.label.0 == 2).count() as f64 / labels.len() as f64;
        assert!(sw_share < 0.2, "SW_AVG share {sw_share}");
    }

    #[test]
    fn validation_errors() {
        let t = series(50);
        let p = pool(&t, 5);
        // Window below the pool's min_history (AR needs 5).
        assert!(matches!(label_windows(&p, &t, 3), Err(LarpError::InvalidConfig(_))));
        // Series exactly window-long: one frame, no target.
        let tiny = series(5);
        assert!(matches!(label_windows(&p, &tiny, 5), Err(LarpError::InsufficientData(_))));
        let mut labels = Vec::new();
        assert!(matches!(
            label_ids_into(&p, &t, 5, 0, &mut labels),
            Err(LarpError::InvalidConfig(_))
        ));
    }
}
