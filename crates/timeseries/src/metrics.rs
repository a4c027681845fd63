//! Prediction-error metrics.
//!
//! The paper's headline measure is the mean squared error (Eq. 5) computed on
//! *normalized* series — hence "normalized MSE" in Table 2: an MSE of ~1.0
//! means the predictor is no better than always guessing the series mean.

use crate::{Result, TsError};

/// Mean squared error between predictions and observations.
///
/// # Errors
///
/// Returns [`TsError::InvalidArgument`] if the slices are empty or differ in
/// length.
pub fn mse(predicted: &[f64], observed: &[f64]) -> Result<f64> {
    check_pair("mse", predicted, observed)?;
    let n = predicted.len() as f64;
    Ok(predicted.iter().zip(observed).map(|(p, o)| (p - o).powi(2)).sum::<f64>() / n)
}

/// Root mean squared error.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn rmse(predicted: &[f64], observed: &[f64]) -> Result<f64> {
    Ok(mse(predicted, observed)?.sqrt())
}

/// Mean absolute error.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn mae(predicted: &[f64], observed: &[f64]) -> Result<f64> {
    check_pair("mae", predicted, observed)?;
    let n = predicted.len() as f64;
    Ok(predicted.iter().zip(observed).map(|(p, o)| (p - o).abs()).sum::<f64>() / n)
}

/// Mean absolute percentage error, skipping observations that are exactly zero
/// (undefined there). Returns `None` when *all* observations are zero.
///
/// # Errors
///
/// Same shape conditions as [`mse`].
pub fn mape(predicted: &[f64], observed: &[f64]) -> Result<Option<f64>> {
    check_pair("mape", predicted, observed)?;
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, o) in predicted.iter().zip(observed) {
        if *o != 0.0 {
            total += ((p - o) / o).abs();
            count += 1;
        }
    }
    Ok(if count == 0 { None } else { Some(100.0 * total / count as f64) })
}

/// MSE normalised by the variance of the observations.
///
/// Equals 1.0 for a predictor that always outputs the observation mean; below
/// 1.0 means the predictor extracts signal. Returns the raw MSE when the
/// observations have zero variance (constant series: any nonzero error is
/// meaningful on its own).
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn nmse(predicted: &[f64], observed: &[f64]) -> Result<f64> {
    let e = mse(predicted, observed)?;
    let var = crate::stats::variance(observed);
    Ok(if var > 0.0 { e / var } else { e })
}

fn check_pair(what: &'static str, a: &[f64], b: &[f64]) -> Result<()> {
    if a.is_empty() {
        return Err(TsError::InvalidArgument(format!("{what}: empty input")));
    }
    if a.len() != b.len() {
        return Err(TsError::InvalidArgument(format!(
            "{what}: length mismatch {} vs {}",
            a.len(),
            b.len()
        )));
    }
    Ok(())
}

/// Online (streaming) accumulator for squared error — used by the NWS-style
/// cumulative-MSE selectors, which must track a running MSE per predictor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CumulativeMse {
    sum_sq: f64,
    count: usize,
}

impl CumulativeMse {
    /// A fresh accumulator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one (prediction, observation) pair.
    pub fn record(&mut self, predicted: f64, observed: f64) {
        let d = predicted - observed;
        self.sum_sq += d * d;
        self.count += 1;
    }

    /// Current mean squared error; `None` before any observation.
    pub fn mse(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_sq / self.count as f64)
        }
    }

    /// Number of recorded pairs.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Sliding-window squared-error accumulator (the NWS "windowed cumulative MSE"
/// variant benchmarked in the paper's Figure 6 with window 2).
#[derive(Debug, Clone)]
pub struct WindowedMse {
    window: usize,
    errors: std::collections::VecDeque<f64>,
    sum_sq: f64,
    /// Evictions since the running sum was last recomputed exactly. Add-then-
    /// subtract leaks rounding residue (catastrophic absorption when a huge
    /// error passes through the window), so the sum is rebuilt from the
    /// retained errors every [`Self::RESUM_PERIOD`] evictions.
    since_resum: usize,
}

impl WindowedMse {
    /// Evictions between exact recomputations of the running sum.
    const RESUM_PERIOD: usize = 1024;

    /// Creates an accumulator that remembers the last `window` squared errors.
    ///
    /// # Errors
    ///
    /// Returns [`TsError::InvalidArgument`] if `window == 0`.
    pub fn new(window: usize) -> Result<Self> {
        if window == 0 {
            return Err(TsError::InvalidArgument("WindowedMse: window must be positive".into()));
        }
        Ok(Self { window, errors: std::collections::VecDeque::new(), sum_sq: 0.0, since_resum: 0 })
    }

    /// Records one (prediction, observation) pair, evicting the oldest error
    /// once the window is full.
    pub fn record(&mut self, predicted: f64, observed: f64) {
        let d = predicted - observed;
        let sq = d * d;
        // Evict before pushing so the window never holds more than `window`
        // slots; the running sum still adds the new error before it
        // subtracts the evicted one.
        let evicted = if self.errors.len() >= self.window {
            self.errors.pop_front()
        } else {
            self.errors.reserve_exact(self.window - self.errors.len());
            None
        };
        self.errors.push_back(sq);
        self.sum_sq += sq;
        if let Some(evicted) = evicted {
            self.sum_sq -= evicted;
            self.since_resum += 1;
            if self.since_resum >= Self::RESUM_PERIOD {
                self.sum_sq = self.errors.iter().sum();
                self.since_resum = 0;
            }
        }
    }

    /// Forgets every recorded error, keeping the window's allocation: the
    /// accumulator reads as freshly created.
    pub fn reset(&mut self) {
        self.errors.clear();
        self.sum_sq = 0.0;
        self.since_resum = 0;
    }

    /// Current windowed MSE; `None` before any observation.
    pub fn mse(&self) -> Option<f64> {
        if self.errors.is_empty() {
            None
        } else {
            Some(self.sum_sq / self.errors.len() as f64)
        }
    }

    /// Heap bytes held by the error window, for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.errors.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known() {
        let e = mse(&[1.0, 2.0, 3.0], &[1.0, 3.0, 5.0]).unwrap();
        assert!((e - (0.0 + 1.0 + 4.0) / 3.0).abs() < 1e-15);
    }

    #[test]
    fn perfect_prediction_is_zero_everywhere() {
        let xs = [1.5, -2.0, 0.0];
        assert_eq!(mse(&xs, &xs).unwrap(), 0.0);
        assert_eq!(rmse(&xs, &xs).unwrap(), 0.0);
        assert_eq!(mae(&xs, &xs).unwrap(), 0.0);
        assert_eq!(nmse(&xs, &xs).unwrap(), 0.0);
    }

    #[test]
    fn shape_validation() {
        assert!(mse(&[], &[]).is_err());
        assert!(mse(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn mae_vs_mse_outlier_sensitivity() {
        let obs = [0.0, 0.0, 0.0, 0.0];
        let pred = [0.0, 0.0, 0.0, 4.0];
        assert_eq!(mae(&pred, &obs).unwrap(), 1.0);
        assert_eq!(mse(&pred, &obs).unwrap(), 4.0);
    }

    #[test]
    fn mape_skips_zero_observations() {
        let got = mape(&[1.1, 5.0], &[1.0, 0.0]).unwrap().unwrap();
        assert!((got - 10.0).abs() < 1e-9);
        assert_eq!(mape(&[1.0], &[0.0]).unwrap(), None);
    }

    #[test]
    fn nmse_of_mean_predictor_is_one() {
        let obs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mean = [3.0; 5];
        assert!((nmse(&mean, &obs).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmse_constant_observed_falls_back_to_mse() {
        let obs = [2.0; 4];
        let pred = [3.0; 4];
        assert_eq!(nmse(&pred, &obs).unwrap(), 1.0); // raw MSE = 1.0
    }

    #[test]
    fn cumulative_mse_matches_batch() {
        let pred = [1.0, 2.0, 3.0, 4.0];
        let obs = [1.5, 1.5, 3.5, 3.0];
        let mut acc = CumulativeMse::new();
        assert_eq!(acc.mse(), None);
        for (p, o) in pred.iter().zip(&obs) {
            acc.record(*p, *o);
        }
        assert!((acc.mse().unwrap() - mse(&pred, &obs).unwrap()).abs() < 1e-15);
        assert_eq!(acc.count(), 4);
    }

    #[test]
    fn cumulative_mse_streaming_matches_batch_over_long_runs() {
        // Property check: the streaming accumulator must agree with the batch
        // formula after arbitrarily long runs, across magnitudes from 1e-4 to
        // 1e4 (seeded LCG keeps the data deterministic).
        for seed in 0..5u64 {
            let mut state = 0x243F_6A88_85A3_08D3 ^ seed.wrapping_mul(0x9E37_79B9);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let scale = 10f64.powi(seed as i32 * 2 - 4);
            let n = 100_000;
            let mut acc = CumulativeMse::new();
            let mut pred = Vec::with_capacity(n);
            let mut obs = Vec::with_capacity(n);
            for _ in 0..n {
                let p = next() * scale;
                let o = next() * scale;
                acc.record(p, o);
                pred.push(p);
                obs.push(o);
            }
            let batch = mse(&pred, &obs).unwrap();
            let streaming = acc.mse().unwrap();
            let rel = (streaming - batch).abs() / batch;
            assert!(rel < 1e-12, "seed {seed}: streaming {streaming} vs batch {batch}");
            assert_eq!(acc.count(), n);
        }
    }

    #[test]
    fn windowed_mse_tracks_only_recent_errors() {
        let mut acc = WindowedMse::new(2).unwrap();
        assert_eq!(acc.mse(), None);
        acc.record(0.0, 10.0); // sq = 100
        acc.record(0.0, 0.0); // sq = 0
        acc.record(0.0, 2.0); // sq = 4; the 100 falls out of the window
        assert!((acc.mse().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_mse_rejects_zero_window() {
        assert!(WindowedMse::new(0).is_err());
    }

    #[test]
    fn windowed_mse_no_drift_over_long_runs() {
        let mut acc = WindowedMse::new(3).unwrap();
        for i in 0..10_000 {
            acc.record(0.0, (i % 7) as f64);
        }
        // Last three squared errors: i = 9997, 9998, 9999 -> i%7 = 1, 2, 3.
        let expect = (1.0 + 4.0 + 9.0) / 3.0;
        assert!((acc.mse().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn windowed_mse_survives_spiky_million_record_stream() {
        // Catastrophic-absorption stress: periodic 1e6-magnitude errors pass
        // through the window, and each O(1) addition made while the huge
        // squared error dominates the running sum loses its low bits. Without
        // periodic exact resummation the residue accumulates far past 1e-9.
        let window = 100;
        let mut acc = WindowedMse::new(window).unwrap();
        let mut last = std::collections::VecDeque::with_capacity(window + 1);
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..1_000_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64;
            let spike = i > 0 && i < 900_000 && i % 10_000 == 0;
            let observed = if spike { 1e6 } else { noise };
            acc.record(0.0, observed);
            last.push_back(observed);
            if last.len() > window {
                last.pop_front();
            }
        }
        let obs: Vec<f64> = last.iter().copied().collect();
        let batch = mse(&vec![0.0; window], &obs).unwrap();
        let got = acc.mse().unwrap();
        assert!((got - batch).abs() < 1e-9, "windowed {got} vs batch {batch}");
    }
}
