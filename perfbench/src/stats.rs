//! Percentiles, medians, generator lateness and forecast error.

use std::time::Instant;

use obs::percentile_sorted;

/// Ceil-rank percentile of unsorted samples (`obs`'s rule); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p).unwrap_or(0.0)
}

/// The median: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Percentile `p` of each run of `per_segment` consecutive samples (in
/// schedule order), then the median over those segments. A stall that
/// takes a second or two of a shared host moves a window's percentile but
/// not its median segment. Falls back to the plain percentile without two
/// full segments.
pub fn segment_percentile(samples: &[f64], per_segment: usize, p: f64) -> f64 {
    if per_segment == 0 || samples.len() < 2 * per_segment {
        return percentile(samples, p);
    }
    let per: Vec<f64> = samples.chunks_exact(per_segment).map(|s| percentile(s, p)).collect();
    median(&per)
}

/// The interquartile mean: the mean of the sorted values after a quarter
/// is trimmed from each end; 0 when empty. One stream whose error spikes
/// cannot move it far.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = sorted.len() / 4;
    let middle = &sorted[q..sorted.len() - q];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// A progress sample taken inside a window: when, the fleet's step count,
/// and the server's CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    pub at: Instant,
    pub steps: u64,
    pub cpu_s: f64,
}

/// Medians over the segments between consecutive progress samples of the
/// step rate (steps/s) and the server CPU per step (µs). A window's median
/// segment shrugs off the second in which a neighbour on a shared host took
/// the CPU. `None` without a segment that made progress.
pub fn segment_medians(samples: &[Progress]) -> Option<(f64, f64)> {
    let (mut rate, mut cpu) = (Vec::new(), Vec::new());
    for w in samples.windows(2) {
        let steps = w[1].steps.saturating_sub(w[0].steps);
        let secs = (w[1].at - w[0].at).as_secs_f64();
        if steps > 0 && secs > 0.0 {
            rate.push(steps as f64 / secs);
            cpu.push((w[1].cpu_s - w[0].cpu_s) * 1e6 / steps as f64);
        }
    }
    (!rate.is_empty()).then(|| (median(&rate), median(&cpu)))
}

/// How late the generator sent, against its schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    pub sends: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// A run is invalid when its generator's 90th-percentile lateness exceeds
/// this. The gated latencies go up to p90 and sit near 100-200 µs, so a
/// generator this late would have them measure the generator, not the
/// server. The rarer stalls of a shared host, beyond p90, are tolerated.
pub const LATENESS_P90_BOUND_US: f64 = 1_000.0;

impl Lateness {
    /// Summarizes per-send lateness in microseconds.
    pub fn of(late_us: &[f64]) -> Lateness {
        Lateness {
            sends: late_us.len(),
            p50_us: percentile(late_us, 0.5),
            p90_us: percentile(late_us, 0.9),
            p99_us: percentile(late_us, 0.99),
            max_us: late_us.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Whether the schedule was kept well enough to report latencies.
    pub fn valid(&self) -> bool {
        self.p90_us <= LATENESS_P90_BOUND_US
    }
}

/// Normalized mean squared error of one stream's forecasts: the MSE of
/// `(forecast, truth)` pairs over the variance of the truths. `None` for
/// fewer than two pairs or constant truth.
pub fn nmse(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mean = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let var = pairs.iter().map(|p| (p.1 - mean).powi(2)).sum::<f64>() / n;
    let mse = pairs.iter().map(|p| (p.0 - p.1).powi(2)).sum::<f64>() / n;
    (var > 0.0).then_some(mse / var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_ceil_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.9), 91.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn segment_percentiles_ignore_a_stalled_segment() {
        // Three segments of ten: 1..=10, then a stall (all 1000), then 1..=10.
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let mut v = calm.clone();
        v.extend([1000.0; 10]);
        v.extend(&calm);
        assert_eq!(segment_percentile(&v, 10, 0.9), 10.0);
        assert_eq!(percentile(&v, 0.9), 1000.0);
        // A trailing partial segment is left out; under two segments the
        // whole sample is used.
        v.push(5000.0);
        assert_eq!(segment_percentile(&v, 10, 0.5), 6.0);
        assert_eq!(segment_percentile(&calm, 10, 0.5), 6.0);
        assert_eq!(segment_percentile(&[], 10, 0.5), 0.0);
    }

    #[test]
    fn medians_average_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_each_side() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn lateness_flags_a_generator_that_fell_behind() {
        let mut late: Vec<f64> = vec![10.0; 900];
        late.extend([50.0; 90]);
        late.extend([LATENESS_P90_BOUND_US * 5.0; 10]);
        let l = Lateness::of(&late);
        assert_eq!((l.sends, l.p50_us, l.p90_us), (1000, 10.0, 50.0));
        assert_eq!(
            (l.p99_us, l.max_us),
            (LATENESS_P90_BOUND_US * 5.0, LATENESS_P90_BOUND_US * 5.0)
        );
        assert!(l.valid(), "one percent of sends in a stall is tolerated");
        // Ten percent a long way behind: p90 lands in the stall.
        late.extend([LATENESS_P90_BOUND_US * 3.0; 100]);
        let l = Lateness::of(&late);
        assert_eq!(l.p90_us, LATENESS_P90_BOUND_US * 3.0);
        assert!(!l.valid());
    }

    #[test]
    fn segments_report_median_rate_and_cpu() {
        use std::time::Duration;
        let t0 = Instant::now();
        let at = |ms, steps, cpu_s| Progress { at: t0 + Duration::from_millis(ms), steps, cpu_s };
        // Three one-second segments: 1000, 400 (a stalled second) and 1000
        // steps, costing 2, 3 and 2 ms of CPU.
        let samples =
            [at(0, 0, 1.0), at(1000, 1000, 1.002), at(2000, 1400, 1.005), at(3000, 2400, 1.007)];
        let (rate, cpu) = segment_medians(&samples).unwrap();
        assert_eq!(rate, 1000.0);
        assert!((cpu - 2.0).abs() < 1e-9, "{cpu}");
        assert!(segment_medians(&samples[..1]).is_none());
        assert!(segment_medians(&[at(0, 5, 1.0), at(1000, 5, 1.0)]).is_none());
    }

    #[test]
    fn nmse_is_mse_over_variance() {
        // Truths 1, 3 (variance 1); errors 0.5 and -0.5 (MSE 0.25).
        assert_eq!(nmse(&[(1.5, 1.0), (2.5, 3.0)]), Some(0.25));
        assert_eq!(nmse(&[(1.0, 2.0), (1.0, 2.0)]), None);
        assert_eq!(nmse(&[(1.0, 2.0)]), None);
    }
}
