//! Ingestion sanitization in front of [`OnlineLarp`].
//!
//! Monitor streams arrive dirty: samples are dropped or duplicated, sensors
//! wedge, collectors emit NaN or out-of-band sentinel constants, and transport
//! glitches produce spike outliers (the fault model `vmsim::faults`
//! reproduces). [`Sanitizer`] repairs a `(minute, value)` stream into the
//! dense, finite per-minute series the online predictor expects:
//!
//! * **duplicates / reordering** — a reading at or before the last accepted
//!   minute is dropped;
//! * **gaps** — missing minutes are filled (up to a cap) by holding the last
//!   value or linearly interpolating toward the new one;
//! * **NaN and sentinels** — replaced with the last accepted value;
//! * **spike outliers** — clamped to a robust envelope (median ±
//!   `threshold · 1.4826 · MAD` over a recent window);
//! * **stuck sensors** — runs of byte-identical values beyond a threshold are
//!   counted for observability (the values themselves are plausible, so they
//!   pass through).
//!
//! [`GuardedLarp`] bundles a sanitizer with an [`OnlineLarp`] for one-call
//! serving of faulted streams.

use std::collections::VecDeque;

use timeseries::stats;

use crate::config::LarpConfig;
use crate::model::Scratch;
use crate::online::{with_push_scratch, OnlineLarp, OnlineStep};
use crate::qa::QualityAssuror;
use crate::{LarpError, Result};

/// How missing minutes inside a gap are reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapFill {
    /// Repeat the last accepted value across the gap.
    HoldLast,
    /// Linearly interpolate from the last accepted value to the new reading.
    Interpolate,
}

/// Outlier handling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierPolicy {
    /// Pass everything through (outliers reach the predictor).
    None,
    /// Clamp values outside `median ± threshold · 1.4826 · MAD` of the recent
    /// window to that envelope's edge.
    MadClamp {
        /// Envelope half-width in robust standard deviations (typical: 6–10).
        threshold: f64,
    },
}

/// Sanitizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Gap reconstruction policy.
    pub gap_fill: GapFill,
    /// Longest gap (in samples) that is filled; longer gaps are truncated to
    /// this many fill samples (the stream stays dense but the series skips
    /// ahead — better than fabricating hours of data after an outage).
    pub max_gap_fill: usize,
    /// Outlier handling.
    pub outlier: OutlierPolicy,
    /// Recent-window length for the robust (median/MAD) statistics.
    pub robust_window: usize,
    /// Exact out-of-band constants treated as failed reads (e.g. `-1.0`).
    pub sentinel_values: Vec<f64>,
    /// Runs of identical values at or beyond this length are counted as stuck
    /// sensors (`0` disables the detector).
    pub stuck_run_threshold: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            gap_fill: GapFill::Interpolate,
            max_gap_fill: 10,
            outlier: OutlierPolicy::MadClamp { threshold: 8.0 },
            robust_window: 32,
            sentinel_values: vec![-1.0],
            stuck_run_threshold: 10,
        }
    }
}

impl IngestConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] for a zero robust window, a
    /// non-positive/non-finite clamp threshold, or a non-finite sentinel.
    pub fn validate(&self) -> Result<()> {
        if self.robust_window < 4 {
            return Err(LarpError::InvalidConfig(
                "robust_window must be >= 4 for meaningful median/MAD".into(),
            ));
        }
        if let OutlierPolicy::MadClamp { threshold } = self.outlier {
            if !(threshold.is_finite() && threshold > 0.0) {
                return Err(LarpError::InvalidConfig(format!(
                    "MAD clamp threshold must be positive, got {threshold}"
                )));
            }
        }
        if self.sentinel_values.iter().any(|s| !s.is_finite()) {
            return Err(LarpError::InvalidConfig(
                "sentinel values must be finite (NaN is always repaired)".into(),
            ));
        }
        Ok(())
    }
}

/// Counters of repairs performed, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Raw readings received.
    pub received: usize,
    /// Clean samples emitted (gap fills included).
    pub emitted: usize,
    /// Readings dropped as duplicates or time reversals.
    pub duplicates_dropped: usize,
    /// Missing samples reconstructed inside gaps.
    pub gap_samples_filled: usize,
    /// Missing samples beyond `max_gap_fill` that were skipped, not filled.
    pub gap_samples_skipped: usize,
    /// Non-finite values replaced.
    pub nonfinite_replaced: usize,
    /// Sentinel values replaced.
    pub sentinels_replaced: usize,
    /// Values clamped by the outlier envelope.
    pub outliers_clamped: usize,
    /// Stuck-sensor runs detected (length ≥ threshold).
    pub stuck_runs: usize,
}

impl IngestStats {
    /// Total faults repaired (drops, fills, replacements, clamps).
    pub fn faults_sanitized(&self) -> usize {
        self.duplicates_dropped
            + self.gap_samples_filled
            + self.nonfinite_replaced
            + self.sentinels_replaced
            + self.outliers_clamped
    }
}

/// A streaming `(minute, value)` repair stage in front of [`OnlineLarp`].
#[derive(Debug)]
pub struct Sanitizer {
    pub(crate) config: IngestConfig,
    /// Minute of the last accepted sample.
    pub(crate) last_minute: Option<u64>,
    /// Value of the last emitted sample.
    pub(crate) last_value: Option<f64>,
    /// Raw (pre-repair) value of the last accepted reading, for stuck-sensor
    /// detection — repairs must not mask a wedged sensor.
    pub(crate) last_raw: Option<f64>,
    /// Recent emitted values, for the robust envelope.
    pub(crate) recent: VecDeque<f64>,
    /// Length of the current identical-value run.
    pub(crate) stuck_len: usize,
    /// Whether the current run has already been counted.
    pub(crate) stuck_counted: bool,
    pub(crate) stats: IngestStats,
    /// Sorted mirror of `recent`, maintained incrementally (binary-search
    /// insert/remove per sample — far cheaper than re-sorting the window for
    /// every median). Runtime-only, never snapshotted; rebuilt on restore.
    /// Kept empty when the outlier policy never reads it.
    pub(crate) robust_scratch: Vec<f64>,
}

impl Sanitizer {
    /// Creates a sanitizer from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] if the config is invalid.
    pub fn new(config: IngestConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            recent: VecDeque::with_capacity(config.robust_window),
            config,
            last_minute: None,
            last_value: None,
            last_raw: None,
            stuck_len: 0,
            stuck_counted: false,
            stats: IngestStats::default(),
            robust_scratch: Vec::new(),
        })
    }

    /// Ingests one raw reading; returns the clean values to feed downstream,
    /// in time order (empty for a dropped duplicate, more than one when a gap
    /// is filled). Every returned value is finite.
    pub fn ingest(&mut self, minute: u64, value: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.ingest_into(minute, value, &mut out);
        out
    }

    /// [`Sanitizer::ingest`] writing the clean values into a caller-owned
    /// buffer (cleared first) instead of allocating a fresh `Vec` per
    /// reading.
    pub fn ingest_into(&mut self, minute: u64, value: f64, out: &mut Vec<f64>) {
        out.clear();
        self.stats.received += 1;

        // Duplicates and time reversals are transport artifacts: drop them.
        if let Some(last) = self.last_minute {
            if minute <= last {
                self.stats.duplicates_dropped += 1;
                return;
            }
        }

        let repaired = self.repair_value(value);
        let Some(repaired) = repaired else {
            // Nothing plausible to emit yet (first reading was unusable);
            // wait for a real value but advance time so a later reading at
            // this minute counts as a duplicate.
            self.last_minute = Some(minute);
            return;
        };

        if let (Some(last_minute), Some(last_value)) = (self.last_minute, self.last_value) {
            let missing = (minute - last_minute).saturating_sub(1) as usize;
            if missing > 0 {
                let fill = missing.min(self.config.max_gap_fill);
                self.stats.gap_samples_skipped += missing - fill;
                for i in 1..=fill {
                    let filled = match self.config.gap_fill {
                        GapFill::HoldLast => last_value,
                        GapFill::Interpolate => {
                            let frac = i as f64 / (fill + 1) as f64;
                            last_value + (repaired - last_value) * frac
                        }
                    };
                    self.stats.gap_samples_filled += 1;
                    out.push(filled);
                }
            }
        }
        out.push(repaired);

        self.track_stuck(value);
        self.last_minute = Some(minute);
        self.last_value = Some(repaired);
        self.last_raw = Some(value);
        let keep_mirror = matches!(self.config.outlier, OutlierPolicy::MadClamp { .. });
        let window = self.config.robust_window;
        for &v in out.iter() {
            // Evict before inserting, so neither buffer ever holds more than
            // `window` values: both stay at exactly `window` slots.
            if self.recent.len() >= window {
                let evicted = self.recent.pop_front().expect("len >= window >= 4");
                if keep_mirror {
                    let at =
                        self.robust_scratch.partition_point(|&x| x.total_cmp(&evicted).is_lt());
                    debug_assert!(self.robust_scratch[at].to_bits() == evicted.to_bits());
                    self.robust_scratch.remove(at);
                }
            } else {
                self.recent.reserve_exact(window - self.recent.len());
            }
            self.recent.push_back(v);
            if keep_mirror {
                self.robust_scratch.reserve_exact(window.saturating_sub(self.robust_scratch.len()));
                let at = self.robust_scratch.partition_point(|&x| x.total_cmp(&v).is_lt());
                self.robust_scratch.insert(at, v);
            }
        }
        self.stats.emitted += out.len();
    }

    /// Rebuilds the sorted mirror of `recent` after a snapshot restore (the
    /// mirror is runtime-only state and is never serialized).
    pub(crate) fn rebuild_robust_mirror(&mut self) {
        self.robust_scratch.clear();
        if matches!(self.config.outlier, OutlierPolicy::MadClamp { .. }) {
            self.robust_scratch.reserve_exact(self.config.robust_window.max(self.recent.len()));
            self.robust_scratch.extend(self.recent.iter().copied());
            self.robust_scratch.sort_unstable_by(f64::total_cmp);
        }
    }

    /// Repairs one value: NaN/sentinel replacement, then outlier clamping.
    /// Returns `None` when the value is unusable and no replacement exists.
    fn repair_value(&mut self, value: f64) -> Option<f64> {
        let is_sentinel = self.config.sentinel_values.contains(&value);
        if !value.is_finite() || is_sentinel {
            if is_sentinel && value.is_finite() {
                self.stats.sentinels_replaced += 1;
            } else {
                self.stats.nonfinite_replaced += 1;
            }
            return self.last_value;
        }
        Some(self.clamp_outlier(value))
    }

    /// Clamps `value` to the robust envelope of the recent window.
    fn clamp_outlier(&mut self, value: f64) -> f64 {
        let OutlierPolicy::MadClamp { threshold } = self.config.outlier else {
            return value;
        };
        // Need a reasonably full window before the envelope means anything.
        if self.recent.len() < self.config.robust_window / 2 {
            return value;
        }
        // `robust_scratch` is a sorted mirror of the window, so the median is
        // a direct read; a median is invariant to input order, so the mirror
        // gives bit-identical answers to re-sorting the window each time. The
        // MAD scans the same sorted mirror (see `mad_sorted`), with no
        // deviation buffer.
        debug_assert_eq!(self.robust_scratch.len(), self.recent.len());
        let Ok(med) = stats::quantile_sorted(&self.robust_scratch, 0.5) else {
            return value;
        };
        let mad = mad_sorted(&self.robust_scratch, med);
        // 1.4826 · MAD estimates sigma for Gaussian data; the floor keeps a
        // perfectly flat window (MAD = 0) from clamping every legitimate
        // level shift to the median — a few percent of the level always
        // passes.
        let scale = (1.4826 * mad).max(1e-2 * med.abs().max(1.0));
        let lo = med - threshold * scale;
        let hi = med + threshold * scale;
        if value < lo || value > hi {
            self.stats.outliers_clamped += 1;
            value.clamp(lo, hi)
        } else {
            value
        }
    }

    /// Counts runs of identical raw values (stuck sensor signature).
    fn track_stuck(&mut self, raw: f64) {
        if self.config.stuck_run_threshold == 0 {
            return;
        }
        if self.last_raw == Some(raw) {
            self.stuck_len += 1;
            if self.stuck_len + 1 >= self.config.stuck_run_threshold && !self.stuck_counted {
                self.stats.stuck_runs += 1;
                self.stuck_counted = true;
            }
        } else {
            self.stuck_len = 0;
            self.stuck_counted = false;
        }
    }

    /// Heap bytes held by the sanitizer's window, mirror, and config, for
    /// memory accounting.
    pub fn heap_bytes(&self) -> usize {
        (self.recent.capacity()
            + self.robust_scratch.capacity()
            + self.config.sentinel_values.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Repair counters so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }
}

/// The median absolute deviation of a sorted, non-empty, NaN-free window
/// around its median `med`, bit-identical to
/// `stats::quantile_select(&mut |x − med| for x in sorted, 0.5)`.
///
/// `x − med` rounds monotonically in `x`, so the deviations `|s[j] − med|`
/// fall and then rise along the sorted window. In such a valley the `r + 1`
/// smallest deviations form a contiguous run, and every run of `r + 1`
/// values has its largest deviation at one of its ends. So the `r`-th
/// smallest deviation (from 0) is the least, over the runs `s[j..=j + r]`,
/// of the larger end deviation: two `min`/`max` scans with no
/// data-dependent branch find both middle order statistics. `min` and `max`
/// only pick existing deviations (`abs` never yields −0.0), and the
/// interpolation between them is the one `quantile_select` performs.
fn mad_sorted(sorted: &[f64], med: f64) -> f64 {
    let n = sorted.len();
    let pos = 0.5 * (n - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let frac = pos - lo as f64;
    let nth_deviation = |r: usize| {
        sorted
            .iter()
            .zip(&sorted[r..])
            .fold(f64::INFINITY, |least, (&a, &b)| least.min((a - med).abs().max((b - med).abs())))
    };
    let lo_v = nth_deviation(lo);
    let hi_v = if hi == lo { lo_v } else { nth_deviation(hi) };
    lo_v * (1.0 - frac) + hi_v * frac
}

/// An [`OnlineLarp`] behind a [`Sanitizer`]: the one-call serving stack for
/// faulted `(minute, value)` monitor streams.
pub struct GuardedLarp {
    pub(crate) sanitizer: Sanitizer,
    pub(crate) online: OnlineLarp,
}

impl GuardedLarp {
    /// Creates the guarded stack.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from either layer.
    pub fn new(
        ingest: IngestConfig,
        config: LarpConfig,
        train_size: usize,
        qa: QualityAssuror,
    ) -> Result<Self> {
        Ok(Self {
            sanitizer: Sanitizer::new(ingest)?,
            online: OnlineLarp::new(config, train_size, qa)?,
        })
    }

    /// Wraps an existing [`OnlineLarp`] (e.g. one built with
    /// [`OnlineLarp::with_resilience`]).
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] if the ingest config is invalid.
    pub fn from_parts(ingest: IngestConfig, online: OnlineLarp) -> Result<Self> {
        Ok(Self { sanitizer: Sanitizer::new(ingest)?, online })
    }

    /// Attaches a registry-backed recorder to the stack (see
    /// [`OnlineLarp::attach_obs`]). Sanitizer repairs are recorded as
    /// `larp_faults_sanitized_total` deltas per ingested reading.
    pub fn attach_obs(&mut self, obs: crate::observe::LarpObs) {
        self.online.attach_obs(obs);
    }

    /// Ingests one raw reading; returns one [`OnlineStep`] per clean sample
    /// that reached the predictor (empty for dropped readings).
    pub fn ingest(&mut self, minute: u64, value: f64) -> Vec<OnlineStep> {
        let mut out = Vec::new();
        with_push_scratch(|scratch| self.ingest_into(minute, value, scratch, &mut out));
        out
    }

    /// [`GuardedLarp::ingest`] with caller-owned buffers: the steps land in
    /// `out` (cleared first) and all sanitizer/predictor work runs in
    /// `scratch`. The fleet serving layer keeps one scratch and one step
    /// buffer per shard worker, making its steady-state feed allocation-free.
    pub fn ingest_into(
        &mut self,
        minute: u64,
        value: f64,
        scratch: &mut Scratch,
        out: &mut Vec<OnlineStep>,
    ) {
        out.clear();
        let before = self.sanitizer.stats.faults_sanitized();
        // The clean buffer moves out of the scratch so the rest of the
        // scratch can be lent to the per-value push below.
        let mut clean = std::mem::take(&mut scratch.clean);
        self.sanitizer.ingest_into(minute, value, &mut clean);
        let repairs = self.sanitizer.stats.faults_sanitized() - before;
        if repairs > 0 {
            if let Some(obs) = self.online.obs() {
                obs.record_sanitized(repairs as u64);
            }
        }
        for &v in &clean {
            out.push(self.online.push_with(v, scratch));
        }
        scratch.clean = clean;
    }

    /// Measures the resident heap bytes of the whole guarded stack, by
    /// component (the sanitizer lands in
    /// [`crate::StreamMemReport::sanitizer_bytes`]).
    pub fn mem_report(&self) -> crate::StreamMemReport {
        let mut report = self.online.mem_report();
        report.sanitizer_bytes = self.sanitizer.heap_bytes();
        report
    }

    /// The sanitizer layer.
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// The online predictor layer.
    pub fn online(&self) -> &OnlineLarp {
        &self.online
    }

    /// Mutable access to the online predictor (e.g. for manual quarantine).
    pub fn online_mut(&mut self) -> &mut OnlineLarp {
        &mut self.online
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sanitizer() -> Sanitizer {
        Sanitizer::new(IngestConfig::default()).unwrap()
    }

    #[test]
    fn clean_stream_passes_through_untouched() {
        let mut s = sanitizer();
        for t in 0..100u64 {
            let v = 10.0 + (t as f64 * 0.3).sin();
            assert_eq!(s.ingest(t, v), vec![v]);
        }
        assert_eq!(s.stats().faults_sanitized(), 0);
        assert_eq!(s.stats().received, 100);
        assert_eq!(s.stats().emitted, 100);
    }

    #[test]
    fn duplicates_and_reversals_are_dropped() {
        let mut s = sanitizer();
        assert_eq!(s.ingest(5, 1.0).len(), 1);
        assert!(s.ingest(5, 2.0).is_empty(), "same minute");
        assert!(s.ingest(3, 3.0).is_empty(), "time reversal");
        assert_eq!(s.ingest(6, 4.0).len(), 1);
        assert_eq!(s.stats().duplicates_dropped, 2);
    }

    #[test]
    fn nan_and_sentinel_replaced_with_last_value() {
        let mut s = sanitizer();
        s.ingest(0, 5.0);
        assert_eq!(s.ingest(1, f64::NAN), vec![5.0]);
        assert_eq!(s.ingest(2, -1.0), vec![5.0], "default sentinel");
        assert_eq!(s.ingest(3, f64::INFINITY), vec![5.0]);
        assert_eq!(s.stats().nonfinite_replaced, 2);
        assert_eq!(s.stats().sentinels_replaced, 1);
    }

    #[test]
    fn unusable_first_reading_is_skipped() {
        let mut s = sanitizer();
        assert!(s.ingest(0, f64::NAN).is_empty(), "no last value to repair with");
        let out = s.ingest(1, 2.0);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn gaps_interpolate_up_to_cap() {
        let mut s = Sanitizer::new(IngestConfig {
            gap_fill: GapFill::Interpolate,
            max_gap_fill: 10,
            ..IngestConfig::default()
        })
        .unwrap();
        s.ingest(0, 0.0);
        // Minutes 1..=3 missing; reading at 4 is 8.0 -> fills 2, 4, 6.
        let out = s.ingest(4, 8.0);
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.stats().gap_samples_filled, 3);
    }

    #[test]
    fn gaps_hold_last_when_configured() {
        let mut s =
            Sanitizer::new(IngestConfig { gap_fill: GapFill::HoldLast, ..IngestConfig::default() })
                .unwrap();
        s.ingest(0, 3.0);
        let out = s.ingest(3, 9.0);
        assert_eq!(out, vec![3.0, 3.0, 9.0]);
    }

    #[test]
    fn oversized_gaps_are_truncated_not_fabricated() {
        let mut s = Sanitizer::new(IngestConfig {
            max_gap_fill: 2,
            gap_fill: GapFill::HoldLast,
            ..IngestConfig::default()
        })
        .unwrap();
        s.ingest(0, 1.0);
        let out = s.ingest(100, 2.0);
        assert_eq!(out.len(), 3, "2 fills + the reading itself");
        assert_eq!(s.stats().gap_samples_filled, 2);
        assert_eq!(s.stats().gap_samples_skipped, 97);
    }

    #[test]
    fn spikes_are_clamped_by_the_mad_envelope() {
        let mut s = sanitizer();
        // Warm the window with a tame signal around 10.
        for t in 0..40u64 {
            s.ingest(t, 10.0 + (t as f64 * 0.4).sin());
        }
        let out = s.ingest(40, 500.0);
        assert_eq!(out.len(), 1);
        assert!(out[0] < 50.0, "spike must be clamped, got {}", out[0]);
        assert_eq!(s.stats().outliers_clamped, 1);
        // A negative spike clamps to the lower edge.
        let out = s.ingest(41, -500.0);
        assert!(out[0] > -50.0, "got {}", out[0]);
    }

    #[test]
    fn level_shifts_survive_on_flat_windows() {
        // A perfectly flat window has MAD 0; the scale floor must let a
        // legitimate regime change through (clamped toward it at worst).
        let mut s = sanitizer();
        for t in 0..40u64 {
            s.ingest(t, 100.0);
        }
        let out = s.ingest(40, 101.0);
        assert_eq!(out, vec![101.0], "a 1% shift is not an outlier");
    }

    #[test]
    fn stuck_runs_are_counted() {
        let mut s =
            Sanitizer::new(IngestConfig { stuck_run_threshold: 5, ..IngestConfig::default() })
                .unwrap();
        for t in 0..20u64 {
            s.ingest(t, 7.0);
        }
        assert_eq!(s.stats().stuck_runs, 1, "one run, counted once");
        for t in 20..25u64 {
            s.ingest(t, (t - 19) as f64);
        }
        for t in 25..35u64 {
            s.ingest(t, 42.0);
        }
        assert_eq!(s.stats().stuck_runs, 2);
    }

    #[test]
    fn config_validation() {
        assert!(IngestConfig { robust_window: 2, ..IngestConfig::default() }.validate().is_err());
        assert!(IngestConfig {
            outlier: OutlierPolicy::MadClamp { threshold: 0.0 },
            ..IngestConfig::default()
        }
        .validate()
        .is_err());
        assert!(IngestConfig { sentinel_values: vec![f64::NAN], ..IngestConfig::default() }
            .validate()
            .is_err());
        assert!(IngestConfig { outlier: OutlierPolicy::None, ..IngestConfig::default() }
            .validate()
            .is_ok());
    }

    #[test]
    fn mad_min_over_runs_matches_selection_bit_for_bit() {
        use simrng::{Rng64, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(0x004D_4144);
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for n in 1..=64usize {
            for case in 0..14 {
                // Where a two-level window steps up, and where a spike sits
                // (either end included).
                let split = (rng.next_u64() % (n as u64 + 1)) as usize;
                let spike = (rng.next_u64() % n as u64) as usize;
                let w: Vec<f64> = (0..n)
                    .map(|i| match case {
                        // Constant windows, of either sign or zero.
                        0 => 3.25,
                        1 => -0.0,
                        2 => -7.5,
                        // Few distinct values: ties and duplicates everywhere.
                        3 => [1.0, 2.0, 2.0, 5.0][(rng.next_u64() % 4) as usize],
                        4 => [-1.0, 0.0, 1.0][(rng.next_u64() % 3) as usize],
                        // Two levels, shuffled and as one step.
                        5 => [10.0, 20.0][(rng.next_u64() % 2) as usize],
                        6 => {
                            if i < split {
                                -4.0
                            } else {
                                7.5
                            }
                        }
                        // Mixed signs across magnitudes.
                        7 => rng.uniform(-1.0, 1.0) * 10f64.powi((rng.next_u64() % 9) as i32 - 4),
                        8 => rng.uniform(-3.0, 3.0),
                        // Symmetric pairs around the median: equal deviations.
                        9 => (i / 2) as f64 * if i % 2 == 0 { 1.0 } else { -1.0 },
                        // A level with one far spike, up or down.
                        10 if i == spike => 1e12,
                        11 if i == spike => -1e9,
                        10 | 11 => 2.0 + rng.uniform(-0.1, 0.1),
                        _ => 50.0 + rng.uniform(-5.0, 5.0),
                    })
                    .collect();
                windows.push(w);
            }
        }
        for mut w in windows {
            w.sort_unstable_by(f64::total_cmp);
            let med = stats::quantile_sorted(&w, 0.5).unwrap();
            let mut dev: Vec<f64> = w.iter().map(|x| (x - med).abs()).collect();
            let reference = stats::quantile_select(&mut dev, 0.5).unwrap();
            assert_eq!(mad_sorted(&w, med).to_bits(), reference.to_bits(), "window {w:?}");
        }
    }

    #[test]
    fn guarded_larp_serves_through_faults() {
        let mut g = GuardedLarp::new(
            IngestConfig::default(),
            LarpConfig::default(),
            40,
            QualityAssuror::new(2.0, 8, 4).unwrap(),
        )
        .unwrap();
        let mut steps = 0;
        let mut forecasts = 0;
        for t in 0..200u64 {
            // Every 13th reading NaN, every 17th a duplicate of the previous
            // minute, every 29th a spike.
            let base = 50.0 + (t as f64 * 0.2).sin() * 5.0;
            let (minute, value) = if t % 17 == 0 && t > 0 {
                (t - 1, base)
            } else if t % 13 == 0 && t > 0 {
                (t, f64::NAN)
            } else if t % 29 == 0 && t > 0 {
                (t, base * 100.0)
            } else {
                (t, base)
            };
            for step in g.ingest(minute, value) {
                steps += 1;
                if let Some(f) = step.forecast {
                    assert!(f.is_finite());
                    forecasts += 1;
                }
            }
        }
        assert!(steps > 150, "{steps}");
        assert!(forecasts > 100, "{forecasts}");
        assert!(g.sanitizer().stats().faults_sanitized() > 10);
        assert!(g.online().is_trained());
    }
}
