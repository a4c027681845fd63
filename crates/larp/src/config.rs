//! LARPredictor configuration.

use predictors::ModelSpec;

use crate::{LarpError, Result};

/// How the classification feature space is built from prediction windows.
#[derive(Debug, Clone, PartialEq)]
pub enum FeatureReduction {
    /// Project windows onto the top `n` principal components. The paper fixes
    /// `n = 2` ("the minimal fraction variance was set to extract exactly two
    /// principal components").
    Pca {
        /// Number of components to keep.
        dims: usize,
    },
    /// Keep the smallest number of components reaching this cumulative
    /// explained-variance fraction (the paper's general formulation).
    PcaFraction {
        /// Required variance fraction in `(0, 1]`.
        min_fraction: f64,
    },
    /// No reduction: classify in the raw `m`-dimensional window space
    /// (the ABL1 ablation arm).
    None,
}

/// Full configuration of a LARPredictor.
#[derive(Debug, Clone, PartialEq)]
pub struct LarpConfig {
    /// Prediction window size `m` (also the AR order and SW_AVG window in the
    /// standard pool). The paper uses 5 for 24-hour traces and 16 for the
    /// 7-day VM1 trace.
    pub window: usize,
    /// Feature-space reduction before classification.
    pub reduction: FeatureReduction,
    /// Neighbour count `k` for the k-NN classifier (paper: 3).
    pub k: usize,
    /// The predictor pool specification.
    pub pool: Vec<ModelSpec>,
}

impl Default for LarpConfig {
    /// The paper's configuration for the short traces: `m = 5`, PCA to
    /// `n = 2`, `3`-NN over the standard {LAST, AR, SW_AVG} pool.
    fn default() -> Self {
        Self::paper(5)
    }
}

impl LarpConfig {
    /// The paper's configuration with prediction window `m` (the paper uses
    /// `m = 5` for 5-minute/24-hour traces and `m = 16` for the 30-minute/
    /// 7-day VM1 trace).
    pub fn paper(window: usize) -> Self {
        Self {
            window,
            reduction: FeatureReduction::Pca { dims: 2 },
            k: 3,
            pool: ModelSpec::standard_pool(window),
        }
    }

    /// The paper configuration with the extended 11-model pool.
    pub fn extended(window: usize) -> Self {
        Self { pool: ModelSpec::extended_pool(window), ..Self::paper(window) }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] for a zero window/k, an empty
    /// pool, or a PCA dimension larger than the window.
    pub fn validate(&self) -> Result<()> {
        if self.window == 0 {
            return Err(LarpError::InvalidConfig("window must be >= 1".into()));
        }
        if self.k == 0 {
            return Err(LarpError::InvalidConfig("k must be >= 1".into()));
        }
        if self.pool.is_empty() {
            return Err(LarpError::InvalidConfig("pool must contain a model".into()));
        }
        // The k-NN index stores each window's best member as a byte.
        if self.pool.len() > learn::knn::MAX_LABEL + 1 {
            return Err(LarpError::InvalidConfig(format!(
                "pool has {} models; at most {} are supported",
                self.pool.len(),
                learn::knn::MAX_LABEL + 1
            )));
        }
        match &self.reduction {
            FeatureReduction::Pca { dims } => {
                if *dims == 0 || *dims > self.window {
                    return Err(LarpError::InvalidConfig(format!(
                        "PCA dims must be in 1..={}, got {dims}",
                        self.window
                    )));
                }
            }
            FeatureReduction::PcaFraction { min_fraction } => {
                if !(min_fraction.is_finite() && 0.0 < *min_fraction && *min_fraction <= 1.0) {
                    return Err(LarpError::InvalidConfig(format!(
                        "variance fraction must be in (0, 1], got {min_fraction}"
                    )));
                }
            }
            FeatureReduction::None => {}
        }
        Ok(())
    }
}

/// Fault-tolerance policy for [`crate::OnlineLarp`]: predictor quarantine,
/// retrain retry backoff, and the history ring's storage precision.
///
/// The retained history length is not a knob: the stream derives it from
/// what serving reads ([`crate::OnlineLarp::history_cap`]).
///
/// The defaults are deliberately permissive — clean streams behave exactly as
/// they did without a resilience layer — and every knob exists to survive the
/// fault model documented in DESIGN.md ("Fault model & degradation ladder").
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// A forecast whose absolute error exceeds `divergence_factor` times the
    /// training standard deviation counts as a divergence strike against the
    /// predictor that produced it.
    pub divergence_factor: f64,
    /// Consecutive divergence strikes before a predictor is quarantined.
    /// Non-finite forecasts quarantine immediately regardless.
    pub max_strikes: usize,
    /// First quarantine lasts this many steps; each subsequent quarantine of
    /// the same predictor doubles it (exponential backoff).
    pub quarantine_base: usize,
    /// Upper bound on any quarantine duration, in steps.
    pub quarantine_cap: usize,
    /// First retrain retry after a training failure waits this many steps;
    /// consecutive failures double it.
    pub retrain_backoff_base: usize,
    /// Upper bound on the retrain retry delay, in steps.
    pub retrain_backoff_cap: usize,
    /// Store the history ring as `f32` instead of `f64`, halving its
    /// allocation (the million-stream memory diet, DESIGN.md §11). The
    /// normalised tail a step reads is quantized to `f32` the same way.
    ///
    /// Quantization happens exactly once, on push (the nearest `f32`, a
    /// finite value beyond ±`f32::MAX` saturating to ±`f32::MAX`); every
    /// read widens back to `f64`, so all downstream math runs in `f64` over
    /// the same quantized inputs. Within a mode, serving stays fully
    /// deterministic and snapshots restore bit-identically — but forecasts
    /// differ between `f32` and `f64` streams, so the mode is part of the
    /// stream's identity (serialized in the snapshot, default `false`).
    pub f32_history: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            divergence_factor: 50.0,
            max_strikes: 3,
            quarantine_base: 8,
            quarantine_cap: 256,
            retrain_backoff_base: 4,
            retrain_backoff_cap: 64,
            f32_history: false,
        }
    }
}

impl ResilienceConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] for a non-positive divergence
    /// factor, zero strike/backoff parameters, or a cap below its base.
    pub fn validate(&self) -> Result<()> {
        if !(self.divergence_factor.is_finite() && self.divergence_factor > 0.0) {
            return Err(LarpError::InvalidConfig(format!(
                "divergence_factor must be positive, got {}",
                self.divergence_factor
            )));
        }
        if self.max_strikes == 0 || self.quarantine_base == 0 || self.retrain_backoff_base == 0 {
            return Err(LarpError::InvalidConfig(
                "max_strikes, quarantine_base and retrain_backoff_base must be >= 1".into(),
            ));
        }
        if self.quarantine_cap < self.quarantine_base
            || self.retrain_backoff_cap < self.retrain_backoff_base
        {
            return Err(LarpError::InvalidConfig("backoff caps must be >= their bases".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_short_trace_settings() {
        let c = LarpConfig::default();
        assert_eq!(c.window, 5);
        assert_eq!(c.k, 3);
        assert_eq!(c.reduction, FeatureReduction::Pca { dims: 2 });
        assert_eq!(c.pool.len(), 3);
        c.validate().unwrap();
    }

    #[test]
    fn paper_16_is_the_vm1_configuration() {
        let c = LarpConfig::paper(16);
        assert_eq!(c.window, 16);
        assert!(matches!(c.pool[1], ModelSpec::Ar { order: 16 }));
        c.validate().unwrap();
    }

    #[test]
    fn extended_pool_config_validates() {
        let c = LarpConfig::extended(5);
        assert!(c.pool.len() > 3);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = LarpConfig { window: 0, ..LarpConfig::default() };
        assert!(c.validate().is_err());

        let c = LarpConfig { k: 0, ..LarpConfig::default() };
        assert!(c.validate().is_err());

        let c = LarpConfig { pool: Vec::new(), ..LarpConfig::default() };
        assert!(c.validate().is_err());

        // The k-NN index labels windows with a byte: 256 members fit, 257 do not.
        for (members, ok) in [(256, true), (257, false)] {
            let c = LarpConfig { pool: vec![ModelSpec::Last; members], ..LarpConfig::default() };
            assert_eq!(c.validate().is_ok(), ok, "{members} members");
        }

        let c =
            LarpConfig { reduction: FeatureReduction::Pca { dims: 9 }, ..LarpConfig::default() };
        assert!(c.validate().is_err());

        let c = LarpConfig {
            reduction: FeatureReduction::PcaFraction { min_fraction: 0.0 },
            ..LarpConfig::default()
        };
        assert!(c.validate().is_err());

        let c = LarpConfig { reduction: FeatureReduction::None, ..LarpConfig::default() };
        c.validate().unwrap();
    }

    #[test]
    fn resilience_default_validates() {
        ResilienceConfig::default().validate().unwrap();
    }

    #[test]
    fn resilience_validation_catches_bad_values() {
        let r = ResilienceConfig { divergence_factor: 0.0, ..ResilienceConfig::default() };
        assert!(r.validate().is_err());
        let r = ResilienceConfig { divergence_factor: f64::NAN, ..ResilienceConfig::default() };
        assert!(r.validate().is_err());
        let r = ResilienceConfig { max_strikes: 0, ..ResilienceConfig::default() };
        assert!(r.validate().is_err());
        let r = ResilienceConfig { quarantine_base: 0, ..ResilienceConfig::default() };
        assert!(r.validate().is_err());
        let r = ResilienceConfig {
            quarantine_cap: 1,
            quarantine_base: 8,
            ..ResilienceConfig::default()
        };
        assert!(r.validate().is_err());
        let r = ResilienceConfig {
            retrain_backoff_cap: 1,
            retrain_backoff_base: 4,
            ..ResilienceConfig::default()
        };
        assert!(r.validate().is_err());
    }
}
