//! The Prediction Quality Assuror (paper §3.2, Figure 1).
//!
//! "The Prediction Quality Assuror (QA) … periodically audits the prediction
//! performance by calculating the average MSE of historical prediction data …
//! When the average MSE of the audit window exceeds a predefined threshold, it
//! directs the LARPredictor to re-train the predictors and the classifier."
//!
//! [`QualityAssuror`] is that component as a small state machine: feed it
//! (prediction, observation) pairs; every `audit_period` samples it audits the
//! rolling window and reports whether retraining is due.

use std::collections::VecDeque;

use crate::{LarpError, Result};

/// Outcome of one recorded sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AuditOutcome {
    /// Not an audit point; nothing to report.
    NotAudited,
    /// Audited: rolling MSE within threshold.
    Healthy {
        /// The rolling MSE at the audit.
        mse: f64,
    },
    /// Audited: rolling MSE exceeded the threshold — retrain.
    RetrainNeeded {
        /// The rolling MSE at the audit.
        mse: f64,
    },
}

/// Rolling-window MSE auditor with a retraining threshold.
#[derive(Debug, Clone)]
pub struct QualityAssuror {
    pub(crate) threshold: f64,
    pub(crate) audit_window: usize,
    pub(crate) audit_period: usize,
    pub(crate) errors: VecDeque<f64>,
    pub(crate) since_audit: usize,
    pub(crate) audits: usize,
    pub(crate) retrains_signalled: usize,
}

impl QualityAssuror {
    /// Creates an auditor.
    ///
    /// * `threshold` — rolling MSE above which retraining is ordered;
    /// * `audit_window` — how many recent squared errors the audit averages;
    /// * `audit_period` — audit every this-many recorded samples.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] for a non-positive threshold or
    /// zero window/period.
    pub fn new(threshold: f64, audit_window: usize, audit_period: usize) -> Result<Self> {
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(LarpError::InvalidConfig(format!(
                "QA threshold must be positive, got {threshold}"
            )));
        }
        if audit_window == 0 || audit_period == 0 {
            return Err(LarpError::InvalidConfig("QA window and period must be positive".into()));
        }
        Ok(Self {
            threshold,
            audit_window,
            audit_period,
            errors: VecDeque::with_capacity(audit_window),
            since_audit: 0,
            audits: 0,
            retrains_signalled: 0,
        })
    }

    /// Records one (prediction, observation) pair; audits if the period is due.
    ///
    /// A non-finite prediction or observation is recorded as a large *finite*
    /// squared error (`2 · threshold · audit_window`): NaN must never poison
    /// the rolling mean into permanent NaN (which would disable auditing
    /// entirely), but a faulted sample still guarantees the next audit trips.
    pub fn record(&mut self, predicted: f64, observed: f64) -> AuditOutcome {
        let d = predicted - observed;
        let mut sq = d * d;
        if !sq.is_finite() {
            sq = 2.0 * self.threshold * self.audit_window as f64;
        }
        // Evict before pushing, so the window holds exactly `audit_window`
        // slots and never grows past them.
        if self.errors.len() >= self.audit_window {
            self.errors.pop_front();
        } else {
            self.errors.reserve_exact(self.audit_window - self.errors.len());
        }
        self.errors.push_back(sq);
        self.since_audit += 1;
        if self.since_audit < self.audit_period {
            return AuditOutcome::NotAudited;
        }
        self.since_audit = 0;
        self.audits += 1;
        let mse = self.rolling_mse().expect("window non-empty after record");
        if mse > self.threshold {
            self.retrains_signalled += 1;
            AuditOutcome::RetrainNeeded { mse }
        } else {
            AuditOutcome::Healthy { mse }
        }
    }

    /// Heap bytes held by the error window, for memory accounting.
    pub fn heap_bytes(&self) -> usize {
        self.errors.capacity() * std::mem::size_of::<f64>()
    }

    /// Current rolling MSE (`None` before any sample).
    pub fn rolling_mse(&self) -> Option<f64> {
        if self.errors.is_empty() {
            None
        } else {
            Some(self.errors.iter().sum::<f64>() / self.errors.len() as f64)
        }
    }

    /// Clears the error window (call after retraining so stale errors from the
    /// old model don't immediately re-trigger).
    pub fn reset(&mut self) {
        self.errors.clear();
        self.since_audit = 0;
    }

    /// Number of audits performed.
    pub fn audits(&self) -> usize {
        self.audits
    }

    /// Number of retrain signals issued.
    pub fn retrains_signalled(&self) -> usize {
        self.retrains_signalled
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(QualityAssuror::new(0.0, 10, 5).is_err());
        assert!(QualityAssuror::new(-1.0, 10, 5).is_err());
        assert!(QualityAssuror::new(f64::NAN, 10, 5).is_err());
        assert!(QualityAssuror::new(1.0, 0, 5).is_err());
        assert!(QualityAssuror::new(1.0, 10, 0).is_err());
        assert!(QualityAssuror::new(1.0, 10, 5).is_ok());
    }

    #[test]
    fn audits_only_at_period_boundaries() {
        let mut qa = QualityAssuror::new(1.0, 8, 4).unwrap();
        for i in 0..3 {
            assert_eq!(qa.record(0.0, 0.0), AuditOutcome::NotAudited, "sample {i}");
        }
        assert!(matches!(qa.record(0.0, 0.0), AuditOutcome::Healthy { .. }));
        assert_eq!(qa.audits(), 1);
    }

    #[test]
    fn good_predictions_stay_healthy() {
        let mut qa = QualityAssuror::new(0.5, 10, 5).unwrap();
        for _ in 0..50 {
            let out = qa.record(1.0, 1.1);
            assert!(!matches!(out, AuditOutcome::RetrainNeeded { .. }));
        }
        assert_eq!(qa.retrains_signalled(), 0);
    }

    #[test]
    fn degrading_predictions_trigger_retrain() {
        let mut qa = QualityAssuror::new(0.5, 4, 4).unwrap();
        // Four errors of magnitude 2 -> rolling MSE 4 > 0.5.
        let mut triggered = false;
        for _ in 0..4 {
            if matches!(qa.record(0.0, 2.0), AuditOutcome::RetrainNeeded { .. }) {
                triggered = true;
            }
        }
        assert!(triggered);
        assert_eq!(qa.retrains_signalled(), 1);
    }

    #[test]
    fn rolling_window_forgets_old_errors() {
        let mut qa = QualityAssuror::new(0.5, 2, 1).unwrap();
        // One huge error, then perfect predictions: after 2 good samples the
        // window contains only zeros.
        assert!(matches!(qa.record(0.0, 10.0), AuditOutcome::RetrainNeeded { .. }));
        qa.record(1.0, 1.0);
        let out = qa.record(1.0, 1.0);
        assert!(matches!(out, AuditOutcome::Healthy { mse } if mse == 0.0));
    }

    #[test]
    fn reset_clears_state() {
        let mut qa = QualityAssuror::new(0.5, 4, 2).unwrap();
        qa.record(0.0, 5.0);
        qa.reset();
        assert_eq!(qa.rolling_mse(), None);
        // After reset the period counter restarts too.
        assert_eq!(qa.record(0.0, 0.0), AuditOutcome::NotAudited);
    }

    #[test]
    fn nonfinite_samples_trip_the_audit_without_poisoning_the_window() {
        let mut qa = QualityAssuror::new(1.0, 4, 1).unwrap();
        // A NaN observation audits as RetrainNeeded with a finite MSE.
        match qa.record(0.5, f64::NAN) {
            AuditOutcome::RetrainNeeded { mse } => assert!(mse.is_finite()),
            other => panic!("unexpected {other:?}"),
        }
        match qa.record(f64::INFINITY, 1.0) {
            AuditOutcome::RetrainNeeded { mse } => assert!(mse.is_finite()),
            other => panic!("unexpected {other:?}"),
        }
        // Once the faulted samples roll out of the window, health returns.
        for _ in 0..4 {
            qa.record(1.0, 1.0);
        }
        assert!(matches!(qa.record(1.0, 1.0), AuditOutcome::Healthy { mse } if mse == 0.0));
    }

    #[test]
    fn audit_reports_exact_mse() {
        let mut qa = QualityAssuror::new(100.0, 2, 2).unwrap();
        qa.record(0.0, 1.0); // sq = 1
        match qa.record(0.0, 3.0) {
            AuditOutcome::Healthy { mse } => assert!((mse - 5.0).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }
}
