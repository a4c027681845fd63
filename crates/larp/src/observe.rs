//! Registry-backed observability for the online serving stack.
//!
//! [`LarpObs`] bundles the metric handles and (optionally) the event ring
//! one serving stack records into. It is label-free by design: every stream
//! of a fleet shares *one* bundle of the named counters, so fleet-wide
//! rollups fall out of the registry with zero aggregation code, while
//! [`LarpObs::for_stream`] tags the *events* with the stream id so traces
//! stay attributable. A stream holds only that shared handle, its id and
//! its last serving choice.
//!
//! Metric set (naming scheme in DESIGN.md §5):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `larp_selections_total` | counter | healthy k-NN-selected forecasts |
//! | `larp_degraded_steps_total` | counter | forecasts by a fallback member |
//! | `larp_fallback_steps_total` | counter | last-value persistence forecasts |
//! | `larp_quarantines_total` | counter | pool members benched |
//! | `larp_quarantine_exits_total` | counter | quarantines expired |
//! | `larp_retrains_total` | counter | successful (re)trainings |
//! | `larp_retrain_failures_total` | counter | failed training attempts |
//! | `larp_nonfinite_forecasts_total` | counter | non-finite forecasts caught |
//! | `larp_faults_sanitized_total` | counter | ingestion repairs performed |
//! | `larp_retrain_us` | histogram | (re)training fit time, µs |
//! | `larp_slow_retrains_total` | counter | fits over the slow threshold |
//!
//! Hot-path budget: one counter increment per step plus one `Cell`
//! comparison; events fire only on *transitions* (the selector's choice or
//! the serving rung changed), never per sample.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{Counter, EventKind, EventRing, Histogram, Registry, ServingRung};

use crate::online::HealthState;

/// The serving ladder state an emitted event describes.
fn rung_of(health: HealthState) -> ServingRung {
    match health {
        HealthState::Healthy => ServingRung::Primary,
        HealthState::Degraded => ServingRung::Degraded,
        HealthState::Fallback => ServingRung::Persistence,
    }
}

/// Packs a `(chosen, rung)` serving choice into a non-zero u64 so the
/// previous choice fits in one atomic (0 = no step served yet). Layout:
/// bit 63 set, bit 62 = chosen is Some, bits 60–61 = rung, bits 0–59 = the
/// chosen pool index (pool sizes are single digits in practice).
fn pack_choice(chosen: Option<u64>, rung: ServingRung) -> u64 {
    let rung_bits = match rung {
        ServingRung::Primary => 0u64,
        ServingRung::Degraded => 1,
        ServingRung::Persistence => 2,
    };
    let (flag, idx) = match chosen {
        Some(i) => (1u64, i & ((1 << 60) - 1)),
        None => (0, 0),
    };
    (1 << 63) | (flag << 62) | (rung_bits << 60) | idx
}

/// The rung encoded by [`pack_choice`].
fn unpack_rung(packed: u64) -> ServingRung {
    match (packed >> 60) & 0b11 {
        0 => ServingRung::Primary,
        1 => ServingRung::Degraded,
        _ => ServingRung::Persistence,
    }
}

/// Metric handles (shared, label-free) plus per-stream event context for one
/// serving stack. Attach with [`crate::OnlineLarp::attach_obs`] or
/// [`crate::GuardedLarp::attach_obs`].
#[derive(Debug)]
pub struct LarpObs {
    metrics: Arc<LarpMetrics>,
    stream: Option<u64>,
    /// Last `(chosen, rung)` served, packed via [`pack_choice`] (0 = none),
    /// for transition-only event emission. Runtime-only: deliberately not
    /// part of any snapshot.
    last_choice: AtomicU64,
}

/// The handles every stream of a fleet shares.
#[derive(Debug, Clone)]
struct LarpMetrics {
    selections: Counter,
    degraded_steps: Counter,
    fallback_steps: Counter,
    quarantines: Counter,
    quarantine_exits: Counter,
    retrains: Counter,
    retrain_failures: Counter,
    nonfinite: Counter,
    sanitized: Counter,
    retrain_us: Histogram,
    slow_retrains: Counter,
    /// Fit-time threshold above which a retrain counts as *slow* (emits a
    /// [`EventKind::SlowRetrain`] event and bumps `larp_slow_retrains_total`).
    slow_retrain_threshold_us: u64,
    events: Option<EventRing>,
}

impl LarpObs {
    /// Registers (or re-uses — registration is idempotent) the `larp_*`
    /// metric set on `registry`.
    pub fn register(registry: &Registry) -> Self {
        let metrics = LarpMetrics {
            selections: registry.counter("larp_selections_total"),
            degraded_steps: registry.counter("larp_degraded_steps_total"),
            fallback_steps: registry.counter("larp_fallback_steps_total"),
            quarantines: registry.counter("larp_quarantines_total"),
            quarantine_exits: registry.counter("larp_quarantine_exits_total"),
            retrains: registry.counter("larp_retrains_total"),
            retrain_failures: registry.counter("larp_retrain_failures_total"),
            nonfinite: registry.counter("larp_nonfinite_forecasts_total"),
            sanitized: registry.counter("larp_faults_sanitized_total"),
            retrain_us: registry.histogram("larp_retrain_us"),
            slow_retrains: registry.counter("larp_slow_retrains_total"),
            slow_retrain_threshold_us: Self::DEFAULT_SLOW_RETRAIN_US,
            events: None,
        };
        Self { metrics: Arc::new(metrics), stream: None, last_choice: AtomicU64::new(0) }
    }

    /// Default slow-retrain threshold: 100 ms of fit time, ~3000× the
    /// steady-state per-sample serving budget.
    pub const DEFAULT_SLOW_RETRAIN_US: u64 = 100_000;

    /// Routes transition events into `ring` (metrics alone otherwise).
    #[must_use]
    pub fn with_events(mut self, ring: EventRing) -> Self {
        Arc::make_mut(&mut self.metrics).events = Some(ring);
        self
    }

    /// Overrides the slow-retrain threshold (µs of fit time; fits strictly
    /// above it count as slow).
    #[must_use]
    pub fn with_slow_retrain_threshold_us(mut self, threshold_us: u64) -> Self {
        Arc::make_mut(&mut self.metrics).slow_retrain_threshold_us = threshold_us;
        self
    }

    /// A recorder sharing these metric cells whose events carry `id` —
    /// what a fleet attaches to each of its streams.
    pub fn for_stream(&self, id: u64) -> Self {
        Self {
            metrics: Arc::clone(&self.metrics),
            stream: Some(id),
            last_choice: AtomicU64::new(0),
        }
    }

    fn emit(&self, kind: EventKind) {
        if let Some(ring) = &self.metrics.events {
            ring.push(self.stream, kind);
        }
    }

    /// Records one served step; emits events only when the selection or the
    /// serving rung changed since the previous step.
    pub(crate) fn record_step(&self, chosen: Option<u64>, health: HealthState) {
        let rung = rung_of(health);
        let m = &self.metrics;
        match health {
            HealthState::Healthy => m.selections.inc(),
            HealthState::Degraded => m.degraded_steps.inc(),
            HealthState::Fallback => m.fallback_steps.inc(),
        }
        let now = pack_choice(chosen, rung);
        let before = self.last_choice.swap(now, Ordering::Relaxed);
        if before != now {
            if before != 0 {
                let prev_rung = unpack_rung(before);
                if prev_rung != rung {
                    self.emit(EventKind::DegradationTransition { from: prev_rung, to: rung });
                }
            }
            self.emit(EventKind::SelectorDecision { predictor: chosen, rung });
        }
    }

    pub(crate) fn record_quarantine(&self, predictor: usize, until_step: u64) {
        self.metrics.quarantines.inc();
        self.emit(EventKind::QuarantineEnter { predictor: predictor as u64, until_step });
    }

    pub(crate) fn record_quarantine_exit(&self, predictor: usize) {
        self.metrics.quarantine_exits.inc();
        self.emit(EventKind::QuarantineExit { predictor: predictor as u64 });
    }

    /// Records one successful (re)train and its fit time.
    pub(crate) fn record_retrain_success(&self, fit_us: u64) {
        let m = &self.metrics;
        m.retrains.inc();
        m.retrain_us.record(fit_us as f64);
        self.emit(EventKind::RetrainSucceeded { duration_us: fit_us });
        if fit_us > m.slow_retrain_threshold_us {
            m.slow_retrains.inc();
            self.emit(EventKind::SlowRetrain { fit_us, threshold_us: m.slow_retrain_threshold_us });
        }
    }

    pub(crate) fn record_retrain_failure(&self, consecutive: u64) {
        self.metrics.retrain_failures.inc();
        self.emit(EventKind::RetrainFailed { consecutive });
    }

    pub(crate) fn record_nonfinite(&self) {
        self.metrics.nonfinite.inc();
    }

    pub(crate) fn record_sanitized(&self, repairs: u64) {
        self.metrics.sanitized.add(repairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up_across_streams() {
        let registry = Registry::new();
        let base = LarpObs::register(&registry);
        let a = base.for_stream(1);
        let b = base.for_stream(2);
        a.record_step(Some(0), HealthState::Healthy);
        b.record_step(Some(1), HealthState::Healthy);
        b.record_step(None, HealthState::Fallback);
        assert_eq!(a.metrics.selections.get(), 2, "streams share the fleet-wide cell");
        assert_eq!(b.metrics.fallback_steps.get(), 1);
    }

    #[test]
    fn events_fire_on_transitions_only() {
        let registry = Registry::new();
        let ring = EventRing::new(64);
        let o = LarpObs::register(&registry).with_events(ring.clone()).for_stream(7);
        for _ in 0..5 {
            o.record_step(Some(2), HealthState::Healthy);
        }
        assert_eq!(ring.recorded(), 1, "steady state is silent");
        o.record_step(Some(1), HealthState::Degraded);
        // A rung change emits both the transition and the new decision.
        assert_eq!(ring.recorded(), 3);
        let events = ring.recent();
        assert_eq!(events[1].kind.name(), "degradation_transition");
        assert_eq!(events[2].kind.name(), "selector_decision");
        assert_eq!(events[2].stream, Some(7));
    }

    #[test]
    fn registration_is_reentrant() {
        let registry = Registry::new();
        let a = LarpObs::register(&registry);
        let b = LarpObs::register(&registry);
        a.record_nonfinite();
        b.record_nonfinite();
        assert_eq!(a.metrics.nonfinite.get(), 2);
    }
}
