//! Online operation: streaming prediction with QA-triggered retraining and a
//! graceful-degradation ladder.
//!
//! The paper's prototype (Figure 1) runs continuously: the monitor feeds new
//! samples, the LARPredictor forecasts the next one, and the Quality Assuror
//! retrains the whole stack when accuracy degrades. [`OnlineLarp`] is that loop
//! as a library type: push raw observations one at a time, get back the
//! forecast for the *next* observation, and let the embedded
//! [`QualityAssuror`] decide when to refit on the most recent window of data.
//!
//! On top of the paper's loop this module adds the serving-robustness layer
//! described in DESIGN.md ("Fault model & degradation ladder"):
//!
//! * **Predictor quarantine** — a pool member that emits a non-finite
//!   forecast, or accumulates [`ResilienceConfig::max_strikes`] wildly
//!   diverging forecasts in a row, is benched for an exponentially growing
//!   number of steps before re-admission;
//! * **Degradation ladder** — when the k-NN choice is quarantined the loop
//!   falls back to the lowest-windowed-error non-quarantined pool member
//!   (NWS-style accounting via [`PoolErrorTracker`]), and when the whole pool
//!   is benched it serves last-value persistence rather than going dark;
//! * **Retrain retry with backoff** — a failed [`TrainedLarp::train`] keeps
//!   the stale model serving and schedules a retry instead of re-fitting (and
//!   re-failing) every step;
//! * **Health surface** — every [`OnlineStep`] reports a [`HealthState`] and
//!   the loop keeps [`OnlineCounters`] for observability.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use predictors::{ModelSpec, PredictorId};

use crate::config::{LarpConfig, ResilienceConfig};
use crate::model::{Scratch, TrainedLarp};
use crate::observe::LarpObs;
use crate::qa::{AuditOutcome, QualityAssuror};
use crate::ring::HistoryRing;
use crate::selector::PoolErrorTracker;
use crate::{LarpError, Result};

/// Serving health of one online step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// The k-NN-selected predictor served the forecast (or the loop is still
    /// in its warmup phase before the first training).
    #[default]
    Healthy,
    /// A fallback pool member served the forecast because the first choice is
    /// quarantined.
    Degraded,
    /// The whole pool (or the model itself) is unavailable; last-value
    /// persistence served the forecast.
    Fallback,
}

/// One step of online output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStep {
    /// Forecast (raw scale) for the next observation, if a model is trained
    /// and enough history exists.
    pub forecast: Option<f64>,
    /// Which pool member produced it (`None` for persistence fallback).
    pub chosen: Option<PredictorId>,
    /// Whether this step triggered a retrain.
    pub retrained: bool,
    /// Serving health of this step.
    pub health: HealthState,
}

/// Cumulative fault-handling counters, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineCounters {
    /// Quarantines imposed (manual and automatic).
    pub quarantines: usize,
    /// Retraining attempts that failed (stale model kept serving).
    pub retrain_failures: usize,
    /// Non-finite forecasts caught before they reached the caller.
    pub nonfinite_forecasts: usize,
    /// Steps served by a fallback pool member ([`HealthState::Degraded`]).
    pub degraded_steps: usize,
    /// Steps served by last-value persistence ([`HealthState::Fallback`]).
    pub fallback_steps: usize,
}

/// Per-pool-member quarantine bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PredictorHealth {
    /// Consecutive divergence strikes.
    pub(crate) strikes: usize,
    /// Step clock until which the predictor is benched.
    pub(crate) quarantined_until: Option<u64>,
    /// How often this predictor has been quarantined (drives the backoff).
    pub(crate) times_quarantined: u32,
}

/// A self-retraining, fault-tolerant streaming LARPredictor.
///
/// Fields are `pub(crate)` so `crate::snapshot` can serialize and rebuild the
/// exact serving state without retraining.
pub struct OnlineLarp {
    /// Shared with the installed model: a refit references it, not a copy.
    pub(crate) config: Arc<LarpConfig>,
    pub(crate) resilience: ResilienceConfig,
    pub(crate) qa: QualityAssuror,
    /// Most recent observations (raw scale), bounded by
    /// [`history_cap`]. The only copy of the history: a step normalises
    /// the tail it reads into the worker's [`Scratch`].
    pub(crate) history: HistoryRing,
    /// Total observations consumed (unlike `history.len()`, never truncated).
    pub(crate) seen: usize,
    /// How many most-recent points each (re)training uses.
    pub(crate) train_size: usize,
    pub(crate) model: Option<TrainedLarp>,
    /// The forecast made for the not-yet-seen next value, with its producer,
    /// for QA scoring and divergence attribution (`None` producer =
    /// persistence fallback).
    pub(crate) pending: Option<(Option<PredictorId>, f64)>,
    pub(crate) retrain_count: usize,
    /// Step clock (one tick per push), the time base for quarantine expiry
    /// and retrain backoff.
    pub(crate) clock: u64,
    pub(crate) predictor_health: Vec<PredictorHealth>,
    /// The fallback error tracker, created where it is first read (a step
    /// taken while a member is quarantined, or rung 2) and reset in place by
    /// every refit. Runtime-only: it restarts cold on restore.
    pub(crate) tracker: Option<PoolErrorTracker>,
    pub(crate) counters: OnlineCounters,
    pub(crate) consecutive_retrain_failures: u32,
    /// Earliest clock at which another training attempt is allowed.
    pub(crate) next_retrain_at: u64,
    pub(crate) retrain_pending: bool,
    /// Registry-backed recorder; runtime-only (never snapshotted, restored
    /// instances start unattached).
    pub(crate) obs: Option<LarpObs>,
}

thread_local! {
    /// The scratch behind the convenience [`OnlineLarp::push`] and
    /// [`crate::GuardedLarp::ingest`]: one per thread, not one per stream.
    static PUSH_SCRATCH: RefCell<Scratch> = RefCell::default();

    /// The model the last install on this thread retired: the next refit
    /// here writes into its storage instead of allocating a model.
    static SPARE_MODEL: Cell<Option<TrainedLarp>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's convenience scratch.
pub(crate) fn with_push_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    PUSH_SCRATCH.with_borrow_mut(f)
}

/// Ring capacity of a stream whose pool has a whole-history member (MEAN,
/// EWMA, the adaptive-window models): their forecasts read every retained
/// value, so a bound derived from the reads does not exist.
const WHOLE_HISTORY_CAP: usize = 4096;

/// The history a stream's ring retains: exactly what serving reads. A refit
/// reads the last `train_size` values, selection the last `m`, the fallback
/// tracker `4·m` values before the newest one, and each pool member its
/// [`history_span`](ModelSpec::history_span). A pool with a whole-history
/// member keeps [`WHOLE_HISTORY_CAP`]. Either way the ring holds at least
/// one training window.
pub(crate) fn history_cap(config: &LarpConfig, train_size: usize) -> usize {
    train_size.max(4 * config.window + 1).max(serve_span(config).unwrap_or(WHOLE_HISTORY_CAP))
}

/// How many most-recent values a forecast reads: the current window `m`
/// for selection and each pool member's
/// [`history_span`](ModelSpec::history_span). `None` when a member reads
/// the whole history.
fn serve_span(config: &LarpConfig) -> Option<usize> {
    config
        .pool
        .iter()
        .map(ModelSpec::history_span)
        .try_fold(config.window, |widest, span| Some(widest.max(span?)))
}

/// Resident heap bytes of one stream's predictor state, by component — the
/// accounting half of the memory diet (DESIGN.md §11). Sizes are the
/// *capacities* actually held (what the allocator sees), not logical lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamMemReport {
    /// Raw-history ring backing buffer.
    pub history_bytes: usize,
    /// Trained model minus the PCA basis: predictor pool state, k-NN point
    /// store + labels + tree nodes, spec lists.
    pub model_bytes: usize,
    /// PCA basis: mean, components and eigenvalues.
    pub pca_bytes: usize,
    /// Quality-assuror error window.
    pub qa_bytes: usize,
    /// Fallback error tracker (zero until the stream's first need) +
    /// per-predictor quarantine table.
    pub tracker_bytes: usize,
    /// Ingestion sanitizer mirror (zero for a bare [`OnlineLarp`]).
    pub sanitizer_bytes: usize,
}

impl StreamMemReport {
    /// Sum of every component, PCA included.
    pub fn total(&self) -> usize {
        self.history_bytes
            + self.model_bytes
            + self.pca_bytes
            + self.qa_bytes
            + self.tracker_bytes
            + self.sanitizer_bytes
    }

    /// Component-wise accumulation, for fleet-level rollups.
    pub fn accumulate(&mut self, other: &StreamMemReport) {
        self.history_bytes += other.history_bytes;
        self.model_bytes += other.model_bytes;
        self.pca_bytes += other.pca_bytes;
        self.qa_bytes += other.qa_bytes;
        self.tracker_bytes += other.tracker_bytes;
        self.sanitizer_bytes += other.sanitizer_bytes;
    }
}

impl OnlineLarp {
    /// Creates an online predictor with the default [`ResilienceConfig`].
    ///
    /// * `config` — the LARPredictor configuration;
    /// * `train_size` — number of most-recent samples used at each (re)train;
    /// * `qa` — quality assuror governing retraining.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] if `train_size` cannot support
    /// training under `config` (needs at least `window + max(k, 2)` points).
    pub fn new(config: LarpConfig, train_size: usize, qa: QualityAssuror) -> Result<Self> {
        Self::with_resilience(config, train_size, qa, ResilienceConfig::default())
    }

    /// [`OnlineLarp::new`] with an explicit fault-tolerance policy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OnlineLarp::new`], plus an invalid `resilience`.
    pub fn with_resilience(
        config: LarpConfig,
        train_size: usize,
        qa: QualityAssuror,
        resilience: ResilienceConfig,
    ) -> Result<Self> {
        config.validate()?;
        resilience.validate()?;
        let min_train = config.window + config.k.max(2);
        if train_size < min_train {
            return Err(LarpError::InvalidConfig(format!(
                "train_size {train_size} below minimum {min_train} for window {} and k {}",
                config.window, config.k
            )));
        }
        let cap = history_cap(&config, train_size);
        Ok(Self {
            config: Arc::new(config),
            qa,
            history: HistoryRing::new_mode(cap, resilience.f32_history),
            resilience,
            seen: 0,
            train_size,
            model: None,
            pending: None,
            retrain_count: 0,
            clock: 0,
            predictor_health: Vec::new(),
            tracker: None,
            counters: OnlineCounters::default(),
            consecutive_retrain_failures: 0,
            next_retrain_at: 0,
            retrain_pending: false,
            obs: None,
        })
    }

    /// Attaches a registry-backed recorder: selection outcomes, quarantine
    /// and retrain activity are mirrored into its metrics and event ring
    /// from this step on. The recorder is runtime state — snapshots neither
    /// carry nor require one.
    pub fn attach_obs(&mut self, obs: LarpObs) {
        self.obs = Some(obs);
    }

    /// The attached recorder, if any.
    pub fn obs(&self) -> Option<&LarpObs> {
        self.obs.as_ref()
    }

    /// Measures the resident heap bytes of this stream's state, by component.
    /// Cold path (walks fitted predictor state) — for accounting, not serving.
    pub fn mem_report(&self) -> StreamMemReport {
        let (model_bytes, pca_bytes) =
            self.model.as_ref().map_or((0, 0), TrainedLarp::heap_bytes_split);
        StreamMemReport {
            history_bytes: self.history.heap_bytes(),
            model_bytes,
            pca_bytes,
            qa_bytes: self.qa.heap_bytes(),
            tracker_bytes: self.tracker.as_ref().map_or(0, PoolErrorTracker::heap_bytes)
                + self.predictor_health.capacity() * std::mem::size_of::<PredictorHealth>(),
            sanitizer_bytes: 0,
        }
    }

    /// Feeds one raw observation; returns the forecast for the next one.
    ///
    /// Behaviour:
    /// 1. scores the previous forecast against `value` through the QA and the
    ///    divergence monitor (quarantining the producer if it misbehaved);
    /// 2. trains initially once `train_size` samples have arrived;
    /// 3. releases expired quarantines;
    /// 4. produces the next forecast by walking the degradation ladder:
    ///    k-NN choice → lowest-error non-quarantined member → persistence;
    /// 5. refits on the most recent `train_size` samples if the QA ordered
    ///    it and the retry backoff allows. The old model served this step's
    ///    forecast; the new one serves from the next push on.
    ///
    /// The returned forecast, when present, is always finite.
    pub fn push(&mut self, value: f64) -> OnlineStep {
        with_push_scratch(|scratch| self.push_with(value, scratch))
    }

    /// [`OnlineLarp::push`] with caller-owned scratch buffers: the serving
    /// layer keeps one [`Scratch`] per worker and reuses it across every
    /// stream it serves, making the steady-state step allocation-free.
    pub fn push_with(&mut self, value: f64, scratch: &mut Scratch) -> OnlineStep {
        self.clock += 1;

        // 1. Score the pending forecast.
        if let Some((producer, forecast)) = self.pending.take() {
            self.score_pending(producer, forecast, value);
        }

        self.history.push(value);
        // In `f32` mode the ring quantized on push; every derived value must
        // come from the *stored* reading, or a step and a restore would
        // disagree. In `f64` mode `stored == value` bit-for-bit.
        let stored = self.history.last().expect("value was just pushed");
        self.seen += 1;

        // Keep the fallback error accounting warm while anything is benched.
        if self.any_quarantined() {
            self.ensure_tracker();
            self.observe_tracker(stored, &mut scratch.norm);
        }

        // 2. Training, gated by the retry backoff. The *initial* train (no
        // model yet) runs here — the caller is owed a forecast from it this
        // very step. A QA-ordered refit waits for step 5: the old model
        // serves this step, and the new one installs at end of push.
        let mut retrained = false;
        let mut refit = false;
        let due = self.retrain_pending || self.model.is_none();
        if due && self.history.len() >= self.train_size && self.clock >= self.next_retrain_at {
            if self.model.is_none() {
                retrained = self.retrain(scratch);
            } else {
                refit = true;
            }
        }

        // 3. Re-admit predictors whose quarantine has expired.
        for (id, h) in self.predictor_health.iter_mut().enumerate() {
            if h.quarantined_until.is_some_and(|until| self.clock >= until) {
                h.quarantined_until = None;
                h.strikes = 0;
                if let Some(obs) = &self.obs {
                    obs.record_quarantine_exit(id);
                }
            }
        }

        // 4. Forecast via the ladder.
        let (forecast, chosen, health) = self.forecast_next(scratch);
        match health {
            HealthState::Healthy => {}
            HealthState::Degraded => self.counters.degraded_steps += 1,
            HealthState::Fallback => self.counters.fallback_steps += 1,
        }
        if forecast.is_some() {
            // Warmup steps (no forecast yet) are not selection outcomes.
            if let Some(obs) = &self.obs {
                obs.record_step(chosen.map(|c| c.0 as u64), health);
            }
        }
        if let Some(f) = forecast {
            self.pending = Some((chosen, f));
        }
        // 5. The refit ordered at step 2, on the same window (history is
        // unchanged since), after the old model served this step's forecast.
        if refit {
            retrained = self.retrain(scratch);
        }
        OnlineStep { forecast, chosen, retrained, health }
    }

    /// Scores one revealed value against the forecast made for it: QA
    /// recording, divergence strikes, and non-finite quarantine.
    fn score_pending(&mut self, producer: Option<PredictorId>, forecast: f64, value: f64) {
        if !forecast.is_finite() {
            // Defensive: the ladder never emits non-finite forecasts, but a
            // poisoned one must never reach the QA window or the caller twice.
            self.counters.nonfinite_forecasts += 1;
            if let Some(obs) = &self.obs {
                obs.record_nonfinite();
            }
            self.retrain_pending = true;
            if let Some(id) = producer {
                self.quarantine(id);
            }
            return;
        }
        if let AuditOutcome::RetrainNeeded { .. } = self.qa.record(forecast, value) {
            self.retrain_pending = true;
        }
        if let Some(id) = producer {
            let scale =
                self.model.as_ref().map(|m| m.zscore().std()).unwrap_or(1.0).max(f64::EPSILON);
            let diverged = !value.is_finite()
                || (forecast - value).abs() / scale > self.resilience.divergence_factor;
            let h = &mut self.predictor_health[id.0];
            if diverged {
                h.strikes += 1;
                if h.strikes >= self.resilience.max_strikes {
                    self.quarantine(id);
                }
            } else {
                h.strikes = 0;
            }
        }
    }

    /// Fits a model on the most recent `train_size` observations and installs
    /// it; returns `true` iff a new model was installed.
    ///
    /// A fitted model installs only if it gives a finite forecast on its own
    /// training tail — a NaN-poisoned window would otherwise poison every
    /// forecast. Installing gives a fresh quarantine slate, a fresh fallback
    /// tracker and a QA reset. A failed fit keeps the stale model serving
    /// and pushes the next attempt out by the exponential backoff.
    ///
    /// The fit writes into this thread's spare model, and the model it
    /// replaces becomes the next spare: a warm refit allocates nothing.
    fn retrain(&mut self, scratch: &mut Scratch) -> bool {
        let started = Instant::now();
        let fitted = {
            // Zero-copy for `f64` rings; `f32` rings widen into the scratch.
            let full = self.history.materialized(&mut scratch.hist64);
            let tail = &full[full.len().saturating_sub(self.train_size)..];
            let fit = match SPARE_MODEL.take() {
                Some(spent) => TrainedLarp::train_reusing(tail, &self.config, spent),
                None => TrainedLarp::train_shared(tail, &self.config),
            };
            match fit {
                Ok(model) if matches!(model.predict_next_raw(tail), Ok((_, f)) if f.is_finite()) => {
                    Some(model)
                }
                Ok(unservable) => {
                    SPARE_MODEL.set(Some(unservable));
                    None
                }
                Err(_) => None,
            }
        };
        let fit_us = started.elapsed().as_micros() as u64;
        let Some(model) = fitted else {
            self.counters.retrain_failures += 1;
            let exp = self.consecutive_retrain_failures.min(16);
            self.consecutive_retrain_failures += 1;
            if let Some(obs) = &self.obs {
                obs.record_retrain_failure(self.consecutive_retrain_failures as u64);
            }
            let delay = self
                .resilience
                .retrain_backoff_base
                .saturating_mul(1usize << exp)
                .min(self.resilience.retrain_backoff_cap);
            self.next_retrain_at = self.clock + delay as u64;
            return false;
        };
        let pool_len = model.pool().len();
        self.predictor_health.clear();
        self.predictor_health.reserve_exact(pool_len);
        self.predictor_health.resize(pool_len, PredictorHealth::default());
        if let Some(tracker) = &mut self.tracker {
            tracker.reset();
        }
        if let Some(retired) = self.model.replace(model) {
            SPARE_MODEL.set(Some(retired));
        }
        self.retrain_count += 1;
        self.qa.reset();
        self.retrain_pending = false;
        self.consecutive_retrain_failures = 0;
        if let Some(obs) = &self.obs {
            obs.record_retrain_success(fit_us);
        }
        true
    }

    /// Walks the degradation ladder for the next forecast. The returned
    /// forecast, when present, is finite.
    fn forecast_next(
        &mut self,
        scratch: &mut Scratch,
    ) -> (Option<f64>, Option<PredictorId>, HealthState) {
        if self.model.is_none() || self.history.len() < self.config.window {
            // Before the first successful training: dark during warmup (no
            // training attempted yet), persistence once training has been
            // attempted and failed (the caller is owed *some* forecast).
            if self.model.is_none() && self.history.len() >= self.train_size {
                if let Some(last) = self.history.last() {
                    if last.is_finite() {
                        return (Some(last), None, HealthState::Fallback);
                    }
                }
            }
            return (None, None, HealthState::Healthy);
        }

        // Normalise, once, the tail every rung reads: the current window
        // for the ranking, each member's span for its forecast.
        let model = self.model.as_ref().expect("model checked above");
        let len = self.history.len();
        let read = serve_span(&self.config).map_or(len, |span| span.min(len));
        self.history.normalized_into(len - read..len, model.zscore(), &mut scratch.norm);

        // Rung 1: the k-NN choice, if not quarantined.
        let first = {
            let Scratch { features, neighbors, votes, nearest, ranked, norm, .. } = scratch;
            match model.select_ranked_fields(norm, features, neighbors, votes, nearest, ranked) {
                Ok(()) => ranked.first().copied(),
                Err(_) => None,
            }
        };
        if let Some(first) = first {
            if !self.is_quarantined(first) {
                if let Some(f) = self.checked_predict(first, &scratch.norm) {
                    return (Some(f), Some(first), HealthState::Healthy);
                }
            }
        }

        // Rung 2: lowest-windowed-error non-quarantined pool member.
        self.ensure_tracker();
        loop {
            let best = self.tracker.as_ref().and_then(|t| {
                t.best_allowed(|id| {
                    self.predictor_health.get(id.0).is_none_or(|h| h.quarantined_until.is_none())
                })
            });
            let Some(id) = best else { break };
            if let Some(f) = self.checked_predict(id, &scratch.norm) {
                return (Some(f), Some(id), HealthState::Degraded);
            }
            // checked_predict quarantined it; the next iteration excludes it.
        }

        // Rung 3: last-value persistence.
        match self.history.last() {
            Some(last) if last.is_finite() => (Some(last), None, HealthState::Fallback),
            _ => (None, None, HealthState::Fallback),
        }
    }

    /// Runs one pool member on the normalised tail and validates its output;
    /// a non-finite or failed forecast quarantines the producer and yields
    /// `None`.
    fn checked_predict(&mut self, id: PredictorId, normalized: &[f64]) -> Option<f64> {
        let forecast =
            self.model.as_ref().and_then(|m| m.predict_with_normalized(id, normalized).ok());
        match forecast {
            Some(f) if f.is_finite() => Some(f),
            _ => {
                // A pool member going non-finite on serving is model breakage,
                // not mere inaccuracy: bench it and order a retrain (the
                // post-train probe keeps a still-poisoned window from
                // installing, so this cannot churn).
                self.counters.nonfinite_forecasts += 1;
                if let Some(obs) = &self.obs {
                    obs.record_nonfinite();
                }
                self.retrain_pending = true;
                self.quarantine(id);
                None
            }
        }
    }

    /// Benches a predictor for `quarantine_base · 2^(times quarantined)`
    /// steps, capped at `quarantine_cap`.
    fn quarantine(&mut self, id: PredictorId) {
        let Some(h) = self.predictor_health.get_mut(id.0) else {
            return;
        };
        let exp = h.times_quarantined.min(16);
        let duration = self
            .resilience
            .quarantine_base
            .saturating_mul(1usize << exp)
            .min(self.resilience.quarantine_cap);
        let until = self.clock + duration as u64;
        h.quarantined_until = Some(until);
        h.times_quarantined += 1;
        h.strikes = 0;
        self.counters.quarantines += 1;
        if let Some(obs) = &self.obs {
            obs.record_quarantine(id.0, until);
        }
    }

    /// Manually benches a pool member (operational override; also the
    /// deterministic hook the fault-injection tests use).
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::InvalidConfig`] if no model is trained yet or the
    /// id is outside the pool.
    pub fn quarantine_predictor(&mut self, id: PredictorId) -> Result<()> {
        if id.0 >= self.predictor_health.len() {
            return Err(LarpError::InvalidConfig(format!(
                "cannot quarantine predictor {}: pool has {} trained members",
                id.0,
                self.predictor_health.len()
            )));
        }
        self.quarantine(id);
        Ok(())
    }

    /// Whether a pool member is currently quarantined.
    pub fn is_quarantined(&self, id: PredictorId) -> bool {
        self.predictor_health.get(id.0).is_some_and(|h| h.quarantined_until.is_some())
    }

    /// Currently quarantined pool members.
    pub fn quarantined(&self) -> Vec<PredictorId> {
        self.predictor_health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined_until.is_some())
            .map(|(i, _)| PredictorId(i))
            .collect()
    }

    fn any_quarantined(&self) -> bool {
        self.predictor_health.iter().any(|h| h.quarantined_until.is_some())
    }

    /// Creates the fallback error tracker before its first read. Until then
    /// no step since the stream was built or restored was taken while a
    /// member was quarantined, so a fresh tracker holds exactly what one
    /// created at every refit and restore would.
    fn ensure_tracker(&mut self) {
        if let (None, Some(model)) = (&self.tracker, &self.model) {
            self.tracker =
                PoolErrorTracker::new(model.pool().len(), self.config.window.max(8)).ok();
        }
    }

    /// Feeds the fallback error tracker one revealed value (normalised into
    /// the model's training units), using the `4·m` values *before* `value`,
    /// normalised into `normalized`.
    fn observe_tracker(&mut self, value: f64, normalized: &mut Vec<f64>) {
        let Self { model, tracker, history, config, .. } = self;
        let Some(model) = model.as_ref() else { return };
        let Some(tracker) = tracker.as_mut() else { return };
        let upto = history.len() - 1; // `value` is already pushed
        let m = config.window;
        if upto < m || !value.is_finite() {
            return;
        }
        let start = upto.saturating_sub(4 * m);
        history.normalized_into(start..upto, model.zscore(), normalized);
        let actual = model.zscore().apply(value);
        tracker.observe(model.pool(), normalized, actual);
    }

    /// How many most-recent observations this stream retains: derived from
    /// `train_size` and the pool, never configured (see DESIGN.md §11).
    pub fn history_cap(&self) -> usize {
        self.history.cap()
    }

    /// Replaces the (still empty) ring with one of capacity `cap`, so a test
    /// can run the same stream at another bound.
    #[cfg(test)]
    pub(crate) fn set_history_cap(&mut self, cap: usize) {
        assert!(self.history.is_empty(), "set the cap before the first push");
        self.history = HistoryRing::new_mode(cap, self.resilience.f32_history);
    }

    /// Number of (re)trainings performed, including the initial one.
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// The forecast the most recent step made for the value not yet seen
    /// (raw scale); `None` before the first forecast, or when the most
    /// recent step made none. Snapshots carry it.
    pub fn pending_forecast(&self) -> Option<f64> {
        self.pending.map(|(_, forecast)| forecast)
    }

    /// Whether a model is currently trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Observations consumed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The embedded quality assuror.
    pub fn qa(&self) -> &QualityAssuror {
        &self.qa
    }

    /// The fault-tolerance policy in force.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Cumulative fault-handling counters.
    pub fn counters(&self) -> &OnlineCounters {
        &self.counters
    }

    /// Training failures since the last successful (re)train.
    pub fn consecutive_retrain_failures(&self) -> u32 {
        self.consecutive_retrain_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qa() -> QualityAssuror {
        QualityAssuror::new(2.0, 8, 4).unwrap()
    }

    fn online() -> OnlineLarp {
        OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap()
    }

    #[test]
    fn no_forecast_before_initial_training() {
        let mut o = online();
        for t in 0..39 {
            let step = o.push((t as f64 * 0.3).sin());
            assert_eq!(step.forecast, None, "step {t}");
            assert_eq!(step.health, HealthState::Healthy, "warmup is healthy");
            assert!(!o.is_trained());
        }
        let step = o.push(0.5);
        assert!(o.is_trained());
        assert!(step.retrained);
        assert!(step.forecast.is_some());
    }

    #[test]
    fn forecasts_flow_after_training() {
        let mut o = online();
        let mut forecasts = 0;
        for t in 0..120 {
            let step = o.push((t as f64 * 0.2).sin() * 3.0);
            if step.forecast.is_some() {
                forecasts += 1;
                assert!(step.chosen.is_some());
                assert_eq!(step.health, HealthState::Healthy);
            }
        }
        assert!(forecasts >= 70, "{forecasts}");
        assert_eq!(o.seen(), 120);
        assert_eq!(o.counters().quarantines, 0);
        assert_eq!(o.counters().degraded_steps, 0);
        assert_eq!(o.counters().fallback_steps, 0);
    }

    #[test]
    fn regime_change_triggers_retraining() {
        // Train on a gentle sinusoid, then switch to huge swings: normalized
        // errors explode and the QA must order a refit.
        let mut o =
            OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(0.5, 4, 2).unwrap())
                .unwrap();
        for t in 0..60 {
            o.push((t as f64 * 0.2).sin() * 0.1);
        }
        assert_eq!(o.retrain_count(), 1);
        for t in 0..60 {
            o.push(if t % 2 == 0 { 50.0 } else { -50.0 });
        }
        assert!(o.retrain_count() > 1, "retrains: {}", o.retrain_count());
    }

    #[test]
    fn refit_installs_after_the_old_model_serves_its_step() {
        // A QA that never orders a refit on its own: the test alone decides
        // which push refits.
        let mut o =
            OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(1e9, 8, 4).unwrap())
                .unwrap();
        let signal = |t: usize| (t as f64 * 0.2).sin() * 3.0 + t as f64 * 0.1;
        for t in 0..60 {
            o.push(signal(t));
        }
        assert_eq!(o.retrain_count(), 1);
        // A twin that keeps the old model for the rest of the test.
        let mut stale = OnlineLarp::from_snapshot_bytes(&o.to_snapshot_bytes()).unwrap();

        o.retrain_pending = true;
        let refit = o.push(signal(60));
        let kept = stale.push(signal(60));
        assert!(refit.retrained, "the refit push reports it");
        assert!(!kept.retrained);
        assert_eq!(o.retrain_count(), 2, "the new model is installed by the end of the push");
        assert_eq!(
            refit.forecast.map(f64::to_bits),
            kept.forecast.map(f64::to_bits),
            "the old model serves the refit step's forecast"
        );

        let next = o.push(signal(61));
        assert!(!next.retrained);
        let history: Vec<f64> = o.history.iter64().collect();
        let (_, expected) = o.model.as_ref().unwrap().predict_next_raw(&history).unwrap();
        assert_eq!(next.forecast.map(f64::to_bits), Some(expected.to_bits()), "new model serves");
        assert_ne!(next.forecast, stale.push(signal(61)).forecast, "old model retired");
    }

    #[test]
    fn slow_retrain_threshold_counts_and_traces() {
        // With the threshold at zero every successful fit is "slow": the
        // counter must track retrains and the event ring must carry
        // slow_retrain entries with both the fit time and the threshold.
        let registry = obs::Registry::new();
        let ring = obs::EventRing::new(4096);
        let mut o =
            OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(0.5, 4, 2).unwrap())
                .unwrap();
        o.attach_obs(
            LarpObs::register(&registry)
                .with_events(ring.clone())
                .with_slow_retrain_threshold_us(0),
        );
        for t in 0..160u64 {
            o.push(if t < 80 {
                (t as f64 * 0.21).sin() * 0.1
            } else {
                40.0 - 80.0 * (t % 2) as f64
            });
        }
        assert!(o.retrain_count() > 1, "workload must refit");
        let slow = registry.counter("larp_slow_retrains_total").get();
        assert_eq!(slow as usize, o.retrain_count(), "threshold 0 must flag every successful fit");
        let traced = ring
            .recent()
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::SlowRetrain { threshold_us: 0, .. }))
            .count();
        assert_eq!(traced, o.retrain_count(), "one slow_retrain event per fit");
    }

    #[test]
    fn stable_workload_does_not_retrain() {
        let mut o =
            OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(5.0, 8, 4).unwrap())
                .unwrap();
        for t in 0..200 {
            o.push((t as f64 * 0.2).sin());
        }
        assert_eq!(o.retrain_count(), 1, "only the initial training");
    }

    #[test]
    fn construction_validates_train_size() {
        assert!(OnlineLarp::new(LarpConfig::default(), 3, qa()).is_err());
        assert!(OnlineLarp::new(LarpConfig::default(), 8, qa()).is_ok());
    }

    #[test]
    fn construction_validates_resilience() {
        let bad = ResilienceConfig { divergence_factor: -1.0, ..ResilienceConfig::default() };
        assert!(OnlineLarp::with_resilience(LarpConfig::default(), 40, qa(), bad).is_err());
    }

    #[test]
    fn forecast_is_in_raw_units() {
        let mut o = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        let mut last = None;
        for t in 0..80 {
            last = o.push(1000.0 + (t as f64 * 0.3).sin() * 10.0).forecast.or(last);
        }
        let f = last.unwrap();
        assert!((950.0..1050.0).contains(&f), "{f}");
    }

    #[test]
    fn history_cap_is_derived_from_what_serving_reads() {
        let cap = |config: LarpConfig, train_size| {
            OnlineLarp::new(config, train_size, qa()).unwrap().history_cap()
        };
        // The standard pool reads at most m = 5: the training window rules.
        assert_eq!(cap(LarpConfig::default(), 40), 40);
        assert_eq!(cap(LarpConfig::default(), 300), 300);
        // train_size below 4·m + 1: the fallback tracker's lookback rules.
        assert_eq!(cap(LarpConfig::default(), 8), 21);
        assert_eq!(cap(LarpConfig::paper(16), 40), 65);
        // A member whose span beats both.
        let wide = LarpConfig {
            pool: vec![ModelSpec::Last, ModelSpec::SwAvg { window: 90 }],
            ..LarpConfig::default()
        };
        assert_eq!(cap(wide, 40), 90);
        // A whole-history member keeps the fixed bound, or a larger window.
        assert_eq!(cap(LarpConfig::extended(5), 40), WHOLE_HISTORY_CAP);
        assert_eq!(cap(LarpConfig::extended(5), 5000), 5000);

        let mut o = online();
        for t in 0..500 {
            o.push((t as f64 * 0.2).sin());
        }
        assert_eq!(o.seen(), 500);
        assert_eq!(o.history.len(), 40);
        assert!(o.is_trained());
    }

    /// Deterministic drifting, regime-switching load with hashed jitter, so
    /// both QA configs below refit many times.
    fn load(stream: u64, t: u64) -> f64 {
        let mut x = (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t.wrapping_mul(0xBF58_476D);
        x ^= x >> 31;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 29;
        let jitter = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let regime = (t / (150 + 37 * stream)) % 4;
        let level = 50.0 + 30.0 * regime as f64 + stream as f64;
        let wave = (t as f64 * (0.05 + 0.02 * stream as f64)).sin() * 10.0;
        level + wave + jitter * (2.0 + 6.0 * (regime % 2) as f64)
    }

    /// [`load`] with sensor faults: NaN reads, sentinels, spikes and stuck
    /// runs (dropped minutes are skipped by the caller).
    fn faulty(stream: u64, t: u64) -> f64 {
        match t {
            t if t % 97 == 3 => f64::NAN,
            t if t % 89 == 5 => -1.0,
            t if t % 131 == 7 => load(stream, t) * 50.0,
            t if t % 700 < 14 => load(stream, t - t % 700),
            t => load(stream, t),
        }
    }

    /// FNV-1a over every bit a step reports.
    fn fold_step(hash: &mut u64, step: &OnlineStep) {
        let forecast = step.forecast.map_or([0; 9], |f| {
            let mut b = [1; 9];
            b[1..].copy_from_slice(&f.to_bits().to_le_bytes());
            b
        });
        let chosen = step.chosen.map_or(0, |id| id.0 as u64 + 1);
        let tail = [step.retrained as u8, step.health as u8];
        for &b in forecast.iter().chain(&chosen.to_le_bytes()).chain(&tail) {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    /// Drives one stream for 6,000 minutes with its rings at `cap` (`None`:
    /// the derived cap) and returns its step digest and retrain count. A
    /// bare stream has a member benched every 211 steps, so the fallback
    /// tracker's lookback is read too; a guarded one gets faulty input.
    fn digest_run(
        f32_history: bool,
        train_size: usize,
        qa: QualityAssuror,
        stream: u64,
        guarded: bool,
        cap: Option<usize>,
    ) -> (u64, usize) {
        let resilience = ResilienceConfig { f32_history, ..ResilienceConfig::default() };
        let mut online =
            OnlineLarp::with_resilience(LarpConfig::default(), train_size, qa, resilience).unwrap();
        if let Some(cap) = cap {
            online.set_history_cap(cap);
        }
        let mut hash = 0xCBF2_9CE4_8422_2325;
        if guarded {
            let mut g = crate::GuardedLarp::from_parts(Default::default(), online).unwrap();
            for t in (0..6_000).filter(|t| t % 61 != 17) {
                for step in g.ingest(t, faulty(stream, t)) {
                    fold_step(&mut hash, &step);
                }
            }
            return (hash, g.online().retrain_count());
        }
        for t in 0..6_000 {
            if t % 211 == 100 {
                let _ = online.quarantine_predictor(PredictorId((t / 211 % 3) as usize));
            }
            fold_step(&mut hash, &online.push(load(stream, t)));
        }
        (hash, online.retrain_count())
    }

    #[test]
    fn derived_history_cap_changes_no_forecast() {
        // What served streams run: perfbench `steady`'s QA (threshold 3.0,
        // window 16, period 28-36) and the default QA (2.0/8/4), with
        // train_size 40 (cap 40); plus train_size 12, where the fallback
        // tracker's 4·m lookback sets the cap (21).
        let mut refits = 0;
        for f32_history in [false, true] {
            for stream in 0..2u64 {
                let steady = || QualityAssuror::new(3.0, 16, 28 + stream as usize * 5).unwrap();
                for (train_size, qa) in [(40, steady()), (40, qa()), (12, qa())] {
                    for guarded in [false, true] {
                        let run = |cap| {
                            digest_run(f32_history, train_size, qa.clone(), stream, guarded, cap)
                        };
                        let (derived, retrains) = run(None);
                        let wide = run(Some(WHOLE_HISTORY_CAP));
                        assert_eq!(
                            (derived, retrains),
                            wide,
                            "f32 {f32_history}, stream {stream}, train {train_size}, \
                             guarded {guarded}"
                        );
                        refits += retrains;
                    }
                }
            }
        }
        assert!(refits > 10_000, "only {refits} refits");
        // An extended-pool stream keeps the whole-history bound.
        let extended = OnlineLarp::new(LarpConfig::extended(5), 40, qa()).unwrap();
        assert_eq!(extended.history_cap(), WHOLE_HISTORY_CAP);
    }

    #[test]
    fn live_buffers_hold_exactly_what_their_step_reads() {
        // perfbench `steady`'s QA on a faulty stream: sanitizer repairs,
        // gap fills, many refits, and from minute 6,000 a quarantine.
        for f32_history in [false, true] {
            let resilience = ResilienceConfig { f32_history, ..ResilienceConfig::default() };
            let qa = QualityAssuror::new(3.0, 16, 28).unwrap();
            let online =
                OnlineLarp::with_resilience(LarpConfig::default(), 40, qa, resilience).unwrap();
            let mut g = crate::GuardedLarp::from_parts(Default::default(), online).unwrap();
            let ingest = g.sanitizer().config().clone();
            let sentinels = ingest.sentinel_values.capacity() * 8;
            let elem = if f32_history { 4 } else { 8 };
            let ring = (g.online().history_cap() + g.online().history.slack()) * elem;
            assert_eq!(ring, 50 * elem, "cap 40 plus a slack of 10");
            let mut steps = 0;
            for t in (0..12_000).filter(|t| t % 61 != 17) {
                if t == 6_000 {
                    g.online_mut().quarantine_predictor(PredictorId(0)).unwrap();
                }
                steps += g.ingest(t, faulty(0, t)).len();
                if steps == 0 {
                    continue;
                }
                let o = g.online();
                let report = g.mem_report();
                assert_eq!(report.history_bytes, ring, "f32 {f32_history}, minute {t}");
                assert_eq!(report.sanitizer_bytes, 2 * ingest.robust_window * 8 + sentinels);
                assert_eq!(report.qa_bytes, o.qa().audit_window * 8);
                match &o.tracker {
                    None => assert_eq!(o.counters().quarantines, 0, "minute {t}"),
                    Some(tracker) => {
                        assert!(o.counters().quarantines > 0, "created before a quarantine");
                        // Each member's error window is unsized or exactly full.
                        let windows = tracker.heap_bytes()
                            - tracker.len()
                                * std::mem::size_of::<timeseries::metrics::WindowedMse>();
                        assert_eq!(windows % (8 * 8), 0, "minute {t}");
                        assert!(windows <= tracker.len() * 8 * 8, "minute {t}");
                    }
                }
            }
            assert!(steps >= 10_000, "{steps} steps");
            assert!(g.online().retrain_count() > 50, "{} refits", g.online().retrain_count());
            assert!(g.online().tracker.is_some(), "the quarantine created the tracker");
        }
    }

    #[test]
    fn manual_quarantine_degrades_then_recovers() {
        let resilience = ResilienceConfig { quarantine_base: 8, ..ResilienceConfig::default() };
        let mut o =
            OnlineLarp::with_resilience(LarpConfig::default(), 40, qa(), resilience).unwrap();
        let signal = |t: usize| (t as f64 * 0.2).sin() * 3.0;
        let mut t = 0;
        while !o.is_trained() {
            o.push(signal(t));
            t += 1;
        }
        // Bench the model the selector would pick next.
        let step = o.push(signal(t));
        t += 1;
        let first_choice = step.chosen.unwrap();
        o.quarantine_predictor(first_choice).unwrap();
        assert!(o.is_quarantined(first_choice));
        assert_eq!(o.counters().quarantines, 1);

        // While benched, serving continues off the ladder: forecasts stay
        // finite and never come from the quarantined member.
        let mut degraded_seen = false;
        for _ in 0..7 {
            let step = o.push(signal(t));
            t += 1;
            if let Some(f) = step.forecast {
                assert!(f.is_finite());
            }
            assert_ne!(step.chosen, Some(first_choice));
            if step.health == HealthState::Degraded {
                degraded_seen = true;
            }
        }
        assert!(degraded_seen, "ladder never reported a degraded step");

        // After the 8-step quarantine expires the member is re-admitted.
        for _ in 0..4 {
            o.push(signal(t));
            t += 1;
        }
        assert!(!o.is_quarantined(first_choice));
        assert!(o.quarantined().is_empty());
        let step = o.push(signal(t));
        assert_eq!(step.health, HealthState::Healthy);
    }

    #[test]
    fn quarantine_backoff_doubles_per_offence() {
        let resilience = ResilienceConfig {
            quarantine_base: 2,
            quarantine_cap: 16,
            ..ResilienceConfig::default()
        };
        let mut o =
            OnlineLarp::with_resilience(LarpConfig::default(), 40, qa(), resilience).unwrap();
        for t in 0..41 {
            o.push((t as f64 * 0.2).sin());
        }
        let id = PredictorId(0);
        // First offence: 2 steps.
        o.quarantine_predictor(id).unwrap();
        o.push(0.1);
        assert!(o.is_quarantined(id), "still benched after 1 of 2 steps");
        o.push(0.2);
        assert!(!o.is_quarantined(id), "released after 2 steps");
        // Second offence: 4 steps.
        o.quarantine_predictor(id).unwrap();
        for i in 0..3 {
            o.push(0.1 * i as f64);
            assert!(o.is_quarantined(id), "still benched after {} of 4 steps", i + 1);
        }
        o.push(0.5);
        assert!(!o.is_quarantined(id), "released after 4 steps");
        // Third offence: 8, but capped at quarantine_cap if it grows further.
        o.quarantine_predictor(id).unwrap();
        for _ in 0..7 {
            o.push(0.3);
            assert!(o.is_quarantined(id));
        }
        o.push(0.4);
        assert!(!o.is_quarantined(id));
        assert_eq!(o.counters().quarantines, 3);
    }

    #[test]
    fn whole_pool_quarantined_serves_persistence() {
        // Huge QA threshold: no retrain can fire and wipe the quarantines
        // mid-test (a successful retrain replaces the pool, so it starts with
        // a clean quarantine slate by design).
        let mut o =
            OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(1e9, 8, 4).unwrap())
                .unwrap();
        for t in 0..45 {
            o.push(100.0 + (t as f64 * 0.2).sin());
        }
        for id in 0..3 {
            o.quarantine_predictor(PredictorId(id)).unwrap();
        }
        let step = o.push(123.0);
        assert_eq!(step.health, HealthState::Fallback);
        assert_eq!(step.chosen, None);
        assert_eq!(step.forecast, Some(123.0), "persistence repeats the last value");
        assert!(o.counters().fallback_steps >= 1);
    }

    #[test]
    fn failed_training_serves_persistence_and_backs_off() {
        // train_size 8 passes construction (window 5 + max(k, 2) = 8) but the
        // AR(5) pool member needs 2·5 = 10 points, so every training attempt
        // fails. The loop must serve last-value persistence instead of going
        // dark, and throttle its retries with the exponential backoff.
        let resilience = ResilienceConfig {
            retrain_backoff_base: 4,
            retrain_backoff_cap: 64,
            ..ResilienceConfig::default()
        };
        let mut o =
            OnlineLarp::with_resilience(LarpConfig::default(), 8, qa(), resilience).unwrap();
        for t in 0..60 {
            let value = (t as f64 * 0.2).sin();
            let step = o.push(value);
            assert!(!o.is_trained());
            if o.seen() >= 8 {
                // Training has been attempted and failed: persistence serves.
                assert_eq!(step.forecast, Some(value));
                assert_eq!(step.chosen, None);
                assert_eq!(step.health, HealthState::Fallback);
            } else {
                assert_eq!(step.forecast, None, "dark during warmup");
            }
        }
        let failures = o.counters().retrain_failures;
        // Backoff spacing 4, 8, 16, 32 from step 8: attempts at steps
        // 8, 12, 20, 36 within the first 60 — not one per step.
        assert!((2..=5).contains(&failures), "{failures} attempts — backoff not applied");
        assert!(o.consecutive_retrain_failures() > 0);
        assert!(o.counters().fallback_steps >= 50);
    }

    #[test]
    fn nan_burst_fails_retraining_then_recovers() {
        // A healthy model, then a burst of raw NaN observations (no sanitizer
        // in front). The QA's non-finite guard orders a retrain, but training
        // windows containing NaN cannot produce a servable model (the
        // post-train probe rejects them), so the stale model is kept with
        // backoff. Once the NaNs wash out of the training window, a retry
        // succeeds and serving returns to Healthy.
        let resilience = ResilienceConfig {
            retrain_backoff_base: 4,
            retrain_backoff_cap: 16,
            ..ResilienceConfig::default()
        };
        let mut o = OnlineLarp::with_resilience(
            LarpConfig::default(),
            40,
            QualityAssuror::new(2.0, 4, 2).unwrap(),
            resilience,
        )
        .unwrap();
        let signal = |t: usize| (t as f64 * 0.2).sin() * 3.0;
        for t in 0..40 {
            o.push(signal(t));
        }
        assert_eq!(o.retrain_count(), 1);

        for _ in 0..6 {
            let step = o.push(f64::NAN);
            // The invariant that matters: never a non-finite forecast.
            if let Some(f) = step.forecast {
                assert!(f.is_finite());
            }
        }
        assert!(o.counters().retrain_failures > 0, "NaN training window must fail the probe");
        assert!(o.is_trained(), "stale model kept serving");
        assert_eq!(o.retrain_count(), 1);

        let mut last = OnlineStep {
            forecast: None,
            chosen: None,
            retrained: false,
            health: HealthState::Fallback,
        };
        for t in 0..80 {
            last = o.push(signal(t));
            if let Some(f) = last.forecast {
                assert!(f.is_finite());
            }
        }
        assert!(o.retrain_count() >= 2, "retraining must succeed after the wash-out");
        assert_eq!(o.consecutive_retrain_failures(), 0);
        assert_eq!(last.health, HealthState::Healthy);
        assert!(last.forecast.is_some());
    }

    #[test]
    fn quarantine_of_unknown_id_is_rejected() {
        let mut o = online();
        assert!(o.quarantine_predictor(PredictorId(0)).is_err(), "no model yet");
        for t in 0..41 {
            o.push((t as f64 * 0.2).sin());
        }
        assert!(o.quarantine_predictor(PredictorId(9)).is_err());
        assert!(o.quarantine_predictor(PredictorId(1)).is_ok());
    }
}
