//! Declarative model specifications.
//!
//! A [`ModelSpec`] names a model plus its hyper-parameters without fitting it;
//! [`ModelSpec::build`] fits it against training data (a no-op for the
//! non-parametric models). Pools are declared as spec lists so experiment
//! configurations are plain data — the ablation benches sweep specs.

use crate::models::{
    AdaptiveMean, AdaptiveMedian, Ar, Ari, Ewma, Last, Mean, PolyFit, SlidingMedian, SwAvg,
    Tendency, TrimmedMean,
};
use crate::{Predictor, Result};

/// A model name plus hyper-parameters, buildable against training data.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Persistence: forecast = last value (paper Eq. 2).
    Last,
    /// Sliding-window mean over `window` points (paper Eq. 3).
    SwAvg {
        /// Window length.
        window: usize,
    },
    /// Mean of all provided history (NWS RUN_AVG).
    Mean,
    /// Exponentially weighted moving average with smoothing `alpha`.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Median of the last `window` points.
    Median {
        /// Window length.
        window: usize,
    },
    /// α-trimmed mean of the last `window` points.
    TrimmedMean {
        /// Window length.
        window: usize,
        /// Trim fraction in `[0, 0.5)`.
        alpha: f64,
    },
    /// Mean with per-call adaptive window (NWS ADJ_MEAN analogue).
    AdaptiveMean,
    /// Median with per-call adaptive window (NWS ADJ_MEDIAN analogue).
    AdaptiveMedian,
    /// Tendency model (Yang et al.) averaging step sizes over `window`.
    Tendency {
        /// Increment-averaging window.
        window: usize,
    },
    /// Polynomial extrapolation (Zhang et al.).
    PolyFit {
        /// Fit window.
        window: usize,
        /// Polynomial degree (`>= 1`, `< window`).
        degree: usize,
    },
    /// AR(p) fitted by Yule–Walker (paper Eq. 4).
    Ar {
        /// Model order `p`.
        order: usize,
    },
    /// ARI(p, d): AR over the d-times differenced series.
    Ari {
        /// AR order `p`.
        order: usize,
        /// Differencing order `d >= 1`.
        diff: usize,
    },
}

impl ModelSpec {
    /// Fits/instantiates the model against `train`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation and fitting errors from the model
    /// constructors.
    pub fn build(&self, train: &[f64]) -> Result<Box<dyn Predictor>> {
        Ok(match self {
            ModelSpec::Last => Box::new(Last),
            ModelSpec::SwAvg { window } => Box::new(SwAvg::new(*window)?),
            ModelSpec::Mean => Box::new(Mean),
            ModelSpec::Ewma { alpha } => Box::new(Ewma::new(*alpha)?),
            ModelSpec::Median { window } => Box::new(SlidingMedian::new(*window)?),
            ModelSpec::TrimmedMean { window, alpha } => {
                Box::new(TrimmedMean::new(*window, *alpha)?)
            }
            ModelSpec::AdaptiveMean => Box::new(AdaptiveMean::default_candidates()),
            ModelSpec::AdaptiveMedian => Box::new(AdaptiveMedian::default_candidates()),
            ModelSpec::Tendency { window } => Box::new(Tendency::new(*window)?),
            ModelSpec::PolyFit { window, degree } => Box::new(PolyFit::new(*window, *degree)?),
            ModelSpec::Ar { order } => Box::new(Ar::fit(train, *order)?),
            ModelSpec::Ari { order, diff } => Box::new(Ari::fit(train, *order, *diff)?),
        })
    }

    /// How many most-recent values the built model's forecast reads: it
    /// returns the same bits for any history that ends in the same `span`
    /// values. `None` for the whole-history models (MEAN, EWMA and the
    /// adaptive-window members), whose forecast depends on every value
    /// provided.
    pub fn history_span(&self) -> Option<usize> {
        match self {
            ModelSpec::Last => Some(1),
            ModelSpec::SwAvg { window }
            | ModelSpec::Median { window }
            | ModelSpec::TrimmedMean { window, .. }
            | ModelSpec::PolyFit { window, .. } => Some(*window),
            // The mean step over `window` increments, plus the sign of the
            // last one.
            ModelSpec::Tendency { window } => Some(window + 1),
            ModelSpec::Ar { order } => Some(*order),
            // AR over the d-times differenced tail, integrated from the last
            // value of each level.
            ModelSpec::Ari { order, diff } => Some(order + diff),
            ModelSpec::Mean
            | ModelSpec::Ewma { .. }
            | ModelSpec::AdaptiveMean
            | ModelSpec::AdaptiveMedian => None,
        }
    }

    /// Reinstantiates the model from a previously extracted
    /// [`Predictor::fitted_state`](crate::Predictor::fitted_state) vector,
    /// without training data — the restore half of model serialization.
    ///
    /// Non-parametric models ignore `state` (their spec is their identity);
    /// AR/ARI decode `[mean, innovation_variance, degenerate, φ₁..φ_p]`.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors, plus
    /// [`crate::PredictorError::InvalidParameter`] for an AR/ARI state vector
    /// whose coefficient count disagrees with the spec's order.
    pub fn rebuild(&self, state: &[f64]) -> Result<Box<dyn Predictor>> {
        let decode_ar = |state: &[f64], order: usize, model: &'static str| -> Result<Ar> {
            if state.len() != 3 + order {
                return Err(crate::PredictorError::InvalidParameter(format!(
                    "{model}({order}) state needs {} values, got {}",
                    3 + order,
                    state.len()
                )));
            }
            Ar::from_parts(state[3..].to_vec(), state[0], state[1], state[2] != 0.0)
        };
        Ok(match self {
            ModelSpec::Ar { order } => Box::new(decode_ar(state, *order, "AR")?),
            ModelSpec::Ari { order, diff } => {
                Box::new(Ari::from_parts(decode_ar(state, *order, "ARI")?, *diff)?)
            }
            // Everything else carries no fitted state: rebuild from the spec.
            _ => self.build(&[])?,
        })
    }

    /// The paper's three-model pool in figure order: 1 = LAST, 2 = AR,
    /// 3 = SW_AVG. `order` is both the AR order and the SW_AVG window (the
    /// paper uses the prediction window `m` for both).
    pub fn standard_pool(order: usize) -> Vec<ModelSpec> {
        vec![ModelSpec::Last, ModelSpec::Ar { order }, ModelSpec::SwAvg { window: order }]
    }

    /// The extended pool: the standard three plus the NWS-style family and the
    /// trend models — the richer pool the paper's future work anticipates.
    pub fn extended_pool(order: usize) -> Vec<ModelSpec> {
        let mut specs = Self::standard_pool(order);
        specs.extend([
            ModelSpec::Ewma { alpha: 0.5 },
            ModelSpec::Median { window: order.max(3) },
            ModelSpec::TrimmedMean { window: order.max(5), alpha: 0.2 },
            ModelSpec::AdaptiveMean,
            ModelSpec::AdaptiveMedian,
            ModelSpec::Tendency { window: order.clamp(2, 4) },
            ModelSpec::PolyFit { window: order.max(4), degree: 1 },
            ModelSpec::Ari { order: order.max(2) - 1, diff: 1 },
        ]);
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> Vec<f64> {
        (0..200).map(|i| ((i as f64) * 0.37).sin() + 0.01 * i as f64).collect()
    }

    #[test]
    fn standard_pool_order_matches_paper_classes() {
        let specs = ModelSpec::standard_pool(16);
        assert_eq!(specs.len(), 3);
        assert!(matches!(specs[0], ModelSpec::Last));
        assert!(matches!(specs[1], ModelSpec::Ar { order: 16 }));
        assert!(matches!(specs[2], ModelSpec::SwAvg { window: 16 }));
    }

    #[test]
    fn every_standard_spec_builds() {
        let t = train();
        for spec in ModelSpec::standard_pool(5) {
            let model = spec.build(&t).unwrap();
            let h = &t[..20];
            assert!(model.predict(h).is_finite());
        }
    }

    #[test]
    fn every_extended_spec_builds_and_predicts() {
        let t = train();
        let specs = ModelSpec::extended_pool(5);
        assert!(specs.len() >= 10);
        for spec in specs {
            let model = spec.build(&t).unwrap();
            let h = &t[..30];
            assert!(h.len() >= model.min_history(), "{}", model.name());
            assert!(model.predict(h).is_finite(), "{}", model.name());
        }
    }

    #[test]
    fn history_span_is_all_a_forecast_reads() {
        let t = train();
        for spec in ModelSpec::extended_pool(5).into_iter().chain(ModelSpec::standard_pool(16)) {
            let model = spec.build(&t).unwrap();
            let Some(span) = spec.history_span() else {
                assert!(matches!(
                    spec,
                    ModelSpec::Mean
                        | ModelSpec::Ewma { .. }
                        | ModelSpec::AdaptiveMean
                        | ModelSpec::AdaptiveMedian
                ));
                continue;
            };
            assert!(span >= model.min_history(), "{}", model.name());
            let tail = &t[t.len() - span..];
            assert_eq!(model.predict(&t).to_bits(), model.predict(tail).to_bits(), "{spec:?}");
        }
    }

    #[test]
    fn build_propagates_parameter_errors() {
        assert!(ModelSpec::SwAvg { window: 0 }.build(&train()).is_err());
        assert!(ModelSpec::Ewma { alpha: 2.0 }.build(&train()).is_err());
        assert!(ModelSpec::Ar { order: 0 }.build(&train()).is_err());
    }

    #[test]
    fn build_propagates_insufficient_data() {
        let tiny = [1.0, 2.0];
        assert!(ModelSpec::Ar { order: 8 }.build(&tiny).is_err());
    }

    #[test]
    fn extended_pool_keeps_standard_prefix() {
        let ext = ModelSpec::extended_pool(16);
        let std = ModelSpec::standard_pool(16);
        assert_eq!(&ext[..3], &std[..]);
    }
}
