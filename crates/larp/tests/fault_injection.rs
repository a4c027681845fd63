//! End-to-end fault drill: `vmsim`'s deterministic fault injector feeding the
//! guarded serving stack (`Sanitizer` → `OnlineLarp`).
//!
//! The invariants under test, at every fault rate up to 20%:
//!
//! * the stack never panics;
//! * every emitted forecast is finite;
//! * serving recovers to [`HealthState::Healthy`] once faults stop;
//! * a quarantined predictor is re-admitted after its backoff.

use larp::{
    GuardedLarp, HealthState, IngestConfig, LarpConfig, OnlineLarp, QualityAssuror,
    ResilienceConfig,
};
use vmsim::{FaultConfig, FaultInjector};

/// A regime-switching workload the predictor can learn, safely away from the
/// default sentinel value (-1.0).
fn workload(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            let regime = (t / 120) % 2;
            let base = if regime == 0 { 55.0 } else { 70.0 };
            base + (t as f64 * 0.23).sin() * 6.0 + ((t * 37) % 11) as f64 * 0.4
        })
        .collect()
}

fn guarded() -> GuardedLarp {
    GuardedLarp::new(
        IngestConfig::default(),
        LarpConfig::default(),
        60,
        QualityAssuror::new(4.0, 8, 4).unwrap(),
    )
    .unwrap()
}

/// Drives a faulted stream through a guarded stack; returns
/// (steps served, finite forecasts, last health observed).
fn drive(g: &mut GuardedLarp, stream: &[(u64, f64)]) -> (usize, usize, Option<HealthState>) {
    let mut steps = 0;
    let mut forecasts = 0;
    let mut last_health = None;
    for &(minute, value) in stream {
        for step in g.ingest(minute, value) {
            steps += 1;
            if let Some(f) = step.forecast {
                assert!(f.is_finite(), "non-finite forecast escaped: {f}");
                forecasts += 1;
            }
            last_health = Some(step.health);
        }
    }
    (steps, forecasts, last_health)
}

#[test]
fn every_fault_type_alone_is_survivable() {
    let base = FaultConfig::default();
    let configs: Vec<(&str, FaultConfig)> = vec![
        ("drop", FaultConfig { drop_rate: 0.2, ..base.clone() }),
        ("gap", FaultConfig { gap_rate: 0.05, ..base.clone() }),
        ("nan", FaultConfig { nan_rate: 0.2, ..base.clone() }),
        ("sentinel", FaultConfig { sentinel_rate: 0.2, ..base.clone() }),
        ("stuck", FaultConfig { stuck_rate: 0.05, ..base.clone() }),
        ("spike", FaultConfig { spike_rate: 0.2, ..base.clone() }),
        ("duplicate", FaultConfig { duplicate_rate: 0.2, ..base.clone() }),
    ];
    let clean = workload(600);
    for (name, config) in configs {
        for seed in [1, 7, 42] {
            let mut injector = FaultInjector::new(config.clone(), seed).unwrap();
            let stream = injector.corrupt_series(&clean, 0);
            let mut g = guarded();
            let (steps, forecasts, _) = drive(&mut g, &stream);
            assert!(steps > 0, "{name}/{seed}: nothing served");
            assert!(
                forecasts > steps / 2,
                "{name}/{seed}: availability collapsed ({forecasts}/{steps})"
            );
            assert!(g.online().is_trained(), "{name}/{seed}: never trained");
        }
    }
}

#[test]
fn combined_faults_up_to_twenty_percent_are_survivable() {
    let clean = workload(800);
    for rate in [0.01, 0.05, 0.1, 0.2] {
        for seed in [3, 11] {
            let mut injector = FaultInjector::new(FaultConfig::uniform(rate), seed).unwrap();
            let stream = injector.corrupt_series(&clean, 0);
            assert!(injector.counts().total() > 0, "rate {rate} injected nothing");
            let mut g = guarded();
            let (steps, forecasts, _) = drive(&mut g, &stream);
            assert!(g.online().is_trained(), "rate {rate}/seed {seed}: never trained");
            // Warmup (60 samples) never forecasts; after that availability
            // must stay high even at 20% combined fault rate.
            let post_warmup = steps.saturating_sub(60);
            assert!(
                forecasts * 10 >= post_warmup * 8,
                "rate {rate}/seed {seed}: availability {forecasts}/{post_warmup}"
            );
            // The sanitizer, not the predictor, absorbs most of the damage.
            assert!(
                g.sanitizer().stats().faults_sanitized() > 0,
                "rate {rate}/seed {seed}: sanitizer saw nothing"
            );
        }
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let clean = workload(400);
    let run = |seed: u64| {
        let mut injector = FaultInjector::new(FaultConfig::uniform(0.1), seed).unwrap();
        let stream = injector.corrupt_series(&clean, 0);
        let mut g = guarded();
        let mut outputs = Vec::new();
        for &(minute, value) in &stream {
            for step in g.ingest(minute, value) {
                outputs.push((step.forecast.map(f64::to_bits), step.chosen, step.health));
            }
        }
        outputs
    };
    assert_eq!(run(99), run(99), "same seed must reproduce bit-identical serving");
    assert_ne!(run(99), run(100), "different seeds must differ");
}

#[test]
fn serving_recovers_to_healthy_after_a_fault_burst() {
    let clean = workload(700);
    let mut g = guarded();

    // Phase 1: clean warmup + serving.
    let clean_stream: Vec<(u64, f64)> =
        clean[..200].iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
    let (_, _, health) = drive(&mut g, &clean_stream);
    assert_eq!(health, Some(HealthState::Healthy), "clean serving must be healthy");

    // Phase 2: a heavy burst — every fault type at 30% for 150 samples.
    let mut injector = FaultInjector::new(FaultConfig::uniform(0.3), 5).unwrap();
    let burst = injector.corrupt_series(&clean[200..350], 200);
    drive(&mut g, &burst);

    // Phase 3: clean again; serving must settle back to Healthy.
    let tail: Vec<(u64, f64)> =
        clean[350..700].iter().enumerate().map(|(i, &v)| (350 + i as u64, v)).collect();
    let (_, forecasts, health) = drive(&mut g, &tail);
    assert!(forecasts > 300, "post-burst serving starved: {forecasts}");
    assert_eq!(health, Some(HealthState::Healthy), "must recover after the burst");
    assert!(g.online().quarantined().is_empty(), "quarantines must drain");
}

#[test]
fn quarantined_predictor_is_readmitted_after_backoff_end_to_end() {
    let resilience = ResilienceConfig { quarantine_base: 6, ..ResilienceConfig::default() };
    let online = OnlineLarp::with_resilience(
        LarpConfig::default(),
        60,
        QualityAssuror::new(4.0, 8, 4).unwrap(),
        resilience,
    )
    .unwrap();
    let mut g = GuardedLarp::from_parts(IngestConfig::default(), online).unwrap();

    let clean = workload(400);
    let mut minute = 0u64;
    let mut chosen = None;
    while chosen.is_none() {
        for step in g.ingest(minute, clean[minute as usize]) {
            chosen = chosen.or(step.chosen);
        }
        minute += 1;
    }
    let first_choice = chosen.unwrap();
    g.online_mut().quarantine_predictor(first_choice).unwrap();

    // While benched: serving continues, never from the benched member.
    let mut non_healthy = 0;
    for _ in 0..5 {
        for step in g.ingest(minute, clean[minute as usize]) {
            assert_ne!(step.chosen, Some(first_choice), "benched member must not serve");
            if step.health != HealthState::Healthy {
                non_healthy += 1;
            }
        }
        minute += 1;
    }
    assert!(non_healthy > 0, "quarantine never surfaced in health");

    // After the 6-step quarantine expires the member is eligible again.
    for _ in 0..6 {
        g.ingest(minute, clean[minute as usize]);
        minute += 1;
    }
    assert!(
        !g.online().is_quarantined(first_choice),
        "backoff elapsed but the member is still benched"
    );
    let mut served_again = false;
    for _ in 0..40 {
        for step in g.ingest(minute, clean[minute as usize]) {
            if step.chosen == Some(first_choice) {
                served_again = true;
            }
        }
        minute += 1;
    }
    assert!(served_again, "re-admitted member never chosen again");
}

#[test]
fn unsanitized_nan_stream_is_still_survivable() {
    // Bypass the sanitizer entirely: raw NaNs straight into OnlineLarp. The
    // ladder alone must keep every emitted forecast finite.
    let mut o = OnlineLarp::new(LarpConfig::default(), 60, QualityAssuror::new(4.0, 8, 4).unwrap())
        .unwrap();
    let mut injector = FaultInjector::new(
        FaultConfig { nan_rate: 0.2, spike_rate: 0.1, ..FaultConfig::default() },
        17,
    )
    .unwrap();
    let stream = injector.corrupt_series(&workload(500), 0);
    for &(_, value) in &stream {
        let step = o.push(value);
        if let Some(f) = step.forecast {
            assert!(f.is_finite(), "ladder leaked a non-finite forecast");
        }
    }
}

#[test]
fn f32_history_saturates_a_finite_reading_beyond_f32_range() {
    // 3.5e38 is finite in f64 but beyond f32::MAX (~3.4028e38). The f32 ring
    // stores it as f32::MAX, so the step still serves a finite forecast
    // instead of falling back on a stored +inf.
    let resilience = ResilienceConfig { f32_history: true, ..ResilienceConfig::default() };
    let online = OnlineLarp::with_resilience(
        LarpConfig::default(),
        40,
        QualityAssuror::new(2.0, 8, 4).unwrap(),
        resilience,
    )
    .unwrap();
    let ingest = IngestConfig { outlier: larp::OutlierPolicy::None, ..IngestConfig::default() };
    let mut g = GuardedLarp::from_parts(ingest, online).unwrap();
    for t in 0..60u64 {
        g.ingest(t, 1e38 * (1.0 + (t as f64 * 0.3).sin() * 0.2));
    }
    assert!(g.online().is_trained());
    let steps = g.ingest(60, 3.5e38);
    assert_eq!(steps.len(), 1);
    let forecast = steps[0].forecast.expect("a finite reading gets a forecast");
    assert!(forecast.is_finite(), "{forecast}");
}
