//! Bit-for-bit guard on the serving path's forecasts.
//!
//! Each committed `fixtures/forecast_bits_*.bin` file records every step of
//! one fault-injected guarded stream: forecast bits, chosen member, refit
//! flag and health. The traces cover what the serving step normalises and
//! reads — sanitizer repairs, gap fills, many QA refits, bursts of member
//! quarantine (the fallback tracker and the degraded rung), whole-pool
//! quarantine (persistence) and a snapshot → restore midway — in both ring
//! storage modes, plus an extended-pool stream whose whole-history members
//! read every retained value. Any change to how history is stored,
//! normalised or refit that moves a single forecast bit fails here.
//!
//! To regenerate after an *intentional* change of forecasts:
//! `cargo test -p larp --test forecast_bits -- --ignored`

use std::fs;
use std::path::PathBuf;

use larp::{
    GuardedLarp, HealthState, IngestConfig, LarpConfig, OnlineLarp, OnlineStep, QualityAssuror,
    ResilienceConfig,
};
use predictors::PredictorId;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Drifting, regime-switching load with hashed jitter.
fn load(t: u64) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t.wrapping_mul(0xBF58_476D);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 29;
    let jitter = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    let regime = (t / 173) % 4;
    let level = 50.0 + 30.0 * regime as f64;
    let wave = (t as f64 * 0.07).sin() * 10.0;
    level + wave + jitter * (2.0 + 6.0 * (regime % 2) as f64)
}

/// [`load`] with sensor faults: NaN reads, sentinels, spikes and stuck runs
/// (dropped minutes are skipped by the caller).
fn faulty(t: u64) -> f64 {
    match t {
        t if t % 97 == 3 => f64::NAN,
        t if t % 89 == 5 => -1.0,
        t if t % 131 == 7 => load(t) * 50.0,
        t if t % 700 < 14 => load(t - t % 700),
        t => load(t),
    }
}

/// One trace: the stream's pool, its ring mode and how many minutes it runs.
struct Trace {
    file: &'static str,
    config: fn() -> LarpConfig,
    f32_history: bool,
    minutes: u64,
}

const TRACES: [Trace; 3] = [
    Trace {
        file: "forecast_bits_f64.bin",
        config: LarpConfig::default,
        f32_history: false,
        minutes: 3_000,
    },
    Trace {
        file: "forecast_bits_f32.bin",
        config: LarpConfig::default,
        f32_history: true,
        minutes: 3_000,
    },
    Trace {
        file: "forecast_bits_extended.bin",
        config: extended,
        f32_history: false,
        minutes: 1_500,
    },
];

fn extended() -> LarpConfig {
    LarpConfig::extended(5)
}

/// Ten bytes per step: forecast bits (zero when absent), chosen member
/// (`0xFF` for persistence or none) and a flag byte (bit 0 forecast present,
/// bit 1 refit, bits 2–3 health).
fn put_step(out: &mut Vec<u8>, step: &OnlineStep) {
    out.extend_from_slice(&step.forecast.map_or(0, f64::to_bits).to_le_bytes());
    out.push(step.chosen.map_or(0xFF, |id| u8::try_from(id.0).expect("small pool")));
    let health = match step.health {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Fallback => 2,
    };
    out.push(u8::from(step.forecast.is_some()) | u8::from(step.retrained) << 1 | health << 2);
}

/// What a trace exercised, so a golden file cannot silently stop covering
/// the paths it guards.
#[derive(Default)]
struct Coverage {
    healthy: usize,
    degraded: usize,
    fallback: usize,
    refits: usize,
}

/// Drives one trace and returns its recorded steps. Every 113 minutes the
/// member that served last is benched; every 997 the whole pool is; at the midpoint the
/// stream is snapshotted and the rest of the trace runs on the restored
/// copy.
fn record(trace: &Trace) -> (Vec<u8>, Coverage) {
    let resilience =
        ResilienceConfig { f32_history: trace.f32_history, ..ResilienceConfig::default() };
    let qa = QualityAssuror::new(3.0, 16, 28).unwrap();
    let online = OnlineLarp::with_resilience((trace.config)(), 40, qa, resilience).unwrap();
    let mut g = GuardedLarp::from_parts(IngestConfig::default(), online).unwrap();
    let pool = (trace.config)().pool.len();
    let mut out = Vec::new();
    let mut seen = Coverage::default();
    let mut last_chosen = None;
    for t in 0..trace.minutes {
        if t == trace.minutes / 2 {
            g = GuardedLarp::from_snapshot_bytes(&g.to_snapshot_bytes()).unwrap();
        }
        if t % 61 == 17 {
            continue; // dropped minute: the sanitizer fills the gap
        }
        if g.online().is_trained() {
            if t % 113 == 50 {
                let id = last_chosen.unwrap_or(PredictorId((t / 113) as usize % pool));
                g.online_mut().quarantine_predictor(id).unwrap();
            }
            if t % 997 == 500 {
                for id in 0..pool {
                    g.online_mut().quarantine_predictor(PredictorId(id)).unwrap();
                }
            }
        }
        let steps = g.ingest(t, faulty(t));
        out.push(u8::try_from(steps.len()).expect("a short step batch"));
        for step in &steps {
            put_step(&mut out, step);
            if step.forecast.is_some() {
                match step.health {
                    HealthState::Healthy => seen.healthy += 1,
                    HealthState::Degraded => seen.degraded += 1,
                    HealthState::Fallback => seen.fallback += 1,
                }
            }
            seen.refits += usize::from(step.retrained);
            last_chosen = step.chosen;
        }
    }
    (out, seen)
}

#[test]
fn forecasts_match_the_recorded_bits() {
    for trace in &TRACES {
        let expected = fs::read(fixture_path(trace.file))
            .unwrap_or_else(|e| panic!("committed fixture {}: {e}", trace.file));
        let (got, seen) = record(trace);
        assert!(seen.healthy > 500, "{}: {} healthy steps", trace.file, seen.healthy);
        assert!(seen.degraded > 20, "{}: {} degraded steps", trace.file, seen.degraded);
        assert!(seen.fallback > 0, "{}: no persistence step", trace.file);
        assert!(seen.refits > 25, "{}: {} refits", trace.file, seen.refits);
        assert_eq!(got.len(), expected.len(), "{}: record length changed", trace.file);
        if let Some(at) = got.iter().zip(&expected).position(|(a, b)| a != b) {
            panic!("{}: first differing byte at offset {at}", trace.file);
        }
    }
}

#[test]
#[ignore = "fixture generator: run only for an intentional change of forecasts"]
fn regenerate_forecast_bits() {
    for trace in &TRACES {
        fs::write(fixture_path(trace.file), record(trace).0).unwrap();
    }
}
