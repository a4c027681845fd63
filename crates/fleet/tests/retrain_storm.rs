//! Serving state cut mid-retrain-storm continues bit-identically.
//!
//! A twitchy QA and a regime change make every stream refit every few steps.
//! A checkpoint or a single-stream export taken right at the regime change —
//! the point of maximum refit traffic — must restore into a fresh engine that
//! then evolves exactly like the source: same forecasts, same retrain counts,
//! same serving bytes.

use fleet::{FleetConfig, FleetEngine, StreamConfig, StreamInfo};

const STREAMS: u64 = 8;

fn config() -> FleetConfig {
    FleetConfig { shards: 2, ..FleetConfig::default() }
}

/// A twitchy QA so the regime change below forces repeated retrains.
fn stream_config() -> StreamConfig {
    StreamConfig { qa_threshold: 0.5, qa_window: 4, qa_period: 2, ..StreamConfig::default() }
}

/// Minute `m` of stream `id`: a gentle sinusoid that turns violent at minute
/// 80, so trained models go stale and the QA orders refits.
fn sample(id: u64, m: u64) -> f64 {
    if m < 80 {
        ((m * 3 + id) as f64 * 0.21).sin() * 0.1
    } else {
        let swing = if (m + id).is_multiple_of(2) { 40.0 } else { -40.0 };
        swing + (id as f64) * 0.3
    }
}

fn feed(engine: &FleetEngine, minutes: std::ops::Range<u64>) {
    for m in minutes {
        let batch: Vec<(u64, f64)> = (0..STREAMS).map(|id| (id, sample(id, m))).collect();
        engine.push_batch(&batch);
    }
    engine.flush();
}

fn infos(engine: &FleetEngine) -> Vec<StreamInfo> {
    (0..STREAMS).map(|id| engine.stream_info(id).unwrap()).collect()
}

#[test]
fn checkpoint_cut_at_the_regime_change_continues_identically() {
    let source = FleetEngine::with_stream_defaults(config(), stream_config()).unwrap();
    for id in 0..STREAMS {
        source.register(id).unwrap();
    }
    feed(&source, 0..90);
    let cut = source.checkpoint();
    let restored = FleetEngine::restore(config(), &cut).unwrap();
    feed(&source, 90..160);
    feed(&restored, 90..160);
    let retrains: usize = infos(&source).iter().map(|i| i.retrains).sum();
    assert!(
        retrains > 2 * STREAMS as usize,
        "workload must force re-training beyond the initial fit (got {retrains})"
    );
    // Slot tallies (steps/forecasts) are engine-local and reset on restore;
    // the serving state itself must match bit-for-bit, so compare the
    // checkpoint payloads (serving snapshots) plus the serving-visible info.
    assert_eq!(
        source.checkpoint(),
        restored.checkpoint(),
        "restored engine's serving state diverged after the cut"
    );
    for (a, b) in infos(&source).into_iter().zip(infos(&restored)) {
        assert_eq!(a.last_forecast, b.last_forecast, "stream {}", a.id);
        assert_eq!(a.retrains, b.retrains, "stream {}", a.id);
        assert_eq!(a.health, b.health, "stream {}", a.id);
    }
}

#[test]
fn export_import_mid_storm_continues_identically() {
    let source = FleetEngine::with_stream_defaults(config(), stream_config()).unwrap();
    let target = FleetEngine::with_stream_defaults(config(), stream_config()).unwrap();
    source.register(0).unwrap();
    for m in 0..90 {
        source.push(0, sample(0, m));
    }
    source.flush();
    let (next_minute, bytes) = source.export_stream(0).unwrap();
    target.import_stream(0, next_minute, &bytes).unwrap();
    for m in 90..150 {
        source.push(0, sample(0, m));
        target.push(0, sample(0, m));
    }
    source.flush();
    target.flush();
    // Compare the exported serving state after continuation: slot tallies
    // reset at import, but the serving stack must evolve identically.
    let (minute_a, bytes_a) = source.export_stream(0).unwrap();
    let (minute_b, bytes_b) = target.export_stream(0).unwrap();
    assert_eq!(minute_a, minute_b);
    assert_eq!(bytes_a, bytes_b, "migrated stream's serving state diverged from its source");
    let a = source.stream_info(0).unwrap();
    let b = target.stream_info(0).unwrap();
    assert_eq!(a.last_forecast, b.last_forecast);
    assert_eq!(a.retrains, b.retrains);
}
