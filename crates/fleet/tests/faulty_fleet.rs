//! End-to-end resilience: 64 streams, every one fed through a deterministic
//! fault injector, served concurrently — no forecast is ever non-finite.

use fleet::{FleetConfig, FleetEngine};
use vmsim::{fleet_trace, FaultConfig, FaultInjector};

const STREAMS: u64 = 64;
const SAMPLES: usize = 240;

#[test]
fn sixty_four_faulty_streams_never_serve_nonfinite() {
    // Block backpressure: a sustained overload stalls the producer instead
    // of losing samples, so every corrupted reading reaches its sanitizer.
    let engine =
        FleetEngine::new(FleetConfig { shards: 4, fleet_seed: 2007, ..FleetConfig::default() })
            .unwrap();

    // Per-stream corrupted traces: drops, gaps, NaNs, sentinels, stuck
    // sensors, spikes and duplicates, deterministic per stream id.
    let mut corrupted: Vec<Vec<(u64, f64)>> = Vec::new();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
        let clean = fleet_trace(2007, id, SAMPLES);
        let mut injector = FaultInjector::new(FaultConfig::uniform(0.08), 9000 + id).unwrap();
        corrupted.push(injector.corrupt_series(&clean, 0));
    }

    // Interleave pushes round-robin across streams — the realistic arrival
    // order of a fleet of monitors reporting in lockstep.
    let max_len = corrupted.iter().map(Vec::len).max().unwrap();
    for i in 0..max_len {
        for (id, trace) in corrupted.iter().enumerate() {
            if let Some(&(minute, value)) = trace.get(i) {
                let report = engine.push_at(id as u64, minute, value);
                assert_eq!(report.accepted, 1, "default queue must absorb this rate");
            }
        }
    }
    engine.flush();

    let health = engine.health();
    assert_eq!(health.streams, STREAMS as usize);
    assert_eq!(health.nonfinite_forecasts, 0, "a non-finite forecast escaped the serving stack");
    assert!(health.forecasts > 0, "fleet must actually be serving forecasts");

    // Every stream individually: forecasts were served and the last one is a
    // finite number despite the injected NaNs and sentinels.
    for id in 0..STREAMS {
        let info = engine.stream_info(id).unwrap();
        assert!(info.steps > 0, "stream {id} processed nothing");
        assert!(info.forecasts > 0, "stream {id} served no forecasts");
        if let Some(f) = info.last_forecast {
            assert!(f.is_finite(), "stream {id} last forecast is {f}");
        }
        assert!(info.retrains >= 1, "stream {id} never trained");
    }
}
