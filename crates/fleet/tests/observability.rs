//! End-to-end observability: a fault-injected fleet must expose a coherent
//! metric registry and event trace through both exposition formats.

use fleet::{FleetConfig, FleetEngine};
use obs::expo::validate_json;
use vmsim::{fleet_trace, FaultConfig, FaultInjector};

const STREAMS: u64 = 12;
const SAMPLES: usize = 200;

fn faulted_fleet() -> FleetEngine {
    let engine =
        FleetEngine::new(FleetConfig { shards: 2, fleet_seed: 2007, ..FleetConfig::default() })
            .unwrap();
    let mut corrupted: Vec<Vec<(u64, f64)>> = Vec::new();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
        let clean = fleet_trace(2007, id, SAMPLES);
        let mut injector = FaultInjector::new(FaultConfig::uniform(0.1), 7000 + id).unwrap();
        corrupted.push(injector.corrupt_series(&clean, 0));
    }
    let max_len = corrupted.iter().map(Vec::len).max().unwrap();
    for i in 0..max_len {
        for (id, trace) in corrupted.iter().enumerate() {
            if let Some(&(minute, value)) = trace.get(i) {
                engine.push_at(id as u64, minute, value);
            }
        }
    }
    engine.flush();
    engine
}

/// `mem_report` accounts every stream's serving stack and the table around
/// them.
#[test]
fn mem_report_accounts_every_stream() {
    let engine = faulted_fleet();
    let report = engine.mem_report();
    assert_eq!(report.streams, STREAMS as usize);
    assert!(report.stream.history_bytes > 0);
    assert!(report.stream.model_bytes > 0, "trained streams hold model state");
    assert!(report.table_bytes > 0);
    assert!(report.heap_total() > 0);
    assert!(report.bytes_per_stream() > 0.0);
    assert!(report.resident_bytes.is_some(), "statm is readable on Linux");
}

#[test]
fn registry_metrics_agree_with_the_health_rollup() {
    let engine = faulted_fleet();
    let health = engine.health();
    let metrics = engine.registry().snapshot();
    let counter = |name: &str| {
        metrics
            .iter()
            .find_map(|m| match m {
                obs::MetricValue::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("fleet_push_accepted_total"), health.pushes.accepted);
    // The registry-backed larp rollup must match the legacy per-stream
    // counter aggregation the health endpoint performs.
    assert_eq!(counter("larp_quarantines_total"), health.counters.quarantines as u64);
    assert_eq!(counter("larp_degraded_steps_total"), health.counters.degraded_steps as u64);
    assert_eq!(counter("larp_fallback_steps_total"), health.counters.fallback_steps as u64);
    assert_eq!(
        counter("larp_nonfinite_forecasts_total"),
        health.counters.nonfinite_forecasts as u64
    );
    // Fault injection at 10% must have produced sanitizer repairs, and every
    // selection outcome lands in exactly one rung counter.
    assert!(counter("larp_faults_sanitized_total") > 0, "no sanitizer activity recorded");
    let selections = counter("larp_selections_total")
        + counter("larp_degraded_steps_total")
        + counter("larp_fallback_steps_total");
    assert!(selections > 0 && selections <= health.forecasts, "{selections} selections");
}

#[test]
fn prometheus_exposition_is_wellformed_and_complete() {
    let engine = faulted_fleet();
    let text = engine.prometheus();
    for metric in [
        "fleet_push_accepted_total",
        "fleet_push_enqueue_us_count",
        "fleet_shard0_queue_depth",
        "fleet_shard1_unknown_dropped_total",
        "larp_selections_total",
        "larp_retrains_total",
        "larp_retrain_us_sum",
        "obs_events_recorded_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in exposition");
    }
    // Every sample line carries a finite, non-negative value.
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let value: f64 = line.rsplit(' ').next().unwrap().parse().expect("value parses");
        assert!(value.is_finite() && value >= 0.0, "bad sample line: {line}");
    }
    // Histogram buckets are cumulative (non-decreasing up to +Inf).
    let mut last = 0u64;
    for line in text.lines().filter(|l| l.starts_with("fleet_push_enqueue_us_bucket")) {
        let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v >= last, "cumulative bucket decreased: {line}");
        last = v;
    }
}

#[test]
fn json_exposition_validates_and_carries_events() {
    let engine = faulted_fleet();
    let bytes = engine.checkpoint();
    assert!(!bytes.is_empty());
    let dump = engine.obs_json();
    validate_json(&dump).expect("JSON exposition must parse");
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"events\"",
        "fleet_push_enqueue_us",
        "larp_retrain_us",
        "\"p99\"",
        "checkpoint_save",
    ] {
        assert!(dump.contains(key), "missing {key} in JSON dump");
    }
    assert!(!dump.contains("NaN") && !dump.contains("Infinity"), "non-finite leaked");
    // Event ring meta-counters line up with the ring itself.
    assert!(engine.events().recorded() >= engine.events().recent().len() as u64);
}

#[test]
fn restored_fleet_keeps_recording_into_its_own_registry() {
    let engine = faulted_fleet();
    let bytes = engine.checkpoint();
    let before = engine.registry().snapshot().len();
    drop(engine);

    let restored = FleetEngine::restore(
        FleetConfig { shards: 3, fleet_seed: 2007, ..FleetConfig::default() },
        &bytes,
    )
    .unwrap();
    // The restore event is traced and counted.
    assert!(restored.events().recent().iter().any(|e| e.kind.name() == "checkpoint_restore"));
    // Streams restored from a checkpoint are re-attached to the new
    // engine's recorder: serving must keep counting.
    for minute in 1000..1100u64 {
        for id in 0..STREAMS {
            restored.push_at(id, minute, 40.0 + (minute as f64 * 0.2).sin());
        }
    }
    restored.flush();
    let metrics = restored.registry().snapshot();
    assert!(metrics.len() >= before.saturating_sub(2), "registry lost metric families");
    let steps: u64 = metrics
        .iter()
        .filter_map(|m| match m {
            obs::MetricValue::Counter { name, value }
                if name == "larp_selections_total"
                    || name == "larp_degraded_steps_total"
                    || name == "larp_fallback_steps_total" =>
            {
                Some(*value)
            }
            _ => None,
        })
        .sum();
    assert!(steps > 0, "restored streams recorded no selection outcomes");
    validate_json(&restored.obs_json()).unwrap();
}
