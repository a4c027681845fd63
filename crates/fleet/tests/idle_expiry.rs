//! Idle expiry: `sweep_idle` evicts streams on the engine-wide push clock,
//! info probes count as activity, and a failed WAL eviction append is
//! surfaced rather than swallowed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};

const STREAMS: u64 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fleet-idle-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig { shards: 2, fleet_seed: 2007, ..FleetConfig::default() }
}

/// Every stream takes one sample per round, in id order.
fn drive(engine: &FleetEngine, rounds: std::ops::Range<u64>) {
    for round in rounds {
        let batch: Vec<(u64, f64)> = (0..STREAMS)
            .map(|id| (id, 40.0 + ((round * STREAMS + id) as f64 * 0.13).sin() * 7.0))
            .collect();
        assert_eq!(engine.push_batch(&batch).accepted, STREAMS);
    }
    engine.flush();
}

/// Idle is measured in push attempts since a stream's last sample: at a
/// zero horizon every stream expires except the one that took the newest
/// sample.
#[test]
fn sweep_idle_expires_streams_on_the_push_clock() {
    let engine = FleetEngine::new(config()).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..40);
    let last = STREAMS - 1;
    let evicted = engine.sweep_idle(0);
    assert_eq!(evicted, (0..last).collect::<Vec<_>>());
    for id in &evicted {
        assert!(!engine.contains(*id), "expired stream {id} must be gone");
    }
    assert!(engine.contains(last), "the newest sample's stream is not idle");
    assert_eq!(engine.health().streams, 1);
    assert_eq!(engine.mem_report().streams, 1);
}

/// Predict-only consumers read forecasts via `stream_info` without ever
/// pushing. Reads must refresh the idle clock, or the sweep evicts a stream
/// that is actively being consumed.
#[test]
fn info_probes_refresh_the_idle_clock() {
    let engine = FleetEngine::new(config()).expect("engine");
    engine.register(1).expect("register");
    engine.register(2).expect("register");
    // Stream 2 is warmed once, then only ever *read* while stream 1 takes
    // all the pushes.
    for round in 0..10u64 {
        engine.push(2, 50.0 + round as f64);
    }
    for round in 0..100u64 {
        engine.push(1, 30.0 + (round as f64 * 0.2).sin());
        let _ = engine.stream_info(2).expect("predict-only read");
    }
    let evicted = engine.sweep_idle(20);
    assert!(evicted.is_empty(), "a stream being read is not idle: evicted {evicted:?}");
    assert!(engine.contains(2));

    // Without reads the same stream does expire — the refresh is what kept
    // it alive above, not a broken sweep.
    for round in 0..50u64 {
        engine.push(1, 30.0 + round as f64);
    }
    assert_eq!(engine.sweep_idle(20), vec![2]);
}

/// A WAL eviction append that fails during `sweep_idle` must be counted and
/// traced, not swallowed — recovery will resurrect the stream, and the
/// operator needs to know the fleet disagrees with its log.
#[test]
fn sweep_idle_surfaces_wal_append_failures() {
    let dir = temp_dir("wal-fail");
    let durable = FleetConfig { durability: Some(DurabilityConfig::new(&dir)), ..config() };
    let engine = FleetEngine::new(durable.clone()).expect("durable engine");
    engine.register(1).expect("register");
    engine.register(2).expect("register");
    for round in 0..50u64 {
        engine.push(1, 30.0 + round as f64 * 0.1);
    }

    assert!(engine.debug_fail_next_wal_append(), "durability is on");
    let evicted = engine.sweep_idle(20);
    assert_eq!(evicted, vec![2], "the in-memory eviction proceeds");
    assert!(!engine.contains(2));

    // The failure is counted and traced, with the record kind.
    assert!(engine.prometheus().contains("fleet_wal_failures_total 1"));
    let events = engine.events().recent();
    assert!(
        events.iter().any(|e| e.stream == Some(2)
            && matches!(e.kind, obs::EventKind::WalAppendFailed { kind: 2 })),
        "missing wal_append_failed event: {events:?}"
    );

    // And the documented consequence is real: recovery resurrects the
    // stream whose eviction never reached the log.
    engine.flush_durable().expect("drain");
    drop(engine);
    let (recovered, summary) =
        FleetEngine::recover(durable, StreamConfig::default()).expect("recover");
    assert_eq!(summary.replayed_evicts, 0, "the eviction never made the log");
    assert!(recovered.contains(2), "unlogged eviction resurrects on recovery");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
