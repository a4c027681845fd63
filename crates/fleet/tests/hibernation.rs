//! Cold-stream hibernation: spill idle serving state to the blob store,
//! keep a tombstone resident, restore bit-identically on the next sample.
//! Plus the eviction/recovery bugfix sweep regressions: surfaced WAL append
//! failures and read-refreshed idle clocks (DESIGN.md §11).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig, StreamInfo};

const STREAMS: u64 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("fleet-hibernate-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spill_config(dir: &Path) -> FleetConfig {
    FleetConfig {
        shards: 2,
        fleet_seed: 2007,
        spill_dir: Some(dir.to_path_buf()),
        ..FleetConfig::default()
    }
}

fn batch_for(round: u64) -> Vec<(u64, f64)> {
    (0..STREAMS).map(|id| (id, 40.0 + ((round * STREAMS + id) as f64 * 0.13).sin() * 7.0)).collect()
}

/// What a hibernate/wake cycle must preserve exactly. `last_forecast`
/// compares by bits: restore is bit-identical, not approximately equal.
fn fingerprint(info: &StreamInfo) -> (u64, u64, u64, usize, Option<u64>) {
    (
        info.next_minute,
        info.steps,
        info.forecasts,
        info.retrains,
        info.last_forecast.map(f64::to_bits),
    )
}

fn drive(engine: &FleetEngine, rounds: std::ops::Range<u64>) {
    for round in rounds {
        let report = engine.push_batch(&batch_for(round));
        assert_eq!(report.accepted, STREAMS);
    }
    engine.flush();
}

#[test]
fn hibernate_and_wake_round_trip_is_bit_identical() {
    let dir = temp_dir("roundtrip");
    let hib = FleetEngine::new(spill_config(&dir)).expect("engine");
    let control = FleetEngine::new(FleetConfig { spill_dir: None, ..spill_config(&dir) })
        .expect("control engine");
    for id in 0..STREAMS {
        hib.register(id).expect("register");
        control.register(id).expect("register");
    }
    drive(&hib, 0..80);
    drive(&control, 0..80);

    // Everything idles long enough once a post-drive probe-free pause would;
    // max_idle 0 hibernates every stream except (at most) the one that took
    // the engine's newest sample.
    let hibernated = hib.hibernate_idle(0).expect("hibernation configured");
    assert!(hibernated.len() >= STREAMS as usize - 1, "got {hibernated:?}");
    let health = hib.health();
    assert_eq!(health.hibernated, hibernated.len());
    assert_eq!(health.streams, STREAMS as usize, "hibernated streams stay registered");
    assert_eq!(hib.stream_count(), STREAMS as usize);
    for id in 0..STREAMS {
        assert!(hib.contains(id));
    }

    // The health rollup still counts the cold streams' tallies.
    assert_eq!(health.steps, control.health().steps);

    // The next samples wake the cold streams; outcomes must match the
    // engine that never hibernated, bit for bit.
    drive(&hib, 80..140);
    drive(&control, 80..140);
    for id in 0..STREAMS {
        let woken = hib.stream_info(id).expect("woken stream");
        let reference = control.stream_info(id).expect("control stream");
        assert_eq!(fingerprint(&woken), fingerprint(&reference), "stream {id} diverged");
    }
    assert_eq!(hib.health().hibernated, 0, "all woken");

    // The lifecycle is obs-visible.
    let prom = hib.prometheus();
    assert!(prom.contains(&format!("fleet_hibernations_total {}", hibernated.len())));
    assert!(prom.contains(&format!("fleet_wakes_total {}", hibernated.len())));
    assert!(prom.contains("fleet_wake_failures_total 0"));
    let events = hib.events().recent();
    assert!(events.iter().any(|e| matches!(e.kind, obs::EventKind::StreamHibernated { .. })));
    assert!(events.iter().any(|e| matches!(e.kind, obs::EventKind::StreamWoken { .. })));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_info_answers_from_the_tombstone_without_waking() {
    let dir = temp_dir("tombstone");
    let engine = FleetEngine::new(spill_config(&dir)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..80);
    let before: Vec<_> =
        (0..STREAMS).map(|id| engine.stream_info(id).expect("live stream")).collect();

    let hibernated = engine.hibernate_idle(0).expect("hibernate");
    for &id in &hibernated {
        let cold = engine.stream_info(id).expect("tombstone answers");
        assert_eq!(cold, before[id as usize], "tombstone must mirror the live view");
    }
    // Info probes never wake: the spilled streams are still cold.
    assert_eq!(engine.health().hibernated, hibernated.len());
    assert!(engine.prometheus().contains("fleet_wakes_total 0"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The S3 regression: predict-only consumers read forecasts via
/// `stream_info` without ever pushing. Reads must refresh the idle clock,
/// or the sweep evicts a stream that is actively being consumed.
#[test]
fn info_probes_refresh_the_idle_clock() {
    let engine =
        FleetEngine::new(FleetConfig { shards: 2, fleet_seed: 2007, ..FleetConfig::default() })
            .expect("engine");
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

/// The S1 regression: a WAL eviction append that fails during `sweep_idle`
/// must be counted and traced, not swallowed — recovery will resurrect the
/// stream, and the operator needs to know the fleet disagrees with its log.
#[test]
fn sweep_idle_surfaces_wal_append_failures() {
    let dir = temp_dir("wal-fail");
    let store_dir = dir.join("store");
    let engine = FleetEngine::new(FleetConfig {
        durability: Some(DurabilityConfig::new(&store_dir)),
        ..spill_config(&dir.join("spill"))
    })
    .expect("durable engine");
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
    let (recovered, summary) = FleetEngine::recover(
        FleetConfig {
            durability: Some(DurabilityConfig::new(&store_dir)),
            ..spill_config(&dir.join("spill"))
        },
        StreamConfig::default(),
    )
    .expect("recover");
    assert_eq!(summary.replayed_evicts, 0, "the eviction never made the log");
    assert!(recovered.contains(2), "unlogged eviction resurrects on recovery");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_inlines_hibernated_streams() {
    let dir = temp_dir("ckpt");
    let hib = FleetEngine::new(spill_config(&dir)).expect("engine");
    let control = FleetEngine::new(FleetConfig { spill_dir: None, ..spill_config(&dir) })
        .expect("control engine");
    for id in 0..STREAMS {
        hib.register(id).expect("register");
        control.register(id).expect("register");
    }
    drive(&hib, 0..80);
    drive(&control, 0..80);
    let hibernated = hib.hibernate_idle(0).expect("hibernate");
    assert!(!hibernated.is_empty());

    // The checkpoint bytes are independent of which streams are cold: the
    // spill blob *is* the stream's snapshot, inlined verbatim.
    let bytes = hib.checkpoint().expect("checkpoint with cold streams");
    assert_eq!(bytes, control.checkpoint().expect("control checkpoint"));

    // And the restored fleet serves all streams live again.
    let restored =
        FleetEngine::restore(FleetConfig { spill_dir: None, ..spill_config(&dir) }, &bytes)
            .expect("restore");
    assert_eq!(restored.stream_count(), STREAMS as usize);
    assert_eq!(restored.health().hibernated, 0);
    drive(&restored, 80..90);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_idle_evicts_cold_streams_and_drops_their_blobs() {
    let dir = temp_dir("sweep-cold");
    let engine = FleetEngine::new(spill_config(&dir)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..40);
    let hibernated = engine.hibernate_idle(0).expect("hibernate");
    assert!(!hibernated.is_empty());
    assert!(engine.mem_report().spill_live_bytes > 0);

    // Idle applies to cold streams on the same clock; their blobs go too.
    let evicted = engine.sweep_idle(0);
    for id in &hibernated {
        assert!(evicted.contains(id), "hibernated stream {id} must expire");
        assert!(!engine.contains(*id));
    }
    assert_eq!(engine.mem_report().spill_live_bytes, 0, "evicted blobs are dead");
    assert_eq!(engine.health().hibernated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spill blob that rots on disk must not serve: the wake fails, the
/// stream is dropped (counted), and its samples count as unknown — never a
/// panic, never a half-reset serving stack.
#[test]
fn corrupt_spill_blob_drops_the_stream_on_wake() {
    let dir = temp_dir("rot");
    let engine = FleetEngine::new(spill_config(&dir)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..40);
    let hibernated = engine.hibernate_idle(0).expect("hibernate");
    assert!(!hibernated.is_empty());

    // Rot every payload byte region: flip one byte per KiB across the file,
    // skipping nothing — at least each blob's CRC check must notice.
    let blob_path = dir.join("HIBERNATE.blob");
    let mut data = std::fs::read(&blob_path).expect("spill file exists");
    assert!(!data.is_empty());
    for at in (20..data.len()).step_by(64) {
        data[at] ^= 0xFF;
    }
    std::fs::write(&blob_path, data).expect("rot");

    let woken: u64 = hibernated.len() as u64;
    for &id in &hibernated {
        engine.push(id, 42.0);
    }
    engine.flush();
    for &id in &hibernated {
        assert!(!engine.contains(id), "unwakeable stream {id} must drop, not serve");
    }
    assert!(engine.prometheus().contains(&format!("fleet_wake_failures_total {woken}")));
    assert_eq!(engine.health().unknown_dropped(), woken);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mem_report_accounts_the_diet() {
    let dir = temp_dir("mem");
    let engine = FleetEngine::new(spill_config(&dir)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..80);
    let warm = engine.mem_report();
    assert_eq!(warm.live_streams, STREAMS as usize);
    assert_eq!(warm.hibernated_streams, 0);
    assert!(warm.stream.history_bytes > 0);
    assert!(warm.stream.model_bytes > 0, "trained streams hold model state");
    assert!(warm.table_bytes > 0);
    assert!(warm.heap_total() > 0);
    assert!(warm.bytes_per_stream() > 0.0);
    assert!(warm.resident_bytes.is_some(), "statm is readable on Linux");

    let hibernated = engine.hibernate_idle(0).expect("hibernate");
    let cold = engine.mem_report();
    assert_eq!(cold.hibernated_streams, hibernated.len());
    assert_eq!(cold.live_streams + cold.hibernated_streams, STREAMS as usize);
    assert!(cold.spill_live_bytes > 0, "spilled snapshots live in the blob file");
    assert!(
        cold.heap_total() < warm.heap_total(),
        "hibernation must shrink the resident footprint: {} -> {}",
        warm.heap_total(),
        cold.heap_total()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The automatic policy: `auto_hibernate_idle` drives `hibernate_idle`
/// from the engine's background maintenance thread — no application calls.
#[test]
fn auto_hibernate_policy_spills_idle_streams_on_its_own() {
    use std::time::{Duration, Instant};
    let dir = temp_dir("auto");
    let engine = FleetEngine::new(FleetConfig {
        auto_hibernate_idle: Some(Duration::from_millis(200)),
        ..spill_config(&dir)
    })
    .expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    drive(&engine, 0..40);

    // Keep stream 0 hot; everything else idles past the policy window and
    // must be spilled by the maintenance thread, not by any call here.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        engine.push(0, 42.0);
        engine.flush();
        if engine.health().hibernated >= STREAMS as usize - 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "auto-hibernate never fired: hibernated={}",
            engine.health().hibernated
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(engine.contains(0), "the hot stream survives");
    for id in 1..STREAMS {
        assert!(engine.contains(id), "hibernated stream {id} stays registered");
    }

    // The policy is obs-visible: sweep cycles counted, the batch traced.
    let prom = engine.prometheus();
    assert!(prom.contains("fleet_auto_hibernate_cycles_total"));
    assert!(!prom.contains("fleet_auto_hibernate_cycles_total 0\n"), "at least one cycle ran");
    let events = engine.events().recent();
    assert!(
        events.iter().any(
            |e| matches!(e.kind, obs::EventKind::AutoHibernate { hibernated } if hibernated > 0)
        ),
        "missing auto_hibernate event: {events:?}"
    );

    // The spilled streams still serve: the next sample wakes them.
    drive(&engine, 40..50);
    assert_eq!(engine.health().hibernated, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hibernation_requires_a_spill_dir() {
    let engine = FleetEngine::new(FleetConfig::default()).expect("engine");
    engine.register(1).expect("register");
    assert!(engine.hibernate_idle(0).is_err(), "no spill_dir, no hibernation");
}
