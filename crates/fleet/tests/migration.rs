//! Single-stream export/import — the cluster tier's migration primitive
//! (DESIGN.md §12): a stream exported from one engine and imported into
//! another must serve bit-identically to one that never moved, f32-history
//! streams included. Plus the warm-standby delta export (`export_dirty`).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, FleetError, StreamConfig, StreamInfo};
use larp::ResilienceConfig;

const STREAMS: u64 = 6;
/// Streams with f32 history rings (LARPSNAP v2 f32 mode) — migration must
/// carry the mode, not silently widen back to f64.
const F32_STREAMS: [u64; 2] = [2, 5];

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("fleet-migration-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> FleetConfig {
    FleetConfig { shards: 2, fleet_seed: 2007, ..FleetConfig::default() }
}

fn register_all(engine: &FleetEngine) {
    for id in 0..STREAMS {
        if F32_STREAMS.contains(&id) {
            let cfg = StreamConfig {
                resilience: ResilienceConfig { f32_history: true, ..ResilienceConfig::default() },
                ..StreamConfig::default()
            };
            engine.register_with(id, &cfg).expect("register f32 stream");
        } else {
            engine.register(id).expect("register");
        }
    }
}

fn drive(engine: &FleetEngine, rounds: std::ops::Range<u64>) {
    for round in rounds {
        let batch: Vec<(u64, f64)> = (0..STREAMS)
            .map(|id| (id, 40.0 + ((round * STREAMS + id) as f64 * 0.13).sin() * 7.0))
            .collect();
        let report = engine.push_batch(&batch);
        assert_eq!(report.accepted, STREAMS);
    }
    engine.flush();
}

/// What migration must preserve exactly. Serving tallies (steps/forecasts)
/// reset on import by design — model state, clock, and forecasts must not.
fn fingerprint(info: &StreamInfo) -> (u64, usize, Option<u64>) {
    (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits))
}

#[test]
fn export_import_round_trip_is_bit_identical() {
    let source = FleetEngine::new(config()).expect("source");
    let control = FleetEngine::new(config()).expect("control");
    register_all(&source);
    register_all(&control);
    drive(&source, 0..80);
    drive(&control, 0..80);

    // Migrate every stream into a fresh engine, one export/import at a time.
    let dest = FleetEngine::new(config()).expect("dest");
    for id in 0..STREAMS {
        let (next_minute, bytes) = source.export_stream(id).expect("export");
        dest.import_stream(id, next_minute, &bytes).expect("import");
    }
    assert_eq!(dest.stream_count(), STREAMS as usize);

    // The source keeps serving until the caller evicts: export is a copy.
    for id in 0..STREAMS {
        assert!(source.contains(id));
    }

    // Post-migration traffic must land bit-identically to never-migrated.
    drive(&dest, 80..140);
    drive(&control, 80..140);
    for id in 0..STREAMS {
        let migrated = dest.stream_info(id).expect("migrated stream");
        let reference = control.stream_info(id).expect("control stream");
        assert_eq!(fingerprint(&migrated), fingerprint(&reference), "stream {id} diverged");
    }

    // The lifecycle is obs-visible on both sides.
    assert!(source.prometheus().contains(&format!("fleet_stream_exports_total {STREAMS}")));
    assert!(dest.prometheus().contains(&format!("fleet_stream_imports_total {STREAMS}")));
    let exported = source.events().recent();
    assert!(exported.iter().any(|e| matches!(e.kind, obs::EventKind::StreamExported { .. })));
    let imported = dest.events().recent();
    assert!(imported.iter().any(|e| matches!(e.kind, obs::EventKind::StreamImported { .. })));
}

/// Typed errors: unknown export, duplicate import, garbage bytes.
#[test]
fn export_import_errors_are_typed() {
    let source = FleetEngine::new(config()).expect("source");
    register_all(&source);
    drive(&source, 0..60);
    let dest = FleetEngine::new(config()).expect("dest");
    assert_eq!(source.export_stream(99).unwrap_err(), FleetError::UnknownStream(99));
    let (nm, bytes) = source.export_stream(0).expect("export");
    dest.import_stream(0, nm, &bytes).expect("import");
    assert_eq!(dest.import_stream(0, nm, &bytes).unwrap_err(), FleetError::DuplicateStream(0));
    assert!(matches!(dest.import_stream(77, 0, b"not a snapshot"), Err(FleetError::Checkpoint(_))));
    assert!(!dest.contains(77), "failed import leaves nothing behind");
}

/// `export_dirty` is the warm-standby feed: the first cut covers every
/// stream, later cuts only what advanced, and with durability the returned
/// WAL sequence tells the standby where its tail must begin.
#[test]
fn export_dirty_sends_deltas_with_a_consistent_wal_cut() {
    let dir = temp_dir("dirty");
    let engine = FleetEngine::new(FleetConfig {
        durability: Some(DurabilityConfig::new(dir.join("store"))),
        ..config()
    })
    .expect("durable engine");
    register_all(&engine);
    drive(&engine, 0..30);

    let mut seen: HashMap<u64, u64> = HashMap::new();
    let (covered, deltas) = engine.export_dirty(&mut seen);
    assert_eq!(deltas.len(), STREAMS as usize, "first cut covers everything");
    assert_eq!(covered, engine.wal_last_seq());
    assert!(covered > 0, "registrations and pushes are in the log");
    // Sorted by id, cursor updated.
    assert!(deltas.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(seen.len(), STREAMS as usize);

    // Nothing moved: nothing to send.
    let (_, idle) = engine.export_dirty(&mut seen);
    assert!(idle.is_empty(), "clean cursor sends nothing, got {} streams", idle.len());

    // Only streams 0 and 3 advance; only they ship.
    for round in 0..5u64 {
        engine.push_batch(&[(0, 41.0 + round as f64), (3, 39.0 - round as f64)]);
    }
    engine.flush();
    let before = covered;
    let (covered, deltas) = engine.export_dirty(&mut seen);
    let ids: Vec<u64> = deltas.iter().map(|d| d.0).collect();
    assert_eq!(ids, vec![0, 3]);
    assert!(covered >= before + 5, "the cut advances with the log");

    // An evicted stream falls out of the cursor.
    engine.evict(5).expect("evict");
    let (_, after_evict) = engine.export_dirty(&mut seen);
    assert!(after_evict.is_empty());
    assert!(!seen.contains_key(&5), "cursor pruned");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The f32 flag survives the WAL: recovery rebuilds an f32 stream as f32.
/// (The flag is a trailing byte on the Register record — pre-flag logs
/// decode as f64, new logs carry the mode.)
#[test]
fn f32_mode_survives_wal_recovery() {
    let dir = temp_dir("f32wal");
    let store_dir = dir.join("store");
    let durable = FleetConfig { durability: Some(DurabilityConfig::new(&store_dir)), ..config() };
    let engine = FleetEngine::new(durable.clone()).expect("engine");
    register_all(&engine);
    drive(&engine, 0..80);
    engine.flush_durable().expect("drain");
    let reference: Vec<_> =
        (0..STREAMS).map(|id| fingerprint(&engine.stream_info(id).expect("info"))).collect();
    drop(engine);

    let (recovered, summary) =
        FleetEngine::recover(durable, StreamConfig::default()).expect("recover");
    assert!(summary.clean(), "contiguous log: {summary:?}");
    for id in 0..STREAMS {
        let info = recovered.stream_info(id).expect("recovered stream");
        assert_eq!(fingerprint(&info), reference[id as usize], "stream {id} diverged");
    }
    // The mode itself is preserved, not just the forecasts: an f32 stream
    // recovered as f64 would diverge on the next retrain, so drive past one.
    drive(&recovered, 80..140);
    let control = FleetEngine::new(config()).expect("control");
    register_all(&control);
    drive(&control, 0..140);
    for id in 0..STREAMS {
        let a = recovered.stream_info(id).expect("recovered");
        let b = control.stream_info(id).expect("control");
        assert_eq!(fingerprint(&a), fingerprint(&b), "stream {id} diverged post-recovery");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
