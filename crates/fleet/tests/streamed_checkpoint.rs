//! The durable checkpoint is streamed to disk, never built whole in memory;
//! its bytes must not notice. On a mixed fleet — ids registered out of
//! order across three shards, one stream holding a quarantined predictor —
//! the `CHECKPOINT` file must equal the old construction:
//! `seal(STORCKP1 | seq | len | image)` around the in-memory `checkpoint()`
//! image, which in turn must equal a `FLEETCKP` image assembled by hand from
//! each stream's exported snapshot in id order.

use std::fs;
use std::path::{Path, PathBuf};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig, StreamId};

/// Registration order; the checkpoint lists them sorted.
const IDS: [StreamId; 9] = [907, 3, 512, 44, 1_000_003, 17, 250, 76, 9_000];
/// Imported with a quarantined pool member.
const QUARANTINED: StreamId = 600;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-streamed-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> FleetConfig {
    FleetConfig {
        shards: 3,
        fleet_seed: 11,
        durability: Some(DurabilityConfig::new(dir.join("store"))),
        ..FleetConfig::default()
    }
}

fn value(id: StreamId, round: u64) -> f64 {
    45.0 + ((round * 7 + id % 97) as f64 * 0.19).sin() * 8.0 + (id % 5) as f64
}

fn push_round(engine: &FleetEngine, ids: &[StreamId], round: u64) {
    let batch: Vec<(StreamId, f64)> = ids.iter().map(|&id| (id, value(id, round))).collect();
    assert_eq!(engine.push_batch(&batch).accepted, ids.len() as u64);
}

/// A trained stream whose first-choice predictor is quarantined, as
/// snapshot bytes plus the auto-clock minute it resumes at.
fn quarantined_stream() -> (u64, Vec<u8>) {
    let mut guarded = StreamConfig::default().build().unwrap();
    let mut chosen = None;
    for minute in 0..90u64 {
        let steps = guarded.ingest(minute, value(QUARANTINED, minute));
        chosen = steps.last().and_then(|s| s.chosen).or(chosen);
    }
    let chosen = chosen.expect("a trained stream chooses a predictor");
    guarded.online_mut().quarantine_predictor(chosen).unwrap();
    assert!(!guarded.online().quarantined().is_empty());
    (90, guarded.to_snapshot_bytes())
}

/// The `FLEETCKP` image as the per-stream encoder used to build it: each
/// stream's snapshot in its own vector, concatenated in id order.
fn fleetckp_by_hand(engine: &FleetEngine, ids: &[StreamId]) -> Vec<u8> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let mut out = b"FLEETCKP".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
    for id in sorted {
        let (next_minute, snap) = engine.export_stream(id).unwrap();
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&next_minute.to_le_bytes());
        out.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        out.extend_from_slice(&snap);
    }
    out
}

#[test]
fn streamed_checkpoint_file_equals_the_sealed_image() {
    let dir = temp_dir("identity");
    let engine = FleetEngine::new(config(&dir)).unwrap();
    for id in IDS {
        engine.register(id).unwrap();
    }
    for round in 0..90 {
        push_round(&engine, &IDS, round);
    }
    let (next_minute, snap) = quarantined_stream();
    engine.import_stream(QUARANTINED, next_minute, &snap).unwrap();
    push_round(&engine, &IDS[..3], 90);
    engine.flush();

    let seq = engine.checkpoint_durable().unwrap();
    let file = fs::read(dir.join("store/CHECKPOINT")).unwrap();
    let image = engine.checkpoint();
    let mut all = IDS.to_vec();
    all.push(QUARANTINED);
    assert!(image == fleetckp_by_hand(&engine, &all), "FLEETCKP differs from the per-stream build");

    let mut sealed = b"STORCKP1".to_vec();
    sealed.extend_from_slice(&seq.to_le_bytes());
    sealed.extend_from_slice(&(image.len() as u64).to_le_bytes());
    sealed.extend_from_slice(&image);
    store::codec::seal(&mut sealed);
    assert_eq!(file.len(), sealed.len());
    assert!(file == sealed, "the streamed CHECKPOINT differs from the sealed image");
    assert!(!dir.join("store/CHECKPOINT.tmp").exists());

    // The quarantine survives the round trip through the file.
    drop(engine);
    let (back, summary) = FleetEngine::recover(config(&dir), StreamConfig::default()).unwrap();
    assert!(summary.clean(), "{summary:?}");
    assert_eq!(summary.checkpoint_streams, all.len() as u64);
    assert_eq!(back.health().quarantined_streams(), 1);
    assert!(back.checkpoint() == image, "recovery restores the same image");
    drop(back);
    let _ = fs::remove_dir_all(&dir);
}
