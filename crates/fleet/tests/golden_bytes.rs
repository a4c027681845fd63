//! Golden-byte fixture for the `STORCKP1` checkpoint wrapper a durable
//! engine writes next to its WAL.
//!
//! The wrapped fleet is empty (streams registered, then evicted), so the
//! fixture pins the wrapper itself — magic, covered WAL sequence, payload
//! length, CRC — and the 20-byte empty `FLEETCKP` inside it, not any
//! LARPSNAP model bytes. Regenerate (only on an implementation whose bytes
//! are known good) with:
//! `cargo test -p fleet --test golden_bytes -- --ignored`

use std::fs;
use std::path::{Path, PathBuf};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> FleetConfig {
    FleetConfig {
        shards: 1,
        durability: Some(DurabilityConfig::new(dir)),
        ..FleetConfig::default()
    }
}

/// Logs two registrations and two evictions, checkpoints durably, and
/// returns the checkpoint file's bytes.
fn checkpoint_file(dir: &Path) -> Vec<u8> {
    let engine = FleetEngine::new(config(dir)).unwrap();
    for id in [3, 5] {
        engine.register(id).unwrap();
    }
    for id in [3, 5] {
        engine.evict(id).unwrap();
    }
    assert_eq!(engine.checkpoint_durable().unwrap(), 4);
    drop(engine);
    fs::read(dir.join("CHECKPOINT")).unwrap()
}

#[test]
fn checkpoint_wrapper_matches_golden_bytes_and_recovers() {
    let dir = temp_dir("storckp");
    let want = fs::read(fixture("storckp1.bin")).unwrap();
    assert!(checkpoint_file(&dir) == want, "STORCKP1 bytes differ from the golden fixture");

    // The fixture itself is what recovery reads back.
    fs::copy(fixture("storckp1.bin"), dir.join("CHECKPOINT")).unwrap();
    let (engine, summary) = FleetEngine::recover(config(&dir), StreamConfig::default()).unwrap();
    assert!(!summary.checkpoint_corrupt);
    assert_eq!(summary.checkpoint_seq, 4);
    assert_eq!(summary.checkpoint_streams, 0);
    assert_eq!(engine.health().streams, 0);
    drop(engine);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "rewrites the golden fixture"]
fn regenerate_golden_fixture() {
    let dir = temp_dir("regen");
    fs::write(fixture("storckp1.bin"), checkpoint_file(&dir)).unwrap();
    let _ = fs::remove_dir_all(&dir);
}
