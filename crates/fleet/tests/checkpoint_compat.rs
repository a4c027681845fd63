//! Cross-version FLEETCKP compatibility.
//!
//! `tests/fixtures/pr5_fleet.ckp` was checkpointed by the pre-ring-buffer
//! implementation. Restoring it onto the current engine and replaying the
//! recorded continuation must reproduce every stream's forecasts bit-exactly.
//!
//! Regenerate (on the checkpoint-producing implementation) with:
//! `cargo test -p fleet --test checkpoint_compat -- --ignored`

use std::fs;
use std::path::PathBuf;

use fleet::{FleetConfig, FleetEngine, StreamId};

const STREAMS: u64 = 12;
const SNAP_ROUNDS: u64 = 80;
const CONT_ROUNDS: u64 = 60;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn config() -> FleetConfig {
    FleetConfig { shards: 3, ..FleetConfig::default() }
}

/// Deterministic heterogeneous per-stream signal with NaN/sentinel faults.
fn sample(stream: StreamId, round: u64) -> f64 {
    let phase = stream as f64 * 0.7;
    let level = 50.0 + stream as f64 * 9.0;
    let t = round as f64;
    let v = level + (t * 0.2 + phase).sin() * 6.0 + ((round * 31 + stream * 7) % 13) as f64 * 0.2;
    match (round + stream) % 23 {
        0 => f64::NAN,
        11 => -1.0, // sentinel
        _ => v,
    }
}

fn push_rounds(engine: &FleetEngine, from: u64, to: u64) {
    let mut batch = Vec::with_capacity(STREAMS as usize);
    for round in from..to {
        batch.clear();
        for id in 0..STREAMS {
            batch.push((id, sample(id, round)));
        }
        engine.push_batch(&batch);
        // One flush per round keeps per-stream processing deterministic and
        // lets the continuation be recorded round by round.
        engine.flush();
    }
}

/// Records each stream's latest forecast after every continuation round.
fn continuation(engine: &FleetEngine) -> Vec<u8> {
    let mut out = Vec::new();
    for round in SNAP_ROUNDS..SNAP_ROUNDS + CONT_ROUNDS {
        push_rounds(engine, round, round + 1);
        for id in 0..STREAMS {
            let info = engine.stream_info(id).unwrap();
            match info.last_forecast {
                Some(f) => {
                    out.push(1);
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
                None => {
                    out.push(0);
                    out.extend_from_slice(&0u64.to_le_bytes());
                }
            }
        }
    }
    out
}

fn checkpointed_engine() -> (FleetEngine, Vec<u8>) {
    let engine = FleetEngine::new(config()).unwrap();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
    }
    push_rounds(&engine, 0, SNAP_ROUNDS);
    let bytes = engine.checkpoint();
    (engine, bytes)
}

#[test]
fn pre_change_fleet_checkpoint_restores_bit_identically() {
    let bytes = fs::read(fixture_path("pr5_fleet.ckp"))
        .expect("committed fixture pr5_fleet.ckp (regenerate test rebuilds it)");
    let expected = fs::read(fixture_path("pr5_fleet_expected.bin"))
        .expect("committed fixture pr5_fleet_expected.bin");
    // Restore onto a different shard count than the checkpointing engine to
    // prove the bytes are shard-topology independent as documented.
    let engine = FleetEngine::restore(FleetConfig { shards: 2, ..config() }, &bytes).unwrap();
    assert_eq!(engine.stream_count(), STREAMS as usize);
    let got = continuation(&engine);
    assert_eq!(got.len(), expected.len(), "continuation record length changed");
    assert!(got == expected, "restored fleet diverged from the pre-change recording");
}

/// Re-encoding a pre-change checkpoint loses nothing: restore it, take a
/// checkpoint on the current engine, restore that, and the recorded
/// continuation still replays bit-exactly.
#[test]
fn pre_change_checkpoint_reencodes_bit_identically() {
    let bytes = fs::read(fixture_path("pr5_fleet.ckp"))
        .expect("committed fixture pr5_fleet.ckp (regenerate test rebuilds it)");
    let expected = fs::read(fixture_path("pr5_fleet_expected.bin"))
        .expect("committed fixture pr5_fleet_expected.bin");
    let reencoded =
        FleetEngine::restore(FleetConfig { shards: 2, ..config() }, &bytes).unwrap().checkpoint();
    let engine = FleetEngine::restore(config(), &reencoded).unwrap();
    assert_eq!(engine.stream_count(), STREAMS as usize);
    assert!(continuation(&engine) == expected, "the re-encoded image diverged");
}

/// Fixture-independent sanity check on the current implementation.
#[test]
fn current_fleet_checkpoint_round_trip_is_bit_identical() {
    let (live, bytes) = checkpointed_engine();
    let restored = FleetEngine::restore(config(), &bytes).unwrap();
    assert_eq!(continuation(&live), continuation(&restored));
}

#[test]
#[ignore = "fixture generator: run on the checkpoint-producing implementation"]
fn regenerate_fleet_fixture() {
    fs::create_dir_all(fixture_path("")).unwrap();
    let (live, bytes) = checkpointed_engine();
    fs::write(fixture_path("pr5_fleet.ckp"), bytes).unwrap();
    fs::write(fixture_path("pr5_fleet_expected.bin"), continuation(&live)).unwrap();
}
