//! Corruption corpus for durable-engine recovery: torn tails, mid-segment
//! bit flips, missing segments, corrupt checkpoint/manifest files, a stray
//! file from an older store layout, and random multi-file damage. Every
//! scenario must recover into a serving engine — losses degrade to counted,
//! obs-visible gaps, never a panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, FleetHealth, StreamConfig, StreamInfo};
use simrng::{Rng64, Xoshiro256pp};

const STREAMS: u64 = 4;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fleet-recovery-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, retain_segments: bool) -> FleetConfig {
    FleetConfig {
        shards: 1, // one WAL record per pushed batch: exact record accounting
        fleet_seed: 2007,
        durability: Some(DurabilityConfig {
            segment_bytes: 2 << 10, // force many segments from a short log
            retain_segments,
            ..DurabilityConfig::new(dir.to_path_buf())
        }),
        ..FleetConfig::default()
    }
}

fn batch_for(round: u64) -> Vec<(u64, f64)> {
    (0..STREAMS)
        .map(|id| {
            // Wrapping: assert_serves probes with far-future round numbers.
            (id, 40.0 + ((round.wrapping_mul(STREAMS).wrapping_add(id)) as f64 * 0.1).sin() * 5.0)
        })
        .collect()
}

/// Builds a durable engine, pushes `batches` deterministic batches, drains,
/// and drops it — leaving `STREAMS + batches` records on disk.
fn seed_log(dir: &Path, batches: u64, retain_segments: bool) {
    let engine =
        FleetEngine::new(durable_config(dir, retain_segments)).expect("durable engine starts");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    for round in 0..batches {
        let report = engine.push_batch(&batch_for(round));
        assert_eq!(report.accepted, STREAMS);
        assert!(!report.wal_failed);
    }
    engine.flush_durable().expect("drain to disk");
}

/// The serving state a durable restart must reproduce. Slot `steps` and
/// `forecasts` are since-restore counters (checkpoints intentionally do not
/// carry them), so they are excluded.
fn fingerprint(info: &StreamInfo) -> (u64, usize, Option<u64>, larp::HealthState) {
    (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits), info.health)
}

/// Reference state: an in-memory engine fed the identical input sequence.
fn reference_fingerprints(batches: u64) -> Vec<(u64, usize, Option<u64>, larp::HealthState)> {
    let engine =
        FleetEngine::new(FleetConfig { shards: 1, fleet_seed: 2007, ..FleetConfig::default() })
            .expect("reference engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    for round in 0..batches {
        engine.push_batch(&batch_for(round));
    }
    engine.flush();
    (0..STREAMS).map(|id| fingerprint(&engine.stream_info(id).expect("live stream"))).collect()
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .expect("readdir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs
}

/// A recovered engine must still be a serving engine: it accepts pushes,
/// advances clocks, and reports healthy.
fn assert_serves(engine: &FleetEngine) {
    let before = engine.stream_info(0).expect("stream 0 recovered").next_minute;
    let report = engine.push_batch(&batch_for(u64::MAX / 2));
    assert_eq!(report.accepted, STREAMS);
    assert!(!report.wal_failed);
    engine.flush();
    assert_eq!(engine.stream_info(0).expect("stream 0 serves").next_minute, before + 1);
    assert!(matches!(engine.health(), FleetHealth { .. }));
}

#[test]
fn torn_tail_loses_only_the_interrupted_record() {
    let dir = temp_dir("torn");
    seed_log(&dir, 60, false);
    let segs = segment_files(&dir);
    let last = segs.last().expect("segments exist");
    let len = std::fs::metadata(last).expect("meta").len();
    let file = std::fs::OpenOptions::new().write(true).open(last).expect("open");
    file.set_len(len - 5).expect("tear the tail");
    drop(file);

    let (engine, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("torn tail recovers");
    assert!(summary.torn_tail, "{summary:?}");
    assert_eq!(summary.gap_records, 0);
    assert_eq!(summary.corrupt_segments, 0);
    assert_eq!(summary.replayed_records, STREAMS + 60 - 1, "exactly the torn record lost");
    // A torn tail is the expected artifact of a crash mid-write — by design
    // it still counts as a clean recovery (no *acked* record was lost).
    assert!(summary.clean());
    assert_serves(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_segment_bit_flip_becomes_a_counted_visible_gap() {
    let dir = temp_dir("bitflip");
    seed_log(&dir, 80, false);
    let segs = segment_files(&dir);
    assert!(segs.len() >= 3, "expected a multi-segment log, got {}", segs.len());
    // Flip one bit in the record area of a middle segment: its scan stops
    // there, and the next segment's first seq exposes the loss as a gap.
    let victim = &segs[1];
    let mut data = std::fs::read(victim).expect("read");
    data[40] ^= 0x10;
    std::fs::write(victim, data).expect("write");

    let (engine, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("bit flip recovers");
    assert!(summary.corrupt_segments >= 1, "{summary:?}");
    assert!(summary.gap_records > 0, "{summary:?}");
    assert_eq!(summary.replayed_records + summary.gap_records, STREAMS + 80);
    // The loss is obs-visible, not silent.
    let prom = engine.prometheus();
    assert!(
        prom.contains(&format!("fleet_wal_gap_records_total {}", summary.gap_records)),
        "gap counter missing from metrics"
    );
    assert!(prom.contains("fleet_wal_recoveries_total 1"));
    assert_serves(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_segment_gap_equals_its_record_span() {
    let dir = temp_dir("missing");
    seed_log(&dir, 80, false);
    let segs = segment_files(&dir);
    assert!(segs.len() >= 3);
    // Segment files are named <first_seq:016x>.seg: the span of segs[1] is
    // segs[2]'s first seq minus its own.
    let first_seq = |p: &PathBuf| {
        u64::from_str_radix(p.file_stem().unwrap().to_str().unwrap(), 16).expect("hex name")
    };
    let span = first_seq(&segs[2]) - first_seq(&segs[1]);
    std::fs::remove_file(&segs[1]).expect("drop a middle segment");

    let (engine, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("missing segment recovers");
    assert_eq!(summary.missing_segments, 1, "{summary:?}");
    assert_eq!(summary.gap_records, span);
    assert_eq!(summary.replayed_records, STREAMS + 80 - span);
    assert_serves(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_falls_back_to_full_replay_bit_identically() {
    let dir = temp_dir("ckpt");
    // retain_segments keeps the checkpointed prefix on disk, so a discarded
    // checkpoint can be compensated by replaying history from seq 1.
    let engine = FleetEngine::new(durable_config(&dir, true)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    for round in 0..50 {
        engine.push_batch(&batch_for(round));
    }
    engine.checkpoint_durable().expect("durable checkpoint");
    for round in 50..70 {
        engine.push_batch(&batch_for(round));
    }
    engine.flush_durable().expect("drain");
    drop(engine);
    // Corrupt the checkpoint payload (past the magic, so it reads as a
    // damaged file rather than a missing one).
    let ckpt = dir.join("CHECKPOINT");
    let mut data = std::fs::read(&ckpt).expect("checkpoint exists");
    let mid = data.len() / 2;
    data[mid] ^= 0xFF;
    std::fs::write(&ckpt, data).expect("write");

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, true), StreamConfig::default())
            .expect("corrupt checkpoint recovers");
    assert!(summary.checkpoint_corrupt, "{summary:?}");
    assert_eq!(summary.checkpoint_streams, 0);
    assert_eq!(summary.gap_records, 0);
    assert_eq!(summary.replayed_records, STREAMS + 70, "full history replayed");
    let expected = reference_fingerprints(70);
    for id in 0..STREAMS {
        let info = recovered.stream_info(id).expect("recovered stream");
        assert_eq!(
            fingerprint(&info),
            expected[id as usize],
            "stream {id} diverged from the uninterrupted reference"
        );
    }
    assert_serves(&recovered);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash right after a durable checkpoint leaves no WAL record to replay:
/// the restored streams must still report the forecast their last step
/// made, which the checkpoint carries as each stream's pending forecast.
#[test]
fn checkpoint_without_a_tail_restores_the_last_forecast() {
    let dir = temp_dir("ckpt-no-tail");
    let engine = FleetEngine::new(durable_config(&dir, false)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    for round in 0..50 {
        engine.push_batch(&batch_for(round));
    }
    engine.checkpoint_durable().expect("durable checkpoint");
    drop(engine);

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("recovery");
    assert_eq!(summary.checkpoint_streams, STREAMS);
    assert_eq!(summary.replayed_records, 0, "{summary:?}");
    let expected = reference_fingerprints(50);
    for id in 0..STREAMS {
        let info = recovered.stream_info(id).expect("recovered stream");
        assert!(info.last_forecast.is_some(), "stream {id} forecast lost");
        assert_eq!(fingerprint(&info), expected[id as usize], "stream {id}");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Older releases kept an `ARCHIVE` sidecar (raw samples + RRD tiers) next
/// to the checkpoint. A directory they wrote still recovers clean: the file
/// is neither read nor counted, whatever it holds.
#[test]
fn stray_archive_file_is_ignored_by_recovery() {
    let dir = temp_dir("archive");
    let engine = FleetEngine::new(durable_config(&dir, true)).expect("engine");
    for id in 0..STREAMS {
        engine.register(id).expect("register");
    }
    for round in 0..50 {
        engine.push_batch(&batch_for(round));
    }
    engine.checkpoint_durable().expect("durable checkpoint");
    // A post-checkpoint tail: checkpoint frames restore predictor state but
    // not the last served forecast, which only tail replay repopulates — so
    // keep some records past the checkpoint for a full fingerprint match.
    for round in 50..60 {
        engine.push_batch(&batch_for(round));
    }
    engine.flush_durable().expect("drain");
    drop(engine);
    let mut rng = Xoshiro256pp::seed_from_u64(0xA5C1);
    let junk: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
    std::fs::write(dir.join("ARCHIVE"), junk).expect("write a stray ARCHIVE");

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, true), StreamConfig::default())
            .expect("recovery ignores the stray file");
    assert!(summary.clean(), "{summary:?}");
    assert_eq!(summary.replayed_records, 10, "only the post-checkpoint tail replays");
    let expected = reference_fingerprints(60);
    for id in 0..STREAMS {
        let info = recovered.stream_info(id).expect("recovered stream");
        assert_eq!(fingerprint(&info), expected[id as usize], "stream {id} diverged");
    }
    assert_serves(&recovered);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_manifest_recovers_from_directory_scan() {
    let dir = temp_dir("manifest");
    seed_log(&dir, 60, false);
    std::fs::write(dir.join("MANIFEST"), b"not a manifest").expect("write");

    let (engine, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("corrupt manifest recovers");
    assert_eq!(summary.gap_records, 0, "{summary:?}");
    assert_eq!(summary.replayed_records, STREAMS + 60);
    let expected = reference_fingerprints(60);
    for id in 0..STREAMS {
        let info = engine.stream_info(id).expect("recovered stream");
        assert_eq!(fingerprint(&info), expected[id as usize], "stream {id} diverged");
    }
    assert_serves(&engine);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A WAL tail that interleaves `Samples` after `Evict` for the same id must
/// neither panic nor resurrect the evicted stream. The interleave is easy to
/// produce live: pushes for an unregistered stream are still accepted (and
/// WAL-logged) — the worker drops them — so samples for an already-evicted
/// stream land in the log after its eviction record.
#[test]
fn samples_after_evict_replay_without_resurrecting_the_stream() {
    let dir = temp_dir("evict-interleave");
    {
        let engine = FleetEngine::new(durable_config(&dir, false)).expect("engine");
        for id in 0..STREAMS {
            engine.register(id).expect("register");
        }
        for round in 0..30 {
            engine.push_batch(&batch_for(round));
        }
        engine.evict(2).expect("evict");
        // Post-evict samples for stream 2: accepted, logged, dropped by the
        // worker as unknown.
        for round in 30..40 {
            engine.push_batch(&batch_for(round));
        }
        engine.flush_durable().expect("drain");
    }

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("evict interleave recovers");
    assert_eq!(summary.replayed_evicts, 1, "{summary:?}");
    assert!(!recovered.contains(2), "evicted stream must stay evicted");
    assert_eq!(summary.unknown_replayed, 10, "post-evict samples drop, exactly as they did live");
    // The surviving streams replay the full log.
    for id in [0u64, 1, 3] {
        let info = recovered.stream_info(id).expect("recovered stream");
        assert_eq!(info.next_minute, 40, "stream {id}");
    }
    assert_serves(&recovered);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Evict → re-register → samples for the same id: the re-registration builds
/// a fresh serving stack and the tail samples feed it, reproducing the live
/// outcome exactly.
#[test]
fn evict_then_reregister_replays_into_a_fresh_stream() {
    let dir = temp_dir("evict-rereg");
    let live_fp = {
        let engine = FleetEngine::new(durable_config(&dir, false)).expect("engine");
        for id in 0..STREAMS {
            engine.register(id).expect("register");
        }
        for round in 0..30 {
            engine.push_batch(&batch_for(round));
        }
        // Quiesce before evicting: an evict that races queued samples drops
        // them live (acked but unroutable) while replay feeds them first —
        // the comparison below needs the deterministic, drained ordering.
        engine.flush();
        engine.evict(2).expect("evict");
        engine.register(2).expect("re-register");
        for round in 30..80 {
            engine.push_batch(&batch_for(round));
        }
        engine.flush_durable().expect("drain");
        fingerprint(&engine.stream_info(2).expect("live stream"))
    };

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
            .expect("re-register interleave recovers");
    assert_eq!(summary.replayed_evicts, 1, "{summary:?}");
    assert!(summary.clean(), "no sample was ever unroutable: {summary:?}");
    let info = recovered.stream_info(2).expect("re-registered stream recovered");
    assert_eq!(fingerprint(&info), live_fp, "replay must rebuild the fresh stack identically");
    assert_serves(&recovered);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random multi-file damage: whatever combination of flips lands on the
/// store's files, recovery returns a serving engine — the one invariant
/// corruption may never break.
#[test]
fn random_damage_always_yields_a_serving_engine() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xDA0A6E);
    for round in 0..12u64 {
        let dir = temp_dir(&format!("fuzz{round}"));
        let checkpoint = round % 3 == 0;
        {
            let engine = FleetEngine::new(durable_config(&dir, false)).expect("engine");
            for id in 0..STREAMS {
                engine.register(id).expect("register");
            }
            for r in 0..40 + rng.next_u64() % 40 {
                engine.push_batch(&batch_for(r));
            }
            if checkpoint {
                engine.checkpoint_durable().expect("checkpoint");
            }
            engine.flush_durable().expect("drain");
        }
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        for _ in 0..=(rng.next_u64() % 8) {
            let path = &files[(rng.next_u64() % files.len() as u64) as usize];
            let mut data = std::fs::read(path).expect("read");
            if data.is_empty() {
                continue;
            }
            match rng.next_u64() % 3 {
                0 => {
                    let at = (rng.next_u64() % data.len() as u64) as usize;
                    data[at] ^= (1 << (rng.next_u64() % 8)) as u8;
                }
                1 => data.truncate((rng.next_u64() % data.len() as u64) as usize),
                _ => data.extend_from_slice(&rng.next_u64().to_le_bytes()),
            }
            std::fs::write(path, data).expect("write");
        }

        let (engine, summary) =
            FleetEngine::recover(durable_config(&dir, false), StreamConfig::default())
                .expect("recovery survives random damage");
        // Whatever was lost is accounted, and the engine still serves the
        // streams it recovered (possibly none, if the register records died).
        for id in 0..STREAMS {
            if engine.contains(id) {
                engine.stream_info(id).expect("recovered stream answers");
            }
        }
        let report = engine.push_batch(&batch_for(1 << 40));
        assert!(report.accepted <= STREAMS);
        assert!(
            engine.prometheus().contains("fleet_wal_recoveries_total 1"),
            "round {round}: recovery not obs-visible ({summary:?})"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
