//! Kill/restore acceptance: a checkpointed fleet resumes with identical
//! forecasts and no retraining, even onto a different shard count.

use fleet::{FleetConfig, FleetEngine, StreamId};
use vmsim::fleet_trace;

const STREAMS: u64 = 12;
const WARM: usize = 150;
const TAIL: usize = 90;

fn config(shards: usize) -> FleetConfig {
    // Capacity covers the whole warmup unflushed, so no samples are rejected
    // even if every stream lands on one shard — losslessness is a
    // precondition for the determinism this test asserts.
    FleetConfig { shards, fleet_seed: 77, queue_capacity: 4096, ..FleetConfig::default() }
}

/// One fleet-wide batch: every stream's sample for `minute`.
fn batch_at(traces: &[Vec<f64>], minute: usize) -> Vec<(StreamId, f64)> {
    traces.iter().enumerate().map(|(id, t)| (id as StreamId, t[minute])).collect()
}

fn build_warm_fleet(shards: usize) -> (FleetEngine, Vec<Vec<f64>>) {
    let engine = FleetEngine::new(config(shards)).unwrap();
    let traces: Vec<Vec<f64>> = (0..STREAMS).map(|id| fleet_trace(77, id, WARM + TAIL)).collect();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
    }
    for minute in 0..WARM {
        engine.push_batch(&batch_at(&traces, minute));
    }
    engine.flush();
    (engine, traces)
}

/// Feeds the tail of each trace one batch at a time, recording every stream's
/// forecast after each batch.
fn serve_tail(engine: &FleetEngine, traces: &[Vec<f64>]) -> Vec<Vec<Option<f64>>> {
    let mut forecasts = vec![Vec::with_capacity(TAIL); STREAMS as usize];
    for minute in WARM..WARM + TAIL {
        engine.push_batch(&batch_at(traces, minute));
        engine.flush();
        for id in 0..STREAMS {
            forecasts[id as usize].push(engine.stream_info(id).unwrap().last_forecast);
        }
    }
    forecasts
}

#[test]
fn restore_resumes_identically_without_retraining() {
    let (original, traces) = build_warm_fleet(4);
    let retrains_before: Vec<usize> =
        (0..STREAMS).map(|id| original.stream_info(id).unwrap().retrains).collect();
    assert!(retrains_before.iter().all(|&r| r >= 1), "warmup must train every stream");

    let bytes = original.checkpoint();

    // The original fleet keeps serving: the reference future.
    let expected = serve_tail(&original, &traces);
    drop(original);

    // "Kill" and restore onto a DIFFERENT shard count.
    let restored = FleetEngine::restore(config(2), &bytes).unwrap();
    assert_eq!(restored.stream_count(), STREAMS as usize);

    // No retraining happened at restore: the counts carried over bit-exact.
    for id in 0..STREAMS {
        assert_eq!(
            restored.stream_info(id).unwrap().retrains,
            retrains_before[id as usize],
            "stream {id} retrained during restore"
        );
        assert_eq!(restored.stream_info(id).unwrap().next_minute, WARM as u64);
    }

    // The restored fleet forecasts the identical future.
    let actual = serve_tail(&restored, &traces);
    for id in 0..STREAMS as usize {
        assert_eq!(
            actual[id], expected[id],
            "stream {id}: restored fleet diverged from the original"
        );
    }
}

#[test]
fn checkpoint_bytes_are_shard_count_independent() {
    let (a, _) = build_warm_fleet(4);
    let (b, _) = build_warm_fleet(2);
    assert_eq!(a.checkpoint(), b.checkpoint(), "checkpoint must not leak shard layout");
}

#[test]
fn restore_rejects_garbage() {
    let cfg = config(4);
    assert!(FleetEngine::restore(cfg.clone(), b"not a checkpoint").is_err());
    let (engine, _) = build_warm_fleet(2);
    let mut bytes = engine.checkpoint();
    bytes.truncate(bytes.len() / 2);
    assert!(FleetEngine::restore(cfg, &bytes).is_err());
}
