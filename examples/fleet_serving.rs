//! Fleet serving: many VM metric streams behind one sharded engine.
//!
//! Registers 64 heterogeneous synthetic VM workloads with a 4-shard
//! [`fleet::FleetEngine`], streams a day of per-minute samples through
//! batched pushes, then demonstrates the kill/restore cycle: the fleet is
//! checkpointed, dropped, restored onto a *different* shard count, and keeps
//! forecasting the identical future — no model is retrained.
//!
//! Run with: `cargo run --release --example fleet_serving`

use larpredictor::fleet::{FleetConfig, FleetEngine, StreamId};
use larpredictor::vmsim::fleet_trace;

const STREAMS: u64 = 64;
const WARM: usize = 180;
const TAIL: usize = 60;
const SEED: u64 = 2007;

fn config(shards: usize) -> FleetConfig {
    FleetConfig { shards, fleet_seed: SEED, ..FleetConfig::default() }
}

/// One fleet-wide batch: every stream's sample for `minute`.
fn batch_at(traces: &[Vec<f64>], minute: usize) -> Vec<(StreamId, f64)> {
    traces.iter().enumerate().map(|(id, t)| (id as StreamId, t[minute])).collect()
}

fn main() {
    // Per-stream traces derive from (fleet_seed, stream_id) alone, so any
    // deployment regenerates the same fleet.
    let traces: Vec<Vec<f64>> = (0..STREAMS).map(|id| fleet_trace(SEED, id, WARM + TAIL)).collect();

    let engine = FleetEngine::new(config(4)).expect("valid fleet config");
    for id in 0..STREAMS {
        engine.register(id).expect("fresh stream id");
    }

    // Warm phase: three hours of per-minute samples, pushed in fleet-wide
    // batches (one queue-lock acquisition per shard per batch).
    for minute in 0..WARM {
        engine.push_batch(&batch_at(&traces, minute));
    }
    engine.flush();

    let health = engine.health();
    println!("fleet after warmup:");
    println!("  streams      {:>8}", health.streams);
    println!("  samples      {:>8}", health.steps);
    println!("  forecasts    {:>8}", health.forecasts);
    println!("  retrains     {:>8}", health.retrains);
    println!("  non-finite   {:>8}", health.nonfinite_forecasts);
    for shard in &health.shards {
        println!(
            "  shard {}: {:>2} streams, queue depth {}, {} degraded",
            shard.shard, shard.streams, shard.queue_depth, shard.degraded_streams
        );
    }

    // Kill/restore: checkpoint captures every stream's trained model,
    // sanitizer memory and quarantine clocks.
    let checkpoint = engine.checkpoint();
    println!("\ncheckpoint: {} bytes for {} streams", checkpoint.len(), health.streams);

    let reference = engine.stream_info(0).expect("stream 0 exists");
    drop(engine); // the "crash"

    // Restore onto 2 shards instead of 4 — assignment is a pure hash, so the
    // fleet re-shards itself and every model resumes warm.
    let restored = FleetEngine::restore(config(2), &checkpoint).expect("valid checkpoint");
    let resumed = restored.stream_info(0).expect("stream 0 restored");
    assert_eq!(resumed.retrains, reference.retrains, "restore must not retrain");
    println!(
        "restored onto 2 shards: stream 0 resumes at minute {} with {} retrains (unchanged)",
        resumed.next_minute, resumed.retrains
    );

    // Serve the tail hour on the restored fleet.
    for minute in WARM..WARM + TAIL {
        restored.push_batch(&batch_at(&traces, minute));
    }
    restored.flush();

    let health = restored.health();
    println!("\nrestored fleet after one more hour:");
    println!("  forecasts    {:>8}", health.forecasts);
    println!("  non-finite   {:>8}", health.nonfinite_forecasts);
    let sample: Vec<String> = (0..4)
        .map(|id| {
            let f = restored
                .stream_info(id)
                .expect("stream exists")
                .last_forecast
                .expect("stream is past warmup");
            format!("vm{id}={f:.1}")
        })
        .collect();
    println!("  next-minute forecasts: {}", sample.join("  "));
    assert_eq!(health.nonfinite_forecasts, 0);
}
