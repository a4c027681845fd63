//! Who drains a shard must not change what it computes.
//!
//! A push of at most 64 samples is applied by the thread that pushed it; a
//! larger one by the shard's worker; `flush` by whoever calls it. These
//! tests race all three drainers against each other and check that
//! per-stream order still equals push order (the final checkpoint is
//! byte-identical to a single-threaded run), that `Block` backpressure
//! cannot deadlock when callers drain only after admission, and that
//! `flush` makes progress on samples whose drain token is still held.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use fleet::{FleetConfig, FleetEngine, PushReport, StreamConfig, StreamId};

const PRODUCERS: u64 = 3;
const STREAMS_PER_PRODUCER: u64 = 6;
/// Samples each producer pushes (200 per stream).
const SAMPLES_PER_PRODUCER: usize = 1_200;
/// Push sizes cycle through these: caller drains (1, 12) and worker drains
/// (200, above the 64-sample inline limit).
const PUSH_SIZES: [usize; 6] = [1, 12, 200, 12, 1, 12];

/// How long a test body may run before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);

fn config(queue_capacity: usize) -> FleetConfig {
    FleetConfig { shards: 2, queue_capacity, ..FleetConfig::default() }
}

/// A twitchy QA and a regime change so refits land mid-drain.
fn stream_config() -> StreamConfig {
    StreamConfig { qa_threshold: 0.5, qa_window: 4, qa_period: 2, ..StreamConfig::default() }
}

/// Producer `p` owns streams `p, p + PRODUCERS, …`: disjoint sets that
/// share both shards.
fn streams_of(p: u64) -> Vec<StreamId> {
    (0..STREAMS_PER_PRODUCER).map(|k| p + k * PRODUCERS).collect()
}

fn sample(id: StreamId, minute: u64) -> f64 {
    if minute < 120 {
        50.0 + ((minute * 3 + id) as f64 * 0.21).sin() * 6.0
    } else {
        let swing = if (minute + id).is_multiple_of(2) { 30.0 } else { -30.0 };
        50.0 + swing + id as f64 * 0.3
    }
}

/// Producer `p`'s pushes, in order.
fn schedule(p: u64) -> Vec<Vec<(StreamId, f64)>> {
    let ids = streams_of(p);
    let all: Vec<(StreamId, f64)> = (0..SAMPLES_PER_PRODUCER)
        .map(|j| {
            let id = ids[j % ids.len()];
            (id, sample(id, (j / ids.len()) as u64))
        })
        .collect();
    let mut pushes = Vec::new();
    let mut at = 0;
    for size in PUSH_SIZES.iter().cycle() {
        if at == all.len() {
            break;
        }
        let end = (at + size).min(all.len());
        pushes.push(all[at..end].to_vec());
        at = end;
    }
    pushes
}

fn register_all(engine: &FleetEngine) {
    for p in 0..PRODUCERS {
        for id in streams_of(p) {
            engine.register(id).unwrap();
        }
    }
}

/// Runs `body` on its own thread and fails the test if it does not finish
/// within [`WATCHDOG`] (a deadlock would otherwise hang the suite).
fn within_watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let out = body();
        let _ = done.send(());
        out
    });
    // A panicking body drops `done` unsent, which ends the wait early.
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(WATCHDOG) {
        panic!("test body still running after {WATCHDOG:?} (deadlock?)");
    }
    runner.join().expect("test body panicked")
}

#[test]
fn concurrent_drainers_preserve_per_stream_order() {
    let reference = FleetEngine::with_stream_defaults(config(64), stream_config()).unwrap();
    register_all(&reference);
    for p in 0..PRODUCERS {
        for push in schedule(p) {
            reference.push_batch(&push);
        }
    }
    let want = reference.checkpoint();

    let (got, report, drains) = within_watchdog(|| {
        let engine =
            Arc::new(FleetEngine::with_stream_defaults(config(64), stream_config()).unwrap());
        register_all(&engine);
        let done = Arc::new(AtomicBool::new(false));
        let maintenance = {
            let (engine, done) = (Arc::clone(&engine), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    engine.flush();
                    engine.checkpoint();
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut report = PushReport::default();
                    for push in schedule(p) {
                        report.merge(engine.push_batch(&push));
                    }
                    report
                })
            })
            .collect();
        let mut report = PushReport::default();
        for producer in producers {
            report.merge(producer.join().unwrap());
        }
        done.store(true, Ordering::Relaxed);
        maintenance.join().unwrap();
        let registry = engine.registry();
        let drains = ["fleet_drains_inline_total", "fleet_drains_worker_total"]
            .map(|name| registry.counter(name).get());
        (engine.checkpoint(), report, drains)
    });
    assert!(drains.iter().all(|&n| n > 0), "callers and workers both drained: {drains:?}");
    assert_eq!(report.accepted, PRODUCERS * SAMPLES_PER_PRODUCER as u64);
    assert!(got == want, "concurrent drains changed the served state");
}

#[test]
fn block_backpressure_with_caller_drains_cannot_deadlock() {
    const PUSHES: u64 = 300;
    let (report, steps) = within_watchdog(|| {
        let engine = Arc::new(FleetEngine::new(config(2)).unwrap());
        register_all(&engine);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let ids = streams_of(p);
                    let mut report = PushReport::default();
                    for n in 0..PUSHES {
                        let id = ids[n as usize % ids.len()];
                        report.merge(engine.push(id, sample(id, n)));
                    }
                    report
                })
            })
            .collect();
        let mut report = PushReport::default();
        for producer in producers {
            report.merge(producer.join().unwrap());
        }
        // A small push longer than the queue blocks mid-admission, before
        // its caller could drain anything: only the worker can free space.
        let batch: Vec<(StreamId, f64)> = (0..12).map(|id| (id, sample(id, PUSHES))).collect();
        report.merge(engine.push_batch(&batch));
        engine.flush();
        (report, engine.health().steps)
    });
    assert_eq!(report.accepted, PRODUCERS * PUSHES + 12);
    assert_eq!(steps, PRODUCERS * PUSHES + 12, "every admitted sample was applied");
}

#[test]
fn flush_applies_samples_whose_token_is_still_held() {
    within_watchdog(|| {
        let engine = FleetEngine::new(config(64)).unwrap();
        register_all(&engine);
        let batch: Vec<(StreamId, f64)> = (0..12).map(|id| (id, sample(id, 0))).collect();
        let (report, token) = engine.admit_batch(&batch);
        assert_eq!(report.accepted, 12);
        // This thread still holds the drain of what it admitted; flush must
        // apply it rather than wait for the token to drop.
        engine.flush();
        assert_eq!(engine.health().steps, 12, "flush applied the pending samples");
        drop(token);
        assert_eq!(engine.health().steps, 12, "a drained token applies nothing twice");

        // A token may outlive its engine: the engine's drop flushes.
        let (_, late) = engine.admit_batch(&batch);
        drop(engine);
        drop(late);
    });
}
