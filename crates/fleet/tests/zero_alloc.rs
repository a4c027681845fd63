//! Small in-process pushes on warm streams do not touch the heap.
//!
//! A push of at most 64 samples is admitted, and then applied by the calling
//! thread when its drain token drops, with that thread's own scratch arena.
//! Once the streams are trained and the per-thread buffers sized, that whole
//! path — admission, the token and the caller's drain — must make zero
//! allocations, and so must the refits the quality assuror orders on it:
//! each writes into the thread's spare model. A counting `#[global_allocator]` counts the calling thread's
//! allocations; it lives in this test binary so the benchmark crate's own
//! allocation tests need no `fleet` dependency.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fleet::{FleetConfig, FleetEngine, StreamConfig, StreamId};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.
    static THREAD_ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = THREAD_ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const STREAMS: u64 = 12;

/// A smooth signal: no faults, so every sample takes the plain serving step.
fn signal(id: StreamId, minute: u64) -> f64 {
    40.0 + ((minute + id * 5) as f64 * 0.17).sin() * 6.0 + (minute as f64 * 0.031).cos() * 2.5
}

/// A fleet of [`STREAMS`] registered streams under `stream`, on two shards.
fn fleet(stream: StreamConfig) -> FleetEngine {
    let engine = FleetEngine::with_stream_defaults(
        FleetConfig { shards: 2, ..FleetConfig::default() },
        stream,
    )
    .unwrap();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
    }
    engine
}

fn minute_batch(minute: u64, batch: &mut Vec<(StreamId, f64)>) {
    batch.clear();
    batch.extend((0..STREAMS).map(|id| (id, signal(id, minute))));
}

#[test]
fn small_in_process_pushes_do_not_allocate() {
    // A QA threshold this high never orders a refit, so after the initial
    // fit every step is the steady-state serving path.
    let engine = fleet(StreamConfig { qa_threshold: 1e12, ..StreamConfig::default() });
    let mut batch = Vec::with_capacity(STREAMS as usize);
    // Train every stream, then warm the per-thread grouping buffers, the
    // caller's drain arena and the queues.
    for minute in 0..200 {
        minute_batch(minute, &mut batch);
        engine.push_batch(&batch);
    }
    engine.flush();
    let retrains_before = engine.health().retrains;

    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    for minute in 200..1_200 {
        minute_batch(minute, &mut batch);
        engine.push_batch(&batch);
    }
    let allocs = THREAD_ALLOC_CALLS.with(Cell::get) - before;

    engine.flush();
    let health = engine.health();
    assert_eq!(health.steps, 1_200 * STREAMS, "every sample was applied");
    assert_eq!(health.retrains, retrains_before, "the measured window must not refit");
    assert_eq!(allocs, 0, "1,000 warm 12-sample pushes made {allocs} allocations");
}

#[test]
fn refitting_pushes_do_not_allocate() {
    // A QA threshold this low orders a refit at every audit: each stream
    // refits every few steps, on the thread that applies its push.
    let engine = fleet(StreamConfig {
        qa_threshold: 1e-12,
        qa_window: 4,
        qa_period: 4,
        ..StreamConfig::default()
    });
    let mut batch = Vec::with_capacity(STREAMS as usize);
    // Train every stream and warm the per-thread fit buffers and the
    // thread's spare model along with the serving buffers.
    for minute in 0..200 {
        minute_batch(minute, &mut batch);
        engine.push_batch(&batch);
    }
    engine.flush();
    let retrains_before = engine.health().retrains;

    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    for minute in 200..1_200 {
        minute_batch(minute, &mut batch);
        engine.push_batch(&batch);
    }
    let allocs = THREAD_ALLOC_CALLS.with(Cell::get) - before;

    engine.flush();
    let health = engine.health();
    assert_eq!(health.steps, 1_200 * STREAMS, "every sample was applied");
    let refits = health.retrains - retrains_before;
    assert!(refits >= 1_000 * STREAMS / 8, "only {refits} refits in the measured window");
    assert_eq!(
        allocs, 0,
        "1,000 warm 12-sample pushes with {refits} refits made {allocs} allocations"
    );
}
