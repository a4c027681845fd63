//! A durable checkpoint streams its image to disk: the heap it needs while
//! writing does not grow with the fleet.
//!
//! A counting `#[global_allocator]` tracks live heap bytes and their
//! high-water mark across all threads. On a fleet of warm streams whose
//! checkpoint image is several MiB, `checkpoint_durable` may raise the
//! high-water mark by less than a fixed bound well under one image: the
//! write holds one stream's snapshot, the write buffer and the sorted id
//! list, never per-stream byte vectors, the concatenated image or a sealed
//! copy of it. The allocator lives in its own test binary, with one test,
//! so no other test's allocations land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig, StreamId};

struct PeakAlloc;

/// Heap bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

const STREAMS: u64 = 2_048;
/// The fixed allowance: one snapshot, the 64 KiB write buffer, 16 B of
/// sorted id list per stream (32 KiB here) and small change. It does not
/// scale with the image, which is about 2.7 KB per warm stream.
const RISE_BOUND: usize = 1 << 20;

#[test]
fn durable_checkpoint_heap_rise_is_bounded_by_one_snapshot_not_the_image() {
    let dir = std::env::temp_dir().join(format!("fleet-ckpt-heap-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    // A QA threshold this high never orders a refit: the streams train once
    // and the warmup stays short.
    let stream = StreamConfig { qa_threshold: 1e12, ..StreamConfig::default() };
    let engine = FleetEngine::with_stream_defaults(
        FleetConfig {
            shards: 4,
            queue_capacity: 4_096,
            durability: Some(DurabilityConfig::new(&dir)),
            ..FleetConfig::default()
        },
        stream,
    )
    .unwrap();
    for id in 0..STREAMS {
        engine.register(id).unwrap();
    }
    let mut batch: Vec<(StreamId, f64)> = Vec::with_capacity(STREAMS as usize);
    for minute in 0..48u64 {
        batch.clear();
        batch.extend((0..STREAMS).map(|id| {
            (id, 40.0 + ((minute + id * 3) as f64 * 0.23).sin() * 6.0 + (id % 11) as f64)
        }));
        engine.push_batch(&batch);
    }
    engine.flush();
    assert!(engine.health().forecasts > 0, "the streams are trained and serving");

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    engine.checkpoint_durable().unwrap();
    let rise = PEAK.load(Ordering::Relaxed) - baseline;

    let image = fs::metadata(dir.join("CHECKPOINT")).unwrap().len() as usize;
    assert!(image > 4 * RISE_BOUND, "a {image} B image is too small to show the bound");
    assert!(
        rise < RISE_BOUND,
        "checkpoint_durable raised the heap high-water mark by {rise} B for a {image} B image \
         (bound {RISE_BOUND} B)"
    );
    drop(engine);
    let _ = fs::remove_dir_all(&dir);
}
