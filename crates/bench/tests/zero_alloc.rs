//! The perf gate behind the zero-allocation hot path: once a stream is warm
//! (trained, scratch sized, rings full), the steady-state
//! sanitize → normalize → classify → predict step must not touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this test
//! binary; the test warms a guarded stack past training, then asserts that
//! thousands of further steps perform zero allocations. Regressions here are
//! invisible to correctness tests but show up directly as fleet throughput
//! loss, so this pins the property rather than the symptom. The same holds
//! for a step served while a pool member is quarantined.
//!
//! The same allocator also pins the allocation budget of one warm refit
//! (`TrainedLarp::train_reusing` on a 40-sample tail, into a spent model),
//! the fit the quality assuror triggers every few steps on busy streams.
//!
//! Each test counts only its own thread's allocations: the serving step runs
//! on the caller's thread, and the harness threads reporting other tests
//! must not land in a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use larp::{
    GuardedLarp, HealthState, IngestConfig, LarpConfig, OnlineLarp, QualityAssuror,
    ResilienceConfig, Scratch, TrainedLarp,
};

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

/// A smooth but non-trivial signal: no gaps, no outliers, so the sanitizer
/// passes every value through and the predictor stays healthy.
fn signal(minute: u64) -> f64 {
    40.0 + (minute as f64 * 0.17).sin() * 6.0 + (minute as f64 * 0.031).cos() * 2.5
}

#[test]
fn steady_state_online_step_does_not_allocate() {
    // A QA threshold this high never signals a retrain, so the measured
    // window exercises exactly the steady-state serving path.
    let qa = QualityAssuror::new(1e12, 8, 4).expect("valid QA config");
    let mut guarded = GuardedLarp::new(IngestConfig::default(), LarpConfig::default(), 40, qa)
        .expect("valid guarded stack");
    let mut scratch = Scratch::new();
    let mut steps = Vec::new();

    // Warm-up: initial training, scratch sizing, QA window growth, first
    // ring compactions all happen here.
    for minute in 0..2048u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
    }
    let retrains_before = guarded.online().retrain_count();
    assert!(retrains_before >= 1, "stream must be trained before measurement");

    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    let mut forecasts = 0u64;
    for minute in 2048..6144u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
        forecasts += steps.iter().filter(|s| s.forecast.is_some()).count() as u64;
    }
    let allocations = THREAD_ALLOC_CALLS.with(Cell::get) - before;

    // The measured window must have done real serving work, entirely on the
    // steady-state path.
    assert_eq!(forecasts, 4096, "every measured step should forecast");
    assert_eq!(
        guarded.online().retrain_count(),
        retrains_before,
        "a retrain inside the measured window would invalidate the steady-state claim"
    );
    assert_eq!(allocations, 0, "steady-state online step allocated {allocations} times");
}

#[test]
fn quarantined_step_does_not_allocate() {
    // A quarantine that outlasts the test, and a QA that never refits (a
    // refit would lift it): every measured step runs the fallback tracker
    // over the whole pool and serves from the degradation ladder.
    let resilience = ResilienceConfig {
        quarantine_base: 1 << 20,
        quarantine_cap: 1 << 20,
        ..ResilienceConfig::default()
    };
    let qa = QualityAssuror::new(1e12, 8, 4).expect("valid QA config");
    let online = OnlineLarp::with_resilience(LarpConfig::default(), 40, qa, resilience)
        .expect("valid online stack");
    let mut guarded = GuardedLarp::from_parts(IngestConfig::default(), online).expect("valid");
    let mut scratch = Scratch::new();
    let mut steps = Vec::new();
    for minute in 0..2048u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
    }
    // Bench the member the selector would choose next, then let the first
    // quarantined steps create the tracker and size its error windows.
    let chosen = steps[0].chosen.expect("a trained stream forecasts");
    guarded.online_mut().quarantine_predictor(chosen).expect("pool member");
    for minute in 2048..2112u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
    }

    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    let mut degraded = 0u64;
    for minute in 2112..6208u64 {
        guarded.ingest_into(minute, signal(minute), &mut scratch, &mut steps);
        degraded += steps.iter().filter(|s| s.health == HealthState::Degraded).count() as u64;
    }
    let allocations = THREAD_ALLOC_CALLS.with(Cell::get) - before;

    assert!(guarded.online().is_quarantined(chosen), "the quarantine must last the window");
    assert!(degraded > 0, "some measured steps must be served by the fallback rung");
    assert_eq!(guarded.online().retrain_count(), 1, "no refit inside the measured window");
    assert_eq!(allocations, 0, "quarantined online step allocated {allocations} times");
}

/// Heap allocations of one warm refit: none. The fit writes the model into
/// a spent model's storage — the pool members with the AR coefficients, the
/// k-NN labels and point store, the PCA mean, components and eigenvalues —
/// and shares the stream's config instead of copying it. Its temporaries —
/// normalised tail, window labels, window matrix, projected features, the
/// AR fit's autocovariances and Levinson workspace, covariance, eigen
/// workspace — live in reused per-thread buffers or on the stack.
const REFIT_ALLOCATIONS: u64 = 0;

#[test]
fn warm_refit_stays_within_its_allocation_budget() {
    let tail: Vec<f64> = (0..40u64).map(signal).collect();
    let older: Vec<f64> = (100..140u64).map(signal).collect();
    // A stream's refit shares its config: no copy per fit.
    let config = Arc::new(LarpConfig::default());
    let fresh = TrainedLarp::train_shared(&tail, &config).expect("trainable tail");
    // A model that no longer serves; one refit into it sizes this thread's
    // reused fit buffers.
    let spent = TrainedLarp::train_shared(&older, &config).expect("trainable tail");
    let spent = TrainedLarp::train_reusing(&older, &config, spent).expect("trainable tail");

    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    let model = TrainedLarp::train_reusing(&tail, &config, spent).expect("trainable tail");
    let allocations = THREAD_ALLOC_CALLS.with(Cell::get) - before;

    assert!(model.pca().is_some() && model.knn().len() == 35, "a full PCA + k-NN fit");
    assert_eq!(
        model.predict_next_raw(&tail).unwrap(),
        fresh.predict_next_raw(&tail).unwrap(),
        "a refit into spent storage must equal a fresh fit"
    );
    assert_eq!(
        allocations, REFIT_ALLOCATIONS,
        "one warm refit made {allocations} allocations (budget {REFIT_ALLOCATIONS})"
    );
}
