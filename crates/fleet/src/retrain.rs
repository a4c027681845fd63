//! Off-worker retrain pool (DESIGN.md §13).
//!
//! Shard workers used to fit models inline: a push landing on a retrain step
//! paid the full training cost (~100× a serving step) on the ingest path.
//! With `FleetConfig::retrain_threads > 0` the worker instead *arms* a
//! [`RetrainRequest`] — an owned copy of the training window, stamped with
//! the model generation — and hands it to this pool. The old model keeps
//! serving; the fitted model installs before the stream's next sample.
//!
//! # Why bit-identity holds
//!
//! The fit is pure (window copy + config in, model out) and the install
//! point is pinned by contract: an armed request resolves before the next
//! `push` of its stream, whether a pool worker fitted it, the shard worker
//! collected it pre-feed, or the push's own backstop ran it inline. Both
//! modes therefore observe the same (window, install-point) pairs and the
//! forecast sequence is bit-identical — `engine::tests` and
//! `fleet_throughput --ab-retrain` pin this.
//!
//! # Why this cannot deadlock
//!
//! A [`RetrainCell`] is work-stealing: [`RetrainCell::resolve`] only *waits*
//! if a pool worker has already taken the job (that worker always finishes
//! and notifies — workers never abandon a taken fit, even during shutdown);
//! otherwise the resolver steals the input and fits on the calling thread.
//! No resolver ever depends on pool liveness, so shutdown ordering and pool
//! sizing cannot wedge a shard worker or a checkpoint fence.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use larp::{LarpConfig, RetrainOutcome, RetrainRequest};
use obs::{Counter, Gauge, Registry};

/// The job a cell carries until someone fits it.
struct CellInput {
    request: RetrainRequest,
    config: LarpConfig,
    queued: Instant,
}

/// One in-flight retrain: filled by [`RetrainPool::submit`], fitted by a pool
/// worker (or stolen by the resolver), drained exactly once by
/// [`RetrainCell::resolve`].
pub(crate) struct RetrainCell {
    state: Mutex<CellState>,
    done: Condvar,
    pending: Arc<Pending>,
}

/// Inputs submitted but not yet taken — the `fleet_retrain_queue_depth`
/// gauge. Whichever side takes a cell's input (a pool worker, or the owner
/// stealing it) counts it out, so a stolen cell still sitting in the queue
/// is not counted. The count is updated and published under one lock, so
/// concurrent takers cannot leave a stale value behind.
struct Pending {
    count: Mutex<usize>,
    gauge: Gauge,
}

impl Pending {
    fn add(&self) {
        let mut count = self.count.lock().expect("retrain depth poisoned");
        *count += 1;
        self.gauge.set(*count as f64);
    }

    fn take(&self) {
        let mut count = self.count.lock().expect("retrain depth poisoned");
        *count -= 1;
        self.gauge.set(*count as f64);
    }
}

struct CellState {
    input: Option<CellInput>,
    output: Option<RetrainOutcome>,
}

impl RetrainCell {
    fn new(request: RetrainRequest, config: LarpConfig, pending: Arc<Pending>) -> Self {
        pending.add();
        Self {
            state: Mutex::new(CellState {
                input: Some(CellInput { request, config, queued: Instant::now() }),
                output: None,
            }),
            done: Condvar::new(),
            pending,
        }
    }

    /// Runs the fit, splitting elapsed time into queue wait and fit proper.
    fn fit(input: CellInput) -> RetrainOutcome {
        let started = Instant::now();
        let queue_wait_us = started.duration_since(input.queued).as_micros() as u64;
        let model = input.request.fit(&input.config);
        RetrainOutcome {
            generation: input.request.generation(),
            model,
            queue_wait_us,
            fit_us: started.elapsed().as_micros() as u64,
        }
    }

    /// Pool-worker side: fit the job unless the owner already stole it.
    fn run(&self) {
        let taken = self.state.lock().expect("retrain cell poisoned").input.take();
        let Some(input) = taken else { return };
        self.pending.take();
        let outcome = Self::fit(input);
        let mut state = self.state.lock().expect("retrain cell poisoned");
        state.output = Some(outcome);
        self.done.notify_all();
    }

    /// Owner side: the outcome, fitted here and now if no worker beat us to
    /// the input (so this never blocks on the pool being alive or sized).
    pub(crate) fn resolve(&self) -> RetrainOutcome {
        let mut state = self.state.lock().expect("retrain cell poisoned");
        if let Some(input) = state.input.take() {
            drop(state);
            self.pending.take();
            return Self::fit(input);
        }
        loop {
            if let Some(outcome) = state.output.take() {
                return outcome;
            }
            state = self.done.wait(state).expect("retrain cell poisoned");
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<RetrainCell>>>,
    not_empty: Condvar,
    stop: AtomicBool,
}

/// Fixed-size thread pool fitting [`RetrainCell`]s in submission order.
pub(crate) struct RetrainPool {
    shared: Arc<PoolShared>,
    pending: Arc<Pending>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    jobs: Counter,
    /// Outcomes whose generation no longer matched at install (counted by
    /// the installing shard worker, owned here so `shard.rs` needs no extra
    /// plumbing).
    pub(crate) stale: Counter,
}

impl RetrainPool {
    /// Spawns `threads` fit workers (callers guarantee `threads >= 1`).
    pub(crate) fn start(threads: usize, registry: &Registry) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-retrain-{i}"))
                    .spawn(move || loop {
                        let cell = {
                            let mut q = shared.queue.lock().expect("retrain queue poisoned");
                            loop {
                                if let Some(cell) = q.pop_front() {
                                    break cell;
                                }
                                if shared.stop.load(Ordering::Acquire) {
                                    return;
                                }
                                q = shared.not_empty.wait(q).expect("retrain queue poisoned");
                            }
                        };
                        cell.run();
                    })
                    .expect("spawn retrain worker")
            })
            .collect();
        Self {
            shared,
            pending: Arc::new(Pending {
                count: Mutex::new(0),
                gauge: registry.gauge("fleet_retrain_queue_depth"),
            }),
            workers: Mutex::new(workers),
            jobs: registry.counter("fleet_retrain_jobs_total"),
            stale: registry.counter("fleet_retrain_stale_total"),
        }
    }

    /// Enqueues one fit; the returned cell is the handle the stream's slot
    /// holds until install.
    pub(crate) fn submit(&self, request: RetrainRequest, config: LarpConfig) -> Arc<RetrainCell> {
        let cell = Arc::new(RetrainCell::new(request, config, Arc::clone(&self.pending)));
        self.shared.queue.lock().expect("retrain queue poisoned").push_back(Arc::clone(&cell));
        self.jobs.inc();
        self.shared.not_empty.notify_one();
        cell
    }

    /// Stops and joins the workers. Cells still queued keep their input and
    /// are fitted by whoever resolves them; a fit already taken by a worker
    /// completes before that worker exits.
    pub(crate) fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
        let handles: Vec<_> =
            self.workers.lock().expect("retrain worker list poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use larp::{LarpConfig, OnlineLarp, QualityAssuror};

    /// Drives an online instance in external mode until it arms a request.
    fn armed_request() -> (OnlineLarp, RetrainRequest) {
        let qa = QualityAssuror::new(0.5, 4, 2).unwrap();
        let mut online = OnlineLarp::new(LarpConfig::default(), 40, qa).unwrap();
        online.set_deferred_retrain(true);
        for t in 0..60 {
            online.push((t as f64 * 0.2).sin() * 0.1);
        }
        let mut t = 0u64;
        loop {
            online.push(if t.is_multiple_of(2) { 50.0 } else { -50.0 });
            t += 1;
            if let Some(request) = online.take_retrain_request() {
                return (online, request);
            }
            assert!(t < 200, "QA never ordered a retrain");
        }
    }

    #[test]
    fn pool_fits_and_owner_installs() {
        let registry = Registry::new();
        let pool = RetrainPool::start(2, &registry);
        let (mut online, request) = armed_request();
        let before = online.retrain_count();
        let cell = pool.submit(request, online.config().clone());
        let outcome = cell.resolve();
        assert!(online.install_retrain(outcome), "generation still current");
        assert_eq!(online.retrain_count(), before + 1);
        assert_eq!(pool.jobs.get(), 1);
        pool.shutdown();
    }

    #[test]
    fn resolve_steals_when_pool_is_stopped() {
        let registry = Registry::new();
        let pool = RetrainPool::start(1, &registry);
        pool.shutdown();
        // Submitted after shutdown: no worker will ever run it, so resolve
        // must fit on the calling thread rather than block.
        let (mut online, request) = armed_request();
        let cell = pool.submit(request, online.config().clone());
        let depth = registry.gauge("fleet_retrain_queue_depth");
        assert_eq!(depth.get(), 1.0, "submitted input counts as queued");
        let outcome = cell.resolve();
        // The stolen cell is still in the queue, but its input is taken.
        assert_eq!(pool.shared.queue.lock().unwrap().len(), 1);
        assert_eq!(depth.get(), 0.0, "a stolen input no longer counts as queued");
        assert!(outcome.model.is_some(), "steal path fits the window");
        assert!(online.install_retrain(outcome));
    }

    #[test]
    fn stale_generation_is_discarded() {
        let registry = Registry::new();
        let pool = RetrainPool::start(1, &registry);
        let (mut online, request) = armed_request();
        let cell = pool.submit(request, online.config().clone());
        let outcome = cell.resolve();
        // The model moves on before the outcome lands: keep pushing until the
        // push backstop resolves a newer retrain inline, bumping the
        // generation, so the pooled outcome must be rejected.
        let generation = online.generation();
        for t in 0u64..300 {
            online.push(if t.is_multiple_of(2) { 80.0 } else { -80.0 });
            if online.generation() > generation {
                break;
            }
        }
        assert!(online.generation() > generation, "no newer model ever installed");
        let count = online.retrain_count();
        assert!(!online.install_retrain(outcome), "stale outcome must be discarded");
        assert_eq!(online.retrain_count(), count, "discard changes nothing");
        pool.shutdown();
    }
}
