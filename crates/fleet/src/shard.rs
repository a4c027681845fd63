//! Shard assignment and per-shard serving state.
//!
//! Each shard owns a bounded ingest queue (std `Mutex` + `Condvar`s — no
//! external dependencies) and a [`StreamTable`] of the streams assigned to
//! it. At most one thread drains a shard at a time — its worker, or a caller
//! that claimed it to apply a small push (DESIGN.md §4) — and a drainer
//! applies what it took before it releases the claim, so samples of one
//! stream are always processed in enqueue order: the property that makes
//! fleet runs reproducible.
//!
//! # Stream storage (DESIGN.md §11)
//!
//! A [`StreamSlot`] is large (it embeds the whole guarded serving stack), so
//! slots do not live in the hash map itself, where every empty bucket would
//! waste a full slot of capacity and every resize would move megabytes. The
//! table keeps them in one dense slab with a free list, behind a
//! `HashMap<StreamId, u32>` index whose buckets are 16 bytes.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use larp::{GuardedLarp, HealthState, OnlineStep, Scratch};
use obs::{Counter, Gauge, Registry};
use simrng::{Rng64, SplitMix64};

use crate::StreamId;

/// Assigns a stream to a shard: a pure hash of `(fleet_seed, stream_id)`.
///
/// Stable across runs and registration order; only `shards` itself changes
/// the layout. The double SplitMix64 pass gives full avalanche over the
/// typically small consecutive stream ids, keeping the assignment balanced.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_of(fleet_seed: u64, stream_id: StreamId, shards: usize) -> usize {
    assert!(shards > 0, "shard_of requires at least one shard");
    let whitened = SplitMix64::new(fleet_seed).next_u64();
    let h = SplitMix64::new(whitened ^ stream_id).next_u64();
    (h % shards as u64) as usize
}

/// Maximum samples one drain takes from a queue per lock acquisition. It is
/// also the size rule: a push of at most this many samples is applied by the
/// thread that pushed it, and only a larger push wakes the shard's worker.
pub(crate) const BATCH_DRAIN: usize = 64;

/// One queued sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    pub(crate) stream: StreamId,
    /// Explicit sample minute; `None` auto-advances the stream's clock.
    pub(crate) minute: Option<u64>,
    pub(crate) value: f64,
    /// Engine-wide push sequence number at enqueue, for idle-expiry.
    pub(crate) seq: u64,
}

/// Mutex-protected queue interior.
pub(crate) struct QueueInner {
    pub(crate) items: VecDeque<Job>,
    /// Set once at engine drop; workers exit after draining.
    pub(crate) shutdown: bool,
    /// The one-drainer claim: true while a thread (the worker or a caller)
    /// applies a batch it took from `items`. Nobody else takes items while
    /// it is set, and `flush` waits for it, not just for an empty queue.
    busy: bool,
    /// Threads parked on `space` and on `drained`, and whether the worker is
    /// parked on `not_empty`. `Condvar::notify_*` always enters the kernel,
    /// so every signal is skipped when its count says nobody waits.
    pub(crate) space_waiters: usize,
    drain_waiters: usize,
    worker_parked: bool,
}

/// A drainer's buffers: the taken batch, and the scratch arena and step
/// buffer every stream of the shard borrows for one sample at a time.
struct DrainBufs {
    batch: Vec<Job>,
    scratch: Scratch,
    steps: Vec<OnlineStep>,
}

impl DrainBufs {
    fn new() -> Self {
        Self { batch: Vec::with_capacity(BATCH_DRAIN), scratch: Scratch::new(), steps: Vec::new() }
    }
}

thread_local! {
    /// The buffers a calling thread drains with, kept per thread so a steady
    /// producer sizes them once.
    static CALLER_BUFS: RefCell<Option<DrainBufs>> = const { RefCell::new(None) };
}

/// Serving state of one stream within its shard.
pub(crate) struct StreamSlot {
    pub(crate) guarded: GuardedLarp,
    /// Minute assigned to the next auto-clocked sample.
    pub(crate) next_minute: u64,
    /// Engine push sequence of the most recently processed sample (or
    /// info-probe — reads count as activity so predict-only streams are not
    /// swept mid-use).
    pub(crate) last_seq: u64,
    /// Clean samples that reached the predictor.
    pub(crate) steps: u64,
    /// Forecasts served.
    pub(crate) forecasts: u64,
    /// Non-finite forecasts that escaped the serving stack (must stay 0; the
    /// fleet counts rather than trusts).
    pub(crate) nonfinite: u64,
    /// Health of the most recent step.
    pub(crate) last_health: HealthState,
    /// Most recent forecast.
    pub(crate) last_forecast: Option<f64>,
}

impl StreamSlot {
    pub(crate) fn new(guarded: GuardedLarp, next_minute: u64) -> Self {
        Self {
            guarded,
            next_minute,
            last_seq: 0,
            steps: 0,
            forecasts: 0,
            nonfinite: 0,
            last_health: HealthState::Healthy,
            last_forecast: None,
        }
    }

    /// Feeds one sample through the guarded stack reusing the worker's
    /// scratch arena and step buffer — the allocation-free serving path.
    pub(crate) fn feed_with(
        &mut self,
        job: &Job,
        scratch: &mut Scratch,
        steps: &mut Vec<OnlineStep>,
    ) {
        let minute = self.clock(job);
        self.guarded.ingest_into(minute, job.value, scratch, steps);
        for step in steps.iter() {
            self.absorb(step);
        }
    }

    /// Advances the stream clock for `job`, returning the sample minute.
    fn clock(&mut self, job: &Job) -> u64 {
        let minute = job.minute.unwrap_or(self.next_minute);
        self.next_minute = self.next_minute.max(minute.saturating_add(1));
        // Monotonic: an info probe may have refreshed the idle clock past
        // this (queued, therefore older) sample's sequence number.
        self.last_seq = self.last_seq.max(job.seq);
        minute
    }

    /// Folds one serving step into the slot's tallies.
    fn absorb(&mut self, step: &OnlineStep) {
        self.steps += 1;
        self.last_health = step.health;
        if let Some(f) = step.forecast {
            self.forecasts += 1;
            self.last_forecast = Some(f);
            if !f.is_finite() {
                self.nonfinite += 1;
            }
        }
    }
}

/// Slab-backed stream storage: an id index over one dense slab of slots.
#[derive(Default)]
pub(crate) struct StreamTable {
    index: HashMap<StreamId, u32>,
    slots: Vec<Option<StreamSlot>>,
    free: Vec<u32>,
}

impl StreamTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registered streams.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn contains(&self, id: StreamId) -> bool {
        self.index.contains_key(&id)
    }

    /// Inserts a stream; `false` (slot dropped) if the id exists.
    pub(crate) fn insert(&mut self, id: StreamId, slot: StreamSlot) -> bool {
        if self.index.contains_key(&id) {
            return false;
        }
        let at = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(id, at);
        true
    }

    pub(crate) fn get(&self, id: StreamId) -> Option<&StreamSlot> {
        self.slots[*self.index.get(&id)? as usize].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: StreamId) -> Option<&mut StreamSlot> {
        self.slots[*self.index.get(&id)? as usize].as_mut()
    }

    /// Unregisters a stream, moving its slot out so the caller decides
    /// where it drops (outside the table lock, if it chooses).
    pub(crate) fn remove(&mut self, id: StreamId) -> Option<StreamSlot> {
        let i = self.index.remove(&id)?;
        self.free.push(i);
        self.slots[i as usize].take()
    }

    /// Iterates registered ids (arbitrary order).
    pub(crate) fn ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.index.keys().copied()
    }

    /// Iterates streams (arbitrary order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (StreamId, &StreamSlot)> + '_ {
        self.index.iter().filter_map(|(id, &i)| Some((*id, self.slots[i as usize].as_ref()?)))
    }

    /// Resident bytes of the table's own structures: index buckets, the
    /// occupied slab slots and the free list (excluding heap owned by the
    /// slots' serving stacks). Grows with the streams held, not with the
    /// slab's doubling; [`StreamTable::slab_reserved_bytes`] is the rest.
    pub(crate) fn heap_bytes(&self) -> usize {
        // SwissTable buckets: key + value + 1 control byte each.
        let bucket = std::mem::size_of::<(StreamId, u32)>() + 1;
        self.index.capacity() * bucket
            + self.len() * std::mem::size_of::<Option<StreamSlot>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    /// Slab bytes reserved but holding no stream: growth headroom and
    /// vacated slots awaiting reuse.
    pub(crate) fn slab_reserved_bytes(&self) -> usize {
        (self.slots.capacity() - self.len()) * std::mem::size_of::<Option<StreamSlot>>()
    }
}

/// One shard: bounded queue + stream table + wakeup plumbing.
pub(crate) struct ShardState {
    pub(crate) queue: Mutex<QueueInner>,
    /// Signalled when the worker has work it may claim, or at shutdown.
    pub(crate) not_empty: Condvar,
    /// Signalled when a drainer frees queue space.
    pub(crate) space: Condvar,
    /// Signalled when a drainer releases its claim.
    pub(crate) drained: Condvar,
    pub(crate) streams: Mutex<StreamTable>,
    /// Samples addressed to unregistered streams (dropped, counted).
    pub(crate) unknown_dropped: Counter,
    /// Samples currently waiting in this shard's queue.
    pub(crate) queue_depth: Gauge,
    /// Batches applied by a calling thread (engine-wide counter).
    drains_inline: Counter,
    /// Batches applied by a shard worker (engine-wide counter).
    drains_worker: Counter,
}

impl ShardState {
    /// The queue is reserved at its bound up front, so `enqueue` never
    /// grows it while it holds the queue lock.
    pub(crate) fn new(
        index: usize,
        queue_capacity: usize,
        registry: &Registry,
        drains_inline: Counter,
        drains_worker: Counter,
    ) -> Self {
        Self {
            queue: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(queue_capacity),
                shutdown: false,
                busy: false,
                space_waiters: 0,
                drain_waiters: 0,
                worker_parked: false,
            }),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            streams: Mutex::new(StreamTable::new()),
            unknown_dropped: registry.counter(&format!("fleet_shard{index}_unknown_dropped_total")),
            queue_depth: registry.gauge(&format!("fleet_shard{index}_queue_depth")),
            drains_inline,
            drains_worker,
        }
    }

    /// Wakes the worker if it sleeps and may claim the shard. A claimed
    /// shard needs no wake: its claimant wakes the worker on release when
    /// samples remain.
    pub(crate) fn wake_worker(&self, q: &QueueInner) {
        if q.worker_parked && !q.busy {
            self.not_empty.notify_one();
        }
    }

    /// Claims the shard (or keeps the caller's claim) and takes up to
    /// `limit` samples into `batch`. The caller holds the lock, and either
    /// found the shard unclaimed or holds the claim itself.
    fn take(&self, q: &mut QueueInner, batch: &mut Vec<Job>, limit: usize) {
        q.busy = true;
        let n = q.items.len().min(limit);
        batch.extend(q.items.drain(..n));
        self.queue_depth.set(q.items.len() as f64);
        if q.space_waiters > 0 {
            self.space.notify_all();
        }
    }

    /// Releases the claim after applying a batch: wakes a `flush` waiting on
    /// it, and the worker if samples remain (or it must see shutdown).
    fn release(&self, q: &mut QueueInner) {
        q.busy = false;
        if q.drain_waiters > 0 {
            self.drained.notify_all();
        }
        if q.worker_parked && (!q.items.is_empty() || q.shutdown) {
            self.not_empty.notify_one();
        }
    }

    /// Applies one taken batch to the stream table: feeds each sample
    /// through its slot with the drainer's buffers (the allocation-free
    /// serving path) and counts samples for unknown streams. Both drainers
    /// run exactly this.
    fn apply(&self, bufs: &mut DrainBufs) {
        let mut streams = self.streams.lock().expect("shard stream table poisoned");
        for job in &bufs.batch {
            match streams.get_mut(job.stream) {
                Some(slot) => slot.feed_with(job, &mut bufs.scratch, &mut bufs.steps),
                None => self.unknown_dropped.inc(),
            }
        }
        drop(streams);
        bufs.batch.clear();
    }

    /// The caller's drain: if the shard is unclaimed and holds samples,
    /// claims it and applies up to [`BATCH_DRAIN`] samples on this thread —
    /// including samples other pushers admitted meanwhile and left to this
    /// claimant — then releases it, waking the worker if samples remain. A
    /// claimed shard is left to its claimant.
    pub(crate) fn drain_once(&self) {
        let mut q = self.queue.lock().expect("shard queue poisoned");
        if q.busy || q.items.is_empty() {
            return;
        }
        let mut q = CALLER_BUFS.with(|cell| {
            let mut cell = cell.borrow_mut();
            let bufs = cell.get_or_insert_with(DrainBufs::new);
            let mut budget = BATCH_DRAIN;
            while budget > 0 && !q.items.is_empty() {
                self.take(&mut q, &mut bufs.batch, budget);
                budget -= bufs.batch.len();
                drop(q);
                self.apply(bufs);
                self.drains_inline.inc();
                q = self.queue.lock().expect("shard queue poisoned");
            }
            q
        });
        self.release(&mut q);
    }

    /// Returns once every admitted sample has been applied: the queue is
    /// empty and unclaimed. Drains on this thread whenever the shard is
    /// unclaimed, so samples a pusher has admitted but not yet drained — the
    /// calling thread's own included — never stall it.
    pub(crate) fn flush(&self) {
        let mut q = self.queue.lock().expect("shard queue poisoned");
        loop {
            if q.busy {
                q.drain_waiters += 1;
                q = self.drained.wait(q).expect("shard queue poisoned");
                q.drain_waiters -= 1;
            } else if q.items.is_empty() {
                return;
            } else {
                drop(q);
                self.drain_once();
                q = self.queue.lock().expect("shard queue poisoned");
            }
        }
    }

    /// The worker loop: claim the shard when it holds samples nobody else is
    /// draining, apply up to [`BATCH_DRAIN`] of them, repeat until shutdown
    /// with an empty queue. The worker owns its buffers, so the steady-state
    /// loop never allocates.
    pub(crate) fn worker_loop(&self) {
        let mut bufs = DrainBufs::new();
        loop {
            {
                let mut q = self.queue.lock().expect("shard queue poisoned");
                while q.busy || q.items.is_empty() {
                    if q.shutdown && q.items.is_empty() {
                        return;
                    }
                    q.worker_parked = true;
                    q = self.not_empty.wait(q).expect("shard queue poisoned");
                    q.worker_parked = false;
                }
                self.take(&mut q, &mut bufs.batch, BATCH_DRAIN);
            }
            self.apply(&mut bufs);
            self.drains_worker.inc();
            let mut q = self.queue.lock().expect("shard queue poisoned");
            self.release(&mut q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for id in 0..500u64 {
            let s = shard_of(42, id, 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(42, id, 7), "assignment must be pure");
        }
    }

    #[test]
    fn shard_of_depends_on_seed() {
        let moved = (0..200u64).filter(|&id| shard_of(1, id, 8) != shard_of(2, id, 8)).count();
        assert!(moved > 100, "only {moved}/200 streams moved between seeds");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        shard_of(0, 0, 0);
    }

    fn slot() -> StreamSlot {
        StreamSlot::new(StreamConfig::default().build().unwrap(), 0)
    }

    /// A live slot's `last_forecast` equals the forecast its serving stack
    /// holds pending after every sample: sanitised, gap-filled, dropped as a
    /// duplicate, and served healthy, degraded or by persistence. A restore
    /// can therefore take it from the snapshot's pending forecast.
    #[test]
    fn last_forecast_is_the_pending_forecast_on_every_path() {
        let mut s = slot();
        let clean = vmsim::fleet_trace(2007, 3, 900);
        let mut injector =
            vmsim::FaultInjector::new(vmsim::FaultConfig::uniform(0.08), 77).unwrap();
        let corrupted = injector.corrupt_series(&clean, 0);
        let (mut scratch, mut steps) = (Scratch::new(), Vec::new());
        // Forecasting steps per health: healthy, degraded, persistence.
        let mut served = [0usize; 3];
        let mut no_step = 0;
        for (i, &(minute, value)) in corrupted.iter().enumerate() {
            let job = Job { stream: 3, minute: Some(minute), value, seq: i as u64 + 1 };
            s.feed_with(&job, &mut scratch, &mut steps);
            no_step += usize::from(steps.is_empty());
            for step in steps.iter().filter(|st| st.forecast.is_some()) {
                served[step.health as usize] += 1;
            }
            // Bench whichever member served, in bursts, so the ladder's
            // lower rungs serve too.
            if i % 150 >= 140 {
                if let Some(id) = steps.last().and_then(|st| st.chosen) {
                    s.guarded.online_mut().quarantine_predictor(id).unwrap();
                }
            }
            assert_eq!(
                s.last_forecast.map(f64::to_bits),
                s.guarded.online().pending_forecast().map(f64::to_bits),
                "sample {i}"
            );
        }
        let stats = s.guarded.sanitizer().stats();
        assert!(stats.faults_sanitized() > 0 && stats.gap_samples_filled > 0, "{stats:?}");
        assert!(no_step > 0, "no sample was dropped as a duplicate");
        assert!(served.iter().all(|&n| n > 0), "a serving rung never served: {served:?}");
    }

    #[test]
    fn table_insert_get_remove() {
        let mut t = StreamTable::new();
        assert!(t.insert(7, slot()));
        assert!(!t.insert(7, slot()), "duplicate rejected");
        assert!(t.contains(7));
        assert_eq!(t.len(), 1);
        assert!(t.get_mut(7).is_some());
        assert!(t.get_mut(8).is_none());
        assert!(t.remove(7).is_some());
        assert!(t.remove(7).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn table_free_list_reuses_slab_entries() {
        let mut t = StreamTable::new();
        for id in 0..8u64 {
            t.insert(id, slot());
        }
        let slab = t.slots.len();
        for id in 0..4u64 {
            t.remove(id);
        }
        for id in 10..14u64 {
            t.insert(id, slot());
        }
        assert_eq!(t.slots.len(), slab, "freed entries must be reused, not appended");
        assert_eq!(t.len(), 8);
    }
}
