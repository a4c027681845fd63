//! Shard assignment and per-shard serving state.
//!
//! Each shard owns a bounded ingest queue (std `Mutex` + `Condvar`s — no
//! external dependencies) and a [`StreamTable`] of the streams assigned to
//! it. Exactly one worker thread drains each shard, so samples of one stream
//! are always processed in enqueue order — the property that makes fleet
//! runs reproducible.
//!
//! # Stream storage (DESIGN.md §11)
//!
//! Streams used to live directly in a `HashMap<StreamId, StreamSlot>`. A
//! [`StreamSlot`] is large (it embeds the whole guarded serving stack), so
//! every empty hash bucket wasted a full slot of capacity and every resize
//! moved megabytes. The table now splits storage into two dense slabs with
//! free lists — one of live [`StreamSlot`]s, one of small [`Tombstone`]s for
//! hibernated streams — and a `HashMap<StreamId, SlotRef>` index whose
//! buckets are 12 bytes instead of hundreds. Hibernating a stream moves it
//! from the live slab to the tombstone slab; its serving state is spilled to
//! the engine's blob store and only the tallies a health probe needs stay
//! resident.

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

/// Maximum samples a worker drains from its queue per lock acquisition.
const BATCH_DRAIN: usize = 64;

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
    /// True while the worker is processing a drained batch — `flush` must
    /// wait for this, not just for an empty queue.
    pub(crate) busy: bool,
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

    /// Rebuilds a slot from a restored serving stack and the tallies its
    /// tombstone kept resident while the stream was hibernated.
    pub(crate) fn wake_from(guarded: GuardedLarp, tomb: &Tombstone) -> Self {
        Self {
            guarded,
            next_minute: tomb.next_minute,
            last_seq: tomb.last_seq,
            steps: tomb.steps,
            forecasts: tomb.forecasts,
            nonfinite: tomb.nonfinite,
            last_health: tomb.last_health,
            last_forecast: tomb.last_forecast,
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

/// The resident remains of a hibernated stream: everything a health rollup
/// or [`crate::FleetEngine::stream_info`] probe needs, and nothing else
/// (~80 bytes). The full serving state lives in the engine's spill store
/// until the next sample wakes the stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tombstone {
    pub(crate) next_minute: u64,
    pub(crate) last_seq: u64,
    pub(crate) steps: u64,
    pub(crate) forecasts: u64,
    pub(crate) nonfinite: u64,
    pub(crate) last_health: HealthState,
    pub(crate) last_forecast: Option<f64>,
    /// Retrain count at hibernation (the live value is inside the spilled
    /// snapshot; this keeps `stream_info` answerable without a wake).
    pub(crate) retrains: usize,
}

impl Tombstone {
    pub(crate) fn of(slot: &StreamSlot) -> Self {
        Self {
            next_minute: slot.next_minute,
            last_seq: slot.last_seq,
            steps: slot.steps,
            forecasts: slot.forecasts,
            nonfinite: slot.nonfinite,
            last_health: slot.last_health,
            last_forecast: slot.last_forecast,
            retrains: slot.guarded.online().retrain_count(),
        }
    }
}

/// Where a registered stream currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotRef {
    /// Index into the live slab.
    Live(u32),
    /// Index into the tombstone slab; serving state is spilled.
    Hibernated(u32),
}

/// What [`StreamTable::remove`] evicted. The payloads exist so removal
/// *moves* the state out (dropping it at the call site, outside the table
/// lock when the caller chooses) — current callers only match on the
/// variant.
pub(crate) enum Removed {
    /// The stream was live; here is its serving state.
    Live(#[allow(dead_code)] Box<StreamSlot>),
    /// The stream was hibernated; the caller must also drop its spill blob.
    Hibernated(#[allow(dead_code)] Tombstone),
}

/// Slab-backed stream storage: a small index over two dense slabs.
#[derive(Default)]
pub(crate) struct StreamTable {
    index: HashMap<StreamId, SlotRef>,
    live: Vec<Option<StreamSlot>>,
    live_free: Vec<u32>,
    tombs: Vec<Option<Tombstone>>,
    tomb_free: Vec<u32>,
}

impl StreamTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registered streams, live + hibernated.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn live_len(&self) -> usize {
        self.live.len() - self.live_free.len()
    }

    pub(crate) fn hibernated_len(&self) -> usize {
        self.tombs.len() - self.tomb_free.len()
    }

    pub(crate) fn contains(&self, id: StreamId) -> bool {
        self.index.contains_key(&id)
    }

    pub(crate) fn kind(&self, id: StreamId) -> Option<SlotRef> {
        self.index.get(&id).copied()
    }

    /// Inserts a live stream; `false` (slot dropped) if the id exists.
    pub(crate) fn insert(&mut self, id: StreamId, slot: StreamSlot) -> bool {
        if self.index.contains_key(&id) {
            return false;
        }
        let at = match self.live_free.pop() {
            Some(i) => {
                self.live[i as usize] = Some(slot);
                i
            }
            None => {
                self.live.push(Some(slot));
                (self.live.len() - 1) as u32
            }
        };
        self.index.insert(id, SlotRef::Live(at));
        true
    }

    pub(crate) fn get_live_mut(&mut self, id: StreamId) -> Option<&mut StreamSlot> {
        match self.index.get(&id)? {
            SlotRef::Live(i) => self.live[*i as usize].as_mut(),
            SlotRef::Hibernated(_) => None,
        }
    }

    pub(crate) fn tombstone(&self, id: StreamId) -> Option<&Tombstone> {
        match self.index.get(&id)? {
            SlotRef::Hibernated(i) => self.tombs[*i as usize].as_ref(),
            SlotRef::Live(_) => None,
        }
    }

    pub(crate) fn tombstone_mut(&mut self, id: StreamId) -> Option<&mut Tombstone> {
        match self.index.get(&id)? {
            SlotRef::Hibernated(i) => self.tombs[*i as usize].as_mut(),
            SlotRef::Live(_) => None,
        }
    }

    /// Unregisters a stream entirely.
    pub(crate) fn remove(&mut self, id: StreamId) -> Option<Removed> {
        match self.index.remove(&id)? {
            SlotRef::Live(i) => {
                let slot = self.live[i as usize].take().expect("index points at a full live slot");
                self.live_free.push(i);
                Some(Removed::Live(Box::new(slot)))
            }
            SlotRef::Hibernated(i) => {
                let tomb = self.tombs[i as usize].take().expect("index points at a full tomb");
                self.tomb_free.push(i);
                Some(Removed::Hibernated(tomb))
            }
        }
    }

    /// Moves a live stream to the tombstone slab, returning its slot so the
    /// caller can spill the serving state. `None` if absent or already
    /// hibernated.
    pub(crate) fn hibernate(&mut self, id: StreamId) -> Option<StreamSlot> {
        let SlotRef::Live(i) = *self.index.get(&id)? else { return None };
        let slot = self.live[i as usize].take().expect("index points at a full live slot");
        self.live_free.push(i);
        let tomb = Tombstone::of(&slot);
        let at = match self.tomb_free.pop() {
            Some(t) => {
                self.tombs[t as usize] = Some(tomb);
                t
            }
            None => {
                self.tombs.push(Some(tomb));
                (self.tombs.len() - 1) as u32
            }
        };
        self.index.insert(id, SlotRef::Hibernated(at));
        Some(slot)
    }

    /// Moves a hibernated stream back to the live slab around its restored
    /// serving stack. `None` if absent or not hibernated.
    pub(crate) fn wake(&mut self, id: StreamId, guarded: GuardedLarp) -> Option<&mut StreamSlot> {
        let SlotRef::Hibernated(i) = *self.index.get(&id)? else { return None };
        let tomb = self.tombs[i as usize].take().expect("index points at a full tomb");
        self.tomb_free.push(i);
        let slot = StreamSlot::wake_from(guarded, &tomb);
        let at = match self.live_free.pop() {
            Some(l) => {
                self.live[l as usize] = Some(slot);
                l
            }
            None => {
                self.live.push(Some(slot));
                (self.live.len() - 1) as u32
            }
        };
        self.index.insert(id, SlotRef::Live(at));
        self.live[at as usize].as_mut()
    }

    /// Iterates live streams (arbitrary order).
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = (StreamId, &StreamSlot)> + '_ {
        self.index.iter().filter_map(|(id, r)| match r {
            SlotRef::Live(i) => Some((*id, self.live[*i as usize].as_ref()?)),
            SlotRef::Hibernated(_) => None,
        })
    }

    /// Iterates tombstones of hibernated streams (arbitrary order).
    pub(crate) fn iter_tombs(&self) -> impl Iterator<Item = (StreamId, &Tombstone)> + '_ {
        self.index.iter().filter_map(|(id, r)| match r {
            SlotRef::Hibernated(i) => Some((*id, self.tombs[*i as usize].as_ref()?)),
            SlotRef::Live(_) => None,
        })
    }

    /// Resident bytes of the table's own structures (index + slab storage,
    /// excluding heap owned by the slots' serving stacks).
    pub(crate) fn heap_bytes(&self) -> usize {
        // SwissTable buckets: key + value + 1 control byte each.
        let bucket = std::mem::size_of::<(StreamId, SlotRef)>() + 1;
        self.index.capacity() * bucket
            + self.live.capacity() * std::mem::size_of::<Option<StreamSlot>>()
            + self.live_free.capacity() * std::mem::size_of::<u32>()
            + self.tombs.capacity() * std::mem::size_of::<Option<Tombstone>>()
            + self.tomb_free.capacity() * std::mem::size_of::<u32>()
    }
}

/// One shard: bounded queue + stream table + wakeup plumbing.
pub(crate) struct ShardState {
    pub(crate) queue: Mutex<QueueInner>,
    /// Signalled when samples are enqueued or shutdown is ordered.
    pub(crate) not_empty: Condvar,
    /// Signalled when the worker frees queue space.
    pub(crate) space: Condvar,
    /// Signalled when the queue is empty and the worker idle.
    pub(crate) drained: Condvar,
    pub(crate) streams: Mutex<StreamTable>,
    /// Samples addressed to unregistered streams (dropped, counted).
    pub(crate) unknown_dropped: Counter,
    /// Samples currently waiting in this shard's queue.
    pub(crate) queue_depth: Gauge,
}

impl ShardState {
    pub(crate) fn new(index: usize, registry: &Registry) -> Self {
        Self {
            queue: Mutex::new(QueueInner { items: VecDeque::new(), shutdown: false, busy: false }),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            drained: Condvar::new(),
            streams: Mutex::new(StreamTable::new()),
            unknown_dropped: registry.counter(&format!("fleet_shard{index}_unknown_dropped_total")),
            queue_depth: registry.gauge(&format!("fleet_shard{index}_queue_depth")),
        }
    }

    /// The worker loop: drain up to [`BATCH_DRAIN`] samples, feed them,
    /// repeat until shutdown with an empty queue.
    ///
    /// The worker owns one scratch arena and step buffer shared across every
    /// stream it serves — slots only borrow them for the duration of one
    /// sample, so the steady-state loop never allocates.
    ///
    /// `wake` restores a hibernated stream's serving stack from the engine's
    /// spill store (deserialize + re-attach observability); `None` means the
    /// spilled state is unreadable and the stream is dropped (counted as an
    /// unknown-stream sample).
    pub(crate) fn worker_loop(&self, wake: &dyn Fn(StreamId, &Tombstone) -> Option<GuardedLarp>) {
        let mut batch: Vec<Job> = Vec::with_capacity(BATCH_DRAIN);
        let mut scratch = Scratch::new();
        let mut steps: Vec<OnlineStep> = Vec::new();
        loop {
            {
                let mut q = self.queue.lock().expect("shard queue poisoned");
                while q.items.is_empty() && !q.shutdown {
                    q = self.not_empty.wait(q).expect("shard queue poisoned");
                }
                if q.items.is_empty() {
                    // Shutdown with nothing left to do.
                    q.busy = false;
                    self.drained.notify_all();
                    return;
                }
                q.busy = true;
                let n = q.items.len().min(BATCH_DRAIN);
                batch.extend(q.items.drain(..n));
                self.queue_depth.set(q.items.len() as f64);
            }
            self.space.notify_all();

            {
                let mut streams = self.streams.lock().expect("shard stream table poisoned");
                for job in &batch {
                    if let Some(SlotRef::Hibernated(_)) = streams.kind(job.stream) {
                        let woken = {
                            let tomb = streams.tombstone(job.stream).expect("ref says hibernated");
                            wake(job.stream, tomb)
                        };
                        match woken {
                            Some(guarded) => {
                                streams.wake(job.stream, guarded);
                            }
                            // Spilled state unreadable: the stream cannot
                            // serve again; drop it rather than serving from
                            // a half-reset stack.
                            None => {
                                streams.remove(job.stream);
                            }
                        }
                    }
                    match streams.get_live_mut(job.stream) {
                        Some(slot) => slot.feed_with(job, &mut scratch, &mut steps),
                        None => self.unknown_dropped.inc(),
                    }
                }
            }
            batch.clear();

            let mut q = self.queue.lock().expect("shard queue poisoned");
            if q.items.is_empty() {
                q.busy = false;
                self.drained.notify_all();
                if q.shutdown {
                    return;
                }
            }
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

    #[test]
    fn table_insert_get_remove() {
        let mut t = StreamTable::new();
        assert!(t.insert(7, slot()));
        assert!(!t.insert(7, slot()), "duplicate rejected");
        assert!(t.contains(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.live_len(), 1);
        assert!(t.get_live_mut(7).is_some());
        assert!(t.get_live_mut(8).is_none());
        assert!(matches!(t.remove(7), Some(Removed::Live(_))));
        assert!(t.remove(7).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn table_free_list_reuses_slab_entries() {
        let mut t = StreamTable::new();
        for id in 0..8u64 {
            t.insert(id, slot());
        }
        let slab = t.live.len();
        for id in 0..4u64 {
            t.remove(id);
        }
        for id in 10..14u64 {
            t.insert(id, slot());
        }
        assert_eq!(t.live.len(), slab, "freed entries must be reused, not appended");
        assert_eq!(t.live_len(), 8);
    }

    #[test]
    fn table_hibernate_and_wake_round_trip() {
        let mut t = StreamTable::new();
        t.insert(3, slot());
        {
            let s = t.get_live_mut(3).unwrap();
            s.steps = 42;
            s.forecasts = 9;
            s.last_seq = 77;
            s.next_minute = 100;
            s.last_forecast = Some(1.25);
        }
        let spilled = t.hibernate(3).expect("live stream hibernates");
        assert_eq!(spilled.steps, 42);
        assert!(t.contains(3));
        assert_eq!(t.live_len(), 0);
        assert_eq!(t.hibernated_len(), 1);
        assert!(t.get_live_mut(3).is_none());
        let tomb = t.tombstone(3).unwrap();
        assert_eq!((tomb.steps, tomb.forecasts, tomb.last_seq), (42, 9, 77));
        assert_eq!(tomb.last_forecast, Some(1.25));
        // Hibernating again is a no-op.
        assert!(t.hibernate(3).is_none());

        let woken = t.wake(3, spilled.guarded).expect("tombstoned stream wakes");
        assert_eq!(woken.steps, 42);
        assert_eq!(woken.next_minute, 100);
        assert_eq!(t.hibernated_len(), 0);
        assert_eq!(t.live_len(), 1);
    }

    #[test]
    fn table_remove_reports_hibernated() {
        let mut t = StreamTable::new();
        t.insert(1, slot());
        t.hibernate(1).unwrap();
        assert!(matches!(t.remove(1), Some(Removed::Hibernated(_))));
        assert!(!t.contains(1));
    }

    #[test]
    fn tombstone_is_small() {
        // The point of hibernation: the resident remains must be tiny
        // compared to a live slot.
        assert!(
            std::mem::size_of::<Tombstone>() <= 96,
            "tombstone grew to {} bytes",
            std::mem::size_of::<Tombstone>()
        );
        assert!(std::mem::size_of::<Tombstone>() * 4 < std::mem::size_of::<StreamSlot>());
    }
}
