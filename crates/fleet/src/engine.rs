//! The fleet engine: worker threads, stream lifecycle, batched ingestion,
//! caller drains, flush/checkpoint/restore, and the health rollup.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use larp::{GuardedLarp, HealthState, OnlineStep, Scratch, StreamMemReport};
use obs::{expo, EventKind, EventRing, Registry};
use store::{RegisterTuning, WalRecord};

use crate::checkpoint;
use crate::config::{FleetConfig, StreamConfig};
use crate::durability::{self, CheckpointFile, DurabilityState, RecoverySummary, StoreStats};
use crate::health::{merge_counters, FleetHealth, PushReport, ShardHealth};
use crate::observe::FleetObs;
use crate::shard::{shard_of, Job, ShardState, StreamSlot, BATCH_DRAIN};
use crate::{FleetError, Result, StreamId};

/// State shared between the engine handle and its worker threads.
struct EngineShared {
    config: FleetConfig,
    shards: Vec<ShardState>,
    /// Monotonic count of push attempts, the idle-expiry clock.
    push_seq: AtomicU64,
    /// Orders the background auto-checkpoint thread to exit.
    maint_stop: AtomicBool,
    obs: FleetObs,
    /// Durable-ingestion state; `None` for a purely in-memory engine.
    durability: Option<DurabilityState>,
}

impl EngineShared {
    /// Blocks until every admitted sample has been fully processed, draining
    /// on the calling thread wherever no other drainer holds a shard.
    fn flush_shards(&self) {
        for s in &self.shards {
            s.flush();
        }
    }

    /// The caller's drain of a small push, on every shard whose bit
    /// (`shard % 64`) is set in `mask`.
    fn drain_shards(&self, mask: u64) {
        for (i, s) in self.shards.iter().enumerate() {
            if mask & shard_bit(i) != 0 {
                s.drain_once();
            }
        }
    }

    /// Streams every stream's serving state, sorted by id, into `out` as
    /// the `FLEETCKP` image ([`checkpoint::write`]). Callers flush/quiesce
    /// first; returns the stream count.
    ///
    /// Every shard's stream table is held for the whole write, so the image
    /// is one consistent cut; the ids are sorted up front and each stream is
    /// encoded into one reused buffer in turn, so the encoder never holds
    /// more than one snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Durability`] if `out` fails.
    fn write_checkpoint(&self, out: &mut (impl Write + ?Sized)) -> Result<u64> {
        let tables: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.streams.lock().expect("shard stream table poisoned"))
            .collect();
        let mut order: Vec<(StreamId, usize)> =
            Vec::with_capacity(tables.iter().map(|t| t.len()).sum());
        for (shard, table) in tables.iter().enumerate() {
            order.extend(table.ids().map(|id| (id, shard)));
        }
        order.sort_unstable_by_key(|&(id, _)| id);
        checkpoint::write(out, &order, |id, &shard, buf| {
            let slot = tables[shard].get(id).expect("a listed stream is registered");
            slot.guarded.write_snapshot(buf);
            slot.next_minute
        })?;
        Ok(order.len() as u64)
    }
}

/// A shard's bit in a [`DrainToken`] mask. Shard counts above 64 fold onto
/// the same bits; draining a shard with nothing pending is a cheap no-op.
fn shard_bit(shard: usize) -> u64 {
    1 << (shard % 64)
}

/// The deferred drain of an admitted push, returned by
/// [`FleetEngine::admit_batch`]: dropping it applies the push's samples on
/// the dropping thread. A push of at most 64 samples is applied this way.
/// The drop applies at most 64 queued samples per shard, and leaves a shard
/// that another drainer holds to that drainer; whatever remains goes to the
/// shard's worker. A larger push woke the workers at admission and its
/// token is empty.
///
/// The token owns a handle to the engine's state rather than borrowing the
/// engine, so a server can admit a request, write its reply, and drop the
/// token only after the reply is flushed. Tokens merge with
/// [`absorb`](Self::absorb), so one connection can park several pipelined
/// pushes in one.
#[must_use = "dropping the token applies the admitted samples; bind it to defer that"]
#[derive(Default)]
pub struct DrainToken {
    /// The engine and the shards (by [`shard_bit`]) holding samples this
    /// token's holder is to drain; `None` when there is nothing to drain.
    pending: Option<(Arc<EngineShared>, u64)>,
}

impl DrainToken {
    /// Takes over `other`'s pending drain, so dropping `self` applies both.
    pub fn absorb(&mut self, mut other: DrainToken) {
        let Some((shared, mask)) = other.pending.take() else { return };
        match &mut self.pending {
            Some((mine, bits)) => {
                debug_assert!(Arc::ptr_eq(mine, &shared), "tokens of different engines");
                *bits |= mask;
            }
            None => self.pending = Some((shared, mask)),
        }
    }
}

impl Drop for DrainToken {
    fn drop(&mut self) {
        if let Some((shared, mask)) = self.pending.take() {
            shared.drain_shards(mask);
        }
    }
}

/// Resident set size of this process in bytes, read from
/// `/proc/self/statm` (pages × 4096, the page size on every platform this
/// repo targets). `None` off Linux or if the file is unreadable.
fn process_resident_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// Fleet-wide memory accounting, from [`FleetEngine::mem_report`]
/// (DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct FleetMemReport {
    /// Registered streams.
    pub streams: usize,
    /// Component-wise heap sum over every stream's serving stack.
    pub stream: StreamMemReport,
    /// Inline bytes of one stream's slot, serving stack included: the part
    /// of a stream that no heap component counts. The slab in
    /// [`FleetMemReport::table_bytes`] holds one per stream.
    pub slot_bytes: usize,
    /// Stream-table overhead: index buckets + occupied slab slots + free
    /// list.
    pub table_bytes: usize,
    /// Slab slots reserved but holding no stream (the slab grows by
    /// doubling). Not in [`FleetMemReport::heap_total`], so the per-stream
    /// figure moves with per-stream state, not with the slab's growth step.
    pub slab_reserved_bytes: usize,
    /// Process RSS at report time, when the platform exposes it.
    pub resident_bytes: Option<u64>,
}

impl FleetMemReport {
    /// Accounted heap bytes: per-stream components plus table overhead.
    /// Excludes queues, scratch arenas and allocator slack — compare against
    /// [`FleetMemReport::resident_bytes`] to see what the accounting misses.
    pub fn heap_total(&self) -> usize {
        self.stream.total() + self.table_bytes
    }

    /// Accounted resident bytes per registered stream.
    pub fn bytes_per_stream(&self) -> f64 {
        if self.streams == 0 {
            0.0
        } else {
            self.heap_total() as f64 / self.streams as f64
        }
    }
}

/// Takes a durable checkpoint: quiesces producers via the gate, drains the
/// queues, writes the checkpoint covering every WAL record so far, then
/// truncates covered WAL segments. Shared by
/// [`FleetEngine::checkpoint_durable`] and the background checkpointer.
fn checkpoint_durable_inner(shared: &EngineShared) -> Result<u64> {
    let d = shared
        .durability
        .as_ref()
        .ok_or_else(|| FleetError::InvalidConfig("durability is not configured".into()))?;
    let _gate = d.gate.write().expect("durability gate poisoned");
    shared.flush_shards();
    // The write gate holds every appender out, so this is exact.
    let seq = d.last_seq();
    let (streams, bytes) = d.write_checkpoint(seq, |out| shared.write_checkpoint(out))?;
    d.wal().truncate_upto(seq)?;
    d.records_since_ckpt.store(0, Ordering::Relaxed);
    shared.obs.checkpoints.inc();
    let kind = EventKind::CheckpointSave { streams, bytes };
    shared.obs.events.push(None, kind);
    Ok(seq)
}

/// Sharded multi-stream serving engine. See the crate docs for the design.
///
/// All ingestion methods take `&self`; an engine can be shared across
/// producer threads behind an [`Arc`]. Dropping the engine flushes the queues
/// and joins the workers.
pub struct FleetEngine {
    shared: Arc<EngineShared>,
    default_stream: StreamConfig,
    workers: Vec<JoinHandle<()>>,
    /// Background auto-checkpoint thread, when
    /// `DurabilityConfig::auto_checkpoint_records` is set.
    maintenance: Option<JoinHandle<()>>,
}

/// A point-in-time view of one stream's serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// The stream id.
    pub id: StreamId,
    /// Shard (= worker thread) serving this stream.
    pub shard: usize,
    /// Clean samples that reached the predictor.
    pub steps: u64,
    /// Forecasts served.
    pub forecasts: u64,
    /// Minute assigned to the next auto-clocked sample.
    pub next_minute: u64,
    /// Health of the most recent step.
    pub health: HealthState,
    /// Most recent forecast, if any.
    pub last_forecast: Option<f64>,
    /// (Re)trainings performed, including the initial one.
    pub retrains: usize,
}

impl FleetEngine {
    /// Starts an engine with [`StreamConfig::default`] for
    /// [`register`](Self::register)ed streams.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for an invalid `config`.
    pub fn new(config: FleetConfig) -> Result<Self> {
        Self::with_stream_defaults(config, StreamConfig::default())
    }

    /// Starts an engine with an explicit default per-stream configuration.
    ///
    /// With [`FleetConfig::durability`] set this creates a *fresh* durable
    /// store — the directory must not already hold a WAL (use
    /// [`recover`](Self::recover) for one that does).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] if either configuration is
    /// invalid and [`FleetError::Durability`] if the store cannot be created.
    pub fn with_stream_defaults(config: FleetConfig, default_stream: StreamConfig) -> Result<Self> {
        config.validate()?;
        let state = match &config.durability {
            Some(dcfg) => Some(DurabilityState::create(dcfg.clone())?),
            None => None,
        };
        Self::build(config, default_stream, state)
    }

    /// Spawns workers around an already-validated configuration and an
    /// already-opened durable store (if any).
    fn build(
        config: FleetConfig,
        default_stream: StreamConfig,
        durability: Option<DurabilityState>,
    ) -> Result<Self> {
        // Fail fast on a default stream config that can never build.
        default_stream.build()?;
        let obs = FleetObs::new();
        let shared = Arc::new(EngineShared {
            shards: (0..config.shards)
                .map(|i| {
                    let (inline, worker) = (obs.drains_inline.clone(), obs.drains_worker.clone());
                    ShardState::new(i, config.queue_capacity, &obs.registry, inline, worker)
                })
                .collect(),
            config,
            push_seq: AtomicU64::new(0),
            maint_stop: AtomicBool::new(false),
            obs,
            durability,
        });
        let workers = (0..shared.config.shards)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-shard-{i}"))
                    .spawn(move || s.shards[i].worker_loop())
                    .map_err(|e| FleetError::Serving(format!("cannot spawn shard worker: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let maintenance = Self::spawn_maintenance(&shared);
        Ok(Self { shared, default_stream, workers, maintenance })
    }

    /// Starts the background auto-checkpoint thread when
    /// `DurabilityConfig::auto_checkpoint_records` is set.
    fn spawn_maintenance(shared: &Arc<EngineShared>) -> Option<JoinHandle<()>> {
        let every =
            shared.durability.as_ref().map(|d| d.config.auto_checkpoint_records).unwrap_or(0);
        if every == 0 {
            return None;
        }
        let s = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("fleet-maintenance".into())
            .spawn(move || {
                let d = s.durability.as_ref().expect("auto-checkpoint needs durability");
                while !s.maint_stop.load(Ordering::Relaxed) {
                    if d.records_since_ckpt.load(Ordering::Relaxed) >= every {
                        // A failed checkpoint leaves the trigger count
                        // untouched, so the next tick retries.
                        let _ = checkpoint_durable_inner(&s);
                    }
                    std::thread::park_timeout(Duration::from_millis(20));
                }
            })
            .expect("spawn fleet maintenance thread");
        Some(handle)
    }

    /// Rebuilds an engine from its durable state: loads the newest valid
    /// checkpoint (degrading to WAL-only replay if it is corrupt or
    /// missing), replays the WAL tail through the serving slots, and reopens
    /// the log on a fresh segment. `config` may use a different shard count
    /// than the crashed engine — streams re-shard by the pure hash and the
    /// replay is bit-identical either way. Call with the same
    /// `default_stream` the crashed engine used so replayed registrations
    /// rebuild identical serving stacks.
    ///
    /// Corruption (torn tails, bit flips, missing segments) degrades to the
    /// last valid record and is counted in the returned [`RecoverySummary`]
    /// (and the `fleet_wal_gap_records_total` counter) — it is never a
    /// panic and never an error.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] if `config.durability` is unset
    /// and [`FleetError::Durability`] if the store directory is missing or
    /// unreadable.
    pub fn recover(
        config: FleetConfig,
        default_stream: StreamConfig,
    ) -> Result<(Self, RecoverySummary)> {
        config.validate()?;
        let dcfg = config
            .durability
            .clone()
            .ok_or_else(|| FleetError::InvalidConfig("recover requires durability".into()))?;
        if !dcfg.dir.is_dir() {
            return Err(FleetError::Durability(format!(
                "recover: store directory {} does not exist",
                dcfg.dir.display()
            )));
        }
        let mut summary = RecoverySummary::default();
        let ckpt_path = dcfg.dir.join(durability::CHECKPOINT_FILE);
        let (start_after, payload) = match durability::read_checkpoint_file(&ckpt_path)
            .map_err(|e| FleetError::Durability(format!("checkpoint read: {e}")))?
        {
            CheckpointFile::Loaded { seq, payload } => (seq, Some(payload)),
            CheckpointFile::Missing => (0, None),
            CheckpointFile::Corrupt => {
                summary.checkpoint_corrupt = true;
                (0, None)
            }
        };
        let mut tail: Vec<WalRecord> = Vec::new();
        let (state, report) =
            DurabilityState::recover(dcfg, start_after, |_seq, rec| tail.push(rec))?;
        summary.checkpoint_seq = start_after;
        summary.replayed_records = report.replayed;
        summary.gap_records = report.gap_records;
        summary.torn_tail = report.torn_tail;
        summary.corrupt_segments = report.corrupt_segments;
        summary.missing_segments = report.missing_segments;

        let engine = Self::build(config, default_stream, Some(state))?;

        if let Some(payload) = payload {
            let streams = checkpoint::decode(&payload)?;
            summary.checkpoint_streams = streams.len() as u64;
            for st in streams {
                engine.insert_restored(st.id, st.guarded, st.next_minute);
            }
            engine.shared.obs.restores.inc();
            let kind = EventKind::CheckpointRestore {
                streams: summary.checkpoint_streams,
                bytes: payload.len() as u64,
            };
            engine.shared.obs.events.push(None, kind);
        }

        let mut scratch = Scratch::new();
        let mut steps = Vec::new();
        for rec in &tail {
            engine.replay_record(rec, &mut summary, &mut scratch, &mut steps);
        }
        if let Some(d) = engine.shared.durability.as_ref() {
            d.records_since_ckpt.store(tail.len() as u64, Ordering::Relaxed);
        }
        engine.shared.obs.wal_recoveries.inc();
        engine.shared.obs.wal_gap_records.add(summary.gap_records);
        let kind = EventKind::WalRecovery {
            replayed: summary.replayed_records,
            gaps: summary.gap_records,
        };
        engine.shared.obs.events.push(None, kind);
        Ok((engine, summary))
    }

    /// Applies one replayed WAL record directly to the serving slots —
    /// bypassing the queues (the workers are idle during recovery) and the
    /// WAL itself (replay must not re-log what it reads). `scratch` and
    /// `steps` are the buffers a shard worker would lend, shared across the
    /// whole replay.
    fn replay_record(
        &self,
        rec: &WalRecord,
        summary: &mut RecoverySummary,
        scratch: &mut Scratch,
        steps: &mut Vec<OnlineStep>,
    ) {
        match rec {
            WalRecord::Samples(samples) => {
                for s in samples {
                    summary.replayed_samples += 1;
                    let shard = &self.shared.shards[self.shard_for(s.stream)];
                    let mut table = shard.streams.lock().expect("shard stream table poisoned");
                    match table.get_mut(s.stream) {
                        Some(slot) => {
                            let job =
                                Job { stream: s.stream, minute: s.minute, value: s.value, seq: 0 };
                            slot.feed_with(&job, scratch, steps);
                        }
                        // Live workers drop unknown-stream samples too, so
                        // this reproduces the uninterrupted outcome; a
                        // *registered* stream can only be missing here
                        // downstream of a WAL gap — or downstream of a
                        // replayed eviction, which must not resurrect it.
                        None => summary.unknown_replayed += 1,
                    }
                }
            }
            WalRecord::Register { id, tuning } => {
                let mut cfg = StreamConfig {
                    train_size: tuning.train_size as usize,
                    qa_window: tuning.qa_window as usize,
                    qa_period: tuning.qa_period as usize,
                    qa_threshold: tuning.qa_threshold,
                    ..self.default_stream.clone()
                };
                cfg.resilience.f32_history = tuning.f32_history;
                // A collision with a checkpointed stream can only follow a
                // WAL gap; keep the richer checkpointed state.
                let _ = self.insert_stream(*id, &cfg);
            }
            WalRecord::Evict { id } => {
                summary.replayed_evicts += 1;
                let shard = &self.shared.shards[self.shard_for(*id)];
                shard.streams.lock().expect("shard stream table poisoned").remove(*id);
            }
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.shared.config
    }

    /// Shard serving `id` under this engine's seed and shard count.
    pub fn shard_for(&self, id: StreamId) -> usize {
        shard_of(self.shared.config.fleet_seed, id, self.shared.config.shards)
    }

    /// Registers a new stream with the engine's default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::DuplicateStream`] if `id` is already registered.
    pub fn register(&self, id: StreamId) -> Result<()> {
        let cfg = self.default_stream.clone();
        self.register_with(id, &cfg)
    }

    /// Registers a new stream with an explicit configuration. With
    /// durability on, the registration is WAL-logged before this returns.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::DuplicateStream`] if `id` is already
    /// registered, propagates stream-construction failures, and returns
    /// [`FleetError::Durability`] if the WAL append fails (the registration
    /// is rolled back).
    pub fn register_with(&self, id: StreamId, config: &StreamConfig) -> Result<()> {
        let _gate = self.gate_read();
        self.insert_stream(id, config)?;
        if let Some(d) = self.shared.durability.as_ref() {
            let tuning = RegisterTuning {
                train_size: config.train_size as u32,
                qa_window: config.qa_window as u32,
                qa_period: config.qa_period as u32,
                qa_threshold: config.qa_threshold,
                f32_history: config.resilience.f32_history,
            };
            if let Err(e) = d.append_register(id, &tuning) {
                // Roll back: an unlogged stream would vanish on recovery
                // while the caller believes it exists.
                let shard = &self.shared.shards[self.shard_for(id)];
                shard.streams.lock().expect("shard stream table poisoned").remove(id);
                self.shared.obs.wal_failures.inc();
                let kind = EventKind::WalAppendFailed { kind: 1 };
                self.shared.obs.events.push(Some(id), kind);
                return Err(e.into());
            }
            d.records_since_ckpt.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Builds and inserts one stream slot (no WAL traffic — shared by the
    /// logged register path and recovery replay).
    fn insert_stream(&self, id: StreamId, config: &StreamConfig) -> Result<()> {
        let mut guarded = config.build()?;
        guarded.attach_obs(self.shared.obs.larp.for_stream(id));
        let shard = &self.shared.shards[self.shard_for(id)];
        let mut streams = shard.streams.lock().expect("shard stream table poisoned");
        if !streams.insert(id, StreamSlot::new(guarded, 0)) {
            return Err(FleetError::DuplicateStream(id));
        }
        Ok(())
    }

    /// Inserts one deserialized stream (checkpoint restore / recovery),
    /// re-attaching observability.
    fn insert_restored(&self, id: StreamId, mut guarded: GuardedLarp, next_minute: u64) {
        guarded.attach_obs(self.shared.obs.larp.for_stream(id));
        let mut slot = StreamSlot::new(guarded, next_minute);
        // The slot tallies are not serialized, but the snapshot carries the
        // forecast the stream's last step made, which is what
        // `last_forecast` reports for a stream that keeps forecasting.
        slot.last_forecast = slot.guarded.online().pending_forecast();
        let shard = &self.shared.shards[self.shard_for(id)];
        let mut streams = shard.streams.lock().expect("shard stream table poisoned");
        streams.insert(id, slot);
    }

    /// Evicts a stream, discarding its serving state. Samples still queued
    /// for it are dropped by the worker (counted as unknown). With
    /// durability on, the eviction is WAL-logged.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownStream`] if `id` is not registered and
    /// [`FleetError::Durability`] if the WAL append fails — the in-memory
    /// eviction already took effect, but recovery may resurrect the stream.
    pub fn evict(&self, id: StreamId) -> Result<()> {
        let _gate = self.gate_read();
        let shard = &self.shared.shards[self.shard_for(id)];
        let mut streams = shard.streams.lock().expect("shard stream table poisoned");
        let removed = streams.remove(id).ok_or(FleetError::UnknownStream(id))?;
        // The serving stack drops outside the table lock.
        drop(streams);
        drop(removed);
        self.shared.obs.evictions.inc();
        self.shared.obs.events.push(Some(id), EventKind::StreamEvicted { idle: false });
        if let Some(d) = self.shared.durability.as_ref() {
            if let Err(e) = d.append_evict(id) {
                self.shared.obs.wal_failures.inc();
                let kind = EventKind::WalAppendFailed { kind: 2 };
                self.shared.obs.events.push(Some(id), kind);
                return Err(e.into());
            }
            d.records_since_ckpt.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Holds the durability gate open for one ingest operation (no-op
    /// without durability). Checkpoints take the write side, so everything
    /// done under this guard lands either entirely before or entirely after
    /// a checkpoint's cut.
    fn gate_read(&self) -> Option<std::sync::RwLockReadGuard<'_, ()>> {
        self.shared.durability.as_ref().map(|d| d.gate.read().expect("durability gate poisoned"))
    }

    /// Appends accepted samples to the WAL (no-op without durability). A
    /// failed append marks the report: the samples are already enqueued and
    /// will be served, but are not durable until the next checkpoint.
    fn wal_append_samples(&self, samples: &[store::Sample], report: &mut PushReport) {
        let Some(d) = self.shared.durability.as_ref() else { return };
        if samples.is_empty() {
            return;
        }
        let t0 = Instant::now();
        match d.append_samples(samples) {
            Ok(info) => {
                let obs = &self.shared.obs;
                obs.wal_append_us.record(t0.elapsed().as_micros() as f64);
                obs.wal_records.inc();
                if info.fsynced {
                    obs.wal_fsyncs.inc();
                }
                if info.rotated {
                    obs.wal_rotations.inc();
                    // Rotation precedes the write, so the fresh segment
                    // starts at this record's sequence.
                    obs.events.push(None, EventKind::WalRotation { segment: info.seq });
                }
                d.records_since_ckpt.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                report.wal_failed = true;
                self.shared.obs.wal_failures.inc();
            }
        }
    }

    /// Whether `id` is currently registered.
    pub fn contains(&self, id: StreamId) -> bool {
        let shard = &self.shared.shards[self.shard_for(id)];
        shard.streams.lock().expect("shard stream table poisoned").contains(id)
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.streams.lock().expect("shard stream table poisoned").len())
            .sum()
    }

    /// Every registered stream with its `next_minute`, the minute its next
    /// auto-clocked sample gets. Does not flush, and does not count as
    /// activity for [`sweep_idle`](Self::sweep_idle).
    pub fn stream_clocks(&self) -> Vec<(StreamId, u64)> {
        let mut out = Vec::new();
        for s in &self.shared.shards {
            let table = s.streams.lock().expect("shard stream table poisoned");
            out.extend(table.iter().map(|(id, slot)| (id, slot.next_minute)));
        }
        out
    }

    /// Pushes one auto-clocked sample. Convenience for
    /// [`push_batch`](Self::push_batch) with a single element.
    pub fn push(&self, id: StreamId, value: f64) -> PushReport {
        self.push_batch(&[(id, value)])
    }

    /// Pushes one sample with an explicit minute timestamp (for replaying
    /// recorded or fault-injected traces whose gaps matter).
    pub fn push_at(&self, id: StreamId, minute: u64, value: f64) -> PushReport {
        let (report, _drain) = self.admit_at(id, minute, value);
        report
    }

    /// Pushes a batch of auto-clocked samples, fanning them out to the
    /// owning shards (one queue-lock acquisition per shard per batch).
    ///
    /// Samples for the same stream are enqueued in slice order, and a shard
    /// is drained by one thread at a time in queue order, so per-stream
    /// processing order equals push order regardless of shard count. A batch
    /// of at most 64 samples is applied on this thread before the call
    /// returns (unless another drainer holds its shard); a larger one is
    /// left to the shard workers. Equivalent to
    /// [`admit_batch`](Self::admit_batch) followed by dropping its token.
    pub fn push_batch(&self, batch: &[(StreamId, f64)]) -> PushReport {
        let (report, _drain) = self.admit_batch(batch);
        report
    }

    /// [`admit_batch`](Self::admit_batch) for one sample with an explicit
    /// minute timestamp.
    pub fn admit_at(&self, id: StreamId, minute: u64, value: f64) -> (PushReport, DrainToken) {
        let _gate = self.gate_read();
        let seq = self.shared.push_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Job { stream: id, minute: Some(minute), value, seq };
        let mut report = PushReport::default();
        let started = Instant::now();
        let shard = self.shard_for(id);
        self.enqueue(shard, &[job], &mut report, None, true);
        if report.accepted > 0 {
            let sample = store::Sample { stream: id, minute: Some(minute), value };
            self.wal_append_samples(&[sample], &mut report);
        }
        self.account(report, started);
        (report, self.drain_token(shard_bit(shard), report))
    }

    /// Admits a batch of auto-clocked samples without applying it: the
    /// durability gate, push sequence, bounded queues with their
    /// backpressure policy and the WAL append all run here, and the returned
    /// [`PushReport`] is final. The samples are applied when the returned
    /// [`DrainToken`] drops (a batch of at most 64 samples) or by the shard
    /// workers (a larger one, which wakes them now).
    pub fn admit_batch(&self, batch: &[(StreamId, f64)]) -> (PushReport, DrainToken) {
        // The per-shard grouping buffers persist per producer thread: a
        // steady producer pays the grouping allocation once, not per batch.
        thread_local! {
            static GROUPED: std::cell::RefCell<Vec<Vec<Job>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let inline = batch.len() <= BATCH_DRAIN;
        let (report, mask) = GROUPED.with(|cell| {
            let _gate = self.gate_read();
            let mut grouped = cell.borrow_mut();
            let shards = self.shared.config.shards;
            if grouped.len() < shards {
                grouped.resize_with(shards, Vec::new);
            }
            for g in grouped.iter_mut() {
                g.clear();
            }
            // One claim per batch: its samples take consecutive numbers.
            let first = self.shared.push_seq.fetch_add(batch.len() as u64, Ordering::Relaxed) + 1;
            for (seq, &(id, value)) in (first..).zip(batch) {
                grouped[self.shard_for(id)].push(Job { stream: id, minute: None, value, seq });
            }
            let mut report = PushReport::default();
            let started = Instant::now();
            let mut wal_buf: Option<Vec<store::Sample>> =
                self.shared.durability.as_ref().map(|_| Vec::with_capacity(batch.len()));
            let mut mask = 0;
            for (shard, jobs) in grouped.iter().enumerate().take(shards) {
                if !jobs.is_empty() {
                    self.enqueue(shard, jobs, &mut report, wal_buf.as_mut(), inline);
                    mask |= shard_bit(shard);
                }
            }
            if let Some(buf) = &wal_buf {
                self.wal_append_samples(buf, &mut report);
            }
            self.account(report, started);
            (report, mask)
        });
        (report, self.drain_token(if inline { mask } else { 0 }, report))
    }

    /// The token for a push that enqueued onto the shards in `mask`: empty
    /// when nothing was accepted or the workers were woken instead.
    fn drain_token(&self, mask: u64, report: PushReport) -> DrainToken {
        if mask == 0 || report.accepted == 0 {
            return DrainToken::default();
        }
        DrainToken { pending: Some((Arc::clone(&self.shared), mask)) }
    }

    /// Enqueues jobs on one shard, blocking while its queue is full. Holds
    /// the queue lock once for the whole group. Unless the caller will drain
    /// them itself (`inline`), the worker is woken. Every job is accepted: the
    /// queues shut down only when the engine drops, when no push can run.
    fn enqueue(
        &self,
        shard: usize,
        jobs: &[Job],
        report: &mut PushReport,
        mut wal: Option<&mut Vec<store::Sample>>,
        inline: bool,
    ) {
        let s = &self.shared.shards[shard];
        let cap = self.shared.config.queue_capacity;
        let mut q = s.queue.lock().expect("shard queue poisoned");
        for job in jobs {
            while q.items.len() >= cap {
                // A full queue needs a drainer before this call can go on,
                // and a small push's caller drains only after admission:
                // wake the worker.
                s.wake_worker(&q);
                q.space_waiters += 1;
                q = s.space.wait(q).expect("shard queue poisoned");
                q.space_waiters -= 1;
            }
            q.items.push_back(*job);
            report.accepted += 1;
            if let Some(w) = wal.as_deref_mut() {
                w.push(store::Sample { stream: job.stream, minute: job.minute, value: job.value });
            }
        }
        s.queue_depth.set(q.items.len() as f64);
        if !inline {
            s.wake_worker(&q);
        }
    }

    fn account(&self, report: PushReport, started: Instant) {
        let obs = &self.shared.obs;
        obs.enqueue_us.record(started.elapsed().as_micros() as f64);
        obs.push_accepted.add(report.accepted);
    }

    /// Blocks until every admitted sample has been fully processed —
    /// including samples whose [`DrainToken`] has not dropped yet, which this
    /// call applies itself on the calling thread.
    pub fn flush(&self) {
        self.shared.flush_shards();
    }

    /// Drains every queue to the serving state, then fsyncs the WAL: after
    /// this returns, every acked sample survives even power loss. The
    /// graceful-shutdown hook — netserve's drain path calls it before
    /// joining. Without durability this is just [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Durability`] if the fsync fails.
    pub fn flush_durable(&self) -> Result<()> {
        self.flush();
        if let Some(d) = self.shared.durability.as_ref() {
            d.wal().sync()?;
        }
        Ok(())
    }

    /// Takes a durable checkpoint: quiesces producers, drains the queues,
    /// writes the fleet checkpoint atomically, then truncates the WAL
    /// segments the checkpoint covers. Returns the covered WAL sequence.
    /// Recovery time is proportional to the WAL tail past the last
    /// checkpoint, so checkpoint cadence bounds restart latency.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] without durability and
    /// [`FleetError::Durability`] on store failures.
    pub fn checkpoint_durable(&self) -> Result<u64> {
        checkpoint_durable_inner(&self.shared)
    }

    /// Durable-store counters (WAL records, bytes, fsyncs, …), or `None`
    /// without durability.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.shared.durability.as_ref().map(|d| StoreStats { wal: d.wal().stats() })
    }

    /// Evicts streams that have not received a sample (or an info probe —
    /// see [`stream_info`](Self::stream_info)) within the last `max_idle`
    /// push attempts (engine-wide), returning the evicted ids.
    ///
    /// Flushes first so queued samples count as activity. Streams registered
    /// but never pushed have an activity mark of zero and expire like any
    /// other idle stream.
    ///
    /// A failed WAL eviction append is *not* silent: it counts in
    /// `fleet_wal_failures_total` and traces a `wal_append_failed` event —
    /// recovery will resurrect that stream, and an operator who never learns
    /// of it gets a fleet that disagrees with its log.
    pub fn sweep_idle(&self, max_idle: u64) -> Vec<StreamId> {
        let _gate = self.gate_read();
        self.flush();
        let now = self.shared.push_seq.load(Ordering::Relaxed);
        let mut evicted = Vec::new();
        for s in &self.shared.shards {
            let mut streams = s.streams.lock().expect("shard stream table poisoned");
            let idle: Vec<StreamId> = streams
                .iter()
                .filter(|(_, slot)| now.saturating_sub(slot.last_seq) > max_idle)
                .map(|(id, _)| id)
                .collect();
            for id in idle {
                streams.remove(id);
                evicted.push(id);
            }
        }
        evicted.sort_unstable();
        for &id in &evicted {
            self.shared.obs.evictions.inc();
            self.shared.obs.events.push(Some(id), EventKind::StreamEvicted { idle: true });
            if let Some(d) = self.shared.durability.as_ref() {
                match d.append_evict(id) {
                    Ok(_) => {
                        d.records_since_ckpt.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        self.shared.obs.wal_failures.inc();
                        let kind = EventKind::WalAppendFailed { kind: 2 };
                        self.shared.obs.events.push(Some(id), kind);
                    }
                }
            }
        }
        evicted
    }

    /// Flushes, then serializes one stream's complete serving state for
    /// migration to another engine: `(next_minute, snapshot_bytes)`. The
    /// bytes are the same LARPSNAP encoding checkpoints inline, so
    /// [`import_stream`](Self::import_stream) restores them bit-identically.
    ///
    /// The stream stays registered here — the caller owns eviction timing
    /// (a migration fence evicts only after the destination acknowledges).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownStream`] if `id` is not registered.
    pub fn export_stream(&self, id: StreamId) -> Result<(u64, Vec<u8>)> {
        self.flush();
        let shard = &self.shared.shards[self.shard_for(id)];
        let table = shard.streams.lock().expect("shard stream table poisoned");
        let slot = table.get(id).ok_or(FleetError::UnknownStream(id))?;
        let (next_minute, bytes) = (slot.next_minute, slot.guarded.to_snapshot_bytes());
        drop(table);
        self.shared.obs.stream_exports.inc();
        let kind = EventKind::StreamExported { bytes: bytes.len() as u64 };
        self.shared.obs.events.push(Some(id), kind);
        Ok((next_minute, bytes))
    }

    /// Restores one exported stream bit-identically (the migration receive
    /// path): the inverse of [`export_stream`](Self::export_stream).
    ///
    /// With durability on, a registration record is WAL-logged so recovery
    /// at least knows the stream exists — but the imported *model state* is
    /// only durable once the next checkpoint covers it (a crash in between
    /// recovers a fresh stream with default tuning). Cluster nodes take a
    /// durable checkpoint right after a migration or failover wave to close
    /// that window.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::DuplicateStream`] if `id` is already
    /// registered, [`FleetError::Checkpoint`] for undecodable snapshot
    /// bytes, and [`FleetError::Durability`] if the WAL append fails (the
    /// import is rolled back).
    pub fn import_stream(&self, id: StreamId, next_minute: u64, bytes: &[u8]) -> Result<()> {
        let _gate = self.gate_read();
        if self.contains(id) {
            return Err(FleetError::DuplicateStream(id));
        }
        let guarded = GuardedLarp::from_snapshot_bytes(bytes)
            .map_err(|e| FleetError::Checkpoint(format!("stream {id}: snapshot decode: {e}")))?;
        let tuning = RegisterTuning {
            train_size: self.default_stream.train_size as u32,
            qa_window: self.default_stream.qa_window as u32,
            qa_period: self.default_stream.qa_period as u32,
            qa_threshold: guarded.online().qa().threshold(),
            f32_history: guarded.online().resilience().f32_history,
        };
        self.insert_restored(id, guarded, next_minute);
        if let Some(d) = self.shared.durability.as_ref() {
            if let Err(e) = d.append_register(id, &tuning) {
                let shard = &self.shared.shards[self.shard_for(id)];
                shard.streams.lock().expect("shard stream table poisoned").remove(id);
                self.shared.obs.wal_failures.inc();
                let kind = EventKind::WalAppendFailed { kind: 1 };
                self.shared.obs.events.push(Some(id), kind);
                return Err(e.into());
            }
            d.records_since_ckpt.fetch_add(1, Ordering::Relaxed);
        }
        self.shared.obs.stream_imports.inc();
        let kind = EventKind::StreamImported { bytes: bytes.len() as u64 };
        self.shared.obs.events.push(Some(id), kind);
        Ok(())
    }

    /// Snapshots every stream whose state advanced since the caller's last
    /// export — the warm-standby feeder's delta source. `seen` is the
    /// caller's cursor (stream → `next_minute` at its last export), updated
    /// in place; entries for streams that no longer exist are pruned. The
    /// first call with an empty cursor exports everything.
    ///
    /// Returns `(covered_seq, deltas)` where `covered_seq` is the highest
    /// WAL sequence the snapshots cover (0 without durability): a standby
    /// holding these snapshots needs only WAL records *after* it. Producers
    /// are quiesced for the cut (durability gate + queue drain), so every
    /// snapshot and `covered_seq` describe one consistent state.
    #[allow(clippy::type_complexity)]
    pub fn export_dirty(
        &self,
        seen: &mut HashMap<StreamId, u64>,
    ) -> (u64, Vec<(StreamId, u64, Vec<u8>)>) {
        let _gate = self
            .shared
            .durability
            .as_ref()
            .map(|d| d.gate.write().expect("durability gate poisoned"));
        self.shared.flush_shards();
        let covered_seq =
            self.shared.durability.as_ref().map(DurabilityState::last_seq).unwrap_or(0);
        let mut deltas = Vec::new();
        let mut alive: HashSet<StreamId> = HashSet::new();
        for s in &self.shared.shards {
            let table = s.streams.lock().expect("shard stream table poisoned");
            for (id, slot) in table.iter() {
                alive.insert(id);
                if seen.get(&id) != Some(&slot.next_minute) {
                    deltas.push((id, slot.next_minute, slot.guarded.to_snapshot_bytes()));
                }
            }
        }
        deltas.sort_unstable_by_key(|(id, _, _)| *id);
        seen.retain(|id, _| alive.contains(id));
        for (id, next_minute, _) in &deltas {
            seen.insert(*id, *next_minute);
        }
        (covered_seq, deltas)
    }

    /// The directory holding this engine's WAL segments, when durability is
    /// on — the path a warm-standby feeder tails with [`store::read_tail`]
    /// and a failover heir scans after the owner dies.
    pub fn wal_dir(&self) -> Option<std::path::PathBuf> {
        self.shared.durability.as_ref().map(|d| d.config.dir.clone())
    }

    /// Highest WAL sequence assigned so far (0 fresh or without durability).
    pub fn wal_last_seq(&self) -> u64 {
        self.shared.durability.as_ref().map(DurabilityState::last_seq).unwrap_or(0)
    }

    /// A point-in-time view of one stream.
    ///
    /// Reading counts as activity: the probe refreshes the stream's idle
    /// clock, so a predict-only consumer polling forecasts does not lose its
    /// stream to [`sweep_idle`](Self::sweep_idle) mid-use.
    ///
    /// Call [`flush`](Self::flush) first for an up-to-date view.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownStream`] if `id` is not registered.
    pub fn stream_info(&self, id: StreamId) -> Result<StreamInfo> {
        let shard = self.shard_for(id);
        let now = self.shared.push_seq.load(Ordering::Relaxed);
        let mut streams =
            self.shared.shards[shard].streams.lock().expect("shard stream table poisoned");
        let slot = streams.get_mut(id).ok_or(FleetError::UnknownStream(id))?;
        slot.last_seq = slot.last_seq.max(now);
        Ok(StreamInfo {
            id,
            shard,
            steps: slot.steps,
            forecasts: slot.forecasts,
            next_minute: slot.next_minute,
            health: slot.last_health,
            last_forecast: slot.last_forecast,
            retrains: slot.guarded.online().retrain_count(),
        })
    }

    /// Aggregates the fleet health rollup. Does not flush; queue depths
    /// reflect in-flight work.
    pub fn health(&self) -> FleetHealth {
        let mut health = FleetHealth {
            pushes: PushReport {
                accepted: self.shared.obs.push_accepted.get(),
                wal_failed: self.shared.obs.wal_failures.get() > 0,
            },
            ..FleetHealth::default()
        };
        for (i, s) in self.shared.shards.iter().enumerate() {
            let queue_depth = s.queue.lock().expect("shard queue poisoned").items.len();
            let streams = s.streams.lock().expect("shard stream table poisoned");
            let mut sh = ShardHealth {
                shard: i,
                queue_depth,
                streams: streams.len(),
                unknown_dropped: s.unknown_dropped.get(),
                ..ShardHealth::default()
            };
            for (_, slot) in streams.iter() {
                if slot.last_health != HealthState::Healthy {
                    sh.degraded_streams += 1;
                }
                let online = slot.guarded.online();
                if !online.quarantined().is_empty() {
                    sh.quarantined_streams += 1;
                }
                health.steps += slot.steps;
                health.forecasts += slot.forecasts;
                health.nonfinite_forecasts += slot.nonfinite;
                health.retrains += online.retrain_count() as u64;
                merge_counters(&mut health.counters, online.counters());
            }
            health.streams += sh.streams;
            health.shards.push(sh);
        }
        health
    }

    /// Fleet-wide memory accounting: what every stream's serving state costs
    /// resident (DESIGN.md §11). Call [`flush`](Self::flush) first for a
    /// settled view.
    pub fn mem_report(&self) -> FleetMemReport {
        let mut report = FleetMemReport {
            slot_bytes: std::mem::size_of::<StreamSlot>(),
            ..FleetMemReport::default()
        };
        for s in &self.shared.shards {
            let table = s.streams.lock().expect("shard stream table poisoned");
            report.streams += table.len();
            report.table_bytes += table.heap_bytes();
            report.slab_reserved_bytes += table.slab_reserved_bytes();
            for (_, slot) in table.iter() {
                report.stream.accumulate(&slot.guarded.mem_report());
            }
        }
        report.resident_bytes = process_resident_bytes();
        report
    }

    /// Test hook: make the next WAL eviction/registration append fail as if
    /// the store errored. Returns `false` (and arms nothing) without
    /// durability.
    #[doc(hidden)]
    pub fn debug_fail_next_wal_append(&self) -> bool {
        match self.shared.durability.as_ref() {
            Some(d) => {
                d.fail_next_append.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Test hook: make the next durable checkpoint fail once it has written
    /// `payload_bytes` of its image into `CHECKPOINT.tmp`, as a full disk
    /// would. Returns `false` (and arms nothing) without durability.
    #[doc(hidden)]
    pub fn debug_fail_next_checkpoint_after(&self, payload_bytes: u64) -> bool {
        match self.shared.durability.as_ref() {
            Some(d) => {
                d.fail_checkpoint_after.store(payload_bytes, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Flushes, then serializes every stream's full serving state.
    ///
    /// The bytes depend only on the fleet's logical state (streams are sorted
    /// by id), not on the shard count, so a checkpoint taken on 8 shards
    /// restores cleanly onto 2 — see [`restore`](Self::restore).
    pub fn checkpoint(&self) -> Vec<u8> {
        self.flush();
        let mut bytes = Vec::new();
        let streams =
            self.shared.write_checkpoint(&mut bytes).expect("writing to a Vec cannot fail");
        self.shared.obs.checkpoints.inc();
        let kind = EventKind::CheckpointSave { streams, bytes: bytes.len() as u64 };
        self.shared.obs.events.push(None, kind);
        bytes
    }

    /// Warm-starts a fleet from checkpoint bytes: every stream resumes with
    /// its trained model, sanitizer memory, QA window and quarantine clocks
    /// intact — no retraining. `config` may use a different shard count than
    /// the checkpointing engine; streams are re-sharded by the pure hash.
    ///
    /// Per-stream serving tallies ([`StreamInfo::steps`] etc.) restart at
    /// zero; model-level state (retrain counts, fault counters, the pending
    /// forecast [`StreamInfo::last_forecast`] reports) is preserved inside
    /// each stream's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Checkpoint`] for malformed bytes and
    /// [`FleetError::InvalidConfig`] for an invalid `config`.
    pub fn restore(config: FleetConfig, bytes: &[u8]) -> Result<Self> {
        let streams = checkpoint::decode(bytes)?;
        let engine = Self::new(config)?;
        let restored = streams.len() as u64;
        for st in streams {
            engine.insert_restored(st.id, st.guarded, st.next_minute);
        }
        engine.shared.obs.restores.inc();
        let kind = EventKind::CheckpointRestore { streams: restored, bytes: bytes.len() as u64 };
        engine.shared.obs.events.push(None, kind);
        Ok(engine)
    }

    /// The metric registry backing this engine's instrumentation. Exposes
    /// the fleet-wide `fleet_*` and `larp_*` metric sets (DESIGN.md §5).
    pub fn registry(&self) -> &Registry {
        &self.shared.obs.registry
    }

    /// The engine's bounded event ring (selector decisions, quarantine and
    /// backpressure transitions, checkpoints, evictions).
    pub fn events(&self) -> &EventRing {
        &self.shared.obs.events
    }

    /// Prometheus text exposition of the current metrics plus the ring's
    /// meta-counters.
    pub fn prometheus(&self) -> String {
        expo::prometheus(&self.shared.obs.registry, Some(&self.shared.obs.events))
    }

    /// JSON dump of the current metrics and the retained events.
    pub fn obs_json(&self) -> String {
        expo::json(&self.shared.obs.registry, Some(&self.shared.obs.events))
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        // Stop the background maintenance thread first so no checkpoint
        // races the worker shutdown.
        if let Some(handle) = self.maintenance.take() {
            self.shared.maint_stop.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
        // Apply what callers admitted but have not drained yet (their tokens
        // may outlive the engine), so the workers exit on empty queues.
        self.flush();
        for s in &self.shared.shards {
            let mut q = s.queue.lock().expect("shard queue poisoned");
            q.shutdown = true;
            drop(q);
            s.not_empty.notify_all();
            s.space.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;

    fn small_fleet(shards: usize) -> FleetEngine {
        FleetEngine::new(FleetConfig { shards, ..FleetConfig::default() }).unwrap()
    }

    #[test]
    fn register_push_flush_and_inspect() {
        let engine = small_fleet(2);
        engine.register(7).unwrap();
        engine.register(8).unwrap();
        assert_eq!(engine.stream_count(), 2);

        let mut report = PushReport::default();
        for m in 0..120u64 {
            let v = 50.0 + (m as f64 * 0.3).sin() * 8.0;
            report.merge(engine.push_batch(&[(7, v), (8, v + 5.0)]));
        }
        engine.flush();
        assert_eq!(report.accepted, 240);

        for id in [7u64, 8] {
            let info = engine.stream_info(id).unwrap();
            assert_eq!(info.steps, 120);
            assert_eq!(info.next_minute, 120);
            assert!(info.retrains >= 1, "stream {id} should have trained");
            assert!(info.forecasts > 0);
            assert!(info.last_forecast.unwrap().is_finite());
        }

        let health = engine.health();
        assert_eq!(health.streams, 2);
        assert_eq!(health.steps, 240);
        assert_eq!(health.nonfinite_forecasts, 0);
        assert_eq!(health.pushes.accepted, 240);
    }

    #[test]
    fn lifecycle_errors() {
        let engine = small_fleet(1);
        engine.register(1).unwrap();
        assert_eq!(engine.register(1), Err(FleetError::DuplicateStream(1)));
        assert_eq!(engine.evict(2), Err(FleetError::UnknownStream(2)));
        assert_eq!(engine.stream_info(2), Err(FleetError::UnknownStream(2)));
        engine.evict(1).unwrap();
        assert!(!engine.contains(1));
        // Re-registering after eviction is fine.
        engine.register(1).unwrap();
    }

    #[test]
    fn unknown_stream_samples_are_counted_not_lost_silently() {
        let engine = small_fleet(1);
        engine.push_batch(&[(99, 1.0), (99, 2.0)]);
        engine.flush();
        assert_eq!(engine.health().unknown_dropped(), 2);
    }

    #[test]
    fn block_backpressure_is_lossless() {
        let engine = FleetEngine::new(FleetConfig {
            shards: 1,
            queue_capacity: 4,
            ..FleetConfig::default()
        })
        .unwrap();
        engine.register(1).unwrap();
        let mut report = PushReport::default();
        for m in 0..200u64 {
            report.merge(engine.push(1, 40.0 + (m as f64 * 0.2).cos() * 3.0));
        }
        engine.flush();
        assert_eq!(report.accepted, 200);
        assert_eq!(engine.stream_info(1).unwrap().steps, 200);
    }

    #[test]
    fn block_backpressure_survives_batches_larger_than_the_queue() {
        // Regression: a single push_batch overfilling a queue used to
        // deadlock under `Block` — the producer parked on `space` before
        // the group's `not_empty` notify ever woke the worker. Concurrent
        // producers widen the window, so use two.
        let engine = std::sync::Arc::new(
            FleetEngine::new(FleetConfig {
                shards: 2,
                queue_capacity: 8,
                ..FleetConfig::default()
            })
            .unwrap(),
        );
        for id in 0..6 {
            engine.register(id).unwrap();
        }
        let batch: Vec<(StreamId, f64)> =
            (0..500).map(|i| (i % 6, 40.0 + (i as f64 * 0.01).sin())).collect();
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let batch = batch.clone();
                std::thread::spawn(move || engine.push_batch(&batch))
            })
            .collect();
        let mut report = PushReport::default();
        for p in producers {
            report.merge(p.join().expect("producer must not deadlock"));
        }
        engine.flush();
        assert_eq!(report.accepted, 1000);
        // Exactly-once: the engine-wide counters equal the per-call reports.
        let health = engine.health();
        assert_eq!(health.pushes, report);
        assert_eq!(health.steps, 1000);
    }

    #[test]
    fn sweep_idle_evicts_only_stale_streams() {
        let engine = small_fleet(2);
        engine.register(1).unwrap();
        engine.register(2).unwrap();
        // Stream 1 gets traffic; stream 2 stays idle.
        for m in 0..50u64 {
            engine.push(1, 30.0 + m as f64 * 0.1);
        }
        let evicted = engine.sweep_idle(25);
        assert_eq!(evicted, vec![2]);
        assert!(engine.contains(1));
        assert!(!engine.contains(2));
        // A generous horizon evicts nothing.
        assert!(engine.sweep_idle(u64::MAX).is_empty());
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fleet-durable-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(dir: &std::path::Path, shards: usize) -> FleetConfig {
        FleetConfig {
            shards,
            durability: Some(DurabilityConfig::new(dir)),
            ..FleetConfig::default()
        }
    }

    /// Drives a deterministic workload; returns the per-stream infos.
    fn drive(engine: &FleetEngine, streams: u64, minutes: u64) -> Vec<StreamInfo> {
        for m in 0..minutes {
            let batch: Vec<(StreamId, f64)> = (0..streams)
                .map(|id| (id, 40.0 + ((m * 13 + id * 7) as f64 * 0.21).sin() * 9.0))
                .collect();
            engine.push_batch(&batch);
        }
        engine.flush();
        (0..streams).map(|id| engine.stream_info(id).unwrap()).collect()
    }

    #[test]
    fn durable_engine_logs_and_recovers_bit_identically() {
        let dir = temp_store_dir("roundtrip");
        let engine = FleetEngine::new(durable_config(&dir, 2)).unwrap();
        for id in 0..4u64 {
            engine.register(id).unwrap();
        }
        let before = drive(&engine, 4, 150);
        let report = engine.push(0, 41.5);
        assert!(!report.wal_failed);
        engine.flush();
        let before0 = engine.stream_info(0).unwrap();
        // Simulate a crash: drop without checkpointing.
        drop(engine);

        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default()).unwrap();
        assert!(summary.clean(), "clean log must recover cleanly: {summary:?}");
        assert_eq!(summary.checkpoint_seq, 0);
        assert_eq!(summary.replayed_samples, 4 * 150 + 1);
        back.flush();
        for (id, want) in before.iter().enumerate().skip(1) {
            assert_eq!(&back.stream_info(id as u64).unwrap(), want, "stream {id}");
        }
        assert_eq!(back.stream_info(0).unwrap(), before0);
        // The recovery event is visible.
        assert!(back
            .events()
            .recent()
            .iter()
            .any(|e| matches!(e.kind, obs::EventKind::WalRecovery { gaps: 0, .. })));
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_checkpoint_truncates_and_recovery_replays_only_the_tail() {
        let dir = temp_store_dir("ckpt");
        let engine = FleetEngine::new(durable_config(&dir, 2)).unwrap();
        for id in 0..3u64 {
            engine.register(id).unwrap();
        }
        drive(&engine, 3, 100);
        let seq = engine.checkpoint_durable().unwrap();
        assert_eq!(seq, 3 + 100, "3 register records + 100 batch records");
        drive(&engine, 3, 20);
        let expected = drive(&engine, 3, 0);
        drop(engine);

        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default()).unwrap();
        assert_eq!(summary.checkpoint_seq, seq);
        assert_eq!(summary.checkpoint_streams, 3);
        assert_eq!(summary.replayed_records, 20, "only the tail replays");
        assert!(summary.clean());
        back.flush();
        for id in 0..3u64 {
            let got = back.stream_info(id).unwrap();
            let want = &expected[id as usize];
            // Steps/forecast tallies restart at a checkpoint restore, but the
            // serving outcome must match exactly.
            assert_eq!(got.next_minute, want.next_minute, "stream {id}");
            assert_eq!(got.last_forecast, want.last_forecast, "stream {id}");
            assert_eq!(got.health, want.health, "stream {id}");
        }
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_onto_different_shard_count_is_bit_identical() {
        let dir = temp_store_dir("reshard");
        let engine = FleetEngine::new(durable_config(&dir, 4)).unwrap();
        for id in 0..6u64 {
            engine.register(id).unwrap();
        }
        drive(&engine, 6, 80);
        engine.checkpoint_durable().unwrap();
        drive(&engine, 6, 40);
        let want = drive(&engine, 6, 0);
        drop(engine);

        // Recover onto 1 shard: re-sharding composes with WAL replay.
        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 1), StreamConfig::default()).unwrap();
        assert!(summary.clean());
        back.flush();
        for id in 0..6u64 {
            let got = back.stream_info(id).unwrap();
            assert_eq!(got.next_minute, want[id as usize].next_minute, "stream {id}");
            assert_eq!(got.last_forecast, want[id as usize].last_forecast, "stream {id}");
        }
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evictions_and_explicit_minutes_replay() {
        let dir = temp_store_dir("lifecycle");
        let engine = FleetEngine::new(durable_config(&dir, 2)).unwrap();
        engine.register(1).unwrap();
        engine.register(2).unwrap();
        for m in 0..60u64 {
            engine.push_at(1, m * 2, 30.0 + (m as f64 * 0.4).cos() * 5.0);
            engine.push(2, 55.0);
        }
        engine.evict(2).unwrap();
        engine.flush();
        let want = engine.stream_info(1).unwrap();
        drop(engine);

        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default()).unwrap();
        assert!(summary.clean());
        back.flush();
        assert_eq!(back.stream_info(1).unwrap(), want);
        assert!(!back.contains(2), "eviction must replay");
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_durable_engine_refuses_an_occupied_dir() {
        let dir = temp_store_dir("occupied");
        let engine = FleetEngine::new(durable_config(&dir, 1)).unwrap();
        engine.register(1).unwrap();
        drop(engine);
        assert!(matches!(
            FleetEngine::new(durable_config(&dir, 1)),
            Err(FleetError::Durability(_))
        ));
        // recover() on a missing dir is also an error.
        let missing = temp_store_dir("missing");
        assert!(matches!(
            FleetEngine::recover(durable_config(&missing, 1), StreamConfig::default()),
            Err(FleetError::Durability(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_checkpointer_fires_and_truncates() {
        let dir = temp_store_dir("auto");
        let mut config = durable_config(&dir, 1);
        if let Some(d) = config.durability.as_mut() {
            d.auto_checkpoint_records = 50;
        }
        let engine = FleetEngine::new(config).unwrap();
        engine.register(1).unwrap();
        for m in 0..200u64 {
            engine.push(1, 20.0 + m as f64 * 0.05);
        }
        engine.flush();
        // Wait (bounded) for the background checkpointer to land one.
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.shared.obs.checkpoints.get() == 0 {
            assert!(Instant::now() < deadline, "auto checkpoint never fired");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(engine);
        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 1), StreamConfig::default()).unwrap();
        assert!(summary.checkpoint_seq > 0, "recovery starts from the auto checkpoint");
        assert!(summary.clean());
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every WAL segment in `dir` with its bytes, by name.
    fn wal_segments(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        let mut segs: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .map(|p| (p.file_name().unwrap().to_owned(), std::fs::read(&p).unwrap()))
            .collect();
        segs.sort();
        segs
    }

    #[test]
    fn failed_checkpoint_write_changes_nothing_durable() {
        let dir = temp_store_dir("ckpt-fail");
        let ckpt = dir.join(durability::CHECKPOINT_FILE);
        let tmp = ckpt.with_extension("tmp");
        let engine = FleetEngine::new(durable_config(&dir, 3)).unwrap();
        let reference =
            FleetEngine::new(FleetConfig { shards: 2, ..FleetConfig::default() }).unwrap();
        for id in 0..6u64 {
            engine.register(id).unwrap();
            reference.register(id).unwrap();
        }
        drive(&engine, 6, 90);
        drive(&reference, 6, 90);
        let first_seq = engine.checkpoint_durable().unwrap();
        let first = std::fs::read(&ckpt).unwrap();
        drive(&engine, 6, 25);
        drive(&reference, 6, 25);
        let d = engine.shared.durability.as_ref().unwrap();
        let pending = d.records_since_ckpt.load(Ordering::Relaxed);
        assert_eq!(pending, 25);
        let segments = wal_segments(&dir);
        assert!(!segments.is_empty());

        // The write fails mid-image: a few KiB of it are in CHECKPOINT.tmp.
        assert!(engine.debug_fail_next_checkpoint_after(5_000));
        assert!(engine.checkpoint_durable().is_err());
        assert!(std::fs::read(&ckpt).unwrap() == first, "the previous checkpoint is intact");
        assert_eq!(wal_segments(&dir), segments, "no WAL segment was truncated");
        assert_eq!(d.records_since_ckpt.load(Ordering::Relaxed), pending, "trigger not reset");
        assert_eq!(engine.shared.obs.checkpoints.get(), 1, "only the first one counts");
        let partial = std::fs::metadata(&tmp).unwrap().len();
        assert!(partial > 5_000 && partial < first.len() as u64, "{partial} B left in the tmp");

        // The crash that follows: recovery ignores the partial tmp, starts
        // from the previous checkpoint and replays the whole tail.
        drop(engine);
        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 3), StreamConfig::default()).unwrap();
        assert!(summary.clean(), "{summary:?}");
        assert_eq!(summary.checkpoint_seq, first_seq);
        assert_eq!(summary.replayed_records, 25);
        assert!(back.checkpoint() == reference.checkpoint(), "bit-identical");

        // The next checkpoint overwrites the leftover and lands.
        let seq = back.checkpoint_durable().unwrap();
        assert_eq!(seq, first_seq + 25);
        assert!(!tmp.exists());
        // A tmp path that cannot even be created fails the write the same way.
        std::fs::create_dir(&tmp).unwrap();
        let kept = std::fs::read(&ckpt).unwrap();
        assert!(back.checkpoint_durable().is_err());
        assert!(std::fs::read(&ckpt).unwrap() == kept);
        std::fs::remove_dir(&tmp).unwrap();
        drop(back);
        let (back, summary) =
            FleetEngine::recover(durable_config(&dir, 3), StreamConfig::default()).unwrap();
        assert_eq!(summary.checkpoint_seq, seq);
        assert_eq!(summary.replayed_records, 0);
        assert!(back.checkpoint() == reference.checkpoint());
        drop(back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn push_seq_is_engine_wide() {
        let engine = small_fleet(4);
        for id in 0..8u64 {
            engine.register(id).unwrap();
        }
        for round in 0..10u64 {
            let batch: Vec<(StreamId, f64)> = (0..8).map(|id| (id, 20.0 + round as f64)).collect();
            engine.push_batch(&batch);
        }
        engine.flush();
        // All streams were active through the last batch: nothing expires at
        // a one-batch horizon.
        assert!(engine.sweep_idle(8).is_empty());
    }
}
