//! [`TraceStore`]: the one handle binding WAL, memtable, and tiers.
//!
//! Appends go to the WAL first (that is the durability point — callers ack
//! only after the append returns), then into a pending queue that a
//! background compactor folds into the memtable and per-stream tier
//! cascades. WAL order and compaction order are identical (the pending
//! queue is filled under the WAL lock), so the in-memory state is a pure
//! function of the record sequence — replaying the WAL after a crash
//! rebuilds it exactly.
//!
//! [`TraceStore::persist_archive`] snapshots memtable + tiers into the
//! `STORARCH` sidecar tagged with the covered WAL sequence; recovery loads
//! the sidecar (degrading to empty if corrupt), replays the WAL tail into
//! both the in-memory state (`seq > sidecar.seq`) and the caller's callback
//! (`seq > start_after`), and reopens the log on a fresh segment.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::archive::{self, ArchiveSnapshot, StreamSnapshot};
use crate::memtable::Memtable;
use crate::record::{RegisterTuning, Sample, WalRecord};
use crate::tiers::{vmkusage_tiers, TierSpec, TieredArchive};
use crate::wal::{AppendInfo, RecoveryReport, Wal, WalOptions, WalStats};
use crate::{Result, StoreError};

const ARCHIVE_FILE: &str = "ARCHIVE";

/// Store construction options.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Write-ahead log options.
    pub wal: WalOptions,
    /// Raw samples retained per stream in the memtable.
    pub memtable_rows: usize,
    /// Tier layout for every stream's archive.
    pub tiers: Vec<TierSpec>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { wal: WalOptions::default(), memtable_rows: 256, tiers: vmkusage_tiers() }
    }
}

/// Counter snapshot for observability.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// WAL counters.
    pub wal: WalStats,
    /// Compactor drain cycles completed.
    pub compactions: u64,
    /// Samples folded into memtable + tiers.
    pub compacted_samples: u64,
    /// Operations queued for the compactor right now.
    pub pending_ops: u64,
    /// Streams currently tracked.
    pub streams: u64,
}

/// What recovery found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovered {
    /// WAL scan outcome (gaps, torn tail, corruption counts).
    pub wal: RecoveryReport,
    /// WAL sequence the archive sidecar covered (0 = none).
    pub archive_seq: u64,
    /// Streams restored from the sidecar.
    pub archive_streams: u64,
    /// The sidecar existed but failed validation and was discarded.
    pub archive_corrupt: bool,
}

#[derive(Debug)]
enum Op {
    Samples(Vec<Sample>),
    Register(u64),
    Evict(u64),
}

struct StreamState {
    /// Next minute assigned to an unstamped sample (mirrors the serving
    /// engine's per-stream clock rule).
    next_minute: u64,
    archive: TieredArchive,
}

struct Inner {
    memtable: Memtable,
    streams: HashMap<u64, StreamState>,
}

struct Pending {
    ops: VecDeque<Op>,
    busy: bool,
    shutdown: bool,
}

struct Shared {
    options: StoreOptions,
    wal: Mutex<Wal>,
    inner: Mutex<Inner>,
    pending: Mutex<Pending>,
    not_empty: Condvar,
    drained: Condvar,
    compactions: AtomicU64,
    compacted_samples: AtomicU64,
}

/// Durable trace store handle. All methods take `&self`; appends serialize
/// on the internal WAL lock.
pub struct TraceStore {
    shared: Arc<Shared>,
    dir: PathBuf,
    compactor: Option<JoinHandle<()>>,
}

impl TraceStore {
    /// Creates a fresh store in `dir` (created if missing; must not already
    /// hold a WAL).
    pub fn create(dir: &Path, options: StoreOptions) -> Result<TraceStore> {
        validate(&options)?;
        let wal = Wal::create(dir, options.wal.clone())?;
        Ok(Self::start(
            dir,
            options,
            wal,
            Inner {
                memtable: Memtable::new(usize::MAX), // replaced below
                streams: HashMap::new(),
            },
        ))
    }

    /// Recovers a store from `dir`: loads the archive sidecar (degrading to
    /// empty if corrupt), replays the WAL tail into the in-memory state, and
    /// delivers every record with `seq > start_after` to `apply` in order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for `start_after == u64::MAX` (a forged
    /// checkpoint: no record could follow it); I/O and configuration errors
    /// as for [`Wal::recover`].
    pub fn recover<F: FnMut(u64, WalRecord)>(
        dir: &Path,
        options: StoreOptions,
        start_after: u64,
        mut apply: F,
    ) -> Result<(TraceStore, Recovered)> {
        validate(&options)?;
        crate::wal::check_resume_point(start_after)?;
        let mut recovered = Recovered::default();
        let mut inner =
            Inner { memtable: Memtable::new(options.memtable_rows), streams: HashMap::new() };
        match archive::read_archive(&dir.join(ARCHIVE_FILE)) {
            Ok(Some(snap)) => {
                recovered.archive_seq = snap.seq;
                recovered.archive_streams = snap.streams.len() as u64;
                inner.memtable = snap.memtable;
                for s in snap.streams {
                    inner.streams.insert(
                        s.id,
                        StreamState { next_minute: s.next_minute, archive: s.archive },
                    );
                }
            }
            Ok(None) => {}
            Err(StoreError::Corrupt(_)) => recovered.archive_corrupt = true,
            Err(e) => return Err(e),
        }

        // Scan from the lower of the two thresholds: the sidecar and the
        // caller's checkpoint usually coincide, but a crash between the two
        // writes (or a corrupt sidecar) can leave them apart.
        let archive_seq = recovered.archive_seq;
        let low_water = start_after.min(archive_seq);
        let tiers = options.tiers.clone();
        let mut delivered = 0u64;
        let (wal, mut report) = Wal::recover(dir, options.wal.clone(), low_water, |seq, rec| {
            if seq > archive_seq {
                apply_record(&mut inner, &tiers, &rec);
            }
            if seq > start_after {
                delivered += 1;
                apply(seq, rec);
            }
        })?;
        // Report replay from the caller's point of view: records it saw.
        report.skipped += report.replayed - delivered;
        report.replayed = delivered;
        recovered.wal = report;
        Ok((Self::start(dir, options, wal, inner), recovered))
    }

    fn start(dir: &Path, options: StoreOptions, wal: Wal, mut inner: Inner) -> TraceStore {
        if inner.memtable.rows_per_stream() != options.memtable_rows {
            inner.memtable = Memtable::new(options.memtable_rows);
        }
        let shared = Arc::new(Shared {
            wal: Mutex::new(wal),
            inner: Mutex::new(inner),
            pending: Mutex::new(Pending { ops: VecDeque::new(), busy: false, shutdown: false }),
            not_empty: Condvar::new(),
            drained: Condvar::new(),
            compactions: AtomicU64::new(0),
            compacted_samples: AtomicU64::new(0),
            options,
        });
        let worker = Arc::clone(&shared);
        let compactor = std::thread::Builder::new()
            .name("store-compactor".into())
            .spawn(move || compactor_loop(&worker))
            .expect("spawn store compactor");
        TraceStore { shared, dir: dir.to_path_buf(), compactor: Some(compactor) }
    }

    /// Appends a batch of samples: durable once this returns (ack after, not
    /// before). The batch is queued for background compaction in WAL order.
    pub fn append_samples(&self, samples: &[Sample]) -> Result<AppendInfo> {
        let mut wal = self.shared.wal.lock().expect("wal lock");
        let info = wal.append_samples(samples)?;
        self.enqueue(Op::Samples(samples.to_vec()));
        Ok(info)
    }

    /// Appends a stream registration.
    pub fn append_register(&self, id: u64, tuning: &RegisterTuning) -> Result<AppendInfo> {
        let mut wal = self.shared.wal.lock().expect("wal lock");
        let info = wal.append_register(id, tuning)?;
        self.enqueue(Op::Register(id));
        Ok(info)
    }

    /// Appends a stream eviction.
    pub fn append_evict(&self, id: u64) -> Result<AppendInfo> {
        let mut wal = self.shared.wal.lock().expect("wal lock");
        let info = wal.append_evict(id)?;
        self.enqueue(Op::Evict(id));
        Ok(info)
    }

    /// Called with the WAL lock held, so queue order == WAL order.
    fn enqueue(&self, op: Op) {
        let mut pending = self.shared.pending.lock().expect("pending lock");
        pending.ops.push_back(op);
        drop(pending);
        self.shared.not_empty.notify_one();
    }

    /// Blocks until every queued operation has been folded into the
    /// memtable and tiers.
    pub fn flush(&self) {
        let mut pending = self.shared.pending.lock().expect("pending lock");
        while !pending.ops.is_empty() || pending.busy {
            pending = self.shared.drained.wait(pending).expect("drained wait");
        }
    }

    /// Fsyncs the WAL's active segment.
    pub fn sync(&self) -> Result<()> {
        self.shared.wal.lock().expect("wal lock").sync()
    }

    /// Snapshots memtable + tiers into the archive sidecar, tagged with the
    /// highest appended WAL sequence. Call from a quiesced point (no
    /// concurrent appends) so the tag is exact; returns the covered seq.
    pub fn persist_archive(&self) -> Result<u64> {
        self.flush();
        let wal = self.shared.wal.lock().expect("wal lock");
        let seq = wal.next_seq() - 1;
        let inner = self.shared.inner.lock().expect("inner lock");
        let mut streams: Vec<StreamSnapshot> = inner
            .streams
            .iter()
            .map(|(id, s)| StreamSnapshot {
                id: *id,
                next_minute: s.next_minute,
                archive: s.archive.clone(),
            })
            .collect();
        streams.sort_by_key(|s| s.id);
        let snap = ArchiveSnapshot { seq, memtable: inner.memtable.clone(), streams };
        drop(inner);
        archive::write_archive(&self.dir.join(ARCHIVE_FILE), &snap)?;
        drop(wal);
        Ok(seq)
    }

    /// Deletes WAL segments fully covered by `seq` (normally the sequence
    /// returned by [`TraceStore::persist_archive`]). Returns segments
    /// removed.
    pub fn truncate_upto(&self, seq: u64) -> Result<u64> {
        self.shared.wal.lock().expect("wal lock").truncate_upto(seq)
    }

    /// Raw samples of `stream` in `[from, to]` minutes, from the memtable.
    pub fn query_raw(&self, stream: u64, from: u64, to: u64) -> Vec<(u64, f64)> {
        self.shared.inner.lock().expect("inner lock").memtable.query(stream, from, to)
    }

    /// Consolidated rows of `stream` for `[start, end)` minutes at
    /// `interval` (see [`TieredArchive::query`]).
    pub fn query_archive(
        &self,
        stream: u64,
        start_minute: u64,
        end_minute: u64,
        interval_minutes: u64,
    ) -> Option<Vec<f64>> {
        self.shared.inner.lock().expect("inner lock").streams.get(&stream)?.archive.query(
            start_minute,
            end_minute,
            interval_minutes,
        )
    }

    /// Next WAL sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.shared.wal.lock().expect("wal lock").next_seq()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let wal = self.shared.wal.lock().expect("wal lock").stats();
        let pending_ops = self.shared.pending.lock().expect("pending lock").ops.len() as u64;
        let streams = self.shared.inner.lock().expect("inner lock").streams.len() as u64;
        StoreStats {
            wal,
            compactions: self.shared.compactions.load(Ordering::Relaxed),
            compacted_samples: self.shared.compacted_samples.load(Ordering::Relaxed),
            pending_ops,
            streams,
        }
    }
}

impl Drop for TraceStore {
    fn drop(&mut self) {
        {
            let mut pending = self.shared.pending.lock().expect("pending lock");
            pending.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        if let Some(handle) = self.compactor.take() {
            let _ = handle.join();
        }
    }
}

fn validate(options: &StoreOptions) -> Result<()> {
    if options.memtable_rows == 0 {
        return Err(StoreError::InvalidConfig("memtable_rows must be positive".into()));
    }
    // Tier layout errors surface here rather than on first sample.
    TieredArchive::new(options.tiers.clone())?;
    Ok(())
}

fn compactor_loop(shared: &Shared) {
    let mut batch: Vec<Op> = Vec::new();
    loop {
        {
            let mut pending = shared.pending.lock().expect("pending lock");
            while pending.ops.is_empty() && !pending.shutdown {
                pending = shared.not_empty.wait(pending).expect("not_empty wait");
            }
            if pending.ops.is_empty() && pending.shutdown {
                return;
            }
            batch.extend(pending.ops.drain(..));
            pending.busy = true;
        }
        let mut samples = 0u64;
        {
            let mut inner = shared.inner.lock().expect("inner lock");
            for op in batch.drain(..) {
                match op {
                    Op::Samples(s) => {
                        samples += s.len() as u64;
                        for sample in &s {
                            apply_sample(&mut inner, &shared.options.tiers, sample);
                        }
                    }
                    Op::Register(id) => apply_register(&mut inner, &shared.options.tiers, id),
                    Op::Evict(id) => apply_evict(&mut inner, id),
                }
            }
        }
        shared.compactions.fetch_add(1, Ordering::Relaxed);
        shared.compacted_samples.fetch_add(samples, Ordering::Relaxed);
        {
            let mut pending = shared.pending.lock().expect("pending lock");
            pending.busy = false;
            if pending.ops.is_empty() {
                shared.drained.notify_all();
            }
        }
    }
}

/// Applies one replayed WAL record to the in-memory state (recovery path;
/// identical logic to the compactor's live path).
fn apply_record(inner: &mut Inner, tiers: &[TierSpec], rec: &WalRecord) {
    match rec {
        WalRecord::Samples(samples) => {
            for s in samples {
                apply_sample(inner, tiers, s);
            }
        }
        WalRecord::Register { id, .. } => apply_register(inner, tiers, *id),
        WalRecord::Evict { id } => apply_evict(inner, *id),
    }
}

fn apply_sample(inner: &mut Inner, tiers: &[TierSpec], sample: &Sample) {
    let state = inner.streams.entry(sample.stream).or_insert_with(|| StreamState {
        next_minute: 0,
        archive: TieredArchive::new(tiers.to_vec()).expect("tiers validated at construction"),
    });
    // The serving engine's clock rule: an unstamped sample lands on the
    // stream's next minute; an explicit minute advances the clock past it.
    let minute = sample.minute.unwrap_or(state.next_minute);
    state.next_minute = state.next_minute.max(minute + 1);
    state.archive.record(minute, sample.value);
    inner.memtable.insert(sample.stream, minute, sample.value);
}

fn apply_register(inner: &mut Inner, tiers: &[TierSpec], id: u64) {
    inner.streams.entry(id).or_insert_with(|| StreamState {
        next_minute: 0,
        archive: TieredArchive::new(tiers.to_vec()).expect("tiers validated at construction"),
    });
}

fn apply_evict(inner: &mut Inner, id: u64) {
    inner.streams.remove(&id);
    inner.memtable.evict(id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("store-ts-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tuning() -> RegisterTuning {
        RegisterTuning {
            train_size: 40,
            qa_window: 8,
            qa_period: 4,
            qa_threshold: 2.0,
            f32_history: false,
        }
    }

    #[test]
    fn ingest_compacts_into_memtable_and_tiers() {
        let dir = temp_dir("ingest");
        let store = TraceStore::create(&dir, StoreOptions::default()).unwrap();
        store.append_register(5, &tuning()).unwrap();
        for m in 0..30u64 {
            store
                .append_samples(&[Sample { stream: 5, minute: Some(m), value: m as f64 }])
                .unwrap();
        }
        store.flush();
        assert_eq!(store.query_raw(5, 10, 12), vec![(10, 10.0), (11, 11.0), (12, 12.0)]);
        assert_eq!(store.query_archive(5, 0, 10, 5).unwrap(), vec![2.0, 7.0]);
        let stats = store.stats();
        assert_eq!(stats.compacted_samples, 30);
        assert_eq!(stats.streams, 1);
        assert_eq!(stats.wal.records, 31);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unstamped_samples_follow_the_clock_rule() {
        let dir = temp_dir("clock");
        let store = TraceStore::create(&dir, StoreOptions::default()).unwrap();
        store
            .append_samples(&[
                Sample { stream: 1, minute: None, value: 1.0 },
                Sample { stream: 1, minute: Some(10), value: 2.0 },
                Sample { stream: 1, minute: None, value: 3.0 },
            ])
            .unwrap();
        store.flush();
        assert_eq!(store.query_raw(1, 0, 100), vec![(0, 1.0), (10, 2.0), (11, 3.0)]);
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rebuilds_state_from_sidecar_plus_tail() {
        let dir = temp_dir("recover");
        let store = TraceStore::create(&dir, StoreOptions::default()).unwrap();
        store.append_register(9, &tuning()).unwrap();
        for m in 0..20u64 {
            store
                .append_samples(&[Sample { stream: 9, minute: Some(m), value: m as f64 }])
                .unwrap();
        }
        let covered = store.persist_archive().unwrap();
        assert_eq!(covered, 21);
        for m in 20..35u64 {
            store
                .append_samples(&[Sample { stream: 9, minute: Some(m), value: m as f64 }])
                .unwrap();
        }
        store.flush();
        let raw_before = store.query_raw(9, 0, 100);
        let tier_before = store.query_archive(9, 0, 30, 5);
        drop(store);

        let mut replayed = Vec::new();
        let (back, recovered) =
            TraceStore::recover(&dir, StoreOptions::default(), covered, |seq, rec| {
                replayed.push((seq, rec));
            })
            .unwrap();
        assert_eq!(recovered.archive_seq, 21);
        assert_eq!(recovered.archive_streams, 1);
        assert!(!recovered.archive_corrupt);
        assert_eq!(recovered.wal.replayed, 15);
        assert_eq!(recovered.wal.gap_records, 0);
        assert_eq!(replayed.len(), 15);
        back.flush();
        assert_eq!(back.query_raw(9, 0, 100), raw_before);
        assert_eq!(back.query_archive(9, 0, 30, 5), tier_before);
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sidecar_degrades_to_full_replay() {
        let dir = temp_dir("sidecar");
        let store = TraceStore::create(&dir, StoreOptions::default()).unwrap();
        for m in 0..10u64 {
            store
                .append_samples(&[Sample { stream: 2, minute: Some(m), value: m as f64 }])
                .unwrap();
        }
        store.persist_archive().unwrap();
        drop(store);
        // Flip a byte in the sidecar.
        let path = dir.join(ARCHIVE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let (back, recovered) =
            TraceStore::recover(&dir, StoreOptions::default(), 0, |_, _| {}).unwrap();
        assert!(recovered.archive_corrupt);
        assert_eq!(recovered.archive_seq, 0);
        // Full WAL replay still rebuilds the query surface.
        back.flush();
        assert_eq!(back.query_raw(2, 0, 100).len(), 10);
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }
}
