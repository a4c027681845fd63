//! Segmented write-ahead log with manifest, rotation, and graceful recovery.
//!
//! On-disk layout inside the WAL directory:
//!
//! ```text
//! MANIFEST              magic "STORMAN1" | count u32 | first_seq u64 × count | crc
//!                       (sealed and replaced atomically, see crate::codec)
//! <first_seq:016x>.seg  magic "STORSEG1" | first_seq u64 | records...
//! ```
//!
//! Records are the [`crate::record`] codec: contiguous sequence numbers,
//! CRC-checked bodies. Appends go to the newest (active) segment; when it
//! exceeds `segment_bytes` it is sealed (fsynced) and a fresh segment opens.
//!
//! Recovery scans segments in manifest order and *degrades, never panics*:
//!
//! * **covered segment** — one whose whole range is `<= start_after` (the
//!   next listed segment starts at or before `start_after + 1`) is not read:
//!   the checkpoint already holds its records. A covered segment that is
//!   missing is not a loss either — [`Wal::truncate_upto`] unlinks covered
//!   segments before it rewrites the manifest, so a crash in between leaves
//!   a manifest naming them;
//! * **missing segment** — counted, the seq jump at the next segment becomes
//!   a counted gap;
//! * **bad magic / mid-segment corruption** — scan of that segment stops at
//!   the last valid record, stranded bytes are counted, later segments still
//!   scan (their records gap-checked by sequence number);
//! * **torn tail** — a partial record at the end of the final segment is the
//!   expected artifact of a crash mid-write and is tolerated silently apart
//!   from the `torn_tail` flag;
//! * **corrupt or missing manifest** — falls back to a directory scan of
//!   `*.seg` files sorted by name.
//!
//! After recovery the log never appends after a possibly-damaged tail: a
//! fresh segment is opened at `last_seq + 1`.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{self, Reader};
use crate::record::{self, RegisterTuning, Sample, WalRecord};
use crate::{Result, StoreError};

const SEG_MAGIC: &[u8; 8] = b"STORSEG1";
const MAN_MAGIC: &[u8; 8] = b"STORMAN1";
const MANIFEST: &str = "MANIFEST";
const SEG_HEADER_LEN: u64 = 16;

/// When appends are flushed to the disk platter (as opposed to the OS page
/// cache, which `write` alone reaches and which survives process death).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record — power-loss safe, slowest.
    Always,
    /// `fsync` every N records.
    EveryRecords(u32),
    /// `fsync` only when sealing a segment, on [`Wal::sync`], and on drop.
    /// Survives `kill -9` (page cache persists) but not power loss of the
    /// whole machine. The default.
    OnRotate,
}

/// WAL construction options.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate the active segment once it holds at least this many bytes.
    pub segment_bytes: u64,
    /// Durability/latency trade-off for appends.
    pub fsync: FsyncPolicy,
    /// Keep fully-checkpointed segments on disk instead of deleting them in
    /// [`Wal::truncate_upto`]. Lets a reference process replay the complete
    /// history (the crash harness uses this).
    pub retain_segments: bool,
    /// Per-record payload cap enforced on both encode and decode.
    pub max_payload: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::OnRotate,
            retain_segments: false,
            max_payload: record::MAX_RECORD_PAYLOAD,
        }
    }
}

/// What one append did.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Encoded record size in bytes.
    pub bytes: usize,
    /// Whether this append sealed the previous segment and opened a new one.
    pub rotated: bool,
    /// Whether this append fsynced the active segment.
    pub fsynced: bool,
}

/// Counters for the life of this `Wal` handle (not persisted).
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Record bytes appended (excluding segment headers).
    pub bytes: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Segment rotations.
    pub rotations: u64,
    /// Segments currently tracked by the manifest.
    pub segments: u64,
    /// Next sequence number to be assigned.
    pub next_seq: u64,
}

/// What recovery found while scanning the log.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Records delivered to the replay callback (`seq > start_after`).
    pub replayed: u64,
    /// Valid records read but not delivered: `seq <= start_after` in a
    /// segment that was scanned, or a repeated sequence number. Covered
    /// segments are not read, so their records are not counted here.
    pub skipped: u64,
    /// Records known lost via sequence-number discontinuities.
    pub gap_records: u64,
    /// Bytes abandoned after a permanent mid-segment corruption.
    pub stranded_bytes: u64,
    /// A partial record ended the final segment (crash mid-write).
    pub torn_tail: bool,
    /// Segments whose scan hit permanent corruption (bad magic, bad CRC,
    /// undecodable payload, or an unexpected mid-file truncation).
    pub corrupt_segments: u64,
    /// Segments listed in the manifest but absent on disk, not counting
    /// covered ones.
    pub missing_segments: u64,
    /// The manifest itself was missing or corrupt; segment list rebuilt from
    /// a directory scan.
    pub manifest_rebuilt: bool,
    /// Highest valid sequence number seen (0 if none).
    pub last_seq: u64,
}

/// Append-only segmented log. Single-writer: callers serialize appends
/// (the fleet engine wraps it in a mutex).
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    file: File,
    segments: Vec<u64>,
    segment_written: u64,
    next_seq: u64,
    unsynced: u32,
    buf: Vec<u8>,
    stats: WalStats,
}

impl Wal {
    /// Creates a fresh log in `dir` (created if missing). Fails if a
    /// manifest already exists — recovery must be explicit, never implicit.
    pub fn create(dir: &Path, options: WalOptions) -> Result<Wal> {
        validate(&options)?;
        fs::create_dir_all(dir)?;
        if dir.join(MANIFEST).exists() {
            return Err(StoreError::InvalidConfig(format!(
                "{} already holds a WAL; use recover",
                dir.display()
            )));
        }
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            options,
            file: open_segment(dir, 1)?,
            segments: vec![1],
            segment_written: SEG_HEADER_LEN,
            next_seq: 1,
            unsynced: 0,
            buf: Vec::new(),
            stats: WalStats::default(),
        };
        wal.write_manifest()?;
        Ok(wal)
    }

    /// Scans an existing log, invoking `apply` for every valid record with
    /// `seq > start_after` (in order), and reopens the log for appending on
    /// a fresh segment. Corruption degrades to counted gaps in the report.
    /// Covered segments are skipped unread, as in [`read_tail`]; the ones
    /// still on disk stay in the manifest for [`Wal::truncate_upto`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for `start_after == u64::MAX` (no record
    /// could follow it); [`StoreError::InvalidConfig`] and
    /// [`StoreError::Io`] for a bad directory or real I/O failures.
    pub fn recover<F: FnMut(u64, WalRecord)>(
        dir: &Path,
        options: WalOptions,
        start_after: u64,
        mut apply: F,
    ) -> Result<(Wal, RecoveryReport)> {
        validate(&options)?;
        check_resume_point(start_after)?;
        if !dir.is_dir() {
            return Err(StoreError::InvalidConfig(format!("{} is not a directory", dir.display())));
        }
        let mut report = RecoveryReport::default();
        let listed = match read_manifest(dir) {
            Some(list) => list,
            None => {
                report.manifest_rebuilt = true;
                scan_segment_dir(dir)?
            }
        };

        let mut kept: Vec<u64> = Vec::new();
        // 0 = "no baseline yet": the first valid record anchors continuity.
        let mut expected = 0u64;
        let last_listed = listed.last().copied();
        for (i, first_seq) in listed.iter().enumerate() {
            let path = dir.join(segment_name(*first_seq));
            if covered(&listed, i, start_after) {
                if path.exists() {
                    kept.push(*first_seq);
                }
                continue;
            }
            let data = match fs::read(&path) {
                Ok(d) => d,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.missing_segments += 1;
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            kept.push(*first_seq);
            if data.len() < SEG_HEADER_LEN as usize || &data[..8] != SEG_MAGIC {
                report.corrupt_segments += 1;
                report.stranded_bytes += data.len() as u64;
                continue;
            }
            let is_last = Some(*first_seq) == last_listed;
            scan_segment(
                &data[SEG_HEADER_LEN as usize..],
                options.max_payload,
                is_last,
                start_after,
                &mut expected,
                &mut report,
                &mut apply,
            );
        }
        report.last_seq = if expected > 0 { expected - 1 } else { 0 };

        // Never append after a possibly-damaged tail: open a new segment.
        // If the old active segment held zero valid records it has the same
        // first-seq; open_segment truncates it, so don't list it twice.
        // Cannot overflow: `start_after < u64::MAX` was checked above, and
        // the scan refuses a record at `u64::MAX`.
        let next_seq = report.last_seq.max(start_after) + 1;
        let file = open_segment(dir, next_seq)?;
        if kept.last() == Some(&next_seq) {
            kept.pop();
        }
        kept.push(next_seq);
        let mut wal = Wal {
            dir: dir.to_path_buf(),
            options,
            file,
            segments: kept,
            segment_written: SEG_HEADER_LEN,
            next_seq,
            unsynced: 0,
            buf: Vec::new(),
            stats: WalStats::default(),
        };
        wal.write_manifest()?;
        Ok((wal, report))
    }

    /// Appends a batch of samples as one record.
    pub fn append_samples(&mut self, samples: &[Sample]) -> Result<AppendInfo> {
        let seq = self.next_seq;
        record::encode_samples_into(&mut self.buf, seq, samples);
        self.append_encoded()
    }

    /// Appends a stream registration.
    pub fn append_register(&mut self, id: u64, tuning: &RegisterTuning) -> Result<AppendInfo> {
        let seq = self.next_seq;
        record::encode_register_into(&mut self.buf, seq, id, tuning);
        self.append_encoded()
    }

    /// Appends a stream eviction.
    pub fn append_evict(&mut self, id: u64) -> Result<AppendInfo> {
        let seq = self.next_seq;
        record::encode_evict_into(&mut self.buf, seq, id);
        self.append_encoded()
    }

    fn append_encoded(&mut self) -> Result<AppendInfo> {
        let mut rotated = false;
        if self.segment_written >= self.options.segment_bytes {
            self.rotate()?;
            rotated = true;
        }
        self.file.write_all(&self.buf)?;
        self.segment_written += self.buf.len() as u64;
        self.unsynced += 1;
        let fsynced = match self.options.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryRecords(n) => self.unsynced >= n.max(1),
            FsyncPolicy::OnRotate => false,
        };
        if fsynced {
            self.sync()?;
        }
        let info = AppendInfo { seq: self.next_seq, bytes: self.buf.len(), rotated, fsynced };
        self.next_seq += 1;
        self.stats.records += 1;
        self.stats.bytes += info.bytes as u64;
        Ok(info)
    }

    fn rotate(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.file = open_segment(&self.dir, self.next_seq)?;
        self.segments.push(self.next_seq);
        self.segment_written = SEG_HEADER_LEN;
        self.unsynced = 0;
        self.stats.rotations += 1;
        self.write_manifest()
    }

    /// Fsyncs the active segment.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        self.stats.fsyncs += 1;
        Ok(())
    }

    /// Deletes sealed segments whose every record has `seq <= upto` (they
    /// are covered by a checkpoint). Returns how many were removed; a no-op
    /// when `retain_segments` is set.
    pub fn truncate_upto(&mut self, upto: u64) -> Result<u64> {
        if self.options.retain_segments {
            return Ok(0);
        }
        let mut removed = 0u64;
        // Segment i covers [segments[i], segments[i+1] - 1]; the active
        // (last) segment is never removed.
        while self.segments.len() > 1 && self.segments[1] <= upto + 1 {
            let first = self.segments.remove(0);
            match fs::remove_file(self.dir.join(segment_name(first))) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            removed += 1;
        }
        if removed > 0 {
            self.write_manifest()?;
        }
        Ok(removed)
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Lifetime counters for this handle.
    pub fn stats(&self) -> WalStats {
        WalStats { segments: self.segments.len() as u64, next_seq: self.next_seq, ..self.stats }
    }

    fn write_manifest(&mut self) -> Result<()> {
        let mut buf = Vec::with_capacity(16 + self.segments.len() * 8);
        buf.extend_from_slice(MAN_MAGIC);
        buf.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for first in &self.segments {
            buf.extend_from_slice(&first.to_le_bytes());
        }
        codec::seal(&mut buf);
        codec::write_atomic(&self.dir.join(MANIFEST), &buf)?;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.file.sync_data();
    }
}

fn validate(options: &WalOptions) -> Result<()> {
    if options.segment_bytes < 64 {
        return Err(StoreError::InvalidConfig("segment_bytes must be >= 64".into()));
    }
    if options.max_payload == 0 || options.max_payload > record::MAX_RECORD_PAYLOAD {
        return Err(StoreError::InvalidConfig(format!(
            "max_payload must be in 1..={}",
            record::MAX_RECORD_PAYLOAD
        )));
    }
    Ok(())
}

fn segment_name(first_seq: u64) -> String {
    format!("{first_seq:016x}.seg")
}

fn open_segment(dir: &Path, first_seq: u64) -> Result<File> {
    let path = dir.join(segment_name(first_seq));
    let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
    let mut header = [0u8; SEG_HEADER_LEN as usize];
    header[..8].copy_from_slice(SEG_MAGIC);
    header[8..].copy_from_slice(&first_seq.to_le_bytes());
    file.write_all(&header)?;
    Ok(file)
}

fn read_manifest(dir: &Path) -> Option<Vec<u64>> {
    let buf = fs::read(dir.join(MANIFEST)).ok()?;
    let mut r = Reader::new(codec::unseal(&buf)?);
    if r.bytes(MAN_MAGIC.len()).ok()? != MAN_MAGIC {
        return None;
    }
    let count = r.len(8).ok()?;
    let segments = (0..count).map(|_| r.u64()).collect::<std::result::Result<Vec<u64>, _>>();
    r.finish().ok()?;
    segments.ok()
}

/// Fallback when the manifest is unusable: every `*.seg` file, ordered by
/// its hex first-seq name.
fn scan_segment_dir(dir: &Path) -> Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(hex) = name.strip_suffix(".seg") {
            if let Ok(first) = u64::from_str_radix(hex, 16) {
                out.push(first);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Refuses a resume point with no sequence number after it: a checkpoint
/// claiming to cover `u64::MAX` is forged or corrupt, and the log could not
/// continue past it.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] for `start_after == u64::MAX`.
fn check_resume_point(start_after: u64) -> Result<()> {
    if start_after == u64::MAX {
        return Err(StoreError::Corrupt(format!(
            "resume point {start_after} leaves no sequence number for the next record"
        )));
    }
    Ok(())
}

/// The coverage rule both scans share: segment `i` of `listed` covers
/// `[listed[i], listed[i + 1] - 1]`, so it holds nothing past `start_after`
/// when the next segment starts at or before `start_after + 1`. The last
/// listed segment is never covered.
fn covered(listed: &[u64], i: usize, start_after: u64) -> bool {
    listed.get(i + 1).is_some_and(|next| *next <= start_after.saturating_add(1))
}

/// Scans one segment's record area, updating continuity state and the
/// report. Stops at the first undecodable offset, and at a record numbered
/// `u64::MAX` (no record can follow it, so it is counted as corruption).
fn scan_segment<F: FnMut(u64, WalRecord)>(
    mut data: &[u8],
    max_payload: usize,
    is_last_segment: bool,
    start_after: u64,
    expected: &mut u64,
    report: &mut RecoveryReport,
    apply: &mut F,
) {
    loop {
        match record::decode(data, max_payload) {
            Ok((seq, rec, used)) if seq < u64::MAX => {
                data = &data[used..];
                if *expected != 0 && seq < *expected {
                    // Replay of an already-seen seq (e.g. overlap after a
                    // rebuilt manifest) — ignore, continuity unchanged.
                    report.skipped += 1;
                    continue;
                }
                if *expected != 0 && seq > *expected {
                    report.gap_records += seq - *expected;
                }
                if seq > start_after {
                    apply(seq, rec);
                    report.replayed += 1;
                } else {
                    report.skipped += 1;
                }
                *expected = seq + 1;
            }
            Err(record::RecordError::Truncated) => {
                if !data.is_empty() {
                    report.stranded_bytes += data.len() as u64;
                    if is_last_segment {
                        report.torn_tail = true;
                    } else {
                        report.corrupt_segments += 1;
                    }
                }
                return;
            }
            _ => {
                report.stranded_bytes += data.len() as u64;
                report.corrupt_segments += 1;
                return;
            }
        }
    }
}

/// Read-only scan of a WAL directory: delivers every valid record with
/// `seq > start_after` to `apply` in order, without opening the log for
/// appending, rewriting the manifest, or truncating anything.
///
/// This is the streaming-read primitive the cluster tier's warm-standby
/// feeder and failover path use: a live node tails its *own* directory to
/// forward fresh records to its ring successor (appends use plain
/// `write_all`, so an independent reader sees them through the page cache),
/// and a failover heir reads a *dead* node's directory to close the gap
/// between its last standby snapshot and the final acked record. A torn
/// record at the end of the active segment — the normal artifact of reading
/// mid-write or after `kill -9` — is tolerated and flagged, never an error.
///
/// Segments whose whole range is `<= start_after` are skipped without being
/// read. Gap accounting therefore starts at the first scanned segment.
///
/// # Errors
///
/// Returns [`StoreError::InvalidConfig`] if `dir` is not a directory and
/// [`StoreError::Io`] for real I/O failures; corruption degrades to counted
/// gaps in the report exactly as recovery does.
pub fn read_tail<F: FnMut(u64, WalRecord)>(
    dir: &Path,
    start_after: u64,
    mut apply: F,
) -> Result<RecoveryReport> {
    if !dir.is_dir() {
        return Err(StoreError::InvalidConfig(format!("{} is not a directory", dir.display())));
    }
    let max_payload = record::MAX_RECORD_PAYLOAD;
    let mut report = RecoveryReport::default();
    let listed = match read_manifest(dir) {
        Some(list) => list,
        None => {
            report.manifest_rebuilt = true;
            scan_segment_dir(dir)?
        }
    };
    let mut expected = 0u64;
    let last_listed = listed.last().copied();
    for (i, first_seq) in listed.iter().enumerate() {
        if covered(&listed, i, start_after) {
            continue;
        }
        let path = dir.join(segment_name(*first_seq));
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                report.missing_segments += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        if data.len() < SEG_HEADER_LEN as usize || &data[..8] != SEG_MAGIC {
            report.corrupt_segments += 1;
            report.stranded_bytes += data.len() as u64;
            continue;
        }
        let is_last = Some(*first_seq) == last_listed;
        scan_segment(
            &data[SEG_HEADER_LEN as usize..],
            max_payload,
            is_last,
            start_after,
            &mut expected,
            &mut report,
            &mut apply,
        );
    }
    report.last_seq = if expected > 0 { expected - 1 } else { 0 };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("store-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(stream: u64, minute: u64, value: f64) -> Sample {
        Sample { stream, minute: Some(minute), value }
    }

    #[test]
    fn last_sequence_number_is_corruption_not_overflow() {
        let dir = temp_dir("seq-max");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for i in 0..3u64 {
            wal.append_samples(&[sample(7, i, 1.0)]).unwrap();
        }
        let active = dir.join(segment_name(*wal.segments.last().unwrap()));
        drop(wal);
        // A resume point at u64::MAX is refused outright.
        let err = Wal::recover(&dir, WalOptions::default(), u64::MAX, |_, _| {}).err();
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
        // A well-formed record numbered u64::MAX ends the scan as corruption.
        let mut forged = Vec::new();
        record::encode_samples_into(&mut forged, u64::MAX, &[sample(7, 3, 1.0)]);
        let mut file = OpenOptions::new().append(true).open(&active).unwrap();
        file.write_all(&forged).unwrap();
        drop(file);
        let mut seqs = Vec::new();
        let (wal, report) =
            Wal::recover(&dir, WalOptions::default(), 0, |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(report.corrupt_segments, 1);
        assert_eq!(wal.next_seq(), 4);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_then_recover_replays_everything_in_order() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        wal.append_register(
            7,
            &RegisterTuning {
                train_size: 40,
                qa_window: 8,
                qa_period: 4,
                qa_threshold: 2.0,
                f32_history: false,
            },
        )
        .unwrap();
        for i in 0..50u64 {
            wal.append_samples(&[sample(7, i, i as f64 * 0.5)]).unwrap();
        }
        wal.append_evict(7).unwrap();
        drop(wal);

        let mut seen = Vec::new();
        let (wal, report) = Wal::recover(&dir, WalOptions::default(), 0, |seq, rec| {
            seen.push((seq, rec));
        })
        .unwrap();
        assert_eq!(report.replayed, 52);
        assert_eq!(report.gap_records, 0);
        assert_eq!(report.last_seq, 52);
        assert!(!report.torn_tail);
        assert_eq!(wal.next_seq(), 53);
        assert!(matches!(seen[0].1, WalRecord::Register { id: 7, .. }));
        assert!(matches!(seen[51].1, WalRecord::Evict { id: 7 }));
        for (i, (seq, _)) in seen.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
        }
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_tail_streams_a_live_log_without_touching_it() {
        let dir = temp_dir("tail");
        let options = WalOptions { segment_bytes: 256, ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options).unwrap();
        for i in 0..40u64 {
            wal.append_samples(&[sample(3, i, i as f64)]).unwrap();
        }
        // An independent reader sees every append past its cursor while the
        // writer's handle stays open (page-cache visibility).
        let mut seen = Vec::new();
        let report = read_tail(&dir, 25, |seq, _| seen.push(seq)).unwrap();
        assert_eq!(seen, (26..=40).collect::<Vec<u64>>());
        assert_eq!(report.replayed, 15);
        assert_eq!(report.last_seq, 40);
        assert_eq!(report.gap_records, 0);
        assert!(!report.torn_tail);
        // The read was side-effect free: the writer keeps appending with
        // unbroken sequencing.
        for i in 40..45u64 {
            wal.append_samples(&[sample(3, i, i as f64)]).unwrap();
        }
        drop(wal);

        // A partial record at the active tail — what a reader racing a
        // writer (or scanning after kill -9) sees — is tolerated and
        // flagged, never an error.
        let mut segs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        segs.sort();
        let active = segs.last().unwrap();
        let mut data = fs::read(active).unwrap();
        data.extend_from_slice(&[20, 0, 0, 0, 46, 0, 0]);
        fs::write(active, data).unwrap();

        let mut seqs = Vec::new();
        let report = read_tail(&dir, 0, |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(report.replayed, 45);
        assert_eq!(report.last_seq, 45);
        assert!(report.torn_tail);
        assert_eq!(seqs, (1..=45).collect::<Vec<u64>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn start_after_skips_checkpointed_prefix() {
        let dir = temp_dir("startafter");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for i in 0..20u64 {
            wal.append_samples(&[sample(1, i, i as f64)]).unwrap();
        }
        drop(wal);
        let mut seqs = Vec::new();
        let (_wal, report) =
            Wal::recover(&dir, WalOptions::default(), 15, |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(seqs, vec![16, 17, 18, 19, 20]);
        assert_eq!(report.replayed, 5);
        assert_eq!(report.skipped, 15);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_truncate_drop_covered_segments() {
        let dir = temp_dir("rotate");
        let options = WalOptions { segment_bytes: 256, ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options.clone()).unwrap();
        for i in 0..100u64 {
            wal.append_samples(&[sample(1, i, 1.0)]).unwrap();
        }
        let stats = wal.stats();
        assert!(stats.rotations >= 3, "expected rotations, got {}", stats.rotations);
        let before = stats.segments;
        let removed = wal.truncate_upto(60).unwrap();
        assert!(removed > 0);
        assert_eq!(wal.stats().segments, before - removed);
        drop(wal);

        // Everything after the truncation point must still replay.
        let mut seqs = Vec::new();
        let (_wal, report) = Wal::recover(&dir, options, 60, |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(report.replayed, 40);
        assert_eq!(seqs.first(), Some(&61));
        assert_eq!(seqs.last(), Some(&100));
        assert_eq!(report.gap_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = temp_dir("torn");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for i in 0..10u64 {
            wal.append_samples(&[sample(1, i, 1.0)]).unwrap();
        }
        drop(wal);
        let seg = dir.join(segment_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.set_len(len - 5).unwrap();
        drop(file);

        let mut count = 0u64;
        let (_wal, report) =
            Wal::recover(&dir, WalOptions::default(), 0, |_, _| count += 1).unwrap();
        assert_eq!(count, 9);
        assert!(report.torn_tail);
        assert_eq!(report.gap_records, 0);
        assert_eq!(report.last_seq, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_becomes_counted_gap() {
        let dir = temp_dir("missing");
        let options = WalOptions { segment_bytes: 256, ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options.clone()).unwrap();
        for i in 0..100u64 {
            wal.append_samples(&[sample(1, i, 1.0)]).unwrap();
        }
        let segments: Vec<u64> = wal.segments.clone();
        assert!(segments.len() >= 3);
        drop(wal);
        // Remove a middle segment; its span = next first_seq - its first_seq.
        let victim = segments[1];
        let span = segments[2] - segments[1];
        fs::remove_file(dir.join(segment_name(victim))).unwrap();

        let mut count = 0u64;
        let (_wal, report) = Wal::recover(&dir, options, 0, |_, _| count += 1).unwrap();
        assert_eq!(report.missing_segments, 1);
        assert_eq!(report.gap_records, span);
        assert_eq!(count, 100 - span);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `truncate_upto` unlinks covered segments before it rewrites the
    /// manifest. A crash in between leaves the old manifest naming deleted
    /// segments that the checkpoint covers: no record is lost, so recovery
    /// at the covered seq must count no missing segment and no gap.
    #[test]
    fn covered_segments_missing_after_a_crash_mid_truncate_are_not_counted() {
        let dir = temp_dir("mid-truncate");
        let options = WalOptions { segment_bytes: 256, ..WalOptions::default() };
        let mut wal = Wal::create(&dir, options.clone()).unwrap();
        for i in 0..100u64 {
            wal.append_samples(&[sample(1, i, 1.0)]).unwrap();
        }
        let old_manifest = fs::read(dir.join(MANIFEST)).unwrap();
        let removed = wal.truncate_upto(60).unwrap();
        assert!(removed > 0);
        let kept = wal.segments.clone();
        drop(wal);
        fs::write(dir.join(MANIFEST), &old_manifest).unwrap();

        let mut tail = Vec::new();
        let report = read_tail(&dir, 60, |seq, _| tail.push(seq)).unwrap();
        assert_eq!(report.missing_segments, 0);
        let mut seqs = Vec::new();
        let (wal, report) = Wal::recover(&dir, options, 60, |seq, _| seqs.push(seq)).unwrap();
        assert_eq!(report.missing_segments, 0, "{report:?}");
        assert_eq!(report.gap_records, 0, "{report:?}");
        assert_eq!(seqs, (61..=100).collect::<Vec<u64>>());
        assert_eq!(tail, seqs);
        // The rewritten manifest drops the vanished segments and keeps the
        // rest, with the fresh active segment last.
        assert_eq!(wal.segments[..kept.len()], kept[..]);
        assert_eq!(wal.segments.last(), Some(&101));
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_falls_back_to_directory_scan() {
        let dir = temp_dir("manifest");
        let mut wal = Wal::create(&dir, WalOptions::default()).unwrap();
        for i in 0..10u64 {
            wal.append_samples(&[sample(1, i, 1.0)]).unwrap();
        }
        drop(wal);
        fs::write(dir.join(MANIFEST), b"garbage").unwrap();

        let mut count = 0u64;
        let (_wal, report) =
            Wal::recover(&dir, WalOptions::default(), 0, |_, _| count += 1).unwrap();
        assert!(report.manifest_rebuilt);
        assert_eq!(count, 10);
        assert_eq!(report.gap_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_wal() {
        let dir = temp_dir("refuse");
        let wal = Wal::create(&dir, WalOptions::default()).unwrap();
        drop(wal);
        assert!(matches!(
            Wal::create(&dir, WalOptions::default()),
            Err(StoreError::InvalidConfig(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
