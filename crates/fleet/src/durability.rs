//! Durable-ingestion plumbing: the checkpoint file wrapper, the per-engine
//! durability state, and the recovery summary.
//!
//! The engine's durable state is two kinds of file in one directory (the
//! [`crate::DurabilityConfig::dir`]):
//!
//! * **WAL segments + `MANIFEST`** — every accepted push, appended before
//!   the ack (a [`store::Wal`] owned by [`DurabilityState`]).
//! * **`CHECKPOINT`** — the fleet checkpoint (`FLEETCKP` bytes) wrapped in a
//!   `STORCKP1` frame carrying the WAL sequence it covers and a CRC:
//!
//! ```text
//! magic   8B  "STORCKP1"
//! seq     u64 highest WAL sequence the checkpoint covers
//! len     u64 payload length
//! payload     FLEETCKP bytes (see crate::checkpoint)
//! crc     u32 CRC-32/IEEE over everything above
//! ```
//!
//! Writes are atomic ([`store::codec::write_atomic_with`]) and streamed:
//! the payload goes to disk through one bounded buffer as it is encoded,
//! with the length back-patched and the CRC combined at the end, so a
//! checkpoint never holds its image in memory. A corrupt checkpoint
//! degrades to WAL-only recovery — counted, never a panic. Any other file in
//! the directory (such as an `ARCHIVE` sidecar left by older releases, or a
//! `CHECKPOINT.tmp` a crash or failed write left behind) is ignored.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use store::codec::{self, Crc32, Reader};
use store::{
    AppendInfo, RecoveryReport, RegisterTuning, Sample, Wal, WalOptions, WalRecord, WalStats,
};

use crate::config::DurabilityConfig;
use crate::Result;

pub(crate) const CHECKPOINT_FILE: &str = "CHECKPOINT";
const CKPT_MAGIC: &[u8; 8] = b"STORCKP1";

/// What [`crate::FleetEngine::recover`] found and rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// WAL sequence the loaded checkpoint covered (0 = none).
    pub checkpoint_seq: u64,
    /// Streams restored from the checkpoint.
    pub checkpoint_streams: u64,
    /// The checkpoint file existed but failed validation and was discarded
    /// (recovery degraded to WAL-only replay).
    pub checkpoint_corrupt: bool,
    /// WAL records replayed past the checkpoint.
    pub replayed_records: u64,
    /// Samples fed back into the serving engine from the replayed records.
    pub replayed_samples: u64,
    /// Records lost to sequence gaps (corruption, missing segments).
    pub gap_records: u64,
    /// The final segment ended in a partial record (normal after a crash).
    pub torn_tail: bool,
    /// Segments abandoned mid-scan due to corruption.
    pub corrupt_segments: u64,
    /// Segments named by the manifest but absent on disk.
    pub missing_segments: u64,
    /// Replayed samples addressed to streams unknown at that point in the
    /// log (only possible downstream of a gap).
    pub unknown_replayed: u64,
    /// Eviction records replayed from the WAL tail. An eviction whose WAL
    /// append failed live (`fleet_wal_failures_total`, `wal_append_failed`
    /// event) is missing here — the recovered fleet resurrects that stream.
    pub replayed_evicts: u64,
}

impl RecoverySummary {
    /// True when the log was contiguous: nothing lost, nothing unroutable.
    pub fn clean(&self) -> bool {
        !self.checkpoint_corrupt
            && self.gap_records == 0
            && self.corrupt_segments == 0
            && self.missing_segments == 0
            && self.unknown_replayed == 0
    }
}

/// Durable-store counters ([`crate::FleetEngine::store_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// WAL counters for the life of this engine's log handle.
    pub wal: WalStats,
}

/// Per-engine durable state, held inside the engine's shared block.
pub(crate) struct DurabilityState {
    /// The write-ahead log. Appends serialize on this lock; an append that
    /// returns is durable, so callers ack after it, never before.
    wal: Mutex<Wal>,
    /// Push/register/evict hold `read()` across enqueue + WAL append;
    /// durable checkpoints hold `write()` so the checkpoint bytes and the
    /// covered WAL sequence describe the same quiesced state.
    pub(crate) gate: RwLock<()>,
    pub(crate) config: DurabilityConfig,
    pub(crate) ckpt_path: PathBuf,
    /// WAL records appended since the last durable checkpoint; the
    /// background maintenance thread's checkpoint trigger.
    pub(crate) records_since_ckpt: AtomicU64,
    /// Test hook: fail the next WAL append (register/evict paths) as if the
    /// underlying store errored. Set via
    /// `FleetEngine::debug_fail_next_wal_append`; consumed on first use.
    pub(crate) fail_next_append: AtomicBool,
    /// Test hook: fail the next checkpoint write once it has put this many
    /// payload bytes into `CHECKPOINT.tmp` (`u64::MAX` = off). Set via
    /// `FleetEngine::debug_fail_next_checkpoint_after`; consumed on use.
    pub(crate) fail_checkpoint_after: AtomicU64,
}

impl DurabilityState {
    /// Creates a fresh log in `config.dir`, which must not already hold one.
    pub(crate) fn create(config: DurabilityConfig) -> store::Result<Self> {
        let wal = Wal::create(&config.dir, wal_options(&config))?;
        Ok(Self::new(wal, config))
    }

    /// Reopens the log in `config.dir`, delivering every record past the
    /// checkpoint's `start_after` to `apply` in order.
    pub(crate) fn recover<F: FnMut(u64, WalRecord)>(
        config: DurabilityConfig,
        start_after: u64,
        apply: F,
    ) -> store::Result<(Self, RecoveryReport)> {
        let (wal, report) = Wal::recover(&config.dir, wal_options(&config), start_after, apply)?;
        Ok((Self::new(wal, config), report))
    }

    fn new(wal: Wal, config: DurabilityConfig) -> Self {
        let ckpt_path = config.dir.join(CHECKPOINT_FILE);
        Self {
            wal: Mutex::new(wal),
            gate: RwLock::new(()),
            config,
            ckpt_path,
            records_since_ckpt: AtomicU64::new(0),
            fail_next_append: AtomicBool::new(false),
            fail_checkpoint_after: AtomicU64::new(u64::MAX),
        }
    }

    /// Writes the checkpoint file covering WAL records `1..=seq`
    /// ([`write_checkpoint_file`]), honoring the injected-failure hook.
    /// Returns what `payload` returned and the payload length.
    pub(crate) fn write_checkpoint<T>(
        &self,
        seq: u64,
        payload: impl FnOnce(&mut dyn Write) -> Result<T>,
    ) -> Result<(T, u64)> {
        let limit = self.fail_checkpoint_after.swap(u64::MAX, Ordering::Relaxed);
        write_checkpoint_file(&self.ckpt_path, seq, limit, payload)
    }

    /// The log, locked. The append methods below take it for one record
    /// and release it before the caller handles the result.
    pub(crate) fn wal(&self) -> MutexGuard<'_, Wal> {
        self.wal.lock().expect("wal lock poisoned")
    }

    /// Appends a batch of samples as one record.
    pub(crate) fn append_samples(&self, samples: &[Sample]) -> store::Result<AppendInfo> {
        self.wal().append_samples(samples)
    }

    /// Appends a stream registration.
    pub(crate) fn append_register(
        &self,
        id: u64,
        tuning: &RegisterTuning,
    ) -> store::Result<AppendInfo> {
        self.wal().append_register(id, tuning)
    }

    /// Appends an eviction record, honoring the injected-failure hook.
    pub(crate) fn append_evict(&self, id: u64) -> store::Result<AppendInfo> {
        if self.fail_next_append.swap(false, Ordering::Relaxed) {
            return Err(store::StoreError::Io(std::io::Error::other(
                "injected WAL append failure",
            )));
        }
        self.wal().append_evict(id)
    }

    /// Highest WAL sequence assigned so far (0 for a fresh log).
    pub(crate) fn last_seq(&self) -> u64 {
        self.wal().next_seq() - 1
    }
}

/// The log options a [`DurabilityConfig`] describes.
fn wal_options(d: &DurabilityConfig) -> WalOptions {
    WalOptions {
        segment_bytes: d.segment_bytes,
        fsync: d.fsync,
        retain_segments: d.retain_segments,
        ..WalOptions::default()
    }
}

/// Outcome of reading the checkpoint file.
pub(crate) enum CheckpointFile {
    /// No checkpoint yet (fresh store, or crash before the first one).
    Missing,
    /// The file exists but fails validation; recovery degrades to WAL-only.
    Corrupt,
    /// A valid checkpoint covering WAL records `1..=seq`.
    Loaded { seq: u64, payload: Vec<u8> },
}

/// Bytes before the payload: magic, covered sequence, payload length.
const HEADER_LEN: usize = 24;
/// The one write buffer a checkpoint streams through.
const WRITE_BUF: usize = 64 << 10;

fn header(seq: u64, len: u64) -> [u8; HEADER_LEN] {
    let mut head = [0u8; HEADER_LEN];
    head[..8].copy_from_slice(CKPT_MAGIC);
    head[8..16].copy_from_slice(&seq.to_le_bytes());
    head[16..].copy_from_slice(&len.to_le_bytes());
    head
}

/// The file under a checkpoint's write buffer: counts and checksums the
/// payload bytes on their way to disk. Past `limit` bytes it writes up to
/// the limit and then fails (the test hook; `u64::MAX` in service).
struct PayloadSink<'a> {
    file: &'a File,
    crc: Crc32,
    len: u64,
    limit: u64,
}

impl Write for PayloadSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.limit - self.len;
        if room == 0 && !buf.is_empty() {
            return Err(io::Error::other("injected checkpoint write failure"));
        }
        let take = buf.len().min(usize::try_from(room).unwrap_or(usize::MAX));
        let n = self.file.write(&buf[..take])?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes the `STORCKP1`-wrapped checkpoint atomically
/// ([`codec::write_atomic_with`]) without holding it: `payload` streams the
/// `FLEETCKP` bytes through one [`WRITE_BUF`] buffer straight into the
/// sibling `.tmp` file. The payload length, which the header carries before
/// the payload, is known only at the end, so the header goes down with a
/// placeholder length and is back-patched; the trailer is the CRC of the
/// final header combined with the CRC the payload accumulated as it
/// streamed. The bytes equal `seal(magic | seq | len | payload)`.
/// Returns what `payload` returned and the payload length.
///
/// `limit` fails the write once that many payload bytes are down (a test
/// hook; `u64::MAX` never fails).
pub(crate) fn write_checkpoint_file<T>(
    path: &Path,
    seq: u64,
    limit: u64,
    payload: impl FnOnce(&mut dyn Write) -> Result<T>,
) -> Result<(T, u64)> {
    codec::write_atomic_with(path, |file: &mut File| -> Result<(T, u64)> {
        file.write_all(&header(seq, 0))?;
        let sink = PayloadSink { file, crc: Crc32::new(), len: 0, limit };
        let mut out = BufWriter::with_capacity(WRITE_BUF, sink);
        let value = payload(&mut out)?;
        let PayloadSink { crc, len, .. } =
            out.into_inner().map_err(io::IntoInnerError::into_error)?;
        let head = header(seq, len);
        file.write_all_at(&head, 0)?;
        let crc = codec::crc32_combine(codec::crc32(&head), crc.finish(), len);
        file.write_all(&crc.to_le_bytes())?;
        Ok((value, len))
    })
}

/// Reads and validates the checkpoint file. Corruption is a recoverable
/// outcome, not an error — only real I/O failures propagate.
pub(crate) fn read_checkpoint_file(path: &Path) -> std::io::Result<CheckpointFile> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(CheckpointFile::Missing),
        Err(e) => return Err(e),
    };
    Ok(decode_checkpoint_file(buf).unwrap_or(CheckpointFile::Corrupt))
}

/// Validates the file's bytes and strips the header and trailer in place,
/// so recovery holds one copy of the image, not the file and a payload.
fn decode_checkpoint_file(mut buf: Vec<u8>) -> Option<CheckpointFile> {
    let mut r = Reader::new(codec::unseal(&buf)?);
    if r.bytes(CKPT_MAGIC.len()).ok()? != CKPT_MAGIC {
        return None;
    }
    let seq = r.u64().ok()?;
    let len = r.u64().ok()?;
    if r.remaining() as u64 != len {
        return None;
    }
    buf.truncate(buf.len() - codec::CRC_LEN);
    buf.drain(..HEADER_LEN);
    Some(CheckpointFile::Loaded { seq, payload: buf })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fleet-ckpt-{tag}-{}", std::process::id()))
    }

    /// Streams `payload` in uneven pieces, as the fleet encoder does.
    fn write_checkpoint_file(path: &Path, seq: u64, payload: &[u8]) -> Result<u64> {
        let ((), len) = super::write_checkpoint_file(path, seq, u64::MAX, |out| {
            for piece in payload.chunks(1_000 + (seq as usize % 7)) {
                out.write_all(piece)?;
            }
            Ok(())
        })?;
        Ok(len)
    }

    /// What the streamed file must equal: the whole image, sealed.
    fn sealed(seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = header(seq, payload.len() as u64).to_vec();
        buf.extend_from_slice(payload);
        codec::seal(&mut buf);
        buf
    }

    #[test]
    fn streamed_file_equals_the_sealed_image() {
        let path = temp_path("sealed");
        for len in [0, 1, 999, WRITE_BUF - 1, WRITE_BUF, 3 * WRITE_BUF + 17] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let seq = len as u64 + 3;
            assert_eq!(write_checkpoint_file(&path, seq, &payload).unwrap(), len as u64);
            assert!(fs::read(&path).unwrap() == sealed(seq, &payload), "payload of {len} B");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_failed_write_leaves_the_previous_file_and_a_tmp() {
        let path = temp_path("failed");
        write_checkpoint_file(&path, 9, b"previous checkpoint").unwrap();
        let before = fs::read(&path).unwrap();
        let payload = vec![7u8; 2 * WRITE_BUF];
        let err = super::write_checkpoint_file(&path, 10, 70_000, |out| {
            out.write_all(&payload)?;
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(fs::read(&path).unwrap(), before, "the old checkpoint is untouched");
        let tmp = path.with_extension("tmp");
        assert_eq!(fs::metadata(&tmp).unwrap().len(), (HEADER_LEN + 70_000) as u64);
        // The next write truncates the leftover and replaces the file.
        write_checkpoint_file(&path, 11, b"next").unwrap();
        assert_eq!(fs::read(&path).unwrap(), sealed(11, b"next"));
        assert!(!tmp.exists());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let path = temp_path("roundtrip");
        write_checkpoint_file(&path, 77, b"fleet checkpoint bytes").unwrap();
        match read_checkpoint_file(&path).unwrap() {
            CheckpointFile::Loaded { seq, payload } => {
                assert_eq!(seq, 77);
                assert_eq!(payload, b"fleet checkpoint bytes");
            }
            _ => panic!("expected a loaded checkpoint"),
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_and_corrupt_are_recoverable_outcomes() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        assert!(matches!(read_checkpoint_file(&path).unwrap(), CheckpointFile::Missing));
        write_checkpoint_file(&path, 5, b"payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checkpoint_file(&path).unwrap(), CheckpointFile::Corrupt));
        // Every truncation is Corrupt or Missing, never a panic.
        write_checkpoint_file(&path, 5, b"payload").unwrap();
        let good = fs::read(&path).unwrap();
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(matches!(read_checkpoint_file(&path).unwrap(), CheckpointFile::Corrupt));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn summary_clean_flags_any_damage() {
        assert!(RecoverySummary::default().clean());
        let dirty = RecoverySummary { gap_records: 1, ..RecoverySummary::default() };
        assert!(!dirty.clean());
        let dirty = RecoverySummary { checkpoint_corrupt: true, ..RecoverySummary::default() };
        assert!(!dirty.clean());
    }
}
