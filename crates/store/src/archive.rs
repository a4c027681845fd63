//! The `STORARCH` archive sidecar: memtable + tier state persisted next to
//! a checkpoint so a restart rebuilds the query surface without replaying
//! the whole history.
//!
//! File layout (all little-endian):
//!
//! ```text
//! magic   8B  "STORARCH"
//! version u32 1
//! seq     u64 highest WAL sequence number the snapshot covers
//! memtable    (see Memtable::encode_into)
//! streams u32
//! per stream: id u64 | next_minute u64 | archive (TieredArchive::encode_into)
//! crc     u32 CRC-32/IEEE over everything above
//! ```
//!
//! Writes are atomic ([`codec::write_atomic`]). Reads return
//! `Ok(None)` for a missing file and `Err(Corrupt)` for one that fails
//! validation — callers degrade to an empty archive and count it, they do
//! not crash.

use std::fs;
use std::path::Path;

use crate::codec::{self, Reader};
use crate::memtable::Memtable;
use crate::tiers::TieredArchive;
use crate::{Result, StoreError};

const ARCH_MAGIC: &[u8; 8] = b"STORARCH";
const ARCH_VERSION: u32 = 1;

/// One persisted stream: id, its replay clock, and its tier state.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// Stream id.
    pub id: u64,
    /// The stream's auto-clock (next minute to assign to an unstamped
    /// sample), so replay continues the exact live numbering.
    pub next_minute: u64,
    /// Tiered archive state.
    pub archive: TieredArchive,
}

/// Everything a sidecar file holds.
#[derive(Debug, Clone)]
pub struct ArchiveSnapshot {
    /// Highest WAL sequence number folded into this snapshot.
    pub seq: u64,
    /// Raw-sample rings.
    pub memtable: Memtable,
    /// Per-stream tier state, sorted by id.
    pub streams: Vec<StreamSnapshot>,
}

/// Atomically writes `snapshot` to `path`.
pub fn write_archive(path: &Path, snapshot: &ArchiveSnapshot) -> Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(ARCH_MAGIC);
    buf.extend_from_slice(&ARCH_VERSION.to_le_bytes());
    buf.extend_from_slice(&snapshot.seq.to_le_bytes());
    snapshot.memtable.encode_into(&mut buf);
    buf.extend_from_slice(&(snapshot.streams.len() as u32).to_le_bytes());
    let mut sorted: Vec<&StreamSnapshot> = snapshot.streams.iter().collect();
    sorted.sort_by_key(|s| s.id);
    for s in sorted {
        buf.extend_from_slice(&s.id.to_le_bytes());
        buf.extend_from_slice(&s.next_minute.to_le_bytes());
        s.archive.encode_into(&mut buf);
    }
    codec::seal(&mut buf);
    codec::write_atomic(path, &buf)?;
    Ok(())
}

/// Reads a sidecar. `Ok(None)` if the file does not exist;
/// [`StoreError::Corrupt`] if it exists but fails validation.
pub fn read_archive(path: &Path) -> Result<Option<ArchiveSnapshot>> {
    let buf = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    decode_archive(&buf).map(Some)
}

fn decode_archive(buf: &[u8]) -> Result<ArchiveSnapshot> {
    let corrupt = |m: &str| StoreError::Corrupt(format!("archive sidecar: {m}"));
    if buf.len() < 16 {
        return Err(corrupt("too short"));
    }
    if &buf[..8] != ARCH_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let body = codec::unseal(buf).ok_or_else(|| corrupt("crc mismatch"))?;
    let mut r = Reader::new(&body[8..]);
    let bad = |what: &'static str| move |e: codec::Error| corrupt(&format!("{what}: {e}"));
    let version = r.u32().map_err(bad("version"))?;
    if version != ARCH_VERSION {
        return Err(corrupt(&format!("unsupported version {version}")));
    }
    let seq = r.u64().map_err(bad("seq"))?;
    let memtable = Memtable::decode(&mut r).map_err(bad("memtable"))?;
    let count = r.len(16).map_err(bad("stream count"))?;
    let mut streams = Vec::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let id = r.u64().map_err(bad("stream id"))?;
        if prev.is_some_and(|p| p >= id) {
            return Err(corrupt("stream ids not strictly ascending"));
        }
        prev = Some(id);
        let next_minute = r.u64().map_err(bad("next_minute"))?;
        let archive = TieredArchive::decode(&mut r).map_err(bad("tier state"))?;
        streams.push(StreamSnapshot { id, next_minute, archive });
    }
    r.finish().map_err(bad("streams"))?;
    Ok(ArchiveSnapshot { seq, memtable, streams })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiers::vmkusage_tiers;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("store-arch-{tag}-{}", std::process::id()))
    }

    fn snapshot() -> ArchiveSnapshot {
        let mut memtable = Memtable::new(16);
        let mut archive = TieredArchive::new(vmkusage_tiers()).unwrap();
        for m in 0..12u64 {
            memtable.insert(3, m, m as f64);
            archive.record(m, m as f64);
        }
        ArchiveSnapshot {
            seq: 42,
            memtable,
            streams: vec![StreamSnapshot { id: 3, next_minute: 12, archive }],
        }
    }

    #[test]
    fn sidecar_round_trips() {
        let path = temp_path("roundtrip");
        let snap = snapshot();
        write_archive(&path, &snap).unwrap();
        let back = read_archive(&path).unwrap().unwrap();
        assert_eq!(back.seq, 42);
        assert_eq!(back.streams.len(), 1);
        assert_eq!(back.streams[0].next_minute, 12);
        assert_eq!(back.memtable.query(3, 0, 100), snap.memtable.query(3, 0, 100));
        assert_eq!(
            back.streams[0].archive.query(0, 10, 5),
            snap.streams[0].archive.query(0, 10, 5)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_is_none_corrupt_is_error() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        assert!(read_archive(&path).unwrap().is_none());
        write_archive(&path, &snapshot()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_archive(&path), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_file(&path);
    }
}
