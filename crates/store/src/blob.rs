//! Hibernation blob store: a memory-spill cache for cold-stream snapshots.
//!
//! The fleet engine hibernates idle streams by serializing their full guarded
//! state (a `LARPSNAP` blob) to disk and keeping only a tiny tombstone
//! resident (DESIGN.md §11). This store holds those blobs. It is a **cache**,
//! not a durability layer:
//!
//! * Durability still comes from checkpoint + WAL. Recovery never reads
//!   blobs — it rebuilds every stream live and calls [`BlobStore::clear`] to
//!   drop the stale spill file.
//! * Writes are not fsynced. Within a running process the page cache makes
//!   them reliable, and after a crash the file is discarded anyway.
//!
//! Layout: one append-only file of `[id u64][len u32][crc u32][payload]`
//! frames plus an in-memory index `id → (offset, len, crc)`. Reads are
//! positional (`pread`), so concurrent readers never contend on a seek
//! cursor. Deleting a blob only drops its index entry — the bytes stay in
//! the file as dead space until [`BlobStore::put`] notices the file is more
//! than half dead (and past a slack floor) and rewrites the live blobs.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::codec::crc32;
use crate::{Result, StoreError};

/// Per-frame header: id (8) + payload length (4) + payload CRC (4).
const FRAME_HEADER: u64 = 16;

/// Dead space below this floor never triggers compaction, so small stores
/// don't churn.
const COMPACT_FLOOR_BYTES: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct BlobEntry {
    /// Offset of the payload (not the frame header) in the file.
    offset: u64,
    len: u32,
    crc: u32,
}

/// Append-only spill file for hibernated stream snapshots.
#[derive(Debug)]
pub struct BlobStore {
    path: PathBuf,
    file: File,
    index: HashMap<u64, BlobEntry>,
    /// Next append offset.
    tail: u64,
    /// Payload + header bytes owned by live index entries.
    live_bytes: u64,
    /// Bytes of deleted/overwritten frames awaiting compaction.
    dead_bytes: u64,
}

impl BlobStore {
    /// Opens (and truncates) the spill file at `path`. Truncation is the
    /// point: blobs never survive a restart — recovery rebuilds streams from
    /// checkpoint + WAL, so anything on disk here is stale.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        Ok(Self { path, file, index: HashMap::new(), tail: 0, live_bytes: 0, dead_bytes: 0 })
    }

    /// Stores `bytes` under `id`, replacing any previous blob for the id.
    pub fn put(&mut self, id: u64, bytes: &[u8]) -> Result<()> {
        let len = u32::try_from(bytes.len()).map_err(|_| {
            StoreError::InvalidConfig(format!("blob for stream {id} exceeds u32 length"))
        })?;
        if let Some(old) = self.index.remove(&id) {
            self.retire(&old);
        }
        self.maybe_compact()?;
        let crc = crc32(bytes);
        let mut frame = Vec::with_capacity(FRAME_HEADER as usize + bytes.len());
        frame.extend_from_slice(&id.to_le_bytes());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(bytes);
        self.file.write_all_at(&frame, self.tail)?;
        let offset = self.tail + FRAME_HEADER;
        self.tail += frame.len() as u64;
        self.live_bytes += frame.len() as u64;
        self.index.insert(id, BlobEntry { offset, len, crc });
        Ok(())
    }

    /// Reads the blob stored under `id`, or `None` if absent. A CRC mismatch
    /// (torn write, bit flip) is an error — the caller must treat the spilled
    /// state as lost, not silently restore garbage.
    pub fn get(&self, id: u64) -> Result<Option<Vec<u8>>> {
        let mut buf = Vec::new();
        Ok(self.get_into(id, &mut buf)?.then_some(buf))
    }

    /// [`BlobStore::get`] into a caller's buffer: replaces `out`'s contents
    /// with the blob, reusing its allocation, and returns `false` (leaving
    /// `out` alone) if `id` has none.
    pub fn get_into(&self, id: u64, out: &mut Vec<u8>) -> Result<bool> {
        let Some(entry) = self.index.get(&id) else { return Ok(false) };
        out.clear();
        out.resize(entry.len as usize, 0);
        self.file.read_exact_at(out, entry.offset)?;
        if crc32(out) != entry.crc {
            return Err(StoreError::Corrupt(format!("blob crc mismatch for stream {id}")));
        }
        Ok(true)
    }

    /// Drops the blob for `id` (on wake or evict). The bytes become dead
    /// space until a later [`BlobStore::put`] compacts.
    pub fn delete(&mut self, id: u64) -> bool {
        match self.index.remove(&id) {
            Some(entry) => {
                self.retire(&entry);
                true
            }
            None => false,
        }
    }

    /// Drops every blob and truncates the file (checkpoint load / recovery).
    pub fn clear(&mut self) -> Result<()> {
        self.index.clear();
        self.file.set_len(0)?;
        self.tail = 0;
        self.live_bytes = 0;
        self.dead_bytes = 0;
        Ok(())
    }

    /// Iterates the ids of all stored blobs (checkpoint inlining).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// Whether a blob exists for `id`.
    pub fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// File bytes owned by live blobs (header + payload).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// File bytes of deleted frames awaiting compaction.
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    fn retire(&mut self, entry: &BlobEntry) {
        let frame = FRAME_HEADER + entry.len as u64;
        self.live_bytes -= frame;
        self.dead_bytes += frame;
    }

    /// Rewrites live blobs into a fresh file when more than half the file is
    /// dead space (and the waste is past a slack floor). Keeps the long-lived
    /// hibernate/wake churn from leaking the file without bound.
    fn maybe_compact(&mut self) -> Result<()> {
        if self.dead_bytes <= COMPACT_FLOOR_BYTES || self.dead_bytes <= self.live_bytes {
            return Ok(());
        }
        let tmp_path = self.path.with_extension("blob.tmp");
        let tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut tail = 0u64;
        let mut frame = Vec::new();
        for (id, entry) in self.index.iter_mut() {
            let mut buf = vec![0u8; entry.len as usize];
            self.file.read_exact_at(&mut buf, entry.offset)?;
            frame.clear();
            frame.extend_from_slice(&id.to_le_bytes());
            frame.extend_from_slice(&entry.len.to_le_bytes());
            frame.extend_from_slice(&entry.crc.to_le_bytes());
            frame.extend_from_slice(&buf);
            tmp.write_all_at(&frame, tail)?;
            entry.offset = tail + FRAME_HEADER;
            tail += frame.len() as u64;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = tmp;
        self.tail = tail;
        self.live_bytes = tail;
        self.dead_bytes = 0;
        Ok(())
    }
}

impl Drop for BlobStore {
    fn drop(&mut self) {
        // Best-effort: the file is a cache; leave nothing stale behind.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("blobstore-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut store = BlobStore::open(temp_path("roundtrip")).unwrap();
        store.put(7, b"hello").unwrap();
        store.put(9, b"world!").unwrap();
        assert_eq!(store.get(7).unwrap().unwrap(), b"hello");
        assert_eq!(store.get(9).unwrap().unwrap(), b"world!");
        assert_eq!(store.get(8).unwrap(), None);
        assert!(store.contains(7));
        assert_eq!(store.len(), 2);
        assert!(store.delete(7));
        assert!(!store.delete(7));
        assert_eq!(store.get(7).unwrap(), None);
        assert_eq!(store.len(), 1);

        // get_into replaces the buffer's bytes and leaves it alone on a miss.
        let mut buf = b"a longer leftover".to_vec();
        assert!(store.get_into(9, &mut buf).unwrap());
        assert_eq!(buf, b"world!");
        assert!(!store.get_into(7, &mut buf).unwrap());
        assert_eq!(buf, b"world!");
    }

    #[test]
    fn overwrite_replaces_and_retires_old_bytes() {
        let mut store = BlobStore::open(temp_path("overwrite")).unwrap();
        store.put(1, b"aaaa").unwrap();
        let live_before = store.live_bytes();
        store.put(1, b"bbbbbbbb").unwrap();
        assert_eq!(store.get(1).unwrap().unwrap(), b"bbbbbbbb");
        assert_eq!(store.dead_bytes(), live_before);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn clear_truncates_everything() {
        let mut store = BlobStore::open(temp_path("clear")).unwrap();
        for id in 0..10u64 {
            store.put(id, &[id as u8; 32]).unwrap();
        }
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.live_bytes(), 0);
        assert_eq!(store.get(3).unwrap(), None);
        // Usable after clear.
        store.put(3, b"back").unwrap();
        assert_eq!(store.get(3).unwrap().unwrap(), b"back");
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let path = temp_path("corrupt");
        let mut store = BlobStore::open(&path).unwrap();
        store.put(5, b"precious bytes").unwrap();
        // Flip a byte of the payload on disk behind the store's back.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(b"X", FRAME_HEADER + 2).unwrap();
        match store.get(5) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut store = BlobStore::open(temp_path("compact")).unwrap();
        let big = vec![0xabu8; 300 * 1024];
        // Overwrite the same ids until dead bytes cross the floor and exceed
        // live bytes; the next put must compact back down.
        for round in 0..4u64 {
            for id in 0..3u64 {
                store.put(id, &big).unwrap();
            }
            let _ = round;
        }
        // Without compaction 9 overwritten frames (~2.7 MiB) would be dead;
        // the store must have folded them back under the slack floor.
        assert!(store.dead_bytes() <= COMPACT_FLOOR_BYTES, "compaction never ran");
        for id in 0..3u64 {
            assert_eq!(store.get(id).unwrap().unwrap(), big);
        }
    }

    #[test]
    fn open_truncates_stale_file() {
        let path = temp_path("truncate");
        {
            let mut store = BlobStore::open(&path).unwrap();
            store.put(1, b"stale").unwrap();
            // Keep the file alive past drop by recreating it below.
        }
        let store = BlobStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.get(1).unwrap(), None);
    }
}
