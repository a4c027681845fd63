//! Bounded in-memory ring of recent raw samples per stream.
//!
//! The memtable is the fine-grained end of the query surface: the last
//! `rows_per_stream` raw `(minute, value)` pairs of every stream, before
//! tier consolidation coarsens them. It serializes into the archive sidecar
//! (sorted by stream id, so encodings are deterministic) and is rebuilt
//! from checkpoint + WAL replay after a crash.

use std::collections::{HashMap, VecDeque};

use crate::codec::{self, Reader};

/// Per-stream bounded rings of the newest raw samples.
#[derive(Debug, Clone)]
pub struct Memtable {
    rows_per_stream: usize,
    map: HashMap<u64, VecDeque<(u64, f64)>>,
}

impl Memtable {
    /// A memtable retaining at most `rows_per_stream` samples per stream.
    pub fn new(rows_per_stream: usize) -> Memtable {
        Memtable { rows_per_stream: rows_per_stream.max(1), map: HashMap::new() }
    }

    /// Retention bound per stream.
    pub fn rows_per_stream(&self) -> usize {
        self.rows_per_stream
    }

    /// Appends one sample, evicting the oldest row if the ring is full.
    pub fn insert(&mut self, stream: u64, minute: u64, value: f64) {
        let ring = self.map.entry(stream).or_default();
        if ring.len() == self.rows_per_stream {
            ring.pop_front();
        }
        ring.push_back((minute, value));
    }

    /// All retained samples of `stream` with `from <= minute <= to`, oldest
    /// first.
    pub fn query(&self, stream: u64, from: u64, to: u64) -> Vec<(u64, f64)> {
        match self.map.get(&stream) {
            Some(ring) => ring.iter().copied().filter(|(m, _)| *m >= from && *m <= to).collect(),
            None => Vec::new(),
        }
    }

    /// The newest retained sample of `stream`.
    pub fn latest(&self, stream: u64) -> Option<(u64, f64)> {
        self.map.get(&stream).and_then(|r| r.back().copied())
    }

    /// Drops a stream's ring; `true` if it existed.
    pub fn evict(&mut self, stream: u64) -> bool {
        self.map.remove(&stream).is_some()
    }

    /// Number of streams with at least one retained sample.
    pub fn streams(&self) -> usize {
        self.map.len()
    }

    /// Retained rows for one stream.
    pub fn rows(&self, stream: u64) -> usize {
        self.map.get(&stream).map_or(0, |r| r.len())
    }

    /// Serializes the memtable (streams sorted by id, so byte-identical for
    /// equal contents).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.rows_per_stream as u32).to_le_bytes());
        let mut ids: Vec<u64> = self.map.keys().copied().collect();
        ids.sort_unstable();
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            let ring = &self.map[&id];
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(ring.len() as u32).to_le_bytes());
            for (minute, value) in ring {
                out.extend_from_slice(&minute.to_le_bytes());
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
    }

    /// Decodes a memtable from `r`, leaving it just past the encoding.
    /// Forged counts are refused before anything is allocated for them.
    pub fn decode(r: &mut Reader<'_>) -> Result<Memtable, codec::Error> {
        let rows_per_stream = r.u32()? as usize;
        if rows_per_stream == 0 {
            return Err(codec::Error::Invalid);
        }
        // A stream entry is at least id + count (12 bytes), a row 16.
        let streams = r.len(12)?;
        let mut table = Memtable::new(rows_per_stream);
        for _ in 0..streams {
            let id = r.u64()?;
            let rows = r.len(16)?;
            if rows > rows_per_stream {
                return Err(codec::Error::Invalid);
            }
            let mut ring = VecDeque::with_capacity(rows);
            for _ in 0..rows {
                ring.push_back((r.u64()?, r.f64()?));
            }
            table.map.insert(id, ring);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_query() {
        let mut t = Memtable::new(4);
        for m in 0..10u64 {
            t.insert(1, m, m as f64);
        }
        assert_eq!(t.rows(1), 4);
        assert_eq!(t.query(1, 0, 100), vec![(6, 6.0), (7, 7.0), (8, 8.0), (9, 9.0)]);
        assert_eq!(t.query(1, 7, 8), vec![(7, 7.0), (8, 8.0)]);
        assert_eq!(t.latest(1), Some((9, 9.0)));
        assert!(t.query(2, 0, 100).is_empty());
        assert!(t.evict(1));
        assert!(!t.evict(1));
        assert_eq!(t.streams(), 0);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut t = Memtable::new(8);
        for stream in [9u64, 2, 5] {
            for m in 0..6u64 {
                t.insert(stream, m, stream as f64 + m as f64 * 0.25);
            }
        }
        let mut bytes = Vec::new();
        t.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = Memtable::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.streams(), 3);
        for stream in [9u64, 2, 5] {
            assert_eq!(back.query(stream, 0, 100), t.query(stream, 0, 100));
        }
        // Deterministic bytes regardless of insertion order.
        let mut bytes2 = Vec::new();
        back.encode_into(&mut bytes2);
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn decode_rejects_forged_counts_without_allocating() {
        let mut t = Memtable::new(8);
        t.insert(1, 0, 1.0);
        let mut bytes = Vec::new();
        t.encode_into(&mut bytes);
        // Forge the stream count.
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Memtable::decode(&mut Reader::new(&bytes)).unwrap_err(), codec::Error::Count);
        // Truncations never panic.
        let mut good = Vec::new();
        t.encode_into(&mut good);
        for cut in 0..good.len() {
            assert!(Memtable::decode(&mut Reader::new(&good[..cut])).is_err());
        }
    }
}
