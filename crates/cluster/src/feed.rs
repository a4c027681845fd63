//! The warm-standby feed codec: what a node streams to its ring successor
//! so the successor can take over its streams with a bounded gap.
//!
//! Two chunk kinds travel inside `StandbyFeed` requests (opaque to
//! netserve):
//!
//! * **Snapshots** — LARPSNAP blobs of every stream whose state advanced
//!   since the previous cycle, stamped with the WAL sequence the cut
//!   covers. A standby holding these needs only WAL records *after* the
//!   cut.
//! * **WAL tail** — raw `(seq, record)` pairs appended since the previous
//!   cycle. At takeover the heir replays buffered records beyond the
//!   snapshot cut (merged with the dead node's on-disk tail, read via
//!   [`store::read_tail`]) to close the gap.
//!
//! Chunks are CRC-framed and the feeder splits them under
//! [`MAX_CHUNK_BYTES`], well below the wire's 1 MiB request cap.

use store::codec::{self, Reader};
use store::{record, WalRecord};

use crate::ClusterError;

/// Feed chunk magic ("LARPFEED").
pub const FEED_MAGIC: &[u8; 8] = b"LARPFEED";

/// Feed format version.
pub const FEED_FORMAT: u8 = 1;

/// Soft payload budget per chunk; the feeder starts a new chunk beyond it.
pub const MAX_CHUNK_BYTES: usize = 256 * 1024;

const KIND_SNAPSHOTS: u8 = 1;
const KIND_WAL_TAIL: u8 = 2;

/// One warm-standby feed chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum FeedChunk {
    /// Snapshot deltas: streams whose state advanced since the last cut.
    Snapshots {
        /// Feeding node's name (the standby buffers per source).
        source: String,
        /// Highest WAL sequence these snapshots cover.
        covered_seq: u64,
        /// `(stream, next_minute, LARPSNAP blob)` per dirty stream.
        streams: Vec<(u64, u64, Vec<u8>)>,
    },
    /// WAL-tail records appended since the previous cycle.
    WalTail {
        /// Feeding node's name.
        source: String,
        /// `(seq, record)` pairs in sequence order.
        records: Vec<(u64, WalRecord)>,
    },
}

impl FeedChunk {
    /// Encodes the chunk: magic, format, kind, body, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(FEED_MAGIC);
        out.push(FEED_FORMAT);
        match self {
            FeedChunk::Snapshots { source, covered_seq, streams } => {
                out.push(KIND_SNAPSHOTS);
                codec::put_str(&mut out, source);
                out.extend_from_slice(&covered_seq.to_le_bytes());
                out.extend_from_slice(&(streams.len() as u32).to_le_bytes());
                for (id, next_minute, blob) in streams {
                    out.extend_from_slice(&id.to_le_bytes());
                    out.extend_from_slice(&next_minute.to_le_bytes());
                    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
                    out.extend_from_slice(blob);
                }
            }
            FeedChunk::WalTail { source, records } => {
                out.push(KIND_WAL_TAIL);
                codec::put_str(&mut out, source);
                out.extend_from_slice(&(records.len() as u32).to_le_bytes());
                for (seq, rec) in records {
                    out.extend_from_slice(&seq.to_le_bytes());
                    record::encode_payload(&mut out, rec);
                }
            }
        }
        codec::seal(&mut out);
        out
    }

    /// Decodes one chunk, validating magic, format, kind and CRC.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Node`] for truncation, bad magic/CRC, or an
    /// unknown kind — the receiving server surfaces it as a wire error.
    pub fn decode(bytes: &[u8]) -> Result<FeedChunk, ClusterError> {
        if bytes.len() < FEED_MAGIC.len() + 2 + codec::CRC_LEN {
            return Err(bad("feed chunk truncated"));
        }
        let body = codec::unseal(bytes).ok_or_else(|| bad("feed chunk CRC mismatch"))?;
        let mut r = Reader::new(body);
        let malformed = |e: codec::Error| bad(&format!("feed chunk {e}"));
        if r.bytes(FEED_MAGIC.len()).map_err(malformed)? != FEED_MAGIC {
            return Err(bad("bad feed magic"));
        }
        let format = r.u8().map_err(malformed)?;
        if format != FEED_FORMAT {
            return Err(bad(&format!("unsupported feed format {format}")));
        }
        let chunk = match r.u8().map_err(malformed)? {
            KIND_SNAPSHOTS => Self::decode_snapshots(&mut r).map_err(malformed)?,
            KIND_WAL_TAIL => Self::decode_wal_tail(&mut r).map_err(malformed)?,
            other => return Err(bad(&format!("unknown feed chunk kind {other}"))),
        };
        r.finish().map_err(malformed)?;
        Ok(chunk)
    }

    fn decode_snapshots(r: &mut Reader<'_>) -> Result<FeedChunk, codec::Error> {
        let source = r.str()?.to_owned();
        let covered_seq = r.u64()?;
        // id + next_minute + blob length: 20 bytes per stream at least.
        let count = r.len(20)?;
        let mut streams = Vec::with_capacity(count);
        for _ in 0..count {
            let (id, next_minute) = (r.u64()?, r.u64()?);
            let len = r.u32()? as usize;
            streams.push((id, next_minute, r.bytes(len)?.to_vec()));
        }
        Ok(FeedChunk::Snapshots { source, covered_seq, streams })
    }

    fn decode_wal_tail(r: &mut Reader<'_>) -> Result<FeedChunk, codec::Error> {
        let source = r.str()?.to_owned();
        // seq + kind + an empty sample batch's count: 13 bytes at least.
        let count = r.len(13)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let seq = r.u64()?;
            records.push((seq, record::decode_payload(r)?));
        }
        Ok(FeedChunk::WalTail { source, records })
    }

    /// Approximate encoded size, used by the feeder to split chunks under
    /// [`MAX_CHUNK_BYTES`].
    pub fn approx_len(&self) -> usize {
        match self {
            FeedChunk::Snapshots { streams, .. } => {
                32 + streams.iter().map(|(_, _, b)| 20 + b.len()).sum::<usize>()
            }
            FeedChunk::WalTail { records, .. } => {
                32 + records
                    .iter()
                    .map(|(_, r)| match r {
                        WalRecord::Samples(v) => 16 + v.len() * 18,
                        _ => 48,
                    })
                    .sum::<usize>()
            }
        }
    }
}

fn bad(msg: &str) -> ClusterError {
    ClusterError::Node(msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use store::{RegisterTuning, Sample};

    #[test]
    fn both_kinds_round_trip() {
        let snap = FeedChunk::Snapshots {
            source: "a".into(),
            covered_seq: 412,
            streams: vec![(3, 120, vec![1, 2, 3, 255]), (9, 77, Vec::new())],
        };
        assert_eq!(FeedChunk::decode(&snap.encode()).expect("snapshots"), snap);

        let wal = FeedChunk::WalTail {
            source: "b".into(),
            records: vec![
                (
                    413,
                    WalRecord::Samples(vec![
                        Sample { stream: 3, minute: None, value: 1.5 },
                        Sample { stream: 9, minute: Some(78), value: f64::NAN },
                    ]),
                ),
                (
                    414,
                    WalRecord::Register {
                        id: 11,
                        tuning: RegisterTuning {
                            train_size: 40,
                            qa_window: 8,
                            qa_period: 4,
                            qa_threshold: 2.0,
                            f32_history: true,
                        },
                    },
                ),
                (415, WalRecord::Evict { id: 9 }),
            ],
        };
        let back = FeedChunk::decode(&wal.encode()).expect("wal tail");
        // NaN breaks PartialEq; compare through the encoder instead.
        assert_eq!(back.encode(), wal.encode());
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let chunk = FeedChunk::Snapshots {
            source: "a".into(),
            covered_seq: 1,
            streams: vec![(1, 2, vec![9; 64])],
        };
        let blob = chunk.encode();
        let mut bad = blob.clone();
        bad[20] ^= 0x40;
        assert!(FeedChunk::decode(&bad).is_err(), "CRC must catch flips");
        assert!(FeedChunk::decode(&blob[..blob.len() - 5]).is_err());
        assert!(FeedChunk::decode(b"short").is_err());
    }
}
