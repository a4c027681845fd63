//! Fleet checkpoint codec.
//!
//! A checkpoint captures every registered stream's complete serving state —
//! trained model, sanitizer memory, quarantine clocks, QA window — so a fleet
//! can be killed and restored warm, without retraining a single model.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   8 bytes  b"FLEETCKP"
//! version u32      1
//! count   u64      number of streams
//! then per stream, sorted by ascending StreamId:
//!   id          u64
//!   next_minute u64
//!   len         u64   length of the guarded snapshot
//!   bytes       len   larp::snapshot encoding of the GuardedLarp
//! ```
//!
//! Sorting by id makes the bytes a pure function of the fleet's logical state:
//! two fleets serving the same streams checkpoint identically even when run
//! with different shard counts.

use std::io::Write;

use larp::GuardedLarp;
use store::codec::{self, Reader};

use crate::{FleetError, Result, StreamId};

const MAGIC: [u8; 8] = *b"FLEETCKP";
const VERSION: u32 = 1;

/// One stream's checkpointed state, decoded.
pub(crate) struct StreamCheckpoint {
    pub(crate) id: StreamId,
    pub(crate) next_minute: u64,
    pub(crate) guarded: GuardedLarp,
}

fn err(msg: impl Into<String>) -> FleetError {
    FleetError::Checkpoint(msg.into())
}

/// Streams the checkpoint of `streams` (sorted by id) into `out`: the
/// header, then one entry per stream. `snapshot(id, item, buf)` replaces
/// `buf`'s contents with that stream's guarded snapshot and returns its
/// `next_minute`. One buffer serves every stream, so the encoder holds one
/// snapshot at a time, never the image: the sink decides whether the image
/// is kept (a `Vec`) or streamed to disk.
///
/// # Errors
///
/// Returns [`FleetError::Durability`] if `out` fails.
pub(crate) fn write<W: Write + ?Sized, T>(
    out: &mut W,
    streams: &[(StreamId, T)],
    mut snapshot: impl FnMut(StreamId, &T, &mut Vec<u8>) -> u64,
) -> Result<()> {
    debug_assert!(streams.windows(2).all(|w| w[0].0 < w[1].0), "streams must be sorted by id");
    let mut head = [0u8; 24];
    head[..8].copy_from_slice(&MAGIC);
    head[8..12].copy_from_slice(&VERSION.to_le_bytes());
    head[12..20].copy_from_slice(&(streams.len() as u64).to_le_bytes());
    out.write_all(&head[..20])?;
    let mut buf = Vec::new();
    for (id, item) in streams {
        let next_minute = snapshot(*id, item, &mut buf);
        head[..8].copy_from_slice(&id.to_le_bytes());
        head[8..16].copy_from_slice(&next_minute.to_le_bytes());
        head[16..].copy_from_slice(&(buf.len() as u64).to_le_bytes());
        out.write_all(&head)?;
        out.write_all(&buf)?;
    }
    Ok(())
}

/// Decodes checkpoint bytes back into per-stream state.
///
/// Rejects malformed input (bad magic/version, truncation, trailing bytes,
/// duplicate or unsorted ids) with [`FleetError::Checkpoint`] — never panics.
pub(crate) fn decode(bytes: &[u8]) -> Result<Vec<StreamCheckpoint>> {
    let mut r = Reader::new(bytes);
    let malformed = |e: codec::Error| err(format!("checkpoint {e}"));
    if r.bytes(MAGIC.len()).map_err(malformed)? != MAGIC {
        return Err(err("bad magic: not a fleet checkpoint"));
    }
    let version = r.u32().map_err(malformed)?;
    if version != VERSION {
        return Err(err(format!("unsupported checkpoint version {version}")));
    }
    let count = r.u64().map_err(malformed)?;
    // Each stream costs at least 24 header bytes: an OOM guard for corrupt counts.
    if count.saturating_mul(24) > r.remaining() as u64 {
        return Err(err(format!("corrupt stream count {count}")));
    }

    let mut out = Vec::with_capacity(count as usize);
    let mut prev: Option<StreamId> = None;
    for _ in 0..count {
        let id = r.u64().map_err(malformed)?;
        if prev.is_some_and(|p| p >= id) {
            return Err(err(format!("stream ids not strictly ascending at {id}")));
        }
        prev = Some(id);
        let next_minute = r.u64().map_err(malformed)?;
        let len = r.u64().map_err(malformed)?;
        let len = usize::try_from(len).map_err(|_| err("snapshot length overflow"))?;
        let snap = r.bytes(len).map_err(malformed)?;
        let guarded =
            GuardedLarp::from_snapshot_bytes(snap).map_err(|e| err(format!("stream {id}: {e}")))?;
        out.push(StreamCheckpoint { id, next_minute, guarded });
    }
    r.finish().map_err(malformed)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamConfig;

    /// The image of `(id, next_minute, snapshot)` entries, through [`write`].
    fn encode(streams: &[(StreamId, u64, Vec<u8>)]) -> Vec<u8> {
        let items: Vec<(StreamId, (u64, &[u8]))> =
            streams.iter().map(|(id, m, b)| (*id, (*m, b.as_slice()))).collect();
        let mut out = Vec::new();
        write(&mut out, &items, |_, (next_minute, bytes), buf| {
            buf.clear();
            buf.extend_from_slice(bytes);
            *next_minute
        })
        .unwrap();
        out
    }

    fn guarded_bytes() -> Vec<u8> {
        let mut g = StreamConfig::default().build().unwrap();
        for m in 0..60u64 {
            g.ingest(m, 40.0 + (m as f64 * 0.4).sin() * 5.0);
        }
        g.to_snapshot_bytes()
    }

    #[test]
    fn empty_fleet_round_trips() {
        let bytes = encode(&[]);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn streams_round_trip() {
        let snap = guarded_bytes();
        let bytes = encode(&[(3, 60, snap.clone()), (9, 12, snap.clone())]);
        let streams = decode(&bytes).unwrap();
        assert_eq!(streams.len(), 2);
        assert_eq!((streams[0].id, streams[0].next_minute), (3, 60));
        assert_eq!((streams[1].id, streams[1].next_minute), (9, 12));
        assert_eq!(streams[0].guarded.to_snapshot_bytes(), snap);
    }

    #[test]
    fn malformed_bytes_error_instead_of_panicking() {
        assert!(decode(b"").is_err());
        assert!(decode(b"NOTACKPT").is_err());
        let good = encode(&[(1, 5, guarded_bytes())]);
        for cut in [0, 7, 8, 11, 12, 19, 20, 27, 35, good.len() - 1] {
            assert!(decode(&good[..cut]).is_err(), "truncation at {cut} must fail");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        // Corrupt the count field to something absurd: must be rejected, not
        // allocated.
        let mut huge = good;
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&huge).is_err());
    }

    #[test]
    fn unsorted_ids_rejected() {
        let snap = guarded_bytes();
        let sorted = encode(&[(2, 0, snap.clone()), (7, 0, snap)]);
        let mut swapped = sorted;
        // Swap the two id fields (offsets 20 and 20+24+snap_len).
        let first_id = 20;
        let snap_len =
            u64::from_le_bytes(swapped[first_id + 16..first_id + 24].try_into().unwrap()) as usize;
        let second_id = first_id + 24 + snap_len;
        swapped[first_id..first_id + 8].copy_from_slice(&7u64.to_le_bytes());
        swapped[second_id..second_id + 8].copy_from_slice(&2u64.to_le_bytes());
        assert!(decode(&swapped).is_err());
    }
}
