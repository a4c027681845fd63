//! WAL record codec: length-prefixed, CRC-checked, sequence-numbered.
//!
//! Every durable operation travels as one record (all integers
//! little-endian), following the netserve wire-framing idiom:
//!
//! ```text
//! len    u32    byte length of the body (everything between len and crc)
//! body:
//!   seq    u64    monotonically increasing, contiguous (+1 per record)
//!   kind   u8     record kind (see below)
//!   payload ...   kind-specific encoding
//! crc    u32    CRC-32/IEEE over the body
//! ```
//!
//! Kinds:
//!
//! | kind | record | payload |
//! |---|---|---|
//! | 1 | `Samples` | `count u32`, then per sample: `stream u64`, `flag u8` (1 = explicit minute follows), `[minute u64]`, `value u64` (f64 bits) |
//! | 2 | `Register` | `id u64`, `train_size u32`, `qa_window u32`, `qa_period u32`, `qa_threshold u64` (f64 bits), `f32_history u8` (optional; absent in pre-cluster logs = 0) |
//! | 3 | `Evict` | `id u64` |
//!
//! Decoding never panics and never allocates more than the *declared and
//! validated* length: the length field is checked against the reader's cap
//! before anything is sliced, and the sample count is cross-checked against
//! the remaining payload bytes before the vector is reserved — a forged
//! count costs the reader a comparison, not memory.
//!
//! `kind` + payload on its own is [`encode_payload`]/[`decode_payload`]:
//! the unit the cluster's `LARPFEED` chunks embed, byte for byte.

use crate::codec::{self, Reader};

/// Fixed body-header length: seq + kind.
pub const RECORD_HEADER_LEN: usize = 9;

/// Cap on one record's payload: 4 MiB, comfortably above the largest sample
/// batch the fleet engine pushes while still bounding a corrupt length.
pub const MAX_RECORD_PAYLOAD: usize = 4 << 20;

/// Smallest on-disk footprint of one encoded sample (stream + flag + value).
const MIN_SAMPLE_LEN: usize = 17;

/// One logged sample: the exact triple the fleet push path accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Stream id.
    pub stream: u64,
    /// Explicit sample minute; `None` means auto-clocked at replay, exactly
    /// as the live push was.
    pub minute: Option<u64>,
    /// Sample value (NaN and friends round-trip bit-exactly).
    pub value: f64,
}

/// The wire-tunable registration quadruple (the same subset netserve's
/// `RegisterWith` exposes); everything else of a stream's configuration is
/// the serving engine's default and need not be logged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegisterTuning {
    /// Samples per (re)training window.
    pub train_size: u32,
    /// QA audit window length.
    pub qa_window: u32,
    /// QA audit period.
    pub qa_period: u32,
    /// QA rolling-MSE retrain threshold.
    pub qa_threshold: f64,
    /// Whether the stream stores history in f32 mode (halved ring memory).
    /// Encoded as a trailing flag byte; records written before the flag
    /// existed decode as `false`, matching the engine default.
    pub f32_history: bool,
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch of accepted samples.
    Samples(Vec<Sample>),
    /// A stream registration.
    Register {
        /// Stream id.
        id: u64,
        /// Tunables captured at registration.
        tuning: RegisterTuning,
    },
    /// A stream eviction.
    Evict {
        /// Stream id.
        id: u64,
    },
}

const KIND_SAMPLES: u8 = 1;
const KIND_REGISTER: u8 = 2;
const KIND_EVICT: u8 = 3;

/// Why a record failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends inside a record: at a segment tail this is a torn
    /// write, mid-stream it is truncation. Either way nothing decodable
    /// remains at this offset.
    Truncated,
    /// The declared body length is outside `[RECORD_HEADER_LEN,
    /// RECORD_HEADER_LEN + max_payload]`.
    BadLength(u32),
    /// CRC mismatch: the record was corrupted at rest.
    BadCrc,
    /// CRC passed but the payload does not decode (unknown kind, forged
    /// count, trailing bytes) — corruption that happens to preserve the CRC
    /// field, or a version skew.
    BadPayload,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "record truncated"),
            RecordError::BadLength(n) => write!(f, "record body length {n} out of bounds"),
            RecordError::BadCrc => write!(f, "record crc mismatch"),
            RecordError::BadPayload => write!(f, "record payload undecodable"),
        }
    }
}

/// Encodes one `Samples` record directly from a borrowed slice into `out`
/// (cleared first). The hot append path: no intermediate [`WalRecord`] is
/// built.
pub fn encode_samples_into(out: &mut Vec<u8>, seq: u64, samples: &[Sample]) {
    let payload_len: usize = 4 + samples
        .iter()
        .map(|s| MIN_SAMPLE_LEN + if s.minute.is_some() { 8 } else { 0 })
        .sum::<usize>();
    frame_into(out, seq, payload_len, |out| put_samples(out, samples));
}

/// Encodes one `Register` record into `out` (cleared first).
pub fn encode_register_into(out: &mut Vec<u8>, seq: u64, id: u64, tuning: &RegisterTuning) {
    frame_into(out, seq, 8 + 4 + 4 + 4 + 8 + 1, |out| put_register(out, id, tuning));
}

/// Encodes one `Evict` record into `out` (cleared first).
pub fn encode_evict_into(out: &mut Vec<u8>, seq: u64, id: u64) {
    frame_into(out, seq, 8, |out| put_evict(out, id));
}

/// Encodes any record (convenience over the `_into` functions).
pub fn encode(seq: u64, record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(&mut out, seq, 0, |out| encode_payload(out, record));
    out
}

/// Appends one record's `kind` byte and payload: the bytes a record body
/// holds after its `seq`. The cluster's `LARPFEED` WAL-tail chunks embed
/// records in exactly this encoding.
pub fn encode_payload(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::Samples(samples) => put_samples(out, samples),
        WalRecord::Register { id, tuning } => put_register(out, *id, tuning),
        WalRecord::Evict { id } => put_evict(out, *id),
    }
}

/// Clears `out` and writes one whole frame: length, `seq`, whatever `put`
/// appends (kind + payload, `payload_len` bytes past the kind, used only to
/// reserve), CRC.
fn frame_into(out: &mut Vec<u8>, seq: u64, payload_len: usize, put: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.reserve(4 + RECORD_HEADER_LEN + payload_len + codec::CRC_LEN);
    // Length placeholder, patched once the body is written.
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    put(out);
    let body_len = out.len() - 4;
    assert!(body_len <= RECORD_HEADER_LEN + MAX_RECORD_PAYLOAD, "record exceeds payload cap");
    out[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    let crc = codec::crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn put_samples(out: &mut Vec<u8>, samples: &[Sample]) {
    out.push(KIND_SAMPLES);
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    for s in samples {
        out.extend_from_slice(&s.stream.to_le_bytes());
        match s.minute {
            Some(m) => {
                out.push(1);
                out.extend_from_slice(&m.to_le_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&s.value.to_bits().to_le_bytes());
    }
}

fn put_register(out: &mut Vec<u8>, id: u64, tuning: &RegisterTuning) {
    out.push(KIND_REGISTER);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&tuning.train_size.to_le_bytes());
    out.extend_from_slice(&tuning.qa_window.to_le_bytes());
    out.extend_from_slice(&tuning.qa_period.to_le_bytes());
    out.extend_from_slice(&tuning.qa_threshold.to_bits().to_le_bytes());
    out.push(tuning.f32_history as u8);
}

fn put_evict(out: &mut Vec<u8>, id: u64) {
    out.push(KIND_EVICT);
    out.extend_from_slice(&id.to_le_bytes());
}

/// Decodes one record from the front of `buf`, returning the sequence
/// number, the record, and the bytes consumed.
///
/// `Err(Truncated)` means the buffer ends inside the record; all other
/// errors are permanent for this offset. Never panics, never allocates past
/// the validated declared length.
pub fn decode(
    buf: &[u8],
    max_payload: usize,
) -> std::result::Result<(u64, WalRecord, usize), RecordError> {
    let declared = Reader::new(buf).u32().map_err(|_| RecordError::Truncated)?;
    let body_len = declared as usize;
    if body_len < RECORD_HEADER_LEN || body_len > RECORD_HEADER_LEN + max_payload {
        return Err(RecordError::BadLength(declared));
    }
    let total = 4 + body_len + codec::CRC_LEN;
    let framed = buf.get(4..total).ok_or(RecordError::Truncated)?;
    let body = codec::unseal(framed).ok_or(RecordError::BadCrc)?;
    let mut r = Reader::new(body);
    let decoded = r.u64().and_then(|seq| Ok((seq, decode_payload(&mut r)?)));
    match decoded.and_then(|ok| r.finish().map(|()| ok)) {
        Ok((seq, record)) => Ok((seq, record, total)),
        // Trailing payload bytes mean the record was not written by this
        // codec, as does anything else the payload decoder refuses.
        Err(_) => Err(RecordError::BadPayload),
    }
}

/// Decodes one record's `kind` byte and payload (the [`encode_payload`]
/// encoding), leaving `r` just past it.
pub fn decode_payload(r: &mut Reader<'_>) -> std::result::Result<WalRecord, codec::Error> {
    let record = match r.u8()? {
        KIND_SAMPLES => {
            // A forged count cannot out-allocate the bytes it arrived in.
            let count = r.len(MIN_SAMPLE_LEN)?;
            let mut samples = Vec::with_capacity(count);
            for _ in 0..count {
                let stream = r.u64()?;
                let minute = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(codec::Error::Invalid),
                };
                samples.push(Sample { stream, minute, value: r.f64()? });
            }
            WalRecord::Samples(samples)
        }
        KIND_REGISTER => {
            let id = r.u64()?;
            let (train_size, qa_window, qa_period) = (r.u32()?, r.u32()?, r.u32()?);
            let qa_threshold = r.f64()?;
            // Trailing flag byte added for f32-history streams; a WAL
            // record written before the flag existed simply ends here.
            let f32_history = match (r.remaining() > 0).then(|| r.u8()).transpose()? {
                None | Some(0) => false,
                Some(1) => true,
                Some(_) => return Err(codec::Error::Invalid),
            };
            let tuning =
                RegisterTuning { train_size, qa_window, qa_period, qa_threshold, f32_history };
            WalRecord::Register { id, tuning }
        }
        KIND_EVICT => WalRecord::Evict { id: r.u64()? },
        _ => return Err(codec::Error::Invalid),
    };
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;

    fn sample_record() -> WalRecord {
        WalRecord::Samples(vec![
            Sample { stream: 7, minute: None, value: 41.5 },
            Sample { stream: 9, minute: Some(1440), value: f64::NAN },
            Sample { stream: u64::MAX, minute: Some(0), value: -0.0 },
        ])
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let records = [
            sample_record(),
            WalRecord::Samples(Vec::new()),
            WalRecord::Register {
                id: 3,
                tuning: RegisterTuning {
                    train_size: 40,
                    qa_window: 8,
                    qa_period: 4,
                    qa_threshold: 2.0,
                    f32_history: false,
                },
            },
            WalRecord::Register {
                id: 4,
                tuning: RegisterTuning {
                    train_size: 64,
                    qa_window: 16,
                    qa_period: 8,
                    qa_threshold: 1.5,
                    f32_history: true,
                },
            },
            WalRecord::Evict { id: 12 },
        ];
        for (i, rec) in records.iter().enumerate() {
            let bytes = encode(i as u64 + 1, rec);
            let (seq, decoded, used) = decode(&bytes, MAX_RECORD_PAYLOAD).unwrap();
            assert_eq!(seq, i as u64 + 1);
            assert_eq!(used, bytes.len());
            // PartialEq is false for NaN; compare through the encoder.
            assert_eq!(encode(seq, &decoded), bytes, "record {i} did not round trip");
        }
    }

    #[test]
    fn incomplete_prefixes_report_truncation() {
        let bytes = encode(5, &sample_record());
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut], MAX_RECORD_PAYLOAD).unwrap_err(),
                RecordError::Truncated,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_body_bit_flip_is_caught() {
        let bytes = encode(5, &sample_record());
        for byte in 4..bytes.len() - 4 {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                assert!(
                    decode(&m, MAX_RECORD_PAYLOAD).is_err(),
                    "flip {byte}.{bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn forged_length_rejected_before_allocation() {
        let mut bytes = encode(5, &sample_record());
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&bytes, MAX_RECORD_PAYLOAD).unwrap_err(),
            RecordError::BadLength(u32::MAX)
        );
        bytes[..4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode(&bytes, MAX_RECORD_PAYLOAD).unwrap_err(), RecordError::BadLength(3));
    }

    #[test]
    fn forged_sample_count_rejected_after_crc_repair() {
        // Patch the count field to a huge value and re-CRC so only the
        // payload validation can catch it: the decoder must reject without
        // reserving a huge vector.
        let mut bytes = encode(5, &sample_record());
        let count_at = 4 + RECORD_HEADER_LEN;
        bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes, MAX_RECORD_PAYLOAD).unwrap_err(), RecordError::BadPayload);
    }

    /// A `Register` record written before the `f32_history` flag byte
    /// existed (28-byte payload) must still decode, with the flag defaulting
    /// to `false` — upgraded nodes replay pre-cluster WALs unchanged.
    #[test]
    fn legacy_register_without_flag_byte_decodes_as_f64() {
        let tuning = RegisterTuning {
            train_size: 40,
            qa_window: 8,
            qa_period: 4,
            qa_threshold: 2.0,
            f32_history: false,
        };
        let mut bytes = encode(9, &WalRecord::Register { id: 11, tuning });
        // Drop the trailing flag byte and re-frame: len -1, fresh CRC.
        let crc_at = bytes.len() - 4;
        bytes.remove(crc_at - 1);
        let body_len = (bytes.len() - 8) as u32;
        bytes[..4].copy_from_slice(&body_len.to_le_bytes());
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());

        let (seq, rec, used) = decode(&bytes, MAX_RECORD_PAYLOAD).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(used, bytes.len());
        assert_eq!(rec, WalRecord::Register { id: 11, tuning });
        // A flag byte with an out-of-range value is corruption, not a bool.
        let mut bad = encode(9, &WalRecord::Register { id: 11, tuning });
        let flag_at = bad.len() - 5;
        bad[flag_at] = 2;
        let body_end = bad.len() - 4;
        let crc = crc32(&bad[4..body_end]);
        bad[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bad, MAX_RECORD_PAYLOAD).unwrap_err(), RecordError::BadPayload);
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        let rewrite_crc = |bytes: &mut Vec<u8>| {
            let body_end = bytes.len() - 4;
            let crc = crc32(&bytes[4..body_end]);
            bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        };
        let mut bytes = encode(5, &WalRecord::Evict { id: 1 });
        bytes[4 + 8] = 99; // kind byte
        rewrite_crc(&mut bytes);
        assert_eq!(decode(&bytes, MAX_RECORD_PAYLOAD).unwrap_err(), RecordError::BadPayload);

        // An Evict with one extra payload byte: CRC fine, payload not.
        let mut bytes = encode(5, &WalRecord::Evict { id: 1 });
        let crc_at = bytes.len() - 4;
        bytes.insert(crc_at, 0xAB);
        let body_len = (bytes.len() - 8) as u32;
        bytes[..4].copy_from_slice(&body_len.to_le_bytes());
        rewrite_crc(&mut bytes);
        assert_eq!(decode(&bytes, MAX_RECORD_PAYLOAD).unwrap_err(), RecordError::BadPayload);
    }
}
