//! Frame codec: length-prefixed, versioned, CRC-checked binary frames.
//!
//! Every message on the wire — request or response — travels in one frame
//! (all integers little-endian):
//!
//! ```text
//! len        u32    byte length of the body (everything between len and crc)
//! body:
//!   version    u8     PROTOCOL_VERSION (1)
//!   opcode     u8     request opcode, reply opcode (0x80|req) or ERROR (0xFF)
//!   reserved   u16    must be 0 (future flags; non-zero is rejected)
//!   request_id u64    client-chosen, echoed verbatim in the response
//!   payload    ...    opcode-specific encoding (see [`crate::msg`])
//! crc32      u32    CRC-32/IEEE over the body (store::codec::crc32)
//! ```
//!
//! The fixed body header is [`HEADER_LEN`] bytes; `len` must be at least
//! that and at most `HEADER_LEN + max_payload`, where `max_payload` is the
//! *reader's* cap — the server's is [`MAX_REQUEST_PAYLOAD`], the
//! client's defaults to [`MAX_RESPONSE_PAYLOAD`] (checkpoints come back large). A
//! declared length over the cap is rejected *before* any allocation, so a
//! hostile 4 GiB length costs the server twelve bytes of reads, not memory.
//!
//! Decoding never panics: every malformed input maps to a [`WireError`].

use std::io::{Read, Write};

use store::codec::crc32;

/// Wire protocol version. Bump on any incompatible frame or payload change;
/// the server rejects frames whose version it does not speak with
/// [`crate::msg::ErrorCode::UnsupportedVersion`] (versioning rules:
/// DESIGN.md §6).
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed body-header length: version + opcode + reserved + request_id.
pub const HEADER_LEN: usize = 12;

/// Cap on a request frame's payload (server side): 1 MiB. Frames declaring
/// more are rejected before allocation and the connection is closed.
pub const MAX_REQUEST_PAYLOAD: usize = 1 << 20;

/// Default cap on a response frame's payload (client side): 64 MiB, sized
/// for checkpoint downloads of large fleets.
pub const MAX_RESPONSE_PAYLOAD: usize = 64 << 20;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode byte (request, reply, or error — see [`crate::msg`]).
    pub opcode: u8,
    /// Client-chosen correlation id, echoed in responses.
    pub request_id: u64,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame failed to decode (or a read failed).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket read/write failed or hit EOF mid-frame.
    Io(std::io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Declared body length is below the fixed header size.
    TooShort(u32),
    /// Declared body length exceeds the reader's payload cap.
    TooLarge {
        /// The declared body length.
        declared: u32,
        /// The reader's cap on `HEADER_LEN + payload`.
        cap: usize,
    },
    /// CRC-32 mismatch: the frame was corrupted in transit.
    BadCrc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received body.
        actual: u32,
    },
    /// The frame speaks a protocol version this endpoint does not.
    BadVersion(u8),
    /// The reserved header field was non-zero.
    BadReserved(u16),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::TooShort(n) => write!(f, "frame body {n} shorter than header"),
            WireError::TooLarge { declared, cap } => {
                write!(f, "frame body {declared} exceeds cap {cap}")
            }
            WireError::BadCrc { expected, actual } => {
                write!(f, "crc mismatch: frame {expected:#010x}, computed {actual:#010x}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadReserved(r) => write!(f, "non-zero reserved field {r:#06x}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Encodes one frame.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX - HEADER_LEN` bytes — a frame
/// that large is a programming error, not a runtime condition.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let body_len = HEADER_LEN + frame.payload.len();
    assert!(body_len <= u32::MAX as usize, "frame body too large to encode");
    let mut out = Vec::with_capacity(4 + body_len + 4);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(frame.opcode);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&frame.payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// One decoded frame whose payload borrows the receive buffer — the
/// zero-copy twin of [`Frame`] used on the server's streaming decode path,
/// where the payload is dispatched and answered before the buffer advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Opcode byte (request, reply, or error — see [`crate::msg`]).
    pub opcode: u8,
    /// Client-chosen correlation id, echoed in responses.
    pub request_id: u64,
    /// Opcode-specific payload bytes, borrowed from the input slice.
    pub payload: &'a [u8],
}

/// Decodes one frame from a byte slice, returning the frame and the bytes
/// consumed. `Ok(None)` means the slice holds only a frame prefix so far
/// (feed more bytes); errors are permanent for this input.
///
/// This is the allocation-bounded core both [`read_frame`] and the property
/// tests drive: the length field is validated against `max_payload` before
/// anything is sliced.
pub fn decode(buf: &[u8], max_payload: usize) -> Result<Option<(Frame, usize)>, WireError> {
    match decode_ref(buf, max_payload)? {
        Some((f, used)) => Ok(Some((
            Frame { opcode: f.opcode, request_id: f.request_id, payload: f.payload.to_vec() },
            used,
        ))),
        None => Ok(None),
    }
}

/// [`decode`] without the payload copy: the returned [`FrameRef`] borrows
/// `buf`. Same validation order — the declared length is checked against
/// `max_payload` before anything is sliced.
pub fn decode_ref(
    buf: &[u8],
    max_payload: usize,
) -> Result<Option<(FrameRef<'_>, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    check_len(body_len as u32, max_payload)?;
    let total = 4 + body_len + 4;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[4..4 + body_len];
    let carried = u32::from_le_bytes(buf[4 + body_len..total].try_into().expect("4 bytes"));
    check_body(body, carried)?;
    Ok(Some((
        FrameRef {
            opcode: body[1],
            request_id: u64::from_le_bytes(body[4..12].try_into().expect("8 bytes")),
            payload: &body[HEADER_LEN..],
        },
        total,
    )))
}

/// Validates a declared body length against the fixed header size and the
/// reader's payload cap.
fn check_len(body_len: u32, max_payload: usize) -> Result<(), WireError> {
    if (body_len as usize) < HEADER_LEN {
        return Err(WireError::TooShort(body_len));
    }
    if body_len as usize > HEADER_LEN + max_payload {
        return Err(WireError::TooLarge { declared: body_len, cap: HEADER_LEN + max_payload });
    }
    Ok(())
}

/// Verifies the CRC, version, and reserved field of a frame body.
fn check_body(body: &[u8], carried_crc: u32) -> Result<(), WireError> {
    let actual = crc32(body);
    if actual != carried_crc {
        return Err(WireError::BadCrc { expected: carried_crc, actual });
    }
    // CRC passed, so the header is trustworthy (body length was validated
    // against HEADER_LEN before the body was read).
    let version = body[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let reserved = u16::from_le_bytes(body[2..4].try_into().expect("2 bytes"));
    if reserved != 0 {
        return Err(WireError::BadReserved(reserved));
    }
    Ok(())
}

/// Verifies the CRC and splits a frame body into its parts.
fn decode_body(body: &[u8], carried_crc: u32) -> Result<Frame, WireError> {
    check_body(body, carried_crc)?;
    Ok(Frame {
        opcode: body[1],
        request_id: u64::from_le_bytes(body[4..12].try_into().expect("8 bytes")),
        payload: body[HEADER_LEN..].to_vec(),
    })
}

/// Reads exactly one frame from a blocking reader.
///
/// Distinguishes a clean close (EOF before any length byte →
/// [`WireError::Closed`]) from a mid-frame truncation ([`WireError::Io`]).
/// The length field is validated before the body allocation.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, WireError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let body_len = u32::from_le_bytes(len_buf);
    check_len(body_len, max_payload)?;
    let mut rest = vec![0u8; body_len as usize + 4];
    r.read_exact(&mut rest)?;
    let carried = u32::from_le_bytes(rest[body_len as usize..].try_into().expect("4 crc bytes"));
    decode_body(&rest[..body_len as usize], carried)
}

/// Writes one frame to a blocking writer and flushes it.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode(frame))?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(opcode: u8, request_id: u64, payload: &[u8]) -> Frame {
        Frame { opcode, request_id, payload: payload.to_vec() }
    }

    #[test]
    fn frames_round_trip() {
        for f in [
            frame(0x01, 0, b""),
            frame(0x05, u64::MAX, b"\x00\x01\x02"),
            frame(0xFF, 42, &vec![7u8; 4096]),
        ] {
            let bytes = encode(&f);
            let (decoded, used) = decode(&bytes, 1 << 20).unwrap().expect("complete frame");
            assert_eq!(decoded, f);
            assert_eq!(used, bytes.len());
            let mut cursor = std::io::Cursor::new(&bytes);
            assert_eq!(read_frame(&mut cursor, 1 << 20).unwrap(), f);
        }
    }

    #[test]
    fn decode_ref_matches_decode_without_copying() {
        let f = frame(0x05, 77, b"zero-copy");
        let bytes = encode(&f);
        let (r, used) = decode_ref(&bytes, 1 << 20).unwrap().expect("complete frame");
        assert_eq!(r.opcode, f.opcode);
        assert_eq!(r.request_id, f.request_id);
        assert_eq!(r.payload, &f.payload[..]);
        assert_eq!(used, bytes.len());
        for cut in 0..bytes.len() {
            assert!(decode_ref(&bytes[..cut], 1 << 20).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let bytes = encode(&frame(0x04, 9, b"payload"));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], 1 << 20).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut bytes = encode(&frame(0x04, 9, b"payload"));
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        assert!(matches!(decode(&bytes, 1 << 20), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn every_single_bit_flip_in_the_body_is_caught() {
        let bytes = encode(&frame(0x08, 3, b"abcdef"));
        for byte in 4..bytes.len() - 4 {
            let mut m = bytes.clone();
            m[byte] ^= 1;
            assert!(
                matches!(decode(&m, 1 << 20), Err(WireError::BadCrc { .. })),
                "flip at byte {byte} slipped through"
            );
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut bytes = encode(&frame(0x04, 9, b""));
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes, 1 << 20), Err(WireError::TooLarge { .. })));
        // The blocking reader must reject it from the length field alone.
        let huge_len = u32::MAX.to_le_bytes();
        let mut cursor = std::io::Cursor::new(&huge_len[..]);
        assert!(matches!(read_frame(&mut cursor, 1 << 20), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn undersized_declared_length_rejected() {
        let mut bytes = encode(&frame(0x04, 9, b""));
        bytes[..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(decode(&bytes, 1 << 20), Err(WireError::TooShort(3))));
    }

    #[test]
    fn wrong_version_and_reserved_are_rejected() {
        // Re-encode with a patched body and a *valid* CRC, so the version
        // check itself is exercised rather than the CRC.
        let mut bytes = encode(&frame(0x04, 9, b"x"));
        bytes[4] = 2;
        let body_end = bytes.len() - 4;
        let crc = crc32(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes, 1 << 20), Err(WireError::BadVersion(2))));

        let mut bytes = encode(&frame(0x04, 9, b"x"));
        bytes[6] = 0xAA;
        let crc = crc32(&bytes[4..body_end]);
        bytes[body_end..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode(&bytes, 1 << 20), Err(WireError::BadReserved(0xAA))));
    }

    #[test]
    fn clean_close_vs_truncation() {
        let mut empty = std::io::Cursor::new(&b""[..]);
        assert!(matches!(read_frame(&mut empty, 1 << 20), Err(WireError::Closed)));
        let bytes = encode(&frame(0x04, 9, b"payload"));
        let mut cut = std::io::Cursor::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(read_frame(&mut cut, 1 << 20), Err(WireError::Io(_))));
    }
}
