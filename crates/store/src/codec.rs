//! Byte framing shared by every framed format in the workspace: the wire
//! protocol, WAL records, `STORMAN1`, `STORCKP1`, `LARPFEED` and
//! `LARPRING` (table in DESIGN.md §8).
//!
//! * [`crc32`] — CRC-32/IEEE, the one checksum all of them carry;
//!   [`Crc32`] computes it incrementally and [`crc32_combine`] joins the
//!   CRCs of two adjacent pieces.
//! * [`seal`] / [`unseal`] — append / verify a CRC trailer over a whole
//!   buffer.
//! * [`Reader`] — a checked little-endian cursor. Every read is bounds
//!   checked, [`Reader::len`] refuses a forged item count before anything is
//!   allocated for it, and [`Reader::finish`] rejects trailing bytes. Its
//!   [`Error`] is a small `Copy` value, so a decoder pays for field context
//!   (a formatted message) only on the failure branch.
//! * [`write_atomic`] / [`write_atomic_with`] — replace a file so a crash
//!   leaves the old bytes or the new ones, never a mix.
//!
//! All integers are little-endian; `f64`s travel as their IEEE-754 bits.

use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

/// Length of the CRC-32 trailer [`seal`] appends.
pub const CRC_LEN: usize = 4;

/// CRC-32/IEEE (reflected, polynomial 0xEDB88320), the Ethernet/zip CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental [`crc32`]: feeding a byte stream in pieces of any size gives
/// the CRC of their concatenation, so a writer can checksum what it streams
/// without holding it.
///
/// Slicing-by-8: eight bytes per step through eight lookup tables, then the
/// tail a byte at a time. Same values as the bytewise loop.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    /// The running register, pre- and post-inverted as the standard asks.
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of no bytes.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Extends the checksum over `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The CRC-32 of `a ‖ b` from `crc1 = crc32(a)`, `crc2 = crc32(b)` and
/// `len2 = b.len()`, without the bytes (zlib's `crc32_combine`). A writer
/// that learns a header field only after streaming the body checksums the
/// body as it goes and combines it with the final header's CRC.
///
/// Appending `len2` zero bytes to `a` is a linear map on the CRC register;
/// it is applied as repeated squarings of the one-zero-bit operator, so the
/// cost is O(log len2) 32×32 GF(2) matrix products.
pub fn crc32_combine(crc1: u32, crc2: u32, len2: u64) -> u32 {
    /// `mat × vec` over GF(2); column `i` of `mat` is `mat[i]`.
    fn times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }
    fn square(mat: &[u32; 32]) -> [u32; 32] {
        std::array::from_fn(|i| times(mat, mat[i]))
    }

    if len2 == 0 {
        return crc1;
    }
    // The operator for one zero bit: shift right, folding the polynomial in.
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    for (i, col) in odd.iter_mut().enumerate().skip(1) {
        *col = 1 << (i - 1);
    }
    let mut even = square(&odd); // two zero bits
    odd = square(&even); // four zero bits
    let mut crc = crc1;
    let mut len = len2;
    // The first squaring in the loop yields the one-zero-byte operator;
    // each later one doubles the span, consuming one bit of `len`.
    loop {
        even = square(&odd);
        if len & 1 != 0 {
            crc = times(&even, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
        odd = square(&even);
        if len & 1 != 0 {
            crc = times(&odd, crc);
        }
        len >>= 1;
        if len == 0 {
            break;
        }
    }
    crc ^ crc2
}

/// `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[k][i]` advances the
/// CRC of byte `i` over `k` more zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Appends the CRC-32 of everything already in `buf` as a trailer.
pub fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies a [`seal`]ed buffer and returns the body before its trailer;
/// `None` if the buffer is shorter than the trailer or the CRC mismatches.
pub fn unseal(buf: &[u8]) -> Option<&[u8]> {
    let (body, trailer) = buf.split_at_checked(buf.len().checked_sub(CRC_LEN)?)?;
    let carried = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    (crc32(body) == carried).then_some(body)
}

/// Appends a u16-length-prefixed UTF-8 string (the [`Reader::str`]
/// encoding).
///
/// # Panics
///
/// Panics if `s` is longer than `u16::MAX` bytes; callers cap or validate
/// their strings first.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("string field longer than u16::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Replaces `path` with `bytes` atomically and durably
/// ([`write_atomic_with`]).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    write_atomic_with(path, |f: &mut File| f.write_all(bytes))
}

/// Replaces `path` atomically and durably with what `fill` writes: create
/// a sibling `.tmp` file, let `fill` write it, `sync_data` it, rename it
/// over `path`, then fsync the parent directory so the rename itself is on
/// disk. A crash at any point leaves either the old file or the new one; a
/// `fill` error leaves `path` untouched (and a partial `.tmp` the next
/// write truncates). Returns what `fill` returned.
pub fn write_atomic_with<T, E: From<std::io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut File) -> Result<T, E>,
) -> Result<T, E> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    let filled = fill(&mut f)?;
    f.sync_data()?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Best effort: some filesystems cannot open a directory for sync.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(filled)
}

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ends inside a field.
    Truncated,
    /// A declared item count cannot fit in the bytes that remain.
    Count,
    /// A string field is not UTF-8.
    Utf8,
    /// A tag, flag or discriminant outside the values its format defines.
    Invalid,
    /// This many bytes remain after the last field.
    Trailing(usize),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated"),
            Error::Count => write!(f, "item count exceeds the remaining bytes"),
            Error::Utf8 => write!(f, "not UTF-8"),
            Error::Invalid => write!(f, "invalid value"),
            Error::Trailing(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for Error {}

/// Checked little-endian cursor over a byte slice. Never panics; every
/// read either returns a value and advances, or returns an [`Error`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        if n > self.remaining() {
            return Err(Error::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.bytes(N)?.try_into().expect("bytes(N) returns N bytes"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.bytes(1)?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `f64` from its little-endian IEEE-754 bits (NaN payloads kept).
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.u64().map(f64::from_bits)
    }

    /// A u16-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, Error> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| Error::Utf8)
    }

    /// A `u32` item count, refused with [`Error::Count`] unless `count ×
    /// min_item_bytes` fits in the remaining input — the guard that keeps a
    /// forged count from sizing an allocation.
    pub fn len(&mut self, min_item_bytes: usize) -> Result<usize, Error> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(Error::Count);
        }
        Ok(count)
    }

    /// Everything not yet consumed (a trailing blob field).
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// Ends the decode: [`Error::Trailing`] if any input is left over.
    pub fn finish(self) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_form() {
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..1_024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=1_024 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_crc() {
        let base = crc32(b"durable trace store");
        let mut bytes = b"durable trace store".to_vec();
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "flip {i} not detected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn seal_and_unseal_round_trip_and_catch_damage() {
        let mut buf = b"STORMAN1 body".to_vec();
        seal(&mut buf);
        assert_eq!(buf.len(), 13 + CRC_LEN);
        assert_eq!(unseal(&buf), Some(&b"STORMAN1 body"[..]));
        for cut in 0..buf.len() {
            assert_eq!(unseal(&buf[..cut]), None, "cut {cut}");
        }
        for i in 0..buf.len() * 8 {
            let mut m = buf.clone();
            m[i / 8] ^= 1 << (i % 8);
            assert_eq!(unseal(&m), None, "flip {i}");
        }
    }

    #[test]
    fn reader_reads_every_width_and_refuses_overruns() {
        let mut buf = vec![7u8];
        buf.extend_from_slice(&0xBEEFu16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        put_str(&mut buf, "né");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.str(), Ok("né"));
        assert_eq!(r.u8(), Err(Error::Truncated));
        r.finish().unwrap();

        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let all = (|| {
                r.u8()?;
                r.u16()?;
                r.u32()?;
                r.u64()?;
                r.f64()?;
                r.str()
            })();
            assert_eq!(all, Err(Error::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn forged_counts_bad_utf8_and_trailing_bytes_are_refused() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(Reader::new(&buf).len(8), Err(Error::Count));
        let mut r = Reader::new(&buf);
        assert_eq!(r.len(0), Ok(u32::MAX as usize), "zero-size items need no bytes");
        assert_eq!(Reader::new(&2u32.to_le_bytes()).len(1), Err(Error::Count));

        let bad = [2u8, 0, 0xC3, 0x28];
        assert_eq!(Reader::new(&bad).str(), Err(Error::Utf8));

        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(Error::Trailing(2)));
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(r.rest(), &[2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("store-codec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new bytes").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new bytes");
        assert!(!dir.join("MANIFEST.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
