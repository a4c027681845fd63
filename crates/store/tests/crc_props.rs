//! Property tests for the streaming CRC: feeding a buffer to
//! [`store::codec::Crc32`] in random chunks gives the one-shot
//! [`store::codec::crc32`], and [`store::codec::crc32_combine`] joins the
//! CRCs of the two halves of any split — empty halves included — into the
//! CRC of the whole. A checkpoint writer that back-patches its header
//! relies on both.

use simrng::{Rng64, Xoshiro256pp};
use store::codec::{crc32, crc32_combine, Crc32};

fn random_bytes(rng: &mut Xoshiro256pp, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Lengths from empty through a few slicing-by-8 blocks to past 64 KiB,
/// so every tail length and the multi-block path are covered.
fn random_len(rng: &mut Xoshiro256pp) -> usize {
    match rng.next_u64() % 4 {
        0 => (rng.next_u64() % 17) as usize,
        1 => (rng.next_u64() % 300) as usize,
        2 => (rng.next_u64() % 5_000) as usize,
        _ => 60_000 + (rng.next_u64() % 10_000) as usize,
    }
}

#[test]
fn chunked_incremental_crc_equals_one_shot() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xC4C3_2001);
    for case in 0..300 {
        let len = random_len(&mut rng);
        let bytes = random_bytes(&mut rng, len);
        let mut crc = Crc32::new();
        let mut at = 0;
        while at < len {
            // Empty chunks are legal updates and must change nothing.
            let step = (rng.next_u64() % 40) as usize;
            let end = (at + step).min(len);
            crc.update(&bytes[at..end]);
            at = end;
        }
        assert_eq!(crc.finish(), crc32(&bytes), "case {case}, len {len}");
    }
    assert_eq!(Crc32::new().finish(), crc32(b""));
    assert_eq!(Crc32::default().finish(), 0);
}

#[test]
fn combined_crc_of_a_split_equals_crc_of_the_whole() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xC4C3_2002);
    for case in 0..300 {
        let len = random_len(&mut rng);
        let bytes = random_bytes(&mut rng, len);
        let splits = [0, len, (rng.next_u64() % (len as u64 + 1)) as usize];
        for split in splits {
            let (a, b) = bytes.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                crc32(&bytes),
                "case {case}, len {len}, split {split}"
            );
        }
    }
}

#[test]
fn combine_matches_known_vectors() {
    // "123456789" split every way reproduces the standard check value.
    let whole = b"123456789";
    for split in 0..=whole.len() {
        let (a, b) = whole.split_at(split);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), 0xCBF4_3926, "{split}");
    }
}
