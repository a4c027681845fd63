//! Golden-byte fixtures for the cluster's framed blobs: both `LARPFEED`
//! chunk kinds and a `LARPRING` ring carrying both handoff kinds.
//!
//! Each test asserts the encoder still writes the committed bytes and that
//! decoding the fixture yields the same value. Regenerate (only on an
//! implementation whose bytes are known good) with:
//! `cargo test -p cluster --test golden_bytes -- --ignored`

use std::fs;
use std::path::PathBuf;

use cluster::{FeedChunk, NodeInfo, Ring};
use store::{RegisterTuning, Sample, WalRecord};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn assert_golden(name: &str, bytes: &[u8]) {
    let want = fs::read(fixture(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    assert!(bytes == want.as_slice(), "{name}: encoded bytes differ from the golden fixture");
}

fn snapshots_chunk() -> FeedChunk {
    FeedChunk::Snapshots {
        source: "node-a".into(),
        covered_seq: 412,
        streams: vec![(3, 120, vec![1, 2, 3, 255]), (9, 77, Vec::new())],
    }
}

fn wal_tail_chunk() -> FeedChunk {
    FeedChunk::WalTail {
        source: "node-b".into(),
        records: vec![
            (
                413,
                WalRecord::Samples(vec![
                    Sample { stream: 3, minute: None, value: 1.5 },
                    Sample { stream: 9, minute: Some(78), value: -0.0 },
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
    }
}

fn ring() -> Ring {
    let nodes = ["a", "b", "c", "d"]
        .iter()
        .enumerate()
        .map(|(i, n)| NodeInfo { name: (*n).into(), addr: format!("127.0.0.1:{}", 7001 + i) })
        .collect();
    let mut ring = Ring::new(5, 16, nodes).unwrap();
    ring.reassign("b", "c").unwrap();
    ring.fail_over("d").unwrap();
    ring
}

#[test]
fn feed_chunks_match_golden_bytes_and_round_trip() {
    for (name, chunk) in
        [("feed_snapshots.bin", snapshots_chunk()), ("feed_wal_tail.bin", wal_tail_chunk())]
    {
        assert_golden(name, &chunk.encode());
        let back = FeedChunk::decode(&fs::read(fixture(name)).unwrap()).unwrap();
        assert_eq!(back, chunk, "{name}");
    }
}

#[test]
fn ring_matches_golden_bytes_and_round_trips() {
    let ring = ring();
    assert_golden("ring.bin", &ring.encode());
    let back = Ring::decode(&fs::read(fixture("ring.bin")).unwrap()).unwrap();
    assert_eq!(back, ring);
    assert_eq!(back.encode(), ring.encode());
}

#[test]
#[ignore = "rewrites the golden fixtures"]
fn regenerate_golden_fixtures() {
    fs::create_dir_all(fixture("")).unwrap();
    fs::write(fixture("feed_snapshots.bin"), snapshots_chunk().encode()).unwrap();
    fs::write(fixture("feed_wal_tail.bin"), wal_tail_chunk().encode()).unwrap();
    fs::write(fixture("ring.bin"), ring().encode()).unwrap();
}
