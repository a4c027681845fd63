//! Hostile-input coverage for every CRC-sealed blob decoder, in the
//! `store/tests/codec_fuzz.rs` idiom: `LARPFEED` chunks, `LARPRING` rings,
//! the `STORCKP1` checkpoint wrapper and the `STORMAN1` WAL manifest.
//!
//! Each valid encoding is bit-flipped, truncated, or has a 4-byte window
//! overwritten with a hostile value and its CRC trailer *recomputed* — the
//! last kind gets past the checksum and exercises the structural checks
//! behind it (forged counts and lengths). Two properties must hold for
//! every input: the decoder never panics, and no single allocation it
//! makes exceeds a small multiple of the input size — a forged count is
//! refused before anything is allocated for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

use cluster::{FeedChunk, NodeInfo, Ring};
use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};
use store::{codec, read_tail, RegisterTuning, Sample, Wal, WalOptions, WalRecord};

/// Records the largest single allocation the current thread makes while
/// tracking is on.
struct LargestAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = TRACKING.try_with(|on| {
        if on.get() {
            let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged; `note` only reads and writes thread-local `Cell`s and
// never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Runs `decode` and returns the largest single allocation it made.
fn largest_allocation(decode: impl FnOnce()) -> usize {
    LARGEST.with(|m| m.set(0));
    TRACKING.with(|on| on.set(true));
    decode();
    TRACKING.with(|on| on.set(false));
    LARGEST.with(|m| m.get())
}

/// SplitMix64: the seeded stream of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One hostile variant of a sealed blob.
fn mutate(rng: &mut Rng, good: &[u8]) -> Vec<u8> {
    let mut bytes = good.to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        1 => bytes.truncate(rng.below(bytes.len())),
        _ => {
            // Forge a field, then re-seal so the CRC no longer protects
            // the decoder from it.
            let body_len = bytes.len() - codec::CRC_LEN;
            bytes.truncate(body_len);
            let value = match rng.below(4) {
                0 => u32::MAX,
                1 => 0x8000_0000,
                2 => 0,
                _ => rng.next() as u32,
            };
            let at = rng.below(body_len.saturating_sub(3).max(1));
            let end = (at + 4).min(body_len);
            bytes[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
            codec::seal(&mut bytes);
        }
    }
    bytes
}

/// Feeds `rounds` mutations of `good` to `decode`, asserting the allocation
/// bound on each. `slack` absorbs fixed costs that do not scale with the
/// input (an engine's start-up on the `STORCKP1` path).
fn fuzz(seed: u64, rounds: usize, good: &[u8], slack: usize, mut decode: impl FnMut(&[u8])) {
    let mut rng = Rng(seed);
    for round in 0..rounds {
        let bytes = mutate(&mut rng, good);
        let largest = largest_allocation(|| decode(&bytes));
        let bound = 64 * bytes.len() + slack;
        assert!(
            largest <= bound,
            "round {round}: a {}-byte input made a {largest}-byte allocation (bound {bound})",
            bytes.len()
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cluster-fuzz-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn feed_chunks_survive_hostile_bytes() {
    let snapshots = FeedChunk::Snapshots {
        source: "node-a".into(),
        covered_seq: 9,
        streams: vec![(3, 120, vec![7; 40]), (9, 77, Vec::new())],
    };
    let tail = FeedChunk::WalTail {
        source: "node-b".into(),
        records: vec![
            (10, WalRecord::Samples(vec![Sample { stream: 3, minute: Some(4), value: 1.5 }; 3])),
            (
                11,
                WalRecord::Register {
                    id: 4,
                    tuning: RegisterTuning {
                        train_size: 40,
                        qa_window: 8,
                        qa_period: 4,
                        qa_threshold: 2.0,
                        f32_history: false,
                    },
                },
            ),
            (12, WalRecord::Evict { id: 3 }),
        ],
    };
    for (seed, chunk) in [(0xFEED_0001, snapshots), (0xFEED_0002, tail)] {
        fuzz(seed, 3000, &chunk.encode(), 1024, |bytes| {
            let _ = FeedChunk::decode(bytes);
        });
    }
}

#[test]
fn rings_survive_hostile_bytes() {
    let nodes = (0..4)
        .map(|i| NodeInfo { name: format!("n{i}"), addr: format!("127.0.0.1:{}", 7000 + i) })
        .collect();
    let mut ring = Ring::new(3, 8, nodes).unwrap();
    ring.fail_over("n1").unwrap();
    // A decoded ring rebuilds its circle: `members × vnodes` 16-byte
    // points, which the decoder caps at 2^20 whatever the input size.
    fuzz(0xFEED_0003, 3000, &ring.encode(), 16 << 20, |bytes| {
        let _ = Ring::decode(bytes);
    });
}

#[test]
fn wal_manifests_survive_hostile_bytes() {
    let dir = temp_dir("manifest");
    let mut wal =
        Wal::create(&dir, WalOptions { segment_bytes: 64, ..WalOptions::default() }).unwrap();
    for i in 0..6u64 {
        wal.append_samples(&[Sample { stream: 1, minute: Some(i), value: i as f64 }]).unwrap();
    }
    drop(wal);
    let manifest = dir.join("MANIFEST");
    let good = fs::read(&manifest).unwrap();
    fuzz(0xFEED_0005, 1500, &good, 4096, |bytes| {
        fs::write(&manifest, bytes).unwrap();
        read_tail(&dir, 0, |_, _| {}).expect("a damaged manifest degrades, never errors");
    });
    let _ = fs::remove_dir_all(&dir);
}

fn durable(dir: &Path) -> FleetConfig {
    FleetConfig {
        shards: 1,
        queue_capacity: 16,
        durability: Some(DurabilityConfig::new(dir)),
        ..FleetConfig::default()
    }
}

#[test]
fn checkpoint_wrappers_survive_hostile_bytes() {
    let dir = temp_dir("storckp");
    let engine = FleetEngine::new(durable(&dir)).unwrap();
    engine.register(3).unwrap();
    engine.evict(3).unwrap();
    engine.checkpoint_durable().unwrap();
    drop(engine);
    let checkpoint = dir.join("CHECKPOINT");
    let good = fs::read(&checkpoint).unwrap();
    // Recovery builds a whole engine around the decode; its start-up
    // allocations are fixed, not input-driven.
    fuzz(0xFEED_0006, 200, &good, 1 << 20, |bytes| {
        fs::write(&checkpoint, bytes).unwrap();
        // A damaged wrapper degrades to WAL-only recovery; a damaged
        // payload that passes the wrapper is a typed error. Never a panic.
        let _ = FleetEngine::recover(durable(&dir), StreamConfig::default());
    });
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_covering_the_last_sequence_number_is_a_typed_error() {
    // A CRC-valid STORCKP1 that claims to cover WAL seq u64::MAX leaves no
    // sequence number for the log to continue at: recovery must refuse it
    // as corrupt rather than overflow computing the next one.
    let dir = temp_dir("storckp-max");
    let engine = FleetEngine::new(durable(&dir)).unwrap();
    engine.register(3).unwrap();
    engine.checkpoint_durable().unwrap();
    drop(engine);
    let checkpoint = dir.join("CHECKPOINT");
    let mut bytes = fs::read(&checkpoint).unwrap();
    bytes.truncate(bytes.len() - codec::CRC_LEN);
    bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    codec::seal(&mut bytes);
    fs::write(&checkpoint, &bytes).unwrap();
    let err = FleetEngine::recover(durable(&dir), StreamConfig::default())
        .err()
        .expect("a checkpoint at u64::MAX cannot be recovered");
    assert!(err.to_string().contains("corrupt"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
