//! Golden-byte fixtures for the store's on-disk formats: a WAL segment pair
//! holding all three record kinds and its `STORMAN1` manifest.
//!
//! Each test asserts the encoder still writes the committed bytes and that
//! the decoder reads them back to the same values. Regenerate (only on an
//! implementation whose bytes are known good) with:
//! `cargo test -p store --test golden_bytes -- --ignored`

use std::fs;
use std::path::{Path, PathBuf};

use store::{read_tail, record, RegisterTuning, Sample, Wal, WalOptions, WalRecord};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn assert_golden(name: &str, bytes: &[u8]) {
    let want = fs::read(fixture(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    assert!(bytes == want.as_slice(), "{name}: encoded bytes differ from the golden fixture");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The logged history: every record kind, explicit and auto-clocked
/// minutes, and the awkward f64s.
fn records() -> Vec<WalRecord> {
    vec![
        WalRecord::Register {
            id: 7,
            tuning: RegisterTuning {
                train_size: 40,
                qa_window: 8,
                qa_period: 4,
                qa_threshold: 2.5,
                f32_history: true,
            },
        },
        WalRecord::Samples(vec![
            Sample { stream: 7, minute: None, value: 41.5 },
            Sample { stream: 7, minute: Some(1440), value: -0.0 },
        ]),
        WalRecord::Evict { id: 7 },
        WalRecord::Samples(vec![Sample { stream: u64::MAX, minute: Some(0), value: f64::MAX }]),
    ]
}

/// Segment files (sorted by name) and manifest of a log holding
/// [`records`]. The 64-byte rotation threshold splits it over two segments,
/// so the manifest lists more than one entry.
fn wal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let options = WalOptions { segment_bytes: 64, ..WalOptions::default() };
    let mut wal = Wal::create(dir, options).unwrap();
    for rec in records() {
        match rec {
            WalRecord::Samples(samples) => wal.append_samples(&samples),
            WalRecord::Register { id, tuning } => wal.append_register(id, &tuning),
            WalRecord::Evict { id } => wal.append_evict(id),
        }
        .unwrap();
    }
    drop(wal);
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            (path.file_name().unwrap().to_string_lossy().into_owned(), fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn wal_segments_and_manifest_match_golden_bytes() {
    let dir = temp_dir("wal");
    let files = wal_files(&dir);
    let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["0000000000000001.seg", "0000000000000003.seg", "MANIFEST"]);
    for (name, bytes) in &files {
        assert_golden(&format!("wal_{name}"), bytes);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn golden_wal_decodes_to_the_logged_records() {
    let dir = temp_dir("wal-decode");
    for name in ["0000000000000001.seg", "0000000000000003.seg", "MANIFEST"] {
        fs::copy(fixture(&format!("wal_{name}")), dir.join(name)).unwrap();
    }
    let mut seen = Vec::new();
    let report = read_tail(&dir, 0, |seq, rec| seen.push((seq, rec))).unwrap();
    assert!(!report.manifest_rebuilt, "the golden manifest must decode");
    assert_eq!(report.gap_records, 0);
    assert!(!report.torn_tail);
    let want = records();
    assert_eq!(seen.len(), want.len());
    for (i, ((seq, rec), want)) in seen.iter().zip(&want).enumerate() {
        assert_eq!(*seq, i as u64 + 1);
        assert_eq!(record::encode(*seq, rec), record::encode(*seq, want), "record {seq}");
    }
    // Each record also decodes on its own, consuming exactly its frame.
    let seg = fs::read(fixture("wal_0000000000000001.seg")).unwrap();
    let (seq, rec, used) = record::decode(&seg[16..], record::MAX_RECORD_PAYLOAD).unwrap();
    assert_eq!((seq, &rec), (1, &want[0]));
    assert_eq!(record::encode(1, &rec), &seg[16..16 + used]);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
#[ignore = "rewrites the golden fixtures"]
fn regenerate_golden_fixtures() {
    fs::create_dir_all(fixture("")).unwrap();
    let dir = temp_dir("regen");
    for (name, bytes) in wal_files(&dir.join("wal")) {
        fs::write(fixture(&format!("wal_{name}")), bytes).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}
