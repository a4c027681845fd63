//! Durable trace store: crash-safe WAL + tiered RRD archives.
//!
//! Everything the fleet engine serves lives in memory; this crate is the
//! durability layer underneath it. Three cooperating pieces:
//!
//! * **Write-ahead log** ([`Wal`]) — an append-only sequence of CRC-checked,
//!   length-prefixed, sequence-numbered records spread over rotating segment
//!   files with a [manifest](wal). Every accepted sample, registration and
//!   eviction is appended *before* the caller sees an ack, so a crash can
//!   only lose work that was never acknowledged. Recovery scans the segments
//!   and degrades gracefully: torn writes, truncated tails, bit flips and
//!   missing segments stop replay at the last valid record with a counted
//!   gap — never a panic.
//! * **Memtable** ([`Memtable`]) — a bounded in-memory ring of the most
//!   recent raw samples per stream, the fine-grained query surface.
//! * **Tiered archives** ([`TieredArchive`]) — the paper's `vmkusage`
//!   cascade (1-min × 2 h → 5-min × 24 h → 30-min × 7 d): a background
//!   compactor consolidates memtable samples upward so long histories cost
//!   coarse rows, not raw samples.
//!
//! Every CRC-framed format in the workspace — these files, the netserve
//! wire, the cluster's feed chunks and rings — frames its bytes through
//! [`codec`]: one CRC-32, one checked reader, one atomic file writer.
//!
//! [`TraceStore`] binds the three together behind one handle and persists
//! the memtable + archives as a CRC-checked sidecar next to each checkpoint,
//! so a restart rebuilds the full query surface from checkpoint + WAL tail.
//!
//! The crate is dependency-free (std only) and knows nothing about the fleet
//! engine: records carry plain `(stream, minute, value)` triples and the
//! wire-tunable registration quadruple. The `fleet` crate owns the policy of
//! what gets logged when; this crate owns making it durable.
#![warn(missing_docs)]

pub mod archive;
pub mod blob;
pub mod codec;
pub mod memtable;
pub mod record;
pub mod store;
pub mod tiers;
pub mod wal;

pub use blob::BlobStore;
pub use memtable::Memtable;
pub use record::{RegisterTuning, Sample, WalRecord, MAX_RECORD_PAYLOAD};
pub use store::{Recovered, StoreOptions, StoreStats, TraceStore};
pub use tiers::{vmkusage_tiers, TierSpec, TieredArchive};
pub use wal::{read_tail, AppendInfo, FsyncPolicy, RecoveryReport, Wal, WalOptions};

/// Errors from the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes failed validation (CRC, magic, bounds). Recovery paths
    /// *count* corruption instead of erroring; this variant surfaces only
    /// where corruption cannot be degraded around (e.g. a checkpoint file).
    Corrupt(String),
    /// An invalid option or argument.
    InvalidConfig(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store data: {m}"),
            StoreError::InvalidConfig(m) => write!(f, "invalid store config: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
