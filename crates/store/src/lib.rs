//! Durable trace store: a crash-safe segmented write-ahead log.
//!
//! Everything the fleet engine serves lives in memory; this crate is the
//! durability layer underneath it.
//!
//! * **Write-ahead log** ([`Wal`]) — an append-only sequence of CRC-checked,
//!   length-prefixed, sequence-numbered records spread over rotating segment
//!   files with a [manifest](wal). Every accepted sample, registration and
//!   eviction is appended *before* the caller sees an ack, so a crash can
//!   only lose work that was never acknowledged. Recovery scans the segments
//!   and degrades gracefully: torn writes, truncated tails, bit flips and
//!   missing segments stop replay at the last valid record with a counted
//!   gap — never a panic.
//!
//! Every CRC-framed format in the workspace — these files, the netserve
//! wire, the cluster's feed chunks and rings — frames its bytes through
//! [`codec`]: one CRC-32, one checked reader, one atomic file writer.
//!
//! The crate is dependency-free (std only) and knows nothing about the fleet
//! engine: records carry plain `(stream, minute, value)` triples and the
//! wire-tunable registration quadruple. The `fleet` crate owns the policy of
//! what gets logged when, and the checkpoint that lets the log be truncated;
//! this crate owns making it durable.
#![warn(missing_docs)]

pub mod codec;
pub mod record;
pub mod wal;

pub use record::{RegisterTuning, Sample, WalRecord, MAX_RECORD_PAYLOAD};
pub use wal::{read_tail, AppendInfo, FsyncPolicy, RecoveryReport, Wal, WalOptions, WalStats};

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
