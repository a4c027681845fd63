//! Fleet serving engine: sharded multi-stream online prediction.
//!
//! The paper's prototype serves *one* VM metric stream; a production resource
//! manager watches thousands (every VM × every metric). This crate scales the
//! serving layer out: a [`FleetEngine`] owns N independent
//! [`larp::GuardedLarp`] instances behind stable [`StreamId`]s, sharded
//! across a fixed pool of worker threads; a small push is applied by the
//! thread that pushed it, so only bulk loads wake the workers.
//!
//! Design properties:
//!
//! * **Deterministic sharding** — a stream's shard is a pure hash of
//!   `(fleet_seed, stream_id)` ([`shard::shard_of`]); no work stealing and
//!   one drainer per shard at a time, so per-stream sample order is exactly
//!   enqueue order and fleet results are reproducible given seed + shard
//!   count.
//! * **Batched ingestion with backpressure** — [`FleetEngine::push_batch`]
//!   fans samples out to per-shard bounded queues; a full queue blocks the
//!   pusher until it has room, so no accepted sample is lost.
//!   [`FleetEngine::admit_batch`] splits a push into admission and a
//!   [`DrainToken`] whose drop applies it, so a server can ack first.
//! * **Stream lifecycle** — register / evict / idle-expiry sweep
//!   ([`FleetEngine::sweep_idle`]).
//! * **Checkpointing** — [`FleetEngine::checkpoint`] serializes every
//!   stream's full serving state (via `larp::snapshot`);
//!   [`FleetEngine::restore`] warm-starts a fleet from those bytes without
//!   retraining a single model, even onto a different shard count.
//! * **Durability** — with [`DurabilityConfig`] set, every accepted push is
//!   appended to a crash-safe write-ahead log *before* the call returns;
//!   [`FleetEngine::checkpoint_durable`] persists a checkpoint and
//!   truncates the log, and [`FleetEngine::recover`] rebuilds
//!   the fleet bit-identically from checkpoint + WAL tail after a crash
//!   (DESIGN.md §8).
//! * **Health surface** — [`FleetEngine::health`] aggregates per-shard queue
//!   depths, degraded/quarantined stream counts and rolled-up
//!   [`larp::OnlineCounters`] into one [`FleetHealth`].
//! * **Observability** — every engine owns an [`obs::Registry`] and event
//!   ring: larp serving outcomes, backpressure accounting, enqueue latency,
//!   per-shard queue depth and checkpoint traffic are recorded continuously
//!   and exposed via [`FleetEngine::prometheus`] / [`FleetEngine::obs_json`]
//!   (metric naming scheme: DESIGN.md §5).
//!
//! The `fleet_throughput` binary drives a synthetic multi-VM fleet
//! (`vmsim::fleet`) through the engine and reports streams/sec and push
//! latency percentiles as JSON (including the registry snapshot); `obs_dump`
//! dumps a fault-injected fleet's full observability surface in either
//! exposition format.
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod durability;
pub mod engine;
pub mod health;
mod observe;
pub mod shard;

pub use config::{BackpressurePolicy, DurabilityConfig, FleetConfig, StreamConfig};
pub use durability::{RecoverySummary, StoreStats};
pub use engine::{DrainToken, FleetEngine, FleetMemReport, StreamInfo};
pub use health::{FleetHealth, PushReport, ShardHealth};
pub use shard::shard_of;
pub use store::FsyncPolicy;

/// Stable identifier of one prediction stream within a fleet.
pub type StreamId = u64;

/// Errors from fleet configuration, lifecycle and checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// An invalid engine or stream configuration value.
    InvalidConfig(String),
    /// The stream id is not registered.
    UnknownStream(StreamId),
    /// The stream id is already registered.
    DuplicateStream(StreamId),
    /// A malformed or incompatible checkpoint.
    Checkpoint(String),
    /// Propagated failure from the serving substrate.
    Serving(String),
    /// A durable-store failure (WAL append, checkpoint persistence, or
    /// recovery).
    Durability(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            FleetError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            FleetError::DuplicateStream(id) => write!(f, "stream {id} already registered"),
            FleetError::Checkpoint(m) => write!(f, "checkpoint failure: {m}"),
            FleetError::Serving(m) => write!(f, "serving failure: {m}"),
            FleetError::Durability(m) => write!(f, "durability failure: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Durability(e.to_string())
    }
}

impl From<store::StoreError> for FleetError {
    fn from(e: store::StoreError) -> Self {
        FleetError::Durability(e.to_string())
    }
}

impl From<larp::LarpError> for FleetError {
    fn from(e: larp::LarpError) -> Self {
        match e {
            larp::LarpError::InvalidConfig(m) => FleetError::InvalidConfig(m),
            larp::LarpError::Snapshot(m) => FleetError::Checkpoint(m),
            other => FleetError::Serving(other.to_string()),
        }
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, FleetError>;
