//! Fleet engine and per-stream configuration.

use std::path::PathBuf;

use larp::{GuardedLarp, IngestConfig, LarpConfig, OnlineLarp, QualityAssuror, ResilienceConfig};
use store::FsyncPolicy;

use crate::{FleetError, Result};

/// What a shard does when a sample arrives and its queue is full. It has
/// one value: the engine blocks the pushing thread until the queue has room,
/// so an accepted sample is never lost and a WAL-logged sample is always
/// applied. The type stays so configurations that name the policy keep
/// building.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Block the pushing thread until a drainer frees space. Lossless, at
    /// the cost of coupling producer latency to drain throughput.
    #[default]
    Block,
}

/// Durable-ingestion configuration: where the engine's trace store lives
/// and how aggressively it syncs.
///
/// With durability enabled every accepted push is appended to a write-ahead
/// log *before* the push call returns — the ack implies the sample is
/// recoverable. [`crate::FleetEngine::recover`] rebuilds the serving state
/// from the newest durable checkpoint plus the WAL tail.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments and the checkpoint file. Created
    /// if missing; must not already hold a WAL when starting fresh (use
    /// [`crate::FleetEngine::recover`] for an existing one).
    pub dir: PathBuf,
    /// When the WAL fsyncs. The default (`OnRotate`) survives process
    /// crashes — `kill -9` loses nothing the OS accepted — but trades
    /// power-loss durability for append latency.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Keep WAL segments after a durable checkpoint covers them instead of
    /// deleting them (e.g. for offline replay or audits).
    pub retain_segments: bool,
    /// Take a durable checkpoint automatically after this many WAL records
    /// (0 disables the background checkpointer; call
    /// [`crate::FleetEngine::checkpoint_durable`] yourself).
    pub auto_checkpoint_records: u64,
}

impl DurabilityConfig {
    /// Durability under `dir` with default knobs (crash-safe `OnRotate`
    /// fsync, 8 MiB segments, manual checkpointing).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::OnRotate,
            segment_bytes: 8 << 20,
            retain_segments: false,
            auto_checkpoint_records: 0,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for zero-sized knobs.
    pub fn validate(&self) -> Result<()> {
        if self.segment_bytes == 0 {
            return Err(FleetError::InvalidConfig("durability segment_bytes must be >= 1".into()));
        }
        Ok(())
    }
}

/// Engine-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shards = number of worker threads. Stream→shard assignment
    /// is a pure hash, so results are deterministic given seed + shard count.
    pub shards: usize,
    /// Bounded capacity of each shard's ingest queue, in samples. Each
    /// shard reserves it when the engine starts.
    pub queue_capacity: usize,
    /// Policy when a shard queue is full; [`BackpressurePolicy::Block`] is
    /// its only value.
    pub backpressure: BackpressurePolicy,
    /// Seed for the shard-assignment hash (and, by convention, for the
    /// per-stream trace generators driving the fleet in tests and benches).
    pub fleet_seed: u64,
    /// Durable ingestion (WAL-before-ack + checkpoint/recovery). `None`
    /// keeps the engine purely in-memory, the previous behavior.
    pub durability: Option<DurabilityConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            fleet_seed: 2007,
            durability: None,
        }
    }
}

impl FleetConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidConfig`] for zero shards or queue
    /// capacity.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(FleetError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(FleetError::InvalidConfig("queue_capacity must be >= 1".into()));
        }
        if let Some(d) = &self.durability {
            d.validate()?;
        }
        Ok(())
    }
}

/// Per-stream serving configuration: everything needed to build one
/// [`GuardedLarp`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Ingestion sanitization policy.
    pub ingest: IngestConfig,
    /// LARPredictor configuration.
    pub larp: LarpConfig,
    /// Samples per (re)training window.
    pub train_size: usize,
    /// QA rolling-MSE retrain threshold (normalized units).
    pub qa_threshold: f64,
    /// QA audit window length.
    pub qa_window: usize,
    /// QA audit period.
    pub qa_period: usize,
    /// Fault-tolerance policy.
    pub resilience: ResilienceConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            ingest: IngestConfig::default(),
            larp: LarpConfig::default(),
            train_size: 40,
            qa_threshold: 2.0,
            qa_window: 8,
            qa_period: 4,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl StreamConfig {
    /// Builds the guarded serving stack for one stream.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the larp layers.
    pub fn build(&self) -> Result<GuardedLarp> {
        let qa = QualityAssuror::new(self.qa_threshold, self.qa_window, self.qa_period)?;
        let online = OnlineLarp::with_resilience(
            self.larp.clone(),
            self.train_size,
            qa,
            self.resilience.clone(),
        )?;
        Ok(GuardedLarp::from_parts(self.ingest.clone(), online)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_build() {
        FleetConfig::default().validate().unwrap();
        StreamConfig::default().build().unwrap();
    }

    #[test]
    fn zero_values_rejected() {
        assert!(FleetConfig { shards: 0, ..FleetConfig::default() }.validate().is_err());
        assert!(FleetConfig { queue_capacity: 0, ..FleetConfig::default() }.validate().is_err());
    }

    #[test]
    fn durability_knobs_validate() {
        let good = DurabilityConfig::new("/tmp/ignored");
        assert!(good.validate().is_ok());
        let bad = DurabilityConfig { segment_bytes: 0, ..DurabilityConfig::new("/tmp/ignored") };
        let cfg = FleetConfig { durability: Some(bad), ..FleetConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_stream_config_propagates() {
        let bad = StreamConfig { train_size: 1, ..StreamConfig::default() };
        assert!(bad.build().is_err());
        let bad = StreamConfig { qa_threshold: -1.0, ..StreamConfig::default() };
        assert!(bad.build().is_err());
    }
}
