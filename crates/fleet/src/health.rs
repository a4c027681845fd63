//! Aggregate observability: push outcomes and fleet-wide health rollups.

use larp::OnlineCounters;

/// Outcome of one [`crate::FleetEngine::push_batch`] call.
///
/// Every sample of the batch is accepted exactly once: a full queue blocks
/// the pusher instead of refusing, and an accepted sample is always applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushReport {
    /// Samples enqueued for processing.
    pub accepted: u64,
    /// The write-ahead log append for this call failed: the accepted samples
    /// are being served from memory but are *not* durable — a crash before
    /// the next successful checkpoint loses them. Always `false` when the
    /// engine runs without durability.
    pub wal_failed: bool,
}

impl PushReport {
    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: PushReport) {
        self.accepted += other.accepted;
        self.wal_failed |= other.wal_failed;
    }
}

/// Health of one shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Samples currently waiting in the shard's queue.
    pub queue_depth: usize,
    /// Streams assigned to this shard.
    pub streams: usize,
    /// Streams whose most recent step was served degraded (a fallback pool
    /// member) or by last-value persistence.
    pub degraded_streams: usize,
    /// Streams with at least one currently-quarantined pool member.
    pub quarantined_streams: usize,
    /// Samples addressed to unregistered streams, dropped by the worker.
    pub unknown_dropped: u64,
}

/// Fleet-wide health rollup, from [`crate::FleetEngine::health`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetHealth {
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardHealth>,
    /// Registered streams across all shards.
    pub streams: usize,
    /// Cumulative push outcomes since engine start.
    pub pushes: PushReport,
    /// Clean samples that reached a predictor.
    pub steps: u64,
    /// Forecasts served across the fleet.
    pub forecasts: u64,
    /// Non-finite forecasts that escaped a serving stack (should be 0; the
    /// fleet counts rather than trusts).
    pub nonfinite_forecasts: u64,
    /// Retrainings performed across the fleet (including initial trainings).
    pub retrains: u64,
    /// Rolled-up fault-handling counters from every stream's online layer.
    pub counters: OnlineCounters,
}

impl FleetHealth {
    /// Streams currently degraded, fleet-wide.
    pub fn degraded_streams(&self) -> usize {
        self.shards.iter().map(|s| s.degraded_streams).sum()
    }

    /// Streams with quarantined pool members, fleet-wide.
    pub fn quarantined_streams(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined_streams).sum()
    }

    /// Total samples currently queued, fleet-wide.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Total unknown-stream samples dropped by workers.
    pub fn unknown_dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.unknown_dropped).sum()
    }
}

/// Accumulates one stream's online counters into a fleet rollup.
pub(crate) fn merge_counters(total: &mut OnlineCounters, one: &OnlineCounters) {
    total.quarantines += one.quarantines;
    total.retrain_failures += one.retrain_failures;
    total.nonfinite_forecasts += one.nonfinite_forecasts;
    total.degraded_steps += one.degraded_steps;
    total.fallback_steps += one.fallback_steps;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_report_merges() {
        let mut a = PushReport { accepted: 3, ..PushReport::default() };
        a.merge(PushReport { accepted: 2, wal_failed: true });
        assert_eq!(a, PushReport { accepted: 5, wal_failed: true });
    }

    #[test]
    fn fleet_health_sums_over_shards() {
        let h = FleetHealth {
            shards: vec![
                ShardHealth {
                    shard: 0,
                    queue_depth: 2,
                    streams: 3,
                    degraded_streams: 1,
                    quarantined_streams: 0,
                    unknown_dropped: 4,
                },
                ShardHealth {
                    shard: 1,
                    queue_depth: 5,
                    streams: 2,
                    degraded_streams: 1,
                    quarantined_streams: 2,
                    unknown_dropped: 0,
                },
            ],
            ..FleetHealth::default()
        };
        assert_eq!(h.queue_depth(), 7);
        assert_eq!(h.degraded_streams(), 2);
        assert_eq!(h.quarantined_streams(), 2);
        assert_eq!(h.unknown_dropped(), 4);
    }
}
