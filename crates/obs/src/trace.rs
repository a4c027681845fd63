//! Structured event tracing: a bounded, drop-counting ring buffer.
//!
//! Metrics answer "how many / how fast"; the event ring answers "what
//! happened, in what order": which predictor the selector switched to, when
//! a stream entered quarantine, when a checkpoint was written. Events are
//! discrete and comparatively rare (transitions, not per-sample ticks), so a
//! mutex-guarded ring is cheap; when producers outrun the buffer the oldest
//! events are evicted and counted, never silently lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Which rung of the degradation ladder served a forecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingRung {
    /// The k-NN-selected pool member (healthy serving).
    Primary,
    /// The lowest-windowed-error non-quarantined fallback member.
    Degraded,
    /// Last-value persistence (whole pool unavailable).
    Persistence,
}

impl ServingRung {
    /// Stable lowercase name, used by both expositions.
    pub fn name(self) -> &'static str {
        match self {
            ServingRung::Primary => "primary",
            ServingRung::Degraded => "degraded",
            ServingRung::Persistence => "persistence",
        }
    }
}

/// What happened. Payloads are plain numbers so the ring stays allocation-
/// free after construction and the vocabulary stays crate-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// The serving ladder's choice changed: which pool member now serves
    /// (`None` = persistence) and on which rung.
    SelectorDecision {
        /// Chosen pool member index.
        predictor: Option<u64>,
        /// Rung that produced the choice.
        rung: ServingRung,
    },
    /// A pool member was benched.
    QuarantineEnter {
        /// Pool member index.
        predictor: u64,
        /// Step clock at which it will be re-admitted.
        until_step: u64,
    },
    /// A pool member's quarantine expired.
    QuarantineExit {
        /// Pool member index.
        predictor: u64,
    },
    /// Serving health moved between rungs of the degradation ladder.
    DegradationTransition {
        /// Rung before this step.
        from: ServingRung,
        /// Rung after this step.
        to: ServingRung,
    },
    /// A (re)training succeeded.
    RetrainSucceeded {
        /// Wall-clock training duration in microseconds.
        duration_us: u64,
    },
    /// A (re)training failed; the stale model keeps serving under backoff.
    RetrainFailed {
        /// Consecutive failures since the last success.
        consecutive: u64,
    },
    /// A (re)training fit exceeded the slow-retrain threshold.
    SlowRetrain {
        /// Wall-clock fit time in microseconds.
        fit_us: u64,
        /// The threshold it exceeded.
        threshold_us: u64,
    },
    /// A fleet checkpoint was serialized.
    CheckpointSave {
        /// Streams captured.
        streams: u64,
        /// Encoded size in bytes.
        bytes: u64,
    },
    /// A fleet was restored from checkpoint bytes.
    CheckpointRestore {
        /// Streams restored.
        streams: u64,
        /// Checkpoint size in bytes.
        bytes: u64,
    },
    /// A stream was evicted from the fleet.
    StreamEvicted {
        /// True for idle-sweep expiry, false for explicit eviction.
        idle: bool,
    },
    /// A network client connection was accepted.
    NetConnOpened {
        /// Server-assigned connection id.
        conn: u64,
    },
    /// A network client connection ended (clean or not).
    NetConnClosed {
        /// Server-assigned connection id.
        conn: u64,
        /// Requests served on this connection.
        requests: u64,
    },
    /// A frame failed to decode (bad CRC, truncation, oversized length,
    /// unsupported version); the connection is usually closed after this.
    NetMalformedFrame {
        /// Server-assigned connection id.
        conn: u64,
        /// The wire error code sent back (see the netserve crate's
        /// error-code table).
        code: u64,
    },
    /// A write-ahead log was recovered after a restart or crash.
    WalRecovery {
        /// Records replayed past the checkpoint.
        replayed: u64,
        /// Records lost to sequence gaps (corruption, missing segments).
        gaps: u64,
    },
    /// The write-ahead log rotated to a fresh segment.
    WalRotation {
        /// First sequence number of the new segment.
        segment: u64,
    },
    /// A WAL append failed: the in-memory state advanced without a durable
    /// record of it (recovery may disagree with the live engine).
    WalAppendFailed {
        /// Record kind that failed: 0 = samples, 1 = register, 2 = evict.
        kind: u64,
    },
    /// A stream's serving state was exported for migration to another node.
    StreamExported {
        /// Size of the exported snapshot in bytes.
        bytes: u64,
    },
    /// A stream's serving state was imported from another node's export.
    StreamImported {
        /// Size of the imported snapshot in bytes.
        bytes: u64,
    },
    /// A warm-standby feed batch was accepted from a cluster peer.
    StandbyFeed {
        /// Stream snapshots carried by the batch.
        streams: u64,
        /// WAL-tail records carried by the batch.
        records: u64,
    },
    /// A node took over a dead peer's streams from its standby state.
    FailoverTakeover {
        /// Streams materialized from standby snapshots.
        streams: u64,
        /// WAL-tail samples replayed to close the gap.
        replayed: u64,
    },
    /// The cluster ring was replaced with a newer version.
    RingUpdated {
        /// Version of the adopted ring.
        version: u64,
    },
}

impl EventKind {
    /// Stable snake_case kind name, used by both expositions.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SelectorDecision { .. } => "selector_decision",
            EventKind::QuarantineEnter { .. } => "quarantine_enter",
            EventKind::QuarantineExit { .. } => "quarantine_exit",
            EventKind::DegradationTransition { .. } => "degradation_transition",
            EventKind::RetrainSucceeded { .. } => "retrain_succeeded",
            EventKind::RetrainFailed { .. } => "retrain_failed",
            EventKind::SlowRetrain { .. } => "slow_retrain",
            EventKind::CheckpointSave { .. } => "checkpoint_save",
            EventKind::CheckpointRestore { .. } => "checkpoint_restore",
            EventKind::StreamEvicted { .. } => "stream_evicted",
            EventKind::NetConnOpened { .. } => "net_conn_opened",
            EventKind::NetConnClosed { .. } => "net_conn_closed",
            EventKind::NetMalformedFrame { .. } => "net_malformed_frame",
            EventKind::WalRecovery { .. } => "wal_recovery",
            EventKind::WalRotation { .. } => "wal_rotation",
            EventKind::WalAppendFailed { .. } => "wal_append_failed",
            EventKind::StreamExported { .. } => "stream_exported",
            EventKind::StreamImported { .. } => "stream_imported",
            EventKind::StandbyFeed { .. } => "standby_feed",
            EventKind::FailoverTakeover { .. } => "failover_takeover",
            EventKind::RingUpdated { .. } => "ring_updated",
        }
    }
}

/// One traced occurrence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Monotonic sequence number (gaps reveal evicted events).
    pub seq: u64,
    /// The stream this event belongs to, when stream-scoped.
    pub stream: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct RingInner {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    next_seq: AtomicU64,
    dropped: AtomicU64,
}

/// A bounded ring of [`Event`]s. Clone freely; clones share the buffer.
#[derive(Debug, Clone)]
pub struct EventRing(Arc<RingInner>);

impl EventRing {
    /// A ring holding at most `capacity` events (evicting the oldest).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a ring that can hold nothing is a bug at
    /// the construction site.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventRing capacity must be positive");
        Self(Arc::new(RingInner {
            capacity,
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }))
    }

    /// Appends an event, evicting (and counting) the oldest when full.
    /// Returns the event's sequence number.
    pub fn push(&self, stream: Option<u64>, kind: EventKind) -> u64 {
        let seq = self.0.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.0.buf.lock().expect("event ring poisoned");
        if buf.len() == self.0.capacity {
            buf.pop_front();
            self.0.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(Event { seq, stream, kind });
        seq
    }

    /// The retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.0.buf.lock().expect("event ring poisoned").iter().copied().collect()
    }

    /// Events evicted to make room since construction.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(Ordering::Relaxed)
    }

    /// Events recorded since construction (retained + evicted).
    pub fn recorded(&self) -> u64 {
        self.0.next_seq.load(Ordering::Relaxed)
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.0.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Some(i), EventKind::QuarantineExit { predictor: i });
        }
        let events = ring.recent();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "oldest two evicted");
        assert_eq!(events[2].seq, 4);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
    }

    #[test]
    fn sequence_numbers_are_gapless_until_eviction() {
        let ring = EventRing::new(8);
        for _ in 0..4 {
            ring.push(None, EventKind::RetrainFailed { consecutive: 1 });
        }
        let seqs: Vec<u64> = ring.recent().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        EventRing::new(0);
    }

    #[test]
    fn clones_share_the_buffer() {
        let a = EventRing::new(4);
        let b = a.clone();
        a.push(None, EventKind::CheckpointSave { streams: 1, bytes: 10 });
        assert_eq!(b.recent().len(), 1);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            EventKind::SelectorDecision { predictor: None, rung: ServingRung::Persistence }.name(),
            "selector_decision"
        );
        assert_eq!(ServingRung::Degraded.name(), "degraded");
        assert_eq!(EventKind::NetConnOpened { conn: 1 }.name(), "net_conn_opened");
        assert_eq!(EventKind::NetConnClosed { conn: 1, requests: 9 }.name(), "net_conn_closed");
        assert_eq!(EventKind::NetMalformedFrame { conn: 1, code: 2 }.name(), "net_malformed_frame");
    }
}
