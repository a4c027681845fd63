//! Fleet-level observability: the engine's metric registry and event ring.
//!
//! One [`FleetObs`] is built per engine. It owns the [`Registry`] every
//! metric handle is registered on, the bounded [`EventRing`] transitions are
//! traced into, and the base [`larp::LarpObs`] whose per-stream clones
//! (`for_stream`) every registered stream records through — so the `larp_*`
//! metric set rolls up fleet-wide with zero aggregation code.
//!
//! Metric set (naming scheme in DESIGN.md §5):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `fleet_push_accepted_total` | counter | samples enqueued |
//! | `fleet_stream_evictions_total` | counter | streams evicted (any cause) |
//! | `fleet_checkpoints_total` | counter | checkpoints serialized |
//! | `fleet_restores_total` | counter | engines restored from bytes |
//! | `fleet_push_enqueue_us` | histogram | enqueue wall-clock per push call |
//! | `fleet_drains_inline_total` | counter | batches applied by a calling thread (a small push's caller, or `flush`) |
//! | `fleet_drains_worker_total` | counter | batches applied by a shard worker |
//! | `fleet_shard<i>_queue_depth` | gauge | samples waiting on shard *i* |
//! | `fleet_shard<i>_unknown_dropped_total` | counter | unroutable samples |
//!
//! With durability enabled the engine additionally mirrors its trace store:
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `fleet_wal_records_total` | counter | WAL records appended |
//! | `fleet_wal_failures_total` | counter | WAL appends that failed (ack carried `wal_failed`) |
//! | `fleet_wal_fsyncs_total` | counter | appends that fsynced the segment |
//! | `fleet_wal_rotations_total` | counter | segment rotations |
//! | `fleet_wal_recoveries_total` | counter | successful `recover` calls |
//! | `fleet_wal_gap_records_total` | counter | records lost to WAL gaps at recovery |
//! | `fleet_wal_append_us` | histogram | WAL append wall-clock per push call |
//!
//! Cluster support (DESIGN.md §12):
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `fleet_stream_exports_total` | counter | single streams exported (migration / standby) |
//! | `fleet_stream_imports_total` | counter | single streams imported bit-identically |
//!
//! Refits run inline on whichever thread drains the shard (DESIGN.md §13);
//! their cost shows stream-side in the `larp_retrain_us` histogram and the
//! `larp_slow_retrains_total` threshold counter (see `larp::observe`).

use larp::LarpObs;
use obs::{Counter, EventRing, Histogram, Registry};

/// Capacity of the engine's bounded event-trace ring
/// ([`crate::FleetEngine::events`]); overflow evicts the oldest events and
/// counts them.
const EVENT_CAPACITY: usize = 1024;

/// The engine's observability bundle: registry, event ring, and the metric
/// handles the engine itself records into.
pub(crate) struct FleetObs {
    pub(crate) registry: Registry,
    pub(crate) events: EventRing,
    /// Base recorder for the shared `larp_*` metric set; streams attach
    /// `larp.for_stream(id)` clones.
    pub(crate) larp: LarpObs,
    pub(crate) push_accepted: Counter,
    pub(crate) evictions: Counter,
    pub(crate) checkpoints: Counter,
    pub(crate) restores: Counter,
    pub(crate) enqueue_us: Histogram,
    pub(crate) drains_inline: Counter,
    pub(crate) drains_worker: Counter,
    pub(crate) wal_records: Counter,
    pub(crate) wal_failures: Counter,
    pub(crate) wal_fsyncs: Counter,
    pub(crate) wal_rotations: Counter,
    pub(crate) wal_recoveries: Counter,
    pub(crate) wal_gap_records: Counter,
    pub(crate) wal_append_us: Histogram,
    pub(crate) stream_exports: Counter,
    pub(crate) stream_imports: Counter,
}

impl FleetObs {
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let events = EventRing::new(EVENT_CAPACITY);
        let larp = LarpObs::register(&registry).with_events(events.clone());
        Self {
            larp,
            push_accepted: registry.counter("fleet_push_accepted_total"),
            evictions: registry.counter("fleet_stream_evictions_total"),
            checkpoints: registry.counter("fleet_checkpoints_total"),
            restores: registry.counter("fleet_restores_total"),
            enqueue_us: registry.histogram("fleet_push_enqueue_us"),
            drains_inline: registry.counter("fleet_drains_inline_total"),
            drains_worker: registry.counter("fleet_drains_worker_total"),
            wal_records: registry.counter("fleet_wal_records_total"),
            wal_failures: registry.counter("fleet_wal_failures_total"),
            wal_fsyncs: registry.counter("fleet_wal_fsyncs_total"),
            wal_rotations: registry.counter("fleet_wal_rotations_total"),
            wal_recoveries: registry.counter("fleet_wal_recoveries_total"),
            wal_gap_records: registry.counter("fleet_wal_gap_records_total"),
            wal_append_us: registry.histogram("fleet_wal_append_us"),
            stream_exports: registry.counter("fleet_stream_exports_total"),
            stream_imports: registry.counter("fleet_stream_imports_total"),
            registry,
            events,
        }
    }
}
