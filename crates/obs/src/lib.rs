//! Observability substrate for the serving path: metrics and event tracing.
//!
//! The fault-tolerance layer (quarantines, degradation ladder — DESIGN.md
//! §3b) and the fleet engine (sharded queues, backpressure — §4) make
//! runtime decisions that were previously invisible: which predictor the
//! k-NN selector chose, when a stream fell down the ladder, how many samples
//! a full queue evicted. This crate is the substrate that makes those
//! decisions observable without slowing the hot path down:
//!
//! * [`Registry`] — a label-free metric registry handing out lock-free
//!   handles: monotonic [`Counter`]s, f64 [`Gauge`]s, and log-linear
//!   bucketed [`Histogram`]s with ceil-rank p50/p90/p99 extraction.
//!   Recording is a single atomic RMW; the registry lock is touched only at
//!   registration and exposition time.
//! * [`EventRing`] — a bounded, drop-counting ring buffer of structured
//!   [`Event`]s for discrete occurrences: selector decisions, quarantine
//!   enter/exit, degradation-ladder transitions, checkpoint
//!   save/restore, stream evictions.
//! * [`expo`] — two exposition formats over both: Prometheus text format
//!   and a self-contained JSON dump (used by the `fleet_throughput` and
//!   `obs_dump` binaries).
//!
//! Naming scheme (enforced by convention, documented in DESIGN.md §5):
//! `<crate>_<subsystem>_<what>[_total|_us]` — e.g.
//! `larp_retrain_failures_total`, `fleet_push_enqueue_us`,
//! `fleet_shard0_queue_depth`. Counters end in `_total`, duration
//! histograms in `_us` (microseconds), gauges are bare nouns.
#![warn(missing_docs)]

pub mod expo;
pub mod metric;
pub mod registry;
pub mod trace;

pub use metric::{percentile_sorted, Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricValue, Registry};
pub use trace::{Event, EventKind, EventRing, ServingRung};
