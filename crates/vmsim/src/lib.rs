//! VM resource-monitoring substrate: the paper's testbed, simulated.
//!
//! The paper evaluates the LARPredictor on `vmkusage` traces of five VMware ESX
//! virtual machines — data we do not have. This crate rebuilds the *pipeline*
//! around synthetic workloads with the same statistical character (see
//! DESIGN.md "Substitutions"):
//!
//! * [`metric`] — the twelve performance metrics of the paper's Tables 1–2
//!   (CPU used/ready, memory size/swap, two NICs rx/tx, two virtual disks
//!   read/write);
//! * [`signal`] — composable stochastic signal generators (diurnal sinusoids,
//!   AR noise, on–off bursts, Pareto spike trains, random walks, regime
//!   switches) from which workloads are assembled;
//! * [`workload`] — the VM1 grid-job model: 310 jobs over 7 days with the
//!   paper's 93.55% / 3.87% / 2.58% short/medium/long mix;
//! * [`profiles`] — the five VM personalities of §7 (grid head node, VNC
//!   proxy, WindowsXP calendar, web+list+wiki server, web server);
//! * [`monitor`] — the per-minute sampling agent (the VMM-side collector);
//! * [`rrd`] — the round-robin database with interval consolidation
//!   (1-minute samples, consolidated averages on read);
//! * [`profiler`] — extraction by (vmID, metric, time window, interval) into
//!   [`timeseries::Series`];
//! * [`db`] — the prediction database keyed `[vmID, metric, timeStamp]`
//!   with the audit queries the Quality Assuror runs;
//! * [`traceset`] — one call that reproduces the paper's full 60-trace corpus
//!   (5 VMs × 12 metrics at the paper's durations and intervals);
//! * [`faults`] — deterministic fault injection (drops, gaps, NaNs, sentinels,
//!   stuck sensors, spikes, duplicates) for exercising the serving layer's
//!   fault tolerance;
//! * [`fleet`] — per-stream deterministic trace fan-out: seeds and workload
//!   generators derived purely from `(fleet_seed, stream_id)`, independent of
//!   shard layout, for fleet-scale serving experiments.
//!
//! Everything is deterministic per seed: `paper_traces(seed)` always yields
//! byte-identical series.
#![warn(missing_docs)]

pub mod db;
pub mod faults;
pub mod fleet;
pub(crate) mod lock;
pub mod metric;
pub mod monitor;
pub mod profiler;
pub mod profiles;
pub mod rrd;
pub mod signal;
pub mod traceset;
pub mod workload;

pub use faults::{FaultConfig, FaultCounts, FaultInjector, FaultKind};
pub use fleet::{fleet_signal, fleet_trace, stream_seed};
pub use metric::{MetricKind, VmId};
pub use monitor::MonitorAgent;
pub use profiler::Profiler;
pub use profiles::{VmProfile, VmWorkload};
pub use rrd::RoundRobinDatabase;
pub use traceset::{paper_traces, TraceKey};

/// Errors from the monitoring substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum VmSimError {
    /// The requested (vm, metric) stream does not exist.
    UnknownStream(String),
    /// An invalid query (empty range, zero interval, range outside retention).
    InvalidQuery(String),
    /// Propagated series-construction failure.
    Series(String),
}

impl std::fmt::Display for VmSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmSimError::UnknownStream(m) => write!(f, "unknown stream: {m}"),
            VmSimError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            VmSimError::Series(m) => write!(f, "series failure: {m}"),
        }
    }
}

impl std::error::Error for VmSimError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, VmSimError>;
