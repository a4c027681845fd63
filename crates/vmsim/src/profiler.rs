//! The profiler: extraction of time series from the RRD.
//!
//! The paper's profiler (Perl/Shell in the prototype) "retrieves the VM
//! performance data, which are identified by vmID, deviceID, and a time
//! window" and hands the LARPredictor an equally-spaced series.
//! [`Profiler::extract`] is that component: consolidated RRD reads packaged as
//! [`timeseries::Series`] with correct timing metadata.

use std::sync::Arc;

use timeseries::Series;

use crate::metric::{MetricKind, VmId};
use crate::rrd::RoundRobinDatabase;
use crate::{Result, VmSimError};

/// A profiler bound to one performance database.
#[derive(Debug)]
pub struct Profiler {
    rrd: Arc<RoundRobinDatabase>,
}

impl Profiler {
    /// Creates a profiler over the shared database.
    pub fn new(rrd: Arc<RoundRobinDatabase>) -> Self {
        Self { rrd }
    }

    /// Extracts the series for `(vm, metric)` over minutes
    /// `[start_minute, end_minute)` consolidated at `interval_minutes`.
    ///
    /// # Errors
    ///
    /// Propagates RRD query errors; fails if the consolidated data would be
    /// empty.
    pub fn extract(
        &self,
        vm: VmId,
        metric: MetricKind,
        start_minute: u64,
        end_minute: u64,
        interval_minutes: u64,
    ) -> Result<Series> {
        let values =
            self.rrd.consolidated(vm, metric, start_minute, end_minute, interval_minutes)?;
        Series::new(values, start_minute * 60, interval_minutes * 60)
            .map_err(|e| VmSimError::Series(e.to_string()))
    }

    /// Extracts the full retained range of a stream at the given interval,
    /// truncating the tail so the range divides evenly.
    ///
    /// # Errors
    ///
    /// * [`VmSimError::UnknownStream`] if the stream does not exist;
    /// * [`VmSimError::InvalidQuery`] if fewer than one full interval is
    ///   retained.
    pub fn extract_all(
        &self,
        vm: VmId,
        metric: MetricKind,
        interval_minutes: u64,
    ) -> Result<Series> {
        let (first, last) = self
            .rrd
            .range(vm, metric)
            .ok_or_else(|| VmSimError::UnknownStream(format!("{vm}/{metric}")))?;
        let available = last - first + 1;
        let usable = (available / interval_minutes) * interval_minutes;
        if usable == 0 {
            return Err(VmSimError::InvalidQuery(format!(
                "only {available} minutes retained, need at least {interval_minutes}"
            )));
        }
        self.extract(vm, metric, first, first + usable, interval_minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorAgent;
    use crate::profiles::VmProfile;

    fn populated() -> (Profiler, VmId) {
        let rrd = Arc::new(RoundRobinDatabase::new(20_000));
        let mut agent = MonitorAgent::new(vec![VmProfile::Vm2.build(1)], rrd.clone());
        agent.run(1440);
        (Profiler::new(rrd), VmId(2))
    }

    #[test]
    fn extract_produces_correctly_timed_series() {
        let (profiler, vm) = populated();
        let s = profiler.extract(vm, MetricKind::CpuUsedSec, 0, 1440, 5).unwrap();
        assert_eq!(s.len(), 288); // 24h at 5-minute consolidation
        assert_eq!(s.interval_secs(), 300);
        assert_eq!(s.start_secs(), 0);
    }

    #[test]
    fn consolidation_matches_manual_average() {
        let (profiler, vm) = populated();
        let fine = profiler.extract(vm, MetricKind::Nic1Rx, 0, 10, 1).unwrap();
        let coarse = profiler.extract(vm, MetricKind::Nic1Rx, 0, 10, 5).unwrap();
        let manual: f64 = fine.values()[..5].iter().sum::<f64>() / 5.0;
        assert!((coarse.values()[0] - manual).abs() < 1e-12);
    }

    #[test]
    fn extract_all_truncates_to_whole_intervals() {
        let rrd = Arc::new(RoundRobinDatabase::new(20_000));
        let mut agent = MonitorAgent::new(vec![VmProfile::Vm3.build(1)], rrd.clone());
        agent.run(103); // not a multiple of 5
        let profiler = Profiler::new(rrd);
        let s = profiler.extract_all(VmId(3), MetricKind::CpuUsedSec, 5).unwrap();
        assert_eq!(s.len(), 20); // 100 minutes / 5
    }

    #[test]
    fn unknown_stream_and_bad_window() {
        let (profiler, vm) = populated();
        assert!(matches!(
            profiler.extract(VmId(9), MetricKind::CpuUsedSec, 0, 10, 5),
            Err(VmSimError::UnknownStream(_))
        ));
        assert!(profiler.extract(vm, MetricKind::CpuUsedSec, 0, 7, 5).is_err());
        let empty_rrd = Arc::new(RoundRobinDatabase::new(100));
        let p2 = Profiler::new(empty_rrd.clone());
        empty_rrd.record(vm, MetricKind::CpuUsedSec, 0, 1.0);
        assert!(p2.extract_all(vm, MetricKind::CpuUsedSec, 5).is_err());
    }
}
