//! `/metrics` scrapes and their deltas.
//!
//! The server's counters and histograms are cumulative since start, so a
//! window's figures are the difference of a scrape taken just before it and
//! one taken just after. Histograms arrive as Prometheus cumulative buckets
//! (non-empty buckets only, on the fixed log-linear grid of `obs`), so a
//! delta histogram is exact in rank and within one bucket in value.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed exposition.
#[derive(Debug, Default)]
pub struct Scrape {
    values: HashMap<String, f64>,
    /// Cumulative `(le, count)` pairs per histogram, ascending in `le`.
    hists: HashMap<String, Vec<(f64, u64)>>,
}

impl Scrape {
    /// GETs `/metrics` from the HTTP shim.
    pub fn fetch(http: SocketAddr) -> Result<Scrape, String> {
        let mut s = TcpStream::connect_timeout(&http, Duration::from_secs(5))
            .map_err(|e| format!("metrics connect: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
            .map_err(|e| format!("metrics send: {e}"))?;
        let mut raw = String::new();
        s.read_to_string(&mut raw).map_err(|e| format!("metrics recv: {e}"))?;
        let (head, body) = raw.split_once("\r\n\r\n").ok_or("metrics: no HTTP body")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("metrics: {}", head.lines().next().unwrap_or("")));
        }
        Ok(Scrape::parse(body))
    }

    /// Parses the Prometheus text format the `obs` crate emits.
    pub fn parse(text: &str) -> Scrape {
        let mut out = Scrape::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            if let Some((name, le)) = key.split_once("_bucket{le=\"") {
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
                out.hists.entry(name.to_string()).or_default().push((le, value as u64));
            } else {
                out.values.insert(key.to_string(), value);
            }
        }
        out
    }

    /// A counter or gauge (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every counter whose name starts with `prefix` and ends with
    /// `suffix`.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> f64 {
        self.values
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Cumulative count at `le` (the last listed bucket at or below it).
    fn cum_at(&self, name: &str, le: f64) -> u64 {
        self.hists
            .get(name)
            .and_then(|b| b.iter().take_while(|(l, _)| *l <= le).last())
            .map_or(0, |(_, c)| *c)
    }
}

/// `after - before` of a counter.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.value(name) - before.value(name)
}

/// The histogram of what `name` recorded between two scrapes, as
/// non-cumulative `(bucket upper bound, count)` pairs.
pub fn hist_delta(before: &Scrape, after: &Scrape, name: &str) -> Vec<(f64, u64)> {
    let mut prev = 0u64;
    let mut out = Vec::new();
    for &(le, cum) in after.hists.get(name).map_or(&[][..], |b| &b[..]) {
        let cum = cum.saturating_sub(before.cum_at(name, le));
        if cum > prev && le.is_finite() {
            out.push((le, cum - prev));
        }
        prev = prev.max(cum);
    }
    out
}

/// Lower bound of the `obs` histogram bucket whose inclusive upper bound
/// is `upper`: 16 linear buckets per power of two above `[0, 1)`.
fn bucket_lower(upper: f64) -> f64 {
    if upper <= 1.0 {
        return 0.0;
    }
    let octave = (upper.log2().ceil() - 1.0).exp2();
    upper - octave / 16.0
}

/// Percentile of a bucketed histogram at fractional rank `(n - 1) * p`,
/// interpolated linearly inside the bucket it lands in. A bucket's upper
/// bound alone would read the same on most runs and hide a shift smaller
/// than the bucket's 6.25% width.
pub fn hist_percentile(buckets: &[(f64, u64)], p: f64) -> Option<f64> {
    let n: u64 = buckets.iter().map(|b| b.1).sum();
    if n == 0 {
        return None;
    }
    let rank = (n - 1) as f64 * p.clamp(0.0, 1.0);
    let mut below = 0.0;
    for &(upper, count) in buckets {
        let count = count as f64;
        if below + count > rank {
            let lower = bucket_lower(upper);
            let within = ((rank - below + 0.5) / count).min(1.0);
            return Some(lower + (upper - lower) * within);
        }
        below += count;
    }
    buckets.last().map(|b| b.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE net_request_us histogram\n\
        net_request_us_bucket{le=\"2\"} 5\n\
        net_request_us_bucket{le=\"4\"} 8\n\
        net_request_us_bucket{le=\"+Inf\"} 8\n\
        net_request_us_sum 20\nnet_request_us_count 8\n\
        # TYPE fleet_push_accepted_total counter\nfleet_push_accepted_total 100\n\
        fleet_shard0_unknown_dropped_total 1\nfleet_shard1_unknown_dropped_total 2\n";
    const AFTER: &str = "net_request_us_bucket{le=\"2\"} 5\n\
        net_request_us_bucket{le=\"3\"} 9\n\
        net_request_us_bucket{le=\"4\"} 14\n\
        net_request_us_bucket{le=\"8\"} 18\n\
        net_request_us_bucket{le=\"+Inf\"} 18\n\
        fleet_push_accepted_total 160\n";

    #[test]
    fn counters_and_families_parse() {
        let a = Scrape::parse(BEFORE);
        let b = Scrape::parse(AFTER);
        assert_eq!(delta(&a, &b, "fleet_push_accepted_total"), 60.0);
        assert_eq!(a.sum_matching("fleet_shard", "_unknown_dropped_total"), 3.0);
        assert_eq!(a.value("missing"), 0.0);
    }

    #[test]
    fn histogram_deltas_subtract_per_bucket() {
        let a = Scrape::parse(BEFORE);
        let b = Scrape::parse(AFTER);
        // le=3 was empty before: its baseline is the le=2 cumulative (5).
        let d = hist_delta(&a, &b, "net_request_us");
        assert_eq!(d, vec![(3.0, 4), (4.0, 2), (8.0, 4)]);
        assert_eq!(hist_percentile(&d, 0.0), Some(2.875 + 0.125 * 0.125));
        assert_eq!(bucket_lower(1.0), 0.0);
        assert_eq!(bucket_lower(1.0625), 1.0);
        assert_eq!(bucket_lower(2.0), 1.9375);
        let near = |got: Option<f64>, want: f64| (got.unwrap() - want).abs() < 1e-9;
        // Ten samples: p50 sits at rank 4.5, the middle of the le=4 bucket
        // (3.875, 4]; p90 at rank 8.1, 2.6 of 4 into the le=8 bucket (7.75, 8].
        assert!(near(hist_percentile(&d, 0.5), 3.9375));
        assert!(near(hist_percentile(&d, 0.9), 7.75 + 0.25 * 2.6 / 4.0));
        // Each sample stands at the middle of its share of the bucket.
        assert!(near(hist_percentile(&[(1.0, 3)], 1.0), 2.5 / 3.0));
        assert_eq!(hist_percentile(&[], 0.5), None);
        assert!(hist_delta(&a, &b, "absent").is_empty());
    }
}
