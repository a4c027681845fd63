//! Exposition: Prometheus text format and a self-contained JSON dump.
//!
//! Both formats render a [`Registry`] snapshot (plus, optionally, an
//! [`EventRing`]) without any serialization dependency. The JSON dump is the
//! machine-readable surface the `fleet_throughput` and `obs_dump` binaries
//! emit; [`validate_json`] is a strict syntax checker used by the CI smoke
//! step to prove the dump parses (it rejects `NaN`/`Infinity` tokens, which
//! are invalid JSON — a NaN metric is a bug, not a formatting choice).

use crate::registry::{metric_name, MetricValue, Registry};
use crate::trace::{Event, EventKind, EventRing};

/// Renders the registry in the Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket{le="…"}` lines for non-empty buckets
/// (plus the mandatory `+Inf`), `_sum` and `_count`. When `events` is given,
/// two meta-counters describe the ring: `obs_events_recorded_total` and
/// `obs_events_dropped_total`.
pub fn prometheus(registry: &Registry, events: Option<&EventRing>) -> String {
    let mut out = String::new();
    for metric in registry.snapshot() {
        let name = metric_name(&metric).to_string();
        match metric {
            MetricValue::Counter { value, .. } => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
            }
            MetricValue::Gauge { value, .. } => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", fmt_f64(value)));
            }
            MetricValue::Histogram { snapshot, .. } => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cum = 0u64;
                for (upper, count) in snapshot.nonzero_buckets() {
                    cum += count;
                    out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cum}\n", fmt_f64(upper)));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snapshot.count));
                out.push_str(&format!("{name}_sum {}\n", fmt_f64(snapshot.sum)));
                out.push_str(&format!("{name}_count {}\n", snapshot.count));
            }
        }
    }
    if let Some(ring) = events {
        out.push_str(&format!(
            "# TYPE obs_events_recorded_total counter\nobs_events_recorded_total {}\n",
            ring.recorded()
        ));
        out.push_str(&format!(
            "# TYPE obs_events_dropped_total counter\nobs_events_dropped_total {}\n",
            ring.dropped()
        ));
    }
    out
}

/// Renders the registry (and, optionally, the event ring) as one JSON
/// object: `{"counters": {...}, "gauges": {...}, "histograms": {...},
/// "events": {...}}`. Histogram quantiles use the ceil-rank rule; empty
/// histograms report `null` statistics rather than NaN.
pub fn json(registry: &Registry, events: Option<&EventRing>) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for metric in registry.snapshot() {
        let name = metric_name(&metric).to_string();
        match metric {
            MetricValue::Counter { value, .. } => {
                counters.push(format!("{}: {value}", quote(&name)));
            }
            MetricValue::Gauge { value, .. } => {
                gauges.push(format!("{}: {}", quote(&name), fmt_f64(value)));
            }
            MetricValue::Histogram { snapshot: s, .. } => {
                let stat = |v: Option<f64>| v.map_or("null".to_string(), fmt_f64);
                histograms.push(format!(
                    "{}: {{\"count\": {}, \"invalid\": {}, \"sum\": {}, \"min\": {}, \
                     \"max\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    quote(&name),
                    s.count,
                    s.invalid,
                    fmt_f64(s.sum),
                    stat((s.count > 0).then_some(s.min)),
                    stat((s.count > 0).then_some(s.max)),
                    stat(s.mean()),
                    stat(s.percentile(0.50)),
                    stat(s.percentile(0.90)),
                    stat(s.percentile(0.99)),
                ));
            }
        }
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"counters\": {{{}}},\n", counters.join(", ")));
    out.push_str(&format!("  \"gauges\": {{{}}},\n", gauges.join(", ")));
    out.push_str(&format!("  \"histograms\": {{{}}},\n", histograms.join(", ")));
    match events {
        Some(ring) => {
            let recent: Vec<String> = ring.recent().iter().map(event_json).collect();
            out.push_str(&format!(
                "  \"events\": {{\"recorded\": {}, \"dropped\": {}, \"recent\": [{}]}}\n",
                ring.recorded(),
                ring.dropped(),
                recent.join(", ")
            ));
        }
        None => out.push_str("  \"events\": null\n"),
    }
    out.push('}');
    out
}

/// One event as a JSON object with its payload fields flattened.
fn event_json(e: &Event) -> String {
    let stream = e.stream.map_or("null".to_string(), |s| s.to_string());
    let payload = match e.kind {
        EventKind::SelectorDecision { predictor, rung } => format!(
            "\"predictor\": {}, \"rung\": {}",
            predictor.map_or("null".to_string(), |p| p.to_string()),
            quote(rung.name())
        ),
        EventKind::QuarantineEnter { predictor, until_step } => {
            format!("\"predictor\": {predictor}, \"until_step\": {until_step}")
        }
        EventKind::QuarantineExit { predictor } => format!("\"predictor\": {predictor}"),
        EventKind::DegradationTransition { from, to } => {
            format!("\"from\": {}, \"to\": {}", quote(from.name()), quote(to.name()))
        }
        EventKind::RetrainSucceeded { duration_us } => format!("\"duration_us\": {duration_us}"),
        EventKind::RetrainFailed { consecutive } => format!("\"consecutive\": {consecutive}"),
        EventKind::SlowRetrain { fit_us, threshold_us } => {
            format!("\"fit_us\": {fit_us}, \"threshold_us\": {threshold_us}")
        }
        EventKind::CheckpointSave { streams, bytes }
        | EventKind::CheckpointRestore { streams, bytes } => {
            format!("\"streams\": {streams}, \"bytes\": {bytes}")
        }
        EventKind::StreamEvicted { idle } => format!("\"idle\": {idle}"),
        EventKind::NetConnOpened { conn } => format!("\"conn\": {conn}"),
        EventKind::NetConnClosed { conn, requests } => {
            format!("\"conn\": {conn}, \"requests\": {requests}")
        }
        EventKind::NetMalformedFrame { conn, code } => {
            format!("\"conn\": {conn}, \"code\": {code}")
        }
        EventKind::WalRecovery { replayed, gaps } => {
            format!("\"replayed\": {replayed}, \"gaps\": {gaps}")
        }
        EventKind::WalRotation { segment } => format!("\"segment\": {segment}"),
        EventKind::WalAppendFailed { kind } => format!("\"kind\": {kind}"),
        EventKind::StreamExported { bytes } | EventKind::StreamImported { bytes } => {
            format!("\"bytes\": {bytes}")
        }
        EventKind::StandbyFeed { streams, records } => {
            format!("\"streams\": {streams}, \"records\": {records}")
        }
        EventKind::FailoverTakeover { streams, replayed } => {
            format!("\"streams\": {streams}, \"replayed\": {replayed}")
        }
        EventKind::RingUpdated { version } => format!("\"version\": {version}"),
    };
    format!(
        "{{\"seq\": {}, \"stream\": {stream}, \"kind\": {}, {payload}}}",
        e.seq,
        quote(e.kind.name())
    )
}

/// Formats an f64 as a JSON-legal number (no NaN/inf — those are caller
/// bugs; they render as `0` with a debug assertion rather than corrupting
/// the exposition).
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "non-finite metric value {v} reached exposition");
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    // Metric and kind names are snake_case identifiers; nothing to escape.
    format!("\"{s}\"")
}

/// Strict JSON syntax validation (objects, arrays, strings, numbers,
/// `true`/`false`/`null`; no trailing garbage). Intended for smoke tests:
/// proves an exposition parses without pulling in a serialization crate.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_container(b, pos, b'}', true),
        Some(b'[') => parse_container(b, pos, b']', false),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_container(b: &[u8], pos: &mut usize, close: u8, keyed: bool) -> Result<(), String> {
    *pos += 1; // opening bracket
    skip_ws(b, pos);
    if b.get(*pos) == Some(&close) {
        *pos += 1;
        return Ok(());
    }
    loop {
        if keyed {
            skip_ws(b, pos);
            parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}"));
            }
            *pos += 1;
        }
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(c) if *c == close => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or container close at byte {pos}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .map(|_| ())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ServingRung;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("larp_retrains_total").add(3);
        r.gauge("fleet_shard0_queue_depth").set(7.0);
        let h = r.histogram("fleet_push_enqueue_us");
        for v in [2.0, 5.0, 9.0, 120.0] {
            h.record(v);
        }
        r
    }

    fn sample_ring() -> EventRing {
        let ring = EventRing::new(16);
        ring.push(Some(3), EventKind::QuarantineEnter { predictor: 1, until_step: 99 });
        ring.push(
            Some(3),
            EventKind::SelectorDecision { predictor: Some(2), rung: ServingRung::Degraded },
        );
        ring.push(None, EventKind::CheckpointSave { streams: 10, bytes: 4096 });
        ring.push(None, EventKind::NetConnOpened { conn: 5 });
        ring.push(None, EventKind::NetMalformedFrame { conn: 5, code: 1 });
        ring.push(None, EventKind::NetConnClosed { conn: 5, requests: 0 });
        ring
    }

    #[test]
    fn prometheus_format_is_wellformed() {
        let text = prometheus(&sample_registry(), Some(&sample_ring()));
        assert!(text.contains("# TYPE larp_retrains_total counter\nlarp_retrains_total 3\n"));
        assert!(text.contains("fleet_shard0_queue_depth 7\n"));
        assert!(text.contains("fleet_push_enqueue_us_count 4\n"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("obs_events_recorded_total 6"));
        // Every non-comment line is `name[{le}] <finite number>`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            let parsed: f64 = value.parse().expect("metric value parses");
            assert!(parsed.is_finite() && parsed >= 0.0, "bad value in {line}");
        }
        // Cumulative buckets are non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            if line.contains("+Inf") {
                assert!(v >= last);
                last = 0;
            } else {
                assert!(v >= last, "cumulative bucket decreased in {line}");
                last = v;
            }
        }
    }

    #[test]
    fn json_dump_validates_and_contains_all_sections() {
        let text = json(&sample_registry(), Some(&sample_ring()));
        validate_json(&text).expect("exposition must parse");
        for key in
            ["counters", "gauges", "histograms", "events", "p99", "quarantine_enter", "net_conn"]
        {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(!text.contains("NaN") && !text.contains("inf"), "non-finite leaked: {text}");
    }

    #[test]
    fn json_without_events_is_still_valid() {
        let text = json(&sample_registry(), None);
        validate_json(&text).unwrap();
        assert!(text.contains("\"events\": null"));
    }

    #[test]
    fn empty_registry_renders_empty_objects() {
        let r = Registry::new();
        let text = json(&r, None);
        validate_json(&text).unwrap();
        assert_eq!(prometheus(&r, None), "");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for bad in ["{", "{\"a\": }", "[1, 2", "{\"a\": NaN}", "{\"a\": 1} extra", "{'a': 1}", ""] {
            assert!(validate_json(bad).is_err(), "accepted malformed {bad:?}");
        }
        for good in ["{}", "[]", "{\"a\": [1, -2.5e3, null, true, \"x\"]}", "3"] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }
}
