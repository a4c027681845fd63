//! One benchmark run: set the server up (several times, for a steady
//! `setup_s`), warm up, measure one window (two in a traced run: untraced,
//! then traced), check every output, and derive the metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use netserve::Response;

use crate::conn::Conn;
use crate::gen::{Inputs, Window, Workload, BATCH, OPEN_RATE, PROBES, PROBE_BASE, PROBE_RATE};
use crate::load::{self, LoadOut, ProbeOut, Tally};
use crate::replay::{self, Replay};
use crate::scrape::{delta, hist_delta, hist_percentile, Scrape};
use crate::server::ServerProc;
use crate::spans::Tracer;
use crate::stats::{
    interquartile_mean, median, nmse, percentile, segment_medians, segment_percentile, Lateness,
    Progress,
};

/// Where durable stores and span files go, relative to the checkout.
pub const RUN_DIR: &str = ".bench_run";
/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Load acks and probes in one second of schedule: the segments whose
/// latency percentiles the reported latencies are medians of.
const ACKS_PER_SEGMENT: usize = (OPEN_RATE as usize) / BATCH;
const PROBES_PER_SEGMENT: usize = PROBE_RATE as usize;
/// Requests in flight while registering and while training.
const REGISTER_DEPTH: usize = 256;
const TRAIN_DEPTH: usize = 16;

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A finished run.
pub struct Outcome {
    pub problems: Vec<String>,
    pub tally: Tally,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// A run that cannot report numbers: a broken server or harness, or a
/// generator too late to have kept its schedule.
pub enum Failure {
    Error(String),
    Invalid(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

/// A set-up server and its two connections.
struct Session {
    srv: ServerProc,
    load: Conn,
    probe: Conn,
}

/// What one measured window produced.
struct Measured {
    load: LoadOut,
    probes: ProbeOut,
    /// First scheduled send until every sample is processed.
    wall_s: f64,
    steps: u64,
    cpu_s: f64,
    /// Progress samples inside the window (see `segment_medians`).
    progress: Vec<Progress>,
    before: Scrape,
    after: Scrape,
    tracer: Tracer,
}

impl Measured {
    /// Server CPU per sample: the median one-second segment, or the whole
    /// window when it was too short to hold a segment.
    fn cpu_us_per_sample(&self) -> f64 {
        segment_medians(&self.progress).map_or(self.cpu_s * 1e6 / self.steps as f64, |m| m.1)
    }

    /// Samples processed per second: the median one-second segment, or the
    /// whole window when it was too short to hold a segment.
    fn sps(&self) -> f64 {
        segment_medians(&self.progress).map_or(self.steps as f64 / self.wall_s, |m| m.0)
    }
}

fn durable_dir(w: Workload, i: usize) -> Option<PathBuf> {
    w.durable().then(|| Path::new(RUN_DIR).join(format!("durable-{}-{i}", std::process::id())))
}

/// Spawns a server, registers every stream, pushes its training samples
/// and waits until every stream has served its first forecast.
fn set_up(
    w: Workload,
    inputs: &Inputs,
    dir: Option<&Path>,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(Session, f64), String> {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let start = Instant::now();
    let srv = ServerProc::spawn(dir)?;
    let ready = Instant::now();
    let mut load = Conn::open(srv.addr)?;
    let probe = Conn::open(srv.addr)?;
    let frames: Vec<&[u8]> = inputs.register.iter().map(|f| &f[..]).collect();
    load.pipeline(&frames, REGISTER_DEPTH, |_, resp, _| {
        tally.attempted += 1;
        if !matches!(resp, Response::Register | Response::RegisterWith) {
            tally.failed += 1;
        }
    })?;
    let registered = Instant::now();
    let frames: Vec<&[u8]> = inputs.train.iter().map(|b| &b.frame[..]).collect();
    let before = tally.accepted;
    load.pipeline(&frames, TRAIN_DEPTH, |i, resp, _| tally.push(&resp, inputs.train[i].samples))?;
    let pushed = Instant::now();
    let accepted = tally.accepted - before;
    let (h, done) = load::wait_steps(&mut load, || accepted)?;
    let streams = w.stream_ids().count() as u64;
    if h.forecasts != streams {
        return Err(format!("{} of {streams} streams served a first forecast", h.forecasts));
    }
    let root = tracer.span("setup", start, done, 0, 0);
    tracer.span("setup.spawn", start, ready, root, 0);
    tracer.span("setup.register", ready, registered, root, 0);
    tracer.span("setup.train", registered, pushed, root, 0);
    tracer.span("setup.first_forecast", pushed, done, root, 0);
    Ok((Session { srv, load, probe }, (done - start).as_secs_f64()))
}

/// Runs one measured window: the load on one connection and the probes,
/// with a progress sample every second, on the other. `/metrics` and CPU
/// are read just before and just after it, never during, so load uses only
/// the two connections.
fn measure(
    s: &mut Session,
    inputs: &Inputs,
    win: &Window,
    probe_steps: &mut [u64],
    epoch: Instant,
    traced: bool,
) -> Result<Measured, String> {
    let before = Scrape::fetch(s.srv.http)?;
    let h0 = s.load.health()?;
    let cpu0 = s.srv.cpu_seconds()?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut tracer = Tracer::new(epoch, traced);
    let mut probe_tracer = Tracer::new(epoch, traced);
    let root = tracer.span("window", t0, t0, 0, 0);
    let (probes, predict) = (&win.probes, &inputs.predict);
    let (load_conn, probe_conn, srv) = (&mut s.load, &mut s.probe, &s.srv);
    let (load, probes) = std::thread::scope(|scope| {
        let probe_tracer = &mut probe_tracer;
        let prober = scope.spawn(move || {
            load::probes(probe_conn, probes, predict, probe_steps, t0, srv, probe_tracer)
        });
        let load = load::open_loop(load_conn, &win.load, t0, OPEN_RATE, &mut tracer, root);
        (load, prober.join().expect("probe thread panicked"))
    });
    let (load, mut probes) = (load?, probes?);
    let accepted = load.tally.accepted + probes.tally.accepted;
    let (h1, end) = load::wait_steps(&mut s.load, || h0.steps + accepted)?;
    let cpu1 = s.srv.cpu_seconds()?;
    let after = Scrape::fetch(s.srv.http)?;
    tracer.close(root, end);
    tracer.absorb(probe_tracer);
    Ok(Measured {
        wall_s: (end - t0).as_secs_f64(),
        steps: h1.steps - h0.steps,
        cpu_s: cpu1 - cpu0,
        progress: std::mem::take(&mut probes.progress),
        load,
        probes,
        before,
        after,
        tracer,
    })
}

/// Compares every served probe forecast, bit for bit, with an in-process
/// reference serving stack fed the same clean samples. Returns the
/// mismatch count.
fn reference_mismatches(
    w: Workload,
    inputs: &Inputs,
    served: &[(usize, u64, Option<f64>)],
) -> usize {
    let mut by_stream: HashMap<usize, Vec<(u64, Option<f64>)>> = HashMap::new();
    for &(p, minute, f) in served {
        by_stream.entry(p).or_default().push((minute, f));
    }
    let mut mismatches = 0;
    for (p, got) in by_stream {
        let config = w.stream_config(PROBE_BASE + p as u64);
        let Ok(mut stack) = config.build() else { return served.len() };
        let last = got.iter().map(|g| g.0).max().unwrap_or(0);
        let mut expect: Vec<Option<f64>> = Vec::new();
        for (minute, &v) in inputs.probe_series[p][..=last as usize].iter().enumerate() {
            let steps = stack.ingest(minute as u64, v);
            expect.push(steps.last().and_then(|s| s.forecast));
        }
        mismatches += got
            .iter()
            .filter(|(m, f)| expect[*m as usize].map(f64::to_bits) != f.map(f64::to_bits))
            .count();
    }
    mismatches
}

/// Forecast NMSE over the probe streams: each stream's one-step forecasts
/// against the clean value of the minute they forecast, then the
/// interquartile mean across streams, so the few streams whose spikes
/// dominate their own error do not set the figure.
fn forecast_nmse(inputs: &Inputs, served: &[(usize, u64, Option<f64>)]) -> f64 {
    let mut pairs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); PROBES];
    for &(p, minute, f) in served {
        if let Some(f) = f {
            pairs[p].push((f, inputs.probe_series[p][minute as usize + 1]));
        }
    }
    let per_stream: Vec<f64> = pairs.iter().filter_map(|p| nmse(p)).collect();
    interquartile_mean(&per_stream)
}

/// Executes one run.
pub fn run(opts: &Opts) -> Result<Outcome, Failure> {
    let w = opts.workload;
    let epoch = Instant::now();
    let inputs = Inputs::build(w, opts.seed, opts.seconds as f64, if opts.trace { 2 } else { 1 });
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let mut tracer = Tracer::new(epoch, opts.trace);
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut session = None;
    for i in 0..SETUPS {
        let dir = durable_dir(w, i);
        let mut setup_tally = Tally::default();
        let (mut s, secs) = set_up(w, &inputs, dir.as_deref(), &mut setup_tally, &mut tracer)?;
        setup_s.push(secs);
        if i + 1 < SETUPS {
            s.srv.stop(&mut s.load)?;
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
        } else {
            tally.add(setup_tally);
            session = Some(s);
        }
    }
    let mut s = session.expect("at least one set-up");

    // Warm-up: the same traffic, unmeasured, then drained.
    let mut off = Tracer::new(epoch, false);
    let t0 = Instant::now() + Duration::from_millis(2);
    let warm = load::open_loop(&mut s.load, &inputs.warmup, t0, OPEN_RATE, &mut off, 0)?;
    tally.add(warm.tally);
    load::wait_steps(&mut s.load, || tally.accepted)?;

    let train_size = w.stream_config(PROBE_BASE).train_size as u64;
    let mut probe_steps = vec![train_size; PROBES];
    let mut windows = Vec::new();
    for (i, win) in inputs.windows.iter().enumerate() {
        let traced = opts.trace && i == 1;
        let m = measure(&mut s, &inputs, win, &mut probe_steps, epoch, traced)?;
        tally.add(m.load.tally);
        tally.add(m.probes.tally);
        windows.push(m);
    }

    // Correctness: every acked sample reached a predictor exactly once,
    // nothing failed, and served forecasts are finite and exact.
    let mut problems = Vec::new();
    let h = s.load.health()?;
    let rss_mb = s.srv.peak_rss_mib()?;
    s.srv.stop(&mut s.load)?;
    if let Some(d) = durable_dir(w, SETUPS - 1) {
        let _ = std::fs::remove_dir_all(d);
    }
    if tally.failed > 0 {
        problems.push(format!("{} operations failed", tally.failed));
    }
    if h.pushes.accepted != tally.accepted {
        problems.push(format!(
            "server accepted {} samples, acks say {}",
            h.pushes.accepted, tally.accepted
        ));
    }
    if h.steps != h.pushes.accepted {
        problems.push(format!("{} steps for {} accepted samples", h.steps, h.pushes.accepted));
    }
    let lost = h.pushes.rejected + h.pushes.dropped + h.unknown_dropped;
    if lost > 0 {
        problems.push(format!("{lost} samples rejected, dropped or unknown"));
    }
    if h.nonfinite_forecasts > 0 {
        problems.push(format!("{} non-finite forecasts", h.nonfinite_forecasts));
    }
    let served: Vec<_> = windows.iter().flat_map(|m| m.probes.forecasts.iter().copied()).collect();
    if served.iter().any(|f| f.2.is_none_or(|v| !v.is_finite())) {
        problems.push("a probe step served no finite forecast".into());
    }
    let mismatches = reference_mismatches(w, &inputs, &served);
    if mismatches > 0 {
        problems.push(format!("{mismatches} probe forecasts differ from the reference stack"));
    }

    let mut notes = Vec::new();
    for (i, m) in windows.iter().enumerate() {
        let load_late = Lateness::of(&m.load.late_us);
        let probe_late = Lateness::of(&m.probes.late_us);
        notes.push(format!(
            "window {i}: generator lateness load p50 {:.1} p90 {:.1} p99 {:.1} max {:.1} us over {} sends; \
             probes p50 {:.1} p99 {:.1} max {:.1} us over {} sends",
            load_late.p50_us,
            load_late.p90_us,
            load_late.p99_us,
            load_late.max_us,
            load_late.sends,
            probe_late.p50_us,
            probe_late.p99_us,
            probe_late.max_us,
            probe_late.sends
        ));
        if !load_late.valid() {
            return Err(Failure::Invalid(notes.join("\n")));
        }
        let segments: Vec<String> = m
            .progress
            .windows(2)
            .map(|p| {
                format!(
                    "{:.0}",
                    (p[1].steps - p[0].steps) as f64 / (p[1].at - p[0].at).as_secs_f64()
                )
            })
            .collect();
        let retrains = delta(&m.before, &m.after, "larp_retrains_total");
        notes.push(format!(
            "window {i}: {} steps, {:.1} retrains per 1k steps; steps/s per segment [{}]",
            m.steps,
            retrains * 1e3 / m.steps as f64,
            segments.join(", ")
        ));
    }

    let base = &windows[0];
    let ack = &base.load.ack_us;
    notes.push(format!(
        "setup_s runs {:?}; ack p99 {:.1} us over {} acks; fresh over {} probes",
        setup_s,
        percentile(ack, 0.99),
        ack.len(),
        base.probes.fresh_us.len()
    ));
    let mut metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("ack_p50_us", segment_percentile(ack, ACKS_PER_SEGMENT, 0.5), "us"),
        ("ack_p90_us", segment_percentile(ack, ACKS_PER_SEGMENT, 0.9), "us"),
        ("fresh_p50_us", segment_percentile(&base.probes.fresh_us, PROBES_PER_SEGMENT, 0.5), "us"),
        ("sps", base.sps(), "1/s"),
        ("cpu_us_per_sample", base.cpu_us_per_sample(), "us"),
        ("rss_mb", rss_mb, "MiB"),
        ("forecast_nmse", forecast_nmse(&inputs, &base.probes.forecasts), "ratio"),
    ];

    if let Some(traced) = windows.get(1) {
        let mut replay_tracer = Tracer::new(epoch, true);
        let dir = Path::new(RUN_DIR).join(format!("replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let replayed = replay::run(w, &inputs, &dir, &mut replay_tracer);
        let _ = std::fs::remove_dir_all(&dir);
        metrics = per_layer(w.durable(), base, traced, &replayed?);
        tracer.absorb(replay_tracer);
        for m in windows.drain(..) {
            tracer.absorb(m.tracer);
        }
        let path = Path::new(RUN_DIR).join(format!("spans-{}-{}.tsv", w.name(), opts.seed));
        tracer.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", tracer.spans.len(), path.display()));
    }
    Ok(Outcome { problems, tally, metrics, notes })
}

/// The traced window's per-layer metrics (see the README's table).
fn per_layer(
    durable: bool,
    base: &Measured,
    t: &Measured,
    r: &Replay,
) -> Vec<(&'static str, f64, &'static str)> {
    let d = |name: &str| delta(&t.before, &t.after, name);
    let hp = |name: &str, p: f64| {
        hist_percentile(&hist_delta(&t.before, &t.after, name), p).unwrap_or(0.0)
    };
    let requests =
        t.after.sum_matching("net_op_", "_total") - t.before.sum_matching("net_op_", "_total");
    let unknown = t.after.sum_matching("fleet_shard", "_unknown_dropped_total")
        - t.before.sum_matching("fleet_shard", "_unknown_dropped_total");
    let per_1k = |name: &str| d(name) * 1000.0 / t.steps as f64;
    let jobs = d("fleet_retrain_jobs_total");
    let request_us_p50 = hp("net_request_us", 0.5);
    let retrains_per_1k = per_1k("larp_retrains_total");
    // The WAL figures come from the server where it keeps a WAL, else from
    // the replay's durable engine; only a durable server pays for the WAL.
    let (wal_p50, wal_p90, fsyncs_per_1m) = if durable {
        let fsyncs = d("fleet_wal_fsyncs_total") * 1e6 / t.steps as f64;
        (hp("fleet_wal_append_us", 0.5), hp("fleet_wal_append_us", 0.9), fsyncs)
    } else {
        let s = &r.store;
        (s.wal_append_us_p50, s.wal_append_us_p90, s.fsyncs_per_1m_samples)
    };
    let wal_ns_per_req = if durable { wal_p50 * 1e3 } else { 0.0 };
    let layer_sum = (r.decode_ns_per_req + r.encode_ns_per_req + wal_ns_per_req) / BATCH as f64
        + r.push_batch_ns_per_sample
        + r.ingest_ns_p50
        + r.train_us_p50 * retrains_per_1k;
    let ack_p50 = |m: &Measured| segment_percentile(&m.load.ack_us, ACKS_PER_SEGMENT, 0.5);
    vec![
        ("reactor.events_per_req", d("reactor_events_total") / requests, "events/req"),
        ("reactor.flush_bytes_per_req", d("reactor_flush_bytes_total") / requests, "B/req"),
        ("reactor.flush_us_p50", hp("reactor_flush_us", 0.5), "us"),
        ("netserve.request_us_p50", request_us_p50, "us"),
        ("netserve.request_us_p90", hp("net_request_us", 0.9), "us"),
        ("netserve.wire_wait_us_p50", percentile(&t.load.rtt_us, 0.5) - request_us_p50, "us"),
        ("netserve.decode_ns_per_req", r.decode_ns_per_req, "ns"),
        ("netserve.encode_ns_per_req", r.encode_ns_per_req, "ns"),
        ("fleet.enqueue_us_p50", hp("fleet_push_enqueue_us", 0.5), "us"),
        ("fleet.enqueue_us_p90", hp("fleet_push_enqueue_us", 0.9), "us"),
        ("fleet.push_batch_ns_per_sample", r.push_batch_ns_per_sample, "ns"),
        ("fleet.drain_ns_per_sample", r.drain_ns_per_sample, "ns"),
        ("fleet.step_wait_us_p50", percentile(&t.probes.step_wait_us, 0.5), "us"),
        (
            "fleet.failed_samples",
            d("fleet_push_rejected_total") + d("fleet_push_dropped_total") + unknown,
            "count",
        ),
        (
            "fleet.retrain_stale_ratio",
            if jobs > 0.0 { d("fleet_retrain_stale_total") / jobs } else { 0.0 },
            "ratio",
        ),
        ("larp.ingest_ns_p50", r.ingest_ns_p50, "ns"),
        ("larp.train_us_p50", r.train_us_p50, "us"),
        ("larp.retrain_us_p50", hp("larp_retrain_us", 0.5), "us"),
        ("larp.retrain_us_p90", hp("larp_retrain_us", 0.9), "us"),
        ("larp.retrain_queue_wait_us_p50", hp("larp_retrain_queue_wait_us", 0.5), "us"),
        ("larp.retrains_per_1k_steps", retrains_per_1k, "per_1k"),
        ("larp.sanitized_per_1k_steps", per_1k("larp_faults_sanitized_total"), "per_1k"),
        ("larp.degraded_per_1k_steps", per_1k("larp_degraded_steps_total"), "per_1k"),
        ("learn.features_ns_p50", r.features_ns_p50, "ns"),
        ("learn.knn_ns_p50", r.knn_ns_p50, "ns"),
        ("predictors.predict_ns_p50", r.predict_ns_p50, "ns"),
        ("store.wal_append_us_p50", wal_p50, "us"),
        ("store.wal_append_us_p90", wal_p90, "us"),
        ("store.wal_bytes_per_sample", r.store.wal_bytes_per_sample, "B"),
        ("store.fsyncs_per_1m_samples", fsyncs_per_1m, "per_1M"),
        ("store.checkpoint_ms", r.store.checkpoint_ms, "ms"),
        ("store.checkpoint_bytes", r.store.checkpoint_bytes, "B"),
        ("trace.overhead_latency_pct", (ack_p50(t) / ack_p50(base) - 1.0) * 100.0, "%"),
        (
            "trace.overhead_cpu_pct",
            (t.cpu_us_per_sample() / base.cpu_us_per_sample() - 1.0) * 100.0,
            "%",
        ),
        ("budget.layer_sum_ns_per_sample", layer_sum, "ns"),
        ("budget.coverage_ratio", layer_sum / (t.cpu_us_per_sample() * 1e3), "ratio"),
    ]
}
