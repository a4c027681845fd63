//! Diagnostic: fleet serving throughput on synthetic multi-VM traces.
//!
//! Registers `--streams` heterogeneous vmsim workloads (per-stream seeds via
//! `vmsim::fleet`), drives `--samples` rounds of batched pushes through a
//! `--shards`-worker engine with lossless (Block) backpressure, then reports
//! throughput, push-latency percentiles and the fleet health rollup as one
//! JSON object on stdout. With `--duration SECONDS` the run is time-boxed
//! instead: full rounds are pushed until the budget elapses (at least one
//! round always runs, and rounds finish once started — sample accounting
//! stays exact). With `--ab-durability` the binary instead runs interleaved
//! pairs of durability-on (WAL behind every ack, default `OnRotate` fsync)
//! versus durability-off engines, reporting the throughput retained by the
//! durable path — the WAL's full serving-path tax.
//!
//! Push-latency percentiles cover the *steady-state* rounds only: the first
//! `train_size` rounds per stream are warmup (ring fills, initial fits) whose
//! one-off costs would smear the tail. Warmup and steady call counts are
//! reported alongside so the exclusion is auditable.
//!
//! Run with:
//! `cargo run --release -p fleet --bin fleet_throughput -- --streams 1000 --samples 60 --shards 4`

use std::time::Instant;

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig, StreamId};
use obs::percentile_sorted;
use vmsim::fleet_signal;

/// Samples per timed `push_batch` call.
const PUSH_CHUNK: usize = 256;

struct Args {
    streams: u64,
    samples: u64,
    shards: usize,
    seed: u64,
    /// Wall-clock budget in seconds; caps the run at round granularity.
    duration: Option<f64>,
    /// Interleaved A/B: alternate durability-on and durability-off engines.
    ab_durability: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 1000,
        samples: 60,
        shards: 4,
        seed: 2007,
        duration: None,
        ab_durability: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{name} expects an unsigned integer"))
        };
        match flag.as_str() {
            "--streams" => args.streams = take("--streams"),
            "--samples" => args.samples = take("--samples"),
            "--shards" => args.shards = take("--shards") as usize,
            "--seed" => args.seed = take("--seed"),
            "--ab-durability" => args.ab_durability = true,
            "--duration" => {
                let v = it.next().unwrap_or_else(|| panic!("--duration expects a value"));
                let secs = v
                    .parse::<f64>()
                    .ok()
                    .filter(|d| d.is_finite() && *d > 0.0)
                    .unwrap_or_else(|| panic!("--duration expects positive seconds, got {v}"));
                args.duration = Some(secs);
            }
            other => panic!(
                "unknown flag {other}; supported: --streams --samples --shards --seed --duration \
                 --ab-durability"
            ),
        }
    }
    args
}

/// One complete lossless run with optional durability; returns
/// samples/sec. Used by the interleaved durability A/B, where per-push
/// latency tracking would only add noise to the comparison.
fn run_arm(args: &Args, durability: Option<DurabilityConfig>) -> f64 {
    let durable = durability.is_some();
    let engine = FleetEngine::new(FleetConfig {
        shards: args.shards,
        queue_capacity: 8192,
        fleet_seed: args.seed,
        durability,
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    let mut signals: Vec<_> = (0..args.streams)
        .map(|id| {
            engine.register(id).expect("fresh stream id");
            fleet_signal(args.seed, id)
        })
        .collect();
    let started = Instant::now();
    let mut batch: Vec<(StreamId, f64)> = Vec::with_capacity(PUSH_CHUNK);
    for minute in 0..args.samples {
        for (id, signal) in signals.iter_mut().enumerate() {
            batch.push((id as StreamId, signal.sample(minute)));
            if batch.len() == PUSH_CHUNK {
                engine.push_batch(&batch);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            engine.push_batch(&batch);
            batch.clear();
        }
    }
    if durable {
        // The durable arm pays its whole bill inside the timed region: the
        // drain ends with a WAL fsync.
        engine.flush_durable().expect("durable drain");
    } else {
        engine.flush();
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total = args.streams * args.samples;
    let health = engine.health();
    assert_eq!(health.pushes.accepted, total, "Block backpressure must be lossless");
    assert_eq!(health.nonfinite_forecasts, 0, "non-finite forecast escaped the fleet");
    if durable {
        assert_eq!(
            engine.registry().counter("fleet_wal_failures_total").get(),
            0,
            "durable arm dropped WAL appends"
        );
    }
    total as f64 / elapsed
}

/// Interleaved A/B: durability-on versus durability-off. The headline
/// number is `durable_retained` — the fraction of in-memory throughput the
/// WAL-backed serving path keeps.
fn run_ab_durability(args: &Args) {
    const PAIRS: usize = 3;
    let base = std::env::temp_dir().join(format!("fleet-ab-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut durable = Vec::with_capacity(PAIRS);
    let mut plain = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let dir = base.join(format!("pair{pair}"));
        durable.push(run_arm(args, Some(DurabilityConfig::new(dir))));
        plain.push(run_arm(args, None));
    }
    let _ = std::fs::remove_dir_all(&base);
    let median = |xs: &[f64]| {
        let mut s = xs.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
        s[s.len() / 2]
    };
    let (durable_med, plain_med) = (median(&durable), median(&plain));
    let join = |xs: &[f64]| xs.iter().map(|v| format!("{v:.0}")).collect::<Vec<_>>().join(", ");
    println!("{{");
    println!("  \"mode\": \"ab_durability\",");
    println!("  \"streams\": {},", args.streams);
    println!("  \"samples_per_stream\": {},", args.samples);
    println!("  \"shards\": {},", args.shards);
    println!("  \"seed\": {},", args.seed);
    println!("  \"pairs\": {PAIRS},");
    println!("  \"durable_sps\": [{}],", join(&durable));
    println!("  \"plain_sps\": [{}],", join(&plain));
    println!("  \"durable_median_sps\": {durable_med:.0},");
    println!("  \"plain_median_sps\": {plain_med:.0},");
    println!("  \"durable_retained\": {:.3}", durable_med / plain_med);
    println!("}}");
}

fn main() {
    let args = parse_args();
    if args.ab_durability {
        run_ab_durability(&args);
        return;
    }
    let engine = FleetEngine::new(FleetConfig {
        shards: args.shards,
        queue_capacity: 8192,
        fleet_seed: args.seed,
        ..FleetConfig::default()
    })
    .expect("valid fleet config");

    let mut signals: Vec<_> = (0..args.streams)
        .map(|id| {
            engine.register(id).expect("fresh stream id");
            fleet_signal(args.seed, id)
        })
        .collect();

    let started = Instant::now();
    let deadline = args.duration.map(|d| started + std::time::Duration::from_secs_f64(d));
    // Rounds before every ring holds `train_size` samples are warmup: they
    // carry the one-off initial fits, whose latency says nothing about the
    // steady serving path. Percentiles below come from steady rounds only.
    let warmup_rounds = StreamConfig::default().train_size as u64;
    let mut push_us: Vec<f64> = Vec::with_capacity(
        (args.streams * args.samples) as usize / PUSH_CHUNK + args.samples as usize,
    );
    let mut warmup_us: Vec<f64> = Vec::new();
    let mut batch: Vec<(StreamId, f64)> = Vec::with_capacity(PUSH_CHUNK);
    let mut rounds = 0u64;
    for minute in 0..args.samples {
        // Time-boxing cuts between rounds, never inside one, so every
        // registered stream sees the same number of samples.
        if minute > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        rounds += 1;
        let sink = if minute < warmup_rounds { &mut warmup_us } else { &mut push_us };
        for (id, signal) in signals.iter_mut().enumerate() {
            batch.push((id as StreamId, signal.sample(minute)));
            if batch.len() == PUSH_CHUNK {
                let t = Instant::now();
                engine.push_batch(&batch);
                sink.push(t.elapsed().as_secs_f64() * 1e6);
                batch.clear();
            }
        }
        if !batch.is_empty() {
            let t = Instant::now();
            engine.push_batch(&batch);
            sink.push(t.elapsed().as_secs_f64() * 1e6);
            batch.clear();
        }
    }
    engine.flush();
    let elapsed = started.elapsed().as_secs_f64();

    let health = engine.health();
    let total_samples = args.streams * rounds;
    let mut all_finite = true;
    for id in 0..args.streams {
        let info = engine.stream_info(id).expect("registered stream");
        if info.last_forecast.is_some_and(|f| !f.is_finite()) {
            all_finite = false;
        }
    }
    // A run shorter than the warmup window has no steady rounds; fall back
    // to the warmup measurements rather than reporting zeros.
    let steady_calls = push_us.len();
    let warmup_calls = warmup_us.len();
    if push_us.is_empty() {
        std::mem::swap(&mut push_us, &mut warmup_us);
    }
    push_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));

    println!("{{");
    println!("  \"streams\": {},", args.streams);
    println!("  \"samples_per_stream\": {rounds},");
    println!("  \"shards\": {},", args.shards);
    println!("  \"seed\": {},", args.seed);
    println!("  \"elapsed_sec\": {:.3},", elapsed);
    println!("  \"samples_per_sec\": {:.0},", total_samples as f64 / elapsed);
    println!("  \"streams_per_sec\": {:.1},", args.streams as f64 / elapsed);
    println!("  \"push_batch_size\": {PUSH_CHUNK},");
    // Ceil-rank percentiles (obs::percentile_sorted): the tail estimate
    // never understates — p99 of 100 samples is the maximum, not the 99th
    // smallest as the old nearest-rank rounding reported.
    println!("  \"push_p50_us\": {:.1},", percentile_sorted(&push_us, 0.50).unwrap_or(0.0));
    println!("  \"push_p99_us\": {:.1},", percentile_sorted(&push_us, 0.99).unwrap_or(0.0));
    println!("  \"push_warmup_rounds\": {},", rounds.min(warmup_rounds));
    println!("  \"push_warmup_calls\": {warmup_calls},");
    println!("  \"push_steady_calls\": {steady_calls},");
    println!("  \"accepted\": {},", health.pushes.accepted);
    println!("  \"steps\": {},", health.steps);
    println!("  \"forecasts\": {},", health.forecasts);
    println!("  \"nonfinite_forecasts\": {},", health.nonfinite_forecasts);
    println!("  \"retrains\": {},", health.retrains);
    println!("  \"degraded_streams\": {},", health.degraded_streams());
    println!("  \"quarantined_streams\": {},", health.quarantined_streams());
    println!("  \"all_forecasts_finite\": {all_finite},");
    // The registry-backed metric dump (events omitted to keep the artifact
    // small); the full exposition lives in the obs_dump binary.
    println!("  \"obs\": {}", obs::expo::json(engine.registry(), None));
    println!("}}");

    assert_eq!(health.pushes.accepted, total_samples, "Block backpressure must be lossless");
    assert_eq!(health.nonfinite_forecasts, 0, "non-finite forecast escaped the fleet");
    assert!(all_finite, "non-finite last forecast observed");
}
