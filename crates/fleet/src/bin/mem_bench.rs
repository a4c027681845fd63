//! Diagnostic: per-stream resident memory under the diet serving config.
//!
//! Default mode builds a steady-state fleet the way the memory budget
//! (DESIGN.md §11) prescribes for large deployments: `--streams` diet
//! streams (f32 history rings, a small training window that bounds them)
//! pass through the engine in cohorts — registered, driven to a trained
//! steady state, then spilled cold via `hibernate_idle` — and finally a
//! `--hot` working set is woken with fresh traffic. The printed JSON report
//! carries the headline `bytes_per_stream` (accounted heap over all
//! registered streams, hot and cold) plus the component-wise breakdown of
//! one live stream's stack (the slot's inline bytes, history ring and
//! normalised mirror, model, PCA basis, QA window, tracker, sanitizer
//! window and mirror) and the slab/table overhead, with the process RSS
//! from `/proc/self/statm` as the honesty cross-check.
//! `results/BENCH_mem.json` commits this report; `scripts/ci.sh`
//! regenerates it and fails if `bytes_per_stream` grows past 120% of the
//! committed baseline.
//!
//! `--smoke1m` is the same cohort cycle at proof scale: one million
//! registered streams, only one cohort's serving stacks ever resident, RSS
//! sampled after every cohort against `--rss-cap-mb`. The binary exits
//! non-zero the moment RSS crosses the cap, and finishes by waking a
//! hibernated probe stream to show the cold fleet still serves.
//!
//! Run with:
//! `cargo run --release -p fleet --bin mem_bench -- --streams 20000`
//! `cargo run --release -p fleet --bin mem_bench -- --smoke1m --rss-cap-mb 1200`

use fleet::{
    process_resident_bytes, FleetConfig, FleetEngine, FleetMemReport, StreamConfig, StreamId,
};
use larp::{IngestConfig, LarpConfig, ResilienceConfig};

/// Samples per `push_batch` call.
const PUSH_CHUNK: usize = 256;

struct Args {
    streams: u64,
    hot: u64,
    rounds: u64,
    shards: usize,
    seed: u64,
    smoke1m: bool,
    cohort: u64,
    rss_cap_mb: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 20_000,
        hot: 2_000,
        rounds: 64,
        shards: 4,
        seed: 2007,
        smoke1m: false,
        cohort: 4_000,
        rss_cap_mb: 1200,
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
            "--hot" => args.hot = take("--hot"),
            "--rounds" => args.rounds = take("--rounds"),
            "--shards" => args.shards = take("--shards") as usize,
            "--seed" => args.seed = take("--seed"),
            "--cohort" => args.cohort = take("--cohort"),
            "--rss-cap-mb" => args.rss_cap_mb = take("--rss-cap-mb"),
            "--smoke1m" => args.smoke1m = true,
            other => panic!(
                "unknown flag {other}; supported: --streams --hot --rounds --shards --seed \
                 --cohort --rss-cap-mb --smoke1m"
            ),
        }
    }
    assert!(args.cohort > 0, "--cohort must be >= 1");
    args
}

/// The million-stream diet (DESIGN.md §11): f32 rings, the paper's m=5
/// window with a 24-sample training set (so 24 retained samples), and a lean
/// sanitizer footprint. Every knob trades warmup breadth for bytes; the
/// serving semantics (quantize-once, deterministic restore) are unchanged.
fn diet_config() -> StreamConfig {
    StreamConfig {
        ingest: IngestConfig { robust_window: 16, ..IngestConfig::default() },
        larp: LarpConfig::paper(5),
        train_size: 24,
        qa_threshold: 2.0,
        qa_window: 8,
        qa_period: 4,
        resilience: ResilienceConfig { f32_history: true, ..ResilienceConfig::default() },
    }
}

/// Deterministic heterogeneous per-stream signal: cheap enough to generate
/// inline for a million streams (no per-stream generator allocation).
fn sample(seed: u64, stream: StreamId, round: u64) -> f64 {
    let level = 30.0 + (seed ^ stream).wrapping_mul(0x9e37_79b9) as u32 as f64 % 170.0;
    let phase = stream as f64 * 0.61;
    level + (round as f64 * 0.22 + phase).sin() * level * 0.15
}

/// Pushes `rounds` per-minute samples to every stream in `ids`, chunked.
fn drive(engine: &FleetEngine, seed: u64, ids: std::ops::Range<u64>, rounds: u64) {
    let mut batch = Vec::with_capacity(PUSH_CHUNK);
    for round in 0..rounds {
        for chunk_start in ids.clone().step_by(PUSH_CHUNK) {
            batch.clear();
            for id in chunk_start..(chunk_start + PUSH_CHUNK as u64).min(ids.end) {
                batch.push((id, sample(seed, id, round)));
            }
            engine.push_batch(&batch);
        }
    }
    engine.flush();
}

/// Registers `total` diet streams cohort by cohort, driving each cohort to
/// steady state and hibernating it before the next one starts, so only one
/// cohort's serving stacks are ever resident. `watch` runs after every
/// cohort; returning `false` aborts the cycle (RSS cap breach).
fn cohort_cycle(
    engine: &FleetEngine,
    args: &Args,
    total: u64,
    watch: &mut dyn FnMut(u64) -> bool,
) -> bool {
    let diet = diet_config();
    let mut cohort_start = 0u64;
    while cohort_start < total {
        let cohort_end = (cohort_start + args.cohort).min(total);
        for id in cohort_start..cohort_end {
            engine.register_with(id, &diet).expect("fresh stream id");
        }
        drive(engine, args.seed, cohort_start..cohort_end, args.rounds);
        engine.hibernate_idle(0).expect("spill configured");
        if !watch(cohort_end) {
            return false;
        }
        cohort_start = cohort_end;
    }
    true
}

fn report_json(report: &FleetMemReport, elapsed_sec: f64, extra: &str) -> String {
    let n = (report.live_streams + report.hibernated_streams).max(1);
    let per = |bytes: usize| bytes as f64 / report.live_streams.max(1) as f64;
    let s = &report.stream;
    format!(
        "{{\n  \"live_streams\": {},\n  \"hibernated_streams\": {},\n  \
         \"elapsed_sec\": {:.3},\n  \"bytes_per_stream\": {:.0},\n  \
         \"heap_total_bytes\": {},\n  \"resident_bytes\": {},\n  \
         \"per_live_stream\": {{\n    \"slot\": {},\n    \"history\": {:.1},\n    \
         \"norm\": {:.1},\n    \"model\": {:.1},\n    \"pca\": {:.1},\n    \
         \"qa\": {:.1},\n    \"tracker\": {:.1},\n    \"sanitizer\": {:.1}\n  }},\n  \
         \"table_bytes\": {},\n  \
         \"spill\": {{\"live_bytes\": {}, \"dead_bytes\": {}}}{}\n}}",
        report.live_streams,
        report.hibernated_streams,
        elapsed_sec,
        report.heap_total() as f64 / n as f64,
        report.heap_total(),
        report.resident_bytes.map_or_else(|| "null".into(), |b| b.to_string()),
        report.slot_bytes,
        per(s.history_bytes),
        per(s.norm_bytes),
        per(s.model_bytes),
        per(s.pca_bytes),
        per(s.qa_bytes),
        per(s.tracker_bytes),
        per(s.sanitizer_bytes),
        report.table_bytes,
        report.spill_live_bytes,
        report.spill_dead_bytes,
        extra,
    )
}

fn rss_mb() -> u64 {
    process_resident_bytes().unwrap_or(0) >> 20
}

fn spill_engine(args: &Args, spill: &std::path::Path) -> FleetEngine {
    FleetEngine::new(FleetConfig {
        shards: args.shards,
        fleet_seed: args.seed,
        spill_dir: Some(spill.to_path_buf()),
        ..FleetConfig::default()
    })
    .expect("valid fleet config")
}

/// Default mode: the steady-state fleet — a hot working set live, the cold
/// majority hibernated — and the honest bytes/stream over all of it.
fn run_steady(args: &Args) {
    let spill = std::env::temp_dir().join(format!("mem-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let engine = spill_engine(args, &spill);
    let start = std::time::Instant::now();
    cohort_cycle(&engine, args, args.streams, &mut |_| true);
    // Wake the working set: fresh traffic restores each hot stream from its
    // spill blob bit-identically, then keeps it live.
    let hot = args.hot.min(args.streams);
    drive(&engine, args.seed, 0..hot, args.rounds);
    let elapsed = start.elapsed().as_secs_f64();
    let health = engine.health();
    assert_eq!(health.nonfinite_forecasts, 0, "diet streams must serve finite forecasts");
    assert!(health.retrains >= args.streams, "every stream should have trained");
    let report = engine.mem_report();
    let extra = format!(
        ",\n  \"streams\": {},\n  \"hot\": {},\n  \"rounds\": {},\n  \"shards\": {},\n  \
         \"seed\": {},\n  \"forecasts\": {},\n  \"retrains\": {}",
        args.streams, hot, args.rounds, args.shards, args.seed, health.forecasts, health.retrains
    );
    println!("{}", report_json(&report, elapsed, &extra));
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);
}

/// `--smoke1m`: a million registered streams under an RSS cap.
fn run_smoke(args: &Args) {
    const TOTAL: u64 = 1_000_000;
    let spill = std::env::temp_dir().join(format!("mem-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);
    let engine = spill_engine(args, &spill);
    let start = std::time::Instant::now();
    let mut peak_rss_mb = 0u64;
    let breached = !cohort_cycle(&engine, args, TOTAL, &mut |done| {
        let rss = rss_mb();
        peak_rss_mb = peak_rss_mb.max(rss);
        if rss > args.rss_cap_mb {
            eprintln!("RSS cap breached at {done} streams: {rss} MiB > {} MiB", args.rss_cap_mb);
            return false;
        }
        if done % (args.cohort * 4) == 0 || done == TOTAL {
            eprintln!("{done:>9} streams, rss {rss:>5} MiB (cap {})", args.rss_cap_mb);
        }
        true
    });
    let elapsed = start.elapsed().as_secs_f64();
    // A woken probe proves the cold fleet still serves: one fresh sample
    // restores a hibernated stream and its forecast comes back.
    let probe: StreamId = 0;
    engine.push(probe, sample(args.seed, probe, args.rounds));
    engine.flush();
    let probe_woken =
        !breached && engine.stream_info(probe).expect("probe registered").last_forecast.is_some();
    let report = engine.mem_report();
    let health = engine.health();
    let extra = format!(
        ",\n  \"streams_total\": {},\n  \"rounds\": {},\n  \"cohort\": {},\n  \
         \"rss_cap_mb\": {},\n  \"peak_rss_mb\": {},\n  \"rss_cap_ok\": {},\n  \
         \"probe_woken\": {}",
        health.streams,
        args.rounds,
        args.cohort,
        args.rss_cap_mb,
        peak_rss_mb,
        !breached,
        probe_woken,
    );
    println!("{}", report_json(&report, elapsed, &extra));
    drop(engine);
    let _ = std::fs::remove_dir_all(&spill);
    if breached {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if args.smoke1m {
        run_smoke(&args);
    } else {
        run_steady(&args);
    }
}
