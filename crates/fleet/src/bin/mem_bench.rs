//! Diagnostic: per-stream resident memory of a live fleet under the diet
//! serving config.
//!
//! Registers `--streams` diet streams (f32 history rings, a small training
//! window that bounds them) and drives every one through `--rounds` samples
//! to a trained steady state. The printed JSON report carries the headline
//! `bytes_per_stream` (accounted heap over all registered streams, every one
//! live) plus the component-wise breakdown of one stream's stack (the slot's
//! inline bytes, history ring, model, PCA basis, QA window, tracker,
//! sanitizer window and mirror), the table overhead (index, occupied slab
//! slots, free list) and, apart, the slab reserved but unused, with the
//! process RSS from `/proc/self/statm` as the honesty cross-check
//! (DESIGN.md §11). `results/BENCH_mem.json` commits this
//! report; `scripts/ci.sh` regenerates it and fails if `bytes_per_stream`
//! grows past 120% of the committed baseline.
//!
//! Run with:
//! `cargo run --release -p fleet --bin mem_bench -- --streams 20000`

use fleet::{FleetConfig, FleetEngine, FleetMemReport, StreamConfig, StreamId};
use larp::{IngestConfig, LarpConfig, ResilienceConfig};

/// Samples per `push_batch` call.
const PUSH_CHUNK: usize = 256;

struct Args {
    streams: u64,
    rounds: u64,
    shards: usize,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args { streams: 20_000, rounds: 64, shards: 4, seed: 2007 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{name} expects an unsigned integer"))
        };
        match flag.as_str() {
            "--streams" => args.streams = take("--streams"),
            "--rounds" => args.rounds = take("--rounds"),
            "--shards" => args.shards = take("--shards") as usize,
            "--seed" => args.seed = take("--seed"),
            other => panic!("unknown flag {other}; supported: --streams --rounds --shards --seed"),
        }
    }
    args
}

/// The diet (DESIGN.md §11): f32 rings, the paper's m=5 window with a
/// 24-sample training set (so 24 retained samples), and a lean sanitizer
/// footprint. Every knob trades warmup breadth for bytes; the serving
/// semantics (quantize-once, deterministic restore) are unchanged.
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
/// inline for many streams (no per-stream generator allocation).
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

fn report_json(report: &FleetMemReport, elapsed_sec: f64, extra: &str) -> String {
    let per = |bytes: usize| bytes as f64 / report.streams.max(1) as f64;
    let s = &report.stream;
    format!(
        "{{\n  \"streams\": {},\n  \
         \"elapsed_sec\": {:.3},\n  \"bytes_per_stream\": {:.0},\n  \
         \"heap_total_bytes\": {},\n  \"resident_bytes\": {},\n  \
         \"per_stream\": {{\n    \"slot\": {},\n    \"history\": {:.1},\n    \
         \"model\": {:.1},\n    \"pca\": {:.1},\n    \
         \"qa\": {:.1},\n    \"tracker\": {:.1},\n    \"sanitizer\": {:.1}\n  }},\n  \
         \"table_bytes\": {},\n  \"slab_reserved_bytes\": {}{}\n}}",
        report.streams,
        elapsed_sec,
        report.bytes_per_stream(),
        report.heap_total(),
        report.resident_bytes.map_or_else(|| "null".into(), |b| b.to_string()),
        report.slot_bytes,
        per(s.history_bytes),
        per(s.model_bytes),
        per(s.pca_bytes),
        per(s.qa_bytes),
        per(s.tracker_bytes),
        per(s.sanitizer_bytes),
        report.table_bytes,
        report.slab_reserved_bytes,
        extra,
    )
}

fn main() {
    let args = parse_args();
    let engine = FleetEngine::new(FleetConfig {
        shards: args.shards,
        fleet_seed: args.seed,
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    let start = std::time::Instant::now();
    let diet = diet_config();
    for id in 0..args.streams {
        engine.register_with(id, &diet).expect("fresh stream id");
    }
    drive(&engine, args.seed, 0..args.streams, args.rounds);
    let elapsed = start.elapsed().as_secs_f64();
    let health = engine.health();
    assert_eq!(health.nonfinite_forecasts, 0, "diet streams must serve finite forecasts");
    assert!(health.retrains >= args.streams, "every stream should have trained");
    let report = engine.mem_report();
    let extra = format!(
        ",\n  \"rounds\": {},\n  \"shards\": {},\n  \"seed\": {},\n  \"forecasts\": {},\n  \
         \"retrains\": {}",
        args.rounds, args.shards, args.seed, health.forecasts, health.retrains
    );
    println!("{}", report_json(&report, elapsed, &extra));
}
