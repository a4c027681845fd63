//! Diagnostic: drive a small fault-injected fleet and dump the engine's
//! observability surface — the registry-backed metrics plus the structured
//! event trace — in either exposition format.
//!
//! Run with:
//! `cargo run --release -p fleet --bin obs_dump -- --streams 16 --samples 240 --shards 2 --format json`
//!
//! `--format json` (default) emits the self-validating JSON dump;
//! `--format prometheus` emits the Prometheus text format. The binary
//! checkpoints the fleet before dumping so the trace also exercises the
//! checkpoint events, and validates its own JSON output before printing.

use fleet::{FleetConfig, FleetEngine};
use vmsim::{fleet_trace, FaultConfig, FaultInjector};

struct Args {
    streams: u64,
    samples: usize,
    shards: usize,
    seed: u64,
    format: String,
}

fn parse_args() -> Args {
    let mut args =
        Args { streams: 16, samples: 240, shards: 2, seed: 2007, format: "json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value"));
        let parse = |name: &str, v: String| {
            v.parse::<u64>().unwrap_or_else(|_| panic!("{name} expects an unsigned integer"))
        };
        match flag.as_str() {
            "--streams" => args.streams = parse("--streams", take("--streams")),
            "--samples" => args.samples = parse("--samples", take("--samples")) as usize,
            "--shards" => args.shards = parse("--shards", take("--shards")) as usize,
            "--seed" => args.seed = parse("--seed", take("--seed")),
            "--format" => args.format = take("--format"),
            other => panic!(
                "unknown flag {other}; supported: --streams --samples --shards --seed --format"
            ),
        }
    }
    assert!(
        args.format == "json" || args.format == "prometheus",
        "--format must be json or prometheus"
    );
    args
}

fn main() {
    let args = parse_args();
    let engine = FleetEngine::new(FleetConfig {
        shards: args.shards,
        fleet_seed: args.seed,
        // Ingestion is lossless, so the dump reflects every injected fault
        // reaching its sanitizer.
        ..FleetConfig::default()
    })
    .expect("valid fleet config");

    // Deterministic per-stream corrupted traces: drops, gaps, NaNs,
    // sentinels, spikes — so the larp_* fault counters have work to count.
    let mut corrupted: Vec<Vec<(u64, f64)>> = Vec::new();
    for id in 0..args.streams {
        engine.register(id).expect("fresh stream id");
        let clean = fleet_trace(args.seed, id, args.samples);
        let mut injector =
            FaultInjector::new(FaultConfig::uniform(0.08), 9000 + id).expect("valid fault config");
        corrupted.push(injector.corrupt_series(&clean, 0));
    }
    let max_len = corrupted.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_len {
        for (id, trace) in corrupted.iter().enumerate() {
            if let Some(&(minute, value)) = trace.get(i) {
                engine.push_at(id as u64, minute, value);
            }
        }
    }
    engine.flush();
    // Exercise the checkpoint path so its event shows up in the trace.
    engine.checkpoint();

    match args.format.as_str() {
        "prometheus" => print!("{}", engine.prometheus()),
        _ => {
            let dump = engine.obs_json();
            obs::expo::validate_json(&dump)
                .unwrap_or_else(|e| panic!("obs_dump produced invalid JSON: {e}"));
            println!("{dump}");
        }
    }
}
