//! In-process replay of a run's generated inputs through the layers'
//! public APIs: the per-layer costs no server metric measures. Calls under
//! about a microsecond are timed in loops and divided.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use fleet::{FleetConfig, FleetEngine};
use larp::{GuardedLarp, Scratch, TrainedLarp};
use netserve::wire::{self, MAX_REQUEST_PAYLOAD};
use netserve::{Frame, PushOutcome, Request, Response};
use predictors::PredictorId;

use crate::gen::{Inputs, Workload, BATCH};
use crate::scrape::{delta, hist_delta, hist_percentile, Scrape};
use crate::server::fleet_config;
use crate::spans::Tracer;
use crate::stats::{median, percentile};

/// Samples pushed through the in-process engine.
const ENGINE_SAMPLES: usize = 60_000;
/// Load streams replayed through a standalone serving stack.
const LARP_STREAMS: u64 = 32;
/// Iterations per timed loop of a sub-microsecond call.
const LOOP: u32 = 256;

#[derive(Debug, Default)]
pub struct Replay {
    pub decode_ns_per_req: f64,
    pub encode_ns_per_req: f64,
    pub push_batch_ns_per_sample: f64,
    pub drain_ns_per_sample: f64,
    pub ingest_ns_p50: f64,
    pub train_us_p50: f64,
    pub features_ns_p50: f64,
    pub knn_ns_p50: f64,
    pub predict_ns_p50: f64,
    pub store: StoreReplay,
}

/// The store layer under the replayed batches.
#[derive(Debug, Default)]
pub struct StoreReplay {
    pub wal_append_us_p50: f64,
    pub wal_append_us_p90: f64,
    pub fsyncs_per_1m_samples: f64,
    pub wal_bytes_per_sample: f64,
    pub checkpoint_ms: f64,
    pub checkpoint_bytes: f64,
}

/// One in-process engine's pass over the replayed batches.
struct EnginePass {
    push_ns_per_sample: f64,
    drain_ns_per_sample: f64,
    /// Present when the engine kept a WAL.
    store: Option<StoreReplay>,
}

/// Builds an engine as the server does (durable under `dir`, when given),
/// registers and trains every stream, then times `push_batch` on each of
/// `batches` and the drain that follows. The shard queues hold every
/// replayed sample, so `push_batch` never waits for a worker and times the
/// enqueue alone, as it runs under the open loop's partial load.
fn engine_pass(
    w: Workload,
    dir: Option<&Path>,
    inputs: &Inputs,
    batches: &[Vec<(u64, f64)>],
) -> Result<EnginePass, String> {
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
    let config = FleetConfig { queue_capacity: ENGINE_SAMPLES, ..fleet_config(dir) };
    let engine = FleetEngine::new(config).map_err(|e| e.to_string())?;
    for id in w.stream_ids() {
        engine.register_with(id, &w.stream_config(id)).map_err(|e| e.to_string())?;
    }
    for b in &inputs.train {
        engine.push_batch(&b.decode());
    }
    engine.flush();
    let before = Scrape::parse(&engine.prometheus());
    let wal_before = engine.store_stats().map_or(0, |s| s.wal.bytes);
    let samples: f64 = batches.iter().map(|b| b.len() as f64).sum();
    let mut pushing = 0.0;
    let t = Instant::now();
    for b in batches {
        let p = Instant::now();
        black_box(engine.push_batch(b));
        pushing += ns_since(p);
    }
    engine.flush();
    let mut pass = EnginePass {
        push_ns_per_sample: pushing / samples,
        drain_ns_per_sample: ns_since(t) / samples,
        store: None,
    };
    let (Some(dir), Some(stats)) = (dir, engine.store_stats()) else { return Ok(pass) };
    let after = Scrape::parse(&engine.prometheus());
    let append = hist_delta(&before, &after, "fleet_wal_append_us");
    let mut ms = Vec::new();
    for _ in 0..3 {
        let c = Instant::now();
        engine.checkpoint_durable().map_err(|e| e.to_string())?;
        ms.push(ns_since(c) / 1e6);
    }
    pass.store = Some(StoreReplay {
        wal_append_us_p50: hist_percentile(&append, 0.5).unwrap_or(0.0),
        wal_append_us_p90: hist_percentile(&append, 0.9).unwrap_or(0.0),
        fsyncs_per_1m_samples: delta(&before, &after, "fleet_wal_fsyncs_total") * 1e6 / samples,
        wal_bytes_per_sample: (stats.wal.bytes - wal_before) as f64 / samples,
        checkpoint_ms: median(&ms),
        checkpoint_bytes: std::fs::metadata(dir.join("CHECKPOINT"))
            .map_err(|e| format!("checkpoint file: {e}"))?
            .len() as f64,
    });
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    Ok(pass)
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays `inputs` (first measured window) layer by layer. `dir` is a
/// scratch directory for the replay's durable store.
pub fn run(
    w: Workload,
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let load = &inputs.windows[0].load;

    // netserve: request decode and reply encode, as the server does them.
    let t = Instant::now();
    for b in load {
        let (f, _) = wire::decode_ref(&b.frame, MAX_REQUEST_PAYLOAD)
            .map_err(|e| e.to_string())?
            .ok_or("truncated frame")?;
        black_box(Request::decode(f.opcode, f.payload).map_err(|e| e.1)?);
    }
    r.decode_ns_per_req = ns_since(t) / load.len() as f64;
    tracer.span("replay.decode", t, Instant::now(), 0, 0);
    let t = Instant::now();
    for (i, b) in load.iter().enumerate() {
        let outcome = PushOutcome { accepted: b.samples as u64, rejected: 0, dropped: 0 };
        let resp = black_box(Response::PushBatch(outcome));
        let frame =
            Frame { opcode: resp.opcode(), request_id: i as u64, payload: resp.encode_payload() };
        black_box(wire::encode(&frame));
    }
    r.encode_ns_per_req = ns_since(t) / load.len() as f64;
    tracer.span("replay.encode", t, Instant::now(), 0, 0);

    // fleet: the server's engine configuration, set up like the server,
    // then the window's first batches. A durable workload's engine also
    // gives the store figures; the others replay the batches once more
    // through a durable engine, so the store layer is measured everywhere.
    let batches: Vec<Vec<(u64, f64)>> =
        load.iter().take(ENGINE_SAMPLES / BATCH).map(|b| b.decode()).collect();
    let t = Instant::now();
    let fleet = engine_pass(w, w.durable().then_some(dir), inputs, &batches)?;
    r.push_batch_ns_per_sample = fleet.push_ns_per_sample;
    r.drain_ns_per_sample = fleet.drain_ns_per_sample;
    r.store = match fleet.store {
        Some(store) => store,
        None => {
            engine_pass(w, Some(dir), inputs, &batches)?.store.ok_or("store replay kept no WAL")?
        }
    };
    tracer.span("replay.engine", t, Instant::now(), 0, 0);

    // larp: standalone serving stacks fed the same per-stream sequences.
    let t = Instant::now();
    let mut sequences: Vec<Vec<f64>> = vec![Vec::new(); LARP_STREAMS as usize];
    for b in inputs.train.iter().chain(load) {
        for (id, v) in b.decode() {
            if id < LARP_STREAMS {
                sequences[id as usize].push(v);
            }
        }
    }
    let mut ingest_ns = Vec::new();
    let mut train_us = Vec::new();
    let (mut features_ns, mut knn_ns, mut predict_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = Scratch::new();
    let mut steps = Vec::new();
    for id in 0..LARP_STREAMS {
        let config = w.stream_config(id);
        let values = &sequences[id as usize];
        let mut stack: GuardedLarp = config.build().map_err(|e| e.to_string())?;
        for (minute, &v) in values.iter().enumerate() {
            let trained = stack.online().is_trained();
            let c = Instant::now();
            stack.ingest_into(minute as u64, v, &mut scratch, &mut steps);
            let ns = ns_since(c);
            if trained && steps.len() == 1 && !steps[0].retrained {
                ingest_ns.push(ns);
            }
        }

        // Fits and the select/predict path on fault-free training windows.
        let windows = values
            .windows(config.train_size)
            .step_by(config.train_size / 2)
            .filter(|win| win.iter().all(|v| v.is_finite() && *v != -1.0));
        for win in windows {
            let c = Instant::now();
            let Ok(model) = TrainedLarp::train(win, &config.larp) else { continue };
            train_us.push(ns_since(c) / 1e3);
            let m = config.larp.window;
            let z = model.zscore().apply_slice(&win[win.len() - m..]);
            let mut feat = Vec::new();
            let c = Instant::now();
            for _ in 0..LOOP {
                model.features_for_into(black_box(&z), &mut feat).map_err(|e| e.to_string())?;
            }
            features_ns.push(ns_since(c) / f64::from(LOOP));
            let mut knn = Vec::new();
            let mut label = 0;
            let c = Instant::now();
            for _ in 0..LOOP {
                label = model
                    .knn()
                    .classify_into(black_box(&feat), &mut knn)
                    .map_err(|e| e.to_string())?;
            }
            knn_ns.push(ns_since(c) / f64::from(LOOP));
            let c = Instant::now();
            for _ in 0..LOOP {
                black_box(
                    model
                        .predict_with_normalized(PredictorId(label), black_box(&z))
                        .map_err(|e| e.to_string())?,
                );
            }
            predict_ns.push(ns_since(c) / f64::from(LOOP));
        }
    }
    tracer.span("replay.larp", t, Instant::now(), 0, 0);
    r.ingest_ns_p50 = percentile(&ingest_ns, 0.5);
    r.train_us_p50 = percentile(&train_us, 0.5);
    r.features_ns_p50 = percentile(&features_ns, 0.5);
    r.knn_ns_p50 = percentile(&knn_ns, 0.5);
    r.predict_ns_p50 = percentile(&predict_ns, 0.5);
    Ok(r)
}
