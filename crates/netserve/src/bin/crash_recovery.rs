//! Kill-test harness: proves the durable serving path survives `kill -9`.
//!
//! The harness self-spawns (via `current_exe`) a child copy running
//! `--role server`: a durable [`fleet::FleetEngine`] behind a [`netserve`]
//! server, WAL directory on disk, ephemeral port published through an
//! addr-file. The parent then:
//!
//! 1. registers `--streams` streams and pushes `--warmup` deterministic
//!    auto-clocked batches (one sample per stream per batch),
//! 2. keeps pushing while a killer thread SIGKILLs the child mid-traffic,
//!    counting exactly which batches were acked,
//! 3. recovers the fleet in-process from the orphaned store directory
//!    ([`fleet::FleetEngine::recover`]) and asserts
//!    * every stream came back and the WAL had no gaps (a torn final
//!      record is expected and fine),
//!    * **zero acked-sample loss**: the recovered per-stream sample count
//!      covers every acked batch,
//!    * **bit-identical forecasts**: a shadow engine fed the same prefix of
//!      the deterministic trace reproduces every stream's forecast bits,
//!    * the `fleet_wal_recoveries_total` / `fleet_wal_gap_records_total`
//!      metrics are scrape-visible,
//!    * a partial `CHECKPOINT.tmp` the kill left mid-checkpoint (reported
//!      as `checkpoint_tmp_left`) changed none of the above: the checkpoint
//!      still loads (`checkpoint_corrupt: false`) and the forecasts stay
//!      bit-identical,
//! 4. restarts serving on the recovered engine and pushes more traffic
//!    through a fresh server to prove the process is fully live again, then
//!    checkpoints it durably, which must replace any leftover tmp file.
//!
//! Prints a one-object JSON report (recovery latency, replayed records,
//! acked/recovered batch counts) and writes it to `--out`
//! (default `results/BENCH_recovery.json`). Exits non-zero on any failure.
//!
//! Run with: `cargo run --release -p netserve --bin crash_recovery`

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig, StreamInfo};
use larp::HealthState;
use netserve::{Client, ClientConfig, Server, ServerConfig};
use vmsim::fleet_signal;
use vmsim::signal::Signal;

struct Args {
    role: String,
    dir: PathBuf,
    addr_file: PathBuf,
    streams: u64,
    shards: usize,
    seed: u64,
    warmup: u64,
    kill_after_ms: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        role: "harness".into(),
        dir: PathBuf::new(),
        addr_file: PathBuf::new(),
        streams: 16,
        shards: 4,
        seed: 2007,
        warmup: 150,
        kill_after_ms: 250,
        out: "results/BENCH_recovery.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value"));
        let uint = |name: &str, v: String| {
            v.parse::<u64>().unwrap_or_else(|_| panic!("{name} expects an unsigned integer"))
        };
        match flag.as_str() {
            "--role" => args.role = take("--role"),
            "--dir" => args.dir = PathBuf::from(take("--dir")),
            "--addr-file" => args.addr_file = PathBuf::from(take("--addr-file")),
            "--streams" => args.streams = uint("--streams", take("--streams")),
            "--shards" => args.shards = uint("--shards", take("--shards")) as usize,
            "--seed" => args.seed = uint("--seed", take("--seed")),
            "--warmup" => args.warmup = uint("--warmup", take("--warmup")),
            "--kill-after-ms" => {
                args.kill_after_ms = uint("--kill-after-ms", take("--kill-after-ms"))
            }
            "--out" => args.out = take("--out"),
            other => panic!(
                "unknown flag {other}; supported: --role --dir --addr-file --streams --shards \
                 --seed --warmup --kill-after-ms --out"
            ),
        }
    }
    assert!(args.streams >= 1, "--streams must be >= 1");
    assert!(args.warmup >= 1, "--warmup must be >= 1");
    args
}

/// The engine configuration both the child server and the recovering parent
/// must agree on (same seed + shards ⇒ same stream→shard placement).
fn fleet_config(args: &Args, durable: bool) -> FleetConfig {
    FleetConfig {
        shards: args.shards,
        queue_capacity: 8192,
        fleet_seed: args.seed,
        durability: durable.then(|| DurabilityConfig {
            // Small segments + a live auto-checkpointer so the kill also
            // lands across rotations and checkpoint truncation.
            segment_bytes: 64 << 10,
            auto_checkpoint_records: 256,
            ..DurabilityConfig::new(args.dir.clone())
        }),
        ..FleetConfig::default()
    }
}

/// Child role: serve a durable fleet until SIGKILLed. Never returns.
fn run_server(args: &Args) -> ! {
    let engine =
        Arc::new(FleetEngine::new(fleet_config(args, true)).expect("durable engine starts"));
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server starts");
    // Publish the ephemeral port atomically so the parent never reads a
    // half-written address.
    let tmp = args.addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.addr().to_string()).expect("write addr file");
    std::fs::rename(&tmp, &args.addr_file).expect("publish addr file");
    loop {
        std::thread::park();
    }
}

/// Deterministic auto-clocked batch for `round`: one sample per stream.
/// Signals are stateful, so determinism holds per *call sequence* — both the
/// live run and the shadow replay start from fresh signals and call once per
/// round, in round order.
fn batch_for(signals: &mut [(u64, Box<dyn Signal>)], round: u64) -> Vec<(u64, f64)> {
    signals.iter_mut().map(|(id, s)| (*id, s.sample(round))).collect()
}

fn wait_for_addr(path: &std::path::Path, child: &mut Child) -> std::net::SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("server child exited early: {status}");
        }
        assert!(Instant::now() < deadline, "server child never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The bit-comparable serving state of one stream: everything a FLEETCKP
/// checkpoint preserves. `steps`/`forecasts` are since-restore slot counters
/// (same semantic as the non-durable `restore`), so they are not compared.
fn fingerprint(info: &StreamInfo) -> (u64, usize, Option<u64>, HealthState) {
    (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits), info.health)
}

fn main() {
    let args = parse_args();
    if args.role == "server" {
        run_server(&args);
    }
    assert_eq!(args.role, "harness", "--role must be 'server' or 'harness'");

    let base = std::env::temp_dir().join(format!("netserve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create harness dir");
    let store_dir = base.join("store");
    let addr_file = base.join("addr");

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(&exe)
        .args([
            "--role",
            "server",
            "--dir",
            store_dir.to_str().expect("utf-8 path"),
            "--addr-file",
            addr_file.to_str().expect("utf-8 path"),
            "--streams",
            &args.streams.to_string(),
            "--shards",
            &args.shards.to_string(),
            "--seed",
            &args.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn server child");
    let addr = wait_for_addr(&addr_file, &mut child);

    // One attempt per request: an ack is an ack, a failure is the kill.
    let client_cfg = ClientConfig {
        max_attempts: 1,
        request_timeout: Duration::from_secs(5),
        client_name: "crash-harness".into(),
        ..ClientConfig::default()
    };
    let mut client = Client::connect(addr, client_cfg).expect("harness connects");
    for id in 0..args.streams {
        client.register(id).expect("register stream");
    }

    let mut signals: Vec<(u64, Box<dyn Signal>)> =
        (0..args.streams).map(|id| (id, fleet_signal(args.seed, id))).collect();

    // Phase 1: warmup traffic, every batch must ack.
    for round in 0..args.warmup {
        let outcome = client.push_batch(&batch_for(&mut signals, round)).expect("warmup ack");
        assert_eq!(outcome.rejected, 0, "Block backpressure must not reject");
    }

    // Phase 2: keep pushing while the killer lands SIGKILL mid-traffic.
    let kill_after = Duration::from_millis(args.kill_after_ms);
    let killer = std::thread::spawn(move || {
        std::thread::sleep(kill_after);
        let _ = child.kill(); // SIGKILL: no destructors, no flush, no fsync
        let _ = child.wait();
    });
    let mut acked = args.warmup;
    // The loop ends when an ack is lost or the connection dies: the kill landed.
    while let Ok(outcome) = client.push_batch(&batch_for(&mut signals, acked)) {
        assert_eq!(outcome.rejected, 0, "Block backpressure must not reject");
        acked += 1;
        assert!(acked < args.warmup + 5_000_000, "kill never landed");
    }
    killer.join().expect("killer thread");
    drop(client);

    // Phase 3: recover in-process from the orphaned store directory.
    let recover_args = Args { dir: store_dir.clone(), ..args };
    let mut config = fleet_config(&recover_args, true);
    if let Some(d) = config.durability.as_mut() {
        d.auto_checkpoint_records = 0; // quiet while we compare state
    }
    // The auto-checkpointer streams each checkpoint into CHECKPOINT.tmp
    // before renaming it, so the kill can leave a partial one behind.
    // Recovery must read only CHECKPOINT and ignore it.
    let ckpt_tmp = store_dir.join("CHECKPOINT.tmp");
    let checkpoint_tmp_left = ckpt_tmp.exists();
    let t = Instant::now();
    let (engine, summary) =
        FleetEngine::recover(config, StreamConfig::default()).expect("recovery succeeds");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let engine = Arc::new(engine);

    assert_eq!(engine.stream_count() as u64, recover_args.streams, "every stream recovered");
    assert_eq!(summary.gap_records, 0, "kill -9 must not create WAL gaps");
    assert_eq!(summary.corrupt_segments, 0, "kill -9 must not corrupt whole segments");
    assert_eq!(summary.missing_segments, 0, "no segment may vanish");
    assert_eq!(summary.unknown_replayed, 0, "every replayed sample must route");
    assert!(!summary.checkpoint_corrupt, "checkpoint writes must be atomic");

    // Zero acked-sample loss: every batch carries one sample per stream, so
    // a stream's next auto-clock minute counts the batches it absorbed.
    let recovered: Vec<StreamInfo> = (0..recover_args.streams)
        .map(|id| engine.stream_info(id).expect("recovered stream"))
        .collect();
    let recovered_batches = recovered[0].next_minute;
    for info in &recovered {
        assert_eq!(
            info.next_minute, recovered_batches,
            "batch WAL records are atomic, so every stream sees the same prefix"
        );
    }
    assert!(
        recovered_batches >= acked,
        "acked samples lost: {acked} batches acked, {recovered_batches} recovered"
    );
    // The WAL may hold at most the one in-flight batch past the last ack.
    assert!(
        recovered_batches <= acked + 1,
        "recovered {recovered_batches} batches but only {acked} were even sent before the kill"
    );

    // Bit-identical forecasts: replay the same deterministic prefix into a
    // shadow (non-durable) engine and compare every stream's serving state.
    let shadow =
        FleetEngine::new(fleet_config(&recover_args, false)).expect("shadow engine starts");
    let mut shadow_signals: Vec<(u64, Box<dyn Signal>)> =
        (0..recover_args.streams).map(|id| (id, fleet_signal(recover_args.seed, id))).collect();
    for id in 0..recover_args.streams {
        shadow.register(id).expect("shadow register");
    }
    for round in 0..recovered_batches {
        shadow.push_batch(&batch_for(&mut shadow_signals, round));
    }
    shadow.flush();
    for info in &recovered {
        let reference = shadow.stream_info(info.id).expect("shadow stream");
        assert_eq!(
            fingerprint(info),
            fingerprint(&reference),
            "stream {} diverged from the uninterrupted reference",
            info.id
        );
    }

    // The recovery must be scrape-visible.
    let metrics = engine.prometheus();
    assert!(metrics.contains("fleet_wal_recoveries_total 1"), "recovery counter missing");
    assert!(metrics.contains("fleet_wal_gap_records_total 0"), "gap counter missing");

    // Phase 4: the recovered engine serves again, durably, over the wire.
    let mut server = Server::start(
        Arc::clone(&engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("recovered server starts");
    let mut client =
        Client::connect(server.addr(), ClientConfig::default()).expect("reconnect after recovery");
    // `signals` has generated rounds up to `acked` (the final unacked
    // attempt included), so resume past it — minutes must stay increasing.
    for round in acked + 1..acked + 21 {
        client.push_batch(&batch_for(&mut signals, round)).expect("post-recovery ack");
    }
    for id in 0..recover_args.streams {
        client.predict(id).expect("post-recovery predict");
    }
    // A checkpoint on the recovered engine replaces any leftover tmp file.
    engine.checkpoint_durable().expect("post-recovery checkpoint");
    assert!(!ckpt_tmp.exists(), "the post-recovery checkpoint leaves no CHECKPOINT.tmp");
    client.shutdown_server().expect("wire shutdown");
    server.shutdown();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"streams\": {},\n", recover_args.streams));
    out.push_str(&format!("  \"shards\": {},\n", recover_args.shards));
    out.push_str(&format!("  \"seed\": {},\n", recover_args.seed));
    out.push_str(&format!("  \"warmup_batches\": {},\n", recover_args.warmup));
    out.push_str(&format!("  \"acked_batches\": {acked},\n"));
    out.push_str(&format!("  \"recovered_batches\": {recovered_batches},\n"));
    out.push_str(&format!("  \"checkpoint_seq\": {},\n", summary.checkpoint_seq));
    out.push_str(&format!("  \"checkpoint_streams\": {},\n", summary.checkpoint_streams));
    out.push_str(&format!("  \"replayed_records\": {},\n", summary.replayed_records));
    out.push_str(&format!("  \"replayed_samples\": {},\n", summary.replayed_samples));
    out.push_str(&format!("  \"torn_tail\": {},\n", summary.torn_tail));
    out.push_str(&format!("  \"checkpoint_tmp_left\": {checkpoint_tmp_left},\n"));
    out.push_str(&format!("  \"checkpoint_corrupt\": {},\n", summary.checkpoint_corrupt));
    out.push_str(&format!("  \"gap_records\": {},\n", summary.gap_records));
    out.push_str(&format!("  \"recovery_ms\": {recovery_ms:.2},\n"));
    out.push_str("  \"acked_sample_loss\": 0,\n");
    out.push_str("  \"bit_identical\": true,\n");
    out.push_str("  \"served_after_recovery\": true\n");
    out.push('}');
    obs::expo::validate_json(&out)
        .unwrap_or_else(|e| panic!("crash_recovery produced invalid JSON: {e}"));
    println!("{out}");
    if let Err(e) = std::fs::write(&recover_args.out, &out) {
        eprintln!("warning: could not write {}: {e}", recover_args.out);
    }

    // Release the store handles (server first: its shared block holds the
    // engine Arc) before tearing the directory down.
    drop(server);
    drop(engine);
    let _ = std::fs::remove_dir_all(&base);
}
