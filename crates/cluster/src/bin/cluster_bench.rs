//! 3-node kill-test harness: proves the cluster tier end to end.
//!
//! The harness self-spawns (via `current_exe`) three child copies running
//! `--role node`, each a durable [`cluster::ClusterNode`] on an ephemeral
//! localhost port (address published through an addr-file). The parent
//! then plays coordinator and client:
//!
//! 1. installs ring v1 (all three nodes) and registers `--streams`
//!    streams through a [`cluster::ClusterClient`], mirrored into an
//!    in-process non-durable reference engine,
//! 2. drives warmup traffic (timed → aggregate samples/s),
//! 3. **live-drains node a**: per-stream `MigrateOut` → `MigrateIn` →
//!    `Evict` over the wire (timed → migration streams/s), then publishes
//!    ring v2 (`a` reassigned to `c`),
//! 4. **kills node b with SIGKILL mid-traffic** while a pusher thread
//!    keeps the client running; the parent publishes ring v3
//!    (`fail_over("b")` → heir `c`), whose install makes `c` materialize
//!    b's streams from its warm-standby buffer plus b's on-disk WAL tail,
//! 5. measures the client-visible outage as the largest gap between
//!    consecutive successful pushes, and
//! 6. verifies **zero acked-sample loss** (every stream's clock covers
//!    every acked minute) and **bit-identical forecasts** against the
//!    uninterrupted reference.
//!
//! Prints a one-object JSON report and writes it to `--out`
//! (default `results/BENCH_cluster.json`). Exits non-zero on any failure.
//!
//! Run with: `cargo run --release -p cluster --bin cluster_bench`

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{ClusterClient, ClusterClientConfig, ClusterNode, NodeConfig, NodeInfo, Ring};
use fleet::{DurabilityConfig, FleetConfig, FleetEngine};
use netserve::{Client, ClientConfig, ServerConfig};
use vmsim::fleet_signal;

const NODES: [&str; 3] = ["a", "b", "c"];

struct Args {
    role: String,
    name: String,
    root: PathBuf,
    streams: u64,
    shards: usize,
    vnodes: u32,
    seed: u64,
    warmup: u64,
    mid: u64,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        role: "harness".into(),
        name: String::new(),
        root: PathBuf::new(),
        streams: 36,
        shards: 4,
        vnodes: 64,
        seed: 2033,
        warmup: 240,
        mid: 60,
        out: "results/BENCH_cluster.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value"));
        let uint = |name: &str, v: String| {
            v.parse::<u64>().unwrap_or_else(|_| panic!("{name} expects an unsigned integer"))
        };
        match flag.as_str() {
            "--role" => args.role = take("--role"),
            "--name" => args.name = take("--name"),
            "--root" => args.root = PathBuf::from(take("--root")),
            "--streams" => args.streams = uint("--streams", take("--streams")),
            "--shards" => args.shards = uint("--shards", take("--shards")) as usize,
            "--vnodes" => args.vnodes = uint("--vnodes", take("--vnodes")) as u32,
            "--seed" => args.seed = uint("--seed", take("--seed")),
            "--warmup" => args.warmup = uint("--warmup", take("--warmup")),
            "--mid" => args.mid = uint("--mid", take("--mid")),
            "--out" => args.out = take("--out"),
            other => panic!(
                "unknown flag {other}; supported: --role --name --root --streams --shards \
                 --vnodes --seed --warmup --mid --out"
            ),
        }
    }
    assert!(args.streams >= NODES.len() as u64, "--streams must cover the nodes");
    assert!(args.warmup >= 50, "--warmup must be >= 50 (predictors need history)");
    args
}

/// The engine configuration every node and the reference must agree on
/// (same seed + shards ⇒ same stream→shard placement).
fn fleet_config(args: &Args, wal_dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        shards: args.shards,
        queue_capacity: 8192,
        fleet_seed: args.seed,
        // `DurabilityConfig::new` keeps auto-checkpointing off, so the
        // whole WAL stays readable for the heir's takeover tail-read.
        durability: wal_dir.map(DurabilityConfig::new),
        ..FleetConfig::default()
    }
}

/// Node role: serve one durable cluster node until killed. Never returns.
fn run_node(args: &Args) -> ! {
    let mut peer_wal_dirs = HashMap::new();
    for peer in NODES {
        if peer != args.name {
            peer_wal_dirs.insert(peer.to_string(), args.root.join("store").join(peer));
        }
    }
    let node = ClusterNode::start(NodeConfig {
        name: args.name.clone(),
        server: ServerConfig { http_addr: None, ..ServerConfig::default() },
        fleet: fleet_config(args, Some(args.root.join("store").join(&args.name))),
        standby_interval: Duration::from_millis(100),
        peer_wal_dirs,
    })
    .expect("cluster node starts");
    // Publish the ephemeral port atomically so the parent never reads a
    // half-written address.
    let addr_file = args.root.join(format!("addr_{}", args.name));
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, node.addr().to_string()).expect("write addr file");
    std::fs::rename(&tmp, &addr_file).expect("publish addr file");
    loop {
        std::thread::park();
    }
}

fn wait_for_addr(path: &Path, child: &mut Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let text = text.trim();
            if !text.is_empty() {
                return text.to_string();
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("node child exited early: {status}");
        }
        assert!(Instant::now() < deadline, "node child never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One minute of every stream's deterministic signal. A fresh signal
/// sampled once at `minute` is a pure function of `(seed, id, minute)`,
/// so the traffic thread and the later reference replay agree bit-for-bit.
fn minute_batch(seed: u64, streams: u64, minute: u64) -> Vec<(u64, f64)> {
    (0..streams)
        .map(|id| {
            let mut signal = fleet_signal(seed, id);
            (id, signal.sample(minute))
        })
        .collect()
}

fn owned_by(ring: &Ring, streams: u64, name: &str) -> Vec<u64> {
    (0..streams).filter(|&id| ring.owner_of(id).name == name).collect()
}

fn main() {
    let args = parse_args();
    if args.role == "node" {
        run_node(&args);
    }
    assert_eq!(args.role, "harness", "--role must be 'node' or 'harness'");

    let root = std::env::temp_dir().join(format!("cluster-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("store")).expect("create harness dir");

    // Spawn the three node processes and collect their addresses.
    let exe = std::env::current_exe().expect("current_exe");
    let mut children: Vec<(String, Child)> = NODES
        .iter()
        .map(|name| {
            let child = Command::new(&exe)
                .args([
                    "--role",
                    "node",
                    "--name",
                    name,
                    "--root",
                    root.to_str().expect("utf-8 path"),
                    "--streams",
                    &args.streams.to_string(),
                    "--shards",
                    &args.shards.to_string(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .stdin(Stdio::null())
                .spawn()
                .expect("spawn node child");
            (name.to_string(), child)
        })
        .collect();
    let addrs: Vec<String> = children
        .iter_mut()
        .map(|(name, child)| wait_for_addr(&root.join(format!("addr_{name}")), child))
        .collect();

    // Ring v1: all three nodes, installed over the wire on each.
    let ring1 = Ring::new(
        1,
        args.vnodes,
        NODES
            .iter()
            .zip(&addrs)
            .map(|(name, addr)| NodeInfo { name: name.to_string(), addr: addr.clone() })
            .collect(),
    )
    .expect("ring v1");
    let coord_cfg = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(15),
        client_name: "cluster-bench-coord".into(),
        ..ClientConfig::default()
    };
    let mut coords: Vec<Client> = addrs
        .iter()
        .map(|addr| Client::connect(addr, coord_cfg.clone()).expect("coordinator connects"))
        .collect();
    for coord in &mut coords {
        coord.ring_update(ring1.version(), ring1.encode()).expect("install ring v1");
    }

    // The uninterrupted single-engine reference, and the ring-aware client.
    let reference = FleetEngine::new(fleet_config(&args, None)).expect("reference engine");
    let mut client = ClusterClient::connect(
        &addrs,
        ClusterClientConfig {
            route_attempts: 80,
            retry_pause: Duration::from_millis(250),
            ..ClusterClientConfig::default()
        },
    )
    .expect("cluster client connects");
    for id in 0..args.streams {
        client.register(id).expect("register via ring");
        reference.register(id).expect("reference register");
    }

    // Phase 1: warmup traffic through ring v1, every sample must ack.
    let t = Instant::now();
    for minute in 0..args.warmup {
        let batch = minute_batch(args.seed, args.streams, minute);
        let stats = client.push(&batch).expect("warmup push");
        assert_eq!(stats.accepted, args.streams, "warmup minute fully acked");
        reference.push_batch(&batch);
    }
    let samples_per_sec = (args.warmup * args.streams) as f64 / t.elapsed().as_secs_f64();

    // Phase 2: live-drain node a into node c, stream by stream, over the
    // wire, while the fences + adopted set keep the cluster serving.
    let a_owned = owned_by(&ring1, args.streams, "a");
    let b_owned = owned_by(&ring1, args.streams, "b");
    assert!(!a_owned.is_empty() && !b_owned.is_empty(), "ring v1 spreads ownership");
    let c_addr = addrs[2].clone();
    let t = Instant::now();
    for &id in &a_owned {
        let (next_minute, floor, snapshot) = coords[0].migrate_out(id, &c_addr).expect("out");
        assert_eq!(next_minute, args.warmup, "drained stream's clock covers the warmup");
        coords[2].migrate_in(id, next_minute, floor, snapshot).expect("in");
        coords[0].evict(id).expect("evict on loser");
    }
    let migration_streams_per_sec = a_owned.len() as f64 / t.elapsed().as_secs_f64();
    let mut ring2 = ring1.clone();
    ring2.reassign("a", "c").expect("drain a");
    for coord in &mut coords {
        coord.ring_update(ring2.version(), ring2.encode()).expect("install ring v2");
    }
    assert!(client.refresh_ring(), "client adopts ring v2");

    // Phase 3: mid traffic on ring v2, then a pause so b's standby feed
    // (100ms cadence) snapshots its fleet into c's buffer.
    for minute in args.warmup..args.warmup + args.mid {
        let batch = minute_batch(args.seed, args.streams, minute);
        let stats = client.push(&batch).expect("mid push");
        assert_eq!(stats.accepted, args.streams, "mid minute fully acked");
        reference.push_batch(&batch);
    }
    std::thread::sleep(Duration::from_millis(1500));

    // Phase 4: SIGKILL node b mid-traffic; fail its range over to c.
    let stop = Arc::new(AtomicBool::new(false));
    let pusher = {
        let stop = Arc::clone(&stop);
        let (seed, streams, start) = (args.seed, args.streams, args.warmup + args.mid);
        std::thread::spawn(move || -> Result<_, String> {
            let mut minute = start;
            let mut acked_at: Vec<Instant> = vec![Instant::now()];
            let mut retries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let batch = minute_batch(seed, streams, minute);
                let stats = client.push(&batch).map_err(|e| format!("minute {minute}: {e}"))?;
                if stats.accepted + stats.deduped != streams {
                    return Err(format!(
                        "minute {minute}: {} of {streams} samples landed",
                        stats.accepted + stats.deduped
                    ));
                }
                retries += stats.retries;
                acked_at.push(Instant::now());
                minute += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok((client, minute, acked_at, retries))
        })
    };
    std::thread::sleep(Duration::from_millis(300));
    let (_, child_b) = &mut children[1];
    child_b.kill().expect("SIGKILL node b"); // no destructors, no flush, no fsync
    child_b.wait().expect("reap node b");
    std::thread::sleep(Duration::from_millis(700));
    let mut ring3 = ring2.clone();
    let heir = ring3.fail_over("b").expect("fail over b");
    assert_eq!(heir, "c", "c is b's ring successor once a is drained");
    // Installing v3 on the heir runs the takeover synchronously: standby
    // snapshots first, then b's WAL tail read straight off the shared disk.
    let t = Instant::now();
    coords[2].ring_update(ring3.version(), ring3.encode()).expect("install ring v3 on heir");
    let takeover_ms = t.elapsed().as_secs_f64() * 1e3;
    coords[0].ring_update(ring3.version(), ring3.encode()).expect("install ring v3 on a");
    std::thread::sleep(Duration::from_millis(1500));
    stop.store(true, Ordering::Relaxed);
    let (mut client, total_minutes, acked_at, push_retries) =
        pusher.join().expect("pusher thread").unwrap_or_else(|e| panic!("pusher failed: {e}"));
    assert!(push_retries > 0, "the kill window must have forced retries");
    assert!(
        total_minutes > args.warmup + args.mid + 100,
        "pusher must still be running across the kill window"
    );
    let failover_gap_ms = acked_at
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_millis())
        .max()
        .expect("at least one push") as u64;
    assert!(failover_gap_ms < 15_000, "outage gap {failover_gap_ms}ms exceeds the budget");

    // Phase 5: verify. Replay the pusher's minutes into the reference,
    // then compare every stream's serving state through the client.
    for minute in args.warmup + args.mid..total_minutes {
        reference.push_batch(&minute_batch(args.seed, args.streams, minute));
    }
    reference.flush();
    let mut acked_lost = 0u64;
    for id in 0..args.streams {
        let info = client.stream_info(id).expect("stream info via ring v3");
        acked_lost += total_minutes.saturating_sub(info.next_minute);
        let expect = reference.stream_info(id).expect("reference info");
        assert_eq!(
            (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits)),
            (expect.next_minute, expect.retrains as u64, expect.last_forecast.map(f64::to_bits)),
            "stream {id} diverged from the uninterrupted reference"
        );
        let reply = client.predict(id).expect("predict via ring v3");
        assert_eq!(
            reply.forecast.map(f64::to_bits),
            expect.last_forecast.map(f64::to_bits),
            "stream {id} forecast diverged"
        );
    }
    assert_eq!(acked_lost, 0, "acked samples lost across drain + failover");
    assert_eq!(client.ring().version(), ring3.version(), "client adopted the failover ring");

    let mut out = String::from("{\n");
    out.push_str("  \"nodes\": 3,\n");
    out.push_str(&format!("  \"streams\": {},\n", args.streams));
    out.push_str(&format!("  \"shards\": {},\n", args.shards));
    out.push_str(&format!("  \"vnodes\": {},\n", args.vnodes));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"warmup_minutes\": {},\n", args.warmup));
    out.push_str(&format!("  \"total_minutes\": {total_minutes},\n"));
    out.push_str(&format!("  \"samples_per_sec\": {},\n", samples_per_sec.round() as u64));
    out.push_str(&format!("  \"migrated_streams\": {},\n", a_owned.len()));
    out.push_str(&format!(
        "  \"migration_streams_per_sec\": {},\n",
        migration_streams_per_sec.round() as u64
    ));
    out.push_str(&format!("  \"failover_streams\": {},\n", b_owned.len()));
    out.push_str(&format!("  \"takeover_ms\": {takeover_ms:.2},\n"));
    out.push_str(&format!("  \"failover_gap_ms\": {failover_gap_ms},\n"));
    out.push_str(&format!("  \"push_retries\": {push_retries},\n"));
    out.push_str("  \"acked_lost\": 0,\n");
    out.push_str("  \"bit_identical\": true\n");
    out.push('}');
    obs::expo::validate_json(&out)
        .unwrap_or_else(|e| panic!("cluster_bench produced invalid JSON: {e}"));
    println!("{out}");
    if let Err(e) = std::fs::write(&args.out, &out) {
        eprintln!("warning: could not write {}: {e}", args.out);
    }

    for (_, child) in &mut children {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&root);
}
