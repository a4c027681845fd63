//! In-process cluster integration: live drain migration over the wire,
//! and warm-standby failover taking over a dead peer's streams — both
//! bit-identical to an uninterrupted single-engine reference, f32-mode
//! streams included.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cluster::{ClusterClient, ClusterClientConfig, ClusterNode, NodeConfig, NodeInfo, Ring};
use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};
use larp::ResilienceConfig;
use netserve::{Client, ClientConfig, ServerConfig};
use obs::EventKind;
use vmsim::fleet_signal;

const SEED: u64 = 2032;
const STREAMS: u64 = 16;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cluster-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_config(wal_dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        shards: 2,
        fleet_seed: SEED,
        durability: wal_dir.map(DurabilityConfig::new),
        ..FleetConfig::default()
    }
}

fn start_node(name: &str, root: &Path, standby_interval: Duration, peers: &[&str]) -> ClusterNode {
    let mut peer_wal_dirs = HashMap::new();
    for peer in peers {
        peer_wal_dirs.insert(peer.to_string(), root.join(peer));
    }
    ClusterNode::start(NodeConfig {
        name: name.into(),
        server: ServerConfig { http_addr: None, ..ServerConfig::default() },
        fleet: fleet_config(Some(root.join(name))),
        standby_interval,
        peer_wal_dirs,
    })
    .expect("node starts")
}

fn two_node_ring(a: &ClusterNode, b: &ClusterNode) -> Ring {
    Ring::new(
        1,
        32,
        vec![
            NodeInfo { name: "a".into(), addr: a.addr().to_string() },
            NodeInfo { name: "b".into(), addr: b.addr().to_string() },
        ],
    )
    .expect("ring")
}

fn cluster_client(ring: &Ring) -> ClusterClient {
    let seeds: Vec<String> = ring.nodes().iter().map(|n| n.addr.clone()).collect();
    ClusterClient::connect(
        &seeds,
        ClusterClientConfig {
            route_attempts: 20,
            retry_pause: Duration::from_millis(100),
            ..ClusterClientConfig::default()
        },
    )
    .expect("cluster client connects")
}

/// Registers the fleet on cluster and control alike: stream `f32_id` in
/// f32-history mode (via the owning engine — a server-side knob), the
/// rest over the wire with engine defaults.
fn register_fleet(
    client: &mut ClusterClient,
    control: &FleetEngine,
    f32_id: u64,
    f32_owner: &ClusterNode,
) {
    let f32_config = StreamConfig {
        resilience: ResilienceConfig { f32_history: true, ..ResilienceConfig::default() },
        ..StreamConfig::default()
    };
    for id in 0..STREAMS {
        if id == f32_id {
            f32_owner.engine().register_with(id, &f32_config).expect("register f32 stream");
            control.register_with(id, &f32_config).expect("control f32");
        } else {
            client.register(id).expect("register via ring");
            control.register(id).expect("control register");
        }
    }
}

/// One minute of every stream's deterministic signal.
fn minute_batch(minute: u64) -> Vec<(u64, f64)> {
    (0..STREAMS)
        .map(|id| {
            let mut signal = fleet_signal(SEED, id);
            (id, signal.sample(minute))
        })
        .collect()
}

fn drive(client: &mut ClusterClient, control: &FleetEngine, from: u64, to: u64) -> (u64, u64) {
    let mut accepted = 0;
    let mut deduped = 0;
    for minute in from..to {
        let batch = minute_batch(minute);
        let stats = client.push(&batch).expect("cluster push");
        accepted += stats.accepted;
        deduped += stats.deduped;
        control.push_batch(&batch);
    }
    (accepted, deduped)
}

/// What must stay bit-identical wherever a stream lands. Serving tallies
/// (steps, forecasts) restart on a restored engine by design; predictor
/// state and the clock must not.
fn fingerprint(engine: &FleetEngine, id: u64) -> (u64, usize, Option<u64>) {
    let info = engine.stream_info(id).expect("stream info");
    (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits))
}

fn owned_by(ring: &Ring, name: &str) -> Vec<u64> {
    (0..STREAMS).filter(|&id| ring.owner_of(id).name == name).collect()
}

#[test]
fn live_drain_migrates_streams_and_redirects_clients() {
    let root = temp_dir("drain");
    // Standby interval effectively off: this test isolates the migration
    // path from the failover path.
    let mut node_a = start_node("a", &root, Duration::from_secs(3600), &[]);
    let mut node_b = start_node("b", &root, Duration::from_secs(3600), &[]);
    let ring1 = two_node_ring(&node_a, &node_b);
    node_a.install_ring(&ring1).expect("install on a");
    node_b.install_ring(&ring1).expect("install on b");

    let a_owned = owned_by(&ring1, "a");
    let b_owned = owned_by(&ring1, "b");
    assert!(!a_owned.is_empty() && !b_owned.is_empty(), "both nodes own streams");

    let control = FleetEngine::new(fleet_config(None)).expect("control");
    let mut client = cluster_client(&ring1);
    register_fleet(&mut client, &control, a_owned[0], &node_a);

    let (accepted, deduped) = drive(&mut client, &control, 0, 100);
    assert_eq!(accepted, 100 * STREAMS, "warmup fully acked");
    assert_eq!(deduped, 0, "no retries expected during warmup");

    // Coordinator drains node a: per-stream MigrateOut → MigrateIn →
    // Evict, all over the wire, while the cluster keeps serving.
    let coord_config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    let mut coord_a = Client::connect(node_a.addr(), coord_config.clone()).expect("coord a");
    let mut coord_b = Client::connect(node_b.addr(), coord_config).expect("coord b");
    let b_addr = node_b.addr().to_string();
    for &id in &a_owned {
        let (next_minute, floor, snapshot) = coord_a.migrate_out(id, &b_addr).expect("out");
        assert_eq!(next_minute, 100);
        assert_eq!(floor, 100, "floor counts applied samples");
        coord_b.migrate_in(id, next_minute, floor, snapshot.clone()).expect("in");
        // A coordinator retry after a lost ack is idempotent.
        coord_b.migrate_in(id, next_minute, floor, snapshot).expect("retried in");
        coord_a.evict(id).expect("evict on loser");
    }
    assert_eq!(node_a.engine().stream_count(), 0, "loser fully drained");

    // The client still routes by ring v1: its pushes hit the loser's
    // fence, follow the NotOwner redirect to the gainer, and land —
    // before any ring update is published.
    let (accepted, deduped) = drive(&mut client, &control, 100, 110);
    assert_eq!(accepted, 10 * STREAMS, "every sample landed through redirects");
    assert_eq!(deduped, 0);

    // Publish ring v2 (a drained into b); the client adopts it.
    let mut ring2 = ring1.clone();
    ring2.reassign("a", "b").expect("drain a");
    node_a.install_ring(&ring2).expect("v2 on a");
    node_b.install_ring(&ring2).expect("v2 on b");
    assert!(client.refresh_ring(), "client adopts the newer ring");
    assert_eq!(client.ring().owner_of(a_owned[0]).name, "b");

    let (accepted, _) = drive(&mut client, &control, 110, 160);
    assert_eq!(accepted, 50 * STREAMS);

    node_b.engine().flush();
    control.flush();
    for id in 0..STREAMS {
        assert_eq!(
            fingerprint(node_b.engine(), id),
            fingerprint(&control, id),
            "stream {id} diverged across the drain"
        );
    }
    // Forecasts keep flowing through the client, bit-identical.
    let reply = client.predict(a_owned[0]).expect("predict after drain");
    let expect = control.stream_info(a_owned[0]).expect("control info").last_forecast;
    assert_eq!(reply.forecast.map(f64::to_bits), expect.map(f64::to_bits));

    node_a.shutdown();
    node_b.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn warm_standby_failover_takes_over_the_dead_peers_streams() {
    let root = temp_dir("failover");
    let mut node_a = start_node("a", &root, Duration::from_millis(50), &["b"]);
    let mut node_b = start_node("b", &root, Duration::from_millis(50), &["a"]);
    let ring1 = two_node_ring(&node_a, &node_b);
    node_a.install_ring(&ring1).expect("install on a");
    node_b.install_ring(&ring1).expect("install on b");

    let a_owned = owned_by(&ring1, "a");
    assert!(!a_owned.is_empty(), "node a owns streams");

    let control = FleetEngine::new(fleet_config(None)).expect("control");
    let mut client = cluster_client(&ring1);
    register_fleet(&mut client, &control, a_owned[0], &node_a);

    drive(&mut client, &control, 0, 120);

    // Wait until b's standby buffer holds a's whole fleet (the feed runs
    // every 50ms; the deadline is generous).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let covered = node_b
            .standby_summary()
            .iter()
            .find(|(source, _, _)| source == "a")
            .map(|(_, snapshots, _)| *snapshots)
            .unwrap_or(0);
        if covered >= a_owned.len() {
            break;
        }
        assert!(Instant::now() < deadline, "standby feed never covered node a's streams");
        std::thread::sleep(Duration::from_millis(20));
    }

    // More traffic after the snapshot cut: the tail the heir must close
    // from WAL records (buffered or read from a's directory).
    drive(&mut client, &control, 120, 140);

    // Node a dies. (Graceful here — the kill -9 variant runs in
    // cluster_bench where processes are real.) Its WAL survives on disk.
    node_a.shutdown();

    let mut ring2 = ring1.clone();
    let heir = ring2.fail_over("a").expect("fail over a");
    assert_eq!(heir, "b", "b is a's ring successor");
    node_b.install_ring(&ring2).expect("takeover install");

    // Takeover happened synchronously inside the install.
    node_b.engine().flush();
    control.flush();
    for id in 0..STREAMS {
        assert_eq!(
            fingerprint(node_b.engine(), id),
            fingerprint(&control, id),
            "stream {id} diverged across failover (f32 stream is {})",
            a_owned[0]
        );
    }
    let takeover_events: Vec<_> = node_b
        .engine()
        .events()
        .recent()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::FailoverTakeover { .. }))
        .collect();
    assert_eq!(takeover_events.len(), 1, "exactly one takeover ran");
    if let EventKind::FailoverTakeover { streams, .. } = takeover_events[0].kind {
        assert_eq!(streams, a_owned.len() as u64, "every a-owned stream materialized");
    }

    // The client rides the failure out: pushes to the dead node fail,
    // the ring refresh reroutes to the heir, sequenced dedup keeps the
    // handoff exactly-once.
    let (accepted, deduped) = drive(&mut client, &control, 140, 180);
    assert_eq!(accepted, 40 * STREAMS, "post-failover traffic fully acked");
    assert_eq!(deduped, 0, "no acked sample was resent");
    assert_eq!(client.ring().version(), ring2.version(), "client adopted the failover ring");

    node_b.engine().flush();
    control.flush();
    for id in 0..STREAMS {
        assert_eq!(
            fingerprint(node_b.engine(), id),
            fingerprint(&control, id),
            "stream {id} diverged after failover traffic"
        );
    }
    let reply = client.predict(a_owned[0]).expect("predict on the heir");
    let expect = control.stream_info(a_owned[0]).expect("control info").last_forecast;
    assert_eq!(reply.forecast.map(f64::to_bits), expect.map(f64::to_bits));

    node_b.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
