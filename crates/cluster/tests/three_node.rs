//! 3-node regression: a live drain (a→c) followed by a failover (b→c)
//! onto the *same* heir. The drain's `Drained` inheritance edge must not
//! trigger a takeover on install — replaying the drained node's WAL
//! (which ends in the drain's `Evict` records) would evict the freshly
//! migrated streams from the heir. The failover's `Failed` edge must.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cluster::{ClusterClient, ClusterClientConfig, ClusterNode, NodeConfig, NodeInfo, Ring};
use fleet::{DurabilityConfig, FleetConfig, FleetEngine};
use netserve::{Client, ClientConfig, ServerConfig};
use vmsim::fleet_signal;

const SEED: u64 = 2033;
const STREAMS: u64 = 36;

fn fleet_config(wal_dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        shards: 4,
        fleet_seed: SEED,
        durability: wal_dir.map(DurabilityConfig::new),
        ..FleetConfig::default()
    }
}

fn start_node(name: &str, root: &std::path::Path, peers: &[&str]) -> ClusterNode {
    let mut peer_wal_dirs = HashMap::new();
    for peer in peers {
        peer_wal_dirs.insert(peer.to_string(), root.join(peer));
    }
    ClusterNode::start(NodeConfig {
        name: name.into(),
        server: ServerConfig { http_addr: None, ..ServerConfig::default() },
        fleet: fleet_config(Some(root.join(name))),
        standby_interval: Duration::from_millis(50),
        peer_wal_dirs,
    })
    .expect("node starts")
}

fn minute_batch(minute: u64) -> Vec<(u64, f64)> {
    (0..STREAMS)
        .map(|id| {
            let mut signal = fleet_signal(SEED, id);
            (id, signal.sample(minute))
        })
        .collect()
}

#[test]
fn drained_edges_do_not_replay_the_losers_wal_on_the_heir() {
    let root = std::env::temp_dir().join(format!("cluster-repro3-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut node_a = start_node("a", &root, &["b", "c"]);
    let mut node_b = start_node("b", &root, &["a", "c"]);
    let mut node_c = start_node("c", &root, &["a", "b"]);
    let ring1 = Ring::new(
        1,
        64,
        vec![
            NodeInfo { name: "a".into(), addr: node_a.addr().to_string() },
            NodeInfo { name: "b".into(), addr: node_b.addr().to_string() },
            NodeInfo { name: "c".into(), addr: node_c.addr().to_string() },
        ],
    )
    .expect("ring v1");
    for node in [&node_a, &node_b, &node_c] {
        node.install_ring(&ring1).expect("install v1");
    }

    let control = FleetEngine::new(fleet_config(None)).expect("control");
    let seeds: Vec<String> =
        vec![node_a.addr().to_string(), node_b.addr().to_string(), node_c.addr().to_string()];
    let mut client = ClusterClient::connect(
        &seeds,
        ClusterClientConfig {
            route_attempts: 20,
            retry_pause: Duration::from_millis(100),
            ..ClusterClientConfig::default()
        },
    )
    .expect("client");
    for id in 0..STREAMS {
        client.register(id).expect("register");
        control.register(id).expect("control register");
    }
    for minute in 0..240 {
        let batch = minute_batch(minute);
        let stats = client.push(&batch).expect("warm push");
        assert_eq!(stats.accepted, STREAMS, "minute {minute}");
        control.push_batch(&batch);
    }

    let a_owned: Vec<u64> = (0..STREAMS).filter(|&id| ring1.owner_of(id).name == "a").collect();
    let coord_cfg =
        ClientConfig { request_timeout: Duration::from_secs(10), ..ClientConfig::default() };
    let mut coord_a = Client::connect(node_a.addr(), coord_cfg.clone()).expect("coord a");
    let mut coord_c = Client::connect(node_c.addr(), coord_cfg).expect("coord c");
    let c_addr = node_c.addr().to_string();
    for &id in &a_owned {
        let (next_minute, floor, snapshot) = coord_a.migrate_out(id, &c_addr).expect("out");
        coord_c.migrate_in(id, next_minute, floor, snapshot).expect("in");
        coord_a.evict(id).expect("evict");
    }
    let mut ring2 = ring1.clone();
    ring2.reassign("a", "c").expect("drain a");
    for node in [&node_a, &node_b, &node_c] {
        node.install_ring(&ring2).expect("install v2");
    }
    assert!(client.refresh_ring());
    for &id in &a_owned {
        assert!(node_c.engine().contains(id), "post-drain: c holds {id}");
    }

    for minute in 240..300 {
        let batch = minute_batch(minute);
        let stats = client.push(&batch).expect("mid push");
        assert_eq!(stats.accepted, STREAMS, "minute {minute}");
        control.push_batch(&batch);
    }

    // Wait for b's standby feed to cover its fleet on c.
    let b_owned: Vec<u64> = (0..STREAMS).filter(|&id| ring2.owner_of(id).name == "b").collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let covered = node_c
            .standby_summary()
            .iter()
            .find(|(source, _, _)| source == "b")
            .map(|(_, snapshots, _)| *snapshots)
            .unwrap_or(0);
        if covered >= b_owned.len() {
            break;
        }
        assert!(Instant::now() < deadline, "standby feed never covered b");
        std::thread::sleep(Duration::from_millis(20));
    }
    node_b.shutdown();
    let mut ring3 = ring2.clone();
    let heir = ring3.fail_over("b").expect("fail over b");
    assert_eq!(heir, "c");
    node_c.install_ring(&ring3).expect("install v3 on c");
    node_a.install_ring(&ring3).expect("install v3 on a");

    for &id in &a_owned {
        assert!(node_c.engine().contains(id), "post-takeover: c lost migrated stream {id}");
    }
    for &id in &b_owned {
        assert!(node_c.engine().contains(id), "post-takeover: c missing failed-over {id}");
    }

    for minute in 300..340 {
        let batch = minute_batch(minute);
        let stats = client.push(&batch).expect("post push");
        assert_eq!(stats.accepted + stats.deduped, STREAMS, "minute {minute}");
        control.push_batch(&batch);
    }
    node_c.engine().flush();
    control.flush();
    for id in 0..STREAMS {
        let info = node_c.engine().stream_info(id).expect("on heir");
        let expect = control.stream_info(id).expect("control");
        assert_eq!(
            (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits)),
            (expect.next_minute, expect.retrains, expect.last_forecast.map(f64::to_bits)),
            "stream {id} diverged"
        );
    }

    node_a.shutdown();
    node_c.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
