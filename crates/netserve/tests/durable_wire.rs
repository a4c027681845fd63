//! The durable serving path over the wire: a server fronting a
//! durability-enabled engine logs every acked push, drains to disk on
//! graceful shutdown, and a recovered engine reproduces the serving state
//! bit-identically.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};
use netserve::{Client, ClientConfig, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netserve-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path, shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        fleet_seed: 7,
        durability: Some(DurabilityConfig::new(dir.to_path_buf())),
        ..FleetConfig::default()
    }
}

fn quick_client(server: &Server) -> Client {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(5),
        ..ClientConfig::default()
    };
    Client::connect(server.addr(), config).expect("client connects")
}

#[test]
fn graceful_shutdown_drains_to_durable_state_and_recovers() {
    let dir = temp_dir("drain");
    let engine =
        Arc::new(FleetEngine::new(durable_config(&dir, 2)).expect("durable engine starts"));
    let mut server = Server::start(
        Arc::clone(&engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server starts");

    let mut client = quick_client(&server);
    for id in 0..6u64 {
        client.register(id).expect("register");
    }
    for round in 0..120u64 {
        let batch: Vec<(u64, f64)> =
            (0..6).map(|id| (id, 40.0 + ((round * 6 + id) as f64 * 0.1).sin() * 5.0)).collect();
        let outcome = client.push_batch(&batch).expect("push_batch ack");
        assert_eq!(outcome.accepted, 6);
    }
    let before: Vec<_> = (0..6u64)
        .map(|id| {
            // The drain has not happened yet, so read through the engine
            // (the server still owns the socket-facing side).
            engine.flush();
            engine.stream_info(id).expect("live stream")
        })
        .collect();

    // The wire Shutdown opcode starts the drain; Server::shutdown joins it
    // and calls the engine's flush_durable (queues → slots → store → fsync).
    client.shutdown_server().expect("wire shutdown acked");
    server.shutdown();
    drop(server);
    drop(engine);

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default())
            .expect("recovery succeeds");
    assert!(summary.clean(), "graceful shutdown must leave a clean log: {summary:?}");
    assert_eq!(recovered.stream_count(), 6);
    assert_eq!(summary.replayed_samples, 120 * 6);
    for info in before {
        let after = recovered.stream_info(info.id).expect("recovered stream");
        assert_eq!(after.next_minute, info.next_minute);
        assert_eq!(
            after.last_forecast.map(f64::to_bits),
            info.last_forecast.map(f64::to_bits),
            "stream {} forecast must survive the restart bit-identically",
            info.id
        );
        assert_eq!(after.retrains, info.retrains);
        assert_eq!(after.health, info.health);
    }

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_server_keeps_logging_after_restart() {
    let dir = temp_dir("restart");
    {
        let engine =
            Arc::new(FleetEngine::new(durable_config(&dir, 2)).expect("durable engine starts"));
        let mut server = Server::start(
            Arc::clone(&engine),
            ServerConfig { http_addr: None, ..ServerConfig::default() },
        )
        .expect("server starts");
        let mut client = quick_client(&server);
        client.register(9).expect("register");
        for i in 0..50 {
            client.push(9, 10.0 + i as f64).expect("push ack");
        }
        client.shutdown_server().expect("wire shutdown acked");
        server.shutdown();
    }

    // Restart: recover, serve over a fresh socket, push more, recover again.
    let (engine, summary) = FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default())
        .expect("first recovery");
    assert!(summary.clean());
    assert_eq!(summary.replayed_records, 51, "1 register + 50 pushes: {summary:?}");
    let mut server = Server::start(
        Arc::new(engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("recovered server starts");
    let mut client = quick_client(&server);
    for i in 50..80 {
        client.push(9, 10.0 + i as f64).expect("push ack after restart");
    }
    // The clock advances at worker feed time, so give the queue a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let info = client.stream_info(9).expect("stream_info");
        if info.next_minute == 80 {
            break; // the recovered clock continued from 50, not from 0
        }
        assert!(info.next_minute < 80, "clock overshot: {}", info.next_minute);
        assert!(std::time::Instant::now() < deadline, "queued pushes never served");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.shutdown_server().expect("wire shutdown acked");
    server.shutdown();
    drop(server);

    let (recovered, summary) =
        FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default())
            .expect("second recovery");
    assert!(summary.clean());
    let again = recovered.stream_info(9).expect("stream survives two restarts");
    assert_eq!(again.next_minute, 80);

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retried_push_seq_is_deduped_after_a_restart() {
    let dir = temp_dir("seq-restart");
    let seqs = |from: u64, to: u64| -> Vec<(u64, u64, f64)> {
        (from..=to).map(|seq| (9, seq, 10.0 + (seq as f64 * 0.3).sin())).collect()
    };
    {
        let engine =
            Arc::new(FleetEngine::new(durable_config(&dir, 2)).expect("durable engine starts"));
        let mut server = Server::start(
            Arc::clone(&engine),
            ServerConfig { http_addr: None, ..ServerConfig::default() },
        )
        .expect("server starts");
        let mut client = quick_client(&server);
        client.register(9).expect("register");
        assert_eq!(client.push_seq(&seqs(1, 40)).expect("seqs 1-40").outcome.accepted, 40);
        assert_eq!(client.push_seq(&seqs(41, 50)).expect("seqs 41-50").outcome.accepted, 10);
        // In the same process the retry is already screened out.
        let retry = client.push_seq(&seqs(41, 50)).expect("retry before restart");
        assert_eq!((retry.outcome.accepted, retry.deduped), (0, 10));
        client.shutdown_server().expect("wire shutdown acked");
        server.shutdown();
    }

    // A client whose ack was lost to the restart retries into a server that
    // starts over the recovered engine: the samples are already applied.
    let (engine, summary) = FleetEngine::recover(durable_config(&dir, 2), StreamConfig::default())
        .expect("recovery succeeds");
    assert!(summary.clean(), "{summary:?}");
    let mut server = Server::start(
        Arc::new(engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("recovered server starts");
    let mut client = quick_client(&server);
    let retry = client.push_seq(&seqs(41, 50)).expect("retry after restart");
    assert_eq!((retry.outcome.accepted, retry.deduped), (0, 10));
    assert_eq!(retry.last_seqs, vec![(9, 50)]);
    assert_eq!(client.stream_info(9).expect("stream_info").next_minute, 50);

    // Fresh seqs still land after the floor.
    let fresh = client.push_seq(&seqs(51, 55)).expect("fresh seqs");
    assert_eq!((fresh.outcome.accepted, fresh.deduped), (5, 0));
    client.shutdown_server().expect("wire shutdown acked");
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
