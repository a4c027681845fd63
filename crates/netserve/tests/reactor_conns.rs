//! Reactor-specific connection lifecycle guarantees: idle and slow-reader
//! reaping, partial-frame delivery at every byte boundary through the
//! streaming decode path, and drain-to-durable on shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{DurabilityConfig, FleetConfig, FleetEngine, StreamConfig};
use netserve::wire::{self, Frame};
use netserve::{Client, ClientConfig, Request, Response, Server, ServerConfig, StreamTuning};

fn start_server(shards: usize, config: ServerConfig) -> Server {
    let engine = Arc::new(
        FleetEngine::new(FleetConfig { shards, fleet_seed: 7, ..FleetConfig::default() })
            .expect("valid fleet config"),
    );
    Server::start(engine, config).expect("server starts")
}

fn quick_client(server: &Server) -> Client {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(5),
        reconnect_base: Duration::from_millis(5),
        max_attempts: 2,
        ..ClientConfig::default()
    };
    Client::connect(server.addr(), config).expect("client connects")
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn encode_request(req: &Request, request_id: u64) -> Vec<u8> {
    wire::encode(&Frame { opcode: req.opcode() as u8, request_id, payload: req.encode_payload() })
}

/// The server hung up on `stream`: a read sees EOF (graceful FIN) or a
/// reset, never payload bytes.
fn assert_hung_up(stream: &mut TcpStream, who: &str) {
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{who}: unexpected {n} bytes instead of a hangup"),
        Err(e) => assert!(
            matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe),
            "{who}: unexpected error kind: {e}"
        ),
    }
}

#[test]
fn idle_connections_are_reaped_and_active_ones_survive() {
    let server = start_server(
        1,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(250)),
            http_addr: None,
            ..ServerConfig::default()
        },
    );
    let mut idle = TcpStream::connect(server.addr()).expect("raw connect");
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut active = quick_client(&server);
    wait_for("both connections open", || server.open_connections() == 2);

    // Keep one connection chatty across several idle windows; the silent
    // one must be reaped while the chatty one is left alone.
    for _ in 0..10 {
        active.health().expect("active connection keeps working");
        std::thread::sleep(Duration::from_millis(60));
    }
    assert_hung_up(&mut idle, "idle connection");
    wait_for("reap releases the slot", || server.open_connections() == 1);
    let reaped = server.engine().registry().counter("net_idle_reaped_total");
    assert!(reaped.get() >= 1, "the reap is counted");
    active.health().expect("active connection survives the reap");
}

#[test]
fn one_byte_per_second_peer_is_reaped_without_stalling_others() {
    let server = start_server(
        1,
        ServerConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            http_addr: None,
            ..ServerConfig::default()
        },
    );

    // A peer trickling a valid frame at ~1 byte/s: the gap between bytes
    // dwarfs the idle window, so its half-received frame must not pin a
    // read buffer or a connection slot forever.
    let frame = encode_request(&Request::Push { id: 1, minute: None, value: 0.5 }, 77);
    let mut slow = TcpStream::connect(server.addr()).expect("raw connect");
    slow.set_nodelay(true).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    slow.write_all(&frame[..frame.len() / 2]).expect("half a frame");

    // Meanwhile a well-behaved client is served at full speed.
    let mut busy = quick_client(&server);
    busy.register(1).expect("register");
    let t0 = Instant::now();
    let mut served = 0u32;
    while t0.elapsed() < Duration::from_millis(900) {
        busy.push(1, 1.0).expect("requests served while the slow peer stalls");
        served += 1;
    }
    assert!(served > 10, "the stalled peer throttled everyone: {served} round trips in 900ms");

    assert_hung_up(&mut slow, "slow peer");
    wait_for("slow peer's slot released", || server.open_connections() == 1);
    busy.health().expect("busy connection unaffected by the reap");
}

#[test]
fn every_opcode_survives_arbitrary_frame_splits() {
    let server = start_server(1, ServerConfig { http_addr: None, ..ServerConfig::default() });
    let mut stream = TcpStream::connect(server.addr()).expect("raw connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Every opcode except Shutdown (covered separately — it kills the
    // server). Re-sent frames may earn typed errors (DuplicateStream,
    // UnknownStream); what matters is that a frame delivered in two
    // arbitrary pieces always yields exactly one correlated, decodable
    // response.
    let tuning = StreamTuning { train_size: 30, qa_window: 6, qa_period: 3, qa_threshold: 1.5 };
    let requests = [
        Request::Hello { client: "split".into() },
        Request::Register { id: 1 },
        Request::RegisterWith { id: 2, tuning },
        Request::Push { id: 1, minute: None, value: 0.5 },
        Request::Push { id: 1, minute: Some(500), value: 0.25 },
        Request::PushBatch { samples: vec![(1, 0.1), (2, 0.2)] },
        Request::Predict { id: 1 },
        Request::StreamInfo { id: 1 },
        Request::Health,
        Request::Checkpoint,
        Request::Evict { id: 2 },
    ];
    let mut request_id = 100u64;
    for req in &requests {
        let len = encode_request(req, 0).len();
        for cut in 1..len {
            request_id += 1;
            let bytes = encode_request(req, request_id);
            stream.write_all(&bytes[..cut]).expect("first fragment");
            stream.flush().unwrap();
            // Give the fragment its own TCP segment so the server really
            // decodes from a partial buffer.
            std::thread::sleep(Duration::from_millis(1));
            stream.write_all(&bytes[cut..]).expect("second fragment");
            let reply = wire::read_frame(&mut stream, 1 << 20).expect("one reply per frame");
            assert_eq!(reply.request_id, request_id, "correlation survives the split");
            Response::decode(reply.opcode, &reply.payload).expect("decodable response");
        }
    }
}

#[test]
fn shutdown_frames_split_at_any_boundary_still_drain() {
    let bytes = encode_request(&Request::Shutdown, 9);
    for cut in 1..bytes.len() {
        let mut server =
            start_server(1, ServerConfig { http_addr: None, ..ServerConfig::default() });
        let mut stream = TcpStream::connect(server.addr()).expect("raw connect");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        stream.write_all(&bytes[..cut]).expect("first fragment");
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        stream.write_all(&bytes[cut..]).expect("second fragment");

        let reply = wire::read_frame(&mut stream, 1 << 20).expect("ack before drain");
        assert_eq!(reply.request_id, 9);
        let resp = Response::decode(reply.opcode, &reply.payload).expect("decodable");
        assert!(matches!(resp, Response::Shutdown), "split at {cut}: got {resp:?}");

        server.shutdown();
        assert_eq!(server.open_connections(), 0, "split at {cut}: drain left a connection");
    }
}

#[test]
fn reactor_drain_flushes_queued_batches_to_durable_state() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("netserve-reactor-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = |dir: &Path| FleetConfig {
        shards: 2,
        fleet_seed: 7,
        durability: Some(DurabilityConfig::new(dir.to_path_buf())),
        ..FleetConfig::default()
    };

    let engine = Arc::new(FleetEngine::new(durable(&dir)).expect("durable engine starts"));
    let mut server = Server::start(
        Arc::clone(&engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server starts");
    let mut client = quick_client(&server);
    for id in 0..4u64 {
        client.register(id).expect("register");
    }
    // Queue a lot of work and shut down immediately: the reactor drain
    // must flush every queued response, and Server::shutdown must push
    // every accepted sample through flush_durable before the store closes.
    let batch: Vec<(u64, f64)> = (0..2000).map(|i| (i % 4, (i as f64 * 0.004).sin())).collect();
    let outcome = client.push_batch(&batch).expect("push_batch acked");
    assert_eq!(outcome.accepted, 2000);
    client.shutdown_server().expect("wire shutdown acked");
    server.shutdown();
    drop(server);
    drop(engine);

    let (recovered, summary) =
        FleetEngine::recover(durable(&dir), StreamConfig::default()).expect("recovery succeeds");
    assert!(summary.clean(), "drain must leave a clean log: {summary:?}");
    assert_eq!(summary.replayed_samples, 2000, "no accepted sample lost in the drain");
    for id in 0..4u64 {
        let info = recovered.stream_info(id).expect("stream recovered");
        assert_eq!(info.next_minute, 500, "stream {id} replayed every sample");
    }

    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
