//! End-to-end round trips for every opcode, plus the connection-lifecycle
//! guarantees: pipelining, the connection gauge, the connection cap, and
//! graceful shutdown via the wire `Shutdown` opcode.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{FleetConfig, FleetEngine};
use netserve::wire::{self, Frame};
use netserve::{
    Client, ClientConfig, ErrorCode, NetError, OpCode, Response, Server, ServerConfig, StreamTuning,
};

fn start_server(shards: usize, config: ServerConfig) -> Server {
    let engine = Arc::new(
        FleetEngine::new(FleetConfig {
            shards,
            fleet_seed: 7,
            // Lossless ingestion: these tests account for every sample.
            ..FleetConfig::default()
        })
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

/// Spin-waits for `cond` — connection teardown is asynchronous with the
/// client-side socket close.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_opcode_round_trips() {
    let mut server = start_server(2, ServerConfig::default());
    let mut client = quick_client(&server);

    // Hello already happened inside connect.
    let info = client.server_info().expect("handshake recorded");
    assert_eq!(info.version, netserve::PROTOCOL_VERSION);
    assert_eq!(info.shards, 2);
    assert_eq!(info.streams, 0);

    client.register(1).expect("register");
    client
        .register_with(
            2,
            StreamTuning { train_size: 30, qa_window: 6, qa_period: 3, qa_threshold: 1.5 },
        )
        .expect("register_with");

    let one = client.push(1, 0.25).expect("push");
    assert_eq!(one.accepted, 1);
    let at = client.push_at(2, 10, 0.5).expect("push_at");
    assert_eq!(at.accepted, 1);

    let batch: Vec<(u64, f64)> =
        (0..200).map(|i| (1 + (i % 2), (i as f64 * 0.01).sin().abs())).collect();
    let outcome = client.push_batch(&batch).expect("push_batch");
    assert_eq!(outcome.accepted, 200);
    assert_eq!(outcome.rejected + outcome.dropped, 0);

    server.engine().flush();
    let p = client.predict(1).expect("predict");
    assert!(p.steps > 0, "predict sees served steps after flush");
    let si = client.stream_info(2).expect("stream_info");
    assert!(si.shard < 2);
    assert!(si.next_minute > 10, "push_at advanced the stream clock");

    let health = client.health().expect("health");
    assert_eq!(health.streams, 2);
    assert_eq!(health.shards, 2);
    assert_eq!(health.pushes.accepted, 202);
    assert_eq!(health.nonfinite_forecasts, 0);

    let ckpt = client.checkpoint().expect("checkpoint");
    assert!(ckpt.starts_with(b"FLEETCKP"), "checkpoint bytes carry the magic");

    client.evict(2).expect("evict");
    let gone = client.predict(2).expect_err("evicted stream is unknown");
    assert_eq!(gone.server_code(), Some(ErrorCode::UnknownStream));

    // Typed addressing errors.
    let dup = client.register(1).expect_err("duplicate register");
    assert_eq!(dup.server_code(), Some(ErrorCode::DuplicateStream));
    // Pushes are validated at feed time, not enqueue time (the engine's
    // sharded-queue design): an unknown-stream push is accepted on the wire
    // and surfaces in the health rollup as a dropped-unknown instead.
    let unknown = client.push(999, 1.0).expect("unknown push is enqueued");
    assert_eq!(unknown.accepted, 1);
    server.engine().flush();
    assert_eq!(client.health().expect("health").unknown_dropped, 1);

    client.shutdown_server().expect("shutdown acked");
    server.shutdown();
    assert!(server.is_shutting_down());
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start_server(1, ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("raw connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Three requests written back-to-back before reading anything.
    for (id, op) in [(10u64, OpCode::Hello), (11, OpCode::Health), (12, OpCode::Health)] {
        let payload = match op {
            OpCode::Hello => {
                let mut p = vec![4, 0]; // u16 string length prefix
                p.extend_from_slice(b"pipe");
                p
            }
            _ => Vec::new(),
        };
        let frame = Frame { opcode: op as u8, request_id: id, payload };
        stream.write_all(&wire::encode(&frame)).expect("write");
    }
    for expect_id in [10u64, 11, 12] {
        let reply = wire::read_frame(&mut stream, 1 << 20).expect("read reply");
        assert_eq!(reply.request_id, expect_id, "responses come back in request order");
        let resp = Response::decode(reply.opcode, &reply.payload).expect("decodable");
        assert!(!matches!(resp, Response::Error { .. }), "pipelined request failed: {resp:?}");
    }
}

#[test]
fn killed_client_decrements_connection_gauge() {
    let server = start_server(1, ServerConfig::default());
    let gauge = server.engine().registry().gauge("net_connections");

    let mut a = quick_client(&server);
    let _b = quick_client(&server);
    wait_for("two open connections", || server.open_connections() == 2);
    assert_eq!(gauge.get(), 2.0);

    a.register(5).expect("register");
    a.push(5, 1.0).expect("push");
    drop(a); // hard client kill mid-session: socket closes without goodbye
    wait_for("server reaps the dead connection", || server.open_connections() == 1);
    assert_eq!(gauge.get(), 1.0, "gauge follows the reaped connection");

    // The surviving connection — and new ones — still work.
    let mut c = quick_client(&server);
    c.health().expect("server still serves after a client kill");
}

#[test]
fn connection_cap_refuses_with_typed_error() {
    let server = start_server(1, ServerConfig { max_connections: 2, ..ServerConfig::default() });
    let _a = quick_client(&server);
    let _b = quick_client(&server);
    wait_for("cap reached", || server.open_connections() == 2);

    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(2),
        max_attempts: 1,
        ..ClientConfig::default()
    };
    match Client::connect(server.addr(), config) {
        Err(e) => assert_eq!(
            e.server_code(),
            Some(ErrorCode::TooManyConnections),
            "refusal carries the typed code, got {e}"
        ),
        Ok(_) => panic!("third connection must be refused"),
    }
    let rejected = server.engine().registry().counter("net_conn_rejected_total");
    assert!(rejected.get() >= 1);

    // Freeing a slot lets the next client in.
    drop(_a);
    wait_for("slot freed", || server.open_connections() == 1);
    let mut c = quick_client(&server);
    c.health().expect("slot reuse works");
}

#[test]
fn wire_shutdown_drains_queued_batches() {
    let mut server = start_server(3, ServerConfig::default());
    let mut client = quick_client(&server);
    for id in 0..9 {
        client.register(id).expect("register");
    }
    // Queue a lot of work, then shut down immediately — nothing may be lost.
    let batch: Vec<(u64, f64)> = (0..3000).map(|i| (i % 9, (i as f64 * 0.003).cos())).collect();
    let outcome = client.push_batch(&batch).expect("push_batch");
    assert_eq!(outcome.accepted, 3000);
    client.shutdown_server().expect("wire shutdown acked");

    // Further requests on a fresh connection are refused or fail to connect.
    let config = ClientConfig { max_attempts: 1, ..ClientConfig::default() };
    // connection refused / reset are equally acceptable
    if let Err(NetError::Server { code, .. }) = Client::connect(server.addr(), config) {
        assert_eq!(code, ErrorCode::ShuttingDown);
    }

    server.shutdown(); // joins threads and flushes the engine
    let health = server.engine().health();
    assert_eq!(health.queue_depth(), 0, "shutdown flushed the shard queues");
    assert_eq!(health.steps, 3000, "every queued sample was processed before exit");
    assert_eq!(server.open_connections(), 0, "all connections joined");
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    let mut server = start_server(1, ServerConfig { http_addr: None, ..ServerConfig::default() });
    server.shutdown();
    server.shutdown();
    drop(server); // Drop runs shutdown() a third time
}
