//! At-least-once retries made exactly-once: the sequenced push path
//! (`PushSeq`) dedups retried samples server-side, and wire migration
//! (`MigrateOut`/`MigrateIn`) fences the losing node and arms the gaining
//! node's dedup floor so handoffs neither lose nor double-apply samples.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{FleetConfig, FleetEngine, StreamConfig};
use larp::ResilienceConfig;
use netserve::msg::{OpCode, Request};
use netserve::{wire, Client, ClientConfig, ErrorCode, NetError, Server, ServerConfig};
use vmsim::fleet_signal;

const SEED: u64 = 2031;
const STREAMS: u64 = 6;
/// Streams running f32 history rings — migration must carry the mode.
const F32_STREAMS: [u64; 2] = [2, 5];

fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: 2,
        fleet_seed: SEED,
        // The engine's ingestion is lossless, so every sequenced batch is
        // fully applied and its dedup cursor committed.
        ..FleetConfig::default()
    }
}

fn start_server() -> (Arc<FleetEngine>, Server) {
    let engine = Arc::new(FleetEngine::new(fleet_config()).expect("fleet config"));
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server starts");
    (engine, server)
}

fn client_for(server: &Server) -> Client {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    Client::connect(server.addr(), config).expect("client connects")
}

fn register_all(engine: &FleetEngine) {
    for id in 0..STREAMS {
        if F32_STREAMS.contains(&id) {
            let cfg = StreamConfig {
                resilience: ResilienceConfig { f32_history: true, ..ResilienceConfig::default() },
                ..StreamConfig::default()
            };
            engine.register_with(id, &cfg).expect("register f32 stream");
        } else {
            engine.register(id).expect("register");
        }
    }
}

/// Sequenced samples for minutes `[from, to)` of every stream: the k-th
/// sample of a stream carries seq k+1, the invariant the dedup floor
/// (`floor = next_minute`) relies on.
fn seq_window(from: u64, to: u64) -> Vec<(u64, u64, f64)> {
    let mut batch = Vec::new();
    for minute in from..to {
        for id in 0..STREAMS {
            let mut signal = fleet_signal(SEED, id);
            batch.push((id, minute + 1, signal.sample(minute)));
        }
    }
    batch
}

/// Strips the seqs off for a control engine's plain batch push.
fn unsequenced(batch: &[(u64, u64, f64)]) -> Vec<(u64, f64)> {
    batch.iter().map(|&(id, _, value)| (id, value)).collect()
}

/// What must stay bit-identical across retries and migrations.
fn fingerprint(engine: &FleetEngine, id: u64) -> (u64, usize, Option<u64>) {
    let info = engine.stream_info(id).expect("stream info");
    (info.next_minute, info.retrains, info.last_forecast.map(f64::to_bits))
}

#[test]
fn resent_batch_after_lost_response_is_deduped() {
    let (engine, mut server) = start_server();
    let control = FleetEngine::new(fleet_config()).expect("control");
    register_all(&engine);
    register_all(&control);

    let mut client = client_for(&server);
    let warm = seq_window(0, 40);
    let outcome = client.push_seq(&warm).expect("warmup");
    assert_eq!(outcome.outcome.accepted, warm.len() as u64);
    assert_eq!(outcome.deduped, 0);
    control.push_batch(&unsequenced(&warm));

    // The lost-ack scenario: a raw connection sends one sequenced batch
    // and dies before reading the response. The server applies it; the
    // client never learns.
    let killed = seq_window(40, 44);
    let frame = wire::encode(&wire::Frame {
        opcode: OpCode::PushSeq as u8,
        request_id: 99,
        payload: Request::PushSeq { client: "netserve-client".into(), samples: killed.clone() }
            .encode_payload(),
    });
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("raw connect");
    raw.write_all(&frame).expect("send frame");
    raw.flush().expect("flush");
    // Wait until the engine absorbed the batch, then kill the connection
    // with the response unread.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        engine.flush();
        if (0..STREAMS).all(|id| fingerprint(&engine, id).0 >= 44) {
            break;
        }
        assert!(Instant::now() < deadline, "server never applied the killed batch");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(raw);
    control.push_batch(&unsequenced(&killed));

    // The retry (same client name, same seqs) must be dropped wholesale —
    // and the echo tells the client where its send cursor really is.
    let retry = client.push_seq(&killed).expect("retry");
    assert_eq!(retry.outcome.accepted, 0, "duplicates reached the engine");
    assert_eq!(retry.deduped, killed.len() as u64);
    let mut echo = retry.last_seqs.clone();
    echo.sort_unstable();
    assert_eq!(echo, (0..STREAMS).map(|id| (id, 44)).collect::<Vec<_>>());

    // A half-overlapping resend admits only the fresh tail.
    let tail = seq_window(42, 48);
    let outcome = client.push_seq(&tail).expect("tail");
    assert_eq!(outcome.deduped, 2 * STREAMS);
    assert_eq!(outcome.outcome.accepted, 4 * STREAMS);
    control.push_batch(&unsequenced(&seq_window(44, 48)));

    engine.flush();
    control.flush();
    for id in 0..STREAMS {
        assert_eq!(
            fingerprint(&engine, id),
            fingerprint(&control, id),
            "stream {id} diverged from the exactly-once reference"
        );
    }
    server.shutdown();
}

#[test]
fn wire_migration_fences_the_loser_and_dedups_on_the_gainer() {
    let (engine_a, mut server_a) = start_server();
    let (engine_b, mut server_b) = start_server();
    let control = FleetEngine::new(fleet_config()).expect("control");
    register_all(&engine_a);
    register_all(&control);

    let mut client_a = client_for(&server_a);
    let mut client_b = client_for(&server_b);
    let warm = seq_window(0, 80);
    client_a.push_seq(&warm).expect("warmup");
    control.push_batch(&unsequenced(&warm));

    // Migrate every stream A → B through the coordinator path.
    let b_addr = server_b.addr().to_string();
    for id in 0..STREAMS {
        let (next_minute, floor, snapshot) =
            client_a.migrate_out(id, &b_addr).expect("migrate out");
        assert_eq!(next_minute, 80);
        assert_eq!(floor, 80, "floor is the count of applied samples");
        client_b.migrate_in(id, next_minute, floor, snapshot).expect("migrate in");
        client_a.evict(id).expect("evict on the loser");
    }

    // The loser's fence redirects pushes at the gaining node's address.
    match client_a.push_seq(&[(0, 81, 1.0)]) {
        Err(NetError::Server { code: ErrorCode::NotOwner, detail }) => {
            assert_eq!(detail, b_addr, "redirect carries the owner address");
        }
        other => panic!("expected NotOwner redirect, got {other:?}"),
    }

    // A client that never heard the migration's acks resends acked
    // samples to the gainer: the armed floor drops them, fresh minutes
    // land — exactly once, even from a client B has never seen.
    let resend = seq_window(70, 90);
    let outcome = client_b.push_seq(&resend).expect("resend to gainer");
    assert_eq!(outcome.deduped, 10 * STREAMS, "seqs at or under the floor drop");
    assert_eq!(outcome.outcome.accepted, 10 * STREAMS);
    control.push_batch(&unsequenced(&seq_window(80, 90)));

    // Post-migration traffic on the gainer stays bit-identical to the
    // never-migrated reference, f32 streams included.
    let cont = seq_window(90, 140);
    client_b.push_seq(&cont).expect("continuation");
    control.push_batch(&unsequenced(&cont));
    engine_b.flush();
    control.flush();
    for id in 0..STREAMS {
        assert_eq!(
            fingerprint(&engine_b, id),
            fingerprint(&control, id),
            "stream {id} diverged across migration"
        );
    }

    server_a.shutdown();
    server_b.shutdown();
}
