//! Disaster recovery over the wire: a checkpoint downloaded through the
//! `Checkpoint` opcode, restored via `FleetEngine::restore` onto a fresh
//! server with a *different* shard count, must reproduce bit-identical
//! predictions for identical subsequent input.

use std::sync::Arc;
use std::time::Duration;

use fleet::{FleetConfig, FleetEngine, StreamConfig};
use larp::ResilienceConfig;
use netserve::{Client, ClientConfig, Server, ServerConfig};
use vmsim::fleet_signal;

const SEED: u64 = 2026;
const STREAMS: u64 = 12;
/// Streams running f32 history rings (LARPSNAP v2 f32 mode): the wire
/// checkpoint must carry the mode, not silently widen back to f64.
const F32_STREAMS: [u64; 2] = [3, 7];
const WARMUP: u64 = 300;
const CONTINUATION: u64 = 120;

fn client_for(server: &Server) -> Client {
    let config = ClientConfig {
        connect_timeout: Duration::from_secs(2),
        request_timeout: Duration::from_secs(10),
        ..ClientConfig::default()
    };
    Client::connect(server.addr(), config).expect("client connects")
}

/// Pushes `[from, to)` minutes of every stream's deterministic signal.
fn push_window(client: &mut Client, from: u64, to: u64) {
    for id in 0..STREAMS {
        let mut signal = fleet_signal(SEED, id);
        let batch: Vec<(u64, f64)> = (from..to).map(|m| (id, signal.sample(m))).collect();
        let outcome = client.push_batch(&batch).expect("push batch");
        assert_eq!(outcome.accepted, to - from);
    }
}

#[test]
fn wire_checkpoint_restores_bit_identical_predictions() {
    // Server A: 2 shards, trained on the warmup window.
    let engine_a = Arc::new(
        FleetEngine::new(FleetConfig {
            shards: 2,
            fleet_seed: SEED,
            // Lossless ingestion: the test accounts for every sample.
            ..FleetConfig::default()
        })
        .expect("valid fleet config"),
    );
    let mut server_a = Server::start(
        Arc::clone(&engine_a),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server A starts");
    let mut client_a = client_for(&server_a);
    for id in 0..STREAMS {
        if F32_STREAMS.contains(&id) {
            // Resilience knobs are server-side configuration, not wire
            // tuning: f32 streams register through the engine handle.
            let cfg = StreamConfig {
                resilience: ResilienceConfig { f32_history: true, ..ResilienceConfig::default() },
                ..StreamConfig::default()
            };
            engine_a.register_with(id, &cfg).expect("register f32 stream");
        } else {
            client_a.register(id).expect("register");
        }
    }
    push_window(&mut client_a, 0, WARMUP);

    // The snapshot travels over the wire (the engine flushes before
    // snapshotting, so it covers every accepted sample).
    let snapshot = client_a.checkpoint().expect("checkpoint download");
    assert!(snapshot.starts_with(b"FLEETCKP"));

    // Server B: restored from the wire bytes onto a *different* shard
    // count, behind a fresh listener.
    let engine_b = Arc::new(
        FleetEngine::restore(
            FleetConfig { shards: 5, fleet_seed: SEED, ..FleetConfig::default() },
            &snapshot,
        )
        .expect("restore from wire bytes"),
    );
    let mut server_b = Server::start(
        Arc::clone(&engine_b),
        ServerConfig { http_addr: None, ..ServerConfig::default() },
    )
    .expect("server B starts");
    let mut client_b = client_for(&server_b);
    assert_eq!(
        client_b.server_info().expect("handshake").streams,
        STREAMS,
        "restored server knows every stream"
    );

    // Identical continuation traffic into both servers...
    push_window(&mut client_a, WARMUP, WARMUP + CONTINUATION);
    push_window(&mut client_b, WARMUP, WARMUP + CONTINUATION);
    engine_a.flush();
    engine_b.flush();

    // ...must produce bit-identical forecasts, stream by stream.
    for id in 0..STREAMS {
        let a = client_a.predict(id).expect("predict on A");
        let b = client_b.predict(id).expect("predict on B");
        // Serving counters restart on a fresh engine; predictor state must
        // not. B's steps are exactly the continuation window.
        assert_eq!(b.steps, CONTINUATION, "stream {id}: restored server missed samples");
        assert_eq!(a.health, b.health, "stream {id}: health diverged");
        match (a.forecast, b.forecast) {
            (Some(fa), Some(fb)) => assert_eq!(
                fa.to_bits(),
                fb.to_bits(),
                "stream {id}: forecasts diverged ({fa} vs {fb})"
            ),
            (None, None) => panic!("stream {id}: no forecast after {WARMUP} warmup samples"),
            (a, b) => panic!("stream {id}: forecast presence diverged ({a:?} vs {b:?})"),
        }
        let ia = client_a.stream_info(id).expect("info on A");
        let ib = client_b.stream_info(id).expect("info on B");
        assert_eq!(ia.next_minute, ib.next_minute, "stream {id}: clocks diverged");
    }

    server_a.shutdown();
    server_b.shutdown();
}
