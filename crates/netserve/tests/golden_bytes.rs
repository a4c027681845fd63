//! Golden-byte fixtures for the wire protocol: one framed request per
//! opcode and one framed response per reply kind, `Error` included.
//!
//! Each test asserts the encoders still write the committed bytes and that
//! decoding the fixture frame by frame yields the same messages.
//! Regenerate (only on an implementation whose bytes are known good) with:
//! `cargo test -p netserve --test golden_bytes -- --ignored`

use std::fs;
use std::path::PathBuf;

use larp::HealthState;
use netserve::wire::{self, Frame, MAX_RESPONSE_PAYLOAD};
use netserve::{
    ErrorCode, HealthReply, PredictReply, PushOutcome, PushSeqOutcome, Request, Response,
    StreamInfoReply, StreamTuning,
};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn assert_golden(name: &str, bytes: &[u8]) {
    let want = fs::read(fixture(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"));
    assert!(bytes == want.as_slice(), "{name}: encoded bytes differ from the golden fixture");
}

/// One request per opcode, in wire order.
fn requests() -> Vec<Request> {
    vec![
        Request::Hello { client: "golden-é".into() },
        Request::Register { id: 7 },
        Request::RegisterWith {
            id: 8,
            tuning: StreamTuning { train_size: 40, qa_window: 8, qa_period: 4, qa_threshold: 2.5 },
        },
        Request::Push { id: 1, minute: Some(99), value: -0.0 },
        Request::PushBatch { samples: vec![(1, 41.5), (u64::MAX, f64::MIN_POSITIVE), (3, -7.0)] },
        Request::Predict { id: 3 },
        Request::StreamInfo { id: u64::MAX },
        Request::Health,
        Request::Checkpoint,
        Request::Evict { id: 12 },
        Request::Shutdown,
        Request::RingInfo,
        Request::RingUpdate { version: 3, blob: vec![9, 8, 7] },
        Request::MigrateOut { id: 4, dest: "127.0.0.1:7001".into() },
        Request::MigrateIn { id: 4, next_minute: 120, floor: 118, snapshot: vec![0xAB; 5] },
        Request::StandbyFeed { payload: vec![1, 2, 3] },
        Request::PushSeq { client: "node-a".into(), samples: vec![(0, 1, 0.5), (3, 99, 1e300)] },
    ]
}

/// One response per reply kind, plus an error.
fn responses() -> Vec<Response> {
    let outcome = PushOutcome { accepted: 200, rejected: 5, dropped: 3 };
    vec![
        Response::Hello { version: 1, shards: 4, streams: 200 },
        Response::Register,
        Response::RegisterWith,
        Response::Push(PushOutcome { accepted: 1, rejected: 0, dropped: 0 }),
        Response::PushBatch(outcome),
        Response::Predict(PredictReply {
            forecast: Some(51.25),
            health: HealthState::Degraded,
            steps: 120,
            forecasts: 80,
        }),
        Response::StreamInfo(StreamInfoReply {
            shard: 3,
            steps: 5,
            forecasts: 2,
            next_minute: 6,
            health: HealthState::Fallback,
            last_forecast: None,
            retrains: 1,
        }),
        Response::Health(HealthReply {
            streams: 200,
            shards: 4,
            pushes: outcome,
            steps: 9,
            forecasts: 8,
            nonfinite_forecasts: 0,
            retrains: 3,
            degraded_streams: 1,
            quarantined_streams: 2,
            queue_depth: 17,
            unknown_dropped: 4,
        }),
        Response::Checkpoint(b"FLEETCKP".to_vec()),
        Response::Evict,
        Response::Shutdown,
        Response::Ring { version: 7, blob: vec![5; 4] },
        Response::RingUpdate,
        Response::MigrateOut { next_minute: 99, floor: 98, snapshot: vec![0xCD; 3] },
        Response::MigrateIn,
        Response::StandbyFeed,
        Response::PushSeq(PushSeqOutcome {
            outcome,
            deduped: 8,
            last_seqs: vec![(0, 12), (3, 99)],
        }),
        Response::Error { code: ErrorCode::MalformedPayload, detail: "sample 2 value".into() },
    ]
}

fn framed(frames: impl Iterator<Item = (u8, Vec<u8>)>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, (opcode, payload)) in frames.enumerate() {
        out.extend_from_slice(&wire::encode(&Frame { opcode, request_id: i as u64, payload }));
    }
    out
}

fn request_bytes() -> Vec<u8> {
    framed(requests().iter().map(|r| (r.opcode() as u8, r.encode_payload())))
}

fn response_bytes() -> Vec<u8> {
    framed(responses().iter().map(|r| (r.opcode(), r.encode_payload())))
}

/// Splits a fixture back into frames, checking ids count up from zero.
fn unframe(mut buf: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while !buf.is_empty() {
        let (frame, used) = wire::decode(buf, MAX_RESPONSE_PAYLOAD).unwrap().expect("whole frame");
        assert_eq!(frame.request_id, frames.len() as u64);
        frames.push(frame);
        buf = &buf[used..];
    }
    frames
}

#[test]
fn every_request_matches_golden_bytes_and_decodes() {
    assert_golden("wire_requests.bin", &request_bytes());
    let frames = unframe(&fs::read(fixture("wire_requests.bin")).unwrap());
    let want = requests();
    assert_eq!(frames.len(), want.len());
    for (frame, want) in frames.iter().zip(&want) {
        assert_eq!(&Request::decode(frame.opcode, &frame.payload).unwrap(), want);
    }
}

#[test]
fn every_response_matches_golden_bytes_and_decodes() {
    assert_golden("wire_responses.bin", &response_bytes());
    let frames = unframe(&fs::read(fixture("wire_responses.bin")).unwrap());
    let want = responses();
    assert_eq!(frames.len(), want.len());
    for (frame, want) in frames.iter().zip(&want) {
        assert_eq!(&Response::decode(frame.opcode, &frame.payload).unwrap(), want);
    }
}

#[test]
#[ignore = "rewrites the golden fixtures"]
fn regenerate_golden_fixtures() {
    fs::create_dir_all(fixture("")).unwrap();
    fs::write(fixture("wire_requests.bin"), request_bytes()).unwrap();
    fs::write(fixture("wire_responses.bin"), response_bytes()).unwrap();
}
