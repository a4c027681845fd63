//! Request/response vocabulary: opcodes, typed error codes, and the
//! payload encodings for every message (tables in DESIGN.md §6).
//!
//! A request frame carries an [`OpCode`]; its response carries either the
//! *reply* opcode `0x80 | request_opcode` ([`REPLY_BIT`]) with an
//! opcode-specific payload, or [`ERROR_OPCODE`] with an [`ErrorCode`] and a
//! short human-readable detail string. Payload decoding is strict: wrong
//! lengths, trailing bytes, bad enum discriminants and invalid UTF-8 all
//! map to [`ErrorCode::MalformedPayload`] — never a panic.

use larp::HealthState;
use store::codec::{self, Reader};

/// Response opcode bit: a reply to opcode `op` carries `REPLY_BIT | op`.
pub const REPLY_BIT: u8 = 0x80;

/// Opcode of an error response.
pub const ERROR_OPCODE: u8 = 0xFF;

/// Longest accepted string field (client name, error detail) in bytes.
pub const MAX_STRING: usize = 1024;

/// Request opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Handshake: client announces itself, server answers with its shape.
    Hello = 0x01,
    /// Register a stream with the server's default configuration.
    Register = 0x02,
    /// Register a stream with explicit tuning ([`StreamTuning`]).
    RegisterWith = 0x03,
    /// Push one sample (auto-clocked or with an explicit minute).
    Push = 0x04,
    /// Push a batch of auto-clocked samples.
    PushBatch = 0x05,
    /// Read a stream's latest forecast and health.
    Predict = 0x06,
    /// Read a stream's full serving view.
    StreamInfo = 0x07,
    /// Read the fleet-wide health rollup.
    Health = 0x08,
    /// Download a full fleet checkpoint (FLEETCKP bytes).
    Checkpoint = 0x09,
    /// Evict a stream.
    Evict = 0x0A,
    /// Ask the server to shut down gracefully.
    Shutdown = 0x0B,
    /// Read the server's current cluster ring (version + encoded ring).
    RingInfo = 0x0C,
    /// Install a new cluster ring (coordinator → node).
    RingUpdate = 0x0D,
    /// Begin migrating a stream away: fence it, flush, export its snapshot.
    MigrateOut = 0x0E,
    /// Accept a migrated stream: import the snapshot, arm the dedup floor.
    MigrateIn = 0x0F,
    /// Warm-standby replication feed (opaque payload; codec lives in the
    /// cluster crate).
    StandbyFeed = 0x10,
    /// Push a batch of auto-clocked samples with per-stream sequence
    /// numbers for at-least-once dedup.
    PushSeq = 0x11,
}

impl OpCode {
    /// All opcodes, in wire order.
    pub const ALL: [OpCode; 17] = [
        OpCode::Hello,
        OpCode::Register,
        OpCode::RegisterWith,
        OpCode::Push,
        OpCode::PushBatch,
        OpCode::Predict,
        OpCode::StreamInfo,
        OpCode::Health,
        OpCode::Checkpoint,
        OpCode::Evict,
        OpCode::Shutdown,
        OpCode::RingInfo,
        OpCode::RingUpdate,
        OpCode::MigrateOut,
        OpCode::MigrateIn,
        OpCode::StandbyFeed,
        OpCode::PushSeq,
    ];

    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<OpCode> {
        OpCode::ALL.into_iter().find(|op| *op as u8 == b)
    }

    /// Stable snake_case name (metric names interpolate this).
    pub fn name(self) -> &'static str {
        match self {
            OpCode::Hello => "hello",
            OpCode::Register => "register",
            OpCode::RegisterWith => "register_with",
            OpCode::Push => "push",
            OpCode::PushBatch => "push_batch",
            OpCode::Predict => "predict",
            OpCode::StreamInfo => "stream_info",
            OpCode::Health => "health",
            OpCode::Checkpoint => "checkpoint",
            OpCode::Evict => "evict",
            OpCode::Shutdown => "shutdown",
            OpCode::RingInfo => "ring_info",
            OpCode::RingUpdate => "ring_update",
            OpCode::MigrateOut => "migrate_out",
            OpCode::MigrateIn => "migrate_in",
            OpCode::StandbyFeed => "standby_feed",
            OpCode::PushSeq => "push_seq",
        }
    }
}

/// Typed error codes carried by error responses (table in DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Undecodable frame: bad CRC, truncation, or undersized length. The
    /// server closes the connection after sending this — framing is lost.
    BadFrame = 1,
    /// The frame's protocol version is not supported. Connection closed.
    UnsupportedVersion = 2,
    /// Valid frame, unknown opcode byte. Connection stays open.
    UnknownOpcode = 3,
    /// Valid frame, undecodable payload. Connection stays open.
    MalformedPayload = 4,
    /// Declared frame length exceeds the server's cap. Connection closed
    /// before any allocation.
    PayloadTooLarge = 5,
    /// The addressed stream is not registered.
    UnknownStream = 6,
    /// The stream id is already registered.
    DuplicateStream = 7,
    /// Stream tuning failed validation.
    InvalidConfig = 8,
    /// No longer sent: the engine accepts every sample (a full queue blocks
    /// the push). The code keeps its number so old peers still decode.
    Backpressure = 9,
    /// Checkpoint serialization/restore failure.
    Checkpoint = 10,
    /// The server is shutting down and no longer serves requests.
    ShuttingDown = 11,
    /// The server is at its connection limit.
    TooManyConnections = 12,
    /// Unexpected server-side failure.
    Internal = 13,
    /// A durable-store failure: the WAL append behind an ack failed (the
    /// samples are served from memory but are not crash-safe), or a
    /// durable checkpoint / recovery operation failed.
    Durability = 14,
    /// This node does not (or no longer does) own the addressed stream.
    /// The detail string is exactly the owning node's protocol address —
    /// reconnect there and retry.
    NotOwner = 15,
}

impl ErrorCode {
    /// Decodes an error-code word.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        use ErrorCode::*;
        [
            BadFrame,
            UnsupportedVersion,
            UnknownOpcode,
            MalformedPayload,
            PayloadTooLarge,
            UnknownStream,
            DuplicateStream,
            InvalidConfig,
            Backpressure,
            Checkpoint,
            ShuttingDown,
            TooManyConnections,
            Internal,
            Durability,
            NotOwner,
        ]
        .into_iter()
        .find(|c| *c as u16 == v)
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::UnknownOpcode => "unknown_opcode",
            ErrorCode::MalformedPayload => "malformed_payload",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::UnknownStream => "unknown_stream",
            ErrorCode::DuplicateStream => "duplicate_stream",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::Checkpoint => "checkpoint",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::TooManyConnections => "too_many_connections",
            ErrorCode::Internal => "internal",
            ErrorCode::Durability => "durability",
            ErrorCode::NotOwner => "not_owner",
        }
    }
}

/// Wire-settable subset of [`fleet::StreamConfig`]: the per-stream tunables
/// a remote consumer is allowed to pick. Everything else (ingest policy,
/// larp internals, resilience) stays server-side configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTuning {
    /// Samples per (re)training window.
    pub train_size: u32,
    /// QA audit window length.
    pub qa_window: u32,
    /// QA audit period.
    pub qa_period: u32,
    /// QA rolling-MSE retrain threshold (normalized units).
    pub qa_threshold: f64,
}

impl From<&fleet::StreamConfig> for StreamTuning {
    fn from(c: &fleet::StreamConfig) -> Self {
        Self {
            train_size: c.train_size as u32,
            qa_window: c.qa_window as u32,
            qa_period: c.qa_period as u32,
            qa_threshold: c.qa_threshold,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; `client` is a short self-identification string.
    Hello {
        /// Client-chosen name (truncated to [`MAX_STRING`] bytes).
        client: String,
    },
    /// Register `id` with the server's default stream configuration.
    Register {
        /// Stream id.
        id: u64,
    },
    /// Register `id` with explicit tuning.
    RegisterWith {
        /// Stream id.
        id: u64,
        /// Wire-settable stream tunables.
        tuning: StreamTuning,
    },
    /// Push one sample.
    Push {
        /// Stream id.
        id: u64,
        /// Explicit minute; `None` auto-advances the stream clock.
        minute: Option<u64>,
        /// Sample value.
        value: f64,
    },
    /// Push a batch of auto-clocked samples.
    PushBatch {
        /// `(stream id, value)` pairs, pushed in order.
        samples: Vec<(u64, f64)>,
    },
    /// Read `id`'s latest forecast and health.
    Predict {
        /// Stream id.
        id: u64,
    },
    /// Read `id`'s full serving view.
    StreamInfo {
        /// Stream id.
        id: u64,
    },
    /// Read the fleet-wide health rollup.
    Health,
    /// Download a checkpoint.
    Checkpoint,
    /// Evict `id`.
    Evict {
        /// Stream id.
        id: u64,
    },
    /// Graceful server shutdown.
    Shutdown,
    /// Read the node's current cluster ring.
    RingInfo,
    /// Install a new cluster ring (clears migration fences).
    RingUpdate {
        /// Monotonic ring version; stale versions are rejected.
        version: u64,
        /// Encoded ring (see the cluster crate's ring codec).
        blob: Vec<u8>,
    },
    /// Fence `id` against new pushes (redirecting them to `dest`), flush,
    /// and export its snapshot for migration.
    MigrateOut {
        /// Stream id.
        id: u64,
        /// Protocol address of the gaining node; fenced pushes are
        /// redirected there via [`ErrorCode::NotOwner`].
        dest: String,
    },
    /// Import a migrated stream's snapshot on the gaining node.
    MigrateIn {
        /// Stream id.
        id: u64,
        /// The stream's restored clock.
        next_minute: u64,
        /// Dedup floor: sequenced pushes with `seq <= floor` are already
        /// applied and must be dropped.
        floor: u64,
        /// LARPSNAP snapshot bytes.
        snapshot: Vec<u8>,
    },
    /// Warm-standby replication feed record (opaque to this crate).
    StandbyFeed {
        /// Encoded feed chunk (cluster-crate codec).
        payload: Vec<u8>,
    },
    /// Push auto-clocked samples with per-stream sequence numbers. The
    /// server dedups on `(client, stream)`: a retried sample whose `seq`
    /// was already applied is dropped, making retries exactly-once.
    /// `seq` 0 is always admitted (unsequenced).
    PushSeq {
        /// Client identity the dedup state is keyed by.
        client: String,
        /// `(stream id, seq, value)` triples, pushed in order. Sequences
        /// are per-stream, start at 1, and increment by 1 per sample.
        samples: Vec<(u64, u64, f64)>,
    },
}

/// Latest-forecast view served by `Predict`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictReply {
    /// Most recent forecast, if the stream has produced one.
    pub forecast: Option<f64>,
    /// Health of the stream's most recent step.
    pub health: HealthState,
    /// Clean samples that reached the predictor.
    pub steps: u64,
    /// Forecasts served so far.
    pub forecasts: u64,
}

/// Full serving view served by `StreamInfo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamInfoReply {
    /// Shard serving this stream.
    pub shard: u32,
    /// Clean samples that reached the predictor.
    pub steps: u64,
    /// Forecasts served.
    pub forecasts: u64,
    /// Minute assigned to the next auto-clocked sample.
    pub next_minute: u64,
    /// Health of the most recent step.
    pub health: HealthState,
    /// Most recent forecast, if any.
    pub last_forecast: Option<f64>,
    /// (Re)trainings performed.
    pub retrains: u64,
}

/// Push outcome: the engine's per-call accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushOutcome {
    /// Samples enqueued.
    pub accepted: u64,
    /// Always 0: the engine accepts every sample it is handed. The field,
    /// like `dropped`, keeps the wire layout unchanged.
    pub rejected: u64,
    /// Always 0: the engine never evicts a queued sample. The field keeps
    /// the wire layout of `Push`, `PushBatch`, `PushSeq` and `Health`
    /// replies unchanged.
    pub dropped: u64,
}

impl From<fleet::PushReport> for PushOutcome {
    fn from(r: fleet::PushReport) -> Self {
        Self { accepted: r.accepted, rejected: 0, dropped: 0 }
    }
}

/// Outcome of a sequenced push ([`Request::PushSeq`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PushSeqOutcome {
    /// The engine's accounting for the admitted samples.
    pub outcome: PushOutcome,
    /// Samples dropped as already-applied duplicates.
    pub deduped: u64,
    /// Per stream touched by the batch: the highest applied sequence for
    /// this client after the batch. A reconnecting client resynchronizes
    /// its send cursor from this echo.
    pub last_seqs: Vec<(u64, u64)>,
}

/// Fleet-wide rollup served by `Health`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthReply {
    /// Registered streams.
    pub streams: u64,
    /// Shard (worker) count.
    pub shards: u16,
    /// Cumulative push outcomes since engine start.
    pub pushes: PushOutcome,
    /// Clean samples that reached a predictor.
    pub steps: u64,
    /// Forecasts served.
    pub forecasts: u64,
    /// Non-finite forecasts that escaped a serving stack (should be 0).
    pub nonfinite_forecasts: u64,
    /// (Re)trainings across the fleet.
    pub retrains: u64,
    /// Streams currently degraded.
    pub degraded_streams: u64,
    /// Streams with a quarantined pool member.
    pub quarantined_streams: u64,
    /// Samples waiting in shard queues right now.
    pub queue_depth: u64,
    /// Samples addressed to unregistered streams.
    pub unknown_dropped: u64,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer.
    Hello {
        /// Server protocol version.
        version: u8,
        /// Shard (worker) count.
        shards: u16,
        /// Streams currently registered.
        streams: u64,
    },
    /// Stream registered.
    Register,
    /// Stream registered with tuning.
    RegisterWith,
    /// Single-sample push accepted.
    Push(PushOutcome),
    /// Batch push outcome.
    PushBatch(PushOutcome),
    /// Latest forecast and health.
    Predict(PredictReply),
    /// Full serving view.
    StreamInfo(StreamInfoReply),
    /// Fleet-wide rollup.
    Health(HealthReply),
    /// FLEETCKP checkpoint bytes.
    Checkpoint(Vec<u8>),
    /// Stream evicted.
    Evict,
    /// Shutdown acknowledged; the server drains and stops after this.
    Shutdown,
    /// The node's current cluster ring.
    Ring {
        /// Monotonic ring version.
        version: u64,
        /// Encoded ring (cluster-crate codec).
        blob: Vec<u8>,
    },
    /// Ring installed.
    RingUpdate,
    /// The fenced stream's exported state, ready for `MigrateIn` on the
    /// gaining node.
    MigrateOut {
        /// The stream's clock at export.
        next_minute: u64,
        /// Dedup floor to arm on the gaining node.
        floor: u64,
        /// LARPSNAP snapshot bytes.
        snapshot: Vec<u8>,
    },
    /// Migrated stream imported.
    MigrateIn,
    /// Standby feed chunk applied.
    StandbyFeed,
    /// Sequenced-push outcome (dedup counts and per-stream seq echoes).
    PushSeq(PushSeqOutcome),
    /// Typed failure.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Short human-readable context.
        detail: String,
    },
}

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    // Truncate on a char boundary to fit the cap.
    let mut end = s.len().min(MAX_STRING);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    codec::put_str(out, &s[..end]);
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    out.push(v.is_some() as u8);
    put_f64(out, v.unwrap_or(0.0));
}

fn health_to_u8(h: HealthState) -> u8 {
    match h {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Fallback => 2,
    }
}

/// Describes a failed payload read by the field it was after. Called only
/// on the failure branch, so the success path formats nothing.
fn describe(e: codec::Error, what: impl std::fmt::Display) -> String {
    match e {
        codec::Error::Trailing(n) => format!("{n} trailing bytes after {what}"),
        codec::Error::Utf8 => format!("{what} is not UTF-8"),
        _ => format!("truncated payload reading {what}"),
    }
}

/// Names the field a failed read was after (see [`describe`]).
trait Field<T> {
    fn field(self, what: &str) -> Result<T, String>;
}

impl<T> Field<T> for Result<T, codec::Error> {
    fn field(self, what: &str) -> Result<T, String> {
        self.map_err(|e| describe(e, what))
    }
}

fn get_string(r: &mut Reader<'_>, what: &str) -> Result<String, String> {
    let s = r.str().field(what)?;
    if s.len() > MAX_STRING {
        return Err(format!("{what} length {} exceeds cap {MAX_STRING}", s.len()));
    }
    Ok(s.to_owned())
}

fn get_opt_f64(r: &mut Reader<'_>, what: &str) -> Result<Option<f64>, String> {
    let flag = r.u8().field(what)?;
    let value = r.f64().field(what)?;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(value)),
        other => Err(format!("{what} presence flag {other} is neither 0 nor 1")),
    }
}

fn get_outcome(r: &mut Reader<'_>) -> Result<PushOutcome, String> {
    Ok(PushOutcome {
        accepted: r.u64().field("accepted")?,
        rejected: r.u64().field("rejected")?,
        dropped: r.u64().field("dropped")?,
    })
}

fn get_health(r: &mut Reader<'_>, what: &str) -> Result<HealthState, String> {
    match r.u8().field(what)? {
        0 => Ok(HealthState::Healthy),
        1 => Ok(HealthState::Degraded),
        2 => Ok(HealthState::Fallback),
        other => Err(format!("{what} health discriminant {other} out of range")),
    }
}

impl Request {
    /// The request's opcode.
    pub fn opcode(&self) -> OpCode {
        match self {
            Request::Hello { .. } => OpCode::Hello,
            Request::Register { .. } => OpCode::Register,
            Request::RegisterWith { .. } => OpCode::RegisterWith,
            Request::Push { .. } => OpCode::Push,
            Request::PushBatch { .. } => OpCode::PushBatch,
            Request::Predict { .. } => OpCode::Predict,
            Request::StreamInfo { .. } => OpCode::StreamInfo,
            Request::Health => OpCode::Health,
            Request::Checkpoint => OpCode::Checkpoint,
            Request::Evict { .. } => OpCode::Evict,
            Request::Shutdown => OpCode::Shutdown,
            Request::RingInfo => OpCode::RingInfo,
            Request::RingUpdate { .. } => OpCode::RingUpdate,
            Request::MigrateOut { .. } => OpCode::MigrateOut,
            Request::MigrateIn { .. } => OpCode::MigrateIn,
            Request::StandbyFeed { .. } => OpCode::StandbyFeed,
            Request::PushSeq { .. } => OpCode::PushSeq,
        }
    }

    /// Encodes the payload bytes for this request.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { client } => put_str(&mut out, client),
            Request::Register { id } | Request::Predict { id } | Request::Evict { id } => {
                put_u64(&mut out, *id)
            }
            Request::StreamInfo { id } => put_u64(&mut out, *id),
            Request::RegisterWith { id, tuning } => {
                put_u64(&mut out, *id);
                put_u32(&mut out, tuning.train_size);
                put_u32(&mut out, tuning.qa_window);
                put_u32(&mut out, tuning.qa_period);
                put_f64(&mut out, tuning.qa_threshold);
            }
            Request::Push { id, minute, value } => {
                put_u64(&mut out, *id);
                out.push(minute.is_some() as u8);
                put_u64(&mut out, minute.unwrap_or(0));
                put_f64(&mut out, *value);
            }
            Request::PushBatch { samples } => {
                put_u32(&mut out, samples.len() as u32);
                for (id, value) in samples {
                    put_u64(&mut out, *id);
                    put_f64(&mut out, *value);
                }
            }
            Request::Health | Request::Checkpoint | Request::Shutdown | Request::RingInfo => {}
            Request::RingUpdate { version, blob } => {
                put_u64(&mut out, *version);
                out.extend_from_slice(blob);
            }
            Request::MigrateOut { id, dest } => {
                put_u64(&mut out, *id);
                put_str(&mut out, dest);
            }
            Request::MigrateIn { id, next_minute, floor, snapshot } => {
                put_u64(&mut out, *id);
                put_u64(&mut out, *next_minute);
                put_u64(&mut out, *floor);
                out.extend_from_slice(snapshot);
            }
            Request::StandbyFeed { payload } => out.extend_from_slice(payload),
            Request::PushSeq { client, samples } => {
                put_str(&mut out, client);
                put_u32(&mut out, samples.len() as u32);
                for (id, seq, value) in samples {
                    put_u64(&mut out, *id);
                    put_u64(&mut out, *seq);
                    put_f64(&mut out, *value);
                }
            }
        }
        out
    }

    /// Decodes a request from its opcode byte and payload.
    ///
    /// # Errors
    ///
    /// `UnknownOpcode` for an unrecognized byte, `MalformedPayload` (with a
    /// field-level detail string) for anything undecodable.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Request, (ErrorCode, String)> {
        let op = OpCode::from_u8(opcode)
            .ok_or((ErrorCode::UnknownOpcode, format!("opcode {opcode:#04x}")))?;
        Self::decode_payload(op, payload).map_err(|m| (ErrorCode::MalformedPayload, m))
    }

    fn decode_payload(op: OpCode, payload: &[u8]) -> Result<Request, String> {
        let mut r = Reader::new(payload);
        let req = match op {
            OpCode::Hello => Request::Hello { client: get_string(&mut r, "client name")? },
            OpCode::Register => Request::Register { id: r.u64().field("stream id")? },
            OpCode::RegisterWith => Request::RegisterWith {
                id: r.u64().field("stream id")?,
                tuning: StreamTuning {
                    train_size: r.u32().field("train_size")?,
                    qa_window: r.u32().field("qa_window")?,
                    qa_period: r.u32().field("qa_period")?,
                    qa_threshold: r.f64().field("qa_threshold")?,
                },
            },
            OpCode::Push => {
                let id = r.u64().field("stream id")?;
                let has_minute = r.u8().field("minute flag")?;
                let minute = r.u64().field("minute")?;
                let value = r.f64().field("value")?;
                let minute = match has_minute {
                    0 => None,
                    1 => Some(minute),
                    other => return Err(format!("minute flag {other} is neither 0 nor 1")),
                };
                Request::Push { id, minute, value }
            }
            OpCode::PushBatch => {
                let count = r.u32().field("sample count")? as usize;
                // Each sample is 16 bytes; the reader bounds-checks, so a
                // lying count fails on the first missing sample rather than
                // pre-allocating `count` slots.
                let mut samples = Vec::with_capacity(count.min(r.remaining() / 16));
                for i in 0..count {
                    let id = r.u64().map_err(|e| describe(e, format_args!("sample {i} id")))?;
                    let value =
                        r.f64().map_err(|e| describe(e, format_args!("sample {i} value")))?;
                    samples.push((id, value));
                }
                Request::PushBatch { samples }
            }
            OpCode::Predict => Request::Predict { id: r.u64().field("stream id")? },
            OpCode::StreamInfo => Request::StreamInfo { id: r.u64().field("stream id")? },
            OpCode::Health => Request::Health,
            OpCode::Checkpoint => Request::Checkpoint,
            OpCode::Evict => Request::Evict { id: r.u64().field("stream id")? },
            OpCode::Shutdown => Request::Shutdown,
            OpCode::RingInfo => Request::RingInfo,
            OpCode::RingUpdate => Request::RingUpdate {
                version: r.u64().field("ring version")?,
                blob: r.rest().to_vec(),
            },
            OpCode::MigrateOut => Request::MigrateOut {
                id: r.u64().field("stream id")?,
                dest: get_string(&mut r, "dest addr")?,
            },
            OpCode::MigrateIn => Request::MigrateIn {
                id: r.u64().field("stream id")?,
                next_minute: r.u64().field("next_minute")?,
                floor: r.u64().field("floor")?,
                snapshot: r.rest().to_vec(),
            },
            OpCode::StandbyFeed => Request::StandbyFeed { payload: r.rest().to_vec() },
            OpCode::PushSeq => {
                let client = get_string(&mut r, "client name")?;
                let count = r.u32().field("sample count")? as usize;
                // 24 bytes per sample; bounds-check instead of pre-allocating.
                let mut samples = Vec::with_capacity(count.min(r.remaining() / 24));
                for i in 0..count {
                    let id = r.u64().map_err(|e| describe(e, format_args!("sample {i} id")))?;
                    let seq = r.u64().map_err(|e| describe(e, format_args!("sample {i} seq")))?;
                    let value =
                        r.f64().map_err(|e| describe(e, format_args!("sample {i} value")))?;
                    samples.push((id, seq, value));
                }
                Request::PushSeq { client, samples }
            }
        };
        r.finish().field(op.name())?;
        Ok(req)
    }
}

impl Response {
    /// The response's wire opcode (`REPLY_BIT | op`, or [`ERROR_OPCODE`]).
    pub fn opcode(&self) -> u8 {
        match self {
            Response::Hello { .. } => REPLY_BIT | OpCode::Hello as u8,
            Response::Register => REPLY_BIT | OpCode::Register as u8,
            Response::RegisterWith => REPLY_BIT | OpCode::RegisterWith as u8,
            Response::Push(_) => REPLY_BIT | OpCode::Push as u8,
            Response::PushBatch(_) => REPLY_BIT | OpCode::PushBatch as u8,
            Response::Predict(_) => REPLY_BIT | OpCode::Predict as u8,
            Response::StreamInfo(_) => REPLY_BIT | OpCode::StreamInfo as u8,
            Response::Health(_) => REPLY_BIT | OpCode::Health as u8,
            Response::Checkpoint(_) => REPLY_BIT | OpCode::Checkpoint as u8,
            Response::Evict => REPLY_BIT | OpCode::Evict as u8,
            Response::Shutdown => REPLY_BIT | OpCode::Shutdown as u8,
            Response::Ring { .. } => REPLY_BIT | OpCode::RingInfo as u8,
            Response::RingUpdate => REPLY_BIT | OpCode::RingUpdate as u8,
            Response::MigrateOut { .. } => REPLY_BIT | OpCode::MigrateOut as u8,
            Response::MigrateIn => REPLY_BIT | OpCode::MigrateIn as u8,
            Response::StandbyFeed => REPLY_BIT | OpCode::StandbyFeed as u8,
            Response::PushSeq(_) => REPLY_BIT | OpCode::PushSeq as u8,
            Response::Error { .. } => ERROR_OPCODE,
        }
    }

    /// Encodes the payload bytes for this response.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Hello { version, shards, streams } => {
                out.push(*version);
                put_u16(&mut out, *shards);
                put_u64(&mut out, *streams);
            }
            Response::Register
            | Response::RegisterWith
            | Response::Evict
            | Response::Shutdown
            | Response::RingUpdate
            | Response::MigrateIn
            | Response::StandbyFeed => {}
            Response::Push(o) | Response::PushBatch(o) => {
                put_u64(&mut out, o.accepted);
                put_u64(&mut out, o.rejected);
                put_u64(&mut out, o.dropped);
            }
            Response::Predict(p) => {
                put_opt_f64(&mut out, p.forecast);
                out.push(health_to_u8(p.health));
                put_u64(&mut out, p.steps);
                put_u64(&mut out, p.forecasts);
            }
            Response::StreamInfo(s) => {
                put_u32(&mut out, s.shard);
                put_u64(&mut out, s.steps);
                put_u64(&mut out, s.forecasts);
                put_u64(&mut out, s.next_minute);
                out.push(health_to_u8(s.health));
                put_opt_f64(&mut out, s.last_forecast);
                put_u64(&mut out, s.retrains);
            }
            Response::Health(h) => {
                put_u64(&mut out, h.streams);
                put_u16(&mut out, h.shards);
                put_u64(&mut out, h.pushes.accepted);
                put_u64(&mut out, h.pushes.rejected);
                put_u64(&mut out, h.pushes.dropped);
                put_u64(&mut out, h.steps);
                put_u64(&mut out, h.forecasts);
                put_u64(&mut out, h.nonfinite_forecasts);
                put_u64(&mut out, h.retrains);
                put_u64(&mut out, h.degraded_streams);
                put_u64(&mut out, h.quarantined_streams);
                put_u64(&mut out, h.queue_depth);
                put_u64(&mut out, h.unknown_dropped);
            }
            Response::Checkpoint(bytes) => out.extend_from_slice(bytes),
            Response::Ring { version, blob } => {
                put_u64(&mut out, *version);
                out.extend_from_slice(blob);
            }
            Response::MigrateOut { next_minute, floor, snapshot } => {
                put_u64(&mut out, *next_minute);
                put_u64(&mut out, *floor);
                out.extend_from_slice(snapshot);
            }
            Response::PushSeq(o) => {
                put_u64(&mut out, o.outcome.accepted);
                put_u64(&mut out, o.outcome.rejected);
                put_u64(&mut out, o.outcome.dropped);
                put_u64(&mut out, o.deduped);
                put_u32(&mut out, o.last_seqs.len() as u32);
                for (id, seq) in &o.last_seqs {
                    put_u64(&mut out, *id);
                    put_u64(&mut out, *seq);
                }
            }
            Response::Error { code, detail } => {
                put_u16(&mut out, *code as u16);
                put_str(&mut out, detail);
            }
        }
        out
    }

    /// Decodes a response from its wire opcode and payload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first decode failure.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<Response, String> {
        let mut r = Reader::new(payload);
        if opcode == ERROR_OPCODE {
            let code_word = r.u16().field("error code")?;
            let code = ErrorCode::from_u16(code_word)
                .ok_or_else(|| format!("unknown error code {code_word}"))?;
            let detail = get_string(&mut r, "error detail")?;
            r.finish().field("error")?;
            return Ok(Response::Error { code, detail });
        }
        let op = OpCode::from_u8(opcode & !REPLY_BIT)
            .filter(|_| opcode & REPLY_BIT != 0)
            .ok_or_else(|| format!("unknown response opcode {opcode:#04x}"))?;
        let resp = match op {
            OpCode::Hello => Response::Hello {
                version: r.u8().field("server version")?,
                shards: r.u16().field("shards")?,
                streams: r.u64().field("streams")?,
            },
            OpCode::Register => Response::Register,
            OpCode::RegisterWith => Response::RegisterWith,
            OpCode::Push => Response::Push(get_outcome(&mut r)?),
            OpCode::PushBatch => Response::PushBatch(get_outcome(&mut r)?),
            OpCode::Predict => Response::Predict(PredictReply {
                forecast: get_opt_f64(&mut r, "forecast")?,
                health: get_health(&mut r, "health")?,
                steps: r.u64().field("steps")?,
                forecasts: r.u64().field("forecasts")?,
            }),
            OpCode::StreamInfo => Response::StreamInfo(StreamInfoReply {
                shard: r.u32().field("shard")?,
                steps: r.u64().field("steps")?,
                forecasts: r.u64().field("forecasts")?,
                next_minute: r.u64().field("next_minute")?,
                health: get_health(&mut r, "health")?,
                last_forecast: get_opt_f64(&mut r, "last_forecast")?,
                retrains: r.u64().field("retrains")?,
            }),
            OpCode::Health => Response::Health(HealthReply {
                streams: r.u64().field("streams")?,
                shards: r.u16().field("shards")?,
                pushes: get_outcome(&mut r)?,
                steps: r.u64().field("steps")?,
                forecasts: r.u64().field("forecasts")?,
                nonfinite_forecasts: r.u64().field("nonfinite_forecasts")?,
                retrains: r.u64().field("retrains")?,
                degraded_streams: r.u64().field("degraded_streams")?,
                quarantined_streams: r.u64().field("quarantined_streams")?,
                queue_depth: r.u64().field("queue_depth")?,
                unknown_dropped: r.u64().field("unknown_dropped")?,
            }),
            OpCode::Checkpoint => Response::Checkpoint(r.rest().to_vec()),
            OpCode::Evict => Response::Evict,
            OpCode::Shutdown => Response::Shutdown,
            OpCode::RingInfo => {
                Response::Ring { version: r.u64().field("ring version")?, blob: r.rest().to_vec() }
            }
            OpCode::RingUpdate => Response::RingUpdate,
            OpCode::MigrateOut => Response::MigrateOut {
                next_minute: r.u64().field("next_minute")?,
                floor: r.u64().field("floor")?,
                snapshot: r.rest().to_vec(),
            },
            OpCode::MigrateIn => Response::MigrateIn,
            OpCode::StandbyFeed => Response::StandbyFeed,
            OpCode::PushSeq => {
                let outcome = get_outcome(&mut r)?;
                let deduped = r.u64().field("deduped")?;
                let count = r.u32().field("echo count")? as usize;
                let mut last_seqs = Vec::with_capacity(count.min(r.remaining() / 16));
                for i in 0..count {
                    let id = r.u64().map_err(|e| describe(e, format_args!("echo {i} id")))?;
                    let seq = r.u64().map_err(|e| describe(e, format_args!("echo {i} seq")))?;
                    last_seqs.push((id, seq));
                }
                Response::PushSeq(PushSeqOutcome { outcome, deduped, last_seqs })
            }
        };
        r.finish().field(op.name())?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_round_trip(req: Request) {
        let payload = req.encode_payload();
        let decoded = Request::decode(req.opcode() as u8, &payload).unwrap();
        assert_eq!(decoded, req);
    }

    fn response_round_trip(resp: Response) {
        let payload = resp.encode_payload();
        let decoded = Response::decode(resp.opcode(), &payload).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn every_request_round_trips() {
        request_round_trip(Request::Hello { client: "loadgen-3".into() });
        request_round_trip(Request::Register { id: 7 });
        request_round_trip(Request::RegisterWith {
            id: 8,
            tuning: StreamTuning { train_size: 40, qa_window: 8, qa_period: 4, qa_threshold: 2.0 },
        });
        request_round_trip(Request::Push { id: 1, minute: None, value: 42.5 });
        request_round_trip(Request::Push { id: 1, minute: Some(99), value: -0.0 });
        request_round_trip(Request::PushBatch { samples: vec![] });
        request_round_trip(Request::PushBatch {
            samples: (0..100).map(|i| (i as u64, i as f64 * 0.5)).collect(),
        });
        request_round_trip(Request::Predict { id: 3 });
        request_round_trip(Request::StreamInfo { id: u64::MAX });
        request_round_trip(Request::Health);
        request_round_trip(Request::Checkpoint);
        request_round_trip(Request::Evict { id: 12 });
        request_round_trip(Request::Shutdown);
        request_round_trip(Request::RingInfo);
        request_round_trip(Request::RingUpdate { version: 3, blob: vec![9, 8, 7] });
        request_round_trip(Request::RingUpdate { version: 0, blob: vec![] });
        request_round_trip(Request::MigrateOut { id: 4, dest: "127.0.0.1:7001".into() });
        request_round_trip(Request::MigrateIn {
            id: 4,
            next_minute: 120,
            floor: 120,
            snapshot: vec![0xAB; 64],
        });
        request_round_trip(Request::StandbyFeed { payload: vec![1, 2, 3, 4, 5] });
        request_round_trip(Request::PushSeq { client: "node-a".into(), samples: vec![] });
        request_round_trip(Request::PushSeq {
            client: "bench".into(),
            samples: (0..50).map(|i| (i as u64 % 7, i as u64 + 1, i as f64 * 0.25)).collect(),
        });
    }

    #[test]
    fn every_response_round_trips() {
        response_round_trip(Response::Hello { version: 1, shards: 4, streams: 200 });
        response_round_trip(Response::Register);
        response_round_trip(Response::RegisterWith);
        response_round_trip(Response::Push(PushOutcome { accepted: 1, rejected: 0, dropped: 0 }));
        response_round_trip(Response::PushBatch(PushOutcome {
            accepted: 200,
            rejected: 5,
            dropped: 3,
        }));
        response_round_trip(Response::Predict(PredictReply {
            forecast: Some(51.25),
            health: HealthState::Degraded,
            steps: 120,
            forecasts: 80,
        }));
        response_round_trip(Response::Predict(PredictReply {
            forecast: None,
            health: HealthState::Healthy,
            steps: 0,
            forecasts: 0,
        }));
        response_round_trip(Response::StreamInfo(StreamInfoReply {
            shard: 3,
            steps: 5,
            forecasts: 2,
            next_minute: 6,
            health: HealthState::Fallback,
            last_forecast: Some(-1.5),
            retrains: 1,
        }));
        response_round_trip(Response::Health(HealthReply {
            streams: 200,
            shards: 4,
            pushes: PushOutcome { accepted: 10, rejected: 1, dropped: 2 },
            steps: 9,
            forecasts: 8,
            nonfinite_forecasts: 0,
            retrains: 3,
            degraded_streams: 1,
            quarantined_streams: 0,
            queue_depth: 17,
            unknown_dropped: 4,
        }));
        response_round_trip(Response::Checkpoint(vec![1, 2, 3, 4]));
        response_round_trip(Response::Evict);
        response_round_trip(Response::Shutdown);
        response_round_trip(Response::Ring { version: 7, blob: vec![5; 33] });
        response_round_trip(Response::Ring { version: 0, blob: vec![] });
        response_round_trip(Response::RingUpdate);
        response_round_trip(Response::MigrateOut {
            next_minute: 99,
            floor: 99,
            snapshot: vec![0xCD; 48],
        });
        response_round_trip(Response::MigrateIn);
        response_round_trip(Response::StandbyFeed);
        response_round_trip(Response::PushSeq(PushSeqOutcome {
            outcome: PushOutcome { accepted: 40, rejected: 0, dropped: 0 },
            deduped: 8,
            last_seqs: vec![(0, 12), (3, 99)],
        }));
        response_round_trip(Response::PushSeq(PushSeqOutcome::default()));
        response_round_trip(Response::Error {
            code: ErrorCode::UnknownStream,
            detail: "stream 9".into(),
        });
        response_round_trip(Response::Error {
            code: ErrorCode::NotOwner,
            detail: "127.0.0.1:7002".into(),
        });
    }

    #[test]
    fn unknown_opcode_is_typed() {
        match Request::decode(0x7E, &[]) {
            Err((ErrorCode::UnknownOpcode, _)) => {}
            other => panic!("expected UnknownOpcode, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let mut payload = Request::Register { id: 3 }.encode_payload();
        payload.push(0);
        match Request::decode(OpCode::Register as u8, &payload) {
            Err((ErrorCode::MalformedPayload, detail)) => {
                assert!(detail.contains("trailing"), "{detail}")
            }
            other => panic!("expected MalformedPayload, got {other:?}"),
        }
    }

    #[test]
    fn lying_batch_count_fails_without_preallocation() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&[0u8; 16]); // one real sample
        match Request::decode(OpCode::PushBatch as u8, &payload) {
            // The detail names the field and the sample index.
            Err((ErrorCode::MalformedPayload, detail)) => {
                assert_eq!(detail, "truncated payload reading sample 1 id")
            }
            other => panic!("expected MalformedPayload, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payloads_name_the_missing_field() {
        let full = Request::Push { id: 1, minute: Some(5), value: 2.0 }.encode_payload();
        for cut in 0..full.len() {
            match Request::decode(OpCode::Push as u8, &full[..cut]) {
                Err((ErrorCode::MalformedPayload, _)) => {}
                other => panic!("cut {cut}: expected MalformedPayload, got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_discriminants_are_malformed() {
        // Push with minute flag 2.
        let mut p = Vec::new();
        p.extend_from_slice(&1u64.to_le_bytes());
        p.push(2);
        p.extend_from_slice(&0u64.to_le_bytes());
        p.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(matches!(
            Request::decode(OpCode::Push as u8, &p),
            Err((ErrorCode::MalformedPayload, _))
        ));
        // Predict reply with health discriminant 9.
        let mut r = Response::Predict(PredictReply {
            forecast: Some(1.0),
            health: HealthState::Healthy,
            steps: 0,
            forecasts: 0,
        })
        .encode_payload();
        r[9] = 9;
        assert!(Response::decode(REPLY_BIT | OpCode::Predict as u8, &r).is_err());
    }

    #[test]
    fn overlong_strings_truncate_on_encode_and_reject_on_decode() {
        let long = "x".repeat(MAX_STRING + 500);
        let payload = Request::Hello { client: long }.encode_payload();
        match Request::decode(OpCode::Hello as u8, &payload).unwrap() {
            Request::Hello { client } => assert_eq!(client.len(), MAX_STRING),
            other => panic!("unexpected {other:?}"),
        }
        // A hand-forged over-cap length word is rejected.
        let mut forged = Vec::new();
        forged.extend_from_slice(&((MAX_STRING + 1) as u16).to_le_bytes());
        forged.extend_from_slice(&vec![b'a'; MAX_STRING + 1]);
        assert!(matches!(
            Request::decode(OpCode::Hello as u8, &forged),
            Err((ErrorCode::MalformedPayload, _))
        ));
    }

    #[test]
    fn opcode_and_error_tables_are_self_consistent() {
        for op in OpCode::ALL {
            assert_eq!(OpCode::from_u8(op as u8), Some(op));
            assert!(!op.name().is_empty());
        }
        assert_eq!(OpCode::from_u8(0x00), None);
        assert_eq!(OpCode::from_u8(0x12), None);
        for code in 1..=15u16 {
            let c = ErrorCode::from_u16(code).expect("contiguous error codes");
            assert_eq!(c as u16, code);
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(16), None);
    }
}
