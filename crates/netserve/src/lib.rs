//! Remote serving: a binary wire protocol over TCP exposing a
//! [`fleet::FleetEngine`] to the network.
//!
//! The fleet engine scales serving across threads; this crate scales it
//! across *machines*. Consumers — schedulers, provisioners, dashboards —
//! talk a small length-prefixed, versioned, CRC-checked binary protocol
//! (frame layout and tables: DESIGN.md §6) instead of linking the engine
//! in-process:
//!
//! * [`wire`] — the frame codec. Every frame carries a protocol version,
//!   an opcode, a client correlation id, an opcode-specific payload, and a
//!   CRC-32 trailer; declared lengths are validated against a cap *before*
//!   allocation, so malformed or hostile input costs bytes, not memory.
//! * [`msg`] — the message vocabulary: seventeen request opcodes
//!   (`Hello`/`Register`/`RegisterWith`/`Push`/`PushBatch`/`Predict`/
//!   `StreamInfo`/`Health`/`Checkpoint`/`Evict`/`Shutdown`, plus the
//!   cluster tier's `RingInfo`/`RingUpdate`/`MigrateOut`/`MigrateIn`/
//!   `StandbyFeed`/`PushSeq`) and a typed error-code table covering
//!   framing, addressing, configuration, durability, lifecycle and
//!   ownership failures.
//! * [`cluster`] — cluster-mode plumbing: the [`ClusterHooks`] trait a
//!   cluster node lends a [`Server::start_clustered`] server (ring
//!   redirects, ring install, standby-feed sink) and the [`PushDedup`]
//!   table that makes sequenced-push retries exactly-once.
//! * [`server`] — an event-driven TCP server on the [`reactor`] crate's
//!   epoll loops: sharded accept across per-core event loops, an
//!   edge-triggered per-connection state machine with streaming zero-copy
//!   frame decode (clients may pipeline), bounded connections, lossless
//!   engine admission (a full queue blocks the push), idle/slow-reader
//!   reaping off a timer wheel, graceful drain-then-`flush_durable`
//!   shutdown, and a second-port HTTP/1.1 shim serving Prometheus
//!   `/metrics` and `/healthz` off the same loops. Fully instrumented through the
//!   engine's own [`obs`] registry (`net_*` and `reactor_*` metric sets)
//!   and event ring.
//! * [`client`] — a blocking client with connect/request timeouts,
//!   exponential-backoff reconnect, and a batched push API.
//!
//! The `net_loadgen` binary drives N concurrent client connections against
//! a fault-injected fleet and emits `results/BENCH_net.json` (request and
//! sample throughput, ceil-rank round-trip latency percentiles).
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
mod http;
pub mod msg;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, ServerInfo};
pub use cluster::{Admission, ClusterHooks, PushDedup};
pub use msg::{
    ErrorCode, HealthReply, OpCode, PredictReply, PushOutcome, PushSeqOutcome, Request, Response,
    StreamInfoReply, StreamTuning,
};
pub use server::{Server, ServerConfig};
pub use wire::{Frame, WireError, PROTOCOL_VERSION};

/// Errors surfaced by the client (and server construction).
#[derive(Debug)]
pub enum NetError {
    /// Connectivity failure (resolve, connect, send, receive) — after the
    /// client's retry budget is exhausted.
    Io(String),
    /// The server answered with a typed error.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// Server-provided context.
        detail: String,
    },
    /// The peer violated the protocol (undecodable response, correlation
    /// mismatch, unexpected response kind).
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "io: {m}"),
            NetError::Server { code, detail } => {
                write!(f, "server error {}: {detail}", code.name())
            }
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl NetError {
    /// The typed server error code, when this is a server-side error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}
