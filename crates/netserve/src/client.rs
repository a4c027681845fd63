//! Blocking client: connect/request timeouts, exponential-backoff
//! reconnect, and a typed API over every opcode.
//!
//! A [`Client`] owns one TCP connection and re-establishes it transparently:
//! when a request fails on an I/O error the client reconnects (backing off
//! exponentially from [`ClientConfig::reconnect_base`] up to
//! [`ClientConfig::reconnect_max`]) and retries, up to
//! [`ClientConfig::max_attempts`] total attempts. Typed server errors
//! ([`Response::Error`]) are returned immediately — they are answers, not
//! connectivity failures. Note the retry is at-least-once for pushes: a
//! request whose response was lost in transit may have been applied.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::msg::{
    HealthReply, PredictReply, PushOutcome, PushSeqOutcome, Request, Response, StreamInfoReply,
    StreamTuning,
};
use crate::wire::{self, Frame, WireError, MAX_RESPONSE_PAYLOAD};
use crate::NetError;

/// Client tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read/write timeout per request.
    pub request_timeout: Duration,
    /// First reconnect backoff delay; doubles per consecutive failure.
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_max: Duration,
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// Cap on one response frame's payload (checkpoints come back large).
    pub max_response_payload: usize,
    /// Name sent in the `Hello` handshake after every (re)connect.
    pub client_name: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            reconnect_base: Duration::from_millis(50),
            reconnect_max: Duration::from_secs(2),
            max_attempts: 4,
            max_response_payload: MAX_RESPONSE_PAYLOAD,
            client_name: "netserve-client".into(),
        }
    }
}

/// What the server said hello back with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Server protocol version.
    pub version: u8,
    /// Shard (worker) count.
    pub shards: u16,
    /// Streams registered at handshake time.
    pub streams: u64,
}

/// A blocking client for one netserve server.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<TcpStream>,
    next_request_id: u64,
    /// Result of the most recent `Hello` handshake.
    server: Option<ServerInfo>,
    /// Consecutive connect failures, drives the backoff exponent.
    connect_failures: u32,
}

impl Client {
    /// Resolves `addr` and connects (including the `Hello` handshake).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] when resolution or the first connection
    /// fails, or any handshake-level error.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| NetError::Io(format!("resolve: {e}")))?
            .next()
            .ok_or_else(|| NetError::Io("address resolved to nothing".into()))?;
        let mut client = Client {
            addr,
            config,
            conn: None,
            next_request_id: 1,
            server: None,
            connect_failures: 0,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// The server-reported shape from the most recent handshake.
    pub fn server_info(&self) -> Option<ServerInfo> {
        self.server
    }

    fn ensure_connected(&mut self) -> Result<(), NetError> {
        if self.conn.is_some() {
            return Ok(());
        }
        if self.connect_failures > 0 {
            let exp = (self.connect_failures - 1).min(16);
            let delay = self
                .config
                .reconnect_base
                .saturating_mul(1u32 << exp)
                .min(self.config.reconnect_max);
            std::thread::sleep(delay);
        }
        let stream =
            TcpStream::connect_timeout(&self.addr, self.config.connect_timeout).map_err(|e| {
                self.connect_failures += 1;
                NetError::Io(format!("connect {}: {e}", self.addr))
            })?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.config.request_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.request_timeout)))
            .map_err(|e| NetError::Io(format!("set timeouts: {e}")))?;
        self.conn = Some(stream);
        // Handshake on the fresh connection; failure drops it again.
        let name = self.config.client_name.clone();
        match self.roundtrip(&Request::Hello { client: name }) {
            Ok(Response::Hello { version, shards, streams }) => {
                self.connect_failures = 0;
                self.server = Some(ServerInfo { version, shards, streams });
                Ok(())
            }
            Ok(other) => {
                self.conn = None;
                self.connect_failures += 1;
                Err(NetError::Protocol(format!("hello answered with {other:?}")))
            }
            Err(e) => {
                self.conn = None;
                self.connect_failures += 1;
                Err(e)
            }
        }
    }

    /// One send/receive on the current connection, no retry logic.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, NetError> {
        let stream = self.conn.as_mut().expect("roundtrip requires a connection");
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let frame =
            Frame { opcode: request.opcode() as u8, request_id, payload: request.encode_payload() };
        wire::write_frame(stream, &frame).map_err(wire_to_net)?;
        let reply =
            wire::read_frame(stream, self.config.max_response_payload).map_err(wire_to_net)?;
        // request_id 0 marks a connection-level error (e.g. the acceptor
        // refusing an over-limit connection before any request was read).
        if reply.request_id != request_id && reply.request_id != 0 {
            return Err(NetError::Protocol(format!(
                "response correlates to request {} but {} is in flight",
                reply.request_id, request_id
            )));
        }
        let response =
            Response::decode(reply.opcode, &reply.payload).map_err(NetError::Protocol)?;
        if let Response::Error { code, detail } = response {
            return Err(NetError::Server { code, detail });
        }
        if reply.request_id == 0 {
            return Err(NetError::Protocol(format!(
                "unsolicited non-error response: {response:?}"
            )));
        }
        Ok(response)
    }

    /// Sends a request, reconnecting with exponential backoff on I/O
    /// failures, up to `max_attempts` total attempts.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] for typed server errors (no retry),
    /// [`NetError::Io`] once attempts are exhausted, [`NetError::Protocol`]
    /// for undecodable or mis-correlated responses.
    pub fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        let mut last = None;
        for _ in 0..self.config.max_attempts.max(1) {
            if let Err(e) = self.ensure_connected() {
                last = Some(e);
                continue;
            }
            match self.roundtrip(request) {
                Ok(resp) => return Ok(resp),
                Err(e @ (NetError::Server { .. } | NetError::Protocol(_))) => return Err(e),
                Err(e) => {
                    // I/O failure: the connection is suspect. Drop it and
                    // let the next attempt reconnect under backoff.
                    self.conn = None;
                    self.connect_failures += 1;
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(|| NetError::Io("no attempts made".into())))
    }

    fn expect<T>(
        &mut self,
        request: &Request,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T, NetError> {
        let response = self.request(request)?;
        let desc = format!("{response:?}");
        extract(response)
            .ok_or_else(|| NetError::Protocol(format!("mismatched response kind: {desc}")))
    }

    /// Registers `id` with the server's default stream configuration.
    pub fn register(&mut self, id: u64) -> Result<(), NetError> {
        self.expect(&Request::Register { id }, |r| matches!(r, Response::Register).then_some(()))
    }

    /// Registers `id` with explicit tuning.
    pub fn register_with(&mut self, id: u64, tuning: StreamTuning) -> Result<(), NetError> {
        self.expect(&Request::RegisterWith { id, tuning }, |r| {
            matches!(r, Response::RegisterWith).then_some(())
        })
    }

    /// Pushes one auto-clocked sample.
    pub fn push(&mut self, id: u64, value: f64) -> Result<PushOutcome, NetError> {
        self.expect(&Request::Push { id, minute: None, value }, |r| match r {
            Response::Push(o) => Some(o),
            _ => None,
        })
    }

    /// Pushes one sample with an explicit minute timestamp.
    pub fn push_at(&mut self, id: u64, minute: u64, value: f64) -> Result<PushOutcome, NetError> {
        self.expect(&Request::Push { id, minute: Some(minute), value }, |r| match r {
            Response::Push(o) => Some(o),
            _ => None,
        })
    }

    /// Pushes a batch of auto-clocked samples in one round trip — the bulk
    /// ingestion path; per-sample outcomes come back in the [`PushOutcome`]
    /// counts.
    pub fn push_batch(&mut self, samples: &[(u64, f64)]) -> Result<PushOutcome, NetError> {
        self.expect(&Request::PushBatch { samples: samples.to_vec() }, |r| match r {
            Response::PushBatch(o) => Some(o),
            _ => None,
        })
    }

    /// Pushes sequenced auto-clocked samples under this client's name
    /// ([`ClientConfig::client_name`]). The server drops samples whose
    /// `seq` it already applied, so the at-least-once retry of this client
    /// becomes exactly-once ingestion; the outcome echoes each touched
    /// stream's highest applied sequence.
    pub fn push_seq(&mut self, samples: &[(u64, u64, f64)]) -> Result<PushSeqOutcome, NetError> {
        let client = self.config.client_name.clone();
        self.expect(&Request::PushSeq { client, samples: samples.to_vec() }, |r| match r {
            Response::PushSeq(o) => Some(o),
            _ => None,
        })
    }

    /// Reads the node's current cluster ring: `(version, encoded ring)`.
    pub fn ring_info(&mut self) -> Result<(u64, Vec<u8>), NetError> {
        self.expect(&Request::RingInfo, |r| match r {
            Response::Ring { version, blob } => Some((version, blob)),
            _ => None,
        })
    }

    /// Installs a new cluster ring on the node.
    pub fn ring_update(&mut self, version: u64, blob: Vec<u8>) -> Result<(), NetError> {
        self.expect(&Request::RingUpdate { version, blob }, |r| {
            matches!(r, Response::RingUpdate).then_some(())
        })
    }

    /// Fences `id` on the losing node (redirecting new pushes to `dest`)
    /// and exports its state: `(next_minute, dedup floor, snapshot)`.
    pub fn migrate_out(&mut self, id: u64, dest: &str) -> Result<(u64, u64, Vec<u8>), NetError> {
        self.expect(&Request::MigrateOut { id, dest: dest.into() }, |r| match r {
            Response::MigrateOut { next_minute, floor, snapshot } => {
                Some((next_minute, floor, snapshot))
            }
            _ => None,
        })
    }

    /// Imports a migrated stream on the gaining node.
    pub fn migrate_in(
        &mut self,
        id: u64,
        next_minute: u64,
        floor: u64,
        snapshot: Vec<u8>,
    ) -> Result<(), NetError> {
        self.expect(&Request::MigrateIn { id, next_minute, floor, snapshot }, |r| {
            matches!(r, Response::MigrateIn).then_some(())
        })
    }

    /// Delivers one warm-standby feed chunk to the node.
    pub fn standby_feed(&mut self, payload: Vec<u8>) -> Result<(), NetError> {
        self.expect(&Request::StandbyFeed { payload }, |r| {
            matches!(r, Response::StandbyFeed).then_some(())
        })
    }

    /// Reads `id`'s latest forecast and health.
    pub fn predict(&mut self, id: u64) -> Result<PredictReply, NetError> {
        self.expect(&Request::Predict { id }, |r| match r {
            Response::Predict(p) => Some(p),
            _ => None,
        })
    }

    /// Reads `id`'s full serving view.
    pub fn stream_info(&mut self, id: u64) -> Result<StreamInfoReply, NetError> {
        self.expect(&Request::StreamInfo { id }, |r| match r {
            Response::StreamInfo(s) => Some(s),
            _ => None,
        })
    }

    /// Reads the fleet-wide health rollup.
    pub fn health(&mut self) -> Result<HealthReply, NetError> {
        self.expect(&Request::Health, |r| match r {
            Response::Health(h) => Some(h),
            _ => None,
        })
    }

    /// Downloads a full fleet checkpoint (FLEETCKP bytes, restorable via
    /// `FleetEngine::restore`).
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, NetError> {
        self.expect(&Request::Checkpoint, |r| match r {
            Response::Checkpoint(b) => Some(b),
            _ => None,
        })
    }

    /// Evicts `id`.
    pub fn evict(&mut self, id: u64) -> Result<(), NetError> {
        self.expect(&Request::Evict { id }, |r| matches!(r, Response::Evict).then_some(()))
    }

    /// Asks the server to shut down gracefully. The acknowledgement is the
    /// last frame this connection will carry.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let result =
            self.expect(&Request::Shutdown, |r| matches!(r, Response::Shutdown).then_some(()));
        // The server closes after acking; don't try to reuse the socket.
        self.conn = None;
        result
    }
}

fn wire_to_net(e: WireError) -> NetError {
    match e {
        WireError::Io(io) => NetError::Io(io.to_string()),
        WireError::Closed => NetError::Io("connection closed by server".into()),
        other => NetError::Protocol(other.to_string()),
    }
}
