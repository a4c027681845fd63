//! The TCP server: a reactor-backed, event-driven serving path.
//!
//! One [`Server`] fronts one shared [`FleetEngine`]. Instead of a thread
//! per connection, a [`reactor::Reactor`] multiplexes every connection
//! across a small set of per-core event loops: the listener is registered
//! in every loop with `EPOLLEXCLUSIVE` (sharded accept), connections are
//! placed round-robin, and each one runs an edge-triggered state machine —
//! read buffer → streaming zero-copy frame decode ([`wire::decode_ref`]) →
//! engine dispatch → response queue flushed with vectored writes. Write
//! backpressure parks output and re-registers interest; idle connections
//! are reaped off a timer wheel; pipelining works because responses are
//! queued in request order.
//!
//! A full engine queue blocks the push until a drainer makes room, so every
//! sample is accepted and none is lost; the acks' `rejected` and `dropped`
//! counts are always 0.
//!
//! A server started over a recovered engine arms the sequenced-push dedup
//! floor of every stream it holds at the stream's `next_minute`, so a
//! `PushSeq` retried across the restart is not applied twice.
//!
//! Shutdown (via [`Server::shutdown`] or the wire `Shutdown` opcode) is a
//! reactor drain: listeners deregister, every connection's queued
//! responses are flushed before its close, loops join, and the engine's
//! `flush_durable` runs so every accepted sample is processed and fsynced.

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use fleet::{DrainToken, FleetEngine, FleetError, StreamConfig};
use obs::{Counter, EventKind, EventRing, Gauge, Histogram};
use reactor::{
    AcceptDecision, CloseReason, ConnCtx, Handler, Reactor, ReactorBuilder, ReactorConfig, Verdict,
};

use crate::cluster::{ClusterHooks, PushDedup};
use crate::msg::{
    ErrorCode, HealthReply, OpCode, PredictReply, PushSeqOutcome, Request, Response,
    StreamInfoReply,
};
use crate::wire::{self, WireError, MAX_REQUEST_PAYLOAD, PROTOCOL_VERSION};
use crate::{http, NetError};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address for the binary protocol; port 0 picks an ephemeral port
    /// (read it back from [`Server::addr`]).
    pub addr: String,
    /// Bind address for the HTTP observability shim (`/metrics`,
    /// `/healthz`); `None` disables it.
    pub http_addr: Option<String>,
    /// Maximum concurrently-open protocol connections; further clients get
    /// a [`ErrorCode::TooManyConnections`] error and are closed.
    pub max_connections: usize,
    /// Stream configuration used by `Register` and as the base that
    /// `RegisterWith` tuning is applied onto.
    pub stream_defaults: StreamConfig,
    /// Reap protocol connections that send nothing for this long. A peer
    /// that trickle-reads a response without ever draining it counts as
    /// idle too — slow readers cannot pin buffers forever. `None` disables
    /// reaping.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            max_connections: 64,
            stream_defaults: StreamConfig::default(),
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Per-opcode, connection-level, and reactor instrumentation, registered
/// on the engine's registry so one scrape covers engine and network.
pub(crate) struct NetObs {
    pub(crate) op_total: [Counter; OpCode::ALL.len()],
    pub(crate) request_us: Histogram,
    pub(crate) connections: Gauge,
    pub(crate) connections_total: Counter,
    pub(crate) conn_rejected: Counter,
    pub(crate) errors: Counter,
    pub(crate) malformed: Counter,
    pub(crate) disconnects: Counter,
    pub(crate) idle_reaped: Counter,
    pub(crate) http_requests: Counter,
    /// Time spent in `epoll_wait` when it returned work.
    pub(crate) poll_us: Histogram,
    /// Per-flush socket write latency.
    pub(crate) flush_us: Histogram,
    pub(crate) flush_bytes: Counter,
    pub(crate) readiness_events: Counter,
    pub(crate) backpressure: Counter,
    /// Open connections per event loop (accept-shard balance).
    pub(crate) loop_connections: Vec<Gauge>,
}

impl NetObs {
    fn new(registry: &obs::Registry, loops: usize) -> Self {
        Self {
            op_total: OpCode::ALL
                .map(|op| registry.counter(&format!("net_op_{}_total", op.name()))),
            request_us: registry.histogram("net_request_us"),
            connections: registry.gauge("net_connections"),
            connections_total: registry.counter("net_connections_total"),
            conn_rejected: registry.counter("net_conn_rejected_total"),
            errors: registry.counter("net_errors_total"),
            malformed: registry.counter("net_malformed_frames_total"),
            disconnects: registry.counter("net_disconnects_total"),
            idle_reaped: registry.counter("net_idle_reaped_total"),
            http_requests: registry.counter("net_http_requests_total"),
            poll_us: registry.histogram("reactor_poll_us"),
            flush_us: registry.histogram("reactor_flush_us"),
            flush_bytes: registry.counter("reactor_flush_bytes_total"),
            readiness_events: registry.counter("reactor_events_total"),
            backpressure: registry.counter("reactor_backpressure_total"),
            loop_connections: (0..loops)
                .map(|i| registry.gauge(&format!("reactor_loop{i}_connections")))
                .collect(),
        }
    }
}

/// State shared by the protocol handlers, the HTTP shim, and the server
/// handle.
pub(crate) struct Shared {
    pub(crate) engine: Arc<FleetEngine>,
    pub(crate) config: ServerConfig,
    pub(crate) obs: NetObs,
    pub(crate) events: EventRing,
    pub(crate) shutdown: AtomicBool,
    open_conns: AtomicU64,
    addr: SocketAddr,
    pub(crate) http_addr: Option<SocketAddr>,
    /// Cluster-mode hooks (`None` on a plain server: no redirects, no ring).
    pub(crate) cluster: Option<Arc<dyn ClusterHooks>>,
    /// Migration fences: streams mid-`MigrateOut`, mapped to the gaining
    /// node's address. Stream-addressed requests hold `read()` across the
    /// engine call so `MigrateOut`'s `write()` + flush drains everything
    /// admitted before the fence; cleared on `RingUpdate`.
    pub(crate) fences: RwLock<HashMap<u64, String>>,
    /// Adopted streams: arrived via `MigrateIn` ahead of the ring update
    /// that will confirm this node as owner. Served here even while the
    /// installed ring still names the loser (otherwise a redirected
    /// client would ping-pong between the loser's fence and this node's
    /// stale ring); cleared on `RingUpdate`.
    pub(crate) adopted: RwLock<HashSet<u64>>,
    /// Sequenced-push dedup state (shared with the cluster node so
    /// failover can arm floors).
    pub(crate) dedup: Arc<PushDedup>,
}

impl Shared {
    pub(crate) fn open_connections(&self) -> u64 {
        self.open_conns.load(Ordering::Relaxed)
    }
}

/// Routes the reactor's loop instrumentation into the `obs` registry.
struct ReactorObs {
    shared: Arc<Shared>,
}

impl reactor::Observer for ReactorObs {
    fn on_poll(&self, _loop_idx: usize, events: usize, wait_us: u64) {
        if events > 0 {
            self.shared.obs.poll_us.record(wait_us as f64);
            self.shared.obs.readiness_events.add(events as u64);
        }
    }
    fn on_flush(&self, _loop_idx: usize, bytes: usize, flush_us: u64) {
        self.shared.obs.flush_us.record(flush_us as f64);
        self.shared.obs.flush_bytes.add(bytes as u64);
    }
    fn on_conn_count(&self, loop_idx: usize, open: usize) {
        if let Some(g) = self.shared.obs.loop_connections.get(loop_idx) {
            g.set(open as f64);
        }
    }
    fn on_write_backpressure(&self, _loop_idx: usize) {
        self.shared.obs.backpressure.inc();
    }
}

/// Encodes a standalone typed-error frame.
fn error_frame(code: ErrorCode, detail: &str, request_id: u64) -> Vec<u8> {
    let resp = Response::Error { code, detail: detail.into() };
    wire::encode(&wire::Frame { opcode: resp.opcode(), request_id, payload: resp.encode_payload() })
}

/// The binary protocol's accept policy: connection cap and shutdown
/// refusals, gauge and event bookkeeping.
struct ProtoService {
    shared: Arc<Shared>,
}

impl reactor::Service for ProtoService {
    fn on_accept(&self, conn_id: u64, _peer: SocketAddr) -> AcceptDecision {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) {
            return AcceptDecision::Reject(error_frame(
                ErrorCode::ShuttingDown,
                "server is shutting down",
                0,
            ));
        }
        if shared.open_conns.load(Ordering::Relaxed) >= shared.config.max_connections as u64 {
            shared.obs.conn_rejected.inc();
            return AcceptDecision::Reject(error_frame(
                ErrorCode::TooManyConnections,
                "connection limit reached",
                0,
            ));
        }
        let n = shared.open_conns.fetch_add(1, Ordering::Relaxed) + 1;
        shared.obs.connections.set(n as f64);
        shared.obs.connections_total.inc();
        shared.events.push(None, EventKind::NetConnOpened { conn: conn_id });
        AcceptDecision::Accept(Box::new(ProtoConn {
            shared: Arc::clone(shared),
            conn_id,
            requests: 0,
            mid_frame: false,
            pending: DrainToken::default(),
        }))
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.shared.config.idle_timeout
    }
}

/// One protocol connection's state machine: streaming decode off the
/// reactor's read buffer, dispatch, responses queued in request order.
struct ProtoConn {
    shared: Arc<Shared>,
    conn_id: u64,
    requests: u64,
    /// The buffer currently ends inside a frame — an EOF now is a
    /// mid-frame disconnect, not a clean close.
    mid_frame: bool,
    /// The drain of pushes admitted and acked since the last flush. Dropped
    /// once their replies are flushed (or the connection closes), so a
    /// small push is applied on this loop's thread after its ack leaves.
    pending: DrainToken,
}

impl Handler for ProtoConn {
    fn on_readable(&mut self, conn: &mut ConnCtx<'_>) -> Verdict {
        loop {
            let started = Instant::now();
            // The decode borrows the input buffer; everything that
            // outlives the borrow (response, consumed count) is owned.
            let step = match wire::decode_ref(conn.input(), MAX_REQUEST_PAYLOAD) {
                Ok(None) => {
                    self.mid_frame = !conn.input().is_empty();
                    return Verdict::Continue;
                }
                Ok(Some((frame, used))) => {
                    let request_id = frame.request_id;
                    let (response, after) =
                        dispatch(&self.shared, frame.opcode, frame.payload, &mut self.pending);
                    Ok((request_id, response, after, used))
                }
                Err(e) => Err(e),
            };
            match step {
                Ok((request_id, response, after, used)) => {
                    self.requests += 1;
                    self.mid_frame = false;
                    conn.consume(used);
                    if matches!(response, Response::Error { .. }) {
                        self.shared.obs.errors.inc();
                    }
                    conn.write(wire::encode(&wire::Frame {
                        opcode: response.opcode(),
                        request_id,
                        payload: response.encode_payload(),
                    }));
                    self.shared.obs.request_us.record(started.elapsed().as_micros() as f64);
                    match after {
                        AfterReply::Continue => {}
                        AfterReply::Close => return Verdict::Close,
                        AfterReply::ShutdownServer => {
                            // Mirror the flag before the reactor drain so
                            // `is_shutting_down` and `/healthz` agree.
                            self.shared.shutdown.store(true, Ordering::SeqCst);
                            return Verdict::Shutdown;
                        }
                    }
                }
                Err(e) => {
                    // Undecodable frame: answer with a typed error on the
                    // connection-level id 0, then close — after a framing
                    // error the byte stream cannot be trusted.
                    let code = match e {
                        WireError::TooLarge { .. } => ErrorCode::PayloadTooLarge,
                        WireError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                        _ => ErrorCode::BadFrame,
                    };
                    self.shared.obs.malformed.inc();
                    self.shared.events.push(
                        None,
                        EventKind::NetMalformedFrame { conn: self.conn_id, code: code as u64 },
                    );
                    conn.write(error_frame(code, &e.to_string(), 0));
                    return Verdict::Close;
                }
            }
        }
    }

    fn after_flush(&mut self) {
        drop(std::mem::take(&mut self.pending));
    }

    fn on_close(&mut self, reason: CloseReason) {
        // A connection that errors, closes or shuts down mid-request still
        // applies what it admitted.
        drop(std::mem::take(&mut self.pending));
        match reason {
            CloseReason::Error => self.shared.obs.disconnects.inc(),
            CloseReason::PeerClosed if self.mid_frame => self.shared.obs.disconnects.inc(),
            CloseReason::IdleTimeout => self.shared.obs.idle_reaped.inc(),
            _ => {}
        }
        let n = self.shared.open_conns.fetch_sub(1, Ordering::Relaxed) - 1;
        self.shared.obs.connections.set(n as f64);
        self.shared
            .events
            .push(None, EventKind::NetConnClosed { conn: self.conn_id, requests: self.requests });
    }
}

/// A running network server over one [`FleetEngine`].
pub struct Server {
    shared: Arc<Shared>,
    reactor: Option<Reactor>,
}

impl Server {
    /// Binds both listeners and starts the reactor's event loops (the HTTP
    /// shim, if configured, rides the same loops as a second listener).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if a bind or the reactor start fails.
    pub fn start(engine: Arc<FleetEngine>, config: ServerConfig) -> Result<Server, NetError> {
        Server::start_inner(engine, config, None, Arc::new(PushDedup::new()))
    }

    /// Starts a cluster-mode server: stream-addressed requests are checked
    /// against `hooks`' ring (answering [`ErrorCode::NotOwner`] with the
    /// owner's address), `RingInfo`/`RingUpdate`/`StandbyFeed` are served
    /// through the hooks, and `dedup` — shared with the caller so failover
    /// can arm floors — screens sequenced pushes.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if a bind or the reactor start fails.
    pub fn start_clustered(
        engine: Arc<FleetEngine>,
        config: ServerConfig,
        hooks: Arc<dyn ClusterHooks>,
        dedup: Arc<PushDedup>,
    ) -> Result<Server, NetError> {
        Server::start_inner(engine, config, Some(hooks), dedup)
    }

    fn start_inner(
        engine: Arc<FleetEngine>,
        config: ServerConfig,
        cluster: Option<Arc<dyn ClusterHooks>>,
        dedup: Arc<PushDedup>,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| NetError::Io(format!("bind {}: {e}", config.addr)))?;
        let addr = listener.local_addr().map_err(|e| NetError::Io(e.to_string()))?;
        let http_listener = match &config.http_addr {
            Some(a) => Some(
                TcpListener::bind(a).map_err(|e| NetError::Io(format!("bind http {a}: {e}")))?,
            ),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(l) => Some(l.local_addr().map_err(|e| NetError::Io(e.to_string()))?),
            None => None,
        };

        // Samples the engine already holds count as applied: a `PushSeq`
        // retried across a restart must not apply them twice. Sequences
        // count a stream's samples from 1, so the floor is `next_minute`,
        // the rule migration and failover takeover use too.
        for (id, next_minute) in engine.stream_clocks() {
            if next_minute > 0 {
                dedup.set_floor(id, next_minute);
            }
        }
        let reactor_config = ReactorConfig::default();
        let obs = NetObs::new(engine.registry(), reactor_config.resolved_loops());
        let events = engine.events().clone();
        let shared = Arc::new(Shared {
            engine,
            config,
            obs,
            events,
            shutdown: AtomicBool::new(false),
            open_conns: AtomicU64::new(0),
            addr,
            http_addr,
            cluster,
            fences: RwLock::new(HashMap::new()),
            adopted: RwLock::new(HashSet::new()),
            dedup,
        });

        let io_err = |e: std::io::Error| NetError::Io(format!("reactor: {e}"));
        let mut builder = ReactorBuilder::new(reactor_config)
            .listen(listener, Arc::new(ProtoService { shared: Arc::clone(&shared) }))
            .map_err(io_err)?;
        if let Some(l) = http_listener {
            builder = builder
                .listen(l, Arc::new(http::HttpService { shared: Arc::clone(&shared) }))
                .map_err(io_err)?;
        }
        let reactor = builder
            .observer(Arc::new(ReactorObs { shared: Arc::clone(&shared) }))
            .start()
            .map_err(io_err)?;
        Ok(Server { shared, reactor: Some(reactor) })
    }

    /// The bound protocol address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound HTTP shim address, if enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.shared.http_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<FleetEngine> {
        &self.shared.engine
    }

    /// Currently open protocol connections.
    pub fn open_connections(&self) -> u64 {
        self.shared.open_connections()
    }

    /// Whether shutdown has begun (via [`Server::shutdown`] or the wire
    /// `Shutdown` opcode).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Gracefully stops the server: the reactor deregisters its listeners,
    /// flushes every connection's queued responses, closes them, and its
    /// loops join; then the engine drains to durable state. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(mut reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        // Drain to durable state: flush_durable pushes every queued sample
        // through the serving slots and the trace store, then fsyncs the WAL
        // (a plain flush on engines without durability). A failed fsync here
        // has no client left to tell, so it surfaces on `net_errors_total`.
        if self.shared.engine.flush_durable().is_err() {
            self.shared.obs.errors.inc();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the connection state machine does after queueing the response.
enum AfterReply {
    Continue,
    Close,
    ShutdownServer,
}

/// `Some(owner_addr)` when this node must not serve `id`: a migration
/// fence wins over the ring (the handoff runs ahead of the ring update).
fn not_owner(shared: &Shared, fences: &HashMap<u64, String>, id: u64) -> Option<String> {
    let adopted = shared.adopted.read().expect("adopted");
    owner_elsewhere(shared.cluster.as_deref(), fences, &adopted, id)
}

/// [`not_owner`] over already-locked fences and adoptions.
fn owner_elsewhere(
    cluster: Option<&dyn ClusterHooks>,
    fences: &HashMap<u64, String>,
    adopted: &HashSet<u64>,
    id: u64,
) -> Option<String> {
    if let Some(dest) = fences.get(&id) {
        return Some(dest.clone());
    }
    if adopted.contains(&id) {
        return None;
    }
    cluster.and_then(|h| h.redirect(id))
}

/// The redirect for a batch: the owner of the smallest of its stream `ids`
/// this node must not serve, or `None` when it may serve them all. Without a
/// ring or a fence no stream can be redirected, so the scan is skipped.
fn batch_not_owner(
    shared: &Shared,
    fences: &HashMap<u64, String>,
    ids: impl Iterator<Item = u64>,
) -> Option<String> {
    let cluster = shared.cluster.as_deref();
    if cluster.is_none() && fences.is_empty() {
        return None;
    }
    let adopted = shared.adopted.read().expect("adopted");
    first_owner_elsewhere(cluster, fences, &adopted, ids)
}

/// The scan behind [`batch_not_owner`], in place over the batch's ids.
fn first_owner_elsewhere(
    cluster: Option<&dyn ClusterHooks>,
    fences: &HashMap<u64, String>,
    adopted: &HashSet<u64>,
    ids: impl Iterator<Item = u64>,
) -> Option<String> {
    let mut found: Option<(u64, String)> = None;
    for id in ids {
        if found.as_ref().is_some_and(|(min, _)| *min <= id) {
            continue;
        }
        if let Some(owner) = owner_elsewhere(cluster, fences, adopted, id) {
            found = Some((id, owner));
        }
    }
    found.map(|(_, owner)| owner)
}

fn not_clustered() -> Response {
    Response::Error {
        code: ErrorCode::InvalidConfig,
        detail: "server is not running in cluster mode".into(),
    }
}

/// Decodes and serves one request against the engine. Pushes are admitted
/// and acked here; their drains merge into `drain`, which the connection
/// drops once the reply is flushed.
fn dispatch(
    shared: &Shared,
    opcode: u8,
    payload: &[u8],
    drain: &mut DrainToken,
) -> (Response, AfterReply) {
    if shared.shutdown.load(Ordering::SeqCst) {
        let resp = Response::Error {
            code: ErrorCode::ShuttingDown,
            detail: "server is shutting down".into(),
        };
        return (resp, AfterReply::Close);
    }
    let request = match Request::decode(opcode, payload) {
        Ok(r) => r,
        Err((code, detail)) => {
            if code == ErrorCode::MalformedPayload {
                shared.obs.malformed.inc();
            }
            return (Response::Error { code, detail }, AfterReply::Continue);
        }
    };
    shared.obs.op_total
        [OpCode::ALL.iter().position(|op| *op == request.opcode()).expect("opcode is in table")]
    .inc();

    let engine = &shared.engine;
    let fleet_err = |e: FleetError| {
        let code = match &e {
            FleetError::UnknownStream(_) => ErrorCode::UnknownStream,
            FleetError::DuplicateStream(_) => ErrorCode::DuplicateStream,
            FleetError::InvalidConfig(_) => ErrorCode::InvalidConfig,
            FleetError::Checkpoint(_) => ErrorCode::Checkpoint,
            FleetError::Serving(_) => ErrorCode::Internal,
            FleetError::Durability(_) => ErrorCode::Durability,
        };
        Response::Error { code, detail: e.to_string() }
    };

    let response = match request {
        Request::Hello { .. } => Response::Hello {
            version: PROTOCOL_VERSION,
            shards: engine.config().shards as u16,
            streams: engine.stream_count() as u64,
        },
        Request::Register { id } => {
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = not_owner(shared, &fences, id) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                match engine.register_with(id, &shared.config.stream_defaults) {
                    Ok(()) => Response::Register,
                    Err(e) => fleet_err(e),
                }
            }
        }
        Request::RegisterWith { id, tuning } => {
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = not_owner(shared, &fences, id) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                let config = StreamConfig {
                    train_size: tuning.train_size as usize,
                    qa_window: tuning.qa_window as usize,
                    qa_period: tuning.qa_period as usize,
                    qa_threshold: tuning.qa_threshold,
                    ..shared.config.stream_defaults.clone()
                };
                match engine.register_with(id, &config) {
                    Ok(()) => Response::RegisterWith,
                    Err(e) => fleet_err(e),
                }
            }
        }
        Request::Push { id, minute, value } => {
            // The fence guard is held across the engine call: a concurrent
            // MigrateOut cannot cut its snapshot between our check and our
            // enqueue.
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = not_owner(shared, &fences, id) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                let (report, token) = match minute {
                    Some(m) => engine.admit_at(id, m, value),
                    None => engine.admit_batch(&[(id, value)]),
                };
                drain.absorb(token);
                if report.wal_failed {
                    // The sample is being served from memory but its WAL
                    // append failed: the ack must say so, or the client would
                    // treat a non-durable write as crash-safe.
                    Response::Error {
                        code: ErrorCode::Durability,
                        detail: format!(
                            "stream {id}: accepted but WAL append failed (not durable)"
                        ),
                    }
                } else {
                    Response::Push(report.into())
                }
            }
        }
        Request::PushBatch { samples } => {
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = batch_not_owner(shared, &fences, samples.iter().map(|s| s.0)) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                let (report, token) = engine.admit_batch(&samples);
                drain.absorb(token);
                if report.wal_failed {
                    Response::Error {
                        code: ErrorCode::Durability,
                        detail: format!(
                            "{} samples accepted but WAL append failed (not durable)",
                            report.accepted
                        ),
                    }
                } else {
                    Response::PushBatch(report.into())
                }
            }
        }
        Request::PushSeq { client, samples } => {
            let fences = shared.fences.read().expect("fences");
            // Any fenced or unowned stream fails the whole batch: the
            // cluster client groups batches by owner, so a hit means its
            // ring is stale and the batch must be re-routed wholesale.
            if let Some(owner) = batch_not_owner(shared, &fences, samples.iter().map(|s| s.0)) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                let admission = shared.dedup.screen(&client, &samples);
                let (report, token) = engine.admit_batch(&admission.admitted);
                drain.absorb(token);
                // The engine accepts every admitted sample, so the dedup
                // cursor advances past the whole admission.
                shared.dedup.commit(&admission);
                drop(fences);
                if report.wal_failed {
                    Response::Error {
                        code: ErrorCode::Durability,
                        detail: format!(
                            "{} samples accepted but WAL append failed (not durable)",
                            report.accepted
                        ),
                    }
                } else {
                    let mut last_seqs: Vec<(u64, u64)> = samples.iter().map(|s| (s.0, 0)).collect();
                    last_seqs.sort_unstable_by_key(|&(id, _)| id);
                    last_seqs.dedup_by_key(|&mut (id, _)| id);
                    for (id, seq) in &mut last_seqs {
                        *seq = shared.dedup.last_seq(&client, *id);
                    }
                    Response::PushSeq(PushSeqOutcome {
                        outcome: report.into(),
                        deduped: admission.deduped,
                        last_seqs,
                    })
                }
            }
        }
        Request::Predict { id } => {
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = not_owner(shared, &fences, id) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                match engine.stream_info(id) {
                    Ok(info) => Response::Predict(PredictReply {
                        forecast: info.last_forecast,
                        health: info.health,
                        steps: info.steps,
                        forecasts: info.forecasts,
                    }),
                    Err(e) => fleet_err(e),
                }
            }
        }
        Request::StreamInfo { id } => {
            let fences = shared.fences.read().expect("fences");
            if let Some(owner) = not_owner(shared, &fences, id) {
                Response::Error { code: ErrorCode::NotOwner, detail: owner }
            } else {
                match engine.stream_info(id) {
                    Ok(info) => Response::StreamInfo(StreamInfoReply {
                        shard: info.shard as u32,
                        steps: info.steps,
                        forecasts: info.forecasts,
                        next_minute: info.next_minute,
                        health: info.health,
                        last_forecast: info.last_forecast,
                        retrains: info.retrains as u64,
                    }),
                    Err(e) => fleet_err(e),
                }
            }
        }
        Request::Health => {
            let h = engine.health();
            Response::Health(HealthReply {
                streams: h.streams as u64,
                shards: engine.config().shards as u16,
                pushes: h.pushes.into(),
                steps: h.steps,
                forecasts: h.forecasts,
                nonfinite_forecasts: h.nonfinite_forecasts,
                retrains: h.retrains,
                degraded_streams: h.degraded_streams() as u64,
                quarantined_streams: h.quarantined_streams() as u64,
                queue_depth: h.shards.iter().map(|s| s.queue_depth as u64).sum(),
                unknown_dropped: h.unknown_dropped(),
            })
        }
        Request::Checkpoint => Response::Checkpoint(engine.checkpoint()),
        // Evict is exempt from fence/ring checks: it is the migration
        // coordinator's cleanup on the losing node.
        Request::Evict { id } => match engine.evict(id) {
            Ok(()) => Response::Evict,
            Err(e) => fleet_err(e),
        },
        Request::Shutdown => return (Response::Shutdown, AfterReply::ShutdownServer),
        Request::RingInfo => match &shared.cluster {
            Some(h) => Response::Ring { version: h.ring_version(), blob: h.ring_blob() },
            None => not_clustered(),
        },
        Request::RingUpdate { version, blob } => match &shared.cluster {
            Some(h) => match h.ring_update(version, &blob) {
                Ok(()) => {
                    // The new ring supersedes every handoff override,
                    // redirects and adoptions alike.
                    shared.fences.write().expect("fences").clear();
                    shared.adopted.write().expect("adopted").clear();
                    Response::RingUpdate
                }
                Err(m) => Response::Error { code: ErrorCode::InvalidConfig, detail: m },
            },
            None => not_clustered(),
        },
        Request::MigrateOut { id, dest } => {
            // Fence before the flush: pushes that held read() have already
            // enqueued and drain into the snapshot; everything later is
            // redirected at `dest`.
            shared.fences.write().expect("fences").insert(id, dest);
            engine.flush();
            match engine.export_stream(id) {
                Ok((next_minute, snapshot)) => {
                    let floor = next_minute.max(shared.dedup.floor_of(id));
                    Response::MigrateOut { next_minute, floor, snapshot }
                }
                Err(e) => {
                    shared.fences.write().expect("fences").remove(&id);
                    fleet_err(e)
                }
            }
        }
        Request::MigrateIn { id, next_minute, floor, snapshot } => {
            match engine.import_stream(id, next_minute, &snapshot) {
                // A duplicate means a coordinator retry after a lost ack:
                // the stream is already here, the request is idempotent.
                Ok(()) | Err(fleet::FleetError::DuplicateStream(_)) => {
                    shared.dedup.set_floor(id, floor);
                    shared.adopted.write().expect("adopted").insert(id);
                    Response::MigrateIn
                }
                Err(e) => fleet_err(e),
            }
        }
        Request::StandbyFeed { payload } => match &shared.cluster {
            Some(h) => match h.standby_feed(&payload) {
                Ok(()) => Response::StandbyFeed,
                Err(m) => Response::Error { code: ErrorCode::Internal, detail: m },
            },
            None => not_clustered(),
        },
    };
    (response, AfterReply::Continue)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_redirect_names_the_owner_of_the_smallest_fenced_id() {
        let fences: HashMap<u64, String> =
            [(9, "10.0.0.2:7000".to_string()), (4, "10.0.0.3:7000".to_string())].into();
        let adopted = HashSet::new();
        let owner =
            |ids: &[u64]| first_owner_elsewhere(None, &fences, &adopted, ids.iter().copied());
        // Two fenced ids with different destinations: the smallest id's
        // destination is reported, wherever it sits in the batch.
        assert_eq!(owner(&[12, 9, 7, 4, 9]).as_deref(), Some("10.0.0.3:7000"));
        assert_eq!(owner(&[4, 12, 9]).as_deref(), Some("10.0.0.3:7000"));
        assert_eq!(owner(&[9, 12, 9]).as_deref(), Some("10.0.0.2:7000"));
        assert_eq!(owner(&[1, 2, 3]), None);
        assert_eq!(owner(&[]), None);
    }
}
