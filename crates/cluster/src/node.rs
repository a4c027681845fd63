//! A cluster node: a netserve server wired to ring hooks, a warm-standby
//! feeder, per-peer standby buffering, and failover takeover.
//!
//! Every node runs the same three roles at once:
//!
//! * **Owner** — serves the streams the installed ring places on it;
//!   anything else answers `NotOwner` with the owner's address.
//! * **Feeder** — a background thread periodically exports snapshot
//!   deltas ([`fleet::FleetEngine::export_dirty`]) plus its own WAL tail
//!   and streams them to the ring successor. The cursor only advances on
//!   a delivered cycle, so a failed send is re-sent, never skipped.
//! * **Standby** — buffers peers' feed chunks (snapshots by stream, WAL
//!   records by sequence). When a ring install declares a peer dead with
//!   this node as heir, the buffered snapshots are imported, the buffered
//!   WAL tail is merged with the dead peer's on-disk tail
//!   ([`store::read_tail`] — crash-left segments are readable), records
//!   beyond the snapshot cut are replayed, and dedup floors are armed so
//!   client retries of acked samples drop instead of double-applying.
//!
//! Takeover runs under the ring write lock *before* the new ring becomes
//! visible: a redirected client can never reach the heir ahead of the
//! state it was redirected for.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use fleet::{FleetEngine, FleetError, StreamConfig};
use larp::ResilienceConfig;
use netserve::{Client, ClientConfig, ClusterHooks, PushDedup, Server, ServerConfig};
use obs::{Counter, EventKind, Registry};
use store::WalRecord;

use crate::feed::{FeedChunk, MAX_CHUNK_BYTES};
use crate::ring::{HandoffKind, Ring};
use crate::ClusterError;

/// Configuration of one cluster node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Stable node name — its ring identity. Renaming moves its range.
    pub name: String,
    /// The netserve server configuration (bind address, stream defaults).
    pub server: ServerConfig,
    /// The fleet engine configuration. Durability is strongly recommended:
    /// without a WAL the standby feed degrades to snapshots only.
    pub fleet: fleet::FleetConfig,
    /// Warm-standby feed cadence; also the takeover gap's dominant term.
    pub standby_interval: Duration,
    /// Peers' WAL directories (`name → dir`) on a shared filesystem, used
    /// at takeover to close the gap between the last delivered feed cycle
    /// and the peer's death. Missing entries degrade to buffered feed
    /// state only.
    pub peer_wal_dirs: HashMap<String, PathBuf>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            name: "node".into(),
            server: ServerConfig { http_addr: None, ..ServerConfig::default() },
            fleet: fleet::FleetConfig::default(),
            standby_interval: Duration::from_millis(500),
            peer_wal_dirs: HashMap::new(),
        }
    }
}

/// A running cluster node (server + feeder + standby state).
pub struct ClusterNode {
    state: Arc<NodeState>,
    server: Server,
    feeder: Option<JoinHandle<()>>,
}

impl ClusterNode {
    /// Starts the node: builds the engine, starts a clustered server on
    /// it, and spawns the standby feeder. The node comes up ringless and
    /// serves everything until a ring is installed (over the wire or via
    /// [`ClusterNode::install_ring`]).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError`] for invalid fleet configuration or a bind
    /// failure.
    pub fn start(config: NodeConfig) -> Result<ClusterNode, ClusterError> {
        let engine = Arc::new(FleetEngine::new(config.fleet)?);
        let dedup = Arc::new(PushDedup::new());
        let metrics = ClusterMetrics::new(engine.registry());
        let state = Arc::new(NodeState {
            name: config.name,
            engine: Arc::clone(&engine),
            dedup: Arc::clone(&dedup),
            defaults: config.server.stream_defaults.clone(),
            peer_wal_dirs: config.peer_wal_dirs,
            ring: RwLock::new(None),
            standby: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            metrics,
        });
        let hooks: Arc<dyn ClusterHooks> = Arc::clone(&state) as Arc<dyn ClusterHooks>;
        let server = Server::start_clustered(engine, config.server, hooks, dedup)?;
        let feeder_state = Arc::clone(&state);
        let interval = config.standby_interval;
        let feeder = std::thread::Builder::new()
            .name(format!("standby-feeder-{}", state.name))
            .spawn(move || feeder_loop(&feeder_state, interval))
            .expect("spawn standby feeder");
        Ok(ClusterNode { state, server, feeder: Some(feeder) })
    }

    /// The node's name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The bound protocol address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// The node's fleet engine (tests and embedders).
    pub fn engine(&self) -> &Arc<FleetEngine> {
        &self.state.engine
    }

    /// Installs a ring locally — the same path a wire `RingUpdate` takes,
    /// including failover takeover when the ring names this node as a
    /// dead peer's heir.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Ring`] for a stale version or a failed
    /// takeover.
    pub fn install_ring(&self, ring: &Ring) -> Result<(), ClusterError> {
        self.state.ring_update(ring.version(), &ring.encode()).map_err(ClusterError::Ring)
    }

    /// Version of the installed ring (0 = none).
    pub fn ring_version(&self) -> u64 {
        self.state.ring_version()
    }

    /// Standby buffer summary per source: `(source, snapshots, wal
    /// records)` — test and dashboard introspection.
    pub fn standby_summary(&self) -> Vec<(String, usize, usize)> {
        let standby = self.state.standby.lock().expect("standby lock");
        let mut out: Vec<(String, usize, usize)> = standby
            .iter()
            .map(|(source, buf)| (source.clone(), buf.snapshots.len(), buf.wal.len()))
            .collect();
        out.sort();
        out
    }

    /// Stops the feeder and shuts the server down (drain + durable flush).
    pub fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.feeder.take() {
            let _ = handle.join();
        }
        self.server.shutdown();
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.feeder.take() {
            let _ = handle.join();
        }
    }
}

/// `cluster_*` metrics, registered on the engine's registry so one scrape
/// covers engine, network and cluster tiers.
struct ClusterMetrics {
    ring_updates: Counter,
    redirects: Counter,
    standby_chunks: Counter,
    standby_snapshots: Counter,
    standby_records: Counter,
    feed_cycles: Counter,
    feed_bytes: Counter,
    failover_streams: Counter,
    failover_replayed: Counter,
}

impl ClusterMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            ring_updates: registry.counter("cluster_ring_updates_total"),
            redirects: registry.counter("cluster_redirects_total"),
            standby_chunks: registry.counter("cluster_standby_chunks_total"),
            standby_snapshots: registry.counter("cluster_standby_snapshots_total"),
            standby_records: registry.counter("cluster_standby_records_total"),
            feed_cycles: registry.counter("cluster_feed_cycles_total"),
            feed_bytes: registry.counter("cluster_feed_bytes_total"),
            failover_streams: registry.counter("cluster_failover_streams_total"),
            failover_replayed: registry.counter("cluster_failover_replayed_total"),
        }
    }
}

/// Buffered standby state for one peer.
#[derive(Default)]
struct StandbyBuffer {
    /// Highest WAL sequence the buffered snapshots cover.
    covered_seq: u64,
    /// `stream → (next_minute, LARPSNAP blob)`, newest delta per stream.
    snapshots: HashMap<u64, (u64, Vec<u8>)>,
    /// Buffered WAL tail beyond the cut.
    wal: BTreeMap<u64, WalRecord>,
}

struct NodeState {
    name: String,
    engine: Arc<FleetEngine>,
    dedup: Arc<PushDedup>,
    defaults: StreamConfig,
    peer_wal_dirs: HashMap<String, PathBuf>,
    ring: RwLock<Option<Ring>>,
    standby: Mutex<HashMap<String, StandbyBuffer>>,
    stop: AtomicBool,
    metrics: ClusterMetrics,
}

impl ClusterHooks for NodeState {
    fn ring_version(&self) -> u64 {
        self.ring.read().expect("ring lock").as_ref().map(Ring::version).unwrap_or(0)
    }

    fn ring_blob(&self) -> Vec<u8> {
        self.ring.read().expect("ring lock").as_ref().map(Ring::encode).unwrap_or_default()
    }

    fn ring_update(&self, version: u64, blob: &[u8]) -> Result<(), String> {
        let ring = Ring::decode(blob).map_err(|e| e.to_string())?;
        if ring.version() != version {
            return Err(format!(
                "ring blob carries version {}, request says {version}",
                ring.version()
            ));
        }
        // The write lock is held across takeover on purpose: redirects
        // stall for the takeover's duration, so no request routed by the
        // new ring can reach this node before the inherited state does.
        let mut guard = self.ring.write().expect("ring lock");
        if let Some(current) = guard.as_ref() {
            if version <= current.version() {
                return Err(format!(
                    "stale ring: version {version} <= installed {}",
                    current.version()
                ));
            }
        }
        for (from, to, kind) in ring.inherited() {
            // A `Drained` edge means the coordinator already moved every
            // stream via MigrateOut/MigrateIn; replaying the loser's WAL
            // here would regress (or evict) state this node holds live.
            if to != &self.name || *kind != HandoffKind::Failed {
                continue;
            }
            // Only newly-dead direct feeders need materializing; edges
            // already present in the installed ring were handled when
            // they first appeared (or predate this node's lifetime, in
            // which case there is no standby state to materialize).
            let was_alive = guard.as_ref().map(|r| r.is_alive(from)).unwrap_or(false);
            if was_alive {
                let (streams, replayed) = self.take_over(from)?;
                self.metrics.failover_streams.add(streams);
                self.metrics.failover_replayed.add(replayed);
                self.engine.events().push(None, EventKind::FailoverTakeover { streams, replayed });
            }
        }
        let adopted = ring.version();
        *guard = Some(ring);
        drop(guard);
        self.metrics.ring_updates.inc();
        self.engine.events().push(None, EventKind::RingUpdated { version: adopted });
        Ok(())
    }

    fn redirect(&self, stream: u64) -> Option<String> {
        let guard = self.ring.read().expect("ring lock");
        let ring = guard.as_ref()?;
        let owner = ring.owner_of(stream);
        if owner.name == self.name {
            None
        } else {
            self.metrics.redirects.inc();
            Some(owner.addr.clone())
        }
    }

    fn standby_feed(&self, payload: &[u8]) -> Result<(), String> {
        let chunk = FeedChunk::decode(payload).map_err(|e| e.to_string())?;
        let mut standby = self.standby.lock().expect("standby lock");
        match chunk {
            FeedChunk::Snapshots { source, covered_seq, streams } => {
                let buf = standby.entry(source).or_default();
                self.metrics.standby_snapshots.add(streams.len() as u64);
                for (id, next_minute, blob) in streams {
                    buf.snapshots.insert(id, (next_minute, blob));
                }
                buf.covered_seq = buf.covered_seq.max(covered_seq);
                let cut = buf.covered_seq;
                buf.wal.retain(|seq, _| *seq > cut);
            }
            FeedChunk::WalTail { source, records } => {
                let buf = standby.entry(source).or_default();
                self.metrics.standby_records.add(records.len() as u64);
                for (seq, record) in records {
                    if seq > buf.covered_seq {
                        buf.wal.insert(seq, record);
                    }
                }
            }
        }
        self.metrics.standby_chunks.inc();
        Ok(())
    }
}

impl NodeState {
    /// Materializes a dead peer's streams: buffered snapshots, then the
    /// WAL tail beyond the cut (buffered records merged with the peer's
    /// on-disk tail), then dedup floors at the restored clocks. Returns
    /// `(streams imported, samples replayed)`.
    fn take_over(&self, source: &str) -> Result<(u64, u64), String> {
        let buf = self.standby.lock().expect("standby lock").remove(source).unwrap_or_default();
        let covered = buf.covered_seq;
        let mut taken: HashSet<u64> = HashSet::new();
        let mut streams = 0u64;
        let mut snapshots: Vec<(u64, (u64, Vec<u8>))> = buf.snapshots.into_iter().collect();
        snapshots.sort_unstable_by_key(|(id, _)| *id);
        for (id, (next_minute, blob)) in snapshots {
            match self.engine.import_stream(id, next_minute, &blob) {
                Ok(()) => {
                    streams += 1;
                    taken.insert(id);
                }
                // A duplicate means the stream already lives here (e.g. a
                // re-delivered ring after a half-applied install); the
                // local copy is at least as fresh.
                Err(FleetError::DuplicateStream(_)) => {
                    taken.insert(id);
                }
                Err(e) => return Err(format!("takeover of {source}: import {id}: {e}")),
            }
        }

        let mut merged = buf.wal;
        merged.retain(|seq, _| *seq > covered);
        if let Some(dir) = self.peer_wal_dirs.get(source) {
            if dir.is_dir() {
                // Crash-left segments decode exactly as recovery would;
                // corruption degrades to counted gaps, not errors.
                let _ = store::read_tail(dir, covered, |seq, record| {
                    merged.insert(seq, record);
                });
            }
        }
        let mut replayed = 0u64;
        for (_seq, record) in merged {
            match record {
                WalRecord::Samples(samples) => {
                    for s in samples {
                        if !self.engine.contains(s.stream) {
                            continue;
                        }
                        match s.minute {
                            Some(m) => {
                                self.engine.push_at(s.stream, m, s.value);
                            }
                            None => {
                                self.engine.push(s.stream, s.value);
                            }
                        }
                        replayed += 1;
                    }
                }
                WalRecord::Register { id, tuning } => {
                    let config = StreamConfig {
                        train_size: tuning.train_size as usize,
                        qa_window: tuning.qa_window as usize,
                        qa_period: tuning.qa_period as usize,
                        qa_threshold: tuning.qa_threshold,
                        resilience: ResilienceConfig {
                            f32_history: tuning.f32_history,
                            ..self.defaults.resilience.clone()
                        },
                        ..self.defaults.clone()
                    };
                    match self.engine.register_with(id, &config) {
                        Ok(()) => {
                            streams += 1;
                            taken.insert(id);
                        }
                        Err(FleetError::DuplicateStream(_)) => {}
                        Err(e) => return Err(format!("takeover of {source}: register {id}: {e}")),
                    }
                }
                WalRecord::Evict { id } => {
                    let _ = self.engine.evict(id);
                    taken.remove(&id);
                }
            }
        }
        self.engine.flush();
        for id in &taken {
            if let Ok(info) = self.engine.stream_info(*id) {
                self.dedup.set_floor(*id, info.next_minute);
            }
        }
        // Make the takeover itself durable; a heir crash right after no
        // longer depends on the dead peer's files.
        let _ = self.engine.checkpoint_durable();
        Ok((streams, replayed))
    }
}

/// The feeder: export dirty snapshots + own WAL tail, ship both to the
/// ring successor, advance cursors only on delivery.
fn feeder_loop(state: &Arc<NodeState>, interval: Duration) {
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let mut last_sent: u64 = 0;
    let mut last_successor: Option<String> = None;
    let mut conn: Option<Client> = None;
    while !state.stop.load(Ordering::SeqCst) {
        sleep_responsive(state, interval);
        if state.stop.load(Ordering::SeqCst) {
            break;
        }
        let successor = {
            let guard = state.ring.read().expect("ring lock");
            guard.as_ref().and_then(|ring| {
                if !ring.is_alive(&state.name) {
                    return None;
                }
                ring.successor(&state.name).map(|n| (n.name.clone(), n.addr.clone()))
            })
        };
        let Some((succ_name, succ_addr)) = successor else { continue };
        if last_successor.as_deref() != Some(succ_name.as_str()) {
            // New successor: it holds none of our state — restart the feed
            // from scratch (full snapshot set, full WAL tail).
            seen.clear();
            last_sent = 0;
            conn = None;
            last_successor = Some(succ_name);
        }

        let (covered, deltas) = state.engine.export_dirty(&mut seen);
        let mut records: Vec<(u64, WalRecord)> = Vec::new();
        if let Some(dir) = state.engine.wal_dir() {
            let _ = store::read_tail(&dir, last_sent, |seq, record| {
                records.push((seq, record));
            });
        }
        let new_last = records.last().map(|(seq, _)| *seq).unwrap_or(last_sent);
        if deltas.is_empty() && records.is_empty() {
            continue;
        }

        let fed_ids: Vec<u64> = deltas.iter().map(|d| d.0).collect();
        let fed_streams = fed_ids.len() as u64;
        let fed_records = records.len() as u64;
        let chunks = build_chunks(&state.name, covered, deltas, records);
        let mut sent_bytes = 0u64;
        let delivered = send_chunks(state, &mut conn, &succ_addr, &chunks, &mut sent_bytes);
        if delivered {
            last_sent = new_last;
            state.metrics.feed_cycles.inc();
            state.metrics.feed_bytes.add(sent_bytes);
            state
                .engine
                .events()
                .push(None, EventKind::StandbyFeed { streams: fed_streams, records: fed_records });
        } else {
            // Nothing delivered counts as nothing exported: forget the fed
            // streams so the next cycle resends them, and the same tail.
            for id in &fed_ids {
                seen.remove(id);
            }
            conn = None;
        }
    }
}

fn sleep_responsive(state: &NodeState, interval: Duration) {
    let mut remaining = interval;
    let slice = Duration::from_millis(20);
    while remaining > Duration::ZERO && !state.stop.load(Ordering::SeqCst) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Splits deltas and records into chunks under the payload budget.
fn build_chunks(
    source: &str,
    covered: u64,
    deltas: Vec<(u64, u64, Vec<u8>)>,
    records: Vec<(u64, WalRecord)>,
) -> Vec<FeedChunk> {
    let mut chunks = Vec::new();
    let mut batch: Vec<(u64, u64, Vec<u8>)> = Vec::new();
    let mut batch_bytes = 0usize;
    for delta in deltas {
        let len = 20 + delta.2.len();
        if !batch.is_empty() && batch_bytes + len > MAX_CHUNK_BYTES {
            chunks.push(FeedChunk::Snapshots {
                source: source.into(),
                covered_seq: covered,
                streams: std::mem::take(&mut batch),
            });
            batch_bytes = 0;
        }
        batch_bytes += len;
        batch.push(delta);
    }
    if !batch.is_empty() {
        chunks.push(FeedChunk::Snapshots {
            source: source.into(),
            covered_seq: covered,
            streams: batch,
        });
    }
    let mut tail: Vec<(u64, WalRecord)> = Vec::new();
    for record in records {
        tail.push(record);
        let probe = FeedChunk::WalTail { source: source.into(), records: tail };
        if probe.approx_len() > MAX_CHUNK_BYTES {
            chunks.push(probe);
            tail = Vec::new();
        } else {
            match probe {
                FeedChunk::WalTail { records, .. } => tail = records,
                _ => unreachable!("probe is a wal tail"),
            }
        }
    }
    if !tail.is_empty() {
        chunks.push(FeedChunk::WalTail { source: source.into(), records: tail });
    }
    chunks
}

fn send_chunks(
    state: &NodeState,
    conn: &mut Option<Client>,
    addr: &str,
    chunks: &[FeedChunk],
    sent_bytes: &mut u64,
) -> bool {
    for chunk in chunks {
        if state.stop.load(Ordering::SeqCst) {
            return false;
        }
        let payload = chunk.encode();
        let client = match conn {
            Some(c) => c,
            None => {
                let config = ClientConfig {
                    connect_timeout: Duration::from_secs(1),
                    request_timeout: Duration::from_secs(5),
                    max_attempts: 1,
                    client_name: format!("standby-feeder-{}", state.name),
                    ..ClientConfig::default()
                };
                match Client::connect(addr, config) {
                    Ok(c) => conn.insert(c),
                    Err(_) => return false,
                }
            }
        };
        let len = payload.len() as u64;
        if client.standby_feed(payload).is_err() {
            return false;
        }
        *sent_bytes += len;
    }
    true
}
