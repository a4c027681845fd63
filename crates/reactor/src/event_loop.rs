//! One event-loop thread: the epoll wait, per-connection state machines,
//! accept sharding, idle timers, and the drain protocol.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::buf::{FlushStatus, ReadBuf, WriteQueue};
use crate::poll::{Interest, Poller, Ready};
use crate::timer::TimerWheel;
use crate::wake::Waker;
use crate::{AcceptDecision, CloseReason, Handler, Observer, Service, Verdict};

/// Token of the loop's eventfd waker.
const WAKER_TOKEN: u64 = u64::MAX;
/// Listener tokens live at `LISTENER_BASE + index`; connection tokens
/// (generation << 32 | slot) stay strictly below.
const LISTENER_BASE: u64 = 1 << 62;
/// Connection generations wrap inside 30 bits so tokens never collide with
/// the listener range.
const GEN_MASK: u32 = (1 << 30) - 1;
/// Most connections accepted per listener readiness (the listener is
/// level-triggered, so the remainder re-arms immediately).
const ACCEPT_BURST: usize = 64;
/// Bytes asked of the socket per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Readiness records per `epoll_wait`.
const EVENTS_PER_WAIT: usize = 256;
/// Per-connection bytes read per wake before yielding to peers (the
/// fairness cap; capped connections resume next iteration).
const READ_BUDGET: usize = 256 * 1024;
/// How long a graceful drain may wait for queued responses to flush before
/// remaining connections are force-closed.
const DRAIN_GRACE_MS: u64 = 2_000;

/// A connection handed across loops by the accepting thread.
pub(crate) enum Inject {
    Conn { stream: TcpStream, peer: SocketAddr, listener: usize },
}

/// The cross-thread face of one loop: an injection queue plus its waker.
pub(crate) struct LoopShared {
    pub(crate) injected: Mutex<Vec<Inject>>,
    pub(crate) waker: Waker,
}

/// One listening socket and the protocol served on it.
pub(crate) struct ListenerEntry {
    pub(crate) listener: Arc<TcpListener>,
    pub(crate) service: Arc<dyn Service>,
}

/// Reactor-wide shared control state.
pub(crate) struct Ctl {
    pub(crate) shutdown: AtomicBool,
    pub(crate) next_conn_id: AtomicU64,
    pub(crate) next_loop: AtomicUsize,
    pub(crate) loops: Vec<Arc<LoopShared>>,
}

impl Ctl {
    /// Flips the drain flag once and wakes every loop.
    pub(crate) fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            for l in &self.loops {
                l.waker.wake();
            }
        }
    }
}

/// The handler's window onto one connection: buffered input to consume,
/// and an output queue to fill. Handlers never touch the socket.
pub struct ConnCtx<'a> {
    inbuf: &'a mut ReadBuf,
    out: &'a mut WriteQueue,
    conn_id: u64,
    peer: SocketAddr,
}

impl ConnCtx<'_> {
    /// All received-but-unconsumed bytes. A streaming decoder takes what
    /// parses and leaves the partial tail for the next readiness.
    pub fn input(&self) -> &[u8] {
        self.inbuf.input()
    }

    /// Marks `n` input bytes consumed.
    pub fn consume(&mut self, n: usize) {
        self.inbuf.consume(n);
    }

    /// Queues an encoded response; the loop flushes with vectored writes
    /// and handles write backpressure.
    pub fn write(&mut self, bytes: Vec<u8>) {
        self.out.push(bytes);
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn queued_bytes(&self) -> usize {
        self.out.queued_bytes()
    }

    /// The reactor-wide connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The peer address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    handler: Box<dyn Handler>,
    inbuf: ReadBuf,
    out: WriteQueue,
    token: u64,
    conn_id: u64,
    peer: SocketAddr,
    /// EPOLLOUT currently armed (write backpressure engaged).
    want_write: bool,
    /// Set once the connection is condemned: no more handler calls, flush
    /// the queue, then close with this reason.
    closing: Option<CloseReason>,
    /// The peer half-closed; close once the output queue drains.
    peer_eof: bool,
    /// Loop-clock ms of the last request bytes read (or fully drained
    /// flush). Slow readers that never send do not count as active.
    last_activity_ms: u64,
    /// Idle deadline for this connection's listener, if reaping is on.
    idle_ms: Option<u64>,
}

impl Conn {
    fn drive_readable(&mut self) -> Verdict {
        let mut ctx = ConnCtx {
            inbuf: &mut self.inbuf,
            out: &mut self.out,
            conn_id: self.conn_id,
            peer: self.peer,
        };
        self.handler.on_readable(&mut ctx)
    }

    fn drive_idle(&mut self) -> Verdict {
        let mut ctx = ConnCtx {
            inbuf: &mut self.inbuf,
            out: &mut self.out,
            conn_id: self.conn_id,
            peer: self.peer,
        };
        self.handler.on_idle(&mut ctx)
    }
}

/// A handler for refused connections: discard anything the peer sends
/// while the parting error frame flushes.
struct RejectSink;

impl Handler for RejectSink {
    fn on_readable(&mut self, conn: &mut ConnCtx<'_>) -> Verdict {
        let n = conn.input().len();
        conn.consume(n);
        Verdict::Continue
    }
    fn on_close(&mut self, _reason: CloseReason) {}
}

/// One event-loop thread's whole world.
pub(crate) struct EventLoop {
    idx: usize,
    nloops: usize,
    poller: Poller,
    wheel: TimerWheel,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    live: usize,
    generation: u32,
    /// Connections that hit the per-wake read budget: re-driven next
    /// iteration so one firehose peer cannot starve the rest (the edge
    /// trigger will not fire again for bytes already buffered).
    pending: Vec<u64>,
    shared: Arc<LoopShared>,
    ctl: Arc<Ctl>,
    listeners: Arc<Vec<ListenerEntry>>,
    observer: Arc<dyn Observer>,
    epoch: Instant,
    draining: bool,
    drain_started_ms: u64,
}

impl EventLoop {
    pub(crate) fn new(
        idx: usize,
        nloops: usize,
        shared: Arc<LoopShared>,
        ctl: Arc<Ctl>,
        listeners: Arc<Vec<ListenerEntry>>,
        observer: Arc<dyn Observer>,
    ) -> io::Result<EventLoop> {
        Ok(EventLoop {
            idx,
            nloops,
            poller: Poller::new(EVENTS_PER_WAIT)?,
            wheel: TimerWheel::new(),
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            generation: 0,
            pending: Vec::new(),
            shared,
            ctl,
            listeners,
            observer,
            epoch: Instant::now(),
            draining: false,
            drain_started_ms: 0,
        })
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    pub(crate) fn run(mut self) {
        if self.poller.add(self.shared.waker.as_raw_fd(), Interest::READ, WAKER_TOKEN).is_err() {
            return;
        }
        let mut i = 0;
        while i < self.listeners.len() {
            let fd = self.listeners[i].listener.as_raw_fd();
            let _ = self.poller.add(fd, Interest::ACCEPT, LISTENER_BASE + i as u64);
            i += 1;
        }

        let mut ready: Vec<Ready> = Vec::with_capacity(EVENTS_PER_WAIT);
        let mut expired: Vec<u64> = Vec::new();
        loop {
            let now = self.now_ms();
            let timeout = if !self.pending.is_empty() {
                Some(0)
            } else if self.draining {
                Some(20)
            } else {
                self.wheel.next_timeout_ms(now).map(|t| t.min(60_000) as u32)
            };

            ready.clear();
            let wait_start = Instant::now();
            let n = self.poller.wait(timeout, |r| ready.push(r)).unwrap_or_default();
            self.observer.on_poll(self.idx, n, wait_start.elapsed().as_micros() as u64);

            let mut i = 0;
            while i < ready.len() {
                let r = ready[i];
                i += 1;
                if r.token == WAKER_TOKEN {
                    self.shared.waker.drain();
                } else if r.token >= LISTENER_BASE {
                    self.accept_burst((r.token - LISTENER_BASE) as usize);
                } else {
                    self.conn_ready(r);
                }
            }
            self.process_injected();

            // Budget-capped connections: keep draining their buffered input.
            let work = std::mem::take(&mut self.pending);
            for token in work {
                let slot = (token & 0xFFFF_FFFF) as usize;
                self.read_conn(slot, token);
            }

            let now = self.now_ms();
            expired.clear();
            self.wheel.advance(now, &mut expired);
            let mut i = 0;
            while i < expired.len() {
                let token = expired[i];
                i += 1;
                self.conn_timer(token, now);
            }

            if self.ctl.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.enter_drain(now);
            }
            if self.draining {
                if self.live == 0 {
                    break;
                }
                if now.saturating_sub(self.drain_started_ms) > DRAIN_GRACE_MS {
                    self.force_close_all();
                    break;
                }
            }
        }
    }

    /// Accepts a burst off a level-triggered shared listener and places
    /// each connection round-robin across the loops.
    fn accept_burst(&mut self, li: usize) {
        if self.ctl.shutdown.load(Ordering::SeqCst) || li >= self.listeners.len() {
            return;
        }
        for _ in 0..ACCEPT_BURST {
            match self.listeners[li].listener.accept() {
                Ok((stream, peer)) => {
                    self.observer.on_accepted(self.idx);
                    let target = self.ctl.next_loop.fetch_add(1, Ordering::Relaxed) % self.nloops;
                    if target == self.idx {
                        self.install(stream, peer, li);
                    } else {
                        let remote = &self.ctl.loops[target];
                        remote
                            .injected
                            .lock()
                            .expect("injection queue poisoned")
                            .push(Inject::Conn { stream, peer, listener: li });
                        remote.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Aborted handshakes and transient errors: skip this one.
                Err(_) => break,
            }
        }
    }

    /// Adopts connections other loops handed over.
    fn process_injected(&mut self) {
        let handed: Vec<Inject> = {
            let mut q = self.shared.injected.lock().expect("injection queue poisoned");
            if q.is_empty() {
                return;
            }
            q.drain(..).collect()
        };
        let draining = self.ctl.shutdown.load(Ordering::SeqCst);
        for inj in handed {
            let Inject::Conn { stream, peer, listener } = inj;
            if draining {
                drop(stream);
                continue;
            }
            self.install(stream, peer, listener);
        }
    }

    /// Installs an accepted connection on this loop: consults the service,
    /// allocates a slot + generation token, registers edge-triggered read
    /// interest, and arms the idle timer.
    fn install(&mut self, stream: TcpStream, peer: SocketAddr, li: usize) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = self.ctl.next_conn_id.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = &self.listeners[li];
        let idle_ms = entry.service.idle_timeout().map(|d| (d.as_millis() as u64).max(1));
        let (handler, preload, closing): (Box<dyn Handler>, Vec<u8>, Option<CloseReason>) =
            match entry.service.on_accept(conn_id, peer) {
                AcceptDecision::Accept(h) => (h, Vec::new(), None),
                AcceptDecision::Reject(bytes) => {
                    (Box::new(RejectSink), bytes, Some(CloseReason::Requested))
                }
            };

        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            (self.conns.len() - 1) as u32
        });
        self.generation = (self.generation + 1) & GEN_MASK;
        let token = ((self.generation as u64) << 32) | slot as u64;
        let now = self.now_ms();
        let mut out = WriteQueue::new();
        out.push(preload);
        let conn = Conn {
            stream,
            handler,
            inbuf: ReadBuf::new(),
            out,
            token,
            conn_id,
            peer,
            want_write: false,
            closing,
            peer_eof: false,
            last_activity_ms: now,
            idle_ms,
        };
        if self.poller.add(conn.stream.as_raw_fd(), Interest::READ, token).is_err() {
            let mut conn = conn;
            conn.handler.on_close(CloseReason::Error);
            self.free.push(slot);
            return;
        }
        self.conns[slot as usize] = Some(conn);
        self.live += 1;
        self.observer.on_conn_count(self.idx, self.live);
        if let Some(idle) = idle_ms {
            self.wheel.schedule(token, now + idle);
        }
        // A refusal's parting frame flushes immediately; the close follows
        // once the peer's in-flight bytes are drained.
        if self.conn_live(slot as usize, token) {
            self.flush_conn(slot as usize, token);
        }
    }

    fn conn_live(&self, slot: usize, token: u64) -> bool {
        matches!(self.conns.get(slot), Some(Some(c)) if c.token == token)
    }

    /// One readiness record for a connection token.
    fn conn_ready(&mut self, r: Ready) {
        let slot = (r.token & 0xFFFF_FFFF) as usize;
        if !self.conn_live(slot, r.token) {
            return; // stale: the connection closed earlier this iteration
        }
        if r.writable && self.flush_conn(slot, r.token) {
            return;
        }
        if r.readable || r.error {
            self.read_conn(slot, r.token);
        }
    }

    /// Reads until EAGAIN (edge-triggered contract) or the fairness
    /// budget, driving the handler after every chunk.
    fn read_conn(&mut self, slot: usize, token: u64) {
        let now = self.now_ms();
        let mut budget = READ_BUDGET;
        let mut begin_shutdown = false;
        loop {
            let conn = match self.conns.get_mut(slot) {
                Some(Some(c)) if c.token == token => c,
                _ => return,
            };
            match conn.inbuf.fill_from(&mut conn.stream, READ_CHUNK) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity_ms = now;
                    budget = budget.saturating_sub(n);
                    if conn.closing.is_none() {
                        match conn.drive_readable() {
                            Verdict::Continue => {}
                            Verdict::Close => conn.closing = Some(CloseReason::Requested),
                            Verdict::Shutdown => begin_shutdown = true,
                        }
                    } else {
                        // Condemned connections drain input so the final
                        // close sends FIN, not RST.
                        let buffered = conn.inbuf.len();
                        conn.inbuf.consume(buffered);
                    }
                    if begin_shutdown {
                        break;
                    }
                    if budget == 0 {
                        self.pending.push(token);
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, token, CloseReason::Error);
                    return;
                }
            }
        }
        if begin_shutdown {
            // The responding frame is already queued; the drain flushes it.
            self.ctl.begin_shutdown();
            return;
        }
        if self.flush_conn(slot, token) {
            return;
        }
        let conn = match self.conns.get_mut(slot) {
            Some(Some(c)) if c.token == token => c,
            _ => return,
        };
        conn.handler.after_flush();
        if conn.peer_eof {
            let reason = conn.closing.unwrap_or(CloseReason::PeerClosed);
            if conn.out.is_empty() {
                self.close_conn(slot, token, reason);
            } else {
                // Half-close: the peer stopped sending but still reads;
                // finish flushing queued responses, then close.
                conn.closing = Some(reason);
            }
        }
    }

    /// Flushes the write queue, re-registering write interest while the
    /// socket pushes back. Returns `true` if the connection closed.
    fn flush_conn(&mut self, slot: usize, token: u64) -> bool {
        let now = self.now_ms();
        let (status, moved) = {
            let conn = match self.conns.get_mut(slot) {
                Some(Some(c)) if c.token == token => c,
                _ => return true,
            };
            if conn.out.is_empty() && !conn.want_write && conn.closing.is_none() {
                return false;
            }
            let flush_start = Instant::now();
            match conn.out.flush(&mut conn.stream) {
                Ok((status, moved)) => {
                    if moved > 0 {
                        self.observer.on_flush(
                            self.idx,
                            moved,
                            flush_start.elapsed().as_micros() as u64,
                        );
                    }
                    (status, moved)
                }
                Err(_) => {
                    self.close_conn(slot, token, CloseReason::Error);
                    return true;
                }
            }
        };
        match status {
            FlushStatus::Done => {
                let (fd, rearm, close_reason) = {
                    let conn = match self.conns.get_mut(slot) {
                        Some(Some(c)) if c.token == token => c,
                        _ => return true,
                    };
                    if moved > 0 {
                        // A fully drained flush is activity; a trickling
                        // (never-draining) reader is not.
                        conn.last_activity_ms = now;
                    }
                    let rearm = conn.want_write;
                    conn.want_write = false;
                    (conn.stream.as_raw_fd(), rearm, conn.closing)
                };
                if rearm {
                    let _ = self.poller.modify(fd, Interest::READ, token);
                }
                if let Some(reason) = close_reason {
                    self.close_conn(slot, token, reason);
                    return true;
                }
                false
            }
            FlushStatus::Pending => {
                let (fd, arm) = {
                    let conn = match self.conns.get_mut(slot) {
                        Some(Some(c)) if c.token == token => c,
                        _ => return true,
                    };
                    let arm = !conn.want_write;
                    conn.want_write = true;
                    (conn.stream.as_raw_fd(), arm)
                };
                if arm {
                    let _ = self.poller.modify(fd, Interest::READ_WRITE, token);
                    self.observer.on_write_backpressure(self.idx);
                }
                false
            }
        }
    }

    /// An idle deadline fired (possibly stale — timers are lazily
    /// cancelled by generation token).
    fn conn_timer(&mut self, token: u64, now: u64) {
        let slot = (token & 0xFFFF_FFFF) as usize;
        let (idle, last) = {
            let conn = match self.conns.get(slot) {
                Some(Some(c)) if c.token == token => c,
                _ => return,
            };
            match conn.idle_ms {
                Some(idle) => (idle, conn.last_activity_ms),
                None => return,
            }
        };
        if now < last.saturating_add(idle) {
            // Activity since the timer was armed: re-arm from it.
            self.wheel.schedule(token, last + idle);
            return;
        }
        let verdict = {
            let conn = match self.conns.get_mut(slot) {
                Some(Some(c)) if c.token == token => c,
                _ => return,
            };
            if conn.closing.is_some() {
                // Condemned but the peer never drained the final flush:
                // reap it, queued bytes and all.
                None
            } else {
                Some(conn.drive_idle())
            }
        };
        match verdict {
            None | Some(Verdict::Close) => {
                // Reap now: an unresponsive (or 1 B/s) peer must not hold
                // its buffers or stall the drain.
                self.close_conn(slot, token, CloseReason::IdleTimeout);
            }
            Some(Verdict::Continue) => {
                if let Some(Some(c)) = self.conns.get_mut(slot) {
                    c.last_activity_ms = now;
                }
                self.wheel.schedule(token, now + idle);
                self.flush_conn(slot, token);
            }
            Some(Verdict::Shutdown) => {
                self.ctl.begin_shutdown();
            }
        }
    }

    /// Tears a connection down: deregister, clear the peer's unread bytes
    /// (so the close sends FIN and the peer can still read our final
    /// frame), notify the handler, release the slot.
    fn close_conn(&mut self, slot: usize, token: u64, reason: CloseReason) {
        let conn = match self.conns.get_mut(slot) {
            Some(entry @ Some(_)) if entry.as_ref().is_some_and(|c| c.token == token) => {
                entry.take()
            }
            _ => return,
        };
        let mut conn = match conn {
            Some(c) => c,
            None => return,
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        if !conn.peer_eof && reason != CloseReason::IdleTimeout {
            let mut scratch = [0u8; 4096];
            for _ in 0..8 {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(_) => break,
                }
            }
        }
        conn.handler.on_close(reason);
        self.free.push(slot as u32);
        self.live -= 1;
        self.observer.on_conn_count(self.idx, self.live);
    }

    /// Transitions the loop into drain: stop accepting, drop queued
    /// handovers, condemn every connection (flushing queued responses),
    /// and start the grace clock.
    fn enter_drain(&mut self, now: u64) {
        self.draining = true;
        self.drain_started_ms = now;
        let mut i = 0;
        while i < self.listeners.len() {
            let fd = self.listeners[i].listener.as_raw_fd();
            let _ = self.poller.delete(fd);
            i += 1;
        }
        self.shared.injected.lock().expect("injection queue poisoned").clear();
        self.pending.clear();
        let mut slot = 0;
        while slot < self.conns.len() {
            let (token, reason, flushed) = match &mut self.conns[slot] {
                Some(c) => {
                    let reason = *c.closing.get_or_insert(CloseReason::Drain);
                    (c.token, reason, c.out.is_empty())
                }
                None => {
                    slot += 1;
                    continue;
                }
            };
            if flushed {
                self.close_conn(slot, token, reason);
            } else {
                self.flush_conn(slot, token);
            }
            slot += 1;
        }
    }

    /// The drain grace period expired: close whatever is left.
    fn force_close_all(&mut self) {
        let mut slot = 0;
        while slot < self.conns.len() {
            if let Some(c) = &self.conns[slot] {
                let token = c.token;
                self.close_conn(slot, token, CloseReason::Drain);
            }
            slot += 1;
        }
    }
}
