//! End-to-end reactor tests over real sockets: echo service, connection
//! rejection, idle reaping, write backpressure, graceful drain, and the
//! after-flush hook.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use reactor::{
    AcceptDecision, CloseReason, ConnCtx, Handler, Reactor, ReactorBuilder, ReactorConfig, Service,
    Verdict,
};

/// Echoes every byte back; a line equal to "quit\n" requests reactor
/// shutdown after the echo.
struct Echo {
    closes: Arc<AtomicUsize>,
}

struct EchoConn {
    closes: Arc<AtomicUsize>,
}

impl Handler for EchoConn {
    fn on_readable(&mut self, conn: &mut ConnCtx<'_>) -> Verdict {
        let input = conn.input().to_vec();
        conn.consume(input.len());
        let quit = input.windows(5).any(|w| w == b"quit\n");
        conn.write(input);
        if quit {
            Verdict::Shutdown
        } else {
            Verdict::Continue
        }
    }
    fn on_close(&mut self, _reason: CloseReason) {
        self.closes.fetch_add(1, Ordering::SeqCst);
    }
}

impl Service for Echo {
    fn on_accept(&self, _conn_id: u64, _peer: SocketAddr) -> AcceptDecision {
        AcceptDecision::Accept(Box::new(EchoConn { closes: self.closes.clone() }))
    }
}

fn start_echo(loops: usize) -> (Reactor, SocketAddr, Arc<AtomicUsize>) {
    let closes = Arc::new(AtomicUsize::new(0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reactor = ReactorBuilder::new(ReactorConfig { loops })
        .listen(listener, Arc::new(Echo { closes: closes.clone() }))
        .expect("listen")
        .start()
        .expect("start");
    (reactor, addr, closes)
}

#[test]
fn echo_round_trips_across_many_connections() {
    let (_reactor, addr, _) = start_echo(2);
    let mut clients: Vec<TcpStream> =
        (0..16).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        c.write_all(format!("hello-{i}").as_bytes()).expect("send");
    }
    for (i, c) in clients.iter_mut().enumerate() {
        let expect = format!("hello-{i}");
        let mut buf = vec![0u8; expect.len()];
        c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        c.read_exact(&mut buf).expect("echo");
        assert_eq!(buf, expect.as_bytes());
    }
}

#[test]
fn echo_handles_pipelined_and_fragmented_writes() {
    let (_reactor, addr, _) = start_echo(1);
    let mut c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    // Dribble it out in odd-sized chunks to force partial reads server-side.
    for chunk in payload.chunks(777) {
        c.write_all(chunk).expect("send");
    }
    let mut back = vec![0u8; payload.len()];
    c.read_exact(&mut back).expect("echo all");
    assert_eq!(back, payload);
}

/// A service that refuses every connection with parting bytes.
struct Bouncer;

impl Service for Bouncer {
    fn on_accept(&self, _conn_id: u64, _peer: SocketAddr) -> AcceptDecision {
        AcceptDecision::Reject(b"full up\n".to_vec())
    }
}

#[test]
fn rejected_connections_get_parting_bytes_then_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let _reactor = ReactorBuilder::new(ReactorConfig { loops: 1 })
        .listen(listener, Arc::new(Bouncer))
        .expect("listen")
        .start()
        .expect("start");
    let mut c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    c.write_all(b"let me in").expect("send");
    let mut all = Vec::new();
    c.read_to_end(&mut all).expect("refusal then eof");
    assert_eq!(all, b"full up\n");
}

/// Echo with a short idle deadline for reap tests.
struct ImpatientEcho {
    closes: Arc<AtomicUsize>,
    idle: Duration,
}

impl Service for ImpatientEcho {
    fn on_accept(&self, _conn_id: u64, _peer: SocketAddr) -> AcceptDecision {
        AcceptDecision::Accept(Box::new(EchoConn { closes: self.closes.clone() }))
    }
    fn idle_timeout(&self) -> Option<Duration> {
        Some(self.idle)
    }
}

#[test]
fn idle_connections_are_reaped_and_active_ones_kept() {
    let closes = Arc::new(AtomicUsize::new(0));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let _reactor = ReactorBuilder::new(ReactorConfig { loops: 1 })
        .listen(
            listener,
            Arc::new(ImpatientEcho { closes: closes.clone(), idle: Duration::from_millis(150) }),
        )
        .expect("listen")
        .start()
        .expect("start");

    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut active = TcpStream::connect(addr).expect("connect active");
    active.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");

    // Keep the active connection chattering past several idle windows.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(60));
        active.write_all(b"ping").expect("send");
        let mut buf = [0u8; 4];
        active.read_exact(&mut buf).expect("echo");
    }
    // The idle one must be gone by now: read sees EOF.
    let mut buf = [0u8; 1];
    let n = idle.read(&mut buf).expect("reaped idle conn yields EOF");
    assert_eq!(n, 0, "idle connection must be closed by the reaper");
    assert_eq!(closes.load(Ordering::SeqCst), 1, "only the idle connection closed");
}

#[test]
fn large_responses_survive_write_backpressure() {
    let (_reactor, addr, _) = start_echo(1);
    let mut c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    // 8 MB of echo: far beyond socket buffers, so the server must park the
    // remainder and finish under EPOLLOUT.
    let payload: Vec<u8> = (0..8 * 1024 * 1024u32).map(|i| (i % 193) as u8).collect();
    let mut writer = c.try_clone().expect("clone");
    let to_send = payload.clone();
    let tx = std::thread::spawn(move || {
        writer.write_all(&to_send).expect("send");
        writer.shutdown(Shutdown::Write).expect("half-close");
    });
    let mut back = Vec::with_capacity(payload.len());
    c.read_to_end(&mut back).expect("echo all");
    tx.join().expect("writer");
    assert_eq!(back.len(), payload.len());
    assert_eq!(back, payload);
}

#[test]
fn shutdown_verdict_drains_every_connection() {
    let (mut reactor, addr, closes) = start_echo(2);
    let mut bystander = TcpStream::connect(addr).expect("connect");
    bystander.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    bystander.write_all(b"hi").expect("send");
    let mut buf = [0u8; 2];
    bystander.read_exact(&mut buf).expect("echo");

    let mut quitter = TcpStream::connect(addr).expect("connect");
    quitter.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    quitter.write_all(b"quit\n").expect("send");
    let mut ack = [0u8; 5];
    quitter.read_exact(&mut ack).expect("quit is echoed before the drain closes us");
    assert_eq!(&ack, b"quit\n");

    reactor.shutdown();
    assert!(reactor.is_shutting_down());
    assert_eq!(closes.load(Ordering::SeqCst), 2, "both connections saw on_close");

    // The bystander observes EOF once drained.
    let n = bystander.read(&mut buf).expect("drained conn yields EOF");
    assert_eq!(n, 0);
    // New connections are refused after drain.
    assert!(TcpStream::connect(addr).is_err(), "listener must be gone after shutdown");
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    let (mut reactor, addr, _) = start_echo(1);
    let _probe = TcpStream::connect(addr).expect("connect");
    reactor.shutdown();
    reactor.shutdown();
    drop(reactor); // Drop runs shutdown again; must not panic or hang.
}

/// Set by the test client once it has read the echo; the handler's hook
/// waits on it.
#[derive(Default)]
struct ClientRead {
    done: Mutex<bool>,
    signal: Condvar,
    /// The hook saw the client's read before its timeout.
    hook_saw_read: AtomicBool,
}

/// Echo whose `after_flush` blocks until the client has read the echoed
/// bytes: it can only return in time if the loop flushed before calling it.
struct FlushFirstEcho {
    read: Arc<ClientRead>,
}

struct FlushFirstConn {
    read: Arc<ClientRead>,
    echoed: bool,
}

impl Handler for FlushFirstConn {
    fn on_readable(&mut self, conn: &mut ConnCtx<'_>) -> Verdict {
        let input = conn.input().to_vec();
        conn.consume(input.len());
        self.echoed |= !input.is_empty();
        conn.write(input);
        Verdict::Continue
    }
    fn after_flush(&mut self) {
        if !std::mem::take(&mut self.echoed) {
            return;
        }
        let done = self.read.done.lock().expect("client read flag");
        let (done, _) = self
            .read
            .signal
            .wait_timeout_while(done, Duration::from_secs(5), |done| !*done)
            .expect("client read flag");
        self.read.hook_saw_read.store(*done, Ordering::SeqCst);
    }
}

impl Service for FlushFirstEcho {
    fn on_accept(&self, _conn_id: u64, _peer: SocketAddr) -> AcceptDecision {
        AcceptDecision::Accept(Box::new(FlushFirstConn { read: self.read.clone(), echoed: false }))
    }
}

#[test]
fn after_flush_runs_once_the_reply_is_on_the_wire() {
    let read = Arc::new(ClientRead::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let _reactor = ReactorBuilder::new(ReactorConfig { loops: 1 })
        .listen(listener, Arc::new(FlushFirstEcho { read: read.clone() }))
        .expect("listen")
        .start()
        .expect("start");
    let mut c = TcpStream::connect(addr).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(3))).expect("timeout");
    c.write_all(b"ping").expect("send");
    let mut buf = [0u8; 4];
    // A loop that ran the hook before flushing would hold the echo back
    // until the hook timed out, and this read would time out first.
    c.read_exact(&mut buf).expect("echo arrives while the hook waits");
    assert_eq!(&buf, b"ping");
    *read.done.lock().expect("client read flag") = true;
    read.signal.notify_all();
    // The next echo is served only after the hook returned.
    c.write_all(b"pong").expect("send");
    c.read_exact(&mut buf).expect("second echo");
    assert_eq!(&buf, b"pong");
    assert!(read.hook_saw_read.load(Ordering::SeqCst), "hook ran before the client read");
}
