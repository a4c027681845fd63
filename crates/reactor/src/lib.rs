//! A dependency-free nonblocking readiness event loop on raw Linux epoll.
//!
//! The serving tier's concurrency layer: instead of one OS thread per
//! connection (whose scheduler thrash shows up directly as multi-ms tail
//! latency), a small set of per-core event-loop threads multiplexes every
//! connection through `epoll`:
//!
//! * [`sys`] — the syscall surface: `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait` and `eventfd`, declared straight against the C runtime
//!   (no crates — the same no-deps discipline as `store` and `obs`).
//! * [`Poller`] — one epoll instance: an interest set plus a wait call.
//! * [`Waker`] — an eventfd per loop; any thread can wake a loop to hand
//!   over a connection, finish a response, or start a drain.
//! * [`TimerWheel`] — hierarchical timer wheel (8 ms ticks, four levels of
//!   64 slots) driving idle-connection deadlines.
//! * [`ReadBuf`]/[`WriteQueue`] — per-connection buffers: a compacting
//!   read window for streaming decoders, and an owned-segment write queue
//!   flushed with vectored writes and interest re-registration under
//!   write backpressure.
//! * [`Reactor`] — the assembly: N event loops, every listener registered
//!   in every loop with `EPOLLEXCLUSIVE` (the sharded accept path), each
//!   accepted connection placed round-robin across loops, edge-triggered
//!   per-connection state machines, and a bounded graceful drain.
//!
//! Protocols plug in through two traits: a [`Service`] decides what to do
//! with each accepted connection (and can refuse it with parting bytes),
//! and its per-connection [`Handler`] consumes the read buffer and queues
//! responses. The reactor owns all I/O; handlers never see a socket.
//!
//! Linux-only by construction (epoll *is* the point); the rest of the
//! workspace compiles without it.
#![warn(missing_docs)]

pub mod buf;
pub mod poll;
pub mod sys;
pub mod timer;
pub mod wake;

mod event_loop;
mod reactor;

pub use buf::{FlushStatus, ReadBuf, WriteQueue};
pub use event_loop::ConnCtx;
pub use poll::{Interest, Poller, Ready};
pub use reactor::{Reactor, ReactorBuilder, ReactorConfig};
pub use timer::TimerWheel;
pub use wake::Waker;

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// What the loop should do with a connection after a handler callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep serving.
    Continue,
    /// Flush whatever the handler queued, then close the connection.
    Close,
    /// Begin a reactor-wide graceful drain (a wire shutdown request). The
    /// connection's queued output is still flushed before its close.
    Shutdown,
}

/// Why a connection was torn down, passed to [`Handler::on_close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed (EOF) and every queued response was flushed.
    PeerClosed,
    /// A socket error (reset, broken pipe, write failure).
    Error,
    /// The handler asked for the close ([`Verdict::Close`]).
    Requested,
    /// The idle deadline fired and [`Handler::on_idle`] chose to close.
    IdleTimeout,
    /// The reactor drained the connection during shutdown.
    Drain,
}

/// Per-connection protocol logic. The loop owns the socket; the handler
/// sees bytes in, bytes out.
pub trait Handler: Send {
    /// Bytes arrived (or were already buffered at EOF): consume from
    /// [`ConnCtx::input`], queue responses with [`ConnCtx::write`].
    fn on_readable(&mut self, conn: &mut ConnCtx<'_>) -> Verdict;

    /// The loop has flushed what the last [`on_readable`](Self::on_readable)
    /// calls queued — written it to the socket, or queued the remainder under
    /// write backpressure. Work that may run only once its reply is on the
    /// way goes here. Default: nothing.
    fn after_flush(&mut self) {}

    /// The idle deadline elapsed with no socket activity. Default: reap.
    fn on_idle(&mut self, conn: &mut ConnCtx<'_>) -> Verdict {
        let _ = conn;
        Verdict::Close
    }

    /// The connection is gone. Always called exactly once for accepted
    /// connections, with the teardown reason.
    fn on_close(&mut self, reason: CloseReason) {
        let _ = reason;
    }
}

/// Accept-time decision for one incoming connection.
pub enum AcceptDecision {
    /// Serve it with this handler.
    Accept(Box<dyn Handler>),
    /// Refuse it: flush these parting bytes (a typed error frame), then
    /// close. Refused connections never see [`Handler::on_close`].
    Reject(Vec<u8>),
}

/// A listener's protocol: builds a handler per accepted connection.
pub trait Service: Send + Sync {
    /// Called on the loop that will own the connection, for every fresh
    /// connection.
    fn on_accept(&self, conn_id: u64, peer: SocketAddr) -> AcceptDecision;

    /// Idle-connection deadline for this listener's connections; `None`
    /// disables reaping.
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }
}

/// Loop instrumentation hooks, all optional. Implementations must be cheap
/// and lock-free — these run inside the event loops.
pub trait Observer: Send + Sync {
    /// One `epoll_wait` returned: `events` readiness records after
    /// `wait_us` microseconds in the call (includes sleep time; gate on
    /// `events > 0` to measure dispatch latency).
    fn on_poll(&self, loop_idx: usize, events: usize, wait_us: u64) {
        let _ = (loop_idx, events, wait_us);
    }
    /// A connection flush moved `bytes` to the socket in `flush_us`.
    fn on_flush(&self, loop_idx: usize, bytes: usize, flush_us: u64) {
        let _ = (loop_idx, bytes, flush_us);
    }
    /// A loop's open-connection count changed.
    fn on_conn_count(&self, loop_idx: usize, open: usize) {
        let _ = (loop_idx, open);
    }
    /// A connection's socket stopped accepting bytes; write interest was
    /// re-registered (write backpressure engaged).
    fn on_write_backpressure(&self, loop_idx: usize) {
        let _ = loop_idx;
    }
    /// A connection was accepted on this loop (before placement).
    fn on_accepted(&self, loop_idx: usize) {
        let _ = loop_idx;
    }
}

/// The default no-op observer.
pub struct NullObserver;

impl Observer for NullObserver {}

pub(crate) fn default_observer() -> Arc<dyn Observer> {
    Arc::new(NullObserver)
}
