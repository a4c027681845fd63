//! The reactor assembly: spawn per-core loops, register listeners in every
//! loop (`EPOLLEXCLUSIVE` sharded accept), and coordinate graceful drain.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::event_loop::{Ctl, EventLoop, ListenerEntry, LoopShared};
use crate::wake::Waker;
use crate::{default_observer, Observer, Service};

/// Reactor sizing. The per-loop limits (readiness records per wait, the
/// per-connection read budget, the drain grace period) are fixed constants
/// of the event loop.
#[derive(Debug, Clone, Default)]
pub struct ReactorConfig {
    /// Event-loop threads; `0` sizes to the machine (available
    /// parallelism, capped at 8).
    pub loops: usize,
}

impl ReactorConfig {
    /// The number of event loops this configuration starts.
    pub fn resolved_loops(&self) -> usize {
        if self.loops > 0 {
            return self.loops;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    }
}

/// Builds a [`Reactor`]: attach listeners (each with its [`Service`]), an
/// optional [`Observer`], then [`start`](ReactorBuilder::start).
pub struct ReactorBuilder {
    config: ReactorConfig,
    listeners: Vec<ListenerEntry>,
    observer: Option<Arc<dyn Observer>>,
}

impl ReactorBuilder {
    /// A builder with the given sizing.
    pub fn new(config: ReactorConfig) -> ReactorBuilder {
        ReactorBuilder { config, listeners: Vec::new(), observer: None }
    }

    /// Serves `service` on `listener`. The socket is switched to
    /// nonblocking and registered in every loop with `EPOLLEXCLUSIVE`, so
    /// the kernel spreads accept wakeups instead of thundering the herd.
    pub fn listen(
        mut self,
        listener: TcpListener,
        service: Arc<dyn Service>,
    ) -> io::Result<ReactorBuilder> {
        listener.set_nonblocking(true)?;
        self.listeners.push(ListenerEntry { listener: Arc::new(listener), service });
        Ok(self)
    }

    /// Installs instrumentation hooks.
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> ReactorBuilder {
        self.observer = Some(observer);
        self
    }

    /// Spawns the event-loop threads and begins serving.
    pub fn start(self) -> io::Result<Reactor> {
        let nloops = self.config.resolved_loops();
        let mut loop_shared = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            loop_shared.push(Arc::new(LoopShared {
                injected: Mutex::new(Vec::new()),
                waker: Waker::new()?,
            }));
        }
        let ctl = Arc::new(Ctl {
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            next_loop: AtomicUsize::new(0),
            loops: loop_shared.clone(),
        });
        let listeners = Arc::new(self.listeners);
        let observer = self.observer.unwrap_or_else(default_observer);

        let mut threads = Vec::with_capacity(nloops);
        for (idx, shared) in loop_shared.iter().enumerate() {
            let el = EventLoop::new(
                idx,
                nloops,
                shared.clone(),
                ctl.clone(),
                listeners.clone(),
                observer.clone(),
            )?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{idx}"))
                    .spawn(move || el.run())?,
            );
        }
        Ok(Reactor { ctl, threads, nloops })
    }
}

/// A running reactor. Dropping it performs a full graceful shutdown
/// (begin drain, join every loop).
pub struct Reactor {
    ctl: Arc<Ctl>,
    threads: Vec<JoinHandle<()>>,
    nloops: usize,
}

impl Reactor {
    /// Number of event-loop threads.
    pub fn loops(&self) -> usize {
        self.nloops
    }

    /// Starts a graceful drain without waiting: listeners deregister, live
    /// connections flush queued responses and close. Idempotent.
    pub fn begin_shutdown(&self) {
        self.ctl.begin_shutdown();
    }

    /// Whether a drain has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.ctl.shutdown.load(Ordering::SeqCst)
    }

    /// Drains and joins every loop. Idempotent and drop-safe.
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}
