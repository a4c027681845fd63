//! One wire connection: frame I/O with in-order reply matching, plus the
//! `ppoll` wait the open-loop sender multiplexes its socket with.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use netserve::wire::{self, MAX_RESPONSE_PAYLOAD};
use netserve::{HealthReply, Request, Response};

use crate::gen::{frame, frame_id};

/// How long any reply may take before the run fails as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Control requests (hello, health, shutdown) carry this bit in their id.
const CONTROL: u64 = 1 << 63;

pub struct Conn {
    sock: TcpStream,
    buf: Vec<u8>,
    head: usize,
    control: u64,
    nonblocking: bool,
}

impl Conn {
    /// Connects and handshakes.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            sock,
            buf: Vec::with_capacity(1 << 16),
            head: 0,
            control: 0,
            nonblocking: false,
        };
        match conn.call(&Request::Hello { client: "perfbench".into() })? {
            Response::Hello { .. } => Ok(conn),
            other => Err(format!("handshake answered {other:?}")),
        }
    }

    /// Writes a whole frame (blocking mode).
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.sock.write_all(bytes).map_err(|e| format!("send: {e}"))
    }

    /// Writes what the socket takes now (non-blocking mode).
    pub fn write_some(&mut self, bytes: &[u8]) -> Result<usize, String> {
        match self.sock.write(bytes) {
            Ok(n) => Ok(n),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(0),
            Err(e) => Err(format!("send: {e}")),
        }
    }

    /// Decodes the next buffered reply, if one is complete.
    pub fn take(&mut self) -> Result<Option<(u64, Response)>, String> {
        match wire::decode_ref(&self.buf[self.head..], MAX_RESPONSE_PAYLOAD) {
            Ok(None) => Ok(None),
            Ok(Some((f, used))) => {
                let id = f.request_id;
                let resp = Response::decode(f.opcode, f.payload)
                    .map_err(|e| format!("undecodable reply: {e}"))?;
                self.head += used;
                Ok(Some((id, resp)))
            }
            Err(e) => Err(format!("bad reply frame: {e}")),
        }
    }

    /// Reads what the socket has. Returns 0 when a non-blocking read would
    /// block; a closed peer or a read timeout is an error.
    pub fn fill(&mut self) -> Result<usize, String> {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > (1 << 16) {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let got = self.sock.read(&mut self.buf[len..]);
        self.buf.truncate(len + *got.as_ref().unwrap_or(&0));
        match got {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(0),
            Err(e) if e.kind() == ErrorKind::WouldBlock && self.nonblocking => Ok(0),
            // A blocking read that hits its timeout reports WouldBlock too.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err("timed out waiting for a reply".into())
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Switches the socket between blocking and non-blocking mode.
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.sock.set_nonblocking(on).map_err(|e| e.to_string())?;
        self.nonblocking = on;
        Ok(())
    }

    /// Blocks for the next reply.
    pub fn recv(&mut self) -> Result<(u64, Response), String> {
        loop {
            if let Some(reply) = self.take()? {
                return Ok(reply);
            }
            self.fill()?;
        }
    }

    /// Blocks for the reply to the frame with id `id`.
    pub fn recv_for(&mut self, id: u64) -> Result<Response, String> {
        let (got, resp) = self.recv()?;
        if got != id {
            return Err(format!("reply for request {got}, expected {id}"));
        }
        Ok(resp)
    }

    /// One control round trip; an error reply is an error.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.control += 1;
        let id = CONTROL | self.control;
        self.send(&frame(req, id))?;
        match self.recv_for(id)? {
            Response::Error { code, detail } => Err(format!("{}: {detail}", code.name())),
            resp => Ok(resp),
        }
    }

    /// The fleet-wide health rollup.
    pub fn health(&mut self) -> Result<HealthReply, String> {
        match self.call(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(format!("health answered {other:?}")),
        }
    }

    /// Sends pre-encoded frames with at most `window` unanswered and hands
    /// each reply, in order, to `on_reply` with the frame's index and the
    /// time its frame was written.
    pub fn pipeline(
        &mut self,
        frames: &[&[u8]],
        window: usize,
        mut on_reply: impl FnMut(usize, Response, Instant),
    ) -> Result<(), String> {
        let mut sent_at = VecDeque::with_capacity(window);
        for got in 0..frames.len() {
            while sent_at.len() < window && got + sent_at.len() < frames.len() {
                sent_at.push_back(Instant::now());
                self.send(frames[got + sent_at.len() - 1])?;
            }
            let resp = self.recv_for(frame_id(frames[got]))?;
            on_reply(got, resp, sent_at.pop_front().expect("a frame is in flight"));
        }
        Ok(())
    }

    /// Waits until the socket is readable (or writable, with `write`), or
    /// `timeout` passes.
    pub fn wait(&self, write: bool, timeout: Duration) {
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn ppoll(
                fds: *mut PollFd,
                nfds: u64,
                timeout: *const Timespec,
                sigmask: *const std::ffi::c_void,
            ) -> i32;
        }
        const POLLIN: i16 = 0x1;
        const POLLOUT: i16 = 0x4;
        let mut fd = PollFd {
            fd: self.sock.as_raw_fd(),
            events: if write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
        // and `struct timespec` values for the duration of the call, `nfds`
        // is 1 to match the single entry, and a null sigmask leaves the
        // signal mask unchanged. The result only says whether to look at
        // the socket again, so errors (EINTR) need no handling.
        unsafe {
            ppoll(&mut fd, 1, &ts, std::ptr::null());
        }
    }
}
