//! The generator's loops: open-loop load on the first connection, probes
//! and progress samples on the second, and the drain wait.

use std::time::{Duration, Instant};

use netserve::{HealthReply, Response};

use crate::conn::{Conn, REPLY_TIMEOUT};
use crate::gen::{frame_id, Batch, Probe, BATCH, PROBE_RATE};
use crate::server::ServerProc;
use crate::spans::Tracer;
use crate::stats::Progress;

/// Operations sent, operations that failed, and samples the server took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub accepted: u64,
}

impl Tally {
    /// Books one push reply: an error reply, or any sample not accepted
    /// (rejected, dropped), fails the operation.
    pub fn push(&mut self, resp: &Response, samples: usize) {
        self.attempted += 1;
        match resp {
            Response::PushBatch(o) => {
                self.accepted += o.accepted;
                if o.accepted != samples as u64 || o.rejected > 0 || o.dropped > 0 {
                    self.failed += 1;
                }
            }
            _ => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.accepted += other.accepted;
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Asks the kernel to wake this thread's timed waits on time. The default
/// 50 µs timer slack would otherwise add up to 50 µs of lateness to every
/// scheduled send, which the open-loop latencies would then count.
pub fn tight_timers() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes the slack in ns by value and touches
    // no caller memory; a failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// What the load connection saw.
#[derive(Default)]
pub struct LoadOut {
    /// Per batch: scheduled send to ack.
    pub ack_us: Vec<f64>,
    /// Per batch: actual write to ack.
    pub rtt_us: Vec<f64>,
    /// Per batch: actual write minus scheduled send.
    pub late_us: Vec<f64>,
    pub tally: Tally,
}

/// Sends `batches` on a fixed schedule from `t0` at `rate` samples/s,
/// whatever the replies do, reading acks as they arrive. One thread
/// multiplexes both directions with `ppoll`, so a slow reply never delays
/// a send; a send that still runs late is counted as generator lateness.
pub fn open_loop(
    conn: &mut Conn,
    batches: &[Batch],
    t0: Instant,
    rate: f64,
    tracer: &mut Tracer,
    root: usize,
) -> Result<LoadOut, String> {
    let period_ns = 1e9 * BATCH as f64 / rate;
    let due = |i: usize| t0 + Duration::from_nanos((i as f64 * period_ns) as u64);
    let n = batches.len();
    let mut out = LoadOut {
        ack_us: Vec::with_capacity(n),
        rtt_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        tally: Tally::default(),
    };
    let mut sent_at = Vec::with_capacity(n);
    let mut pending: Vec<u8> = Vec::new();
    let mut written = 0;
    let mut acked = 0;
    let mut progress = Instant::now();
    tight_timers();
    conn.set_nonblocking(true)?;
    while acked < n {
        let now = Instant::now();
        while sent_at.len() < n && due(sent_at.len()) <= now {
            out.late_us.push(us(now - due(sent_at.len())));
            pending.extend_from_slice(&batches[sent_at.len()].frame);
            sent_at.push(now);
        }
        if written < pending.len() {
            written += conn.write_some(&pending[written..])?;
            if written == pending.len() {
                pending.clear();
                written = 0;
            }
        }
        loop {
            let Some((id, resp)) = conn.take()? else {
                if conn.fill()? == 0 {
                    break;
                }
                continue;
            };
            let at = Instant::now();
            if id != frame_id(&batches[acked].frame) {
                return Err(format!("reply for request {id} out of order"));
            }
            out.tally.push(&resp, batches[acked].samples);
            out.ack_us.push(us(at - due(acked)));
            out.rtt_us.push(us(at - sent_at[acked]));
            let span = tracer.span("load.batch", due(acked), at, root, id);
            tracer.span("load.rtt", sent_at[acked], at, span, id);
            acked += 1;
            progress = at;
        }
        if acked == n {
            break;
        }
        if progress.elapsed() > REPLY_TIMEOUT {
            return Err("timed out waiting for load acks".into());
        }
        let wait = match sent_at.len() < n {
            true => due(sent_at.len()).saturating_duration_since(Instant::now()),
            false => Duration::from_millis(100),
        };
        if !wait.is_zero() {
            conn.wait(written < pending.len(), wait);
        }
    }
    conn.set_nonblocking(false)?;
    Ok(out)
}

/// What the probe connection saw.
#[derive(Default)]
pub struct ProbeOut {
    /// Scheduled send to the `Predict` that first shows the step.
    pub fresh_us: Vec<f64>,
    /// Scheduled send to the push ack.
    pub ack_us: Vec<f64>,
    /// Push ack to the step being visible.
    pub step_wait_us: Vec<f64>,
    pub late_us: Vec<f64>,
    /// `(probe stream, minute pushed, forecast served after that step)`.
    pub forecasts: Vec<(usize, u64, Option<f64>)>,
    /// Progress samples taken between probes, one per `SEGMENT_S`.
    pub progress: Vec<Progress>,
    pub tally: Tally,
}

/// Pushes one clean probe sample every `1 / PROBE_RATE` seconds from `t0`
/// and, after each ack, polls `Predict` until the stream's step count
/// shows it. `steps` holds each probe stream's expected step count. A
/// progress sample is taken between probes every `SEGMENT_S`.
pub fn probes(
    conn: &mut Conn,
    probes: &[Probe],
    predict: &[Vec<u8>],
    steps: &mut [u64],
    t0: Instant,
    srv: &ServerProc,
    tracer: &mut Tracer,
) -> Result<ProbeOut, String> {
    let mut out = ProbeOut::default();
    tight_timers();
    for (j, p) in probes.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(out.progress.len() as f64 * SEGMENT_S);
        if Instant::now() >= due {
            out.progress.push(progress(conn, srv)?);
        }
        // Offset by half a period so probes interleave with load sends.
        let due = t0 + Duration::from_secs_f64((j as f64 + 0.5) / PROBE_RATE);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        out.late_us.push(us(sent - due));
        conn.send(&p.frame)?;
        let resp = conn.recv_for(frame_id(&p.frame))?;
        let acked = Instant::now();
        out.tally.push(&resp, 1);
        if !matches!(resp, Response::PushBatch(o) if o.accepted == 1) {
            return Err(format!("probe push failed: {resp:?}"));
        }
        steps[p.stream] += 1;
        let reply = loop {
            out.tally.attempted += 1;
            conn.send(&predict[p.stream])?;
            match conn.recv_for(frame_id(&predict[p.stream]))? {
                Response::Predict(r) if r.steps >= steps[p.stream] => break r,
                Response::Predict(_) if acked.elapsed() < REPLY_TIMEOUT => {}
                other => {
                    out.tally.failed += 1;
                    return Err(format!("probe step never became visible: {other:?}"));
                }
            }
        };
        if reply.steps != steps[p.stream] {
            return Err(format!(
                "probe stream stepped {} times, expected {}",
                reply.steps, steps[p.stream]
            ));
        }
        let visible = Instant::now();
        out.fresh_us.push(us(visible - due));
        out.ack_us.push(us(acked - due));
        out.step_wait_us.push(us(visible - acked));
        out.forecasts.push((p.stream, p.minute, reply.forecast));
        let id = frame_id(&p.frame);
        let span = tracer.span("probe", due, visible, 0, id);
        tracer.span("probe.push", sent, acked, span, id);
        tracer.span("probe.step_wait", acked, visible, span, id);
    }
    Ok(out)
}

/// Seconds between progress samples inside a window.
const SEGMENT_S: f64 = 1.0;

/// Reads the fleet's step count over `conn` and the server's CPU time.
fn progress(conn: &mut Conn, srv: &ServerProc) -> Result<Progress, String> {
    let at = Instant::now();
    let steps = conn.health()?.steps;
    Ok(Progress { at, steps, cpu_s: srv.cpu_seconds()? })
}

/// Polls `Health` until the fleet has processed `target()` samples;
/// returns the last rollup and when it was read.
pub fn wait_steps(
    conn: &mut Conn,
    target: impl Fn() -> u64,
) -> Result<(HealthReply, Instant), String> {
    let start = Instant::now();
    loop {
        let h = conn.health()?;
        if h.steps >= target() {
            return Ok((h, Instant::now()));
        }
        if start.elapsed() > REPLY_TIMEOUT {
            return Err(format!("fleet stuck at {} of {} steps", h.steps, target()));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}
