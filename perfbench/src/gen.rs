//! Workload definitions and input generation.
//!
//! Every byte the server receives is built here from the workload seed
//! before any clock starts: registration frames, the clean training
//! samples, the fault-injected load batches and the clean probe samples.
//! The server therefore only ever sees wire bytes, and two runs with the
//! same seed send the same bytes.

use std::collections::VecDeque;

use fleet::StreamConfig;
use netserve::{wire, Frame, Request, ServerConfig, StreamTuning};
use vmsim::signal::Signal;
use vmsim::{fleet_signal, FaultConfig, FaultInjector};

/// Samples per load `PushBatch`.
pub const BATCH: usize = 12;
/// Samples per setup (training) `PushBatch`.
const SETUP_BATCH: usize = 256;
/// Load streams on every workload (probe streams come on top).
pub const LOAD_STREAMS: u64 = 4096;
/// Probe streams: clean samples, one at a time, on the second connection.
pub const PROBES: usize = 256;
/// Probe stream ids start here, far above every load stream id.
pub const PROBE_BASE: u64 = 1 << 40;
/// Per-sample fault rate of the load streams (every fault kind enabled).
const FAULT_RATE: f64 = 0.01;
/// Offered load, samples per second, on every workload.
pub const OPEN_RATE: f64 = 50_000.0;
/// Probe samples per second.
pub const PROBE_RATE: f64 = 500.0;
/// Load sent before the first measured window, in seconds of schedule.
pub const WARMUP_S: f64 = 1.0;

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, paced QA, in-memory engine: the serving path.
    Steady,
    /// `Steady` with WAL-before-ack and auto-checkpoints: the store path.
    Durable,
    /// Default QA, which refits every few steps: the fit path.
    RetrainStorm,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "steady" => Some(Workload::Steady),
            "durable" => Some(Workload::Durable),
            "retrain_storm" => Some(Workload::RetrainStorm),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Durable => "durable",
            Workload::RetrainStorm => "retrain_storm",
        }
    }

    /// Whether the server runs with WAL durability.
    pub fn durable(self) -> bool {
        self == Workload::Durable
    }

    /// `RegisterWith` tuning for stream `id`, or `None` for a plain
    /// `Register` (server defaults: QA every 4 samples, threshold 2.0).
    ///
    /// `steady` and `durable` pace QA the way a serving deployment would,
    /// and stagger the period per stream: every stream starts at minute 0,
    /// so a fixed period would retrain the whole fleet in synchronized waves.
    pub fn tuning(self, id: u64) -> Option<StreamTuning> {
        match self {
            Workload::RetrainStorm => None,
            Workload::Steady | Workload::Durable => Some(StreamTuning {
                train_size: ServerConfig::default().stream_defaults.train_size as u32,
                qa_window: 16,
                qa_period: 28 + (id % 9) as u32,
                qa_threshold: 3.0,
            }),
        }
    }

    /// The stream configuration the server builds for `id`: the server's
    /// defaults with this workload's tuning applied, exactly as the
    /// `Register`/`RegisterWith` handlers do.
    pub fn stream_config(self, id: u64) -> StreamConfig {
        let base = ServerConfig::default().stream_defaults;
        match self.tuning(id) {
            None => base,
            Some(t) => StreamConfig {
                train_size: t.train_size as usize,
                qa_window: t.qa_window as usize,
                qa_period: t.qa_period as usize,
                qa_threshold: t.qa_threshold,
                ..base
            },
        }
    }

    /// Every registered stream: load streams, then probe streams.
    pub fn stream_ids(self) -> impl Iterator<Item = u64> {
        (0..LOAD_STREAMS).chain(PROBE_BASE..PROBE_BASE + PROBES as u64)
    }
}

/// Encodes one request frame.
pub fn frame(req: &Request, request_id: u64) -> Vec<u8> {
    wire::encode(&Frame { opcode: req.opcode() as u8, request_id, payload: req.encode_payload() })
}

/// The request id carried by an encoded frame.
pub fn frame_id(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[8..16].try_into().expect("frames carry a 16-byte prefix"))
}

/// One pushed batch: its frame and how many samples it carries.
pub struct Batch {
    pub frame: Vec<u8>,
    pub samples: usize,
}

impl Batch {
    /// The `(stream, value)` samples the frame carries.
    pub fn decode(&self) -> Vec<(u64, f64)> {
        let body = &self.frame[4 + wire::HEADER_LEN..self.frame.len() - 4];
        match Request::decode(self.frame[5], body) {
            Ok(Request::PushBatch { samples }) => samples,
            _ => unreachable!("load frames are generated as PushBatch"),
        }
    }
}

/// One probe sample: which probe stream, at which minute, and its frame.
pub struct Probe {
    pub stream: usize,
    pub minute: u64,
    pub frame: Vec<u8>,
}

/// A measured window's inputs.
pub struct Window {
    pub load: Vec<Batch>,
    pub probes: Vec<Probe>,
}

/// Everything a run sends, generated up front.
pub struct Inputs {
    pub register: Vec<Vec<u8>>,
    pub train: Vec<Batch>,
    pub warmup: Vec<Batch>,
    pub windows: Vec<Window>,
    /// Clean values of each probe stream, indexed by minute; one minute
    /// longer than anything sent so every served forecast has its truth.
    pub probe_series: Vec<Vec<f64>>,
    /// Pre-encoded `Predict` frame per probe stream.
    pub predict: Vec<Vec<u8>>,
}

/// A load stream's wire values: clean training samples, then the
/// fault-injected continuation (drops, duplicates, NaNs, sentinels, spikes,
/// stuck runs), one auto-clocked value at a time.
struct Source {
    signal: Box<dyn Signal>,
    injector: FaultInjector,
    minute: u64,
    pending: VecDeque<f64>,
}

impl Source {
    fn clean(&mut self) -> f64 {
        let v = self.signal.sample(self.minute);
        self.minute += 1;
        v
    }

    fn next_wire(&mut self) -> f64 {
        while self.pending.is_empty() {
            let minute = self.minute;
            let clean = self.clean();
            for (_, value, _) in self.injector.corrupt(minute, clean) {
                self.pending.push_back(value);
            }
        }
        self.pending.pop_front().expect("refilled above")
    }
}

/// Request ids of data frames count up from 1; control requests use the
/// top bit (see `conn`), so the two never collide.
struct Ids(u64);

impl Ids {
    fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

fn batch(ids: &mut Ids, samples: Vec<(u64, f64)>) -> Batch {
    let n = samples.len();
    Batch { frame: frame(&Request::PushBatch { samples }, ids.next()), samples: n }
}

/// Load batches over `n` samples, round-robin across the load streams.
fn load_batches(
    ids: &mut Ids,
    sources: &mut [(u64, Source)],
    rr: &mut usize,
    n: usize,
) -> Vec<Batch> {
    let streams = sources.len();
    (0..n.div_ceil(BATCH))
        .map(|_| {
            let samples = (0..BATCH)
                .map(|_| {
                    let (id, src) = &mut sources[*rr];
                    *rr = (*rr + 1) % streams;
                    (*id, src.next_wire())
                })
                .collect();
            batch(ids, samples)
        })
        .collect()
}

impl Inputs {
    /// Generates a run's inputs: setup, warmup, and `windows` measured
    /// windows of `seconds` each.
    pub fn build(w: Workload, seed: u64, seconds: f64, windows: usize) -> Inputs {
        let mut ids = Ids(0);
        let register = w
            .stream_ids()
            .map(|id| {
                let req = match w.tuning(id) {
                    Some(tuning) => Request::RegisterWith { id, tuning },
                    None => Request::Register { id },
                };
                frame(&req, ids.next())
            })
            .collect();

        let train_size = w.stream_config(0).train_size;
        let mut sources: Vec<(u64, Source)> = (0..LOAD_STREAMS)
            .map(|id| {
                let injector =
                    FaultInjector::new(FaultConfig::uniform(FAULT_RATE), seed ^ (id << 1) | 1)
                        .expect("uniform fault config is valid");
                let src = Source {
                    signal: fleet_signal(seed, id),
                    injector,
                    minute: 0,
                    pending: VecDeque::new(),
                };
                (id, src)
            })
            .collect();
        let probes_per_window = (seconds * PROBE_RATE).round() as usize;
        let probe_len = train_size + (windows * probes_per_window).div_ceil(PROBES) + 1;
        let probe_series: Vec<Vec<f64>> = (0..PROBES)
            .map(|p| {
                let mut signal = fleet_signal(seed, PROBE_BASE + p as u64);
                (0..probe_len as u64).map(|m| signal.sample(m)).collect()
            })
            .collect();

        // Training: `train_size` clean samples per stream, minute-major so
        // every stream trains at about the same time.
        let mut train_flat: Vec<(u64, f64)> = Vec::new();
        for m in 0..train_size {
            for (id, src) in sources.iter_mut() {
                train_flat.push((*id, src.clean()));
            }
            for (p, series) in probe_series.iter().enumerate() {
                train_flat.push((PROBE_BASE + p as u64, series[m]));
            }
        }
        let train = train_flat.chunks(SETUP_BATCH).map(|c| batch(&mut ids, c.to_vec())).collect();

        let mut rr = 0;
        let warmup = load_batches(&mut ids, &mut sources, &mut rr, (WARMUP_S * OPEN_RATE) as usize);
        let mut next_probe = 0usize;
        let windows = (0..windows)
            .map(|_| {
                let load =
                    load_batches(&mut ids, &mut sources, &mut rr, (seconds * OPEN_RATE) as usize);
                let probes = (0..probes_per_window)
                    .map(|_| {
                        let stream = next_probe % PROBES;
                        let minute = (train_size + next_probe / PROBES) as u64;
                        next_probe += 1;
                        let samples = vec![(
                            PROBE_BASE + stream as u64,
                            probe_series[stream][minute as usize],
                        )];
                        let frame = frame(&Request::PushBatch { samples }, ids.next());
                        Probe { stream, minute, frame }
                    })
                    .collect();
                Window { load, probes }
            })
            .collect();
        let predict = (0..PROBES)
            .map(|p| frame(&Request::Predict { id: PROBE_BASE + p as u64 }, ids.next()))
            .collect();
        Inputs { register, train, warmup, windows, probe_series, predict }
    }
}
