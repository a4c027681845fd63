//! Benchmark: concurrent client connections driving a fault-injected
//! fleet through the netserve wire protocol on localhost.
//!
//! Methodology: each `--conns` point in the sweep gets a fresh engine and
//! server (reactor event loops, binary + HTTP ports, both ephemeral),
//! `--streams` registered streams, and one closed-loop worker per
//! connection pushing fault-corrupted samples (vmsim `FaultInjector`) in
//! `--batch`-sized `PushBatch` requests (default 12), timing every round trip. Every 32
//! batches a worker also issues a `Predict`. The first `--warmup` seconds
//! of each point are excluded from the RTT percentiles and the throughput
//! window — connection ramp, allocator warm-up, and cold predictor
//! training don't belong in a steady-state number — and the default
//! `--duration` is 5 s so queue-fill transients can't flatter the rate.
//!
//! While the load runs, the main thread scrapes `/metrics` and `/healthz`
//! over the HTTP shim and validates them (finite Prometheus samples; the
//! strict no-NaN JSON parser for `/healthz`). Each point ends with a
//! `Health` poll, a `Checkpoint` download and a wire `Shutdown`. The
//! headline point (64 connections when present in the sweep, else the
//! last) fills the top-level report fields; every point lands in the
//! `"sweep"` array. The report is printed and written to `--out`
//! (default `results/BENCH_net.json`).
//!
//! With `--record <dir>` the headline point is also mirrored into a
//! replayable recorded-trace WAL (the `store` crate's segment format) and
//! self-validated by re-recovering it gap-free.
//!
//! `--storm N` runs a connection-storm smoke instead of the bench: open N
//! simultaneous connections (handshaking each), verify the shim still
//! answers and every connection is tracked, then tear them all down.
//!
//! Run with:
//! `cargo run --release -p netserve --bin net_loadgen -- --conns 8,64,256 --streams 256 --shards 4`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fleet::{FleetConfig, FleetEngine};
use netserve::{Client, ClientConfig, Server, ServerConfig};
use obs::percentile_sorted;
use store::{RegisterTuning, Sample, Wal, WalOptions, WalRecord};
use vmsim::{fleet_signal, FaultConfig, FaultInjector};

struct Args {
    conns: Vec<usize>,
    streams: u64,
    shards: usize,
    duration: f64,
    warmup: f64,
    batch: usize,
    fault_rate: f64,
    seed: u64,
    out: String,
    record: Option<String>,
    storm: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        conns: vec![8, 64, 256],
        streams: 256,
        shards: 4,
        duration: 5.0,
        warmup: 1.0,
        batch: 12,
        fault_rate: 0.01,
        seed: 2007,
        out: "results/BENCH_net.json".to_string(),
        record: None,
        storm: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().unwrap_or_else(|| panic!("{name} expects a value"));
        let uint = |name: &str, v: String| {
            v.parse::<u64>().unwrap_or_else(|_| panic!("{name} expects an unsigned integer"))
        };
        let secs = |name: &str, v: String| {
            v.parse::<f64>()
                .ok()
                .filter(|d| d.is_finite() && *d >= 0.0)
                .unwrap_or_else(|| panic!("{name} expects non-negative seconds, got {v}"))
        };
        match flag.as_str() {
            // --clients kept as a compatibility alias for a single point.
            "--conns" | "--clients" => {
                let v = take("--conns");
                args.conns =
                    v.split(',')
                        .map(|p| {
                            p.trim().parse::<usize>().ok().filter(|c| *c >= 1).unwrap_or_else(
                                || panic!("--conns expects positive integers, got {p}"),
                            )
                        })
                        .collect();
                assert!(!args.conns.is_empty(), "--conns expects at least one value");
            }
            "--streams" => args.streams = uint("--streams", take("--streams")),
            "--shards" => args.shards = uint("--shards", take("--shards")) as usize,
            "--duration" => {
                args.duration = secs("--duration", take("--duration"));
                assert!(args.duration > 0.0, "--duration must be positive");
            }
            "--warmup" => args.warmup = secs("--warmup", take("--warmup")),
            "--batch" => args.batch = (uint("--batch", take("--batch")) as usize).max(1),
            "--fault" => {
                args.fault_rate = secs("--fault", take("--fault"));
                assert!(args.fault_rate <= 1.0, "--fault expects a rate in [0, 1]");
            }
            "--seed" => args.seed = uint("--seed", take("--seed")),
            "--out" => args.out = take("--out"),
            "--record" => args.record = Some(take("--record")),
            "--storm" => args.storm = Some(uint("--storm", take("--storm")) as usize),
            other => panic!(
                "unknown flag {other}; supported: --conns --streams --shards --duration \
                 --warmup --batch --fault --seed --out --record --storm"
            ),
        }
    }
    assert!(args.streams >= 1, "--streams must be >= 1");
    let max_conns = *args.conns.iter().max().expect("non-empty sweep");
    assert!(
        args.streams >= max_conns as u64,
        "--streams ({}) must cover the largest sweep point ({max_conns}) so every worker \
         owns at least one stream",
        args.streams
    );
    assert!(
        args.warmup < args.duration,
        "--warmup ({}) must leave a measurement window inside --duration ({})",
        args.warmup,
        args.duration
    );
    args
}

/// Per-worker tallies. `measured_*` cover only the post-warmup window;
/// the total counters account for every sample (loss checks, trace).
#[derive(Default)]
struct WorkerStats {
    rtt_us: Vec<f64>,
    measured_requests: u64,
    measured_samples: u64,
    push_requests: u64,
    predict_requests: u64,
    samples_pushed: u64,
    accepted: u64,
    rejected: u64,
}

/// One raw wire connection a worker drives: its own stream subset,
/// per-stream corrupted generators, and a request-id sequence.
struct DrivenConn {
    stream: TcpStream,
    gens: Vec<(u64, Box<dyn vmsim::signal::Signal>, FaultInjector, u64)>,
    next_gen: usize,
    seq: u64,
    batch: Vec<(u64, f64)>,
    sent_at: Instant,
}

impl DrivenConn {
    fn connect(
        addr: std::net::SocketAddr,
        ids: Vec<u64>,
        seed: u64,
        fault_rate: f64,
    ) -> DrivenConn {
        let stream = TcpStream::connect(addr).expect("worker connects");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let gens = ids
            .iter()
            .map(|&id| {
                let injector =
                    FaultInjector::new(FaultConfig::uniform(fault_rate), seed ^ (id << 1) | 1)
                        .expect("valid fault config");
                (id, fleet_signal(seed, id), injector, 0u64)
            })
            .collect();
        let mut conn = DrivenConn {
            stream,
            gens,
            next_gen: 0,
            seq: 0,
            batch: Vec::new(),
            sent_at: Instant::now(),
        };
        let hello = conn.request_frame(&netserve::Request::Hello { client: "loadgen".into() });
        conn.stream.write_all(&hello).expect("hello");
        let reply = conn.read_reply();
        assert!(matches!(reply, netserve::Response::Hello { .. }), "handshake: {reply:?}");
        conn
    }

    fn request_frame(&mut self, req: &netserve::Request) -> Vec<u8> {
        self.seq += 1;
        netserve::wire::encode(&netserve::Frame {
            opcode: req.opcode() as u8,
            request_id: self.seq,
            payload: req.encode_payload(),
        })
    }

    fn read_reply(&mut self) -> netserve::Response {
        let frame = netserve::wire::read_frame(&mut self.stream, 1 << 24).expect("response frame");
        assert_eq!(frame.request_id, self.seq, "one request in flight per connection");
        let resp =
            netserve::Response::decode(frame.opcode, &frame.payload).expect("decodable response");
        assert!(!matches!(resp, netserve::Response::Error { .. }), "request failed: {resp:?}");
        resp
    }

    /// Builds the next auto-clocked fault-corrupted batch into `self.batch`.
    fn fill_batch(&mut self, batch_size: usize) {
        self.batch.clear();
        while self.batch.len() < batch_size {
            let gen_count = self.gens.len();
            let (id, signal, injector, minute) = &mut self.gens[self.next_gen];
            self.next_gen = (self.next_gen + 1) % gen_count;
            let clean = signal.sample(*minute);
            // The injector may drop the sample, duplicate it, or corrupt its
            // value; the wire batch is auto-clocked so only values travel.
            for (_, value, _) in injector.corrupt(*minute, clean) {
                self.batch.push((*id, value));
            }
            *minute += 1;
        }
    }
}

/// Drives `conns` connections from one thread, pipelined across (not
/// within) connections: write one `PushBatch` on every connection, then
/// read every reply. Each connection keeps exactly one request in flight,
/// so server-side response ordering is trivially covered, while the
/// client side needs only a handful of threads to saturate the wire —
/// RTT tails measure the server, not client-side thread scheduling.
#[allow(clippy::too_many_arguments)]
fn worker(
    addr: std::net::SocketAddr,
    conn_streams: Vec<Vec<u64>>,
    seed: u64,
    fault_rate: f64,
    batch_size: usize,
    warmup_end: Instant,
    deadline: Instant,
    recorder: Option<Arc<Mutex<Wal>>>,
) -> WorkerStats {
    let mut conns: Vec<DrivenConn> = conn_streams
        .into_iter()
        .map(|ids| DrivenConn::connect(addr, ids, seed, fault_rate))
        .collect();
    let mut stats = WorkerStats::default();
    let mut rounds = 0u64;
    let mut predict_rotor = 0usize;
    while Instant::now() < deadline {
        rounds += 1;
        for conn in &mut conns {
            conn.fill_batch(batch_size);
            let frame =
                conn.request_frame(&netserve::Request::PushBatch { samples: conn.batch.clone() });
            conn.sent_at = Instant::now();
            conn.stream.write_all(&frame).expect("push_batch write");
        }
        for conn in &mut conns {
            let resp = conn.read_reply();
            let conn = &*conn;
            let done = Instant::now();
            let netserve::Response::PushBatch(outcome) = resp else {
                panic!("push_batch got {resp:?}");
            };
            let measured = conn.sent_at >= warmup_end;
            if measured {
                stats.rtt_us.push((done - conn.sent_at).as_secs_f64() * 1e6);
                stats.measured_requests += 1;
                stats.measured_samples += conn.batch.len() as u64;
            }
            if let Some(wal) = &recorder {
                // Record the acked batch exactly as it traveled: auto-clocked
                // (stream, value) pairs, one WAL record per wire request.
                let samples: Vec<Sample> = conn
                    .batch
                    .iter()
                    .map(|&(stream, value)| Sample { stream, minute: None, value })
                    .collect();
                let mut wal = wal.lock().expect("recorder poisoned");
                wal.append_samples(&samples).expect("trace record append");
            }
            stats.push_requests += 1;
            stats.samples_pushed += conn.batch.len() as u64;
            stats.accepted += outcome.accepted;
            stats.rejected += outcome.rejected;
        }
        if rounds.is_multiple_of(32) {
            let slot = predict_rotor % conns.len();
            let conn = &mut conns[slot];
            let id = conn.gens[predict_rotor % conn.gens.len()].0;
            predict_rotor += 1;
            let frame = conn.request_frame(&netserve::Request::Predict { id });
            let t = Instant::now();
            conn.stream.write_all(&frame).expect("predict write");
            let resp = conn.read_reply();
            assert!(matches!(resp, netserve::Response::Predict(_)), "predict got {resp:?}");
            if t >= warmup_end {
                stats.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                stats.measured_requests += 1;
            }
            stats.predict_requests += 1;
        }
    }
    stats
}

/// Minimal HTTP GET over a raw socket; returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("recv: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparsable status line in {raw:.60}"))?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

/// Every non-comment Prometheus sample line must carry a finite,
/// non-negative value.
fn prometheus_is_sane(text: &str) -> bool {
    !text.is_empty()
        && text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).all(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .is_some_and(|v| v.is_finite() && v >= 0.0)
        })
}

/// One sweep point's results, plus the handles the headline report needs.
struct PointResult {
    conns: usize,
    measured_sec: f64,
    requests: u64,
    push_requests: u64,
    predict_requests: u64,
    samples_pushed: u64,
    measured_requests: u64,
    measured_samples: u64,
    req_per_sec: f64,
    samples_per_sec: f64,
    rtt_p50_us: f64,
    rtt_p90_us: f64,
    rtt_p99_us: f64,
    accepted: u64,
    rejected: u64,
    health: netserve::HealthReply,
    checkpoint_bytes: usize,
    obs_json: String,
    trace: Option<(u64, u64, u64)>,
}

fn run_point(args: &Args, conns: usize, record: Option<&str>) -> PointResult {
    let engine = Arc::new(
        FleetEngine::new(FleetConfig {
            shards: args.shards,
            // Lossless: Block never sheds, and the queue is sized so a full
            // run fits without the enqueue path stalling on the serving
            // drain — the bench measures the wire path; the engine's own
            // drain rate is reported separately as fleet_steps.
            queue_capacity: 1 << 19,
            fleet_seed: args.seed,
            ..FleetConfig::default()
        })
        .expect("valid fleet config"),
    );
    let mut server = Server::start(
        Arc::clone(&engine),
        ServerConfig { max_connections: conns + 8, ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = server.addr();
    let http_addr = server.http_addr().expect("http shim enabled");

    let mut setup = Client::connect(addr, ClientConfig::default()).expect("setup client");
    for id in 0..args.streams {
        setup.register_with(id, bench_tuning(id)).expect("fresh stream id");
    }

    // --record: mirror the session into a replayable WAL trace (store's
    // segment format) — registrations first, then every acked batch.
    let recorder: Option<Arc<Mutex<Wal>>> = record.map(|dir| {
        let dir = Path::new(dir);
        if dir.exists() {
            std::fs::remove_dir_all(dir).expect("clear stale trace dir");
        }
        let mut wal = Wal::create(dir, WalOptions::default()).expect("create trace WAL");
        for id in 0..args.streams {
            let bench = bench_tuning(id);
            let tuning = RegisterTuning {
                train_size: bench.train_size,
                qa_window: bench.qa_window,
                qa_period: bench.qa_period,
                qa_threshold: bench.qa_threshold,
                f32_history: false,
            };
            wal.append_register(id, &tuning).expect("trace register append");
        }
        Arc::new(Mutex::new(wal))
    });

    let started = Instant::now();
    let warmup_end = started + Duration::from_secs_f64(args.warmup);
    let deadline = started + Duration::from_secs_f64(args.duration);
    // A few driver threads, many connections each: client-side thread
    // scheduling must not show up in the server's latency tails.
    let workers =
        conns.min(std::thread::available_parallelism().map(|n| n.get() * 2).unwrap_or(2).max(2));
    let stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let conn_streams: Vec<Vec<u64>> = (0..conns)
                    .filter(|c| c % workers == w)
                    .map(|c| (0..args.streams).filter(|id| (*id as usize) % conns == c).collect())
                    .collect();
                let (seed, fault_rate, batch) = (args.seed, args.fault_rate, args.batch);
                let recorder = recorder.clone();
                scope.spawn(move || {
                    worker(
                        addr,
                        conn_streams,
                        seed,
                        fault_rate,
                        batch,
                        warmup_end,
                        deadline,
                        recorder,
                    )
                })
            })
            .collect();

        // While the fleet is under load, scrape the observability port.
        let (hz_status, hz_body) = http_get(http_addr, "/healthz").expect("healthz scrape");
        let healthz_ok = hz_status == 200 && obs::expo::validate_json(&hz_body).is_ok();
        let (m_status, m_body) = http_get(http_addr, "/metrics").expect("metrics scrape");
        let metrics_ok = m_status == 200
            && prometheus_is_sane(&m_body)
            && m_body.contains("net_op_push_batch_total")
            && m_body.contains("net_connections");
        assert!(healthz_ok, "healthz scrape failed: status {hz_status}, body {hz_body}");
        assert!(metrics_ok, "metrics scrape failed: status {m_status}");

        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    let measured_sec = (Instant::now() - warmup_end).as_secs_f64().max(1e-9);

    // Post-run control-plane traffic on the setup connection.
    let health = setup.health().expect("health");
    let checkpoint = setup.checkpoint().expect("checkpoint");
    setup.shutdown_server().expect("wire shutdown acked");
    server.shutdown();

    // Finalize the recorded trace, then prove it replays: re-scan the WAL
    // and require every appended record back, gap-free.
    let trace = recorder.map(|wal| {
        let wal = Arc::try_unwrap(wal).ok().expect("workers have released the recorder");
        let mut wal = wal.into_inner().expect("recorder poisoned");
        wal.sync().expect("trace fsync");
        let appended = wal.stats();
        drop(wal);
        let dir = Path::new(record.expect("record path"));
        let mut samples = 0u64;
        let (_wal, report) = Wal::recover(dir, WalOptions::default(), 0, |_seq, rec| {
            if let WalRecord::Samples(s) = rec {
                samples += s.len() as u64;
            }
        })
        .expect("recorded trace replays");
        assert_eq!(report.replayed, appended.records, "recorded trace lost records");
        assert_eq!(report.gap_records, 0, "recorded trace has gaps");
        (appended.records, samples, appended.bytes)
    });

    let mut rtt_us: Vec<f64> = Vec::new();
    let mut total = WorkerStats::default();
    for s in stats {
        rtt_us.extend_from_slice(&s.rtt_us);
        total.measured_requests += s.measured_requests;
        total.measured_samples += s.measured_samples;
        total.push_requests += s.push_requests;
        total.predict_requests += s.predict_requests;
        total.samples_pushed += s.samples_pushed;
        total.accepted += s.accepted;
        total.rejected += s.rejected;
    }
    rtt_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |p: f64| percentile_sorted(&rtt_us, p).unwrap_or(0.0);

    assert_eq!(total.rejected, 0, "ingestion must be lossless");
    assert_eq!(health.nonfinite_forecasts, 0, "non-finite forecast escaped the fleet");
    assert_eq!(
        health.pushes.accepted, total.accepted,
        "every worker-accepted sample must be visible in the fleet rollup"
    );
    if let Some((_, trace_samples, _)) = trace {
        assert_eq!(
            trace_samples, total.samples_pushed,
            "the recorded trace must carry every pushed sample"
        );
    }

    PointResult {
        conns,
        measured_sec,
        requests: total.push_requests + total.predict_requests,
        push_requests: total.push_requests,
        predict_requests: total.predict_requests,
        samples_pushed: total.samples_pushed,
        measured_requests: total.measured_requests,
        measured_samples: total.measured_samples,
        req_per_sec: total.measured_requests as f64 / measured_sec,
        samples_per_sec: total.measured_samples as f64 / measured_sec,
        rtt_p50_us: pct(0.50),
        rtt_p90_us: pct(0.90),
        rtt_p99_us: pct(0.99),
        accepted: total.accepted,
        rejected: total.rejected,
        health,
        checkpoint_bytes: checkpoint.len(),
        obs_json: obs::expo::json(engine.registry(), None),
        trace,
    }
}

/// Connection-storm smoke: N simultaneous connections must all handshake,
/// stay tracked, leave the shim responsive, and tear down cleanly.
fn run_storm(args: &Args, storm: usize) {
    let engine = Arc::new(
        FleetEngine::new(FleetConfig {
            shards: args.shards,
            fleet_seed: args.seed,
            ..FleetConfig::default()
        })
        .expect("valid fleet config"),
    );
    let mut server = Server::start(
        Arc::clone(&engine),
        ServerConfig { max_connections: storm + 8, ..ServerConfig::default() },
    )
    .expect("server starts");
    let addr = server.addr();
    let http_addr = server.http_addr().expect("http shim enabled");

    let started = Instant::now();
    let mut conns: Vec<Client> = Vec::with_capacity(storm);
    for _ in 0..storm {
        conns.push(Client::connect(addr, ClientConfig::default()).expect("storm connect"));
    }
    let connect_sec = started.elapsed().as_secs_f64();
    assert_eq!(server.open_connections(), storm as u64, "every connection tracked");

    // The shim (same event loops) still answers under the storm.
    let (hz_status, hz_body) = http_get(http_addr, "/healthz").expect("healthz under storm");
    assert_eq!(hz_status, 200, "healthz under storm: {hz_body}");
    assert!(
        hz_body.contains(&format!("\"connections\": {storm}")),
        "healthz sees the storm: {hz_body}"
    );
    // And the data plane still serves: one round trip on every 10th conn.
    for client in conns.iter_mut().step_by(10) {
        client.health().expect("round trip under storm");
    }

    drop(conns);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "storm teardown never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    println!(
        "{{\n  \"storm_conns\": {storm},\n  \"connect_sec\": {connect_sec:.3},\n  \
         \"healthz_ok\": true,\n  \"teardown_ok\": true\n}}"
    );
}

fn main() {
    let args = parse_args();
    if let Some(storm) = args.storm {
        run_storm(&args, storm);
        return;
    }

    let points: Vec<PointResult> = args
        .conns
        .iter()
        .map(|&conns| {
            // Only the headline point is mirrored into the trace WAL.
            let record =
                if headline_conns(&args.conns) == conns { args.record.as_deref() } else { None };
            eprintln!("net_loadgen: {conns} connections, {:.1}s...", args.duration);
            run_point(&args, conns, record)
        })
        .collect();
    let headline =
        points.iter().find(|p| p.conns == headline_conns(&args.conns)).expect("headline point ran");

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"conns\": {},\n", headline.conns));
    out.push_str(&format!(
        "  \"conns_sweep\": [{}],\n",
        args.conns.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
    ));
    out.push_str(&format!("  \"streams\": {},\n", args.streams));
    out.push_str(&format!("  \"shards\": {},\n", args.shards));
    out.push_str(&format!("  \"batch\": {},\n", args.batch));
    out.push_str(&format!("  \"fault_rate\": {},\n", args.fault_rate));
    let tuning = bench_tuning(0);
    out.push_str(&format!(
        "  \"stream_tuning\": {{\"train_size\": {}, \"qa_window\": {}, \
         \"qa_period_min\": {}, \"qa_period_max\": {}, \"qa_threshold\": {}}},\n",
        tuning.train_size,
        tuning.qa_window,
        tuning.qa_period,
        tuning.qa_period + 8,
        tuning.qa_threshold
    ));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"duration_sec\": {},\n", args.duration));
    out.push_str(&format!("  \"warmup_sec\": {},\n", args.warmup));
    out.push_str(&format!("  \"measured_sec\": {:.3},\n", headline.measured_sec));
    out.push_str(&format!("  \"requests\": {},\n", headline.requests));
    out.push_str(&format!("  \"push_requests\": {},\n", headline.push_requests));
    out.push_str(&format!("  \"predict_requests\": {},\n", headline.predict_requests));
    out.push_str(&format!("  \"samples_pushed\": {},\n", headline.samples_pushed));
    out.push_str(&format!("  \"measured_requests\": {},\n", headline.measured_requests));
    out.push_str(&format!("  \"measured_samples\": {},\n", headline.measured_samples));
    out.push_str(&format!("  \"req_per_sec\": {:.0},\n", headline.req_per_sec));
    out.push_str(&format!("  \"samples_per_sec\": {:.0},\n", headline.samples_per_sec));
    // Ceil-rank round-trip percentiles over every post-warmup request.
    out.push_str(&format!("  \"rtt_p50_us\": {:.1},\n", headline.rtt_p50_us));
    out.push_str(&format!("  \"rtt_p90_us\": {:.1},\n", headline.rtt_p90_us));
    out.push_str(&format!("  \"rtt_p99_us\": {:.1},\n", headline.rtt_p99_us));
    out.push_str(&format!("  \"accepted\": {},\n", headline.accepted));
    out.push_str(&format!("  \"rejected\": {},\n", headline.rejected));
    out.push_str(&format!("  \"fleet_steps\": {},\n", headline.health.steps));
    out.push_str(&format!("  \"fleet_forecasts\": {},\n", headline.health.forecasts));
    out.push_str(&format!("  \"nonfinite_forecasts\": {},\n", headline.health.nonfinite_forecasts));
    out.push_str(&format!("  \"degraded_streams\": {},\n", headline.health.degraded_streams));
    out.push_str(&format!("  \"quarantined_streams\": {},\n", headline.health.quarantined_streams));
    out.push_str(&format!("  \"checkpoint_bytes\": {},\n", headline.checkpoint_bytes));
    out.push_str("  \"healthz_ok\": true,\n");
    out.push_str("  \"metrics_scrape_ok\": true,\n");
    if let Some((records, samples, bytes)) = headline.trace {
        out.push_str(&format!("  \"trace_records\": {records},\n"));
        out.push_str(&format!("  \"trace_samples\": {samples},\n"));
        out.push_str(&format!("  \"trace_bytes\": {bytes},\n"));
    }
    out.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"conns\": {}, \"req_per_sec\": {:.0}, \"samples_per_sec\": {:.0}, \
             \"rtt_p50_us\": {:.1}, \"rtt_p90_us\": {:.1}, \"rtt_p99_us\": {:.1}}}{}\n",
            p.conns,
            p.req_per_sec,
            p.samples_per_sec,
            p.rtt_p50_us,
            p.rtt_p90_us,
            p.rtt_p99_us,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"obs\": {}\n", headline.obs_json));
    out.push('}');

    obs::expo::validate_json(&out)
        .unwrap_or_else(|e| panic!("net_loadgen produced invalid JSON: {e}"));
    println!("{out}");
    if let Err(e) = std::fs::write(&args.out, &out) {
        eprintln!("warning: could not write {}: {e}", args.out);
    }
}

/// Stream tuning for the load: server-default training, but QA audits
/// paced for steady-state serving (the registration defaults audit every
/// 4 samples with a tight threshold — on a noisy fault-injected signal
/// that retrains every few samples and benchmarks the trainer, not the
/// serving path). The period is staggered per stream: every stream starts
/// at minute 0, so a fixed period makes the whole fleet retrain in
/// synchronized waves and the wave, not the serving path, sets the RTT
/// tail. The tuning travels on the wire via `RegisterWith`, so the bench
/// also exercises that opcode, and is recorded in the report.
fn bench_tuning(id: u64) -> netserve::StreamTuning {
    let defaults = &ServerConfig::default().stream_defaults;
    netserve::StreamTuning {
        train_size: defaults.train_size as u32,
        qa_window: 16,
        qa_period: 28 + (id % 9) as u32,
        qa_threshold: 3.0,
    }
}

/// The sweep point that fills the top-level report: 64 connections when
/// present (the fleet's standard comparison point), else the last point.
fn headline_conns(sweep: &[usize]) -> usize {
    if sweep.contains(&64) {
        64
    } else {
        *sweep.last().expect("non-empty sweep")
    }
}
