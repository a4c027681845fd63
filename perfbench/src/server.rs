//! The server under test, as a separate child process: the child side
//! (`perfbench serve ...`) and the parent's handle on it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fleet::{BackpressurePolicy, DurabilityConfig, FleetConfig, FleetEngine};
use netserve::{Request, Server, ServerConfig};

use crate::conn::Conn;

/// WAL records between automatic durable checkpoints on `durable`. About
/// 4,400 records land per second of load, so two checkpoints fall in a
/// 10 s window, at the same points of the schedule in every run. Each
/// stalls producers for its encode; at two per window the stalls stay in
/// the ack tail (p99) and out of the gated p50 and p90.
const AUTO_CHECKPOINT_RECORDS: u64 = 30_000;

/// The engine configuration of the server under test: defaults, except two
/// shards (one per core of the reference host), `Block` backpressure, and a
/// WAL under `durable_dir` when one is given.
/// `Block` keeps every workload lossless: with the default `RejectNew`, a
/// 40 ms scheduler stall on a shared host, or a durable checkpoint that
/// quiesces producers, would turn into rejected samples, so a stall shows
/// up as latency instead of as failures.
pub fn fleet_config(durable_dir: Option<&Path>) -> FleetConfig {
    FleetConfig {
        shards: 2,
        backpressure: BackpressurePolicy::Block,
        durability: durable_dir.map(|dir| DurabilityConfig {
            auto_checkpoint_records: AUTO_CHECKPOINT_RECORDS,
            ..DurabilityConfig::new(dir)
        }),
        ..FleetConfig::default()
    }
}

/// Child entry point: `serve [<durable dir>]`. Prints
/// `READY <addr> <http addr>`, serves until a wire `Shutdown`, then drains.
/// Exits when its parent closes stdin, so it never outlives the benchmark.
pub fn serve(args: &[String]) -> Result<(), String> {
    let dir = args.first().map(PathBuf::from);
    let engine = FleetEngine::new(fleet_config(dir.as_deref())).map_err(|e| e.to_string())?;
    let mut server =
        Server::start(Arc::new(engine), ServerConfig::default()).map_err(|e| e.to_string())?;
    let http = server.http_addr().ok_or("http shim disabled")?;
    println!("READY {} {http}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(3);
    });
    while !server.is_shutting_down() {
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    Ok(())
}

/// The parent's handle on a running server child.
pub struct ServerProc {
    child: Child,
    _stdin: ChildStdin,
    pub addr: SocketAddr,
    pub http: SocketAddr,
}

impl ServerProc {
    /// Spawns this executable in server mode and waits for `READY`.
    pub fn spawn(durable_dir: Option<&Path>) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve");
        if let Some(dir) = durable_dir {
            cmd.arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let parsed = read.ok().and_then(|_| {
            let mut it = line.split_whitespace();
            (it.next() == Some("READY")).then_some(())?;
            Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
        });
        let Some((addr, http)) = parsed else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start: {line:?}"));
        };
        Ok(ServerProc { child, _stdin: stdin, addr, http })
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
    }

    /// CPU time (user + system, all threads) the server has used.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        parse_cpu_seconds(&self.proc_file("stat")?, clock_ticks())
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = self.proc_file("status")?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// Asks the server to shut down over `conn` and waits for it to exit.
    pub fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.call(&Request::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => return Err("server did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Clock ticks per second, for `/proc/<pid>/stat` times.
fn clock_ticks() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer selector and reads no caller memory.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line, in seconds. The command
/// name may hold spaces, so fields are counted from its closing `)`.
pub fn parse_cpu_seconds(stat: &str, ticks_per_s: f64) -> Result<f64, String> {
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let field = |n: usize| -> Result<f64, String> {
        fields.get(n - 3).and_then(|v| v.parse().ok()).ok_or_else(|| format!("stat field {n}"))
    };
    Ok((field(14)? + field(15)?) / ticks_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_skip_the_command_name() {
        let stat = "42 (my server) S 1 42 42 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0";
        assert_eq!(parse_cpu_seconds(stat, 100.0).unwrap(), 3.25);
        assert!(parse_cpu_seconds("garbage", 100.0).is_err());
    }
}
