//! The system under test: `dd serve <model.ddm> --shards 2 [--stream]`,
//! started from the release binary as an operator would run it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::loadgen;

/// Shards behind the router.
pub const SHARDS: usize = 2;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;

fn signal(pid: u32, sig: i32) {
    if let Ok(pid) = i32::try_from(pid) {
        // SAFETY: kill(2) has no memory-safety preconditions.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// A running fleet: the supervisor process (router in-process) and its
/// shard processes.
pub struct Fleet {
    child: Option<Child>,
    pub router: SocketAddr,
    /// `(pid, address)` of each shard.
    pub shards: Vec<(u32, SocketAddr)>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Starts the fleet and waits until the router reports every shard
    /// healthy. Returns the fleet and its cold-start wall time in seconds.
    pub fn start(dd: &Path, model: &Path, stream: bool) -> Result<(Fleet, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(dd);
        cmd.arg("serve")
            .arg(model)
            .args(["--shards", &SHARDS.to_string(), "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if stream {
            cmd.arg("--stream");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", dd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut fleet = Fleet {
            child: Some(child),
            router: "0.0.0.0:0".parse().expect("literal address"),
            shards: Vec::new(),
            drain: None,
        };
        let mut lines = BufReader::new(stdout).lines();
        loop {
            let line = match lines.next() {
                Some(Ok(l)) => l,
                _ => return Err("dd serve exited before its router was listening".into()),
            };
            if let Some(rest) = line.strip_prefix("dd-router listening on http://") {
                fleet.router = parse_addr(rest)?;
                break;
            }
            // "shard 0 (pid 123) listening on http://127.0.0.1:4567"
            if let (Some(pid), Some(addr)) = (
                line.split("(pid ").nth(1).and_then(|r| r.split(')').next()),
                line.split("listening on http://").nth(1),
            ) {
                let pid = pid.parse().map_err(|_| format!("bad shard line {line:?}"))?;
                fleet.shards.push((pid, parse_addr(addr)?));
            }
        }
        if fleet.shards.len() != SHARDS {
            return Err(format!("expected {SHARDS} shards, saw {}", fleet.shards.len()));
        }
        // Keep the supervisor's stdout drained for the rest of its life.
        fleet.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        fleet.wait_healthy()?;
        Ok((fleet, t0.elapsed().as_secs_f64()))
    }

    fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(r) = loadgen::get(self.router, "/healthz") {
                let health = serde_json::from_str::<dd_serve::RouterHealth>(&r.body);
                if r.status == 200 && health.is_ok_and(|h| h.healthy_shards == SHARDS) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err("fleet did not become healthy within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Largest VmHWM over the shard processes, in MB.
    pub fn shard_peak_rss_mb(&self) -> f64 {
        self.shards
            .iter()
            .filter_map(|&(pid, _)| vm_hwm_mb(&format!("/proc/{pid}/status")))
            .fold(0.0, f64::max)
    }

    /// CPU time the router and shard processes have used so far, in
    /// seconds: the scheduler's per-thread run time (nanoseconds, from
    /// `/proc/<pid>/task/*/schedstat`), which unlike `utime + stime` is not
    /// rounded to clock ticks. Both servers keep fixed thread pools, so no
    /// thread that ran requests has exited.
    pub fn cpu_seconds(&self) -> f64 {
        let pids = self.child.iter().map(Child::id).chain(self.shards.iter().map(|s| s.0));
        pids.map(run_ns).sum::<u64>() as f64 / 1e9
    }

    /// Graceful stop: SIGINT to the supervisor, which drains the router
    /// and then its shards. Escalates to SIGKILL after 20 s. Stopping a
    /// stopped fleet does nothing.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else { return Ok(()) };
        signal(child.id(), SIGINT);
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break None,
            }
        };
        if !status.is_some_and(|s| s.success()) {
            // The supervisor did not reap its shards: make sure none
            // outlives the run.
            let _ = child.kill();
            let _ = child.wait();
            for &(pid, _) in &self.shards {
                if Path::new(&format!("/proc/{pid}")).exists() {
                    signal(pid, SIGKILL);
                }
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("dd serve exited with {s}")),
            None => Err("dd serve did not drain within 20 s and was killed".into()),
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn parse_addr(s: &str) -> Result<SocketAddr, String> {
    s.trim().parse().map_err(|_| format!("bad address {s:?}"))
}

/// Run time in nanoseconds summed over the threads of process `pid` (the
/// first field of each thread's `schedstat`).
fn run_ns(pid: u32) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
