//! Open-loop load generator and its raw HTTP/1.1 client.
//!
//! Requests are planned ahead with a due time each. A fixed number of
//! lanes (at most the core count) send their share of the plan in due
//! order, one request in flight per lane. A lane that falls behind sends
//! its next request at once, and every latency is taken from the due
//! time, so a stall is charged to every request it delayed (no
//! coordinated omission). How late each request went out is kept as the
//! generator's lag.
//!
//! The server answers `Connection: close`, so every request pays for its
//! own TCP connection, as real clients of `dd serve` do today.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connect, read and write timeout of one request.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed response plus the client-side socket timings.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// TCP connect time.
    pub connect_us: f64,
    /// Request written to first response byte.
    pub ttfb_us: f64,
}

/// Request bytes of a `GET`.
pub fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Request bytes of a `POST` with a body.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends one request on a fresh connection and reads the reply to EOF.
pub fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let connected = t0.elapsed();
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(REQUEST_TIMEOUT));
    let _ = s.set_write_timeout(Some(REQUEST_TIMEOUT));
    s.write_all(raw).map_err(|e| format!("write {addr}: {e}"))?;
    let written = t0.elapsed();
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first = None;
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                first.get_or_insert_with(|| t0.elapsed());
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read {addr}: {e}")),
        }
    }
    let (status, body) = parse_response(&buf)?;
    let first = first.unwrap_or(written);
    Ok(Reply {
        status,
        body,
        connect_us: connected.as_secs_f64() * 1e6,
        ttfb_us: first.saturating_sub(written).as_secs_f64() * 1e6,
    })
}

/// `GET` convenience for control-plane calls (health, metrics).
pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    send(addr, &get_bytes(path))
}

fn parse_response(buf: &[u8]) -> Result<(u16, String), String> {
    let end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("truncated response ({} bytes)", buf.len()))?;
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| "non-UTF-8 response head")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let body = &buf[end + 4..];
    let declared = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok());
    if declared.is_some_and(|n| n != body.len()) {
        return Err(format!("body is {} bytes, Content-Length says {declared:?}", body.len()));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| "non-UTF-8 response body")?;
    Ok((status, body))
}

/// What a planned request does, for verification after the run.
#[derive(Debug, Clone)]
pub enum Op {
    /// `GET /score` (one pair) or `POST /batch` (`batch == true`).
    Read { pairs: Vec<(u32, u32)>, batch: bool },
    /// `POST /ingest` of the session's event batch with this index.
    Ingest { batch: usize },
    /// `POST /admin/reload` through the router.
    Reload,
}

/// One request of the plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Offset from the phase start at which the request is due.
    pub due: Duration,
    /// Lane (sender thread) that sends it; ingests and reloads use lane 0
    /// so that writes reach the fleet in log order.
    pub lane: usize,
    pub op: Op,
    pub raw: Vec<u8>,
}

/// One request as it happened.
#[derive(Debug, Clone)]
pub struct Done {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub result: Result<Reply, String>,
    /// Ingest batches acknowledged before the request was sent.
    pub lo: usize,
    /// Ingest batches whose send had started when the reply arrived. A
    /// read may observe any state between `lo` and `hi` batches.
    pub hi: usize,
}

impl Done {
    /// Latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e3
    }

    /// Send to reply, in ms: the latency a caller sees once the request
    /// is out, without the generator's backlog.
    pub fn service_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, in ms.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Ingest progress shared by every lane of one fleet session.
#[derive(Debug, Default)]
pub struct IngestClock {
    started: AtomicUsize,
    acked: AtomicUsize,
}

/// Sends `plan` open-loop on `lanes` threads against `addr`; returns one
/// [`Done`] per planned request, in plan order.
pub fn run_open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    lanes: usize,
    clock: &IngestClock,
) -> Vec<Done> {
    let start = Instant::now();
    let mut out: Vec<Option<Done>> = vec![None; plan.len()];
    let per_lane: Vec<Vec<(usize, Done)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    for (i, p) in plan.iter().enumerate().filter(|(_, p)| p.lane == lane) {
                        let now = start.elapsed();
                        if p.due > now {
                            std::thread::sleep(p.due - now);
                        }
                        done.push((i, send_one(addr, p, start, clock)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator lane panicked")).collect()
    });
    for (i, d) in per_lane.into_iter().flatten() {
        out[i] = Some(d);
    }
    out.into_iter().map(|d| d.expect("every planned request has a lane")).collect()
}

fn send_one(addr: SocketAddr, p: &Planned, start: Instant, clock: &IngestClock) -> Done {
    if let Op::Ingest { batch } = p.op {
        clock.started.store(batch + 1, Ordering::SeqCst);
    }
    let lo = clock.acked.load(Ordering::SeqCst);
    let sent = start.elapsed();
    let result = send(addr, &p.raw);
    let done = start.elapsed();
    if let (Op::Ingest { batch }, Ok(r)) = (&p.op, &result) {
        if r.status == 200 {
            clock.acked.store(batch + 1, Ordering::SeqCst);
        }
    }
    let hi = clock.started.load(Ordering::SeqCst);
    Done { due: p.due, sent, done, result, lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Dist;
    use std::net::TcpListener;

    /// A one-connection-at-a-time endpoint that stalls `stall` before
    /// answering its `stall_at`-th request and answers the rest at once.
    fn stalled_endpoint(stall_at: usize, stall: Duration, total: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(total).enumerate() {
                let mut s = conn.unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
        });
        addr
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lag_reports_the_stall() {
        // Due every 5 ms for 0.6 s; the 11th request stalls for 0.3 s.
        let n = 120;
        let stall = Duration::from_millis(300);
        let addr = stalled_endpoint(10, stall, n);
        let plan: Vec<Planned> = (0..n)
            .map(|i| Planned {
                due: Duration::from_millis(5 * i as u64),
                lane: 0,
                op: Op::Read { pairs: vec![(0, 1)], batch: false },
                raw: get_bytes("/score?src=0&dst=1"),
            })
            .collect();
        let done = run_open_loop(addr, &plan, 1, &IngestClock::default());
        assert!(done.iter().all(|d| d.result.as_ref().is_ok_and(|r| r.status == 200)));
        // The request due right after the stalled one was held back by it:
        // from its due time it waited most of the stall, although its own
        // round trip was fast.
        let next = &done[11];
        assert!(next.latency_ms() > 250.0, "latency {} ms", next.latency_ms());
        assert!(next.service_ms() < 50.0, "service {} ms", next.service_ms());
        // The stall shows up as generator lag on the requests it delayed.
        let lag = Dist::of(&done.iter().map(Done::lag_ms).collect::<Vec<_>>());
        assert!(lag.p99 > 200.0, "lag p99 {} ms", lag.p99);
        // Requests scheduled after the backlog cleared went out on time.
        assert!(done[n - 1].lag_ms() < 50.0, "tail lag {} ms", done[n - 1].lag_ms());
    }

    #[test]
    fn reads_record_the_ingest_window_they_overlap() {
        let addr = stalled_endpoint(usize::MAX, Duration::ZERO, 3);
        let clock = IngestClock::default();
        let plan = vec![
            Planned {
                due: Duration::ZERO,
                lane: 0,
                op: Op::Ingest { batch: 0 },
                raw: post_bytes("/ingest", "{}"),
            },
            Planned {
                due: Duration::from_millis(1),
                lane: 0,
                op: Op::Read { pairs: vec![(0, 1)], batch: false },
                raw: get_bytes("/score?src=0&dst=1"),
            },
        ];
        let done = run_open_loop(addr, &plan, 1, &clock);
        assert_eq!((done[1].lo, done[1].hi), (1, 1));
    }

    #[test]
    fn response_parsing_checks_content_length() {
        assert_eq!(
            parse_response(b"HTTP/1.1 404 Not Found\r\nContent-Length: 3\r\n\r\nabc").unwrap(),
            (404, "abc".to_string())
        );
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc").is_err());
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
