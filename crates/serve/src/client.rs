//! Minimal blocking HTTP/1.1 client over `TcpStream`, shared by the router,
//! the example client, and the integration tests. One
//! request per connection, matching the server's `Connection: close`
//! contract.
//!
//! [`get_with_retry`] layers capped exponential backoff with jitter on top
//! of [`get`] for transient failures (refused connects during startup,
//! `503` queue overflow, torn responses). Refused connects fail instantly
//! at the OS level, so they sleep a short fixed [`RetryPolicy::refused_delay`]
//! instead of the exponential schedule — a shard mid-restart should not
//! burn the wall-clock budget on a dead socket. Retries are restricted to
//! GETs — they are idempotent here — a `POST /batch` that dies mid-flight
//! may already have been scored, so replaying it is the caller's decision.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dd_linalg::Pcg32;

/// A parsed response: status code and body text.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body decoded as UTF-8.
    pub body: String,
}

/// A transport-level failure, classified so retry loops can treat an
/// instantly-failing refused connect differently from a timeout or a torn
/// response that already cost real wall-clock time.
#[derive(Debug, Clone)]
pub struct TransportError {
    /// `true` when the OS refused the connection outright — nothing is
    /// bound to the port (typical of a shard mid-restart). The failure was
    /// instant, so retrying after a short fixed delay is cheap.
    pub refused: bool,
    /// Human-readable description naming the failing stage.
    pub message: String,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Issues `GET path` against `addr` (`host:port`, no scheme).
pub fn get(addr: &str, path: &str) -> Result<ClientResponse, String> {
    request(addr, "GET", path, None, &[]).map_err(|e| e.message)
}

/// Retry policy for [`get_with_retry`]: capped exponential backoff with
/// equal jitter from a seeded [`Pcg32`], bounded by both an attempt count
/// and a wall-clock budget.
///
/// Attempt `n` (0-based) sleeps `d/2 + U(0,1)·d/2` where
/// `d = min(base_delay · 2ⁿ, max_delay)` — the deterministic half keeps a
/// real backoff floor, the jittered half de-synchronises clients hammering
/// a recovering server. The same seed always yields the same sleep
/// schedule, so a failing run is replayable. Refused connects are the
/// exception: they sleep the fixed [`refused_delay`](Self::refused_delay)
/// because the failed attempt itself consumed no time.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` disables retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget across all attempts and sleeps: no retry starts
    /// after this much time has elapsed.
    pub budget: Duration,
    /// Fixed sleep before retrying a connection the OS refused outright.
    /// Refused connects fail in microseconds — during a shard restart the
    /// listener reappears quickly, so a short fixed delay converges faster
    /// than the exponential schedule and spends almost none of `budget`.
    pub refused_delay: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
            budget: Duration::from_secs(10),
            refused_delay: Duration::from_millis(10),
            seed: 0x9E3779B97F4A7C15,
        }
    }
}

impl RetryPolicy {
    /// The capped, jittered sleep before retry number `attempt` (0-based).
    /// Crate-visible so the router's failover loop can pace its retry
    /// rounds on the same schedule.
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut Pcg32) -> Duration {
        let doubling = 1u64 << attempt.min(20);
        let capped = self
            .base_delay
            .saturating_mul(doubling.min(u64::from(u32::MAX)) as u32)
            .min(self.max_delay);
        capped.div_f64(2.0) + capped.mul_f64(rng.next_f64() / 2.0)
    }
}

/// Why (or whether) a request outcome is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transient {
    /// A deliberate server answer (2xx/4xx/500) — final, do not retry.
    No,
    /// The OS refused the connect: nothing bound (shard restarting).
    Refused,
    /// Any other transport failure: reset, timeout, torn response.
    Transport,
    /// `503`: the bounded accept queue is full — transient by design.
    OverCapacity,
}

fn classify(outcome: &Result<ClientResponse, TransportError>) -> Transient {
    match outcome {
        Ok(resp) if resp.status == 503 => Transient::OverCapacity,
        Ok(_) => Transient::No,
        Err(e) if e.refused => Transient::Refused,
        Err(_) => Transient::Transport,
    }
}

/// Issues `GET path`, retrying transient failures per `policy`.
///
/// Only GETs get a retry wrapper: every GET endpoint the server exposes is
/// idempotent, so replaying one is always safe. On exhaustion the last
/// outcome is returned as-is (a `503` response stays an `Ok` so callers
/// can still read the status). Refused connects sleep
/// [`RetryPolicy::refused_delay`] instead of the exponential backoff.
pub fn get_with_retry(
    addr: &str,
    path: &str,
    policy: &RetryPolicy,
) -> Result<ClientResponse, String> {
    let mut rng = Pcg32::seed_from_u64(policy.seed);
    // dd-lint: allow(trace-hygiene) — retry-budget accounting; the client
    // library has no observer to attach a span to.
    let start = Instant::now();
    let attempts = policy.attempts.max(1);
    let mut outcome = request(addr, "GET", path, None, &[]);
    for attempt in 0..attempts - 1 {
        let sleep = match classify(&outcome) {
            Transient::No => break,
            Transient::Refused => policy.refused_delay,
            Transient::Transport | Transient::OverCapacity => policy.backoff(attempt, &mut rng),
        };
        if start.elapsed() + sleep > policy.budget {
            break;
        }
        std::thread::sleep(sleep);
        outcome = request(addr, "GET", path, None, &[]);
    }
    outcome.map_err(|e| e.message)
}

/// Issues `GET path` with headers, surfacing the classified
/// [`TransportError`] on failure. The router's failover loop needs
/// [`TransportError::refused`] to pick the right retry pacing.
pub fn get_classified(
    addr: &str,
    path: &str,
    headers: &[(&str, &str)],
) -> Result<ClientResponse, TransportError> {
    request(addr, "GET", path, None, headers)
}

/// Issues `POST path` with headers, surfacing the classified
/// [`TransportError`] on failure.
pub fn post_classified(
    addr: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> Result<ClientResponse, TransportError> {
    request(addr, "POST", path, Some(body), headers)
}

/// Issues `POST path` with `body` against `addr` (`host:port`, no scheme).
pub fn post(addr: &str, path: &str, body: &str) -> Result<ClientResponse, String> {
    request(addr, "POST", path, Some(body), &[]).map_err(|e| e.message)
}

fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> Result<ClientResponse, TransportError> {
    let addr = addr.strip_prefix("http://").unwrap_or(addr).trim_end_matches('/');
    let fail = |stage: String, e: &std::io::Error| TransportError {
        refused: e.kind() == std::io::ErrorKind::ConnectionRefused,
        message: format!("{stage}: {e}"),
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| fail(format!("connect {addr}"), &e))?;
    let timeout = Some(Duration::from_secs(30));
    stream.set_read_timeout(timeout).map_err(|e| fail("set timeout".to_string(), &e))?;
    stream.set_write_timeout(timeout).map_err(|e| fail("set timeout".to_string(), &e))?;

    let body = body.unwrap_or("");
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len(),
    );
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    req.push_str(body);
    stream.write_all(req.as_bytes()).map_err(|e| fail(format!("send {method} {path}"), &e))?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| fail(format!("read {method} {path}"), &e))?;
    let text = String::from_utf8(raw).map_err(|_| TransportError {
        refused: false,
        message: "response is not UTF-8".to_string(),
    })?;
    parse_response(&text)
}

fn parse_response(text: &str) -> Result<ClientResponse, TransportError> {
    let torn = |message: String| TransportError { refused: false, message };
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| torn(format!("response without header terminator: {text:.80}")))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| torn(format!("bad status line '{status_line}'")))?;
    Ok(ClientResponse { status, body: body.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_text() {
        let r = parse_response("HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno").unwrap();
        assert_eq!(r.status, 404);
        assert_eq!(r.body, "no");
        assert!(parse_response("garbage").is_err());
    }

    #[test]
    fn backoff_is_capped_jittered_and_replayable() {
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(300),
            ..RetryPolicy::default()
        };
        let mut a = Pcg32::seed_from_u64(7);
        let mut b = Pcg32::seed_from_u64(7);
        for attempt in 0..8 {
            let d = policy.backoff(attempt, &mut a);
            // Equal jitter: between half the capped delay and the full one.
            let cap = Duration::from_millis(50)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(300));
            assert!(d >= cap.div_f64(2.0), "attempt {attempt}: {d:?} under floor");
            assert!(d <= cap, "attempt {attempt}: {d:?} over cap {cap:?}");
            // Same seed, same schedule.
            assert_eq!(d, policy.backoff(attempt, &mut b));
        }
        // Huge attempt numbers must not overflow the doubling.
        let _ = policy.backoff(u32::MAX, &mut a);
    }

    #[test]
    fn transport_errors_and_503_retry_but_real_answers_do_not() {
        let refused = TransportError { refused: true, message: "connect: refused".into() };
        assert_eq!(classify(&Err(refused)), Transient::Refused);
        let torn = TransportError { refused: false, message: "read: reset".into() };
        assert_eq!(classify(&Err(torn)), Transient::Transport);
        assert_eq!(
            classify(&Ok(ClientResponse { status: 503, body: String::new() })),
            Transient::OverCapacity
        );
        for status in [200, 400, 404, 408, 500, 502] {
            assert_eq!(
                classify(&Ok(ClientResponse { status, body: String::new() })),
                Transient::No
            );
        }
    }

    #[test]
    fn retry_against_a_dead_port_exhausts_quickly_and_reports_the_error() {
        // Bind-then-drop guarantees a port nothing is listening on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(100),
            budget: Duration::from_secs(5),
            refused_delay: Duration::from_millis(1),
            seed: 1,
        };
        let start = Instant::now();
        let out = get_with_retry(&format!("127.0.0.1:{port}"), "/healthz", &policy);
        assert!(out.is_err(), "nothing listens there");
        assert!(out.unwrap_err().contains("connect"), "error names the failing stage");
        // Refused connects take the fixed short delay, not the exponential
        // schedule: two 1 ms sleeps, far under the 50–100 ms backoff floor.
        assert!(start.elapsed() < Duration::from_millis(75), "refused retries must be cheap");
    }
}
