//! The fleet router: rendezvous-hash request fan-out over shard replicas.
//!
//! A [`Router`] sits in front of N `dd-serve` shard processes, each a full
//! replica. Every `(src, dst)` query is placed on one shard by rendezvous
//! hashing (DESIGN.md §7.14) so that one shard's LRU caches it, forwarded
//! with `traceparent` propagated so a routed request is one trace across
//! processes, and failed over to the tie's next candidate on transport
//! errors and `503`s. Shards accumulate consecutive failures, get marked
//! unhealthy, and are re-probed via `/healthz` by a background prober until
//! they rejoin. `/metrics` aggregates router traffic with per-shard labels.
//!
//! The router never holds a model: `/score` and `/batch` are pure
//! forwards, `/admin/reload` and `/ingest` fan out to every shard (shards
//! are full replicas, so every one must see every reload and every tie
//! event), `/healthz` reports fleet state with per-shard fingerprints and
//! reload generations.
//!
//! The HTTP front end — accept queue, worker pool, request frame, shutdown
//! — is the one shards use (`front.rs`); this module supplies the routes,
//! the placement, and the health prober.

use std::cmp::Reverse;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dd_linalg::bytes::xxh64;
use dd_linalg::Pcg32;
use dd_telemetry::export::{prometheus_text, PromFamily};
use dd_telemetry::{Counter, Gauge, ObserverHandle, Registry};
use serde::{Deserialize, Serialize};

use crate::client::{self, ClientResponse, RetryPolicy};
use crate::front::{
    self, batch_pairs, error_body, score_query, unrouted, FrontConfig, FrontHandle, Routed,
    Service, JSON, NDJSON, PROM_TEXT,
};
use crate::http;

/// Router configuration. `Default` must be given `shards` before use.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Shard addresses (`host:port`), one per `dd-serve` process.
    pub shards: Vec<String>,
    /// Worker threads forwarding requests.
    pub workers: usize,
    /// Accepted connections that may queue before `503`.
    pub queue_depth: usize,
    /// Per-request read/write timeout on the client side of the router.
    pub request_timeout: Duration,
    /// Consecutive forward failures before a shard is marked unhealthy and
    /// demoted to last-resort candidate until a probe revives it.
    pub unhealthy_after: u32,
    /// Background `/healthz` probe cadence for unhealthy shards.
    pub probe_interval: Duration,
    /// Structured request-log sink.
    pub observer: ObserverHandle,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:8070".to_string(),
            shards: Vec::new(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            unhealthy_after: 3,
            probe_interval: Duration::from_millis(200),
            observer: ObserverHandle::none(),
        }
    }
}

impl RouterConfig {
    fn validate(&self) -> Result<(), String> {
        if self.shards.is_empty() {
            return Err("router: need at least one shard address".into());
        }
        if self.workers == 0 {
            return Err("router: need at least one worker".into());
        }
        if self.queue_depth == 0 {
            return Err("router: queue depth must be positive".into());
        }
        Ok(())
    }
}

/// Live state for one shard behind the router.
struct ShardState {
    addr: String,
    /// Rendezvous seed, `xxh64(addr, 0)`: placement follows the shard's
    /// address, not its position in the shard list.
    seed: u64,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    forwards: Arc<Counter>,
    failures: Arc<Counter>,
    healthy_gauge: Arc<Gauge>,
}

impl ShardState {
    fn mark_success(&self) {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.healthy.store(true, Ordering::Release);
        self.healthy_gauge.set(1.0);
    }

    fn mark_failure(&self, unhealthy_after: u32) {
        self.failures.incr();
        let n = self.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= unhealthy_after && self.healthy.swap(false, Ordering::AcqRel) {
            self.healthy_gauge.set(0.0);
        }
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }
}

struct RouterState {
    shards: Vec<ShardState>,
    registry: Arc<Registry>,
    unhealthy_after: u32,
    failovers: Arc<Counter>,
    retry_refused: Arc<Counter>,
    retry_transport: Arc<Counter>,
    retry_over_capacity: Arc<Counter>,
}

impl RouterState {
    fn new(cfg: &RouterConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let shards = cfg
            .shards
            .iter()
            .map(|addr| {
                let healthy_gauge = registry.gauge(&format!("router.shard.healthy.{addr}"));
                healthy_gauge.set(1.0);
                ShardState {
                    addr: addr.clone(),
                    seed: xxh64(addr.as_bytes(), 0),
                    healthy: AtomicBool::new(true),
                    consecutive_failures: AtomicU32::new(0),
                    forwards: registry.counter(&format!("router.shard.forwards.{addr}")),
                    failures: registry.counter(&format!("router.shard.failures.{addr}")),
                    healthy_gauge,
                }
            })
            .collect();
        registry.gauge("router.shards").set(cfg.shards.len() as f64);
        RouterState {
            shards,
            unhealthy_after: cfg.unhealthy_after,
            failovers: registry.counter("router.failovers"),
            retry_refused: registry.counter("router.retry.refused"),
            retry_transport: registry.counter("router.retry.transport"),
            retry_over_capacity: registry.counter("router.retry.over_capacity"),
            registry,
        }
    }

    /// Candidate order for the tie `(src, dst)` by rendezvous
    /// (highest-random-weight) hashing: each shard weighs the tie with its
    /// own seed, and shards sort healthy first, then by weight descending,
    /// then by index. The first entry owns the tie; the rest are its
    /// failover sequence. An unhealthy shard stays a last-resort candidate —
    /// with every replica down it is still better to try than to fail
    /// outright.
    fn candidates(&self, src: u32, dst: u32) -> Vec<usize> {
        let mut key = [0u8; 8];
        key[..4].copy_from_slice(&src.to_le_bytes());
        key[4..].copy_from_slice(&dst.to_le_bytes());
        // Health is read once per shard, before sorting: a comparator that
        // re-read the atomic could see it flip mid-sort and order
        // inconsistently.
        let mut ranked: Vec<(bool, Reverse<u64>, usize)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| (!shard.is_healthy(), Reverse(xxh64(&key, shard.seed)), i))
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, _, i)| i).collect()
    }

    /// Sends one request to the first candidate that answers, failing over
    /// through `candidates` and pacing full failed rounds with the default
    /// retry policy's backoff schedule. Returns the shard index that answered.
    /// A `503` moves on to the next candidate without a health strike; a
    /// transport error strikes the shard and moves on; any other status,
    /// `500` included, is the shard's answer and clears its strikes.
    fn forward<F>(
        &self,
        candidates: &[usize],
        headers: &[(&str, &str)],
        send: F,
    ) -> Result<(usize, ClientResponse), String>
    where
        F: Fn(&str, &[(&str, &str)]) -> Result<ClientResponse, client::TransportError>,
    {
        let retry = RetryPolicy::default();
        let mut rng = Pcg32::seed_from_u64(retry.seed);
        // dd-lint: allow(trace-hygiene) — failover-budget accounting on the
        // forwarding path; latency is reported via the endpoint histogram.
        let start = Instant::now();
        let rounds = retry.attempts.max(1);
        let mut last_err = String::from("no shards configured");
        for round in 0..rounds {
            for (nth, &i) in candidates.iter().enumerate() {
                let shard = &self.shards[i];
                shard.forwards.incr();
                match send(&shard.addr, headers) {
                    Ok(resp) if resp.status != 503 => {
                        shard.mark_success();
                        if nth > 0 || round > 0 {
                            self.failovers.incr();
                        }
                        return Ok((i, resp));
                    }
                    Ok(resp) => {
                        // Shard alive but over capacity: not a health
                        // strike, but try the next replica.
                        self.retry_over_capacity.incr();
                        last_err = format!("{}: 503 {}", shard.addr, resp.body);
                    }
                    Err(e) => {
                        if e.refused {
                            self.retry_refused.incr();
                        } else {
                            self.retry_transport.incr();
                        }
                        shard.mark_failure(self.unhealthy_after);
                        last_err = format!("{}: {}", shard.addr, e.message);
                    }
                }
            }
            // Every candidate failed this round; pace the next round. A
            // refused connect fails instantly, so without this sleep a dead
            // fleet would burn all rounds in microseconds.
            let sleep = retry.backoff(round, &mut rng).max(retry.refused_delay);
            if round + 1 >= rounds || start.elapsed() + sleep > retry.budget {
                break;
            }
            std::thread::sleep(sleep);
        }
        Err(last_err)
    }
}

/// `GET /healthz` payload: fleet state with per-shard model identity.
#[derive(Debug, Serialize, Deserialize)]
pub struct RouterHealth {
    /// `"ok"` when every shard answers, `"degraded"` when some (but not
    /// all) are down — requests fail over, so this still serves — and
    /// `"down"` (with a 503) when no shard answers.
    pub status: String,
    /// Shards currently answering their `/healthz`.
    pub healthy_shards: usize,
    /// Per-shard detail, in configuration order.
    pub shards: Vec<ShardHealth>,
}

/// One shard's entry in [`RouterHealth`].
#[derive(Debug, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard address (`host:port`).
    pub addr: String,
    /// Whether the shard answered the live probe for this request.
    pub healthy: bool,
    /// The shard's model content fingerprint, when it answered.
    pub fingerprint: Option<String>,
    /// The shard's reload generation, when it answered.
    pub generation: Option<u64>,
}

fn route(state: &RouterState, req: &http::Request, traceparent: &str) -> Routed {
    let fwd_headers: [(&str, &str); 1] = [("traceparent", traceparent)];
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz_endpoint(state),
        ("GET", "/score") => score_endpoint(state, req, &fwd_headers),
        ("POST", "/batch") => batch_endpoint(state, req, &fwd_headers),
        ("POST", "/ingest") => fan_out(state, "ingest", "/ingest", "JSONL", req, &fwd_headers),
        ("POST", "/admin/reload") => {
            fan_out(state, "admin", "/admin/reload", "JSON", req, &fwd_headers)
        }
        ("GET", "/metrics") => {
            let families = [
                PromFamily {
                    prefix: "router.requests.",
                    family: "dd_router_requests",
                    label: "endpoint",
                    help: "Requests handled by the router, by endpoint.",
                },
                PromFamily {
                    prefix: "router.latency.",
                    family: "dd_router_latency_seconds",
                    label: "endpoint",
                    help: "Router request wall latency in seconds, by endpoint.",
                },
                PromFamily {
                    prefix: "router.shard.forwards.",
                    family: "dd_router_shard_forwards",
                    label: "shard",
                    help: "Forward attempts, by shard address.",
                },
                PromFamily {
                    prefix: "router.shard.failures.",
                    family: "dd_router_shard_failures",
                    label: "shard",
                    help: "Failed forward attempts, by shard address.",
                },
                PromFamily {
                    prefix: "router.shard.healthy.",
                    family: "dd_router_shard_healthy",
                    label: "shard",
                    help: "1 when the shard is in rotation, 0 while quarantined.",
                },
            ];
            let body = prometheus_text(&state.registry.snapshot(), &families).into_bytes();
            ("metrics", 200, PROM_TEXT, body)
        }
        _ => unrouted(req),
    }
}

fn healthz_endpoint(state: &RouterState) -> Routed {
    let mut shards = Vec::with_capacity(state.shards.len());
    let mut healthy_shards = 0usize;
    for shard in &state.shards {
        let mut entry = ShardHealth {
            addr: shard.addr.clone(),
            healthy: false,
            fingerprint: None,
            generation: None,
        };
        if let Ok(resp) = client::get_classified(&shard.addr, "/healthz", &[]) {
            if resp.status == 200 {
                entry.healthy = true;
                healthy_shards += 1;
                shard.mark_success();
                if let Ok(h) = serde_json::from_str::<crate::server::HealthResponse>(&resp.body) {
                    entry.fingerprint = Some(h.model_fingerprint);
                    entry.generation = h.generation;
                }
            } else {
                shard.mark_failure(state.unhealthy_after);
            }
        } else {
            shard.mark_failure(state.unhealthy_after);
        }
        shards.push(entry);
    }
    let status_word = if healthy_shards == 0 {
        "down"
    } else if healthy_shards < state.shards.len() {
        "degraded"
    } else {
        "ok"
    };
    let body = RouterHealth { status: status_word.to_string(), healthy_shards, shards };
    // Partial outages still serve (requests fail over), so only a fully
    // dead fleet is a 503.
    let status = if healthy_shards == 0 { 503 } else { 200 };
    ("healthz", status, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
}

fn score_endpoint(state: &RouterState, req: &http::Request, headers: &[(&str, &str)]) -> Routed {
    let (src, dst) = match score_query(req) {
        Ok(pair) => pair,
        Err(routed) => return routed,
    };
    let candidates = state.candidates(src, dst);
    let path = format!("/score?src={src}&dst={dst}");
    match state
        .forward(&candidates, headers, |shard, hdrs| client::get_classified(shard, &path, hdrs))
    {
        Ok((_, resp)) => {
            // Shard verdicts (200 score, 404 unknown tie, 400) pass through
            // verbatim — the router adds routing, not semantics.
            ("score", resp.status, JSON, resp.body.into_bytes())
        }
        Err(e) => ("score", 502, JSON, error_body(&format!("all shards failed: {e}"))),
    }
}

fn batch_endpoint(state: &RouterState, req: &http::Request, headers: &[(&str, &str)]) -> Routed {
    // A malformed batch is rejected before any shard sees a partial forward.
    let pairs = match batch_pairs(req) {
        Ok(pairs) => pairs,
        Err(routed) => return routed,
    };

    // Group pairs by owning shard (candidate order is per-tie, so the
    // groups also carry their failover sequences), forward each sub-batch,
    // then reassemble responses in the original request order.
    let mut groups: Vec<(Vec<usize>, Vec<usize>)> = Vec::new(); // (candidates, pair indices)
    for (idx, p) in pairs.iter().enumerate() {
        let candidates = state.candidates(p.src, p.dst);
        match groups.iter_mut().find(|(c, _)| c.first() == candidates.first()) {
            Some((_, members)) => members.push(idx),
            None => groups.push((candidates, vec![idx])),
        }
    }

    let mut lines: Vec<Option<String>> = vec![None; pairs.len()];
    for (candidates, members) in &groups {
        let mut body = String::new();
        for &idx in members {
            body.push_str(&serde_json::to_string(&pairs[idx]).unwrap_or_default());
            body.push('\n');
        }
        // Replaying a POST on another replica is safe here even though POST
        // is not idempotent in general: shard scoring is a pure read, so a
        // sub-batch that died mid-flight can be re-sent without double
        // effects.
        let sent = state.forward(candidates, headers, |shard, hdrs| {
            client::post_classified(shard, "/batch", &body, hdrs)
        });
        let resp = match sent {
            Ok((_, resp)) if resp.status == 200 => resp,
            Ok((i, resp)) => {
                return (
                    "batch",
                    502,
                    JSON,
                    error_body(&format!(
                        "shard {} rejected sub-batch with {}: {}",
                        state.shards[i].addr, resp.status, resp.body
                    )),
                )
            }
            Err(e) => return ("batch", 502, JSON, error_body(&format!("all shards failed: {e}"))),
        };
        let mut got = resp.body.lines().filter(|l| !l.trim().is_empty());
        for &idx in members {
            match got.next() {
                Some(line) => lines[idx] = Some(line.to_string()),
                None => {
                    return (
                        "batch",
                        502,
                        JSON,
                        error_body("shard returned fewer lines than its sub-batch"),
                    )
                }
            }
        }
    }
    let mut out = String::new();
    for line in lines.into_iter().flatten() {
        out.push_str(&line);
        out.push('\n');
    }
    ("batch", 200, NDJSON, out.into_bytes())
}

/// `POST /admin/reload` and `POST /ingest` fan the body out to every
/// shard, unchanged. Shards are full replicas, so every one must swap to the
/// same artifact and fold in the same events to keep serving bit-identical
/// scores. The response aggregates each shard's verdict; the status is
/// `200` only when every shard accepted. No failover here — a shard that
/// missed a reload or a batch would silently diverge, so a partial fan-out
/// is reported as `502` for the operator to retry or replay the event log.
///
/// The posts go out concurrently, one scoped thread per shard, so a reload
/// costs the slowest shard's load rather than the sum of them. Every thread
/// is joined before the response is built, in configured shard order (not
/// completion order); a thread that panics counts as its shard failing.
/// The router answers only after every shard has, so a client that waits
/// for each reply before its next ingest still reaches every shard with its
/// batches in order.
fn fan_out(
    state: &RouterState,
    endpoint: &'static str,
    path: &str,
    format: &str,
    req: &http::Request,
    headers: &[(&str, &str)],
) -> Routed {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return (endpoint, 400, JSON, error_body(&format!("body must be UTF-8 {format}")));
    };
    let verdicts: Vec<(bool, String)> = dd_runtime::scope(|s| {
        let posts: Vec<_> = state
            .shards
            .iter()
            .map(|shard| {
                s.spawn(move || match client::post_classified(&shard.addr, path, body, headers) {
                    Ok(resp) if resp.status == 200 => (true, resp.body),
                    Ok(resp) => (false, format!("status {}: {}", resp.status, resp.body)),
                    Err(e) => (false, e.message),
                })
            })
            .collect();
        posts
            .into_iter()
            .map(|post| post.join().unwrap_or_else(|_| (false, "fan-out thread panicked".into())))
            .collect()
    });
    let all_ok = verdicts.iter().all(|(ok, _)| *ok);
    let results: Vec<String> = state
        .shards
        .iter()
        .zip(verdicts)
        .map(|(shard, (ok, detail))| {
            format!(
                "{{\"addr\":{},\"ok\":{ok},\"detail\":{}}}",
                serde_json::to_string(&shard.addr).unwrap_or_default(),
                if ok { detail } else { serde_json::to_string(&detail).unwrap_or_default() },
            )
        })
        .collect();
    let status = if all_ok { 200 } else { 502 };
    let body = format!("{{\"shards\":[{}]}}", results.join(","));
    (endpoint, status, JSON, body.into_bytes())
}

impl Service for RouterState {
    type Worker = ();

    fn worker(&self) {}

    fn route(&self, _: &mut (), req: &http::Request, traceparent: &str) -> Routed {
        route(self, req, traceparent)
    }
}

/// Re-probes quarantined shards until they answer `/healthz` again, then
/// puts them back in rotation. Healthy shards are left alone — the request
/// path itself is their health signal.
fn prober_loop(state: Arc<RouterState>, shutdown: Arc<AtomicBool>, interval: Duration) {
    while !shutdown.load(Ordering::SeqCst) {
        for shard in &state.shards {
            if shard.is_healthy() {
                continue;
            }
            if let Ok(resp) = client::get_classified(&shard.addr, "/healthz", &[]) {
                if resp.status == 200 {
                    shard.mark_success();
                }
            }
        }
        std::thread::sleep(interval);
    }
}

/// The router factory. See [`Router::start`].
pub struct Router;

impl Router {
    /// Binds `cfg.addr`, spawns the acceptor, worker pool, and health
    /// prober, and returns a handle. The router owns no model — every
    /// score is answered by a shard.
    pub fn start(cfg: RouterConfig) -> Result<RouterHandle, String> {
        cfg.validate()?;
        let state = Arc::new(RouterState::new(&cfg));
        let front_cfg = FrontConfig {
            prefix: "router",
            log_prefix: "router.",
            queue_full: "router queue full, retry later",
            addr: cfg.addr,
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            request_timeout: cfg.request_timeout,
            observer: cfg.observer,
        };
        let mut front = front::start(front_cfg, Arc::clone(&state.registry), Arc::clone(&state))?;
        let interval = cfg.probe_interval;
        front.spawn_helper("dd-router-prober", move |shutdown| {
            prober_loop(state, shutdown, interval)
        })?;
        Ok(RouterHandle { front })
    }
}

/// A running router. Dropping the handle shuts it down gracefully; call
/// [`RouterHandle::shutdown`] to do it explicitly and get the request
/// count back. Drain order for a fleet is router first, then shards —
/// the router finishes its queued forwards against still-live shards.
pub struct RouterHandle {
    front: FrontHandle,
}

impl RouterHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The router's metric registry (same data `/metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.front.registry()
    }

    /// Total requests handled so far, across all endpoints.
    pub fn requests_total(&self) -> u64 {
        self.front.requests_total()
    }

    /// Graceful shutdown: stop accepting, drain queued forwards, join the
    /// pool and prober. Returns the total number of requests handled.
    pub fn shutdown(mut self) -> u64 {
        self.front.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router_over(ports: &[u16]) -> RouterState {
        RouterState::new(&RouterConfig {
            shards: ports.iter().map(|p| format!("127.0.0.1:{p}")).collect(),
            ..RouterConfig::default()
        })
    }

    /// The ties of a 100 × 100 grid: 10,000 placement keys.
    fn grid() -> impl Iterator<Item = (u32, u32)> {
        (0..100u32).flat_map(|src| (0..100u32).map(move |dst| (src, dst)))
    }

    /// A tie's candidate order as shard addresses.
    fn order(router: &RouterState, src: u32, dst: u32) -> Vec<String> {
        router.candidates(src, dst).into_iter().map(|i| router.shards[i].addr.clone()).collect()
    }

    #[test]
    fn placement_is_stable_and_complete() {
        let router = router_over(&[9001, 9002, 9003]);
        for (src, dst) in [(0, 0), (7, 9), (9, 7), (u32::MAX, 0), (0, u32::MAX)] {
            let c = router.candidates(src, dst);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "every shard appears exactly once");
            assert_eq!(c, router.candidates(src, dst), "the same tie keeps its order");
            assert_eq!(c, router_over(&[9001, 9002, 9003]).candidates(src, dst));
        }
        // Orientation matters: (src,dst) and (dst,src) are distinct keys.
        assert!(grid().any(|(s, d)| router.candidates(s, d)[0] != router.candidates(d, s)[0]));

        // A quarantined shard drops to last resort; the others keep their
        // relative order.
        let c = router.candidates(7, 9);
        router.shards[c[0]].healthy.store(false, Ordering::Release);
        assert_eq!(router.candidates(7, 9), vec![c[1], c[2], c[0]]);
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let ports = [9001, 9002, 9003];
        let three = router_over(&ports);
        for gone in ports {
            let rest: Vec<u16> = ports.into_iter().filter(|&p| p != gone).collect();
            let two = router_over(&rest);
            let gone = format!("127.0.0.1:{gone}");
            let mut owned_by_gone = 0usize;
            for (src, dst) in grid() {
                let mut before = order(&three, src, dst);
                owned_by_gone += usize::from(before[0] == gone);
                before.retain(|addr| *addr != gone);
                // Equal orders mean every key the removed shard did not own
                // keeps its owner, and every failover sequence only loses
                // the removed shard.
                assert_eq!(order(&two, src, dst), before, "tie ({src},{dst}) without {gone}");
            }
            assert!(owned_by_gone > 0, "{gone} owned no keys");
        }
    }

    #[test]
    fn placement_splits_ties_evenly_over_two_and_three_shards() {
        for ports in [[9001, 9002, 9003], [8070, 8071, 8072], [41234, 50007, 60999]] {
            for n in [2, 3] {
                let router = router_over(&ports[..n]);
                let mut owned = vec![0usize; n];
                for (src, dst) in grid() {
                    owned[router.candidates(src, dst)[0]] += 1;
                }
                for (i, &count) in owned.iter().enumerate() {
                    let share = count as f64 / 10_000.0;
                    assert!(
                        (share - 1.0 / n as f64).abs() <= 0.05,
                        "ports {:?}: shard {i} owns {share:.4} of the ties",
                        &ports[..n]
                    );
                }
            }
        }
    }

    /// A `send` where shard 9001 answers `first` (`Err(refused)` is a
    /// transport error) and every other shard answers `200`.
    fn scripted(
        first: Result<u16, bool>,
    ) -> impl Fn(&str, &[(&str, &str)]) -> Result<ClientResponse, client::TransportError> {
        move |addr, _| match (addr, first) {
            ("127.0.0.1:9001", Err(refused)) => {
                Err(client::TransportError { refused, message: "scripted".into() })
            }
            ("127.0.0.1:9001", Ok(status)) => Ok(ClientResponse { status, body: String::new() }),
            _ => Ok(ClientResponse { status: 200, body: String::new() }),
        }
    }

    #[test]
    fn forward_fails_over_on_503_and_transport_errors_only() {
        let router = router_over(&[9001, 9002]);
        // (failovers, over-capacity, transport, refused) counters.
        let counters = || {
            (
                router.failovers.get(),
                router.retry_over_capacity.get(),
                router.retry_transport.get(),
                router.retry_refused.get(),
            )
        };
        let strikes = || router.shards[0].consecutive_failures.load(Ordering::Relaxed);
        let answered = |first| {
            let (i, resp) = router.forward(&[0, 1], &[], scripted(first)).expect("a shard answers");
            (i, resp.status)
        };

        // 503: the shard is alive but over capacity. The next replica
        // answers and the first takes no health strike.
        assert_eq!(answered(Ok(503)), (1, 200));
        assert_eq!((counters(), strikes()), ((1, 1, 0, 0), 0));

        // A transport error strikes the shard and fails over; a refused
        // connect is counted apart from other transport errors.
        assert_eq!(answered(Err(false)), (1, 200));
        assert_eq!((counters(), strikes()), ((2, 1, 1, 0), 1));
        assert_eq!(answered(Err(true)), (1, 200));
        assert_eq!((counters(), strikes()), ((3, 1, 1, 1), 2));

        // Any other status, 500 included, is the first candidate's answer,
        // returned verbatim: no failover, and it clears the shard's strikes.
        assert_eq!(answered(Ok(500)), (0, 500));
        assert_eq!((counters(), strikes()), ((3, 1, 1, 1), 0));
        assert!(router.shards[0].is_healthy());
    }
}
