//! The HTTP front end both fleet processes share: binding, the bounded
//! accept queue, the worker pool, the per-request frame, and graceful
//! shutdown.
//!
//! A shard ([`crate::server`]) and the router ([`crate::router`]) differ
//! only in what they plug in: a [`Service`] that answers parsed requests,
//! and a [`FrontConfig`] naming their metrics, spans, and threads. The
//! acceptor pushes connections into a bounded `sync_channel` (overflow →
//! immediate `503` instead of unbounded memory); each worker parses one
//! request per connection under per-request read/write timeouts, routes it
//! under `catch_unwind` (a handler panic is a `500`, never a dead worker),
//! echoes the request's `traceparent`, and records per-endpoint counters,
//! latency histograms, and the request-log root with its `queue_wait` and
//! `handler` child spans. Shutdown stops accepting, drains every queued
//! connection, joins the pool, then flushes the request log.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dd_runtime::{spawn_named, Threads, WorkerPool};
use dd_telemetry::trace::{
    derive_span_id, derive_trace_id, format_traceparent, now_seconds, parse_traceparent,
    SpanContext,
};
use dd_telemetry::{Counter, Event, Histogram, ObserverHandle, Registry};

use crate::http;
use crate::server::TiePair;

pub(crate) const JSON: &str = "application/json";
pub(crate) const NDJSON: &str = "application/x-ndjson";
/// Prometheus text exposition format version 0.0.4.
pub(crate) const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One answer: endpoint label, status, content type, body.
pub(crate) type Routed = (&'static str, u16, &'static str, Vec<u8>);

/// Endpoint labels used in metric names and request-log events.
const ENDPOINTS: [&str; 10] = [
    "healthz",
    "score",
    "batch",
    "ingest",
    "metrics",
    "admin",
    "other",
    "timeout",
    "malformed",
    "panic",
];

pub(crate) fn error_body(msg: &str) -> Vec<u8> {
    format!("{{\"error\":{}}}", serde_json::to_string(&msg.to_string()).unwrap_or_default())
        .into_bytes()
}

fn parse_id(req: &http::Request, key: &str) -> Result<u32, String> {
    match req.query_param(key) {
        None => Err(format!("missing query parameter '{key}' (expected /score?src=A&dst=B)")),
        Some(raw) => raw
            .parse::<u32>()
            .map_err(|_| format!("query parameter '{key}' must be a node id, got '{raw}'")),
    }
}

/// The `(src, dst)` of a `/score` query, or its `400` answer.
pub(crate) fn score_query(req: &http::Request) -> Result<(u32, u32), Routed> {
    match (parse_id(req, "src"), parse_id(req, "dst")) {
        (Ok(s), Ok(d)) => Ok((s, d)),
        (Err(e), _) | (_, Err(e)) => Err(("score", 400, JSON, error_body(&e))),
    }
}

/// The pairs of a `/batch` JSONL body, or its `400` answer. The whole body
/// is parsed before any pair is scored or forwarded, so a malformed batch
/// is rejected without partial work.
pub(crate) fn batch_pairs(req: &http::Request) -> Result<Vec<TiePair>, Routed> {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err(("batch", 400, JSON, error_body("body must be UTF-8 JSONL")));
    };
    let mut pairs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<TiePair>(line) {
            Ok(p) => pairs.push(p),
            Err(e) => {
                let msg = format!("line {}: expected {{\"src\":A,\"dst\":B}}: {e}", i + 1);
                return Err(("batch", 400, JSON, error_body(&msg)));
            }
        }
    }
    if pairs.is_empty() {
        return Err(("batch", 400, JSON, error_body("empty batch: send one JSON pair per line")));
    }
    Ok(pairs)
}

/// The answer to a request no route matched: `405` on a known path, `404`
/// otherwise.
pub(crate) fn unrouted(req: &http::Request) -> Routed {
    match req.path.as_str() {
        "/healthz" | "/score" | "/batch" | "/ingest" | "/metrics" | "/admin/reload" => {
            ("other", 405, JSON, error_body(&format!("method {} not allowed", req.method)))
        }
        path => ("other", 404, JSON, error_body(&format!("no such endpoint '{path}'"))),
    }
}

/// The handler phase of one request's trace, for a service to hang its
/// own child spans from.
pub(crate) struct HandlerSpan<'a> {
    pub trace_id: u64,
    pub span_id: u64,
    pub name: &'a str,
    pub start_seconds: f64,
}

/// What one process answers: everything the front end does not own.
pub(crate) trait Service: Send + Sync + 'static {
    /// State a worker thread owns and reuses across its requests; rebuilt
    /// if a panic escapes the request frame.
    type Worker;

    /// Builds one worker's state.
    fn worker(&self) -> Self::Worker;

    /// Called once per connection after the request is read, before it is
    /// routed or rejected.
    fn begin(&self, _worker: &mut Self::Worker) {}

    /// Answers one parsed request. `traceparent` names the request's root
    /// span, for propagation to upstream calls.
    fn route(&self, worker: &mut Self::Worker, req: &http::Request, traceparent: &str) -> Routed;

    /// Emits service child spans under `handler` and stamps service detail
    /// on the request-log `root`. Runs only when the observer is enabled.
    fn trace(&self, _worker: &Self::Worker, _handler: &HandlerSpan<'_>, _root: &mut Event) {}
}

/// How a process's front end is named and sized.
pub(crate) struct FrontConfig {
    /// Namespace for metrics (`{prefix}.requests.*`), spans
    /// (`{prefix}.request`), and threads (`dd-{prefix}-worker`).
    pub prefix: &'static str,
    /// Prepended to the endpoint label to name request-log events.
    pub log_prefix: &'static str,
    /// Body text of the `503` sent when the accept queue is full.
    pub queue_full: &'static str,
    pub addr: String,
    pub workers: usize,
    pub queue_depth: usize,
    pub request_timeout: Duration,
    pub observer: ObserverHandle,
}

/// Per-endpoint instruments, registered once at startup so the request path
/// never takes the registry lock.
struct EndpointMetrics {
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
}

type Conn = (TcpStream, Instant);

/// State shared by the acceptor and every worker.
struct Frame<S> {
    service: Arc<S>,
    endpoints: Vec<(&'static str, EndpointMetrics)>,
    queue_rejections: Arc<Counter>,
    panics: Arc<Counter>,
    observer: ObserverHandle,
    request_timeout: Duration,
    log_prefix: &'static str,
    queue_full: &'static str,
    /// `{prefix}.request`: the trace root's span name.
    root_name: String,
    /// `{prefix}.queue_wait`.
    queue_name: String,
    /// `{prefix}.handler.`, completed by the endpoint label.
    handler_prefix: String,
    /// Monotone request sequence; seeds per-request trace IDs when the
    /// client did not send a `traceparent` header.
    request_seq: AtomicU64,
}

impl<S: Service> Frame<S> {
    fn endpoint(&self, name: &str) -> Option<&EndpointMetrics> {
        // ENDPOINTS is tiny and `name` always comes from routing constants;
        // an unknown name is a routing bug, and losing that one metrics
        // sample beats panicking on the response path.
        self.endpoints.iter().find(|(n, _)| *n == name).map(|(_, m)| m)
    }

    fn log_event(&self, endpoint: &str, status: u16, seconds: f64) -> Event {
        Event::serve_request(&format!("{}{endpoint}", self.log_prefix), status, seconds)
    }
}

fn handle_connection<S: Service>(
    frame: &Frame<S>,
    worker: &mut S::Worker,
    stream: TcpStream,
    accepted: Instant,
) {
    // dd-lint: allow(trace-hygiene) — request latency/queue-wait measurement
    // is the serving path's own instrumentation, reported via telemetry.
    let start = Instant::now();
    let start_seconds = now_seconds();
    let queue_seconds = start.saturating_duration_since(accepted).as_secs_f64();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(frame.request_timeout));
    let _ = stream.set_write_timeout(Some(frame.request_timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let parsed = http::read_request(&mut reader);
    frame.service.begin(worker);

    // Request trace identity: a client-supplied `traceparent` wins (the
    // request joins the caller's trace); otherwise each request opens its
    // own trace derived from the request sequence number. The echoed
    // `traceparent` names this process's root span, so an upstream call
    // parents to it: one trace across client → router → shard.
    let seq = frame.request_seq.fetch_add(1, Ordering::Relaxed);
    let client_trace =
        parsed.as_ref().ok().and_then(|r| r.header("traceparent")).and_then(parse_traceparent);
    let trace_id = client_trace.unwrap_or_else(|| derive_trace_id(seq, &frame.root_name));
    let root_sid = derive_span_id(trace_id, 0, &frame.root_name, seq);
    let traceparent = format_traceparent(SpanContext { trace_id, span_id: root_sid });

    let handler_start_seconds = now_seconds();
    // dd-lint: allow(trace-hygiene) — handler-phase timing for the request
    // trace's `{prefix}.handler.*` child span.
    let handler_start = Instant::now();
    let (endpoint, status, content_type, body) = match parsed {
        // Panic isolation: a handler panic becomes a `500` to this client
        // and a `{prefix}.panics` tick; the worker thread survives and keeps
        // serving. The state captured here is only read behind its own
        // locks/atomics, so `AssertUnwindSafe` cannot observe broken
        // invariants.
        Ok(req) => {
            match catch_unwind(AssertUnwindSafe(|| frame.service.route(worker, &req, &traceparent)))
            {
                Ok(routed) => routed,
                Err(_) => {
                    frame.panics.incr();
                    frame.observer.on_event(&Event::serve_panic(&req.path));
                    ("panic", 500, JSON, error_body("internal error: request handler panicked"))
                }
            }
        }
        // Port probes (and the shutdown wakeup) connect and say nothing;
        // not a request, nothing to log.
        Err(http::ParseError::ConnectionClosed) => return,
        Err(http::ParseError::Timeout) => {
            ("timeout", 408, JSON, error_body("timed out reading request"))
        }
        Err(e @ http::ParseError::TooLarge(_)) => {
            ("malformed", 413, JSON, error_body(&e.to_string()))
        }
        Err(e @ http::ParseError::Malformed(_)) => {
            ("malformed", 400, JSON, error_body(&e.to_string()))
        }
        Err(http::ParseError::Io(_)) => return,
    };
    let handler_seconds = handler_start.elapsed().as_secs_f64();
    let mut write_half = stream;
    let _ = http::write_response_with_headers(
        &mut write_half,
        status,
        content_type,
        &[("traceparent", traceparent)],
        &body,
    );
    let seconds = start.elapsed().as_secs_f64();
    if let Some(m) = frame.endpoint(endpoint) {
        m.requests.incr();
        m.latency.record(seconds);
    }
    if !frame.observer.is_enabled() {
        return;
    }
    // Child spans: accept-queue wait and the handler phase, both parented to
    // the request-log root (the event emitted last).
    let mut queue = Event::span(&frame.queue_name, Some(&frame.root_name), queue_seconds)
        .with_trace(
            trace_id,
            derive_span_id(trace_id, root_sid, &frame.queue_name, 0),
            Some(root_sid),
        );
    queue.start_seconds = Some((start_seconds - queue_seconds).max(0.0));
    frame.observer.on_event(&queue);

    let handler_name = format!("{}{endpoint}", frame.handler_prefix);
    let handler = HandlerSpan {
        trace_id,
        span_id: derive_span_id(trace_id, root_sid, &handler_name, 0),
        name: &handler_name,
        start_seconds: handler_start_seconds,
    };
    let mut e = Event::span(&handler_name, Some(&frame.root_name), handler_seconds).with_trace(
        trace_id,
        handler.span_id,
        Some(root_sid),
    );
    e.start_seconds = Some(handler_start_seconds);
    frame.observer.on_event(&e);

    let mut root = frame.log_event(endpoint, status, seconds).with_trace(trace_id, root_sid, None);
    root.start_seconds = Some(start_seconds);
    frame.service.trace(worker, &handler, &mut root);
    frame.observer.on_event(&root);
}

fn accept_loop<S: Service>(
    listener: TcpListener,
    tx: SyncSender<Conn>,
    shutdown: Arc<AtomicBool>,
    frame: Arc<Frame<S>>,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            // The accept timestamp rides along so the handling worker can
            // report how long the connection sat in the queue.
            // dd-lint: allow(trace-hygiene) — queue-wait enqueue timestamp.
            Ok(stream) => match tx.try_send((stream, Instant::now())) {
                Ok(()) => {}
                Err(TrySendError::Full((stream, _))) => {
                    frame.queue_rejections.incr();
                    frame.observer.on_event(&frame.log_event("rejected", 503, 0.0));
                    let mut stream = stream;
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let _ =
                        http::write_response(&mut stream, 503, JSON, &error_body(frame.queue_full));
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(_) if shutdown.load(Ordering::SeqCst) => break,
            // Transient accept errors (EMFILE, aborted handshakes) must not
            // kill the server.
            Err(_) => {}
        }
    }
}

fn worker_loop<S: Service>(rx: &Mutex<Receiver<Conn>>, frame: &Frame<S>) {
    let mut worker = frame.service.worker();
    loop {
        // Holding the lock while blocked in `recv` is the shared-receiver
        // pattern: exactly one worker waits in recv, the rest wait on the
        // mutex, and handling happens outside the lock — so the pool still
        // processes in parallel. Poison recovery is sound because nothing
        // under the lock can panic (it only wraps `recv`); connection
        // handling runs outside it, under `catch_unwind`.
        // dd-lint: allow(blocking-while-locked) — shared-receiver idiom:
        // the mutex IS the recv token for the worker pool, held only for
        // the blocking recv itself
        let next = { rx.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).recv() };
        // Sender dropped and queue drained: graceful exit.
        let Ok((stream, accepted)) = next else { break };
        // Backstop: `handle_connection` already isolates handler panics,
        // but a panic anywhere else on the connection path (response
        // write, metrics) must not kill the worker either — a dead worker
        // would silently shrink the pool. The worker state may be left
        // mid-update, so it is rebuilt.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(frame, &mut worker, stream, accepted)
        }));
        if outcome.is_err() {
            frame.panics.incr();
            worker = frame.service.worker();
        }
    }
}

/// Binds `cfg.addr`, registers the front end's metrics in `registry`, and
/// spawns the acceptor and worker pool serving `service`.
pub(crate) fn start<S: Service>(
    cfg: FrontConfig,
    registry: Arc<Registry>,
    service: Arc<S>,
) -> Result<FrontHandle, String> {
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let prefix = cfg.prefix;
    let endpoints: Vec<(&'static str, EndpointMetrics)> = ENDPOINTS
        .iter()
        .map(|&name| {
            let m = EndpointMetrics {
                requests: registry.counter(&format!("{prefix}.requests.{name}")),
                // 10 µs … ~84 s exponential latency buckets.
                latency: registry.histogram(&format!("{prefix}.latency.{name}"), 1e-5, 2.0, 23),
            };
            (name, m)
        })
        .collect();
    let requests = endpoints.iter().map(|(_, m)| Arc::clone(&m.requests)).collect();
    let frame = Arc::new(Frame {
        service,
        endpoints,
        queue_rejections: registry.counter(&format!("{prefix}.rejected.queue_full")),
        panics: registry.counter(&format!("{prefix}.panics")),
        observer: cfg.observer.clone(),
        request_timeout: cfg.request_timeout,
        log_prefix: cfg.log_prefix,
        queue_full: cfg.queue_full,
        root_name: format!("{prefix}.request"),
        queue_name: format!("{prefix}.queue_wait"),
        handler_prefix: format!("{prefix}.handler."),
        request_seq: AtomicU64::new(0),
    });
    let shutdown = Arc::new(AtomicBool::new(false));

    let (tx, rx) = std::sync::mpsc::sync_channel::<Conn>(cfg.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let workers = {
        let frame = Arc::clone(&frame);
        WorkerPool::start(
            &format!("dd-{prefix}-worker"),
            Threads::new(cfg.workers).map_err(|e| format!("{prefix} workers: {e}"))?,
            move |_| worker_loop(&rx, &frame),
        )?
    };
    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        spawn_named(&format!("dd-{prefix}-acceptor"), move || {
            accept_loop(listener, tx, shutdown, frame)
        })?
    };
    Ok(FrontHandle {
        addr,
        registry,
        requests,
        observer: cfg.observer,
        shutdown,
        acceptor: Some(acceptor),
        workers,
        helpers: Vec::new(),
    })
}

/// A running front end. Dropping it shuts down gracefully.
pub(crate) struct FrontHandle {
    addr: SocketAddr,
    registry: Arc<Registry>,
    /// The per-endpoint request counters.
    requests: Vec<Arc<Counter>>,
    observer: ObserverHandle,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: WorkerPool,
    /// Background threads that run until shutdown, joined after the pool.
    helpers: Vec<JoinHandle<()>>,
}

impl FrontHandle {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Total requests handled so far, across all endpoints.
    pub(crate) fn requests_total(&self) -> u64 {
        self.requests.iter().map(|c| c.get()).sum()
    }

    /// Spawns a named thread running `body` with the shutdown flag; it must
    /// return soon after the flag is set.
    pub(crate) fn spawn_helper(
        &mut self,
        name: &str,
        body: impl FnOnce(Arc<AtomicBool>) + Send + 'static,
    ) -> Result<(), String> {
        let shutdown = Arc::clone(&self.shutdown);
        self.helpers.push(spawn_named(name, move || body(shutdown))?);
        Ok(())
    }

    /// Graceful shutdown: stop accepting, drain every queued and in-flight
    /// request, join the pool and helpers, flush the request log. Returns
    /// the total number of requests handled.
    pub(crate) fn shutdown(&mut self) -> u64 {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Unblock the acceptor's blocking `accept` with a wakeup connection.
            let _ = TcpStream::connect(self.addr);
            if let Some(a) = self.acceptor.take() {
                let _ = a.join();
            }
            // The acceptor dropped the sender; workers drain the queue and exit.
            self.workers.join();
            for h in self.helpers.drain(..) {
                let _ = h.join();
            }
            self.observer.flush();
        }
        self.requests_total()
    }
}

impl Drop for FrontHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
