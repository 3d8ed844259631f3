//! In-process integration tests for the query server: a real `TcpListener`
//! on an ephemeral port, real sockets, and the bit-exactness contract —
//! every served score must equal the offline [`DirectionalityModel::score`]
//! exactly, no matter how many clients hammer the pool at once.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_serve::client;
use dd_serve::{
    Router, RouterConfig, RouterHandle, ScoreResponse, ServeConfig, Server, ServerHandle,
};
use dd_telemetry::{MetricSnapshot, ObserverHandle, Registry};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_model() -> DirectionalityModel {
    let gen_cfg = SocialNetConfig { n_nodes: 80, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(7);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg =
        DeepDirectConfig { dim: 8, max_iterations: Some(8_000), ..DeepDirectConfig::default() };
    DeepDirect::new(cfg).fit(&hidden)
}

fn start(cfg_mutator: impl FnOnce(&mut ServeConfig)) -> (Arc<DirectionalityModel>, ServerHandle) {
    let model = Arc::new(fit_model());
    let mut cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    cfg_mutator(&mut cfg);
    let handle = Server::start(Arc::new(ScoreTable::of(&model)), cfg).expect("server starts");
    (model, handle)
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, s)| match s {
            MetricSnapshot::Counter(c) => Some(c),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no counter named {name}"))
}

/// The process under test: a shard on its own, or a one-shard router in
/// front of one. Both run the same HTTP front end (accept queue, request
/// frame, timeouts), so each front-end behaviour is checked against both.
enum Front {
    Shard(ServerHandle),
    Router(RouterHandle, ServerHandle),
}

impl Front {
    fn addr(&self) -> String {
        match self {
            Front::Shard(s) => s.addr().to_string(),
            Front::Router(r, _) => r.addr().to_string(),
        }
    }

    /// A counter of the process under test, named without its `serve.` or
    /// `router.` prefix.
    fn counter(&self, name: &str) -> u64 {
        match self {
            Front::Shard(s) => counter(&s.registry(), &format!("serve.{name}")),
            Front::Router(r, _) => counter(&r.registry(), &format!("router.{name}")),
        }
    }

    fn shutdown(self) {
        match self {
            Front::Shard(s) => {
                s.shutdown();
            }
            Front::Router(r, s) => {
                r.shutdown();
                s.shutdown();
            }
        }
    }
}

/// A shard and a one-shard router, each with the given front-end sizing.
fn fronts(workers: usize, queue_depth: usize, request_timeout: Duration) -> [Front; 2] {
    let (_, shard) = start(|cfg| {
        cfg.workers = workers;
        cfg.queue_depth = queue_depth;
        cfg.request_timeout = request_timeout;
    });
    let (_, upstream) = start(|_| {});
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![upstream.addr().to_string()],
        workers,
        queue_depth,
        request_timeout,
        ..RouterConfig::default()
    })
    .expect("router starts");
    [Front::Shard(shard), Front::Router(router, upstream)]
}

/// The acceptance-criteria test: >= 64 concurrent requests from >= 8 client
/// threads, every response bit-identical to the offline score, and /metrics
/// accounting for every request with a non-empty latency histogram.
#[test]
fn concurrent_requests_match_offline_scores_bit_for_bit() {
    let (model, handle) = start(|_| {});
    let addr = handle.addr().to_string();

    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(16).collect();
    assert!(ties.len() >= 8, "model too small: {} ties", ties.len());
    let expected: Vec<f64> =
        ties.iter().map(|&(u, v)| model.score(NodeId(u), NodeId(v)).unwrap()).collect();

    const N_THREADS: usize = 8;
    const PER_THREAD: usize = 8; // 64 requests total
    dd_runtime::scope(|s| {
        for t in 0..N_THREADS {
            let addr = &addr;
            let ties = &ties;
            let expected = &expected;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let idx = (i + t * 3) % ties.len();
                    let (src, dst) = ties[idx];
                    let resp = client::get(addr, &format!("/score?src={src}&dst={dst}"))
                        .expect("request succeeds");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let parsed: ScoreResponse =
                        serde_json::from_str(&resp.body).expect("valid score JSON");
                    let got = parsed.score.expect("known tie has a score");
                    assert_eq!(
                        got.to_bits(),
                        expected[idx].to_bits(),
                        "thread {t} req {i}: served {got} != offline {}",
                        expected[idx]
                    );
                }
            });
        }
    });

    let total = (N_THREADS * PER_THREAD) as u64;
    assert_eq!(counter(&handle.registry(), "serve.requests.score"), total);
    assert_eq!(handle.requests_total(), total);

    // The latency histogram must have recorded every request.
    let snapshot = handle.registry().snapshot();
    let (_, latency) = snapshot
        .iter()
        .find(|(n, _)| n == "serve.latency.score")
        .expect("latency histogram registered");
    let MetricSnapshot::Histogram(h) = latency else { panic!("latency is a histogram") };
    assert_eq!(h.count, total);
    assert!(h.sum > 0.0, "latency sum should be positive");
    assert!(h.buckets.iter().any(|&(_, c)| c > 0), "some bucket must be non-empty");

    // /metrics (the wire view) agrees with the registry (the in-process
    // view), in Prometheus text exposition format.
    let resp = client::get(&addr, "/metrics").expect("metrics");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains(&format!("dd_serve_requests_total{{endpoint=\"score\"}} {total}")),
        "metrics dump missing request count: {}",
        resp.body
    );
    assert!(resp.body.contains("# TYPE dd_serve_requests_total counter"), "{}", resp.body);
    assert!(
        resp.body
            .contains(&format!("dd_serve_latency_seconds_count{{endpoint=\"score\"}} {total}")),
        "{}",
        resp.body
    );
    assert!(
        resp.body.contains("dd_serve_latency_seconds_bucket{endpoint=\"score\",le=\"+Inf\"}"),
        "{}",
        resp.body
    );

    assert!(handle.shutdown() >= total);
}

/// The tracing acceptance test: one traced request shows a single trace ID
/// across the `serve.request` JSONL event and its child queue-wait /
/// handler / cache spans; a client-supplied `traceparent` is honored and
/// echoed back on the response.
#[test]
fn request_traces_share_one_trace_id_and_echo_traceparent() {
    let log = std::env::temp_dir().join(format!("dd_serve_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let sink = dd_telemetry::JsonlSink::create(&log).expect("jsonl sink");
    let (model, handle) = start(|cfg| cfg.observer = ObserverHandle::new(Arc::new(sink)));
    let addr = handle.addr().to_string();
    let &(src, dst) = model.ties().first().expect("model has ties");

    // Request 1 joins a caller-supplied trace; the server must echo it.
    let supplied = "00-000000000000000000000000deadbeef-0000000000000001-01";
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(
        format!(
            "GET /score?src={src}&dst={dst} HTTP/1.1\r\nHost: x\r\ntraceparent: {supplied}\r\n\r\n"
        )
        .as_bytes(),
    )
    .unwrap();
    let mut resp = String::new();
    raw.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let echoed = resp
        .lines()
        .find_map(|l| l.strip_prefix("traceparent: "))
        .expect("response echoes traceparent");
    assert!(echoed.starts_with("00-"), "echo keeps the 00 version: {echoed}");
    assert!(echoed.contains("deadbeef-"), "echo carries the supplied trace id, got: {echoed}");

    // Request 2 (same pair, cache warm → hit) and request 3 (fresh trace).
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(
        format!(
            "GET /score?src={src}&dst={dst} HTTP/1.1\r\nHost: x\r\ntraceparent: {supplied}\r\n\r\n"
        )
        .as_bytes(),
    )
    .unwrap();
    let mut resp2 = String::new();
    raw.read_to_string(&mut resp2).unwrap();
    assert!(resp2.starts_with("HTTP/1.1 200"), "{resp2}");
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);

    handle.shutdown(); // flushes the JSONL sink
    let events = dd_telemetry::read_jsonl(&log).expect("readable request log");
    let supplied_trace = "00000000deadbeef"; // low 64 bits of the 128-bit field

    let requests: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "serve.request" && e.name.as_deref() == Some("score"))
        .collect();
    assert_eq!(requests.len(), 2, "two score requests logged");
    for r in &requests {
        assert_eq!(r.trace_id.as_deref(), Some(supplied_trace), "traceparent honored");
        assert!(r.span_id.is_some() && r.parent_span_id.is_none(), "request event is the root");
    }

    // Child spans parent to their request root and share its trace ID.
    let root_sid = requests[0].span_id.clone().unwrap();
    let children: Vec<_> = events
        .iter()
        .filter(|e| e.kind == "span" && e.parent_span_id.as_deref() == Some(root_sid.as_str()))
        .collect();
    let names: Vec<&str> = children.iter().filter_map(|e| e.name.as_deref()).collect();
    assert!(names.contains(&"serve.queue_wait"), "missing queue-wait span: {names:?}");
    assert!(names.contains(&"serve.handler.score"), "missing handler span: {names:?}");
    for c in &children {
        assert_eq!(c.trace_id.as_deref(), Some(supplied_trace), "one trace id per request");
    }

    // The warm second request tags its cache hit inside the same trace.
    assert!(
        events.iter().any(|e| e.kind == "span"
            && e.name.as_deref() == Some("serve.cache.hit")
            && e.trace_id.as_deref() == Some(supplied_trace)),
        "cache hit tagged in trace"
    );
    // The miss on the cold first request is tagged too.
    assert!(
        events.iter().any(|e| e.kind == "span"
            && e.name.as_deref() == Some("serve.cache.miss")
            && e.trace_id.as_deref() == Some(supplied_trace)),
        "cache miss tagged in trace"
    );

    // The untraced /healthz request opened its own (different) trace.
    let health = events
        .iter()
        .find(|e| e.kind == "serve.request" && e.name.as_deref() == Some("healthz"))
        .expect("healthz logged");
    assert!(health.trace_id.is_some());
    assert_ne!(health.trace_id.as_deref(), Some(supplied_trace));

    let _ = std::fs::remove_file(&log);
}

#[test]
fn batch_endpoint_scores_many_pairs_per_request() {
    let (model, handle) = start(|_| {});
    let addr = handle.addr().to_string();
    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(5).collect();

    let body: String = ties
        .iter()
        .map(|(s, d)| format!("{{\"src\":{s},\"dst\":{d}}}\n"))
        .chain(std::iter::once("{\"src\":4294967295,\"dst\":4294967295}\n".to_string()))
        .collect();
    let resp = client::post(&addr, "/batch", &body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let lines: Vec<ScoreResponse> = resp
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("valid line"))
        .collect();
    assert_eq!(lines.len(), ties.len() + 1);
    for (parsed, &(src, dst)) in lines.iter().zip(&ties) {
        assert_eq!((parsed.src, parsed.dst), (src, dst));
        let expected = model.score(NodeId(src), NodeId(dst)).unwrap();
        assert_eq!(parsed.score.unwrap().to_bits(), expected.to_bits());
        assert!(parsed.error.is_none());
    }
    let unknown = lines.last().unwrap();
    assert!(unknown.score.is_none(), "unknown tie must not get a score");
    assert!(unknown.error.is_some());

    // Malformed and empty batches are client errors.
    assert_eq!(client::post(&addr, "/batch", "not json\n").unwrap().status, 400);
    assert_eq!(client::post(&addr, "/batch", "\n\n").unwrap().status, 400);
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let defaults = ServeConfig::default();
    for front in fronts(defaults.workers, defaults.queue_depth, defaults.request_timeout) {
        let addr = front.addr();

        // Missing and unparseable query parameters.
        assert_eq!(client::get(&addr, "/score").unwrap().status, 400);
        assert_eq!(client::get(&addr, "/score?src=1").unwrap().status, 400);
        assert_eq!(client::get(&addr, "/score?src=x&dst=2").unwrap().status, 400);
        // Unknown route and bad method.
        assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
        assert_eq!(client::post(&addr, "/score?src=1&dst=2", "").unwrap().status, 405);
        assert_eq!(client::get(&addr, "/batch").unwrap().status, 405);

        // Raw garbage on the socket gets a 400, not a dropped worker.
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "got: {buf}");

        // The server is still healthy afterwards.
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        assert!(front.counter("requests.malformed") >= 1);
        front.shutdown();
    }
}

#[test]
fn slow_clients_hit_the_request_timeout() {
    let defaults = ServeConfig::default();
    for front in fronts(defaults.workers, defaults.queue_depth, Duration::from_millis(200)) {
        let addr = front.addr();

        // Open a connection, send half a request line, then stall.
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.write_all(b"GET /score?src=").unwrap();
        stalled.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = String::new();
        stalled.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 408"), "stalled client should get 408, got: {buf}");

        assert!(front.counter("requests.timeout") >= 1);
        // Healthy clients are unaffected.
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        front.shutdown();
    }
}

/// With one worker and a one-slot queue, a silent connection holds the
/// worker, the next one waits in the queue, and any further connection is
/// answered `503` at once instead of queueing without bound.
#[test]
fn full_accept_queue_answers_503() {
    for front in fronts(1, 1, Duration::from_secs(5)) {
        let addr = front.addr();
        let hold = TcpStream::connect(&addr).unwrap();
        // A connection that stays unanswered for a second sits in the worker
        // or the queue; at most two can. Whether the worker has dequeued
        // `hold` yet decides which connection is the first rejected, so
        // connect until one is answered.
        let mut waiting = Vec::new();
        let rejected = loop {
            assert!(waiting.len() < 2, "worker and queue hold only two connections");
            let mut conn = TcpStream::connect(&addr).unwrap();
            conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            let mut buf = String::new();
            match conn.read_to_string(&mut buf) {
                Ok(_) => break buf,
                Err(_) => waiting.push(conn),
            }
        };
        assert!(rejected.starts_with("HTTP/1.1 503"), "got: {rejected}");
        assert!(rejected.contains("queue full"), "got: {rejected}");
        assert!(front.counter("rejected.queue_full") >= 1);
        drop((hold, waiting));
        front.shutdown();
    }
}

#[test]
fn cache_eviction_is_counted_and_bounded() {
    let (model, handle) = start(|cfg| cfg.cache_size = 4);
    let addr = handle.addr().to_string();
    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(12).collect();
    assert!(ties.len() > 4, "need more ties than cache slots");

    // Two passes over 12 ties through a 4-entry cache: evictions guaranteed,
    // and every response still bit-exact (the cache can never go stale).
    for _ in 0..2 {
        for &(src, dst) in &ties {
            let resp = client::get(&addr, &format!("/score?src={src}&dst={dst}")).unwrap();
            assert_eq!(resp.status, 200);
            let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
            let expected = model.score(NodeId(src), NodeId(dst)).unwrap();
            assert_eq!(parsed.score.unwrap().to_bits(), expected.to_bits());
        }
    }

    let hits = counter(&handle.registry(), "serve.cache.hits");
    let misses = counter(&handle.registry(), "serve.cache.misses");
    let evictions = counter(&handle.registry(), "serve.cache.evictions");
    assert_eq!(hits + misses, 2 * ties.len() as u64, "every lookup is a hit or a miss");
    assert!(misses >= ties.len() as u64, "first pass must miss");
    assert!(evictions > 0, "12 ties through 4 slots must evict");
    handle.shutdown();
}

#[test]
fn unknown_ties_are_never_cached() {
    let (_model, handle) = start(|_| {});
    let addr = handle.addr().to_string();
    for _ in 0..3 {
        let resp = client::get(&addr, "/score?src=4294967295&dst=4294967294").unwrap();
        assert_eq!(resp.status, 404);
    }
    assert_eq!(counter(&handle.registry(), "serve.cache.hits"), 0);
    assert_eq!(counter(&handle.registry(), "serve.cache.misses"), 0);
    handle.shutdown();
}

#[test]
fn shutdown_drains_and_further_connections_fail() {
    let (_model, handle) = start(|_| {});
    let addr = handle.addr().to_string();
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);

    let served = handle.shutdown();
    assert!(served >= 1);

    // After shutdown the port no longer accepts (or resets immediately).
    let still_up = client::get(&addr, "/healthz").is_ok();
    assert!(!still_up, "server should be down after shutdown");
}

#[test]
fn dropping_the_handle_shuts_down_cleanly() {
    let addr;
    {
        let (_model, handle) = start(|_| {});
        addr = handle.addr().to_string();
        assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
        // Handle dropped here without an explicit shutdown() call.
    }
    assert!(client::get(&addr, "/healthz").is_err(), "drop must stop the server");
}

#[test]
fn rejects_zero_worker_config() {
    let model = Arc::new(fit_model());
    let cfg = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 0, ..ServeConfig::default() };
    assert!(Server::start(Arc::new(ScoreTable::of(&model)), cfg).is_err());
}

/// A streaming shard scores followed untrained pairs from the table's head
/// scores, so it refuses a table loaded without them.
#[test]
fn streaming_needs_a_table_with_head_scores() {
    let mut ddm = Vec::new();
    fit_model().save_binary(&mut ddm).unwrap();
    let rows_only = ScoreTable::load(std::io::Cursor::new(&ddm), false).unwrap();
    let cfg =
        ServeConfig { addr: "127.0.0.1:0".to_string(), stream: true, ..ServeConfig::default() };
    let err = Server::start(Arc::new(rows_only), cfg).err().expect("a rows-only table is refused");
    assert!(err.contains("head scores"), "{err}");
}
