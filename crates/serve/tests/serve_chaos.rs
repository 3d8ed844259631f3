//! Chaos suite for the query server: injected handler panics and a
//! thousand seeded fault schedules replayed against a live server.
//!
//! The contract: no matter what bytes arrive — malformed requests,
//! truncated sends, mid-message disconnects, handler panics — every
//! connection ends in a well-formed HTTP response or a clean close, the
//! metrics stay consistent, and graceful drain still completes. Every
//! schedule is a pure function of its seed, so a failure names one integer
//! and replays exactly.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_linalg::Pcg32;
use dd_serve::client;
use dd_serve::{ScoreResponse, ServeConfig, Server, ServerHandle};
use dd_telemetry::{Event, MetricSnapshot, ObserverHandle, TrainObserver};
use dd_testkit::gen::http_request_bytes;
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

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle
        .registry()
        .snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, s)| match s {
            MetricSnapshot::Counter(c) => Some(c),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no counter named {name}"))
}

/// Observer that records every event, so tests can assert on the
/// `serve.panic` fault log.
#[derive(Default)]
struct CaptureSink(Mutex<Vec<Event>>);

impl TrainObserver for CaptureSink {
    fn on_event(&self, event: &Event) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// The panic-isolation acceptance test: kill a worker's handler
/// mid-request more times than there are workers, and the server must keep
/// serving — each panic answered with a `500`, `serve.panics` counting
/// every one, 64 subsequent concurrent queries bit-identical to the
/// offline model, and graceful drain completing.
#[test]
fn injected_worker_panic_gets_500_and_the_pool_keeps_serving() {
    const WORKERS: usize = 4;
    const PANICS: usize = WORKERS + 2; // more panics than workers

    let sink = Arc::new(CaptureSink::default());
    let observer = ObserverHandle::new(Arc::clone(&sink) as Arc<dyn TrainObserver>);
    let (model, handle) = start(|cfg| {
        cfg.workers = WORKERS;
        cfg.panic_route = true;
        cfg.observer = observer;
    });
    let addr = handle.addr().to_string();

    // If a panic killed its worker, the pool would shrink by one per
    // injected panic and the requests after `PANICS > WORKERS` of them
    // would hang with nobody left to serve.
    for i in 0..PANICS {
        let resp = client::get(&addr, "/__panic").unwrap_or_else(|e| panic!("panic req {i}: {e}"));
        assert_eq!(resp.status, 500, "panic {i} must be answered, body: {}", resp.body);
        assert!(resp.body.contains("panicked"), "500 body names the cause: {}", resp.body);
    }
    assert_eq!(counter(&handle, "serve.panics"), PANICS as u64);
    assert_eq!(counter(&handle, "serve.requests.panic"), PANICS as u64);

    // The fault log captured one serve.panic event per injection, each
    // naming the offending path.
    {
        let events = sink.0.lock().unwrap();
        let panics: Vec<_> = events.iter().filter(|e| e.kind == "serve.panic").collect();
        assert_eq!(panics.len(), PANICS);
        assert!(panics.iter().all(|e| e.name.as_deref() == Some("/__panic")));
    }

    // All workers survived: 64 concurrent queries, every response
    // bit-identical to the offline model.
    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(16).collect();
    assert!(ties.len() >= 8, "model too small: {} ties", ties.len());
    let expected: Vec<f64> =
        ties.iter().map(|&(u, v)| model.score(NodeId(u), NodeId(v)).unwrap()).collect();
    const N_THREADS: usize = 8;
    const PER_THREAD: usize = 8;
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
                        .expect("post-panic request succeeds");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let parsed: ScoreResponse =
                        serde_json::from_str(&resp.body).expect("valid score JSON");
                    assert_eq!(
                        parsed.score.expect("known tie").to_bits(),
                        expected[idx].to_bits(),
                        "thread {t} req {i}: score drifted after panics"
                    );
                }
            });
        }
    });

    let total = (PANICS + N_THREADS * PER_THREAD) as u64;
    assert_eq!(counter(&handle, "serve.requests.score"), (N_THREADS * PER_THREAD) as u64);

    // Drain still completes with a full accounting.
    let served = handle.shutdown();
    assert!(served >= total, "drain reported {served} served, expected >= {total}");
}

/// With the flag left at its production default, the injection route does
/// not exist.
#[test]
fn panic_route_is_a_404_unless_explicitly_enabled() {
    let (_model, handle) = start(|_| {});
    let addr = handle.addr().to_string();
    assert_eq!(client::get(&addr, "/__panic").unwrap().status, 404);
    assert_eq!(counter(&handle, "serve.panics"), 0);
    handle.shutdown();
}

/// Replays 1000 seeded fault schedules against a live server: generated
/// (mostly hostile) request bytes, seeded truncation, partial sends, and
/// mid-message client disconnects. Every connection must end in a
/// well-formed HTTP response or a clean close — zero hangs, zero panics —
/// and the server must still be healthy and drainable afterwards.
#[test]
fn a_thousand_seeded_fault_schedules_never_wedge_the_server() {
    const SCHEDULES: u64 = 1000;

    let (_model, handle) = start(|cfg| {
        cfg.workers = 4;
        // Tight but safely above scheduling noise; truncated requests that
        // keep the connection open resolve as 408s quickly.
        cfg.request_timeout = Duration::from_millis(500);
    });
    let addr = handle.addr();

    let mut responses_seen = 0u64;
    let mut clean_closes = 0u64;
    let mut early_disconnects = 0u64;

    for seed in 0..SCHEDULES {
        let mut rng = Pcg32::seed_from_u64(seed);
        let bytes = http_request_bytes(&mut rng);

        // Seeded truncation on top of whatever the generator produced.
        let cut = if rng.gen_bool(0.25) { 1 + rng.gen_range(bytes.len()) } else { bytes.len() };
        let payload = &bytes[..cut];

        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut stream = stream;

        // Partial sends: 1..=3 chunks. Write errors are legal — the server
        // may have answered-and-closed already (e.g. 400 on a hostile first
        // chunk), which surfaces as EPIPE/reset here.
        let n_chunks = 1 + rng.gen_range(3);
        let chunk_len = payload.len().div_ceil(n_chunks).max(1);
        let mut write_failed = false;
        for chunk in payload.chunks(chunk_len) {
            if stream.write_all(chunk).is_err() {
                write_failed = true;
                break;
            }
        }

        // Mid-message disconnect: hang up without ever reading the answer.
        if !write_failed && rng.gen_bool(0.15) {
            drop(stream);
            early_disconnects += 1;
            continue;
        }

        // Signal end-of-request so truncated payloads read as EOF instead
        // of stalling until the request timeout.
        let _ = stream.shutdown(Shutdown::Write);

        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            // A reset from the server counts as a close; it must never be
            // half a response.
            Err(_) => clean_closes += 1,
            Ok(_) if reply.is_empty() => clean_closes += 1,
            Ok(_) => {
                assert!(
                    reply.starts_with(b"HTTP/1.1 "),
                    "seed {seed}: response does not start with a status line: {:?}",
                    String::from_utf8_lossy(&reply[..reply.len().min(80)])
                );
                assert!(
                    reply.windows(4).any(|w| w == b"\r\n\r\n"),
                    "seed {seed}: response missing header terminator"
                );
                responses_seen += 1;
            }
        }
    }

    // The schedule mix must have actually exercised both outcomes.
    assert!(responses_seen > 300, "only {responses_seen} responses across {SCHEDULES} schedules");
    assert!(
        clean_closes + early_disconnects > 50,
        "only {clean_closes} closes + {early_disconnects} disconnects"
    );

    // Metrics stayed consistent: no worker panicked, and every well-formed
    // response corresponds to a counted request.
    assert_eq!(counter(&handle, "serve.panics"), 0, "chaos bytes must never panic a handler");
    assert!(
        handle.requests_total() >= responses_seen,
        "requests_total {} < responses seen {responses_seen}",
        handle.requests_total()
    );

    // Still alive, still correct, still drains.
    assert_eq!(client::get(&addr.to_string(), "/healthz").unwrap().status, 200);
    let served = handle.shutdown();
    assert!(served >= responses_seen);
}
