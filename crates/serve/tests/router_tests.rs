//! Fleet router integration tests: real shard servers on ephemeral ports
//! behind a real [`Router`], exercising bit-exact forwarding, batch order
//! preservation, seeded mid-stream shard kills with zero client-visible
//! failures, unhealthy quarantine + re-probe after a shard comes back, and
//! fleet-wide reload and ingest fan-out (a partial one is a `502` listed in
//! shard order).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_serve::client;
use dd_serve::{
    Router, RouterConfig, RouterHealth, ScoreResponse, ServeConfig, Server, ServerHandle,
};
use dd_telemetry::ObserverHandle;
use dd_testkit::KillSchedule;
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_model() -> DirectionalityModel {
    let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(13);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg =
        DeepDirectConfig { dim: 8, max_iterations: Some(5_000), ..DeepDirectConfig::default() };
    DeepDirect::new(cfg).fit(&hidden)
}

fn start_shard(model: &Arc<DirectionalityModel>, addr: &str) -> ServerHandle {
    Server::start(
        Arc::new(ScoreTable::of(model)),
        ServeConfig { addr: addr.to_string(), workers: 2, ..ServeConfig::default() },
    )
    .expect("shard starts")
}

fn start_fleet(
    model: &Arc<DirectionalityModel>,
    n_shards: usize,
    cfg_mutator: impl FnOnce(&mut RouterConfig),
) -> (Vec<ServerHandle>, dd_serve::RouterHandle) {
    let shards: Vec<ServerHandle> =
        (0..n_shards).map(|_| start_shard(model, "127.0.0.1:0")).collect();
    let mut cfg = RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        ..RouterConfig::default()
    };
    cfg_mutator(&mut cfg);
    let router = Router::start(cfg).expect("router starts");
    (shards, router)
}

#[test]
fn routed_scores_are_bit_identical_to_offline_scoring() {
    let model = Arc::new(fit_model());
    let (shards, router) = start_fleet(&model, 3, |_| {});
    let addr = router.addr().to_string();
    let fingerprint = format!("{:016x}", model.fingerprint());

    for &(src, dst) in model.ties().iter().take(40) {
        let resp = client::get(&addr, &format!("/score?src={src}&dst={dst}")).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
        let want = model.score(NodeId(src), NodeId(dst)).unwrap();
        assert_eq!(parsed.score.unwrap().to_bits(), want.to_bits());
        assert_eq!(parsed.fingerprint.as_deref(), Some(fingerprint.as_str()));
    }

    // Unknown ties and malformed queries pass the shard's verdict through.
    assert_eq!(client::get(&addr, "/score?src=4294967295&dst=4294967294").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/score?src=x&dst=2").unwrap().status, 400);
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);

    // Work actually spread over the shards: more than one shard forwarded.
    let busy = shards.iter().filter(|s| s.requests_total() > 0).count();
    assert!(busy >= 2, "placement should spread 40 ties over 3 shards, got {busy}");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn batch_responses_preserve_request_order_across_shards() {
    let model = Arc::new(fit_model());
    let (shards, router) = start_fleet(&model, 3, |_| {});
    let addr = router.addr().to_string();

    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(96).collect();
    assert_eq!(ties.len(), 96, "the model has enough ties to split");
    let body: String = ties.iter().map(|(s, d)| format!("{{\"src\":{s},\"dst\":{d}}}\n")).collect();
    let resp = client::post(&addr, "/batch", &body).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let lines: Vec<ScoreResponse> = resp
        .body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), ties.len());
    // The router splits the batch by shard and must reassemble in the
    // original order even though sub-batches complete in any order.
    for (line, &(src, dst)) in lines.iter().zip(&ties) {
        assert_eq!((line.src, line.dst), (src, dst), "order preserved");
        let want = model.score(NodeId(src), NodeId(dst)).unwrap();
        assert_eq!(line.score.unwrap().to_bits(), want.to_bits());
    }
    // The batch really was split: with even placement, the chance that one
    // of 3 shards owns none of 96 ties is about 3·(2/3)^96 ≈ 4e-17.
    for (i, shard) in shards.iter().enumerate() {
        let batches = shard.registry().counter("serve.requests.batch").get();
        assert_eq!(batches, 1, "shard {i} answered {batches} sub-batches");
    }

    assert_eq!(client::post(&addr, "/batch", "not json\n").unwrap().status, 400);
    assert_eq!(client::post(&addr, "/batch", "\n").unwrap().status, 400);

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The failover acceptance test: kill one replica mid-stream at a seeded
/// point while clients hammer the router; every request must still succeed
/// bit-exactly, and the router must record the failover.
#[test]
fn killing_a_shard_mid_stream_is_invisible_to_clients() {
    let model = Arc::new(fit_model());
    let (mut shards, router) = start_fleet(&model, 3, |cfg| {
        cfg.unhealthy_after = 1;
    });
    let addr = router.addr().to_string();
    let ties: Vec<(u32, u32)> = model.ties().to_vec();

    let (kill_after, victim) = KillSchedule::new(0xfee1).next_kill(shards.len(), 40, 80);
    let completed = AtomicUsize::new(0);
    let killed = AtomicBool::new(false);
    const N_CLIENTS: usize = 4;
    const PER_CLIENT: usize = 60;

    dd_runtime::scope(|s| {
        // Client threads: sustained load, every response verified bit-exact.
        for t in 0..N_CLIENTS {
            let addr = &addr;
            let ties = &ties;
            let model = &model;
            let completed = &completed;
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let (src, dst) = ties[(t * 977 + i) % ties.len()];
                    let resp = client::get(addr, &format!("/score?src={src}&dst={dst}"))
                        .expect("router must absorb the shard kill");
                    assert_eq!(resp.status, 200, "failover leaked a failure: {}", resp.body);
                    let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
                    let want = model.score(NodeId(src), NodeId(dst)).unwrap();
                    assert_eq!(parsed.score.unwrap().to_bits(), want.to_bits());
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The executioner: waits for the seeded request count, then drops
        // the victim shard (socket closes, in-flight requests drain first —
        // exactly what a graceful kill looks like from the router).
        s.spawn(|| {
            while completed.load(Ordering::Relaxed) < kill_after {
                std::thread::sleep(Duration::from_millis(1));
            }
            let victim_handle = shards.remove(victim);
            victim_handle.shutdown();
            killed.store(true, Ordering::Relaxed);
        });
    });

    assert!(killed.load(Ordering::Relaxed), "kill point must fire mid-stream");
    assert_eq!(completed.load(Ordering::Relaxed), N_CLIENTS * PER_CLIENT);

    // The router noticed: the dead shard is quarantined in /healthz and the
    // failover counter moved.
    let health = client::get(&addr, "/healthz").unwrap();
    let parsed: RouterHealth = serde_json::from_str(&health.body).unwrap();
    assert_eq!(parsed.healthy_shards, 2, "one shard down: {}", health.body);
    assert_eq!(parsed.shards.iter().filter(|s| !s.healthy).count(), 1);

    let snapshot = router.registry().snapshot();
    let failovers = snapshot
        .iter()
        .find_map(|(n, s)| match (n.as_str(), s) {
            ("router.failovers", dd_telemetry::MetricSnapshot::Counter(c)) => Some(*c),
            _ => None,
        })
        .unwrap();
    assert!(failovers > 0, "failovers counter must record the rescue");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn dead_shard_is_quarantined_then_reprobed_after_restart() {
    let model = Arc::new(fit_model());
    let (mut shards, router) = start_fleet(&model, 2, |cfg| {
        cfg.unhealthy_after = 1;
        cfg.probe_interval = Duration::from_millis(50);
    });
    let addr = router.addr().to_string();
    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(32).collect();

    let drive = |label: &str| {
        for &(src, dst) in &ties {
            let resp = client::get(&addr, &format!("/score?src={src}&dst={dst}")).unwrap();
            assert_eq!(resp.status, 200, "{label}: {}", resp.body);
        }
    };
    drive("warmup");

    // Kill shard 0 and remember its (ephemeral) address.
    let dead_addr = shards[0].addr().to_string();
    shards.remove(0).shutdown();
    drive("degraded");

    let health: RouterHealth =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    assert_eq!(health.status, "degraded");
    assert_eq!(health.healthy_shards, 1);
    let dead = health.shards.iter().find(|s| s.addr == dead_addr).unwrap();
    assert!(!dead.healthy, "dead shard quarantined");

    // Restart on the same port (std sets SO_REUSEADDR on unix) and let the
    // prober notice. Quarantine must lift without any admin action.
    shards.push(start_shard(&model, &dead_addr));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let health: RouterHealth =
            serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
        if health.healthy_shards == 2 {
            assert_eq!(health.status, "ok");
            let revived = health.shards.iter().find(|s| s.addr == dead_addr).unwrap();
            assert!(revived.healthy);
            assert_eq!(
                revived.fingerprint.as_deref(),
                Some(format!("{:016x}", model.fingerprint()).as_str())
            );
            break;
        }
        assert!(std::time::Instant::now() < deadline, "prober never lifted the quarantine");
        std::thread::sleep(Duration::from_millis(25));
    }
    drive("recovered");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

#[test]
fn fleet_reload_fans_out_to_every_shard() {
    let model = Arc::new(fit_model());
    let (shards, router) = start_fleet(&model, 2, |_| {});
    let addr = router.addr().to_string();

    // Train a second model on the same universe and stage its artifact.
    let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(13);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let next = DeepDirect::new(DeepDirectConfig {
        dim: 8,
        max_iterations: Some(5_000),
        seed: 99,
        ..DeepDirectConfig::default()
    })
    .fit(&hidden);
    let new_fingerprint = format!("{:016x}", next.fingerprint());
    assert_ne!(new_fingerprint, format!("{:016x}", model.fingerprint()));
    let path = std::env::temp_dir().join(format!("dd_fleet_reload_{}.ddm", std::process::id()));
    next.save_binary_to_path(&path).unwrap();

    let body =
        format!("{{\"path\":{}}}", serde_json::to_string(&path.display().to_string()).unwrap());
    let resp = client::post(&addr, "/admin/reload", &body).unwrap();
    assert_eq!(resp.status, 200, "fleet reload failed: {}", resp.body);

    // Every shard now reports the new fingerprint at generation 2.
    let health: RouterHealth =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    for shard in &health.shards {
        assert!(shard.healthy);
        assert_eq!(shard.fingerprint.as_deref(), Some(new_fingerprint.as_str()), "{shard:?}");
        assert_eq!(shard.generation, Some(2));
    }

    // A reload pointing nowhere fails loudly and moves nothing.
    let bad = client::post(&addr, "/admin/reload", "{\"path\":\"/no/such.ddm\"}").unwrap();
    assert_eq!(bad.status, 502, "partial/failed fan-out is a gateway error: {}", bad.body);
    let health: RouterHealth =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    for shard in &health.shards {
        assert_eq!(shard.generation, Some(2), "failed reload must not bump generations");
    }

    let _ = std::fs::remove_file(&path);
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A fan-out that misses a shard is a `502` whose `shards` array lists the
/// verdicts in configured shard order. The posts go out concurrently and a
/// dead shard's refused connect returns first, so with shard 1 dead an
/// array in completion order would list it first; with shard 0 dead the
/// dead shard still leads.
#[test]
fn partial_fan_out_is_a_502_listed_in_shard_order() {
    use dd_stream::{to_jsonl, EventOp, TieEvent};
    use serde_json::Value;

    let model = Arc::new(fit_model());
    let path = std::env::temp_dir().join(format!("dd_fan_out_order_{}.ddm", std::process::id()));
    model.save_binary_to_path(&path).unwrap();
    let reload =
        format!("{{\"path\":{}}}", serde_json::to_string(&path.display().to_string()).unwrap());
    let &(u, v) = model.ties().first().expect("a trained tie");
    let events = to_jsonl(&[TieEvent::new(EventOp::Unfollow, u, v)]);

    for dead in [1usize, 0] {
        let mut shards: Vec<ServerHandle> = (0..2)
            .map(|_| {
                let cfg = ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    stream: true,
                    ..ServeConfig::default()
                };
                Server::start(Arc::new(ScoreTable::of(&model)), cfg).expect("shard starts")
            })
            .collect();
        let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
        let router = Router::start(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: addrs.clone(),
            ..RouterConfig::default()
        })
        .expect("router starts");
        let addr = router.addr().to_string();
        shards.remove(dead).shutdown();

        for (path, body) in [("/admin/reload", &reload), ("/ingest", &events)] {
            let resp = client::post(&addr, path, body).unwrap();
            assert_eq!(resp.status, 502, "{path} with shard {dead} dead: {}", resp.body);
            let doc: Value = serde_json::from_str(&resp.body).unwrap();
            let Some(Value::Array(verdicts)) = doc.get("shards") else {
                panic!("no shards array: {}", resp.body)
            };
            assert_eq!(verdicts.len(), 2, "{}", resp.body);
            for (i, verdict) in verdicts.iter().enumerate() {
                assert_eq!(verdict.get("addr"), Some(&Value::Str(addrs[i].clone())), "{path}");
                assert_eq!(verdict.get("ok"), Some(&Value::Bool(i != dead)), "{}", resp.body);
            }
        }

        router.shutdown();
        for s in shards {
            s.shutdown();
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// One routed request is one trace: a client `traceparent` sent to the
/// router is echoed back, and the router's and the shard's request-log
/// roots both carry its trace id, with the router's queue-wait and handler
/// spans parented to the router's root.
#[test]
fn routed_request_is_one_trace_from_client_to_shard() {
    let model = Arc::new(fit_model());
    let log = |side: &str| {
        let path = std::env::temp_dir()
            .join(format!("dd_router_trace_{side}_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sink = dd_telemetry::JsonlSink::create(&path).expect("jsonl sink");
        (path, ObserverHandle::new(Arc::new(sink)))
    };
    let (shard_log, shard_observer) = log("shard");
    let (router_log, router_observer) = log("router");
    let shard = Server::start(
        Arc::new(ScoreTable::of(&model)),
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            observer: shard_observer,
            ..ServeConfig::default()
        },
    )
    .expect("shard starts");
    let router = Router::start(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: vec![shard.addr().to_string()],
        observer: router_observer,
        ..RouterConfig::default()
    })
    .expect("router starts");

    let &(src, dst) = model.ties().first().expect("model has ties");
    let supplied = "00-000000000000000000000000deadbeef-0000000000000001-01";
    let mut raw = TcpStream::connect(router.addr()).unwrap();
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
        .expect("router echoes traceparent");
    assert!(echoed.contains("deadbeef-"), "echo carries the supplied trace id, got: {echoed}");

    router.shutdown(); // flushes the router's request log
    shard.shutdown();
    let trace = "00000000deadbeef"; // low 64 bits of the 128-bit field
    let root = |path: &std::path::Path, name: &str| {
        let events = dd_telemetry::read_jsonl(path).expect("readable request log");
        let root = events
            .iter()
            .find(|e| e.kind == "serve.request" && e.name.as_deref() == Some(name))
            .unwrap_or_else(|| panic!("no {name} request logged"))
            .clone();
        (events, root)
    };
    let (router_events, router_root) = root(&router_log, "router.score");
    let (_, shard_root) = root(&shard_log, "score");
    assert_eq!(router_root.trace_id.as_deref(), Some(trace), "router joins the client's trace");
    assert_eq!(shard_root.trace_id.as_deref(), Some(trace), "shard joins the same trace");

    let root_sid = router_root.span_id.expect("router root has a span id");
    let children: Vec<&str> = router_events
        .iter()
        .filter(|e| e.kind == "span" && e.parent_span_id.as_deref() == Some(root_sid.as_str()))
        .filter_map(|e| e.name.as_deref())
        .collect();
    assert!(children.contains(&"router.queue_wait"), "missing queue-wait span: {children:?}");
    assert!(children.contains(&"router.handler.score"), "missing handler span: {children:?}");

    let _ = std::fs::remove_file(&shard_log);
    let _ = std::fs::remove_file(&router_log);
}
