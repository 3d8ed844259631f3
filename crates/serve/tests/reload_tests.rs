//! Hot-reload integration tests: `POST /admin/reload` must swap models with
//! zero downtime. The acceptance test sustains multi-threaded load through
//! at least three swaps with zero failed requests, and checks every single
//! response bit-for-bit against offline scoring with whichever model the
//! response's `fingerprint` field says answered it — the strongest possible
//! statement that a reader never sees a torn or stale model.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_serve::client;
use dd_serve::{HealthResponse, ReloadResponse, ScoreResponse, ServeConfig, Server};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fits several models over the *same* hidden network (identical tie set)
/// with different training seeds, so every model answers every query but
/// with distinguishable scores — exactly the hot-reload scenario.
fn fit_family(n: usize) -> Vec<DirectionalityModel> {
    let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(11);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    (0..n)
        .map(|i| {
            let cfg = DeepDirectConfig {
                dim: 8,
                max_iterations: Some(5_000),
                seed: 100 + i as u64,
                ..DeepDirectConfig::default()
            };
            DeepDirect::new(cfg).fit(&hidden)
        })
        .collect()
}

#[test]
fn concurrent_load_across_three_reloads_never_fails_and_stays_bit_exact() {
    let models = fit_family(4);
    let by_fingerprint: HashMap<String, &DirectionalityModel> =
        models.iter().map(|m| (format!("{:016x}", m.fingerprint()), m)).collect();
    assert_eq!(by_fingerprint.len(), 4, "training seeds must produce distinct fingerprints");

    // `.ddm` artifacts for generations 2..4.
    let dir = std::env::temp_dir().join(format!("dd_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut artifacts = Vec::new();
    for (i, m) in models.iter().enumerate().skip(1) {
        let path = dir.join(format!("gen{i}.ddm"));
        m.save_binary_to_path(&path).unwrap();
        artifacts.push(path);
    }

    let first = Arc::new(models[0].clone());
    let ties: Vec<(u32, u32)> = first.ties().to_vec();
    let handle = Server::start(
        Arc::new(ScoreTable::of(&first)),
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 4, ..ServeConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();

    let stop = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    const N_CLIENTS: usize = 8;

    dd_runtime::scope(|s| {
        for t in 0..N_CLIENTS {
            let addr = &addr;
            let ties = &ties;
            let stop = &stop;
            let completed = &completed;
            let by_fingerprint = &by_fingerprint;
            s.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (src, dst) = ties[(t * 131 + i) % ties.len()];
                    let resp = client::get(addr, &format!("/score?src={src}&dst={dst}"))
                        .expect("request must never fail during reload");
                    assert_eq!(resp.status, 200, "zero-downtime violated: {}", resp.body);
                    let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
                    let fp = parsed.fingerprint.as_deref().expect("score carries fingerprint");
                    let offline = by_fingerprint
                        .get(fp)
                        .unwrap_or_else(|| panic!("unknown fingerprint {fp}"));
                    let want = offline.score(NodeId(src), NodeId(dst)).unwrap();
                    assert_eq!(
                        parsed.score.unwrap().to_bits(),
                        want.to_bits(),
                        "response not bit-identical to the model it claims ({fp})"
                    );
                    completed.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // The admin thread: three reloads spaced across the sustained load.
        s.spawn(|| {
            for (i, path) in artifacts.iter().enumerate() {
                std::thread::sleep(Duration::from_millis(120));
                let body = format!(
                    "{{\"path\":{}}}",
                    serde_json::to_string(&path.display().to_string()).unwrap()
                );
                let resp = client::post(&addr, "/admin/reload", &body).expect("reload request");
                assert_eq!(resp.status, 200, "reload {i} failed: {}", resp.body);
                let parsed: ReloadResponse = serde_json::from_str(&resp.body).unwrap();
                assert_eq!(parsed.status, "reloaded");
                assert_eq!(parsed.generation, i as u64 + 2, "generation bumps per swap");
                assert_eq!(parsed.new_fingerprint, format!("{:016x}", models[i + 1].fingerprint()));
            }
            std::thread::sleep(Duration::from_millis(120));
            stop.store(true, Ordering::Relaxed);
        });
    });

    let total = completed.load(Ordering::Relaxed);
    assert!(total >= 200, "load loop too short to be meaningful: {total} requests");

    // After three swaps the fleet reports the final model and generation 4.
    let health = client::get(&addr, "/healthz").unwrap();
    let parsed: HealthResponse = serde_json::from_str(&health.body).unwrap();
    assert_eq!(parsed.generation, Some(4));
    assert_eq!(parsed.model_fingerprint, format!("{:016x}", models[3].fingerprint()));

    // /metrics carries the live fingerprint + generation as an info metric.
    let metrics = client::get(&addr, "/metrics").unwrap().body;
    assert!(
        metrics.contains(&format!(
            "dd_serve_model_info{{fingerprint=\"{:016x}\"}} 4",
            models[3].fingerprint()
        )),
        "missing model info metric: {metrics}"
    );
    assert!(metrics.contains("dd_serve_model_reloads_total 3"), "{metrics}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_error_paths_reject_without_disturbing_the_served_model() {
    let models = fit_family(1);
    let model = Arc::new(models.into_iter().next().unwrap());
    let handle = Server::start(
        Arc::new(ScoreTable::of(&model)),
        ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() },
    )
    .unwrap();
    let addr = handle.addr().to_string();
    let fingerprint = format!("{:016x}", model.fingerprint());

    // Nonexistent artifact, a JSON model (the format of earlier builds),
    // malformed body, wrong method.
    let resp = client::post(&addr, "/admin/reload", "{\"path\":\"/no/such/model.ddm\"}").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let dir = std::env::temp_dir().join(format!("dd_reload_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_model = dir.join("old_model.json").display().to_string();
    std::fs::write(&json_model, "{\"schema\":1,\"ties\":[[0,1]]}").unwrap();
    let body = format!("{{\"path\":{}}}", serde_json::to_string(&json_model).unwrap());
    let resp = client::post(&addr, "/admin/reload", &body).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(
        resp.body.contains("old_model.json") && resp.body.contains("bad magic"),
        "{}",
        resp.body
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(client::post(&addr, "/admin/reload", "not json").unwrap().status, 400);
    assert_eq!(client::get(&addr, "/admin/reload").unwrap().status, 405);

    // A failed reload leaves generation and fingerprint untouched.
    let health: HealthResponse =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    assert_eq!(health.generation, Some(1));
    assert_eq!(health.model_fingerprint, fingerprint);
    // And the old model keeps serving.
    let &(u, v) = model.ties().first().expect("a trained tie");
    let resp = client::get(&addr, &format!("/score?src={u}&dst={v}")).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let served: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
    let expected = model.score(NodeId(u), NodeId(v)).unwrap();
    assert_eq!(served.score.map(f64::to_bits), Some(expected.to_bits()));
    handle.shutdown();
}

/// Makes each of a shard's `workers` threads answer one request: every
/// connection is open before any request is written, so each is taken by a
/// distinct worker, which then waits for its request. The pause gives the
/// acceptor time to hand them out; the retention check does not depend on
/// how they end up spread.
fn occupy_every_worker(addr: &str, workers: usize, path: &str) {
    let mut conns: Vec<TcpStream> =
        (0..workers).map(|_| TcpStream::connect(addr).expect("connect")).collect();
    std::thread::sleep(Duration::from_millis(100));
    for conn in &mut conns {
        write!(conn, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("write request");
    }
    for mut conn in conns {
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("read reply");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }
}

/// A shard holds at most two generations: the one it serves and, during a
/// reload, the one it loads. Once a reload has answered, nothing keeps the
/// retired model alive — not the worker that ran the reload, and not the
/// idle workers that last scored against it.
#[test]
fn idle_workers_do_not_keep_retired_models_alive() {
    const WORKERS: usize = 4;
    let models = fit_family(2);
    let dir = std::env::temp_dir().join(format!("dd_reload_retire_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("next.ddm");
    models[1].save_binary_to_path(&artifact).unwrap();
    let body =
        format!("{{\"path\":{}}}", serde_json::to_string(&artifact.display().to_string()).unwrap());

    let first = Arc::new(ScoreTable::of(&models[0]));
    let retired: Weak<ScoreTable> = Arc::downgrade(&first);
    let handle = Server::start(
        first,
        ServeConfig { addr: "127.0.0.1:0".to_string(), workers: WORKERS, ..ServeConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let (src, dst) = models[0].ties()[0];
    occupy_every_worker(&addr, WORKERS, &format!("/score?src={src}&dst={dst}"));

    // K = 3 reloads while the workers sit idle.
    for k in 0..3 {
        let resp = client::post(&addr, "/admin/reload", &body).expect("reload request");
        assert_eq!(resp.status, 200, "reload {k} failed: {}", resp.body);
        assert!(
            retired.upgrade().is_none(),
            "reload {k}: the boot model is still alive after being retired"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
