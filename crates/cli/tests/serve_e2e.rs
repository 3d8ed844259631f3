//! End-to-end serving tests against the real `dd` binary: generate a graph,
//! train a model, start `dd serve` on an ephemeral port as a child process,
//! hammer it from many client threads, check every served score bit-for-bit
//! against the model loaded offline, then verify graceful SIGINT shutdown.
//! A second test serves an exported binary `.ddm` and pins the cross-format
//! contract live: same fingerprint, bit-identical scores.
//!
//! Unix-only: the graceful-shutdown half of the contract is SIGINT-driven.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use dd_graph::NodeId;
use dd_serve::client;
use dd_serve::ScoreResponse;
use deepdirect::DirectionalityModel;

fn dd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dd"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("dd_serve_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().to_string()
}

/// Asserts `body` is Prometheus text exposition 0.0.4: every sample line is
/// `name{label="value",…} value` with a `# TYPE` for its family, and every
/// histogram family has `_bucket` lines up to `le="+Inf"`, `_sum`, and
/// `_count`.
fn assert_prometheus_exposition(body: &str) {
    let is_name = |s: &str, colon: bool| {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || (colon && c == ':'))
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (colon && c == ':'))
    };
    let mut typed: Vec<(&str, &str)> = Vec::new();
    let mut samples: Vec<&str> = Vec::new();
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("`# TYPE name kind`");
            typed.push((name, kind));
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line:?}"));
        assert!(
            matches!(value, "NaN" | "+Inf" | "-Inf") || value.parse::<f64>().is_ok(),
            "bad sample value in {line:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                (name, rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed {line:?}")))
            }
            None => (series, ""),
        };
        assert!(is_name(name, true), "bad metric name in {line:?}");
        let mut rest = labels;
        while !rest.is_empty() {
            let (label, after) = rest.split_once("=\"").unwrap_or_else(|| panic!("{line:?}"));
            assert!(is_name(label, false), "bad label name in {line:?}");
            let (value, after) = after.split_once('"').unwrap_or_else(|| panic!("{line:?}"));
            assert!(!value.contains('\\'), "escaped label value in {line:?}");
            rest = match after.strip_prefix(',') {
                Some(more) => more,
                None if after.is_empty() => after,
                None => panic!("bad label list in {line:?}"),
            };
        }
        samples.push(name);
    }
    let type_of = |name: &str| typed.iter().find(|(n, _)| *n == name).map(|&(_, k)| k);
    for name in &samples {
        let family = ["_bucket", "_sum", "_count", "_total"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(name);
        assert!(type_of(name).or(type_of(family)).is_some(), "untyped sample {name}");
    }
    for &(family, _) in typed.iter().filter(|(_, kind)| *kind == "histogram") {
        assert!(body.contains(&format!("{family}_sum")), "{family} lacks _sum");
        assert!(body.contains(&format!("{family}_count")), "{family} lacks _count");
        assert!(
            body.lines()
                .any(|l| l.starts_with(&format!("{family}_bucket{{")) && l.contains("le=\"+Inf\"")),
            "{family} lacks its +Inf bucket"
        );
    }
}

/// Kills the server child on drop so a failing assertion can't leak a
/// process that outlives the test run.
struct ChildGuard(Option<Child>);

impl ChildGuard {
    fn pid(&self) -> u32 {
        self.0.as_ref().unwrap().id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn serve_e2e_train_query_shutdown() {
    let edges = tmp("graph.edges");
    let model_path = tmp("model.json");
    let telemetry = tmp("serve_telemetry.jsonl");
    let _ = std::fs::remove_file(&telemetry);

    // 1. Generate a synthetic graph and train a small model with the binary
    //    itself (the binary is a dev-profile build, so keep training cheap).
    let out = dd()
        .args(["generate", "twitter", "--scale", "300", "--out", &edges])
        .output()
        .expect("dd generate runs");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    let out = dd()
        .args([
            "train",
            &edges,
            "--out",
            &model_path,
            "--dim",
            "8",
            "--iterations",
            "8000",
            "--seed",
            "11",
        ])
        .output()
        .expect("dd train runs");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    // 2. Start the server on an ephemeral port and parse the resolved
    //    address from its contract line.
    let mut child = dd()
        .args([
            "serve",
            &model_path,
            "--port",
            "0",
            "--workers",
            "4",
            "--cache-size",
            "64",
            "--telemetry",
            &telemetry,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dd serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut guard = ChildGuard(Some(child));
    let mut reader = BufReader::new(stdout);

    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "dd serve exited before printing its listening line");
        if let Some(rest) = line.trim().strip_prefix("dd-serve listening on http://") {
            break rest.to_string();
        }
    };

    // 3. Offline reference: the same model file the server loaded.
    let model = Arc::new(DirectionalityModel::load_from_path(&model_path).unwrap());
    let ties: Vec<(u32, u32)> = model.ties().iter().copied().take(16).collect();
    assert!(ties.len() >= 8, "trained model too small: {} ties", ties.len());

    // Retry the first contact: the child printed its listening line, but the
    // accept loop may be a scheduling quantum behind it.
    let retry = client::RetryPolicy::default();
    assert_eq!(client::get_with_retry(&addr, "/healthz", &retry).unwrap().status, 200);

    // 4. 64 concurrent requests from 8 client threads; every response must
    //    be bit-identical to scoring offline.
    const N_THREADS: usize = 8;
    const PER_THREAD: usize = 8;
    dd_runtime::scope(|s| {
        for t in 0..N_THREADS {
            let addr = &addr;
            let ties = &ties;
            let model = Arc::clone(&model);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let (src, dst) = ties[(i + t * 5) % ties.len()];
                    let resp = client::get(addr, &format!("/score?src={src}&dst={dst}"))
                        .expect("score request");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
                    let expected = model.score(NodeId(src), NodeId(dst)).unwrap();
                    assert_eq!(
                        parsed.score.unwrap().to_bits(),
                        expected.to_bits(),
                        "served score for ({src},{dst}) differs from offline"
                    );
                }
            });
        }
    });

    // 5. /metrics accounts for exactly those requests, with latency samples.
    // (The score loop above deliberately used plain `get`: a retried GET
    // could double-count a request the server already served, breaking the
    // exact totals asserted here.)
    let metrics = client::get_with_retry(&addr, "/metrics", &retry).unwrap();
    assert_eq!(metrics.status, 200);
    let total = (N_THREADS * PER_THREAD) as u64;
    let score_line = format!("dd_serve_requests_total{{endpoint=\"score\"}} {total}");
    assert!(
        metrics.body.contains(&score_line),
        "metrics missing '{score_line}':\n{}",
        metrics.body
    );
    // The exposition must be well-formed Prometheus text: typed families,
    // histogram triples.
    assert!(metrics.body.contains("# TYPE dd_serve_requests_total counter"), "{}", metrics.body);
    assert!(metrics.body.contains("# TYPE dd_serve_latency_seconds histogram"), "{}", metrics.body);
    let latency_count = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("dd_serve_latency_seconds_count{endpoint=\"score\"} "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("latency histogram in metrics");
    assert_eq!(latency_count, total, "latency histogram must hold one sample per request");
    assert_prometheus_exposition(&metrics.body);
    assert!(
        metrics.body.contains("dd_serve_latency_seconds_bucket{endpoint=\"score\",le=\"+Inf\"}"),
        "{}",
        metrics.body
    );

    // The served score is textually the one `dd score` prints offline.
    let (src, dst) = ties[0];
    let out = dd()
        .args(["score", &model_path, &src.to_string(), &dst.to_string()])
        .output()
        .expect("dd score runs");
    assert!(out.status.success(), "score failed: {}", String::from_utf8_lossy(&out.stderr));
    let offline = String::from_utf8(out.stdout).unwrap();
    let served = client::get(&addr, &format!("/score?src={src}&dst={dst}")).unwrap();
    let want = format!("\"score\":{}", offline.trim());
    assert!(served.body.contains(&want), "served {} lacks {want}", served.body);

    // 6. Graceful shutdown: SIGINT, clean exit, drain summary on stdout.
    let status =
        Command::new("kill").args(["-INT", &guard.pid().to_string()]).status().expect("kill runs");
    assert!(status.success());
    let exit = guard.0.as_mut().unwrap().wait().expect("server exits");
    assert!(exit.success(), "dd serve should exit cleanly on SIGINT, got {exit:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("drained and stopped"),
        "missing drain summary in remaining stdout: {rest:?}"
    );
    guard.0.take();

    // 7. The request log captured serve.request events for the session.
    let events = deepdirect::telemetry::read_jsonl(&telemetry).unwrap();
    let served: Vec<_> = events.iter().filter(|e| e.kind == "serve.request").collect();
    assert!(
        served.len() as u64 >= total,
        "expected >= {total} serve.request events, found {}",
        served.len()
    );
    assert!(
        served.iter().any(|e| e.name.as_deref() == Some("score")),
        "request log should label score requests"
    );
    assert!(
        served.iter().all(|e| e.trace_id.is_some() && e.span_id.is_some()),
        "every logged request carries a trace identity"
    );
}

#[test]
fn serve_e2e_binary_model_is_bit_identical_to_json() {
    let edges = tmp("graph_bin.edges");
    let model_json = tmp("model_bin_src.json");
    let model_ddm = tmp("model_bin.ddm");

    // Train a small JSON model and export it to the binary container with
    // the binary itself: the artifact flow an operator follows.
    let out = dd()
        .args(["generate", "twitter", "--scale", "250", "--out", &edges])
        .output()
        .expect("dd generate runs");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = dd()
        .args([
            "train",
            &edges,
            "--out",
            &model_json,
            "--dim",
            "8",
            "--iterations",
            "6000",
            "--seed",
            "23",
        ])
        .output()
        .expect("dd train runs");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = dd()
        .args(["export", &model_json, "--out", &model_ddm, "--binary"])
        .output()
        .expect("dd export runs");
    assert!(out.status.success(), "export failed: {}", String::from_utf8_lossy(&out.stderr));

    // Serve the *binary* artifact.
    let mut child = dd()
        .args(["serve", &model_ddm, "--port", "0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dd serve spawns");
    let stdout = child.stdout.take().unwrap();
    let mut guard = ChildGuard(Some(child));
    let mut reader = BufReader::new(stdout);

    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "dd serve exited before printing its listening line");
        if let Some(rest) = line.trim().strip_prefix("dd-serve listening on http://") {
            break rest.to_string();
        }
    };

    // Offline reference comes from the *JSON* artifact: every served score
    // must be bit-identical across the format boundary.
    let model = DirectionalityModel::load_from_path(&model_json).unwrap();
    let retry = client::RetryPolicy::default();

    // /healthz must report the JSON model's content fingerprint — the
    // container never leaks into model identity.
    let health = client::get_with_retry(&addr, "/healthz", &retry).unwrap();
    assert_eq!(health.status, 200);
    let expected_fp = format!("\"model_fingerprint\":\"{:016x}\"", model.fingerprint());
    assert!(
        health.body.contains(&expected_fp),
        "healthz fingerprint differs from the JSON artifact's: {}",
        health.body
    );

    for &(src, dst) in model.ties().iter().take(24) {
        let resp = client::get(&addr, &format!("/score?src={src}&dst={dst}")).expect("score");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
        let expected = model.score(NodeId(src), NodeId(dst)).unwrap();
        assert_eq!(
            parsed.score.unwrap().to_bits(),
            expected.to_bits(),
            "binary-served score for ({src},{dst}) differs from the JSON-loaded model"
        );
    }

    // Graceful SIGINT shutdown holds for binary-served processes too.
    let status =
        Command::new("kill").args(["-INT", &guard.pid().to_string()]).status().expect("kill runs");
    assert!(status.success());
    let exit = guard.0.as_mut().unwrap().wait().expect("server exits");
    assert!(exit.success(), "dd serve should exit cleanly on SIGINT, got {exit:?}");
    guard.0.take();
}

/// Fleet mode end-to-end: `dd serve --shards 2` spawns two shard processes
/// plus the in-process router, routed scores stay bit-identical to offline
/// scoring, and SIGINT drains the whole fleet (router first, then shards).
#[test]
fn serve_e2e_fleet_mode_routes_and_drains() {
    let edges = tmp("graph_fleet.edges");
    let model_path = tmp("model_fleet.json");

    let out = dd()
        .args(["generate", "twitter", "--scale", "300", "--out", &edges])
        .output()
        .expect("dd generate runs");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = dd()
        .args([
            "train",
            &edges,
            "--out",
            &model_path,
            "--dim",
            "8",
            "--iterations",
            "8000",
            "--seed",
            "31",
        ])
        .output()
        .expect("dd train runs");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));

    let mut child = dd()
        .args(["serve", &model_path, "--shards", "2", "--port", "0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dd serve --shards spawns");
    let stdout = child.stdout.take().unwrap();
    let mut guard = ChildGuard(Some(child));
    let mut reader = BufReader::new(stdout);

    // The supervisor prints one line per shard, then the router contract
    // line — that one carries the address clients use.
    let mut shard_lines = 0usize;
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read fleet stdout");
        assert!(n > 0, "fleet exited before printing its router line");
        if line.trim_start().starts_with("shard ") && line.contains("listening on http://") {
            shard_lines += 1;
        }
        if let Some(rest) = line.trim().strip_prefix("dd-router listening on http://") {
            break rest.to_string();
        }
    };
    assert_eq!(shard_lines, 2, "supervisor should report both shards before the router");

    let model = Arc::new(DirectionalityModel::load_from_path(&model_path).unwrap());
    let retry = client::RetryPolicy::default();

    // Router health: both shards up, serving the same fingerprint.
    let health = client::get_with_retry(&addr, "/healthz", &retry).unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert!(health.body.contains("\"healthy_shards\":2"), "{}", health.body);
    let fp = format!("{:016x}", model.fingerprint());
    assert_eq!(
        health.body.matches(&fp).count(),
        2,
        "both shards report the model: {}",
        health.body
    );

    // Routed scores are bit-identical to the offline model.
    for &(src, dst) in model.ties().iter().take(24) {
        let resp = client::get(&addr, &format!("/score?src={src}&dst={dst}")).expect("score");
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
        let expected = model.score(NodeId(src), NodeId(dst)).unwrap();
        assert_eq!(parsed.score.unwrap().to_bits(), expected.to_bits());
    }

    // Aggregated router metrics carry per-shard forward counts.
    let metrics = client::get(&addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        metrics.body.contains("dd_router_shard_forwards_total{shard="),
        "router metrics missing per-shard labels: {}",
        metrics.body
    );
    assert_prometheus_exposition(&metrics.body);

    // SIGINT the supervisor: router drains first, then both shards; the
    // fleet summary reports both shards exiting cleanly.
    let status =
        Command::new("kill").args(["-INT", &guard.pid().to_string()]).status().expect("kill runs");
    assert!(status.success());
    let exit = guard.0.as_mut().unwrap().wait().expect("fleet exits");
    assert!(exit.success(), "fleet should exit cleanly on SIGINT, got {exit:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("dd-fleet: drained and stopped"),
        "missing fleet drain summary: {rest:?}"
    );
    assert!(rest.contains("(2/2 shards drained cleanly)"), "shards must drain cleanly: {rest:?}");
    guard.0.take();
}
