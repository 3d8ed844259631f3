//! End-to-end serving tests against the real `dd` binary: generate a graph,
//! train a model, start `dd serve` on an ephemeral port as a child process,
//! hammer it from many client threads, check every served score bit-for-bit
//! against the model loaded offline, then verify graceful SIGINT shutdown.
//! A second test serves the `.ddm` that `dd train` wrote and pins the
//! artifact contract live: the served fingerprint and scores are those of
//! the same file loaded in process. A streaming test
//! pipes a generated event log through `dd ingest --to` and byte-diffs the
//! served fold-in score and state digest against an offline replay.
//!
//! Unix-only: the graceful-shutdown half of the contract is SIGINT-driven.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dd_graph::NodeId;
use dd_serve::client;
use dd_serve::{RouterHealth, ScoreResponse};
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
    let model_path = tmp("model.ddm");
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
fn serve_e2e_trained_ddm_is_bit_identical_to_offline_load() {
    let edges = tmp("graph_bin.edges");
    let model_ddm = tmp("model_bin.ddm");

    // Train a small model with the binary itself and serve the file it
    // wrote: the artifact flow an operator follows.
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
            &model_ddm,
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

    // Serve the trained artifact.
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

    // Offline reference: the same file loaded in process. Every served
    // score must be bit-identical to it.
    let model = DirectionalityModel::load_from_path(&model_ddm).unwrap();
    let retry = client::RetryPolicy::default();

    // /healthz must report the offline load's content fingerprint.
    let health = client::get_with_retry(&addr, "/healthz", &retry).unwrap();
    assert_eq!(health.status, 200);
    let expected_fp = format!("\"model_fingerprint\":\"{:016x}\"", model.fingerprint());
    assert!(
        health.body.contains(&expected_fp),
        "healthz fingerprint differs from the offline load's: {}",
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
            "served score for ({src},{dst}) differs from the offline-loaded model"
        );
    }

    // Graceful SIGINT shutdown.
    let status =
        Command::new("kill").args(["-INT", &guard.pid().to_string()]).status().expect("kill runs");
    assert!(status.success());
    let exit = guard.0.as_mut().unwrap().wait().expect("server exits");
    assert!(exit.success(), "dd serve should exit cleanly on SIGINT, got {exit:?}");
    guard.0.take();
}

/// The JSON model files of earlier builds are refused by every command
/// that reads a model, with the path and `bad magic`, before `dd serve`
/// binds a port; and `dd export` is no longer a command.
#[test]
fn serve_e2e_json_models_and_export_are_refused() {
    let model = tmp("old_model.json");
    std::fs::write(&model, r#"{"schema":1,"ties":[[0,1]]}"#).unwrap();
    for args in [
        vec!["score", &model, "0", "1"],
        vec!["predict", &model, "0", "1"],
        vec!["ingest", &model, "--events", &model],
        vec!["serve", &model, "--port", "0"],
    ] {
        let out = dd().args(&args).output().expect("dd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "dd {args:?} accepted a JSON model");
        assert!(stderr.contains(&model) && stderr.contains("bad magic"), "{args:?}: {stderr}");
    }
    let out = dd().args(["export", &model, "--out", &tmp("exported.ddm")]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

/// Runs `dd` to completion and returns its stdout, failing on a non-zero
/// exit.
fn dd_stdout(args: &[&str]) -> String {
    let out = dd().args(args).output().expect("dd runs");
    assert!(out.status.success(), "dd {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// Streaming end to end across processes: train, `dd serve --stream`, pipe a
/// generated event stream through `dd ingest --to` in batches of 32, then
/// check the served fold-in score and the state digest byte for byte against
/// an offline `dd ingest` replay of the whole log at once, the ingest
/// counters in `/metrics`, and the SIGINT drain.
#[test]
fn serve_e2e_stream_ingest_matches_offline_replay() {
    let edges = tmp("graph_stream.edges");
    let model_path = tmp("model_stream.ddm");
    let events = tmp("events_stream.jsonl");
    dd_stdout(&["generate", "twitter", "--scale", "400", "--out", &edges]);
    dd_stdout(&[
        "train",
        &edges,
        "--out",
        &model_path,
        "--dim",
        "8",
        "--iterations",
        "20000",
        "--seed",
        "11",
    ]);
    dd_stdout(&["events", &edges, "--out", &events, "--count", "200", "--seed", "13"]);

    // A new-arrival tie that is live at the end of the log: its follower id
    // is past the snapshot's node count, so it is untrained and can only
    // score through fold-in.
    let header = std::fs::read_to_string(&edges).unwrap();
    let nodes: u32 = header
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("n "))
        .and_then(|n| n.trim().parse().ok())
        .expect("`n N` header line");
    let log = dd_stream::parse_events(&std::fs::read_to_string(&events).unwrap()).unwrap();
    let mut live = std::collections::BTreeSet::new();
    for ev in &log {
        let pairs = match ev.op {
            dd_stream::EventOp::Reciprocate => vec![(ev.src, ev.dst), (ev.dst, ev.src)],
            _ => vec![(ev.src, ev.dst)],
        };
        for pair in pairs {
            if ev.op == dd_stream::EventOp::Unfollow {
                live.remove(&pair);
            } else {
                live.insert(pair);
            }
        }
    }
    let &(src, dst) =
        live.iter().find(|&&(s, _)| s >= nodes).expect("a live new-arrival tie in the log");

    let mut child = dd()
        .args(["serve", &model_path, "--stream", "--port", "0", "--workers", "2"])
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
    let retry = client::RetryPolicy::default();
    assert_eq!(client::get_with_retry(&addr, "/healthz", &retry).unwrap().status, 200);
    let score_path = format!("/score?src={src}&dst={dst}");
    let before = client::get(&addr, &score_path).unwrap();
    assert_eq!(before.status, 404, "untrained tie must 404 before ingest: {}", before.body);

    // `dd ingest` returns once the last batch is applied, so the very next
    // request must already score the folded-in tie.
    let online = dd_stdout(&["ingest", "--to", &addr, "--events", &events, "--batch", "32"]);
    let served = client::get(&addr, &score_path).unwrap();
    assert_eq!(served.status, 200, "ingested tie must score: {}", served.body);
    let (src_s, dst_s) = (src.to_string(), dst.to_string());
    let offline_score =
        dd_stdout(&["ingest", &model_path, "--events", &events, "--score", &src_s, &dst_s]);
    let want = format!("\"score\":{}", offline_score.trim());
    assert!(served.body.contains(&want), "served {} lacks {want}", served.body);

    // The server saw batches of 32; the replay applies the log at once.
    let offline = dd_stdout(&["ingest", &model_path, "--events", &events]);
    let digest = |out: &str| out.lines().find(|l| l.starts_with("digest:")).map(str::to_string);
    assert!(digest(&online).is_some(), "no digest line in {online:?}");
    assert_eq!(digest(&online), digest(&offline), "online:\n{online}\noffline:\n{offline}");

    let metrics = client::get(&addr, "/metrics").unwrap().body;
    for name in
        ["dd_serve_ingest_events_total", "dd_serve_ingest_batches_total", "dd_serve_stream_live"]
    {
        let value: f64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{metrics}"));
        assert!(value > 0.0, "{name} is {value}");
    }

    let status =
        Command::new("kill").args(["-INT", &guard.pid().to_string()]).status().expect("kill runs");
    assert!(status.success());
    let exit = guard.0.as_mut().unwrap().wait().expect("server exits");
    assert!(exit.success(), "dd serve should exit cleanly on SIGINT, got {exit:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained and stopped"), "missing drain summary: {rest:?}");
    guard.0.take();
}

/// Fleet mode end-to-end: `dd serve --shards 2` spawns two shard processes
/// plus the in-process router, routed scores stay bit-identical to offline
/// scoring, a router `/admin/reload` moves both shards to a second model,
/// a `kill -9` of a shard process mid-loop costs no request, and SIGINT
/// drains the fleet (router first, then the surviving shard).
#[test]
fn serve_e2e_fleet_mode_routes_and_drains() {
    let edges = tmp("graph_fleet.edges");
    let model_path = tmp("model_fleet.ddm");
    let next_path = tmp("model_fleet_next.ddm");

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

    // The supervisor prints one `shard i (pid P) listening on http://ADDR`
    // line per shard, in index order, then the router contract line — that
    // one carries the address clients use.
    let mut shard_pids: Vec<(String, String)> = Vec::new();
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read fleet stdout");
        assert!(n > 0, "fleet exited before printing its router line");
        if let Some(rest) = line.trim().strip_prefix(&format!("shard {} (pid ", shard_pids.len())) {
            let (pid, shard_addr) =
                rest.split_once(") listening on http://").expect("shard line names pid and addr");
            shard_pids.push((shard_addr.to_string(), pid.to_string()));
        }
        if let Some(rest) = line.trim().strip_prefix("dd-router listening on http://") {
            break rest.to_string();
        }
    };
    assert_eq!(shard_pids.len(), 2, "supervisor should report both shards before the router");

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

    // Router hot reload to a second model: both shards report its
    // fingerprint at generation 2, and routed scores follow the new model.
    let out = dd()
        .args([
            "train",
            &edges,
            "--out",
            &next_path,
            "--dim",
            "8",
            "--iterations",
            "8000",
            "--seed",
            "47",
        ])
        .output()
        .expect("dd train runs");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    let next = DirectionalityModel::load_from_path(&next_path).unwrap();
    let next_fp = format!("{:016x}", next.fingerprint());
    assert_ne!(next_fp, fp, "the second model must differ from the first");
    let reload = format!("{{\"path\":{}}}", serde_json::to_string(&next_path).unwrap());
    let resp = client::post(&addr, "/admin/reload", &reload).unwrap();
    assert_eq!(resp.status, 200, "fleet reload failed: {}", resp.body);
    let health: RouterHealth =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    assert_eq!((health.status.as_str(), health.healthy_shards), ("ok", 2), "{health:?}");
    for shard in &health.shards {
        assert!(shard.healthy, "{shard:?}");
        assert_eq!(shard.fingerprint.as_deref(), Some(next_fp.as_str()), "{shard:?}");
        assert_eq!(shard.generation, Some(2), "{shard:?}");
    }
    let &(src, dst) = next.ties().first().expect("a trained tie");
    let score_path = format!("/score?src={src}&dst={dst}");
    let resp = client::get(&addr, &score_path).unwrap();
    let parsed: ScoreResponse = serde_json::from_str(&resp.body).unwrap();
    let expected = next.score(NodeId(src), NodeId(dst)).unwrap();
    assert_eq!(parsed.score.unwrap().to_bits(), expected.to_bits());

    // `kill -9` the shard that owns the tie in the middle of a request loop:
    // the router fails over to the survivor, so no request sees a non-200,
    // and the router then reports the degraded fleet and the failover.
    let forwards = || -> Vec<u64> {
        let metrics = client::get(&addr, "/metrics").unwrap().body;
        let count = |shard_addr: &str| {
            let series = format!("dd_router_shard_forwards_total{{shard=\"{shard_addr}\"}} ");
            metrics.lines().find_map(|l| l.strip_prefix(&series)).map_or(0, |v| v.parse().unwrap())
        };
        shard_pids.iter().map(|(shard_addr, _)| count(shard_addr)).collect()
    };
    let before = forwards();
    for _ in 0..20 {
        assert_eq!(client::get(&addr, &score_path).unwrap().status, 200);
    }
    let after = forwards();
    let owner = (0..shard_pids.len()).max_by_key(|&i| after[i] - before[i]).unwrap();
    let victim_pid = &shard_pids[owner].1;
    let mut failures = Vec::new();
    for i in 0..120 {
        if i == 40 {
            let status = Command::new("kill").args(["-9", victim_pid]).status().expect("kill runs");
            assert!(status.success(), "SIGKILL shard pid {victim_pid}");
        }
        match client::get(&addr, &score_path) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => failures.push(format!("request {i}: {} {}", resp.status, resp.body)),
            Err(e) => failures.push(format!("request {i}: {e}")),
        }
    }
    assert!(failures.is_empty(), "requests failed during failover: {failures:?}");
    let health: RouterHealth =
        serde_json::from_str(&client::get(&addr, "/healthz").unwrap().body).unwrap();
    assert_eq!((health.status.as_str(), health.healthy_shards), ("degraded", 1), "{health:?}");
    let metrics = client::get(&addr, "/metrics").unwrap().body;
    let failovers: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("dd_router_failovers_total "))
        .expect("failover counter exported")
        .parse()
        .unwrap();
    assert!(failovers >= 1, "router never recorded a failover");

    // SIGINT the supervisor: router drains first, then the surviving
    // shard; the fleet summary reports it exiting cleanly.
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
    assert!(rest.contains("(1/2 shards drained cleanly)"), "survivor must drain cleanly: {rest:?}");
    guard.0.take();
}

/// A fleet whose model is missing fails fast: `dd serve --shards 2` exits
/// non-zero with an error naming a shard and the path, never starts the
/// router, and leaves no shard process of its own behind.
#[test]
fn serve_e2e_fleet_with_missing_model_fails_and_reaps_its_shards() {
    let missing = tmp(&format!("missing_{}.ddm", std::process::id()));
    let _ = std::fs::remove_file(&missing);
    let child = dd()
        .args(["serve", &missing, "--shards", "2", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dd serve --shards spawns");
    let mut guard = ChildGuard(Some(child));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = guard.0.as_mut().unwrap().try_wait().expect("poll fleet") {
            break status;
        }
        assert!(Instant::now() < deadline, "fleet with a missing model did not exit in 30 s");
        std::thread::sleep(Duration::from_millis(20));
    };
    let child = guard.0.as_mut().unwrap();
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child.stdout.take().unwrap().read_to_string(&mut stdout).unwrap();
    child.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(!status.success(), "a fleet without a model must fail: {stdout}");
    assert!(!stdout.contains("dd-router listening"), "router must not start: {stdout}");
    assert!(
        stderr.lines().any(|l| l.contains("shard ") && l.contains(&missing)),
        "error names a shard and the path: {stderr}"
    );
    // Every shard of this run carries the unique model path on its command
    // line; none may outlive the supervisor (checked where `/proc` exists).
    let survivors: Vec<String> = std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let cmdline = std::fs::read(path.join("cmdline")).ok()?;
            String::from_utf8_lossy(&cmdline).contains(&missing).then(|| path.display().to_string())
        })
        .collect();
    assert!(survivors.is_empty(), "shards outlived the supervisor: {survivors:?}");
}
