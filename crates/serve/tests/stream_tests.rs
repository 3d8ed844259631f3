//! Streaming-ingest integration tests: `POST /ingest` over real sockets.
//!
//! The contracts under test, per DESIGN.md §7.15:
//!
//! - an ingested tie is scoreable on the very next request, without
//!   retraining, and matches its head's fold-in score bit for bit;
//! - an unfollow invalidates exactly the touched cache entries (the next
//!   request is a 404, not a stale cached score);
//! - `POST /admin/reload` rebinds the engine to the new model (the event
//!   log survives) and purges dead-generation cache entries;
//! - the same event log, applied in batches of 1, 7, or all-at-once,
//!   against servers with 1 or 8 workers, serves byte-identical responses
//!   for every probe — replay determinism end to end.

use std::sync::Arc;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_linalg::kernels::dot8_f64;
use dd_linalg::sigmoid64;
use dd_serve::client;
use dd_serve::{HealthResponse, IngestResponse, ReloadResponse, ServeConfig, Server, ServerHandle};
use dd_stream::{to_jsonl, EventOp, StreamEngine, TieEvent};
use deepdirect::{
    DeepDirect, DeepDirectConfig, DirectionalityHead, DirectionalityModel, ScoreTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_model(seed: u64) -> DirectionalityModel {
    fit_sibling(seed, seed)
}

/// A model over `fit_model(seed)`'s network (so the same tie set) trained
/// with `train_seed`: a reload target with the same ties but other scores.
fn fit_sibling(seed: u64, train_seed: u64) -> DirectionalityModel {
    let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg = DeepDirectConfig {
        dim: 8,
        max_iterations: Some(5_000),
        seed: train_seed,
        ..DeepDirectConfig::default()
    };
    DeepDirect::new(cfg).fit(&hidden)
}

fn start_streaming(
    model: &Arc<DirectionalityModel>,
    mutate: impl FnOnce(&mut ServeConfig),
) -> ServerHandle {
    let mut cfg =
        ServeConfig { addr: "127.0.0.1:0".to_string(), stream: true, ..ServeConfig::default() };
    mutate(&mut cfg);
    Server::start(Arc::new(ScoreTable::of(model)), cfg).expect("server starts")
}

/// Head `v`'s fold-in score by its definition: the sigmoid of the mean
/// embedding-half logit of its in-rows plus the bias, the logits summed in
/// f64 in `(src, row)` order.
fn head_mean(model: &DirectionalityModel, v: u32) -> f64 {
    let DirectionalityHead::Logistic(lr) = model.head();
    let mut rows: Vec<usize> = (0..model.n_ties()).filter(|&r| model.ties()[r].1 == v).collect();
    rows.sort_by_key(|&row| (model.ties()[row], row));
    let logit = |row: usize| dot8_f64(&lr.w[..model.dim()], model.embedding_row(row));
    let sum = rows.iter().fold(0.0, |sum, &row| sum + logit(row));
    sigmoid64(sum / rows.len() as f64 + f64::from(lr.b))
}

/// An ordered pair absent from the trained universe in both orders, whose
/// head node has trained in-ties (so the fold-in mean is well-defined).
fn unseen_pair(model: &DirectionalityModel) -> (u32, u32) {
    let nodes: Vec<u32> = {
        let mut seen: Vec<u32> = model.ties().iter().flat_map(|&(u, v)| [u, v]).collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    for &u in &nodes {
        for &v in &nodes {
            if u != v
                && model.tie_row(NodeId(u), NodeId(v)).is_none()
                && model.tie_row(NodeId(v), NodeId(u)).is_none()
                && model.ties().iter().any(|&(_, d)| d == v)
            {
                return (u, v);
            }
        }
    }
    panic!("no unseen pair with an in-tied head in the trained universe");
}

fn ingest(addr: &str, events: &[TieEvent]) -> IngestResponse {
    let resp = client::post(addr, "/ingest", &to_jsonl(events)).expect("ingest request");
    assert_eq!(resp.status, 200, "ingest failed: {}", resp.body);
    serde_json::from_str(&resp.body).expect("valid ingest JSON")
}

#[test]
fn ingested_tie_scores_via_foldin_on_the_very_next_request() {
    let model = Arc::new(fit_model(21));
    let (u, v) = unseen_pair(&model);
    let handle = start_streaming(&model, |_| {});
    let addr = handle.addr().to_string();

    let path = format!("/score?src={u}&dst={v}");
    let before = client::get(&addr, &path).expect("score");
    assert_eq!(before.status, 404, "unseen pair must 404 before ingest: {}", before.body);

    let applied = ingest(&addr, &[TieEvent::new(EventOp::Follow, u, v)]);
    assert_eq!(applied.status, "applied");
    assert_eq!(applied.applied, 1);
    assert_eq!(applied.live_dynamic, 1);
    assert_eq!(applied.fingerprint, format!("{:016x}", model.fingerprint()));

    // The very next request serves the fold-in score of the head, bit for
    // bit, over the same frozen model.
    let after = client::get(&addr, &path).expect("score");
    assert_eq!(after.status, 200, "ingested tie must score: {}", after.body);
    let parsed: dd_serve::ScoreResponse = serde_json::from_str(&after.body).expect("score JSON");
    let want = head_mean(&model, v);
    assert_eq!(parsed.score.expect("live tie").to_bits(), want.to_bits());

    // /healthz reports the live dynamic tie.
    let health = client::get(&addr, "/healthz").expect("healthz");
    let h: HealthResponse = serde_json::from_str(&health.body).expect("health JSON");
    assert_eq!(h.live_dynamic, Some(1));
}

#[test]
fn unfollow_invalidates_the_cached_entry_and_refollow_restores_the_exact_score() {
    let model = Arc::new(fit_model(22));
    let &(u, v) = model.ties().first().expect("a trained tie");
    let exact = model.score(NodeId(u), NodeId(v)).expect("trained pair scores");
    let handle = start_streaming(&model, |_| {});
    let addr = handle.addr().to_string();
    let path = format!("/score?src={u}&dst={v}");

    // Score twice so the entry is warm in the cache.
    for _ in 0..2 {
        let resp = client::get(&addr, &path).expect("score");
        assert_eq!(resp.status, 200);
    }

    // The unfollow must invalidate that cached entry — a stale hit would
    // keep serving the trained score.
    let applied = ingest(&addr, &[TieEvent::new(EventOp::Unfollow, u, v)]);
    assert_eq!(applied.invalidated, 1, "exactly the touched entry is invalidated");
    let gone = client::get(&addr, &path).expect("score");
    assert_eq!(gone.status, 404, "tombstoned tie must 404: {}", gone.body);

    let _ = ingest(&addr, &[TieEvent::new(EventOp::Follow, u, v)]);
    let back = client::get(&addr, &path).expect("score");
    assert_eq!(back.status, 200);
    let parsed: dd_serve::ScoreResponse = serde_json::from_str(&back.body).expect("score JSON");
    assert_eq!(
        parsed.score.expect("restored tie").to_bits(),
        exact.to_bits(),
        "re-follow restores the exact trained score"
    );
}

/// Regression for a lost-invalidation race: the scorer used to compute a
/// score under the engine read lock, drop the lock, and only then insert
/// into the LRU — so an entire `/ingest` batch (apply under the write lock,
/// then invalidate the touched keys) could slip between the compute and the
/// insert, after which the pre-ingest score was cached and served forever.
/// The fix inserts while still holding the read lock; this test hammers the
/// window from a concurrent scorer and asserts the tombstone always holds
/// once the ingest response has returned.
///
/// The reload phase then pins the served bytes across 20 reloads that
/// alternate between the boot model and a sibling with the same tie set:
/// a tombstoned trained tie is a 404 and a folded-in tie a 200 with the
/// offline replay's score for whichever model answered — a request never
/// pairs one generation's model with another's overlay.
#[test]
fn concurrent_scores_never_resurrect_a_tombstoned_tie() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    let model = Arc::new(fit_model(28));
    let &(u, v) = model.ties().first().expect("a trained tie");
    let handle = start_streaming(&model, |cfg| cfg.workers = 4);
    let addr = handle.addr().to_string();
    let path = format!("/score?src={u}&dst={v}");
    let mut log = Vec::new();

    let stop = Arc::new(AtomicBool::new(false));
    dd_runtime::scope(|s| {
        {
            let (addr, path, stop) = (addr.clone(), path.clone(), Arc::clone(&stop));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = client::get(&addr, &path);
                }
            });
        }
        for round in 0..30 {
            log.push(TieEvent::new(EventOp::Unfollow, u, v));
            let _ = ingest(&addr, &log[log.len() - 1..]);
            // By the time the ingest response returns, its invalidation is
            // complete — no interleaving with the concurrent scorer may
            // leave (or later insert) a pre-ingest score in the cache.
            for probe in 0..5 {
                let resp = client::get(&addr, &path).expect("score");
                assert_eq!(
                    resp.status, 404,
                    "round {round}, probe {probe}: tombstoned tie served a stale score: {}",
                    resp.body
                );
            }
            log.push(TieEvent::new(EventOp::Follow, u, v));
            let _ = ingest(&addr, &log[log.len() - 1..]);
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Reload phase: tombstone (u, v), fold in an unseen pair, then reload
    // 20 times while two threads score both pairs.
    let sibling = Arc::new(fit_sibling(28, 29));
    assert_ne!(sibling.fingerprint(), model.fingerprint());
    let (du, dv) = unseen_pair(&model);
    log.push(TieEvent::new(EventOp::Unfollow, u, v));
    log.push(TieEvent::new(EventOp::Follow, du, dv));
    let _ = ingest(&addr, &log[log.len() - 2..]);
    let mut scratch = Vec::new();
    let offline: HashMap<String, u64> = [&model, &sibling]
        .into_iter()
        .map(|m| {
            let replay = StreamEngine::replay(Arc::clone(m), &log);
            let score = replay.score(NodeId(du), NodeId(dv), &mut scratch).expect("folded in");
            (format!("{:016x}", m.fingerprint()), score.to_bits())
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("dd_stream_race_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut bodies = Vec::new();
    for (name, m) in [("sibling.ddm", &sibling), ("boot.ddm", &model)] {
        let artifact = dir.join(name);
        m.save_binary_to_path(&artifact).unwrap();
        bodies.push(format!(
            "{{\"path\":{}}}",
            serde_json::to_string(&artifact.display().to_string()).unwrap()
        ));
    }
    let stop = AtomicBool::new(false);
    dd_runtime::scope(|s| {
        for _ in 0..2 {
            let (addr, path, stop, offline) = (&addr, &path, &stop, &offline);
            s.spawn(move || {
                let dynamic = format!("/score?src={du}&dst={dv}");
                while !stop.load(Ordering::Relaxed) {
                    let dead = client::get(addr, path).expect("score");
                    assert_eq!(dead.status, 404, "tombstone served during reload: {}", dead.body);
                    let live = client::get(addr, &dynamic).expect("score");
                    assert_eq!(live.status, 200, "dynamic tie lost during reload: {}", live.body);
                    let parsed: dd_serve::ScoreResponse =
                        serde_json::from_str(&live.body).expect("score JSON");
                    let fp = parsed.fingerprint.expect("score carries fingerprint");
                    assert_eq!(
                        parsed.score.expect("live tie").to_bits(),
                        offline[&fp],
                        "dynamic tie not the offline replay's score under {fp}"
                    );
                }
            });
        }
        for i in 0..20 {
            let resp = client::post(&addr, "/admin/reload", &bodies[i % 2]).expect("reload");
            assert_eq!(resp.status, 200, "reload {i} failed: {}", resp.body);
        }
        stop.store(true, Ordering::Relaxed);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_rebinds_the_engine_and_purges_dead_generation_cache_entries() {
    let model = Arc::new(fit_model(23));
    let other = fit_model(24);
    assert_ne!(model.fingerprint(), other.fingerprint());
    let dir = std::env::temp_dir().join(format!("dd_stream_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("next.ddm");
    other.save_binary_to_path(&artifact).unwrap();

    let handle = start_streaming(&model, |_| {});
    let addr = handle.addr().to_string();

    // Warm the cache on generation 1 and fold in one dynamic tie.
    let warmed: Vec<(u32, u32)> = model.ties().iter().copied().take(8).collect();
    for &(u, v) in &warmed {
        let resp = client::get(&addr, &format!("/score?src={u}&dst={v}")).expect("score");
        assert_eq!(resp.status, 200);
    }
    let (du, dv) = unseen_pair(&model);
    let _ = ingest(&addr, &[TieEvent::new(EventOp::Follow, du, dv)]);
    // Tombstone a trained tie outside the warmed set (so the purge count
    // below stays exact): the tombstone must survive the reload.
    let &(tu, tv) = model.ties().get(10).expect("an 11th trained tie");
    let _ = ingest(&addr, &[TieEvent::new(EventOp::Unfollow, tu, tv)]);

    let body =
        format!("{{\"path\":{}}}", serde_json::to_string(&artifact.display().to_string()).unwrap());
    let resp = client::post(&addr, "/admin/reload", &body).expect("reload");
    assert_eq!(resp.status, 200, "reload failed: {}", resp.body);
    let reloaded: ReloadResponse = serde_json::from_str(&resp.body).expect("reload JSON");
    // Every generation-1 entry is dead after the swap; the reload reclaims
    // them instead of letting them squat on LRU capacity.
    assert_eq!(reloaded.cache_purged, Some(warmed.len() as u64), "dead entries purged");

    // The engine rebound: the event log survived the swap, re-normalized
    // against the new model, so the fleet keeps one consistent view.
    let health = client::get(&addr, "/healthz").expect("healthz");
    let h: HealthResponse = serde_json::from_str(&health.body).expect("health JSON");
    assert_eq!(h.model_fingerprint, format!("{:016x}", other.fingerprint()));
    let live = h.live_dynamic.expect("streaming server reports live_dynamic");
    // (du, dv) may or may not be trained under the new model; either way the
    // pair must still be live — served from the retained log.
    let score = client::get(&addr, &format!("/score?src={du}&dst={dv}")).expect("score");
    assert_eq!(score.status, 200, "refolded tie must stay live: {}", score.body);
    assert!(live <= 1, "at most the one refolded dynamic tie: {live}");
    // The pre-reload tombstone holds on the very next request: whether
    // (tu, tv) is trained under the new model (tombstone re-applied from
    // the log) or untrained (no trained row), it must 404 — never serve an
    // overlay-blind trained score cached during the swap window.
    let dead = client::get(&addr, &format!("/score?src={tu}&dst={tv}")).expect("score");
    assert_eq!(dead.status, 404, "tombstone must survive the reload: {}", dead.body);

    std::fs::remove_dir_all(&dir).ok();
}

/// A churny synthetic log over trained and untrained pairs: follows,
/// tombstones, refollows, reciprocations.
fn synthetic_log(model: &DirectionalityModel) -> Vec<TieEvent> {
    let trained: Vec<(u32, u32)> = model.ties().iter().copied().take(6).collect();
    let (u, v) = unseen_pair(model);
    let mut events = vec![TieEvent::new(EventOp::Follow, u, v)];
    for &(a, b) in trained.iter().take(3) {
        events.push(TieEvent::new(EventOp::Unfollow, a, b));
    }
    events.push(TieEvent::new(EventOp::Reciprocate, u, v));
    for &(a, b) in trained.iter().skip(3) {
        events.push(TieEvent::new(EventOp::Unfollow, a, b));
        events.push(TieEvent::new(EventOp::Follow, a, b));
    }
    events.push(TieEvent::new(EventOp::Unfollow, u, v));
    events.push(TieEvent::new(EventOp::Follow, u, v));
    events
}

/// Satellite: replay determinism end to end. The same event log applied in
/// batches of 1, 7, and all-at-once, against servers running 1 and 8
/// workers, must serve byte-identical `/score` responses for every probe
/// and report the same engine digest.
#[test]
fn replay_serves_bit_identical_scores_across_batch_sizes_and_worker_counts() {
    let model = Arc::new(fit_model(25));
    let log = synthetic_log(&model);
    let mut probes: Vec<(u32, u32)> = model.ties().iter().copied().take(10).collect();
    let (u, v) = unseen_pair(&model);
    probes.push((u, v));
    probes.push((v, u));

    let mut runs: Vec<(String, Vec<String>)> = Vec::new();
    for workers in [1usize, 8] {
        for batch in [1usize, 7, log.len()] {
            let handle = start_streaming(&model, |cfg| cfg.workers = workers);
            let addr = handle.addr().to_string();
            let mut digest = String::new();
            for chunk in log.chunks(batch) {
                digest = ingest(&addr, chunk).digest;
            }
            let responses: Vec<String> = probes
                .iter()
                .map(|&(s, d)| {
                    let resp =
                        client::get(&addr, &format!("/score?src={s}&dst={d}")).expect("score");
                    format!("{} {}", resp.status, resp.body)
                })
                .collect();
            runs.push((digest, responses));
            handle.shutdown();
        }
    }
    let (first_digest, first_responses) = &runs[0];
    for (i, (digest, responses)) in runs.iter().enumerate().skip(1) {
        assert_eq!(digest, first_digest, "run {i}: engine digest diverged");
        assert_eq!(responses, first_responses, "run {i}: served bytes diverged");
    }
}

#[test]
fn ingest_is_atomic_and_rejects_malformed_batches_whole() {
    let model = Arc::new(fit_model(26));
    let (u, v) = unseen_pair(&model);
    let handle = start_streaming(&model, |_| {});
    let addr = handle.addr().to_string();

    // Torn batch: a valid line followed by a truncated one. Nothing applies.
    let torn = format!("{{\"op\":\"follow\",\"src\":{u},\"dst\":{v}}}\n{{\"op\":\"foll");
    let resp = client::post(&addr, "/ingest", &torn).expect("ingest");
    assert_eq!(resp.status, 400, "torn batch must be rejected: {}", resp.body);
    assert!(resp.body.contains("line 2"), "error names the torn line: {}", resp.body);
    let score = client::get(&addr, &format!("/score?src={u}&dst={v}")).expect("score");
    assert_eq!(score.status, 404, "rejected batch must not half-apply");

    // Empty and self-tie batches are 400s too.
    let resp = client::post(&addr, "/ingest", "\n\n").expect("ingest");
    assert_eq!(resp.status, 400);
    let resp =
        client::post(&addr, "/ingest", "{\"op\":\"follow\",\"src\":3,\"dst\":3}").expect("ingest");
    assert_eq!(resp.status, 400, "{}", resp.body);
}

#[test]
fn ingest_is_disabled_without_the_stream_flag() {
    let model = Arc::new(fit_model(27));
    let handle = Server::start(
        Arc::new(ScoreTable::of(&model)),
        ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() },
    )
    .expect("server starts");
    let addr = handle.addr().to_string();
    let resp =
        client::post(&addr, "/ingest", "{\"op\":\"follow\",\"src\":1,\"dst\":2}").expect("ingest");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("--stream"), "error explains the flag: {}", resp.body);
    // And /healthz omits live_dynamic entirely.
    let health = client::get(&addr, "/healthz").expect("healthz");
    let h: HealthResponse = serde_json::from_str(&health.body).expect("health JSON");
    assert_eq!(h.live_dynamic, None);
}
