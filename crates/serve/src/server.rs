//! The query server: a shard answering scores out of a hot-swappable
//! [`ScoreTable`] — each trained row's score and, with `--stream`, each
//! head's fold-in score, computed while the `.ddm` streams in. A shard never
//! holds a model's embedding block.
//!
//! The HTTP front end — bounded accept queue, worker pool, per-request
//! timeouts, traces, graceful shutdown — is the one the router uses too
//! (`front.rs`); this module supplies the routes. Each worker scores
//! through the sharded LRU cache and records into a [`Registry`] that
//! `/metrics` exports. What the shard serves — the score table, its reload
//! generation and the optional stream engine — sits behind one `RwLock`:
//! reads hold the read guard for the whole request, and `POST
//! /admin/reload` swaps a new artifact in under the write guard after
//! loading it with no lock held (DESIGN.md §7.14).
//!
//! With [`ServeConfig::stream`] on, the server also accepts `POST /ingest`:
//! JSONL tie events fold into the frozen embedding space through a
//! [`StreamEngine`] (DESIGN.md §7.15), and exactly the touched
//! `(fingerprint, src, dst)` cache entries are invalidated — new ties score
//! within one request of being ingested, without retraining.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use dd_graph::NodeId;
use dd_stream::{parse_events, StreamEngine};
use dd_telemetry::export::{prometheus_text, PromFamily};
use dd_telemetry::trace::derive_span_id;
use dd_telemetry::{Counter, Event, Gauge, MetricSnapshot, ObserverHandle, Registry};
use deepdirect::{ScoreTable, MODEL_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};

use crate::front::{
    self, batch_pairs, error_body, score_query, unrouted, FrontConfig, FrontHandle, HandlerSpan,
    Routed, Service, JSON, NDJSON, PROM_TEXT,
};
use crate::http;
use crate::lru::ScoreCache;

/// Server configuration. `Default` is suitable for local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Total LRU score-cache capacity; `0` disables caching.
    pub cache_size: usize,
    /// Per-request read/write timeout.
    pub request_timeout: Duration,
    /// Accepted connections that may wait for a free worker before new
    /// arrivals are rejected with `503`.
    pub queue_depth: usize,
    /// Structured request-log sink (JSONL events of kind `serve.request`).
    pub observer: ObserverHandle,
    /// Enables streaming tie ingestion: `POST /ingest` accepts JSONL tie
    /// events and folds them into the frozen embedding space (DESIGN.md
    /// §7.15). Off by default — with it off, `/ingest` answers `400`.
    pub stream: bool,
    /// Test-only fault injection: when `true`, `GET /__panic` panics inside
    /// the request handler. The chaos suite uses it to prove panic
    /// isolation (500 to the client, `serve.panics` incremented, worker
    /// survives). Leave `false` in production.
    pub panic_route: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            cache_size: 4096,
            request_timeout: Duration::from_secs(5),
            queue_depth: 64,
            observer: ObserverHandle::none(),
            stream: false,
            panic_route: false,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("serve: need at least one worker".into());
        }
        if self.queue_depth == 0 {
            return Err("serve: queue depth must be positive".into());
        }
        if self.request_timeout.is_zero() {
            return Err("serve: request timeout must be positive".into());
        }
        Ok(())
    }
}

/// What a shard serves: the score table, its reload generation and, with
/// [`ServeConfig::stream`] on, the engine bound to that table. One lock
/// guards all three, so a request reads the scores, the overlay and the
/// generation of one and the same reload.
struct Served {
    table: Arc<ScoreTable>,
    /// 1 for the model the process started with, +1 per successful reload.
    generation: u64,
    engine: Option<StreamEngine>,
}

impl Served {
    /// One uncached score: the engine answers when streaming (exact trained
    /// scores for untouched pairs, fold-in for dynamic ones, `None` for
    /// tombstones), the table otherwise.
    fn score(&self, src: u32, dst: u32) -> Option<f64> {
        match &self.engine {
            // The engine reads a head score; its scratch argument stays
            // unused, and an empty `Vec` does not allocate.
            Some(engine) => engine.score(NodeId(src), NodeId(dst), &mut Vec::new()),
            None => self.table.score(NodeId(src), NodeId(dst)),
        }
    }
}

/// Streaming-ingest instruments. Present only when [`ServeConfig::stream`]
/// is on.
struct StreamState {
    /// Events applied over the server's lifetime (`serve.ingest.events`).
    events_applied: Arc<Counter>,
    /// Ingest batches accepted (`serve.ingest.batches`).
    batches: Arc<Counter>,
    /// Cache entries invalidated by ingests (`serve.ingest.invalidations`).
    invalidations: Arc<Counter>,
    /// Live dynamic (untrained, followed) ties (`serve.stream.live`).
    live: Arc<Gauge>,
}

/// Everything a worker needs to answer requests.
struct AppState {
    /// Reads (`/score`, `/batch`, `/healthz`, `/metrics`) hold the read
    /// guard for the whole request; `/ingest` and `/admin/reload` take the
    /// write guard.
    served: RwLock<Served>,
    cache: Option<ScoreCache>,
    /// Streaming-ingest instruments; `None` unless [`ServeConfig::stream`].
    stream: Option<StreamState>,
    registry: Arc<Registry>,
    observer: ObserverHandle,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_occupancy: Arc<Gauge>,
    /// Dead-generation entries reclaimed on reload (`serve.cache.purged`).
    cache_purged: Arc<Counter>,
    pool_utilization: Arc<Gauge>,
    /// Current reload generation, exported so dashboards can correlate
    /// latency shifts with model swaps.
    model_generation: Arc<Gauge>,
    /// Successful `POST /admin/reload` swaps.
    model_reloads: Arc<Counter>,
    started: Instant,
    n_workers: usize,
    panic_route: bool,
}

/// Per-request cache accounting, collected by [`AppState::score_cached`] so
/// the request trace can tag cache hits/misses without reading the global
/// counters (which concurrent requests would tear).
#[derive(Debug, Default, Clone, Copy)]
struct RouteStats {
    cache_hits: u64,
    cache_misses: u64,
}

impl AppState {
    fn new(table: Arc<ScoreTable>, cfg: &ServeConfig) -> Self {
        let registry = Arc::new(Registry::new());
        registry.gauge("serve.pool.workers").set(cfg.workers as f64);
        let model_generation = registry.gauge("serve.model.generation");
        model_generation.set(1.0);
        let stream = cfg.stream.then(|| StreamState {
            events_applied: registry.counter("serve.ingest.events"),
            batches: registry.counter("serve.ingest.batches"),
            invalidations: registry.counter("serve.ingest.invalidations"),
            live: registry.gauge("serve.stream.live"),
        });
        let engine = cfg.stream.then(|| StreamEngine::over(Arc::clone(&table)));
        AppState {
            served: RwLock::new(Served { table, generation: 1, engine }),
            cache: ScoreCache::new(cfg.cache_size),
            stream,
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            cache_evictions: registry.counter("serve.cache.evictions"),
            cache_occupancy: registry.gauge("serve.cache.occupancy"),
            cache_purged: registry.counter("serve.cache.purged"),
            model_generation,
            model_reloads: registry.counter("serve.model.reloads"),
            observer: cfg.observer.clone(),
            pool_utilization: registry.gauge("serve.pool.utilization"),
            // dd-lint: allow(trace-hygiene) — uptime anchor for /healthz;
            // a process lifetime is not a span.
            started: Instant::now(),
            n_workers: cfg.workers,
            panic_route: cfg.panic_route,
            registry,
        }
    }

    // Poison recovery: the write sections swap an `Arc` and a counter or
    // fold events into the engine's plain data structures, and apply/rebind
    // never partially apply, so a poisoned lock means a panic elsewhere
    // unwound through a guard — what it guards is still coherent.
    fn read_served(&self) -> RwLockReadGuard<'_, Served> {
        self.served.read().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write_served(&self) -> RwLockWriteGuard<'_, Served> {
        self.served.write().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Refreshes `serve.pool.utilization`: the fraction of the worker
    /// pool's wall-clock capacity spent inside request handlers (sum of
    /// per-endpoint latency over `uptime × workers`).
    fn update_pool_utilization(&self) {
        let busy: f64 = self
            .registry
            .snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("serve.latency."))
            .map(|(_, snap)| match snap {
                MetricSnapshot::Histogram(h) => h.sum,
                _ => 0.0,
            })
            .sum();
        let capacity = self.started.elapsed().as_secs_f64() * self.n_workers as f64;
        if capacity > 0.0 {
            self.pool_utilization.set(busy / capacity);
        }
    }

    /// Scores `(src, dst)` through the LRU cache. `None` when the ordered
    /// tie is not live (never cached).
    ///
    /// Entries are keyed by the model's content fingerprint in addition to
    /// the tie, so a hot reload invalidates the whole cache by construction.
    ///
    /// `served` is borrowed from the read guard the caller holds for the
    /// whole request, so the compute *and* the insert both happen under it.
    /// `POST /ingest` applies a batch under the write guard and removes the
    /// touched keys after releasing it: a racing ingest either waits for
    /// this insert (its removal then kills the entry) or has already
    /// applied (this request computes the post-ingest score). An insert
    /// outside the guard would let a whole apply-and-invalidate cycle slip
    /// between compute and insert, caching the pre-ingest score for good.
    fn score_cached(
        &self,
        served: &Served,
        src: u32,
        dst: u32,
        stats: &mut RouteStats,
    ) -> Option<f64> {
        let Some(cache) = &self.cache else {
            return served.score(src, dst);
        };
        let key = (served.table.fingerprint(), src, dst);
        if let Some(v) = cache.get(key) {
            self.cache_hits.incr();
            stats.cache_hits += 1;
            return Some(v);
        }
        let v = served.score(src, dst)?;
        self.cache_misses.incr();
        stats.cache_misses += 1;
        if cache.insert(key, v) {
            self.cache_evictions.incr();
        }
        self.cache_occupancy.set(cache.len() as f64);
        Some(v)
    }
}

/// `GET /healthz` payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct HealthResponse {
    /// `"ok"` while the server is accepting requests.
    pub status: String,
    /// Ties in the served model's training universe.
    pub ties: usize,
    /// Model artifact schema version the server was built against.
    pub model_schema: u32,
    /// Content fingerprint of the served model (16 lowercase hex digits);
    /// identical to the fitted model's and to every reload of its `.ddm`.
    pub model_fingerprint: String,
    /// Reload generation: 1 for the model the process started with,
    /// incremented by every successful `POST /admin/reload`.
    pub generation: Option<u64>,
    /// Live dynamic ties folded in via streaming ingestion; absent when the
    /// server runs without [`ServeConfig::stream`].
    pub live_dynamic: Option<u64>,
}

/// A tie pair, as accepted by `/score` query params and `/batch` JSONL lines.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TiePair {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
}

/// One score result line, as returned by `/score` and `/batch`.
#[derive(Debug, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Directionality value `d(src, dst)`; absent when the tie is unknown.
    pub score: Option<f64>,
    /// Error description; absent on success.
    pub error: Option<String>,
    /// Content fingerprint (16 lowercase hex digits) of the model that
    /// produced this score. Under hot reload this is the ground truth for
    /// which generation answered — scores are bit-identical to offline
    /// scoring against the artifact with this fingerprint.
    pub fingerprint: Option<String>,
}

/// `POST /admin/reload` request body.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReloadRequest {
    /// Path to the new `.ddm` model artifact.
    pub path: String,
}

/// `POST /admin/reload` success payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// `"reloaded"` on success.
    pub status: String,
    /// Fingerprint of the model that was swapped out.
    pub old_fingerprint: String,
    /// Fingerprint of the model now being served.
    pub new_fingerprint: String,
    /// Reload generation after the swap.
    pub generation: u64,
    /// Ties in the new model's training universe.
    pub ties: usize,
    /// Dead-generation cache entries reclaimed by the swap; absent when the
    /// cache is disabled.
    pub cache_purged: Option<u64>,
}

/// `POST /ingest` success payload.
#[derive(Debug, Serialize, Deserialize)]
pub struct IngestResponse {
    /// `"applied"` on success (application is atomic: a malformed batch is
    /// rejected whole with a `400` and applies nothing).
    pub status: String,
    /// Events applied from this batch.
    pub applied: usize,
    /// Cache entries invalidated by this batch.
    pub invalidated: usize,
    /// Live dynamic ties after this batch.
    pub live_dynamic: usize,
    /// Events applied over the engine's lifetime (the event-log length).
    pub events_total: usize,
    /// Engine state digest after this batch (16 lowercase hex digits);
    /// replaying the same event log against the same model reproduces it
    /// bit for bit (DESIGN.md §7.15).
    pub digest: String,
    /// Content fingerprint of the model the events folded into.
    pub fingerprint: String,
}

fn route(state: &AppState, w: &mut ShardWorker, req: &http::Request) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/ingest") => ingest_endpoint(state, w, req),
        ("POST", "/admin/reload") => reload_endpoint(state, w, req),
        // Fault injection for the chaos suite (ServeConfig::panic_route);
        // with the flag off this falls through to the read routes' 404.
        ("GET", "/__panic") if state.panic_route => {
            panic!("injected handler panic via /__panic")
        }
        _ => {
            // One read guard per request: the scores, the overlay and the
            // response fingerprint all come from one generation.
            let served = state.read_served();
            w.answered = Some((served.table.fingerprint(), served.generation));
            // dd-lint: order(served < shard) — §7.15: a cache miss inserts
            // while the request's read guard is live; ingest's removals and
            // reload's purge run with no guard held
            // dd-lint: acquires(shard) — /score and /batch misses insert into
            // the key's LRU shard (ScoreCache::insert locks it internally)
            read_route(state, &served, w, req)
        }
    }
}

/// The routes that only read what the shard serves.
fn read_route(
    state: &AppState,
    served: &Served,
    w: &mut ShardWorker,
    req: &http::Request,
) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = HealthResponse {
                status: "ok".to_string(),
                ties: served.table.n_ties(),
                model_schema: MODEL_SCHEMA_VERSION,
                model_fingerprint: format!("{:016x}", served.table.fingerprint()),
                generation: Some(served.generation),
                live_dynamic: served.engine.as_ref().map(|e| e.live_dynamic() as u64),
            };
            ("healthz", 200, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
        }
        ("GET", "/score") => score_endpoint(state, served, w, req),
        ("POST", "/batch") => batch_endpoint(state, served, w, req),
        ("GET", "/metrics") => {
            if let Some(cache) = &state.cache {
                state.cache_occupancy.set(cache.len() as f64);
            }
            state.update_pool_utilization();
            state.model_generation.set(served.generation as f64);
            let mut body = render_metrics(&state.registry);
            // The 64-bit fingerprint cannot ride in an f64 gauge without
            // precision loss, so it rides as an info-style label instead
            // (value = generation, like Prometheus build_info).
            body.extend_from_slice(
                format!(
                    "# HELP dd_serve_model_info Identity of the currently served model.\n\
                     # TYPE dd_serve_model_info gauge\n\
                     dd_serve_model_info{{fingerprint=\"{:016x}\"}} {}\n",
                    served.table.fingerprint(),
                    served.generation,
                )
                .as_bytes(),
            );
            ("metrics", 200, PROM_TEXT, body)
        }
        _ => unrouted(req),
    }
}

fn score_endpoint(
    state: &AppState,
    served: &Served,
    w: &mut ShardWorker,
    req: &http::Request,
) -> Routed {
    let (src, dst) = match score_query(req) {
        Ok(pair) => pair,
        Err(routed) => return routed,
    };
    let fingerprint = Some(format!("{:016x}", served.table.fingerprint()));
    match state.score_cached(served, src, dst, &mut w.stats) {
        Some(score) => {
            let body = ScoreResponse { src, dst, score: Some(score), error: None, fingerprint };
            ("score", 200, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
        }
        None => {
            let body = ScoreResponse {
                src,
                dst,
                score: None,
                error: Some("unknown tie: pair was not in the training universe".to_string()),
                fingerprint,
            };
            ("score", 404, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
        }
    }
}

fn batch_endpoint(
    state: &AppState,
    served: &Served,
    w: &mut ShardWorker,
    req: &http::Request,
) -> Routed {
    let pairs = match batch_pairs(req) {
        Ok(pairs) => pairs,
        Err(routed) => return routed,
    };
    let fingerprint = format!("{:016x}", served.table.fingerprint());
    let mut out = String::new();
    for pair in pairs {
        let resp = match state.score_cached(served, pair.src, pair.dst, &mut w.stats) {
            Some(score) => ScoreResponse {
                src: pair.src,
                dst: pair.dst,
                score: Some(score),
                error: None,
                fingerprint: Some(fingerprint.clone()),
            },
            None => ScoreResponse {
                src: pair.src,
                dst: pair.dst,
                score: None,
                error: Some("unknown tie".to_string()),
                fingerprint: Some(fingerprint.clone()),
            },
        };
        out.push_str(&serde_json::to_string(&resp).unwrap_or_default());
        out.push('\n');
    }
    ("batch", 200, NDJSON, out.into_bytes())
}

/// `POST /ingest`: applies a JSONL tie-event batch to the streaming engine
/// and invalidates exactly the touched `(fingerprint, src, dst)` cache
/// entries, so the very next request scores against the new state.
/// Application is atomic — any malformed line rejects the whole batch with
/// a `400` before the engine sees a single event (DESIGN.md §7.15).
fn ingest_endpoint(state: &AppState, w: &mut ShardWorker, req: &http::Request) -> Routed {
    const DISABLED: &str = "streaming ingestion is disabled; start `dd serve` with --stream";
    let Some(stream) = &state.stream else {
        return ("ingest", 400, JSON, error_body(DISABLED));
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return ("ingest", 400, JSON, error_body("body must be UTF-8 JSONL"));
    };
    let events = match parse_events(text) {
        Ok(ev) => ev,
        Err(e) => return ("ingest", 400, JSON, error_body(&format!("rejected batch: {e}"))),
    };
    if events.is_empty() {
        return ("ingest", 400, JSON, error_body("empty batch: send one JSON event per line"));
    }
    // One write-lock hold per batch; reads queue behind it only for the
    // duration of the overlay fold (no I/O, no allocation spikes).
    let (applied, seconds) = state.observer.time("ingest.apply", || {
        let mut served = state.write_served();
        let generation = served.generation;
        let engine = served.engine.as_mut()?;
        let report = engine.apply_all(&events);
        let fingerprint = engine.fingerprint();
        let live = engine.live_dynamic();
        Some((
            fingerprint,
            generation,
            report,
            live,
            engine.events_applied(),
            engine.state_digest(),
        ))
    });
    let Some((fingerprint, generation, report, live, events_total, digest)) = applied else {
        return ("ingest", 400, JSON, error_body(DISABLED));
    };
    w.answered = Some((fingerprint, generation));
    let mut invalidated = 0usize;
    if let Some(cache) = &state.cache {
        for &(u, v) in &report.touched {
            if cache.remove((fingerprint, u, v)) {
                invalidated += 1;
            }
        }
        state.cache_occupancy.set(cache.len() as f64);
    }
    stream.events_applied.add(report.applied as u64);
    stream.batches.incr();
    stream.invalidations.add(invalidated as u64);
    stream.live.set(live as f64);
    state.observer.on_event(&Event::ingest_apply(report.applied, invalidated, seconds));
    let body = IngestResponse {
        status: "applied".to_string(),
        applied: report.applied,
        invalidated,
        live_dynamic: live,
        events_total,
        digest: format!("{digest:016x}"),
        fingerprint: format!("{fingerprint:016x}"),
    };
    ("ingest", 200, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
}

/// `POST /admin/reload`: streams the artifact named in the body into a new
/// score table with no lock held — other workers keep serving throughout —
/// then, under the write guard, rebinds the streaming engine and swaps the
/// table and generation together. No request can pair one generation's
/// scores with another's overlay. The retired table is dropped and
/// dead-generation cache entries purged after the guard is released.
fn reload_endpoint(state: &AppState, w: &mut ShardWorker, req: &http::Request) -> Routed {
    let parsed: Result<ReloadRequest, _> = match std::str::from_utf8(&req.body) {
        Ok(text) => serde_json::from_str(text),
        Err(_) => return ("admin", 400, JSON, error_body("body must be UTF-8 JSON")),
    };
    let reload = match parsed {
        Ok(r) => r,
        Err(e) => {
            return ("admin", 400, JSON, error_body(&format!("expected {{\"path\":\"…\"}}: {e}")))
        }
    };
    let new = match ScoreTable::load_from_path(&reload.path, state.stream.is_some()) {
        Ok(t) => t,
        Err(e) => return ("admin", 400, JSON, error_body(&format!("reload failed: {e}"))),
    };
    if new.n_ties() == 0 {
        return ("admin", 400, JSON, error_body("reload rejected: model has no ties"));
    }
    let new_fingerprint = new.fingerprint();
    let ties = new.n_ties();
    let new = Arc::new(new);
    let (old, generation, live) = {
        let mut served = state.write_served();
        // The retained event log, not the old overlay, re-normalizes against
        // the new model's trained tie set, as if replayed from scratch.
        let live = served.engine.as_mut().map(|engine| {
            engine.rebind_table(Arc::clone(&new));
            engine.live_dynamic()
        });
        served.generation += 1;
        (std::mem::replace(&mut served.table, new), served.generation, live)
    };
    let old_fingerprint = old.fingerprint();
    // Readers only borrow the table under the read guard, so this was the
    // last reference: the retired table is freed here, outside the lock.
    drop(old);
    w.answered = Some((new_fingerprint, generation));
    if let (Some(stream), Some(live)) = (&state.stream, live) {
        stream.live.set(live as f64);
    }
    // Entries keyed by dead generations can never be served again (the
    // fingerprint key changed), but until purged they squat on LRU capacity
    // and force phantom evictions of live entries. No reader of an older
    // generation is left to insert one after this.
    let cache_purged = state.cache.as_ref().map(|cache| {
        let purged = cache.purge_other_generations(new_fingerprint) as u64;
        state.cache_purged.add(purged);
        state.cache_occupancy.set(cache.len() as f64);
        purged
    });
    state.model_generation.set(generation as f64);
    state.model_reloads.incr();
    state.observer.on_event(&Event::metric("serve.model.reload", generation as f64, None));
    let body = ReloadResponse {
        status: "reloaded".to_string(),
        old_fingerprint: format!("{old_fingerprint:016x}"),
        new_fingerprint: format!("{new_fingerprint:016x}"),
        generation,
        ties,
        cache_purged,
    };
    ("admin", 200, JSON, serde_json::to_string(&body).unwrap_or_default().into_bytes())
}

/// Renders the registry in Prometheus text exposition format (0.0.4).
/// Per-endpoint counters and latency histograms are grouped into labeled
/// families (`dd_serve_requests_total{endpoint="…"}`,
/// `dd_serve_latency_seconds_bucket{endpoint="…",le="…"}`); everything else
/// renders standalone under its sanitized `dd_`-prefixed name.
fn render_metrics(registry: &Registry) -> Vec<u8> {
    let families = [
        PromFamily {
            prefix: "serve.requests.",
            family: "dd_serve_requests",
            label: "endpoint",
            help: "Requests handled, by endpoint.",
        },
        PromFamily {
            prefix: "serve.latency.",
            family: "dd_serve_latency_seconds",
            label: "endpoint",
            help: "Request wall latency in seconds, by endpoint.",
        },
    ];
    prometheus_text(&registry.snapshot(), &families).into_bytes()
}

/// A shard worker's own state, reused across its requests. It holds no
/// table: a request borrows the served one under the read guard, so an idle
/// worker keeps nothing alive across a reload.
struct ShardWorker {
    /// `(fingerprint, generation)` of the model that answered this request,
    /// for the trace root; `None` when no model was consulted.
    answered: Option<(u64, u64)>,
    stats: RouteStats,
}

impl Service for AppState {
    type Worker = ShardWorker;

    fn worker(&self) -> ShardWorker {
        ShardWorker { answered: None, stats: RouteStats::default() }
    }

    fn begin(&self, w: &mut ShardWorker) {
        w.answered = None;
        w.stats = RouteStats::default();
    }

    fn route(&self, w: &mut ShardWorker, req: &http::Request, _traceparent: &str) -> Routed {
        route(self, w, req)
    }

    /// Tags the handler span with the request's cache hits/misses, and puts
    /// the answering model's identity on the trace root so a dashboard can
    /// slice request latency by reload generation.
    fn trace(&self, w: &ShardWorker, handler: &HandlerSpan<'_>, root: &mut Event) {
        for (name, count) in
            [("serve.cache.hit", w.stats.cache_hits), ("serve.cache.miss", w.stats.cache_misses)]
        {
            if count == 0 {
                continue;
            }
            let mut tag = Event::span(name, Some(handler.name), 0.0).with_trace(
                handler.trace_id,
                derive_span_id(handler.trace_id, handler.span_id, name, 0),
                Some(handler.span_id),
            );
            tag.value = Some(count as f64);
            tag.start_seconds = Some(handler.start_seconds);
            self.observer.on_event(&tag);
        }
        if let Some((fingerprint, generation)) = w.answered {
            root.model_fingerprint = Some(format!("{fingerprint:016x}"));
            root.fields = Some(vec![("model.generation".to_string(), generation as f64)]);
        }
    }
}

/// The server factory. See [`Server::start`].
pub struct Server;

impl Server {
    /// Binds `cfg.addr`, spawns the acceptor and worker pool, and returns a
    /// handle. The table is shared read-only across workers; scores are
    /// bit-identical to calling
    /// [`DirectionalityModel::score`](deepdirect::DirectionalityModel::score)
    /// on the model it was loaded from. With [`ServeConfig::stream`] on, the
    /// table must hold head scores ([`ScoreTable::load`] with `fold_in`, or
    /// [`ScoreTable::of`]).
    pub fn start(table: Arc<ScoreTable>, cfg: ServeConfig) -> Result<ServerHandle, String> {
        cfg.validate()?;
        if cfg.stream && !table.has_head_scores() {
            return Err("serve: --stream needs a score table loaded with head scores".into());
        }
        let state = Arc::new(AppState::new(table, &cfg));
        let front_cfg = FrontConfig {
            prefix: "serve",
            log_prefix: "",
            queue_full: "accept queue full, retry later",
            addr: cfg.addr,
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            request_timeout: cfg.request_timeout,
            observer: cfg.observer,
        };
        let front = front::start(front_cfg, Arc::clone(&state.registry), state)?;
        Ok(ServerHandle { front })
    }
}

/// A running server. Dropping the handle shuts the server down gracefully;
/// call [`ServerHandle::shutdown`] to do it explicitly and get the request
/// count back.
pub struct ServerHandle {
    front: FrontHandle,
}

impl ServerHandle {
    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The server's metric registry (same data `/metrics` renders).
    pub fn registry(&self) -> Arc<Registry> {
        self.front.registry()
    }

    /// Total requests handled so far, across all endpoints.
    pub fn requests_total(&self) -> u64 {
        self.front.requests_total()
    }

    /// Graceful shutdown: stop accepting, drain every queued and in-flight
    /// request, join the pool, flush the request log. Returns the total
    /// number of requests served.
    pub fn shutdown(mut self) -> u64 {
        self.front.shutdown()
    }
}
