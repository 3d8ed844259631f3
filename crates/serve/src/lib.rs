//! `dd-serve` — a concurrent directionality query fleet.
//!
//! Serves tie-direction scores of a trained model over HTTP/1.1 from a
//! [`ScoreTable`](deepdirect::ScoreTable) — one score per trained tie and,
//! with `--stream`, one fold-in score per head, computed while the `.ddm`
//! streams in, so a shard never holds the embedding block —
//! built entirely on `std` networking (the build is offline/vendored — no
//! tokio, no hyper). The design is deliberately production-shaped:
//!
//! - **One HTTP front end** (`front.rs`, shared by [`server`] and
//!   [`router`]): a fixed number of worker threads drain a bounded
//!   `sync_channel` of accepted connections (overflow is answered with
//!   `503` instead of queueing without bound), each request runs in one
//!   frame — timeouts, parse, `traceparent`, panic isolation, metrics,
//!   request log — and shutdown drains the queue before joining the pool.
//!   A shard and the router differ only in their routes.
//! - **Hot model reload** ([`server`]): a shard keeps what it serves — the
//!   score table, its reload generation and, with `--stream`, the stream
//!   engine — behind one `RwLock`. A request reads all three under one read
//!   guard; `POST /admin/reload` streams the new artifact into a new table
//!   with no lock held and swaps it in under the write guard, so no request
//!   mixes two generations and the retired table is freed as soon as the
//!   swap is done. The
//!   fingerprint-keyed cache makes stale entries structurally impossible.
//! - **Sharded fleet** ([`router`]): the router places each tie on one of
//!   N full-replica shard processes by rendezvous hashing, so one shard's
//!   cache holds it, fails over on shard death, quarantines and re-probes
//!   unhealthy shards, and aggregates `/metrics` with per-shard labels.
//!   `dd serve --shards N` supervises a whole fleet.
//! - **Per-request timeouts** ([`http`]): slow or hostile clients hit
//!   read/write deadlines and size limits, never pinning a worker.
//! - **Sharded LRU score cache** ([`lru`]): entries are keyed by the
//!   model's content fingerprint, so scores from a swapped-out model
//!   simply stop matching; eviction only bounds memory, and reloads purge
//!   dead-generation entries so they never squat on capacity.
//! - **Streaming ingestion** (`--stream`): `POST /ingest` folds JSONL
//!   follow/unfollow/reciprocation events into the frozen embedding space
//!   through a [`StreamEngine`](dd_stream::StreamEngine) — new ties score
//!   within one request, no retraining, with exact per-key cache
//!   invalidation and bit-identical replay (DESIGN.md §7.15).
//! - **Observability**: per-endpoint request counters and latency
//!   histograms in a [`Registry`](dd_telemetry::Registry) exported at
//!   `GET /metrics`, plus structured JSONL request logs (with the answering
//!   model's fingerprint + reload generation on the shard trace root)
//!   through the dd-telemetry event sink. Each request-log root has `queue_wait` and
//!   `handler.{endpoint}` child spans on both hops, and a caught handler
//!   panic is a `500` under the `panic` endpoint label. `traceparent`
//!   propagates client → router → shard, so a routed request is one trace
//!   across processes.
//! - **Graceful shutdown** ([`signal`]): SIGINT/SIGTERM set a flag; the
//!   fleet drains router first, then shards, flushing logs.
//!
//! # Endpoints (shard and router)
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness + model identity (router: per-shard fan-out) |
//! | `GET /score?src=A&dst=B` | one directionality score (404 on unknown tie) |
//! | `POST /batch` | JSONL of `{"src":A,"dst":B}` → JSONL of scores |
//! | `POST /ingest` | JSONL tie events → incremental fold-in (`--stream`; router: all-shard fan-out) |
//! | `POST /admin/reload` | `{"path":"…"}` → swap in a new model artifact |
//! | `GET /metrics` | Prometheus text exposition |
//!
//! See README.md "Serving" / "Fleet serving" for the full wire contract.

#![warn(missing_docs)]

pub mod client;
mod front;
pub mod http;
pub mod lru;
pub mod router;
pub mod server;
pub mod signal;

pub use lru::ScoreCache;
pub use router::{Router, RouterConfig, RouterHandle, RouterHealth, ShardHealth};
pub use server::{
    HealthResponse, IngestResponse, ReloadRequest, ReloadResponse, ScoreResponse, ServeConfig,
    Server, ServerHandle, TiePair,
};
