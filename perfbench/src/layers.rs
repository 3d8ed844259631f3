//! Per-layer costs of the serving path, timed by calling each layer's
//! public functions on the run's own inputs: its model, its request keys
//! and bytes, its response bodies and its ingest batches.

use std::hint::black_box;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use dd_graph::NodeId;
use dd_serve::{http, ScoreCache, ScoreResponse};
use dd_stream::{StreamEngine, TieEvent};
use deepdirect::{DirectionalityModel, FoldInIndex};

use crate::stats::median;

/// Repetitions per timing; the median is reported.
const REPS: usize = 5;
/// Per-shard score-cache capacity of `dd serve` (its `--cache-size`
/// default).
const CACHE_CAPACITY: usize = 4096;

/// Median over [`REPS`] of `f`'s wall time divided by `ops`, in seconds.
fn per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() / ops.max(1) as f64
        })
        .collect();
    median(&times)
}

/// Lookup, kernel and cache costs on a key sequence.
pub struct Scoring {
    pub lookup_ns: f64,
    pub kernel_ns: f64,
    pub cache_get_ns: f64,
    pub cache_insert_ns: f64,
}

pub fn scoring(model: &DirectionalityModel, keys: &[(u32, u32)]) -> Scoring {
    let rows: Vec<usize> =
        keys.iter().filter_map(|&(u, v)| model.tie_row(NodeId(u), NodeId(v))).collect();
    let lookup_ns = per_op(keys.len(), || {
        for &(u, v) in keys {
            black_box(model.tie_row(NodeId(u), NodeId(v)));
        }
    }) * 1e9;
    let kernel_ns = per_op(rows.len(), || {
        for &r in &rows {
            black_box(model.score_row(r));
        }
    }) * 1e9;
    let fp = model.fingerprint();
    let cache = ScoreCache::new(CACHE_CAPACITY).expect("positive capacity");
    let cache_insert_ns = per_op(keys.len(), || {
        for &(u, v) in keys {
            black_box(cache.insert((fp, u, v), 0.5));
        }
    }) * 1e9;
    let cache_get_ns = per_op(keys.len(), || {
        for &(u, v) in keys {
            black_box(cache.get((fp, u, v)));
        }
    }) * 1e9;
    Scoring { lookup_ns, kernel_ns, cache_get_ns, cache_insert_ns }
}

/// HTTP parse, response write and JSON serialization, per request.
pub struct Wire {
    pub parse_us: f64,
    pub write_us: f64,
    pub serialize_us: f64,
}

/// `requests` are the bytes the generator sent; `bodies` the bodies the
/// fleet returned for them.
pub fn wire(model: &DirectionalityModel, requests: &[Vec<u8>], bodies: &[String]) -> Wire {
    let parse_us = per_op(requests.len(), || {
        for raw in requests {
            let parsed = http::read_request(&mut BufReader::new(raw.as_slice()));
            black_box(parsed.expect("recorded requests parse"));
        }
    }) * 1e6;
    let mut out = Vec::with_capacity(64 * 1024);
    let write_us = per_op(bodies.len(), || {
        for body in bodies {
            out.clear();
            http::write_response(&mut out, 200, "application/json", body.as_bytes())
                .expect("writing into a buffer");
            black_box(&out);
        }
    }) * 1e6;
    // Re-serialize what each read returned: one line per scored pair.
    let parsed: Vec<Vec<ScoreResponse>> = bodies
        .iter()
        .map(|b| b.lines().filter_map(|l| serde_json::from_str(l).ok()).collect())
        .collect();
    let fp = format!("{:016x}", model.fingerprint());
    let serialize_us = per_op(parsed.len(), || {
        for lines in &parsed {
            let mut body = String::new();
            for r in lines {
                let resp = ScoreResponse {
                    src: r.src,
                    dst: r.dst,
                    score: r.score,
                    error: r.error.clone(),
                    fingerprint: Some(fp.clone()),
                };
                body.push_str(&serde_json::to_string(&resp).expect("serializes"));
                body.push('\n');
            }
            black_box(body);
        }
    }) * 1e6;
    Wire { parse_us, write_us, serialize_us }
}

/// Fold-in and stream-engine costs on the run's ingest batches.
pub struct Streaming {
    pub foldin_build_s: f64,
    pub foldin_score_us: f64,
    /// Mean in-degree of the heads of the fold-in pairs timed.
    pub head_in_degree: f64,
    pub apply_us: f64,
    pub rebind_s: f64,
}

pub fn streaming(model: &Arc<DirectionalityModel>, batches: &[Vec<TieEvent>]) -> Streaming {
    let foldin_build_s = per_op(1, || {
        black_box(FoldInIndex::build(model));
    });
    let index = FoldInIndex::build(model);
    // The untrained pairs the log made live: the fold-in path.
    let dynamic: Vec<(u32, u32)> = batches
        .iter()
        .flatten()
        .flat_map(|e| [(e.src, e.dst), (e.dst, e.src)])
        .filter(|&(u, v)| model.tie_row(NodeId(u), NodeId(v)).is_none())
        .collect();
    let mut in_degree =
        vec![0u32; model.ties().iter().map(|&(u, v)| u.max(v) as usize + 1).max().unwrap_or(0)];
    for &(_, v) in model.ties() {
        in_degree[v as usize] += 1;
    }
    let head_in_degree = dynamic
        .iter()
        .map(|&(_, v)| f64::from(in_degree.get(v as usize).copied().unwrap_or(0)))
        .sum::<f64>()
        / dynamic.len().max(1) as f64;
    let mut scratch = Vec::new();
    let foldin_score_us = per_op(dynamic.len(), || {
        for &(u, v) in &dynamic {
            black_box(index.foldin_score_into(model, NodeId(u), NodeId(v), &mut scratch));
        }
    }) * 1e6;
    let events: usize = batches.iter().map(Vec::len).sum();
    let mut engine = StreamEngine::new(Arc::clone(model));
    let mut apply = Vec::new();
    for _ in 0..REPS {
        engine = StreamEngine::new(Arc::clone(model));
        let t = Instant::now();
        for b in batches {
            black_box(engine.apply_all(b));
        }
        apply.push(t.elapsed().as_secs_f64() * 1e6 / events.max(1) as f64);
    }
    let apply_us = median(&apply);
    let rebind_s = per_op(1, || engine.rebind(Arc::clone(model)));
    Streaming { foldin_build_s, foldin_score_us, head_in_degree, apply_us, rebind_s }
}
