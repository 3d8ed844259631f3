//! The serving path under paced open-loop load through the router.
//!
//! A [`Session`] is one fleet lifetime: every request it sent, every ingest
//! batch in log order, and every read with the ingest window it overlapped,
//! kept for the offline check in [`crate::verify`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dd_stream::{EventOp, TieEvent};
use deepdirect::DirectionalityModel;

use crate::fleet::{Fleet, SHARDS};
use crate::inputs::Keys;
use crate::loadgen::{self, Done, IngestClock, Op, Planned};
use crate::stats::{median, Dist};
use crate::verify::{IngestRecord, ReadRecord};

/// Pairs per `POST /batch`.
pub const BATCH_PAIRS: usize = 16;
/// Events per `POST /ingest`.
pub const EVENTS_PER_INGEST: usize = 8;
/// Dynamic-tie reads pick among this many most recently ingested pairs.
const RECENT: usize = 256;
/// Latency limit on the p99 of a ladder rung. It rejects rungs with
/// gross tail latency; the lag-growth test below is what catches a rung
/// just past capacity, whose backlog grows for the whole probe.
pub const P99_LIMIT_MS: f64 = 100.0;
/// A rung fails when the generator's median lag in its last third exceeds
/// that in its first third by more than this.
pub const LAG_GROWTH_LIMIT_MS: f64 = 5.0;
/// Offered-rate ladder: `LADDER_BASE · LADDER_RATIO^k` requests/s, so
/// `sustained_rps` resolves to 8%; 64 rungs make the bisection exactly six
/// probes.
pub const LADDER_BASE: f64 = 250.0;
pub const LADDER_RATIO: f64 = 1.08;
pub const LADDER_RUNGS: usize = 64;
/// Reloads at the end of the serving stage; `reload_s` is their median.
pub const RELOADS: usize = 3;
/// Slices of the fixed-rate phase; the fleet's CPU time per request is
/// taken per slice, so a burst of interference moves one slice only.
pub const CPU_SLICES: usize = 8;
/// Read rate kept up while the first reload runs, and for how long.
const RELOAD_WINDOW_RPS: f64 = 200.0;
const RELOAD_WINDOW: Duration = Duration::from_secs(2);

/// Request mix: reads fill whatever the offered rate leaves after a fixed
/// ingest rate, so every run ingests the same log whatever its ladder.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// `POST /ingest` batches per second (streaming sessions only).
    pub ingest_rps: f64,
    /// Share of reads that are `POST /batch`.
    pub batch: f64,
    /// Share of read pairs named by recent ingests: dynamic ties, and
    /// trained ties an unfollow tombstoned.
    pub dynamic: f64,
}

/// Reads only: trained ties by popularity plus a few untrained pairs.
pub const READ_MIX: Mix = Mix { ingest_rps: 0.0, batch: 0.2, dynamic: 0.0 };
/// Reads beside paced ingests.
pub const STREAM_MIX: Mix = Mix { ingest_rps: 100.0, batch: 0.2, dynamic: 0.4 };

/// Inputs the plans draw from.
pub struct Ctx<'a> {
    pub model: &'a Arc<DirectionalityModel>,
    pub keys: Keys,
    pub events: &'a [TieEvent],
    pub lanes: usize,
}

/// Latency samples (ms) and client timings of one phase.
#[derive(Default)]
pub struct Samples {
    /// Latencies from the due time, per endpoint.
    pub score: Vec<f64>,
    pub batch: Vec<f64>,
    pub ingest: Vec<f64>,
    /// Send-to-reply times, per endpoint.
    pub score_service: Vec<f64>,
    pub batch_service: Vec<f64>,
    pub ingest_service: Vec<f64>,
    pub lag: Vec<f64>,
    pub connect_us: Vec<f64>,
    pub ttfb_us: Vec<f64>,
    pub failures: usize,
    /// Request bytes and response bodies of the reads, for the HTTP layer
    /// timings of the traced run.
    pub read_requests: Vec<Vec<u8>>,
    pub read_bodies: Vec<String>,
}

/// One ladder probe.
pub struct Probe {
    pub rate: f64,
    pub p99_ms: f64,
    pub lag_growth_ms: f64,
    pub failures: usize,
    pub pass: bool,
}

/// One fleet lifetime.
pub struct Session {
    pub fleet: Fleet,
    stream: bool,
    /// Fingerprint of the served model.
    fingerprint: u64,
    clock: IngestClock,
    pub batches: Vec<Vec<TieEvent>>,
    touched: Vec<(u32, u32)>,
    pub reads: Vec<ReadRecord>,
    /// Read pairs planned from recent ingests (dynamic or tombstoned ties).
    pub recent_reads: usize,
    pub ingests: Vec<IngestRecord>,
    pub sent: usize,
    pub failures: usize,
    pub reload_s: Vec<f64>,
    pub live_dynamic: Option<u64>,
    pub failure_examples: Vec<String>,
}

impl Session {
    pub fn new(fleet: Fleet, stream: bool, model: &DirectionalityModel) -> Session {
        Session {
            fleet,
            stream,
            fingerprint: model.fingerprint(),
            clock: IngestClock::default(),
            batches: Vec::new(),
            touched: Vec::new(),
            reads: Vec::new(),
            recent_reads: 0,
            ingests: Vec::new(),
            sent: 0,
            failures: 0,
            reload_s: Vec::new(),
            live_dynamic: None,
            failure_examples: Vec::new(),
        }
    }

    /// Plans `secs` of `mix` at `rate` requests/s in all: ingests paced at
    /// the mix's rate, reads paced at the rest.
    fn plan(&mut self, ctx: &mut Ctx, mix: Mix, rate: f64, secs: f64) -> Vec<Planned> {
        let ingest_rps = if self.stream { mix.ingest_rps.min(rate) } else { 0.0 };
        let read_rps = rate - ingest_rps;
        let (n_ingest, n_read) =
            ((ingest_rps * secs).round() as usize, (read_rps * secs).round() as usize);
        let due = |k: usize, rps: f64| Duration::from_secs_f64(k as f64 / rps);
        let mut out = Vec::with_capacity(n_ingest + n_read);
        let (mut i, mut r) = (0, 0);
        // Planned in due order, so a dynamic read only names pairs of
        // ingests due before it.
        while i < n_ingest || r < n_read {
            if r == n_read || (i < n_ingest && due(i, ingest_rps) <= due(r, read_rps)) {
                if let Some(p) = self.plan_ingest(ctx.events, due(i, ingest_rps)) {
                    out.push(p);
                }
                i += 1;
            } else {
                let lane = self.read_lane(ctx.lanes, r);
                out.push(self.plan_read(ctx, mix, due(r, read_rps), lane));
                r += 1;
            }
        }
        out
    }

    /// Lane of the `n`-th read. A streaming session keeps lane 0 for its
    /// ingests (and the reload), so a slow write never holds up a read.
    fn read_lane(&self, lanes: usize, n: usize) -> usize {
        if self.stream && lanes > 1 {
            1 + n % (lanes - 1)
        } else {
            n % lanes
        }
    }

    fn plan_read(&mut self, ctx: &mut Ctx, mix: Mix, due: Duration, lane: usize) -> Planned {
        let batch = ctx.keys.unit() < mix.batch;
        let pairs: Vec<(u32, u32)> =
            (0..if batch { BATCH_PAIRS } else { 1 }).map(|_| self.pick(ctx, mix)).collect();
        let raw = if batch {
            let body: String =
                pairs.iter().map(|(s, d)| format!("{{\"src\":{s},\"dst\":{d}}}\n")).collect();
            loadgen::post_bytes("/batch", &body)
        } else {
            loadgen::get_bytes(&format!("/score?src={}&dst={}", pairs[0].0, pairs[0].1))
        };
        Planned { due, lane, op: Op::Read { pairs, batch }, raw }
    }

    fn pick(&mut self, ctx: &mut Ctx, mix: Mix) -> (u32, u32) {
        if !self.touched.is_empty() && ctx.keys.unit() < mix.dynamic {
            self.recent_reads += 1;
            let recent = self.touched.len().min(RECENT);
            self.touched[self.touched.len() - 1 - ctx.keys.index(recent)]
        } else {
            ctx.keys.next(ctx.model)
        }
    }

    fn plan_ingest(&mut self, events: &[TieEvent], due: Duration) -> Option<Planned> {
        let start = self.batches.len() * EVENTS_PER_INGEST;
        let batch = events.get(start..start + EVENTS_PER_INGEST)?.to_vec();
        for e in &batch {
            self.touched.push((e.src, e.dst));
            if e.op == EventOp::Reciprocate {
                self.touched.push((e.dst, e.src));
            }
        }
        let raw = loadgen::post_bytes("/ingest", &dd_stream::to_jsonl(&batch));
        self.batches.push(batch);
        Some(Planned { due, lane: 0, op: Op::Ingest { batch: self.batches.len() - 1 }, raw })
    }

    fn fail(&mut self, samples: &mut Samples, msg: String) {
        samples.failures += 1;
        if self.failure_examples.len() < 5 {
            self.failure_examples.push(msg);
        }
    }

    /// Sends `plan` and records what came back into `s`. Requests due at or
    /// after `timed_until` are checked but kept out of the latency samples.
    fn execute(
        &mut self,
        plan: Vec<Planned>,
        lanes: usize,
        timed_until: Duration,
        s: &mut Samples,
    ) {
        let failures_before = s.failures;
        let done = loadgen::run_open_loop(self.fleet.router, &plan, lanes, &self.clock);
        for (p, d) in plan.into_iter().zip(done) {
            self.sent += 1;
            let timed = d.due < timed_until;
            if timed {
                s.lag.push(d.lag_ms());
            }
            let latency = d.latency_ms();
            let service = d.service_ms();
            let Done { result, lo, hi, .. } = d;
            let reply = match result {
                Ok(r) if r.status < 500 => r,
                Ok(r) => {
                    self.fail(s, format!("{:?} answered {}: {}", p.op, r.status, r.body));
                    continue;
                }
                Err(e) => {
                    self.fail(s, format!("{:?}: {e}", p.op));
                    continue;
                }
            };
            match p.op {
                Op::Read { pairs, batch } => {
                    if timed {
                        if batch { &mut s.batch } else { &mut s.score }.push(latency);
                        if batch { &mut s.batch_service } else { &mut s.score_service }
                            .push(service);
                        s.connect_us.push(reply.connect_us);
                        s.ttfb_us.push(reply.ttfb_us);
                        s.read_requests.push(p.raw);
                        s.read_bodies.push(reply.body.clone());
                    }
                    self.reads.push(ReadRecord {
                        pairs,
                        batch,
                        lo,
                        hi,
                        status: reply.status,
                        body: reply.body,
                    });
                }
                Op::Ingest { batch } => {
                    match fanout_details::<dd_serve::IngestResponse>(reply.status, &reply.body) {
                        Some(details) => {
                            if timed {
                                s.ingest.push(latency);
                                s.ingest_service.push(service);
                            }
                            self.live_dynamic = details.last().map(|d| d.live_dynamic as u64);
                            let digests = details.into_iter().map(|d| d.digest).collect();
                            self.ingests.push(IngestRecord { batch, digests });
                        }
                        None => self.fail(
                            s,
                            format!("ingest {batch} answered {}: {}", reply.status, reply.body),
                        ),
                    }
                }
                Op::Reload => {
                    let fp = format!("{:016x}", self.fingerprint);
                    match fanout_details::<dd_serve::ReloadResponse>(reply.status, &reply.body) {
                        Some(d) if d.iter().all(|r| r.new_fingerprint == fp) => {
                            self.reload_s.push(service / 1e3)
                        }
                        _ => self
                            .fail(s, format!("reload answered {}: {}", reply.status, reply.body)),
                    }
                }
            }
        }
        self.failures += s.failures - failures_before;
    }

    /// `secs` of paced load at a fixed offered rate, sent in [`CPU_SLICES`]
    /// consecutive slices. Returns the samples and the fleet's CPU time per
    /// request (µs) of each slice.
    pub fn fixed_rate(
        &mut self,
        ctx: &mut Ctx,
        mix: Mix,
        rate: f64,
        secs: f64,
    ) -> (Samples, Vec<f64>) {
        let slice = Duration::from_secs_f64(secs / CPU_SLICES as f64);
        let mut rest = self.plan(ctx, mix, rate, secs).into_iter().peekable();
        let mut s = Samples::default();
        let mut cpu_us = Vec::with_capacity(CPU_SLICES);
        for k in 1..=CPU_SLICES as u32 {
            let (start, end) =
                (slice * (k - 1), if k == CPU_SLICES as u32 { Duration::MAX } else { slice * k });
            let mut part = Vec::new();
            while let Some(mut p) = rest.next_if(|p| p.due < end) {
                p.due -= start.min(p.due);
                part.push(p);
            }
            let n = part.len();
            let cpu0 = self.fleet.cpu_seconds();
            self.execute(part, ctx.lanes, Duration::MAX, &mut s);
            cpu_us.push((self.fleet.cpu_seconds() - cpu0) * 1e6 / n.max(1) as f64);
        }
        (s, cpu_us)
    }

    /// The highest ladder rate that keeps p99 under [`P99_LIMIT_MS`], the
    /// generator's lag flat, and every request successful, found by
    /// bisection over the fixed ladder.
    pub fn ladder(&mut self, ctx: &mut Ctx, mix: Mix, probe_secs: f64) -> (f64, Vec<Probe>) {
        let rung = |k: usize| LADDER_BASE * LADDER_RATIO.powi(k as i32);
        let (mut lo, mut hi) = (0usize, LADDER_RUNGS);
        let mut best = None;
        let mut probes = Vec::new();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let rate = rung(mid);
            let plan = self.plan(ctx, mix, rate, probe_secs);
            let mut s = Samples::default();
            self.execute(plan, ctx.lanes, Duration::MAX, &mut s);
            let mut all: Vec<f64> =
                s.score.iter().chain(&s.batch).chain(&s.ingest).copied().collect();
            all.extend(std::iter::repeat_n(f64::INFINITY, s.failures));
            let p99_ms = Dist::of(&all).p99;
            let lag_growth_ms = lag_growth_ms(&s.lag);
            let pass =
                s.failures == 0 && p99_ms <= P99_LIMIT_MS && lag_growth_ms <= LAG_GROWTH_LIMIT_MS;
            probes.push(Probe { rate, p99_ms, lag_growth_ms, failures: s.failures, pass });
            if pass {
                best = Some(rate);
                lo = mid + 1;
            } else {
                hi = mid;
            }
            // Let any backlog drain before the next probe.
            std::thread::sleep(Duration::from_millis(200));
        }
        (best.unwrap_or(0.0), probes)
    }

    /// The reload tail: `secs` of `mix`, then [`RELOADS`] back-to-back
    /// `POST /admin/reload`s of `ddm` through the router with reads kept up
    /// beside the first, then (streaming sessions) one last ingest whose
    /// digest closes the log. Only requests due before the reloads are
    /// timed.
    pub fn tail_with_reload(
        &mut self,
        ctx: &mut Ctx,
        mix: Mix,
        rate: f64,
        secs: f64,
        ddm: &Path,
    ) -> Samples {
        let end = Duration::from_secs_f64(secs);
        let mut plan = self.plan(ctx, mix, rate, secs);
        let reload = dd_serve::ReloadRequest { path: ddm.display().to_string() };
        let body = serde_json::to_string(&reload).expect("reload request serializes");
        for _ in 0..RELOADS {
            plan.push(Planned {
                due: end,
                lane: 0,
                op: Op::Reload,
                raw: loadgen::post_bytes("/admin/reload", &body),
            });
        }
        let reads = (RELOAD_WINDOW_RPS * RELOAD_WINDOW.as_secs_f64()) as usize;
        for i in 0..reads {
            let due = end + RELOAD_WINDOW.mul_f64(i as f64 / reads as f64);
            let p = self.plan_read(ctx, mix, due, self.read_lane(ctx.lanes, i));
            plan.push(p);
        }
        if self.stream {
            plan.extend(self.plan_ingest(ctx.events, end));
        }
        plan.sort_by_key(|p| p.due);
        let mut s = Samples::default();
        self.execute(plan, ctx.lanes, end, &mut s);
        s
    }

    /// Median `/score` latency through the router minus straight to a
    /// shard, in µs, over `n` uniformly drawn trained ties (cache misses
    /// on both paths).
    pub fn router_overhead_us(&self, ctx: &mut Ctx, n: usize) -> f64 {
        let (mut via, mut direct) = (Vec::new(), Vec::new());
        let ties = ctx.model.ties();
        for i in 0..n {
            let (u, v) = ties[ctx.keys.index(ties.len())];
            let raw = loadgen::get_bytes(&format!("/score?src={u}&dst={v}"));
            let shard = self.fleet.shards[i % SHARDS].1;
            for (addr, out) in [(self.fleet.router, &mut via), (shard, &mut direct)] {
                let t = std::time::Instant::now();
                if loadgen::send(addr, &raw).is_ok_and(|r| r.status == 200) {
                    out.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        median(&via) - median(&direct)
    }

    /// Counters summed over the shards' `/metrics`, plus the router's.
    pub fn scrape(&self) -> HashMap<String, f64> {
        let mut sum = HashMap::new();
        let addrs = std::iter::once(self.fleet.router).chain(self.fleet.shards.iter().map(|s| s.1));
        for addr in addrs {
            add_metrics(&mut sum, addr);
        }
        sum
    }
}

/// How much the generator's median lag grew from the first third of a
/// time-ordered lag sample to its last third, in ms. A rate the fleet
/// cannot keep up with builds a backlog that grows for the whole phase.
pub fn lag_growth_ms(lag: &[f64]) -> f64 {
    let third = lag.len() / 3;
    if third == 0 {
        0.0
    } else {
        median(&lag[lag.len() - third..]) - median(&lag[..third])
    }
}

/// Per-shard `detail` payloads of a fanned-out router reply
/// (`{"shards":[{"addr":…,"ok":true,"detail":{…}}]}`), when the reply is a
/// `200` and every shard reports `ok`.
fn fanout_details<T: serde::Deserialize>(status: u16, body: &str) -> Option<Vec<T>> {
    use serde_json::Value;
    let v: Value = serde_json::from_str(body).ok()?;
    let Some(Value::Array(shards)) = v.get("shards") else { return None };
    let details = shards
        .iter()
        .map(|s| match s.get("ok") {
            Some(Value::Bool(true)) => serde_json::from_value(s.get("detail")?).ok(),
            _ => None,
        })
        .collect::<Option<Vec<T>>>()?;
    (status == 200 && details.len() == SHARDS).then_some(details)
}

/// Adds one endpoint's Prometheus text into `sum`, by metric name without
/// labels.
fn add_metrics(sum: &mut HashMap<String, f64>, addr: SocketAddr) {
    let Ok(reply) = loadgen::get(addr, "/metrics") else { return };
    for line in reply.body.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else { continue };
        let name = name.split('{').next().unwrap_or(name);
        if let Ok(v) = value.parse::<f64>() {
            *sum.entry(name.to_string()).or_insert(0.0) += v;
        }
    }
}
