//! DeepDirect's paper-scale benchmark: one workload per run, end to end
//! and, with `--trace 1`, layer by layer.
//!
//! ```text
//! dd-perfbench --workload <train-paper|serve-trained|serve-stream> --seed N \
//!     --seconds S --trace <0|1> --dd <path to the release dd binary>
//! ```
//!
//! Every run generates its inputs from the seed, trains a model at paper
//! scale, writes and reloads its `.ddm`, serves it from `dd serve
//! --shards 2` under paced open-loop load, checks every answer against
//! the offline model and stream replay, and prints one JSON result line
//! last. `perfbench/run.py` builds everything and runs this binary.

mod fleet;
mod inputs;
mod layers;
mod loadgen;
mod report;
mod serve;
mod stats;
mod train;
mod verify;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dd_stream::TieEvent;
use fleet::Fleet;
use report::{Env, Metric, Spans};
use serve::{Ctx, Samples, Session};
use stats::{median, Dist};

/// Fleet cold starts per run; `setup_s` is their median.
const SETUP_STARTS: usize = 3;
/// Events generated per run for `POST /ingest`.
const EVENTS: usize = 64_000;
/// Offered rate of serve-stream's ingest tail before the reloads,
/// requests/s.
const TAIL_RATE: f64 = 350.0;
/// Ingest batches the streaming layers are timed on when the fleet was
/// read-only: about what a serve-stream run ingests.
const STREAM_LAYER_BATCHES: usize = 1200;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    TrainPaper,
    ServeTrained,
    ServeStream,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train-paper" => Some(Workload::TrainPaper),
            "serve-trained" => Some(Workload::ServeTrained),
            "serve-stream" => Some(Workload::ServeStream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainPaper => "train-paper",
            Workload::ServeTrained => "serve-trained",
            Workload::ServeStream => "serve-stream",
        }
    }

    fn budget(self) -> (&'static str, train::Budget) {
        match self {
            Workload::TrainPaper => ("paper", train::PAPER),
            _ => ("serving", train::SERVING),
        }
    }

    /// Whether the fleet runs with `--stream`.
    fn stream(self) -> bool {
        self == Workload::ServeStream
    }

    /// Mix and offered rate (requests/s) of the fixed-rate phase; README.md
    /// gives the basis of each figure.
    fn traffic(self) -> (serve::Mix, f64) {
        match self {
            Workload::ServeStream => (serve::STREAM_MIX, 500.0),
            _ => (serve::READ_MIX, 800.0),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|_| "--seed takes an integer")?,
        seconds: get("seconds")?.parse().map_err(|_| "--seconds takes a number")?,
        trace: get("trace")? == "1",
        dd: PathBuf::from(get("dd")?),
        out: PathBuf::from(map.get("out").cloned().unwrap_or_else(|| ".bench_out".into())),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dd-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(work_dir(&args));
    match outcome {
        Ok(run) => {
            println!("{}", run.line);
            std::process::exit(if run.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dd-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Where a run keeps its `.ddm` files; removed when the run ends.
fn work_dir(args: &Args) -> PathBuf {
    args.out.join(format!("{}-{}", args.workload.name(), args.seed))
}

struct RunOutput {
    correct: bool,
    line: String,
}

/// Fleet-side results of the serving stage.
struct Served {
    fixed: Samples,
    tail: Samples,
    sustained_rps: f64,
    probes: Vec<serve::Probe>,
    /// Router and shard CPU time per request of each fixed-rate slice, µs.
    cpu_us_per_req: Vec<f64>,
    setup_starts: Vec<f64>,
    reload_s: f64,
    /// Largest shard VmHWM before the reloads.
    shard_rss_mb: f64,
    /// Largest shard VmHWM at the end, reloads included.
    reload_rss_mb: f64,
    /// Counters summed over router and shards right after the fixed-rate
    /// phase, and at the end.
    fixed_counters: HashMap<String, f64>,
    end_counters: HashMap<String, f64>,
    router_overhead_us: f64,
    session: Session,
    stop_error: Option<String>,
}

fn run(args: &Args) -> Result<RunOutput, String> {
    let env = Env::collect();
    let steal = report::Steal::start();
    let w = args.workload;
    let mut spans = Spans::new(args.trace);
    let ds = spans.time("inputs.dataset", |_| inputs::dataset(args.seed));
    let threads = env.available_parallelism;
    let (budget_name, budget) = w.budget();
    let cfg = train::config(budget, args.seed, threads);
    let dir = work_dir(args);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let dir = std::fs::canonicalize(&dir).map_err(|e| e.to_string())?;
    let ddm = dir.join("model.ddm");
    println!(
        "# env nproc={} available_parallelism={} cpu={:?} git={} source={}",
        env.nproc, env.available_parallelism, env.cpu_model, env.git_revision, env.source_digest
    );
    println!(
        "# run workload={} seed={} seconds={} trace={} dataset={} scale={} nodes={} ties={} hidden={} dim={} estep_iterations={} dstep_epochs={} train_threads={threads} load_lanes={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::DATASET,
        inputs::SCALE,
        ds.nodes,
        ds.ties,
        ds.truth.len(),
        train::DIM,
        cfg.max_iterations.unwrap_or(0),
        cfg.dstep_epochs,
        lanes(&env),
    );
    // Every workload serves a model fit to a short budget: it has the
    // paper-scale shape, which is what serving cost depends on, not the
    // accuracy. The serving stage comes right after it on every workload,
    // so no minutes of full-core training precede the fleet's figures.
    let serving_cfg = train::config(train::SERVING, args.seed, threads);
    let serving = spans.time("train.serving", |_| train::train(&ds, &serving_cfg, &ddm))?;
    print_train("serving", &serving);
    let model = Arc::clone(&serving.model);
    let events = spans.time("inputs.events", |_| inputs::events(&ds.graph, args.seed, EVENTS));
    let mut ctx = Ctx {
        model: &model,
        keys: inputs::Keys::new(&model, args.seed),
        events: &events,
        lanes: lanes(&env),
    };
    let served = spans.time("serve", |spans| serve_stage(args, &mut ctx, &ddm, spans))?;
    let s = &served.session;

    // Correctness: every served answer, every ingest digest, the .ddm
    // round trip, a clean fleet shutdown, and a run that exercised what
    // its mix is for.
    let verdict =
        spans.time("verify", |_| verify::session(&model, &s.batches, &s.ingests, &s.reads));
    let mix = MixCheck::of(w, &served);
    let served_failures = s.failures
        + verdict.bad_reads
        + verdict.bad_ingests
        + usize::from(!serving.roundtrip_ok)
        + usize::from(served.stop_error.is_some())
        + mix.failures.len();
    for e in s.failure_examples.iter() {
        println!("# FAIL request: {e}");
    }
    for e in &verdict.examples {
        println!("# FAIL check: {e}");
    }
    if let Some(e) = &served.stop_error {
        println!("# FAIL shutdown: {e}");
    }
    for e in &mix.failures {
        println!("# FAIL mix: {e}");
    }
    let final_digest = match s.ingests.last() {
        Some(i) => {
            format!(" final_digest={} vs replay {:016x}", i.digests.join("/"), verdict.final_digest)
        }
        None => String::new(),
    };
    println!(
        "# verify lines={} wrong_reads={} wrong_digests={} transport_failures={}{final_digest} error_rate={}",
        verdict.lines,
        verdict.bad_reads,
        verdict.bad_ingests,
        s.failures,
        served_failures as f64 / (s.sent + 1 + MixCheck::PROPERTIES) as f64,
    );
    println!(
        "# mix cache_hit_ratio={:.4} untrained_lines={} recent_reads={}",
        mix.hit_ratio, mix.untrained_lines, s.recent_reads
    );

    let f = &served.fixed;
    let ingest: Vec<f64> = f.ingest.iter().chain(&served.tail.ingest).copied().collect();
    let ingest_svc: Vec<f64> =
        f.ingest_service.iter().chain(&served.tail.ingest_service).copied().collect();
    let (score, batch) = (Dist::of(&f.score), Dist::of(&f.batch));
    let (score_svc, batch_svc) = (Dist::of(&f.score_service), Dist::of(&f.batch_service));
    // A read-only fleet ingests nothing: its ingest figures read 0.
    let (ingest, ingest_svc) = if w.stream() {
        (Dist::of(&ingest), Dist::of(&ingest_svc))
    } else {
        (Dist::NONE, Dist::NONE)
    };
    // Latencies from the due time only mean something while the generator
    // kept up: a backlog that grows through the phase makes them invalid.
    let lag_growth_ms = serve::lag_growth_ms(&f.lag);
    let latency_valid = lag_growth_ms <= serve::LAG_GROWTH_LIMIT_MS;
    for (name, d) in [
        ("score", score),
        ("batch", batch),
        ("ingest", ingest),
        ("score service", score_svc),
        ("batch service", batch_svc),
        ("ingest service", ingest_svc),
    ] {
        println!(
            "# latency {name}: n={} p50={:.4}ms p99={:.4}ms{}{}",
            d.n,
            d.p50,
            d.p99,
            if d.p99_supported() { "" } else { " (fewer than 10 samples beyond p99)" },
            if latency_valid { "" } else { " INVALID: the generator fell behind" }
        );
    }
    println!(
        "# generator lag growth (last third vs first third of the fixed-rate phase): {lag_growth_ms:.3} ms, latencies {}",
        if latency_valid { "valid" } else { "invalid" }
    );
    for p in &served.probes {
        println!(
            "# ladder rate={:.0}/s p99={:.3}ms lag_growth={:.3}ms failures={} {}",
            p.rate,
            p.p99_ms,
            p.lag_growth_ms,
            p.failures,
            if p.pass { "pass" } else { "fail" }
        );
    }
    // The traced run times the serving layers on the serving model before
    // it is dropped.
    let mut layers = Vec::new();
    if args.trace {
        layers.extend(spans.time("layers", |spans| {
            layer_metrics(&ds, &cfg, &model, &ddm, &events, &served, mix.hit_ratio, spans)
        }));
    }
    drop(ctx);
    drop(model);
    // train-paper's paper-budget fit comes last, with the serving model and
    // the request keys gone and the peak-RSS mark reset, so the VmHWM read
    // after it is the training path's own peak.
    let (trained, peak_rss_mb) = if w == Workload::TrainPaper {
        drop(serving);
        reset_peak_rss();
        let paper =
            spans.time("train.paper", |_| train::train(&ds, &cfg, &dir.join("paper.ddm")))?;
        print_train(budget_name, &paper);
        let peak = fleet::vm_hwm_mb("/proc/self/status").unwrap_or(f64::NAN);
        (paper, peak)
    } else {
        (serving, served.shard_rss_mb)
    };
    // Every served request, the `.ddm` round trip(s), and each mix property.
    let failed = served_failures + usize::from(w == Workload::TrainPaper && !trained.roundtrip_ok);
    let attempted = s.sent + 1 + usize::from(w == Workload::TrainPaper) + MixCheck::PROPERTIES;
    // Gated end-to-end metrics: the ones that stay steady run to run on a
    // shared two-core VM. README.md gives the spreads that kept the
    // request-path figures out of this list.
    let e2e: Vec<Metric> = vec![
        ("reload_s", served.reload_s, "s"),
        ("train_s", trained.train_s, "s"),
        ("direction_acc", trained.direction_acc, "ratio"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("setup_s", median(&served.setup_starts), "s"),
    ];
    let steal_pct = steal.percent();
    println!("# setup fleet cold starts: {:?} s", served.setup_starts);
    println!("# host cpu steal during the run: {steal_pct:.2}%");
    println!(
        "# fleet cpu per request by fixed-rate slice: {:?} us",
        served.cpu_us_per_req.iter().map(|x| (x * 10.0).round() / 10.0).collect::<Vec<_>>()
    );
    println!(
        "# shard VmHWM: {:.1} MB serving, {:.1} MB after the reloads",
        served.shard_rss_mb, served.reload_rss_mb
    );
    for (name, v, unit) in &e2e {
        println!("# e2e {name} = {v} {unit}");
    }
    // The request path as users of a loaded fleet see it: reported by the
    // traced run, not gated.
    let request: Vec<Layer> = [
        ("score_service_p50_ms", score_svc.p50, "ms"),
        ("batch_service_p50_ms", batch_svc.p50, "ms"),
        ("ingest_service_p50_ms", ingest_svc.p50, "ms"),
        ("score_p50_ms", score.p50, "ms"),
        ("score_p99_ms", score.p99, "ms"),
        ("batch_p50_ms", batch.p50, "ms"),
        ("batch_p99_ms", batch.p99, "ms"),
        ("ingest_p50_ms", ingest.p50, "ms"),
        ("ingest_p99_ms", ingest.p99, "ms"),
        ("sustained_rps", served.sustained_rps, "1/s"),
        ("host.steal_pct", steal_pct, "%"),
        ("fleet_cpu_us_per_req", median(&served.cpu_us_per_req), "us"),
    ]
    .into_iter()
    .map(|(name, value, unit)| (name, value, unit, "ungated end-to-end figure"))
    .chain([
        ("gen.lag_growth_ms", lag_growth_ms, "ms", "validity of every latency"),
        (
            "gen.latency_valid",
            f64::from(u8::from(latency_valid)),
            "count",
            "validity of every latency",
        ),
    ])
    .collect();

    let correct = failed == 0;
    let untraced_path = args.out.join(format!("last-untraced-{}.json", w.name()));
    let metrics = if args.trace {
        let layers: Vec<Layer> = request.into_iter().chain(layers).collect();
        print_layer_table(&layers);
        if w == Workload::TrainPaper {
            let (points, a, b, r2) = spans.time("fig9", |_| train::fig9(&ds, &cfg));
            for p in &points {
                println!(
                    "# fig9 fraction={} ties={} estep_iterations={} seconds={:.4} ns_per_iteration={:.1}",
                    p.fraction,
                    p.ties,
                    p.iterations,
                    p.seconds,
                    p.seconds * 1e9 / p.iterations.max(1) as f64
                );
            }
            println!("# fig9 least squares: seconds = {a:.4e} * ties + {b:.4}  (R^2 = {r2:.4})");
        }
        print_overhead(&untraced_path, &e2e);
        for (i, s) in spans.list.iter().enumerate() {
            println!(
                "# span {:<24} total={:>9.3}s self={:>9.3}s",
                s.name,
                s.end_s - s.start_s,
                spans.self_s(i)
            );
        }
        let trace_file = args.out.join(format!("{}-{}.spans.jsonl", w.name(), args.seed));
        let _ = std::fs::write(&trace_file, spans.to_jsonl());
        layers.iter().map(|&(name, value, unit, _)| (name, value, unit)).collect()
    } else {
        let _ =
            std::fs::write(&untraced_path, report::result_line(correct, attempted, failed, &e2e));
        e2e
    };
    Ok(RunOutput { correct, line: report::result_line(correct, attempted, failed, &metrics) })
}

/// What the workload's mix is there to exercise, checked on what the run
/// saw: the score cache both hit and missed, untrained pairs took the 404
/// path, and (serve-stream) reads named ties from recent ingests.
struct MixCheck {
    hit_ratio: f64,
    untrained_lines: usize,
    failures: Vec<String>,
}

impl MixCheck {
    const PROPERTIES: usize = 3;

    fn of(w: Workload, served: &Served) -> MixCheck {
        let c = |k: &str| served.fixed_counters.get(k).copied().unwrap_or(0.0);
        let (hits, misses) = (c("dd_serve_cache_hits_total"), c("dd_serve_cache_misses_total"));
        let hit_ratio = hits / (hits + misses);
        let s = &served.session;
        let untrained_lines = s
            .reads
            .iter()
            .flat_map(|r| r.body.lines())
            .filter(|l| {
                serde_json::from_str::<dd_serve::ScoreResponse>(l).is_ok_and(|r| r.score.is_none())
            })
            .count();
        let mut failures = Vec::new();
        if !(hit_ratio > 0.0 && hit_ratio < 1.0) {
            failures.push(format!(
                "score cache hit ratio {hit_ratio} ({hits} hits, {misses} misses) is not strictly between 0 and 1"
            ));
        }
        if untrained_lines == 0 {
            failures.push("no read line took the unknown-tie (404) path".into());
        }
        if w.stream() && s.recent_reads == 0 {
            failures.push("no read named a tie from a recent ingest".into());
        }
        MixCheck { hit_ratio, untrained_lines, failures }
    }
}

/// Resets this process's peak resident set (VmHWM) to its current size.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Load-generator lanes: requests in flight at most, one thread each; no
/// more than the cores, and two at most.
fn lanes(env: &Env) -> usize {
    env.nproc.min(env.available_parallelism).clamp(1, 2)
}

fn print_train(name: &str, t: &train::Trained) {
    println!(
        "# train {name}: fit={:.3}s save={:.3}s load={:.3}s train_s={:.3} direction_acc={:.4} ordered_ties={} ddm_roundtrip_bit_identical={}",
        t.fit_s,
        t.save_s,
        t.load_s,
        t.train_s,
        t.direction_acc,
        t.model.n_ties(),
        t.roundtrip_ok
    );
}

/// Starts the fleet (timing [`SETUP_STARTS`] cold starts), runs the
/// fixed-rate phase, the ladder (traced runs) and the reload tail, and
/// stops the fleet.
fn serve_stage(
    args: &Args,
    ctx: &mut Ctx,
    ddm: &Path,
    spans: &mut Spans,
) -> Result<Served, String> {
    let w = args.workload;
    let mut setup_starts = Vec::new();
    let mut fleet = None;
    spans.time("serve.setup", |_| -> Result<(), String> {
        for i in 0..SETUP_STARTS {
            let (mut f, s) = Fleet::start(&args.dd, ddm, w.stream())?;
            setup_starts.push(s);
            if i + 1 < SETUP_STARTS {
                f.stop()?;
            } else {
                fleet = Some(f);
            }
        }
        Ok(())
    })?;
    let mut session = Session::new(fleet.expect("at least one start"), w.stream(), ctx.model);
    let (mix, rate) = w.traffic();
    let (fixed, cpu_us_per_req) =
        spans.time("serve.fixed_rate", |_| session.fixed_rate(ctx, mix, rate, args.seconds));
    let fixed_counters = session.scrape();
    // The ladder's figures are ungated, so only the traced run pays for it.
    let (sustained_rps, probes) = if args.trace {
        spans.time("serve.ladder", |_| session.ladder(ctx, mix, args.seconds / 8.0))
    } else {
        (f64::NAN, Vec::new())
    };
    let router_overhead_us = if args.trace {
        spans.time("serve.router_overhead", |_| session.router_overhead_us(ctx, 300))
    } else {
        f64::NAN
    };
    // Peak shard memory while serving, read before any reload: reloads
    // briefly hold two models, and how many depends on which workers
    // happened to be idle.
    let shard_rss_mb = session.fleet.shard_peak_rss_mb();
    // serve-stream ingests beside reads before its reloads, so they rebind
    // a log; the read-only fleets reload at once.
    let tail_secs = if w.stream() { args.seconds / 2.0 } else { 0.0 };
    let tail = spans.time("serve.tail_reload", |_| {
        session.tail_with_reload(ctx, mix, TAIL_RATE, tail_secs, ddm)
    });
    let reload_s = median(&session.reload_s);
    let reload_rss_mb = session.fleet.shard_peak_rss_mb();
    let end_counters = session.scrape();
    let stop_error = session.fleet.stop().err();
    Ok(Served {
        fixed,
        tail,
        sustained_rps,
        probes,
        cpu_us_per_req,
        setup_starts,
        reload_s,
        shard_rss_mb,
        reload_rss_mb,
        fixed_counters,
        end_counters,
        router_overhead_us,
        session,
        stop_error,
    })
}

/// A per-layer metric: name, value, unit, and the end-to-end metric and
/// workload it should move.
type Layer = (&'static str, f64, &'static str, &'static str);

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ds: &inputs::Dataset,
    cfg: &deepdirect::DeepDirectConfig,
    model: &Arc<deepdirect::DirectionalityModel>,
    ddm: &Path,
    events: &[TieEvent],
    served: &Served,
    hit_ratio: f64,
    spans: &mut Spans,
) -> Vec<Layer> {
    let t = spans.time("layers.train", |_| train::layers(ds, cfg));
    let (save_s, load_s) = spans.time("layers.binfmt", |_| train::binfmt_times(model, ddm, 3));
    let s = &served.session;
    let keys: Vec<(u32, u32)> = s.reads.iter().flat_map(|r| r.pairs.iter().copied()).collect();
    let sc = spans.time("layers.scoring", |_| layers::scoring(model, &keys));
    let wire = spans.time("layers.wire", |_| {
        layers::wire(model, &served.fixed.read_requests, &served.fixed.read_bodies)
    });
    // A read-only fleet ingested nothing: its streaming layers take the
    // batches serve-stream sends from the same event stream.
    let fallback: Vec<Vec<TieEvent>>;
    let batches = if s.batches.is_empty() {
        fallback = events
            .chunks(serve::EVENTS_PER_INGEST)
            .take(STREAM_LAYER_BATCHES)
            .map(<[TieEvent]>::to_vec)
            .collect();
        &fallback
    } else {
        &s.batches
    };
    let st = spans.time("layers.stream", |_| layers::streaming(model, batches));
    let c = |k: &str| served.end_counters.get(k).copied().unwrap_or(0.0);
    let lag = Dist::of(&served.fixed.lag);
    let train_s = "train_s @ train-paper";
    let admission = "sustained_rps, failed @ every workload";
    let read_path = "fleet_cpu_us_per_req, score/batch_service_p50_ms @ serve-trained";
    let scoring = "fleet_cpu_us_per_req, batch_service_p50_ms @ serve-trained";
    let stream = "fleet_cpu_us_per_req, ingest_service_p50_ms @ serve-stream";
    let live_dynamic = s.live_dynamic.map_or(0.0, |v| v as f64);
    vec![
        ("universe.build_s", t.universe_build_s, "s", train_s),
        ("estep.train_s", t.estep_train_s, "s", "train_s, direction_acc @ train-paper"),
        ("estep.iters_per_s", t.estep_iters_per_s, "1/s", "train_s, direction_acc @ train-paper"),
        ("dstep.train_s", t.dstep_train_s, "s", train_s),
        ("binfmt.save_s", save_s, "s", train_s),
        ("binfmt.load_s", load_s, "s", "setup_s, reload_s @ every workload"),
        ("foldin.build_s", st.foldin_build_s, "s", "reload_s @ serve-stream"),
        ("stream.rebind_s", st.rebind_s, "s", "reload_s @ serve-stream"),
        ("client.connect_us", median(&served.fixed.connect_us), "us", read_path),
        ("client.ttfb_us", median(&served.fixed.ttfb_us), "us", read_path),
        ("router.overhead_us", served.router_overhead_us, "us", read_path),
        ("http.parse_us", wire.parse_us, "us", read_path),
        ("http.write_us", wire.write_us, "us", read_path),
        ("serialize_us", wire.serialize_us, "us", read_path),
        ("model.lookup_ns", sc.lookup_ns, "ns", scoring),
        ("kernel.score_ns", sc.kernel_ns, "ns", scoring),
        ("cache.get_ns", sc.cache_get_ns, "ns", scoring),
        ("cache.insert_ns", sc.cache_insert_ns, "ns", scoring),
        ("cache.hit_ratio", hit_ratio, "ratio", scoring),
        ("stream.apply_us", st.apply_us, "us", stream),
        (
            "foldin.score_us",
            st.foldin_score_us,
            "us",
            "batch_p99_ms, batch_service_p50_ms @ serve-stream",
        ),
        ("foldin.head_in_degree", st.head_in_degree, "count", "context for foldin.score_us"),
        ("ingest.invalidations", c("dd_serve_ingest_invalidations_total"), "count", stream),
        ("stream.live_dynamic", live_dynamic, "count", stream),
        (
            "queue.rejections",
            c("dd_serve_rejected_queue_full_total") + c("dd_router_rejected_queue_full_total"),
            "count",
            admission,
        ),
        ("router.failovers", c("dd_router_failovers_total"), "count", admission),
        (
            "router.retries",
            c("dd_router_retry_refused_total")
                + c("dd_router_retry_transport_total")
                + c("dd_router_retry_over_capacity_total"),
            "count",
            admission,
        ),
        ("gen.lag_p99_ms", lag.p99, "ms", "validity of every latency"),
        ("gen.sent", s.sent as f64, "count", "validity of every latency"),
    ]
}

fn print_layer_table(layers: &[Layer]) {
    println!("# {:<22} {:>16} {:<6} should move", "layer metric", "value", "unit");
    for (name, value, unit, moves) in layers {
        println!("# {name:<22} {value:>16.4} {unit:<6} {moves}");
    }
}

/// Tracing overhead: this traced run's end-to-end figures against the
/// last untraced run of the same workload.
fn print_overhead(untraced_path: &Path, traced: &[Metric]) {
    let Ok(text) = std::fs::read_to_string(untraced_path) else {
        println!("# tracing overhead: no untraced run of this workload recorded yet");
        return;
    };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) else { return };
    for (name, value, unit) in traced {
        let base = v.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value"));
        let base = base.and_then(|x| x.as_f64());
        if let Some(base) = base {
            println!(
                "# tracing overhead {name}: untraced {base:.4} traced {value:.4} {unit} ({:+.1}%)",
                (value - base) / base * 100.0
            );
        }
    }
}
