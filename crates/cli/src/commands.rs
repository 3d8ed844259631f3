//! Subcommand implementations for the `deepdirect` CLI.
//!
//! | command | action |
//! |---|---|
//! | `train <edges> --out model.ddm` | fit DeepDirect on an edge list, write the `.ddm` |
//! | `predict <model> <src> <dst>` | print `d(src, dst)` and `d(dst, src)` |
//! | `discover <edges> [--model m]` | orient every undirected tie (Eq. 28) |
//! | `quantify <edges> [--model m]` | print the directionality adjacency entries for bidirectional ties |
//! | `generate <dataset> --out f` | write a synthetic dataset analog |
//! | `stats <edges>` | dataset statistics (Table 2 columns) |
//! | `score <model> <src> <dst>` | print one raw score (machine-readable) |
//! | `serve <model> --port P` | HTTP query server (see `dd-serve`) |
//! | `events <edges> --out f` | generate a temporal tie-event stream (JSONL) |
//! | `ingest --to ADDR` | pipe a tie-event log into a streaming `dd serve` |
//! | `ingest <model> --events f` | offline replay: fold a log into a frozen model |
//! | `eval <edges>` | direction-discovery accuracy per method (Sec. 6.2) |
//!
//! Edge-list format: `d|b|u <src> <dst>` per line (see `dd-graph::io`).
//!
//! Worker threads for every parallel stage resolve as `--threads` flag,
//! then the `DD_THREADS` environment variable, then serial (DESIGN.md §7.9).

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dd_datasets::all_datasets;
use dd_datasets::DatasetStats;
use dd_eval::runner::{evaluate_methods, Method};
use dd_graph::io::{load_edge_list, save_edge_list};
use dd_graph::sampling::hide_directions;
use dd_graph::{MixedSocialNetwork, NodeId};
use dd_runtime::Threads;
use deepdirect::apps::discovery::discover_directions;
use deepdirect::telemetry::{Event, Fanout, JsonlSink, ObserverHandle, ProgressSink};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Args;

/// Runs a parsed command line; returns the text to print.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "train" => train(args),
        "predict" => predict(args),
        "discover" => discover(args),
        "quantify" => quantify(args),
        "generate" => generate(args),
        "stats" => stats(args),
        "score" => score(args),
        "serve" => serve(args),
        "events" => events_cmd(args),
        "ingest" => ingest(args),
        "eval" => eval(args),
        "trace" => trace_cmd(args),
        "profile" => profile(args),
        "help" | "" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

/// Usage text.
pub fn usage() -> String {
    "dd (deepdirect CLI) — tie direction learning (Wang et al., TKDE 2018)

USAGE:
  dd train   <edges>          --out <model.ddm> [--dim N] [--alpha A] [--beta B]
                                      [--iterations N] [--threads T] [--seed S]
  dd predict <model> <src> <dst>
  dd discover <edges>         [--model <model.ddm>] [--top N]
  dd quantify <edges>         [--model <model.ddm>] [--top N]
  dd generate <dataset>       --out <edges> [--scale K] [--seed S]
                                      (datasets: twitter livejournal epinions slashdot tencent)
  dd stats   <edges>          [--json]
  dd score   <model> <src> <dst>
                                      (machine-readable: prints the raw d(src,dst) value)
  dd serve   <model>          [--host H] [--port P] [--workers N] [--cache-size N]
                                      [--request-timeout-ms MS] [--queue-depth N] [--stream]
                                      (HTTP endpoints: /healthz /score /batch
                                       /admin/reload /metrics; --stream adds POST /ingest
                                       for live tie events, scored via fold-in)
  dd serve   <model> --shards N       fleet mode: spawns N shard processes and a
                                      rendezvous-hash router in front (--port is the
                                      router's; shards take ephemeral ports; ctrl-c
                                      drains router first, then shards)
  dd events  <edges>          --out <file.jsonl> [--count N] [--seed S] [--burstiness F]
                                      [--churn F] [--reciprocation F]
                                      (generate a temporal follow/unfollow/reciprocation
                                       event stream over the network — bursty arrivals,
                                       hot heads, churn; deterministic per seed)
  dd ingest  --to <addr>      [--events <file.jsonl>] [--batch N]
                                      (pipe a tie-event log — file or stdin — into a
                                       streaming `dd serve`/fleet as POST /ingest
                                       batches of N events, default 64)
  dd ingest  <model>          --events <file.jsonl> [--score SRC DST]
                                      (offline replay: fold the log into the frozen
                                       model and print applied/live counts + state
                                       digest; --score prints one raw fold-in score,
                                       byte-identical to the streaming server's)
  dd eval    <edges>          [--hide F] [--dim N] [--iterations N] [--methods a,b]
                                      [--threads T] [--seed S]
                                      (direction-discovery accuracy per method, Sec. 6.2)
  dd trace export <telemetry.jsonl>   --chrome <trace.json>
                                      (Chrome trace-event JSON for chrome://tracing / Perfetto)
  dd trace summarize <telemetry.jsonl>
                                      (per-stage self-time table + critical path)
  dd profile <command> [args…]        run any dd command with allocation counting
                                      enabled; appends wall/alloc/peak-RSS summary

THREADS:
  --threads T                 worker threads for parallel stages; falls back to
                              the DD_THREADS environment variable, then 1.
                              Results are bit-identical at any thread count
                              except Hogwild E-Step training (DESIGN.md §7.9).

TELEMETRY (train / discover / quantify / serve):
  --telemetry <file.jsonl>    write structured training events (spans,
                              estep.progress samples, dstep epochs)
  -v, --verbose               rate-limited human-readable progress on stderr
"
    .to_string()
}

/// Builds the observer from `--telemetry <path>` (JSONL sink) and
/// `-v`/`--verbose` (stderr progress sink). Disabled when neither is given.
fn telemetry_observer(args: &Args) -> Result<ObserverHandle, String> {
    let mut fan = Fanout::new();
    let path = args.get("telemetry", "");
    if !path.is_empty() {
        // A bare `--telemetry` parses as the boolean value "true", and
        // `--telemetry -v` would swallow the next flag — both are a missing
        // path, not a file to create.
        if path == "true" || path.starts_with('-') {
            return Err("flag --telemetry requires a file path (e.g. --telemetry out.jsonl)".into());
        }
        let sink = JsonlSink::create(&path)
            .map_err(|e| format!("opening telemetry file '{path}': {e}"))?;
        fan.push(Arc::new(sink));
    }
    if args.get_bool("verbose") || args.get_bool("v") {
        fan.push(Arc::new(ProgressSink::stderr()));
    }
    Ok(fan.into_handle())
}

/// Resolves worker threads from `--threads`, falling back to the
/// `DD_THREADS` environment variable, then serial (DESIGN.md §7.9).
fn resolve_threads(args: &Args) -> Result<Threads, String> {
    let flag = match args.flags.get("threads") {
        None => None,
        Some(v) => {
            Some(v.parse::<usize>().map_err(|_| format!("flag --threads: cannot parse '{v}'"))?)
        }
    };
    Threads::resolve(flag)
}

fn model_config(args: &Args) -> Result<DeepDirectConfig, String> {
    let mut cfg = DeepDirectConfig {
        dim: args.get_num("dim", 64usize)?,
        alpha: args.get_num("alpha", 5.0f32)?,
        beta: args.get_num("beta", 0.1f32)?,
        threads: resolve_threads(args)?.get(),
        seed: args.get_num("seed", 0xdeedu64)?,
        observer: telemetry_observer(args)?,
        ..Default::default()
    };
    let iterations: u64 = args.get_num("iterations", 0u64)?;
    if iterations > 0 {
        cfg.max_iterations = Some(iterations);
    }
    if args.get_bool("context-features") {
        cfg.context_features = true;
    }
    if let Some(v) = args.flags.get("progress-interval") {
        cfg.progress_interval =
            Some(v.parse().map_err(|_| format!("flag --progress-interval: cannot parse '{v}'"))?);
    }
    cfg.validate()?;
    Ok(cfg)
}

fn load_net(path: &str) -> Result<MixedSocialNetwork, String> {
    load_edge_list(path).map_err(|e| format!("loading '{path}': {e}"))
}

/// Runs `load` under a `model.load` telemetry span, and records the
/// artifact's size as a `model.load.bytes` metric so traces show effective
/// load bandwidth alongside the wall time.
fn load_traced<T>(
    path: &str,
    obs: &ObserverHandle,
    load: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let (loaded, _seconds) = obs.time("model.load", || load(path));
    if obs.is_enabled() {
        if let Ok(meta) = std::fs::metadata(path) {
            obs.on_event(&Event::metric("model.load.bytes", meta.len() as f64, Some("bytes")));
        }
    }
    loaded
}

/// Streams a `.ddm` into the score table a shard serves, under
/// [`load_traced`]'s telemetry; head scores only for a streaming shard.
fn load_table_traced(path: &str, obs: &ObserverHandle, stream: bool) -> Result<ScoreTable, String> {
    load_traced(path, obs, |p| ScoreTable::load_from_path(p, stream))
}

fn fit_or_load(args: &Args, g: &MixedSocialNetwork) -> Result<DirectionalityModel, String> {
    let model_path = args.get("model", "");
    if model_path.is_empty() {
        Ok(DeepDirect::new(model_config(args)?).fit(g))
    } else {
        // `load_from_path` names the offending path in schema/corruption
        // errors; tag the flag so the user knows where the path came from.
        load_traced(&model_path, &telemetry_observer(args)?, |p| {
            DirectionalityModel::load_from_path(p)
        })
        .map_err(|e| format!("flag --model: {e}"))
    }
}

fn train(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let out = args.flags.get("out").ok_or("train requires --out <model.ddm>")?;
    let g = load_net(input)?;
    let cfg = model_config(args)?;
    let model = DeepDirect::new(cfg).fit(&g);
    model.save_binary_to_path(out).map_err(|e| format!("writing '{out}': {e}"))?;
    Ok(format!(
        "trained on {} nodes / {} ties ({} E-Step iterations); model written to {out}\n{}",
        g.n_nodes(),
        g.counts().total(),
        model.estep_iterations(),
        model.fit_summary(),
    ))
}

fn predict(args: &Args) -> Result<String, String> {
    let model_path = args.positional(0, "model")?;
    let src: u32 = args.positional(1, "src")?.parse().map_err(|_| "src must be a node id")?;
    let dst: u32 = args.positional(2, "dst")?.parse().map_err(|_| "dst must be a node id")?;
    let table = load_table_traced(model_path, &telemetry_observer(args)?, false)?;
    let fwd = table.score(NodeId(src), NodeId(dst));
    let rev = table.score(NodeId(dst), NodeId(src));
    match (fwd, rev) {
        (Some(f), Some(r)) => {
            let dir = if f >= r { format!("{src} -> {dst}") } else { format!("{dst} -> {src}") };
            Ok(format!(
                "d({src},{dst}) = {f:.4}\nd({dst},{src}) = {r:.4}\npredicted direction: {dir}"
            ))
        }
        _ => Err(format!("tie between {src} and {dst} was not in the training network")),
    }
}

fn discover(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let g = load_net(input)?;
    if g.counts().undirected == 0 {
        return Err("network has no undirected ties to orient".into());
    }
    let model = fit_or_load(args, &g)?;
    let mut preds = discover_directions(&g, |u, v| model.score(u, v).unwrap_or(0.5));
    preds.sort_by(|a, b| b.margin().partial_cmp(&a.margin()).unwrap());
    let top: usize = args.get_num("top", preds.len())?;
    let mut out = format!("oriented {} undirected ties (most confident first):\n", preds.len());
    for p in preds.iter().take(top) {
        out.push_str(&format!(
            "{} -> {}   d = {:.4} vs {:.4}\n",
            p.src.0, p.dst.0, p.forward, p.backward
        ));
    }
    Ok(out)
}

fn quantify(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let g = load_net(input)?;
    if g.counts().bidirectional == 0 {
        return Err("network has no bidirectional ties to quantify".into());
    }
    let model = fit_or_load(args, &g)?;
    let mut rows: Vec<(f64, String)> = g
        .bidirectional_pairs()
        .map(|(_, u, v)| {
            let duv = model.score(u, v).unwrap_or(0.5);
            let dvu = model.score(v, u).unwrap_or(0.5);
            (
                (duv - dvu).abs(),
                format!("A[{}][{}] = {duv:.4}   A[{}][{}] = {dvu:.4}", u.0, v.0, v.0, u.0),
            )
        })
        .collect();
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let top: usize = args.get_num("top", rows.len())?;
    let mut out = format!(
        "directionality adjacency entries for {} bidirectional ties (most asymmetric first):\n",
        rows.len()
    );
    for (_, line) in rows.iter().take(top) {
        out.push_str(line);
        out.push('\n');
    }
    Ok(out)
}

fn generate(args: &Args) -> Result<String, String> {
    let name = args.positional(0, "dataset")?.to_lowercase();
    let out = args.flags.get("out").ok_or("generate requires --out <edges>")?;
    let scale: usize = args.get_num("scale", 150usize)?;
    let seed: u64 = args.get_num("seed", 7u64)?;
    let spec =
        all_datasets().into_iter().find(|s| s.name.to_lowercase() == name).ok_or_else(|| {
            format!("unknown dataset '{name}' (try: twitter livejournal epinions slashdot tencent)")
        })?;
    let g = spec.generate(scale, seed);
    save_edge_list(&g.network, out).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} analog ({} nodes, {} ties) to {out}",
        spec.name,
        g.network.n_nodes(),
        g.network.counts().total(),
    ))
}

fn stats(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let g = load_net(input)?;
    let s = DatasetStats::compute(input, &g);
    if args.get_bool("json") {
        // Machine-readable variant: one telemetry `network.stats` event.
        return serde_json::to_string(&s.to_event()).map_err(|e| e.to_string());
    }
    Ok(format!(
        "nodes: {}\nties: {} (directed {}, bidirectional {}, undirected {})\nreciprocity: {:.1}%\nties/node: {:.2}\nmax degree: {}",
        s.nodes, s.ties, s.directed, s.bidirectional, s.undirected,
        100.0 * s.reciprocity, s.ties_per_node, s.max_degree,
    ))
}

/// `dd score <model> <src> <dst>`: prints the raw `d(src, dst)` value with
/// Rust's shortest-round-trip `{}` formatting — textually identical to the
/// `score` field `dd serve` emits, so scripts (and CI) can diff the two.
fn score(args: &Args) -> Result<String, String> {
    let model_path = args.positional(0, "model")?;
    let src: u32 = args.positional(1, "src")?.parse().map_err(|_| "src must be a node id")?;
    let dst: u32 = args.positional(2, "dst")?.parse().map_err(|_| "dst must be a node id")?;
    let table = load_table_traced(model_path, &telemetry_observer(args)?, false)?;
    match table.score(NodeId(src), NodeId(dst)) {
        Some(v) => Ok(format!("{v}")),
        None => Err(format!("tie ({src},{dst}) was not in the training network")),
    }
}

/// `dd serve <model>`: blocks until SIGINT/SIGTERM, then drains gracefully.
/// With `--shards N` it becomes the fleet supervisor instead: N shard
/// processes behind an in-process router (see [`serve_fleet`]).
fn serve(args: &Args) -> Result<String, String> {
    let shards: usize = args.get_num("shards", 0usize)?;
    if shards > 0 {
        return serve_fleet(args, shards);
    }
    let model_path = args.positional(0, "model")?;
    let observer = serve_observer(args)?;
    let stream = args.get_bool("stream");
    let table = Arc::new(load_table_traced(model_path, &observer, stream)?);

    let host = args.get("host", "127.0.0.1");
    let port: u16 = args.get_num("port", 8080u16)?;
    let cfg = dd_serve::ServeConfig {
        addr: format!("{host}:{port}"),
        workers: args.get_num("workers", 4usize)?,
        cache_size: args.get_num("cache-size", 4096usize)?,
        request_timeout: Duration::from_millis(args.get_num("request-timeout-ms", 5000u64)?),
        queue_depth: args.get_num("queue-depth", 64usize)?,
        observer,
        stream,
        // Fault injection stays off in production; only tests flip it.
        panic_route: false,
    };

    dd_serve::signal::install_handlers();
    let handle = dd_serve::Server::start(table, cfg)?;
    // The parseable contract line: tooling (and the e2e test) reads the
    // resolved address from here, which is how `--port 0` is usable.
    println!("dd-serve listening on http://{}", handle.addr());
    if stream {
        println!(
            "endpoints: /healthz  /score?src=A&dst=B  /batch  /ingest  /metrics   (ctrl-c stops)"
        );
    } else {
        println!("endpoints: /healthz  /score?src=A&dst=B  /batch  /metrics   (ctrl-c stops)");
    }
    let _ = std::io::stdout().flush();

    while !dd_serve::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let served = handle.shutdown();
    Ok(format!("dd-serve: drained and stopped after {served} requests"))
}

/// Request-log observer for `serve`: appends to `--telemetry <file.jsonl>`
/// (append, not truncate — so one file can hold the `train` run followed by
/// the serving session's `serve.request` events).
fn serve_observer(args: &Args) -> Result<ObserverHandle, String> {
    let mut fan = Fanout::new();
    let path = args.get("telemetry", "");
    if !path.is_empty() {
        if path == "true" || path.starts_with('-') {
            return Err("flag --telemetry requires a file path (e.g. --telemetry out.jsonl)".into());
        }
        let sink = JsonlSink::append(&path)
            .map_err(|e| format!("opening telemetry file '{path}': {e}"))?;
        fan.push(Arc::new(sink));
    }
    Ok(fan.into_handle())
}

/// `dd serve <model> --shards N`: fleet mode. Spawns N shard processes of
/// this same binary (`dd serve <model> --port 0`) at once, parses each
/// shard's listening line for its resolved address, fronts them with an
/// in-process rendezvous-hash router, and supervises the children: an
/// unexpected shard exit is reported (the router fails over to the
/// survivors), and SIGINT drains the router first, then cascades SIGINT to
/// every shard (DESIGN.md §7.14 drain ordering).
fn serve_fleet(args: &Args, shards: usize) -> Result<String, String> {
    use std::io::Read;

    let model_path = args.positional(0, "model")?;
    let host = args.get("host", "127.0.0.1");
    let port: u16 = args.get_num("port", 8080u16)?;
    let workers: usize = args.get_num("workers", 4usize)?;
    let observer = serve_observer(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;

    // Install handlers before spawning so a SIGINT during startup still
    // reaches the cleanup path below.
    dd_serve::signal::install_handlers();

    let kill_all = |children: &mut Vec<std::process::Child>| {
        for child in children.iter_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    };

    // Each shard loads the model itself on an ephemeral port; stderr is
    // inherited so shard failures surface in the supervisor's terminal.
    let mut shard_args: Vec<String> = [
        "serve",
        model_path,
        "--host",
        &host,
        "--port",
        "0",
        "--workers",
        &workers.to_string(),
        "--cache-size",
        &args.get_num("cache-size", 4096usize)?.to_string(),
        "--request-timeout-ms",
        &args.get_num("request-timeout-ms", 5000u64)?.to_string(),
        "--queue-depth",
        &args.get_num("queue-depth", 64usize)?.to_string(),
    ]
    .map(str::to_string)
    .to_vec();
    if args.get_bool("stream") {
        // Every shard folds in the same event stream: the router fans
        // `/ingest` to all of them, keeping their overlays identical.
        shard_args.push("--stream".to_string());
    }

    // Spawn every shard first so they load the model concurrently: a cold
    // start costs the slowest shard's load, not the sum of them.
    let mut children: Vec<std::process::Child> = Vec::with_capacity(shards);
    for i in 0..shards {
        let spawned = std::process::Command::new(&exe)
            .args(&shard_args)
            .stdout(std::process::Stdio::piped())
            .spawn();
        match spawned {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_all(&mut children);
                return Err(format!("spawning shard {i}: {e}"));
            }
        }
    }

    // Then read each shard's listening line in index order, so the
    // `shard i … listening` lines come out in order. Any failure reaps
    // every spawned shard, not only those already read.
    let mut shard_addrs = Vec::with_capacity(shards);
    // Shard stdout readers stay alive for the whole fleet lifetime:
    // dropping one closes the pipe, and the shard's own drain summary
    // would then die on a broken stdout instead of exiting cleanly.
    let mut readers = Vec::with_capacity(shards);
    for i in 0..shards {
        let pid = children[i].id();
        let listening = match children[i].stdout.take() {
            Some(stdout) => {
                let mut reader = std::io::BufReader::new(stdout);
                read_listening_line(&mut reader, i, model_path).map(|addr| (addr, reader))
            }
            None => Err(format!("shard {i}: no stdout pipe")),
        };
        let (addr, reader) = match listening {
            Ok(found) => found,
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        };
        println!("shard {i} (pid {pid}) listening on http://{addr}");
        shard_addrs.push(addr);
        readers.push(reader);
    }

    let router_cfg = dd_serve::RouterConfig {
        addr: format!("{host}:{port}"),
        shards: shard_addrs,
        workers,
        queue_depth: args.get_num("queue-depth", 64usize)?,
        request_timeout: Duration::from_millis(args.get_num("request-timeout-ms", 5000u64)?),
        observer,
        ..Default::default()
    };
    let router = match dd_serve::Router::start(router_cfg) {
        Ok(r) => r,
        Err(e) => {
            kill_all(&mut children);
            return Err(e);
        }
    };
    // The parseable contract line, mirroring single-process `dd serve`.
    println!("dd-router listening on http://{}", router.addr());
    if args.get_bool("stream") {
        println!(
            "fleet: {shards} shards  routes: /healthz /score /batch /ingest /admin/reload /metrics   (ctrl-c drains)"
        );
    } else {
        println!(
            "fleet: {shards} shards  routes: /healthz /score /batch /admin/reload /metrics   (ctrl-c drains)"
        );
    }
    let _ = std::io::stdout().flush();

    // Supervision loop: poll for shutdown and reap shards that die early.
    // A dead shard is not fatal — the router quarantines it and answers
    // from the survivors — but it is loudly reported.
    let mut exited = vec![false; children.len()];
    while !dd_serve::signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
        for (i, child) in children.iter_mut().enumerate() {
            if exited[i] {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                exited[i] = true;
                eprintln!(
                    "dd-serve: shard {i} exited unexpectedly ({status}); \
                     router fails over to the survivors"
                );
            }
        }
    }

    // Drain ordering: router first (it finishes queued forwards against
    // still-live shards), then cascade SIGINT to the shards and wait.
    let served = router.shutdown();
    let mut drained = 0usize;
    for (i, mut child) in children.into_iter().enumerate() {
        if exited[i] {
            continue;
        }
        if !dd_serve::signal::interrupt_process(child.id()) {
            let _ = child.kill();
        }
        // Drain the shard's remaining stdout (its own drain summary) so
        // the pipe empties before we reap it.
        let mut tail = String::new();
        let _ = readers[i].read_to_string(&mut tail);
        if matches!(child.wait(), Ok(status) if status.success()) {
            drained += 1;
        }
    }
    Ok(format!(
        "dd-fleet: drained and stopped after {served} routed requests \
         ({drained}/{shards} shards drained cleanly)"
    ))
}

/// Reads shard `i`'s stdout up to its `dd-serve listening on http://ADDR`
/// contract line and returns `ADDR`.
fn read_listening_line(
    reader: &mut impl std::io::BufRead,
    i: usize,
    model_path: &str,
) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                return Err(format!(
                    "shard {i} exited before printing its listening line (is '{model_path}' \
                     a valid model?)"
                ))
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("dd-serve listening on http://") {
                    return Ok(rest.to_string());
                }
            }
            Err(e) => return Err(format!("reading shard {i} stdout: {e}")),
        }
    }
}

/// `dd events <edges> --out <file.jsonl>`: generates a temporal
/// follow/unfollow/reciprocation event stream over the network — bursty
/// arrivals on hot heads, new-arrival followers, tie churn — and writes it
/// as the JSONL wire format `dd ingest` and `POST /ingest` consume. The
/// stream is a pure function of `(network, seed, config)` (DESIGN.md §7.15).
fn events_cmd(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let out = args.flags.get("out").ok_or("events requires --out <file.jsonl>")?;
    let g = load_net(input)?;
    let cfg = dd_datasets::EventStreamConfig {
        count: args.get_num("count", 256usize)?,
        seed: args.get_num("seed", 7u64)?,
        burstiness: args.get_num("burstiness", 0.7f64)?,
        churn: args.get_num("churn", 0.15f64)?,
        reciprocation: args.get_num("reciprocation", 0.1f64)?,
    };
    cfg.validate()?;
    let events = dd_datasets::temporal_event_stream(&g, &cfg);
    std::fs::write(out, dd_stream::to_jsonl(&events))
        .map_err(|e| format!("writing '{out}': {e}"))?;
    let follows = events.iter().filter(|e| e.op != dd_stream::EventOp::Unfollow).count();
    Ok(format!(
        "wrote {} events ({follows} follows/reciprocations, {} unfollows, seed {}) to {out}",
        events.len(),
        events.len() - follows,
        cfg.seed,
    ))
}

/// `dd ingest`: two modes sharing the same event-log wire format.
///
/// - **Online** (`--to <addr>`): reads a JSONL tie-event log from
///   `--events <file>` or stdin and POSTs it to a streaming server's
///   `/ingest` in batches of `--batch` events. Prints the applied /
///   invalidated totals and the server's final state digest.
/// - **Offline replay** (`<model> --events <file>`): loads the score table
///   a streaming shard loads and folds the log into it with the same
///   [`dd_stream::StreamEngine`] the server runs, printing applied/live
///   counts and the state digest — the digest must equal the online run's,
///   which is how `serve_e2e.rs` proves replay determinism. `--score SRC DST` instead prints the single
///   raw fold-in score with `{}` formatting, byte-identical to the server's
///   JSON field.
fn ingest(args: &Args) -> Result<String, String> {
    let events_path = args.get("events", "");
    let read_log = || -> Result<Vec<dd_stream::TieEvent>, String> {
        if events_path.is_empty() {
            dd_stream::read_events(std::io::stdin().lock())
                .map_err(|e| format!("reading event log from stdin: {e}"))
        } else {
            let text = std::fs::read_to_string(&events_path)
                .map_err(|e| format!("reading '{events_path}': {e}"))?;
            dd_stream::parse_events(&text).map_err(|e| format!("'{events_path}': {e}"))
        }
    };

    let to = args.get("to", "");
    if !to.is_empty() {
        // Online mode: stream the log into a live server in batches.
        let events = read_log()?;
        if events.is_empty() {
            return Err("ingest: the event log is empty".into());
        }
        let batch: usize = args.get_num("batch", 64usize)?;
        if batch == 0 {
            return Err("flag --batch must be positive".into());
        }
        let mut applied = 0usize;
        let mut invalidated = 0usize;
        let mut last: Option<dd_serve::IngestResponse> = None;
        for chunk in events.chunks(batch) {
            let resp = dd_serve::client::post(&to, "/ingest", &dd_stream::to_jsonl(chunk))?;
            if resp.status != 200 {
                return Err(format!(
                    "ingest: server rejected a batch with {}: {}",
                    resp.status,
                    resp.body.trim(),
                ));
            }
            let parsed: dd_serve::IngestResponse = serde_json::from_str(&resp.body)
                .map_err(|e| format!("ingest: unparseable /ingest response: {e}"))?;
            applied += parsed.applied;
            invalidated += parsed.invalidated;
            last = Some(parsed);
        }
        // events is non-empty and batch > 0, so at least one chunk ran.
        let Some(last) = last else {
            return Err("ingest: no batches were sent".into());
        };
        return Ok(format!(
            "ingested {applied} events in {} batches ({invalidated} cache entries \
             invalidated, {} live dynamic ties)\ndigest: {}",
            events.len().div_ceil(batch),
            last.live_dynamic,
            last.digest,
        ));
    }

    // Offline replay mode: fold the log into the model locally.
    let model_path = args.positional(0, "model").map_err(|_| {
        "ingest needs either --to <addr> (online) or <model> --events <file> (offline replay)"
            .to_string()
    })?;
    if events_path.is_empty() {
        return Err("offline replay requires --events <file.jsonl>".into());
    }
    let table = load_table_traced(model_path, &telemetry_observer(args)?, true)?;
    let events = read_log()?;
    let mut engine = dd_stream::StreamEngine::over(Arc::new(table));
    engine.apply_all(&events);

    if let Some(src_s) = args.flags.get("score") {
        // `--score SRC DST`: SRC rides as the flag value, DST as the next
        // positional. Prints the raw value alone, exactly like `dd score`.
        let src: u32 = src_s.parse().map_err(|_| "flag --score expects a node id")?;
        let dst: u32 = args.positional(1, "dst")?.parse().map_err(|_| "dst must be a node id")?;
        let mut scratch = Vec::new();
        return match engine.score(NodeId(src), NodeId(dst), &mut scratch) {
            Some(v) => Ok(format!("{v}")),
            None => Err(format!("tie ({src},{dst}) is neither trained nor live in the log")),
        };
    }
    Ok(format!(
        "replayed {} events ({} applied, {} live dynamic ties, {} trained ties removed)\ndigest: {:016x}",
        events.len(),
        engine.events_applied(),
        engine.live_dynamic(),
        engine.removed_trained(),
        engine.state_digest(),
    ))
}

/// `dd eval <edges>`: hides the direction of `--hide` of the directed ties,
/// fits each method on the degraded network, and prints direction-discovery
/// accuracy (the protocol of Sec. 6.2). Methods run concurrently on
/// `--threads` workers; each individual fit stays serial so the accuracies
/// are identical at any thread count (DESIGN.md §7.9).
fn eval(args: &Args) -> Result<String, String> {
    let input = args.positional(0, "edges")?;
    let g = load_net(input)?;
    let hide: f64 = args.get_num("hide", 0.5f64)?;
    if !(0.0..1.0).contains(&hide) {
        return Err(format!("flag --hide must be in [0, 1), got {hide}"));
    }
    let seed: u64 = args.get_num("seed", 0xdeedu64)?;
    let threads = resolve_threads(args)?;

    let mut methods = Method::suite(args.get_num("dim", 32usize)?, seed);
    let iterations: u64 = args.get_num("iterations", 0u64)?;
    if iterations > 0 {
        for m in &mut methods {
            if let Method::DeepDirect(cfg) = m {
                cfg.max_iterations = Some(iterations);
            }
        }
    }
    let only = args.get("methods", "");
    if !only.is_empty() {
        let wanted: Vec<String> = only.split(',').map(|w| w.trim().to_lowercase()).collect();
        methods.retain(|m| wanted.iter().any(|w| m.name().to_lowercase().starts_with(w.as_str())));
        if methods.is_empty() {
            return Err(format!("flag --methods matched no method in '{only}'"));
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let hidden = hide_directions(&g, 1.0 - hide, &mut rng);
    let obs = telemetry_observer(args)?;
    let results = evaluate_methods(&methods, &hidden, threads, &obs);

    let mut out = format!(
        "direction discovery on {input} ({} nodes, {} hidden ties, {} worker threads):\n",
        g.n_nodes(),
        hidden.truth.len(),
        threads.get(),
    );
    for (name, acc) in &results {
        out.push_str(&format!("  {name:<16} accuracy {acc:.4}\n"));
    }
    Ok(out)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // dd-lint: allow(trace-hygiene) — profile stage timing is this
    // command's output, not an untraced side channel.
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// `dd trace export|summarize <telemetry.jsonl>`: post-processes a JSONL
/// event stream written by `--telemetry` into a Chrome trace-event file or a
/// per-stage critical-path table.
fn trace_cmd(args: &Args) -> Result<String, String> {
    let sub = args.positional(0, "trace subcommand (export|summarize)")?;
    let path = args.positional(1, "telemetry.jsonl")?;
    let events = deepdirect::telemetry::read_jsonl(path)?;
    match sub {
        "export" => {
            let out = args
                .flags
                .get("chrome")
                .ok_or("trace export requires --chrome <trace.json> (Chrome trace-event JSON)")?;
            let n = events
                .iter()
                .filter(|e| {
                    e.kind == deepdirect::telemetry::kind::SPAN || e.kind == "serve.request"
                })
                .count();
            let json = deepdirect::telemetry::export::chrome_trace(&events);
            std::fs::write(out, &json).map_err(|e| format!("writing '{out}': {e}"))?;
            Ok(format!(
                "wrote Chrome trace ({n} events) to {out}\nopen it in chrome://tracing or https://ui.perfetto.dev"
            ))
        }
        "summarize" => Ok(deepdirect::telemetry::export::summarize(&events)),
        other => Err(format!("unknown trace subcommand '{other}' (expected export|summarize)")),
    }
}

/// `dd profile <command> [args…]`: re-dispatches to any other command with
/// allocation counting enabled (the `dd` binary installs
/// [`deepdirect::telemetry::alloc::CountingAlloc`] as its global allocator)
/// and appends a resource summary. Flags pass through to the inner command.
fn profile(args: &Args) -> Result<String, String> {
    let inner_cmd = args.positional(0, "command to profile")?.to_string();
    if inner_cmd == "profile" {
        return Err("dd profile does not nest".into());
    }
    deepdirect::telemetry::alloc::enable_profiling();
    let inner = Args {
        command: inner_cmd,
        positional: args.positional[1..].to_vec(),
        flags: args.flags.clone(),
    };
    let (a0, b0) = deepdirect::telemetry::alloc::alloc_totals();
    let (result, seconds) = timed(|| run(&inner));
    let (a1, b1) = deepdirect::telemetry::alloc::alloc_totals();
    let out = result?;
    let mut summary = format!(
        "{out}\n--- dd profile: {} ---\nwall        {seconds:.3} s\nallocations {} calls, {} bytes",
        inner.command,
        a1 - a0,
        b1 - b0,
    );
    if let Some(rss) = deepdirect::telemetry::alloc::peak_rss_bytes() {
        summary.push_str(&format!("\npeak RSS    {rss} bytes"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::NetworkBuilder;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("dd_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().to_string()
    }

    fn demo_network_file() -> String {
        let mut b = NetworkBuilder::new(6);
        b.add_directed(NodeId(0), NodeId(1)).unwrap();
        b.add_directed(NodeId(1), NodeId(2)).unwrap();
        b.add_directed(NodeId(2), NodeId(3)).unwrap();
        b.add_directed(NodeId(3), NodeId(4)).unwrap();
        b.add_bidirectional(NodeId(4), NodeId(5)).unwrap();
        b.add_undirected(NodeId(5), NodeId(0)).unwrap();
        let g = b.build().unwrap();
        // One file per call: tests run in parallel, and a shared path would
        // let one test read a file another is rewriting.
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = tmp(&format!("demo_{n}.edges"));
        save_edge_list(&g, &path).unwrap();
        path
    }

    fn run_words(words: &[&str]) -> Result<String, String> {
        run(&Args::parse(words.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_words(&["help"]).unwrap().contains("USAGE"));
        for word in ["frobnicate", "bench", "export"] {
            let err = run_words(&[word]).unwrap_err();
            assert!(err.contains("unknown command"), "{word}: {err}");
            assert!(!usage().contains(&format!("dd {word}")), "usage lists '{word}'");
        }
    }

    #[test]
    fn stats_reports_counts() {
        let path = demo_network_file();
        let out = run_words(&["stats", &path]).unwrap();
        assert!(out.contains("nodes: 6"));
        assert!(out.contains("directed 4"));
        assert!(out.contains("bidirectional 1"));
    }

    #[test]
    fn stats_json_emits_network_stats_event() {
        let path = demo_network_file();
        let out = run_words(&["stats", &path, "--json"]).unwrap();
        let event: deepdirect::telemetry::Event = serde_json::from_str(&out).unwrap();
        assert_eq!(event.kind, deepdirect::telemetry::kind::NETWORK_STATS);
        assert_eq!(event.schema, deepdirect::telemetry::SCHEMA_VERSION);
        let fields = event.fields.unwrap();
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|&(_, v)| v).unwrap();
        assert_eq!(get("nodes"), 6.0);
        assert_eq!(get("directed"), 4.0);
        assert_eq!(get("bidirectional"), 1.0);
        assert_eq!(get("undirected"), 1.0);
    }

    #[test]
    fn train_with_telemetry_writes_spans_and_progress() {
        let edges = demo_network_file();
        let model = tmp("telemetry_model.ddm");
        let jsonl = tmp("telemetry.jsonl");
        run_words(&[
            "train",
            &edges,
            "--out",
            &model,
            "--dim",
            "8",
            "--iterations",
            "3000",
            "--telemetry",
            &jsonl,
            "-v",
        ])
        .unwrap();
        let events = deepdirect::telemetry::read_jsonl(&jsonl).unwrap();
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == deepdirect::telemetry::kind::SPAN)
            .filter_map(|e| e.name.as_deref())
            .collect();
        for expected in ["universe.build", "estep.train", "dstep.train"] {
            assert!(span_names.contains(&expected), "missing span {expected}: {span_names:?}");
        }
        let progress: Vec<_> = events
            .iter()
            .filter(|e| e.kind == deepdirect::telemetry::kind::ESTEP_PROGRESS)
            .collect();
        assert!(!progress.is_empty(), "at least one estep.progress event");
        let mut prev = 0u64;
        for p in &progress {
            let it = p.iteration.unwrap();
            assert!(it > prev, "iteration must increase: {prev} then {it}");
            prev = it;
            assert!(p.sampled_loss.unwrap().is_finite());
        }
        assert!(events.iter().any(|e| e.kind == deepdirect::telemetry::kind::DSTEP_EPOCH));
    }

    #[test]
    fn bare_telemetry_flag_is_a_clean_error() {
        let edges = demo_network_file();
        // `--telemetry` parses as the boolean "true"; it must not create a
        // JSONL file literally named `true`.
        let model = tmp("bare_flag_model.ddm");
        let err = run_words(&["train", &edges, "--out", &model, "--telemetry"]).unwrap_err();
        assert!(err.contains("requires a file path"), "{err}");
        assert!(!std::path::Path::new("true").exists());
    }

    #[test]
    fn train_predict_roundtrip() {
        let edges = demo_network_file();
        let model = tmp("model.ddm");
        let out =
            run_words(&["train", &edges, "--out", &model, "--dim", "8", "--iterations", "3000"])
                .unwrap();
        assert!(out.contains("trained"));
        // `train --out` writes the `.ddm` container.
        assert!(std::fs::read(&model).unwrap().starts_with(&deepdirect::binfmt::MAGIC));
        let pred = run_words(&["predict", &model, "0", "1"]).unwrap();
        assert!(pred.contains("predicted direction"));
        // Unknown pair errors cleanly.
        assert!(run_words(&["predict", &model, "0", "3"]).is_err());
    }

    #[test]
    fn score_prints_raw_machine_readable_value() {
        let edges = demo_network_file();
        let model = tmp("score_model.ddm");
        run_words(&["train", &edges, "--out", &model, "--dim", "8", "--iterations", "3000"])
            .unwrap();
        let out = run_words(&["score", &model, "0", "1"]).unwrap();
        // Bare float, shortest-round-trip formatting: parses back bit-exactly
        // to the in-process score.
        let printed: f64 = out.trim().parse().expect("bare parseable float");
        let loaded = DirectionalityModel::load_from_path(&model).unwrap();
        let direct = loaded.score(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(printed.to_bits(), direct.to_bits());
        // Unknown ties error instead of printing a default.
        assert!(run_words(&["score", &model, "0", "3"]).is_err());
    }

    #[test]
    fn model_load_span_lands_in_telemetry() {
        let edges = demo_network_file();
        let model = tmp("load_span_model.ddm");
        run_words(&["train", &edges, "--out", &model, "--dim", "8", "--iterations", "3000"])
            .unwrap();
        let jsonl = tmp("load_span.jsonl");
        run_words(&["score", &model, "0", "1", "--telemetry", &jsonl]).unwrap();
        let events = deepdirect::telemetry::read_jsonl(&jsonl).unwrap();
        let span = events
            .iter()
            .find(|e| {
                e.kind == deepdirect::telemetry::kind::SPAN
                    && e.name.as_deref() == Some("model.load")
            })
            .expect("model.load span missing");
        assert!(span.seconds.unwrap() >= 0.0);
        let bytes = events
            .iter()
            .find(|e| e.name.as_deref() == Some("model.load.bytes"))
            .expect("model.load.bytes metric missing");
        assert_eq!(
            bytes.value.map(|v| v as u64),
            Some(std::fs::metadata(&model).unwrap().len()),
            "metric must carry the artifact size"
        );
    }

    #[test]
    fn discover_and_quantify_run() {
        let edges = demo_network_file();
        let out = run_words(&["discover", &edges, "--dim", "8", "--iterations", "3000"]).unwrap();
        assert!(out.contains("oriented 1 undirected ties"));
        let out = run_words(&["quantify", &edges, "--dim", "8", "--iterations", "3000"]).unwrap();
        assert!(out.contains("bidirectional ties"));
        assert!(out.contains("A[4][5]") || out.contains("A[5][4]"));
    }

    #[test]
    fn generate_writes_dataset() {
        let out_path = tmp("twitter.edges");
        let out =
            run_words(&["generate", "twitter", "--out", &out_path, "--scale", "600"]).unwrap();
        assert!(out.contains("Twitter analog"));
        let g = load_edge_list(&out_path).unwrap();
        assert!(g.n_nodes() >= 50);
        // Unknown dataset errors.
        assert!(run_words(&["generate", "myspace", "--out", &out_path]).is_err());
    }

    #[test]
    fn eval_reports_per_method_accuracy() {
        let path = tmp("eval_net.edges");
        // A network big enough that HF and the ReDirect baselines have
        // signal to work with; fast methods only to keep the test quick.
        let out = run_words(&["generate", "twitter", "--out", &path, "--scale", "400"]).unwrap();
        assert!(out.contains("wrote"));
        let out = run_words(&[
            "eval",
            &path,
            "--hide",
            "0.5",
            "--methods",
            "hf,redirect",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("2 worker threads"), "{out}");
        for name in ["HF", "ReDirect-N/sm", "ReDirect-T/sm"] {
            assert!(out.contains(name), "missing {name}: {out}");
        }
        assert!(!out.contains("DeepDirect"), "--methods must filter: {out}");
        // Degenerate flag values error cleanly.
        assert!(run_words(&["eval", &path, "--hide", "1.5"]).is_err());
        assert!(run_words(&["eval", &path, "--methods", "nosuch"]).is_err());
        assert!(run_words(&["eval", &path, "--threads", "0"]).is_err());
    }

    #[test]
    fn trace_export_and_summarize_consume_telemetry_jsonl() {
        let edges = demo_network_file();
        let model = tmp("trace_model.ddm");
        let jsonl = tmp("trace_telemetry.jsonl");
        run_words(&[
            "train",
            &edges,
            "--out",
            &model,
            "--dim",
            "8",
            "--iterations",
            "3000",
            "--telemetry",
            &jsonl,
        ])
        .unwrap();

        let chrome = tmp("trace.json");
        let out = run_words(&["trace", "export", &jsonl, "--chrome", &chrome]).unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let serde_json::Value::Array(events) = doc.get("traceEvents").unwrap() else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty(), "trace export produced no events");
        // The exported spans keep the training trace identity.
        assert!(std::fs::read_to_string(&chrome).unwrap().contains("\"trace_id\""));

        let table = run_words(&["trace", "summarize", &jsonl]).unwrap();
        assert!(table.contains("stage"), "{table}");
        assert!(table.contains("estep.train"), "{table}");
        assert!(table.contains("critical path: model.fit"), "{table}");

        // Missing flag / bad subcommand error cleanly.
        assert!(run_words(&["trace", "export", &jsonl]).unwrap_err().contains("--chrome"));
        assert!(run_words(&["trace", "frobnicate", &jsonl]).is_err());
    }

    #[test]
    fn profile_wraps_inner_commands_and_reports_resources() {
        let edges = demo_network_file();
        let out = run_words(&["profile", "stats", &edges]).unwrap();
        assert!(out.contains("nodes: 6"), "inner output preserved: {out}");
        assert!(out.contains("--- dd profile: stats ---"), "{out}");
        assert!(out.contains("wall"), "{out}");
        assert!(out.contains("allocations"), "{out}");
        // Inner errors surface as errors; nesting is rejected.
        assert!(run_words(&["profile", "frobnicate"]).is_err());
        assert!(run_words(&["profile", "profile", "stats"]).is_err());
        assert!(run_words(&["profile"]).unwrap_err().contains("command to profile"));
    }

    #[test]
    fn threads_flag_falls_back_to_dd_threads_env() {
        // Only the flag path is exercised here — mutating DD_THREADS would
        // race other tests in this binary; the env fallback itself is
        // covered by dd-runtime's Threads tests and the CI matrix.
        let words = vec!["train".to_string(), "x".to_string(), "--threads".to_string()];
        let args = Args::parse(words).unwrap();
        // A bare `--threads` parses as the boolean "true" and must not
        // silently become a thread count.
        assert!(resolve_threads(&args).is_err());
        let args =
            Args::parse(["train", "x", "--threads", "3"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(resolve_threads(&args).unwrap().get(), 3);
        let args = Args::parse(["train", "x"].iter().map(|s| s.to_string())).unwrap();
        // No flag: env or serial — either way it resolves to something valid.
        assert!(resolve_threads(&args).unwrap().get() >= 1);
    }

    #[test]
    fn missing_arguments_error_cleanly() {
        assert!(run_words(&["train"]).is_err());
        assert!(run_words(&["predict", "nofile.json"]).is_err());
        let edges = demo_network_file();
        assert!(run_words(&["train", &edges]).unwrap_err().contains("--out"));
    }

    #[test]
    fn events_writes_a_deterministic_jsonl_log() {
        let edges = demo_network_file();
        let log_a = tmp("events_a.jsonl");
        let log_b = tmp("events_b.jsonl");
        let out = run_words(&["events", &edges, "--out", &log_a, "--count", "40", "--seed", "5"])
            .unwrap();
        assert!(out.contains("wrote 40 events"), "{out}");
        run_words(&["events", &edges, "--out", &log_b, "--count", "40", "--seed", "5"]).unwrap();
        let a = std::fs::read_to_string(&log_a).unwrap();
        assert_eq!(a, std::fs::read_to_string(&log_b).unwrap(), "same seed, same bytes");
        let parsed = dd_stream::parse_events(&a).unwrap();
        assert_eq!(parsed.len(), 40, "the log round-trips through the wire parser");
        // Bad probabilities are rejected before any file is written.
        assert!(run_words(&["events", &edges, "--out", &log_a, "--churn", "2.0"]).is_err());
    }

    #[test]
    fn ingest_offline_replay_reports_state_and_scores() {
        let edges = demo_network_file();
        let model = tmp("replay_model.ddm");
        run_words(&["train", &edges, "--out", &model, "--dim", "8", "--iterations", "2000"])
            .unwrap();
        let log = tmp("replay_log.jsonl");
        std::fs::write(
            &log,
            "{\"op\":\"follow\",\"src\":50,\"dst\":1}\n\
             {\"op\":\"follow\",\"src\":51,\"dst\":2}\n\
             {\"op\":\"unfollow\",\"src\":51,\"dst\":2}\n",
        )
        .unwrap();
        let out = run_words(&["ingest", &model, "--events", &log]).unwrap();
        assert!(out.contains("replayed 3 events"), "{out}");
        assert!(out.contains("1 live dynamic ties"), "{out}");
        let again = run_words(&["ingest", &model, "--events", &log]).unwrap();
        assert_eq!(out, again, "offline replay is deterministic");
        // The live fold-in tie scores; the unfollowed one errors cleanly.
        let score = run_words(&["ingest", &model, "--events", &log, "--score", "50", "1"]).unwrap();
        let v: f64 = score.parse().expect("a raw float");
        assert!((0.0..=1.0).contains(&v), "{score}");
        assert!(run_words(&["ingest", &model, "--events", &log, "--score", "51", "2"]).is_err());
        // Neither --to nor a model path is a usage error, not a panic.
        let err = run_words(&["ingest"]).unwrap_err();
        assert!(err.contains("--to"), "{err}");
    }

    #[test]
    fn ingest_streams_a_log_into_a_live_server_matching_offline_replay() {
        let edges = demo_network_file();
        let model_path = tmp("ingest_model.ddm");
        run_words(&["train", &edges, "--out", &model_path, "--dim", "8", "--iterations", "2000"])
            .unwrap();
        let obs = Fanout::new().into_handle();
        let table = Arc::new(load_table_traced(&model_path, &obs, true).unwrap());
        let cfg = dd_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            stream: true,
            ..Default::default()
        };
        let handle = dd_serve::Server::start(table, cfg).unwrap();
        let addr = handle.addr().to_string();
        let log = tmp("ingest_log.jsonl");
        std::fs::write(
            &log,
            "{\"op\":\"follow\",\"src\":50,\"dst\":1}\n\
             {\"op\":\"reciprocate\",\"src\":51,\"dst\":2}\n\
             {\"op\":\"unfollow\",\"src\":51,\"dst\":2}\n",
        )
        .unwrap();
        let out = run_words(&["ingest", "--to", &addr, "--events", &log, "--batch", "2"]).unwrap();
        assert!(out.contains("ingested 3 events in 2 batches"), "{out}");
        // The server's post-ingest digest equals an offline replay of the
        // same log — the replay-determinism contract, end to end.
        let offline = run_words(&["ingest", &model_path, "--events", &log]).unwrap();
        assert_eq!(
            out.lines().last().unwrap(),
            offline.lines().last().unwrap(),
            "online and offline digests must match:\n{out}\n---\n{offline}"
        );
        // And the served fold-in score is byte-identical to the offline one.
        let served = dd_serve::client::get(&addr, "/score?src=50&dst=1").unwrap();
        assert_eq!(served.status, 200);
        let resp: dd_serve::ScoreResponse = serde_json::from_str(&served.body).unwrap();
        let offline_score =
            run_words(&["ingest", &model_path, "--events", &log, "--score", "50", "1"]).unwrap();
        let served_score = resp.score.expect("a streaming /score hit carries a score");
        assert_eq!(format!("{served_score}"), offline_score, "served vs offline replay score");
        handle.shutdown();
    }
}
