//! What every report records about the machine and the code, the span
//! recorder of traced runs, and the result line.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Machine and code identity, recorded in every report.
pub struct Env {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub git_revision: String,
    /// FNV-1a over the repository's Rust sources, for checkouts that are
    /// not git repositories.
    pub source_digest: String,
}

impl Env {
    pub fn collect() -> Env {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let nproc = command_line("nproc", &[])
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| cpuinfo.lines().filter(|l| l.starts_with("processor")).count());
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, m)| m.trim())
            .to_string();
        Env {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_revision: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "none (not a git checkout)".into()),
            source_digest: format!("{:016x}", source_digest()),
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(std::process::Stdio::null()).output().ok()?;
    let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !s.is_empty()).then_some(s)
}

fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src", "vendor"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// CPU time the hypervisor gave to other guests during the run, from
/// the `steal` column of `/proc/stat`. High steal slows every wall-clock
/// figure of the run.
pub struct Steal {
    start: Option<(u64, u64)>,
}

impl Steal {
    pub fn start() -> Steal {
        Steal { start: cpu_ticks() }
    }

    /// Steal as a percentage of all CPU time since [`Steal::start`].
    pub fn percent(&self) -> f64 {
        match (self.start, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64
            }
            _ => f64::NAN,
        }
    }
}

/// `(steal, total)` ticks of the aggregate `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Spans recorded around each call into a layer, kept in memory and
/// written out when the run ends. Disabled outside traced runs.
pub struct Spans {
    on: bool,
    t0: Instant,
    stack: Vec<usize>,
    pub list: Vec<Span>,
}

pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, t0: Instant::now(), stack: Vec::new(), list: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.list.len();
        let start_s = self.t0.elapsed().as_secs_f64();
        self.list.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.list[id].end_s = self.t0.elapsed().as_secs_f64();
        out
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_s(&self, i: usize) -> f64 {
        let s = &self.list[i];
        let children: f64 =
            self.list.iter().filter(|c| c.parent == Some(i)).map(|c| c.end_s - c.start_s).sum();
        s.end_s - s.start_s - children
    }

    /// JSON lines, one per span.
    pub fn to_jsonl(&self) -> String {
        self.list
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":{},\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"self_s\":{}}}\n",
                    serde_json::to_string(&s.name).unwrap_or_default(),
                    s.start_s,
                    s.end_s,
                    self.self_s(i)
                )
            })
            .collect()
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every digit of a finite value; JSON has no NaN, so a metric that could
/// not be measured prints as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
