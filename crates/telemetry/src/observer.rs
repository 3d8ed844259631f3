//! The [`TrainObserver`] hook and its built-in sinks.
//!
//! Instrumented code reports through an [`ObserverHandle`] — a cheap,
//! cloneable, optional reference to a sink. The default handle is disabled
//! and every report short-circuits on one `Option` check, so un-instrumented
//! callers pay near-zero cost (the `NullObserver` path).

use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::events::{kind, Event};
use crate::span::Span;

/// E-Step progress sample handed to observers.
#[derive(Debug, Clone)]
pub struct EStepProgress {
    /// Iterations completed across all workers.
    pub iteration: u64,
    /// Iterations planned for the run.
    pub total_iterations: u64,
    /// Monte-Carlo estimate of the combined objective `L'`.
    pub sampled_loss: f64,
    /// Topology (skip-gram) component.
    pub loss_topology: f64,
    /// α-weighted label component.
    pub loss_label: f64,
    /// β-weighted pattern component.
    pub loss_pattern: f64,
    /// Throughput since training started.
    pub iters_per_sec: f64,
    /// Per-worker iteration counts (one entry per Hogwild worker).
    pub per_worker_iterations: Vec<u64>,
    /// Wall-clock seconds since training started.
    pub elapsed_seconds: f64,
}

impl EStepProgress {
    /// Converts the sample into the wire event.
    pub fn to_event(&self, kind_str: &str) -> Event {
        let mut e = Event::new(kind_str);
        e.iteration = Some(self.iteration);
        e.total_iterations = Some(self.total_iterations);
        e.sampled_loss = Some(self.sampled_loss);
        e.loss_topology = Some(self.loss_topology);
        e.loss_label = Some(self.loss_label);
        e.loss_pattern = Some(self.loss_pattern);
        e.iters_per_sec = Some(self.iters_per_sec);
        e.per_worker_iterations = Some(self.per_worker_iterations.clone());
        e.seconds = Some(self.elapsed_seconds);
        e
    }
}

/// D-Step (or fold-in) epoch sample handed to observers.
#[derive(Debug, Clone)]
pub struct EpochProgress {
    /// Stage name, e.g. `"dstep"`.
    pub stage: String,
    /// 1-based epoch number (for the D-Step: the Newton step).
    pub epoch: u64,
    /// Planned epochs (for the D-Step: the step cap; it may stop sooner).
    pub total_epochs: u64,
    /// Training loss after this epoch. The D-Step reports its full
    /// objective: mean log-loss plus the L2 term.
    pub loss: f64,
}

impl EpochProgress {
    /// Converts the sample into the wire event.
    pub fn to_event(&self) -> Event {
        let mut e = Event::new(kind::DSTEP_EPOCH);
        e.name = Some(self.stage.clone());
        e.epoch = Some(self.epoch);
        e.total_epochs = Some(self.total_epochs);
        e.sampled_loss = Some(self.loss);
        e
    }
}

/// Callback hook for training/eval instrumentation.
///
/// All methods default to forwarding a structured [`Event`] to
/// [`TrainObserver::on_event`], so sinks usually implement only that one
/// method. Implementations must be `Send + Sync`: the E-Step monitor thread
/// and Hogwild workers may report concurrently.
pub trait TrainObserver: Send + Sync {
    /// Receives every structured event. The base hook sinks implement.
    fn on_event(&self, event: &Event);

    /// E-Step progress sample (periodic).
    fn on_estep_progress(&self, p: &EStepProgress) {
        self.on_event(&p.to_event(kind::ESTEP_PROGRESS));
    }

    /// End-of-E-Step summary.
    fn on_estep_summary(&self, p: &EStepProgress) {
        self.on_event(&p.to_event(kind::ESTEP_SUMMARY));
    }

    /// D-Step / fold-in epoch sample.
    fn on_epoch(&self, p: &EpochProgress) {
        self.on_event(&p.to_event());
    }

    /// A finished timed scope.
    fn on_span(&self, name: &str, parent: Option<&str>, seconds: f64) {
        self.on_event(&Event::span(name, parent, seconds));
    }

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Observer that drops everything. Equivalent to a disabled
/// [`ObserverHandle`] but usable where a concrete sink is required.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl TrainObserver for NullObserver {
    fn on_event(&self, _event: &Event) {}
}

/// Cheap, cloneable, optional reference to an observer; the form in which
/// instrumentation hooks are plumbed through configs. `Default` is disabled.
#[derive(Clone, Default)]
pub struct ObserverHandle(Option<Arc<dyn TrainObserver>>);

impl std::fmt::Debug for ObserverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("ObserverHandle(enabled)"),
            None => f.write_str("ObserverHandle(disabled)"),
        }
    }
}

impl ObserverHandle {
    /// A disabled handle (every report is a no-op).
    pub fn none() -> Self {
        ObserverHandle(None)
    }

    /// A handle reporting to `obs`.
    pub fn new(obs: Arc<dyn TrainObserver>) -> Self {
        ObserverHandle(Some(obs))
    }

    /// Whether a sink is attached. Instrumentation may use this to skip
    /// building expensive reports.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn TrainObserver>> {
        self.0.as_ref()
    }

    /// Starts a root span named `name` (a no-op timer when disabled).
    pub fn span(&self, name: &str) -> Span {
        Span::root(name, self.clone())
    }

    /// Starts a root span whose trace ID is derived from `(seed, name)`,
    /// so re-runs of the same config reproduce the same trace tree.
    pub fn trace_root(&self, name: &str, seed: u64) -> Span {
        Span::root_seeded(name, seed, self.clone())
    }

    /// Times `f` under a span, returning its result and the elapsed seconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.span(name);
        let out = f();
        let secs = span.finish();
        (out, secs)
    }

    /// Forwards a structured event.
    #[inline]
    pub fn on_event(&self, event: &Event) {
        if let Some(o) = &self.0 {
            o.on_event(event);
        }
    }

    /// Forwards an E-Step progress sample.
    #[inline]
    pub fn on_estep_progress(&self, p: &EStepProgress) {
        if let Some(o) = &self.0 {
            o.on_estep_progress(p);
        }
    }

    /// Forwards an end-of-E-Step summary.
    #[inline]
    pub fn on_estep_summary(&self, p: &EStepProgress) {
        if let Some(o) = &self.0 {
            o.on_estep_summary(p);
        }
    }

    /// Forwards a D-Step / fold-in epoch sample.
    #[inline]
    pub fn on_epoch(&self, p: &EpochProgress) {
        if let Some(o) = &self.0 {
            o.on_epoch(p);
        }
    }

    /// Forwards a finished span.
    #[inline]
    pub fn on_span(&self, name: &str, parent: Option<&str>, seconds: f64) {
        if let Some(o) = &self.0 {
            o.on_span(name, parent, seconds);
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(o) = &self.0 {
            o.flush();
        }
    }
}

/// Human-readable progress sink writing to stderr, rate-limited so tight
/// progress loops cannot flood a terminal. Spans, summaries, and other
/// one-shot events always print; only `estep.progress` events are limited.
pub struct ProgressSink {
    min_interval: Duration,
    last_progress: Mutex<Option<Instant>>,
}

impl ProgressSink {
    /// Sink printing at most one progress line per `min_interval`.
    pub fn with_min_interval(min_interval: Duration) -> Self {
        ProgressSink { min_interval, last_progress: Mutex::new(None) }
    }

    /// Sink with the default 250 ms rate limit.
    pub fn stderr() -> Self {
        ProgressSink::with_min_interval(Duration::from_millis(250))
    }
}

impl TrainObserver for ProgressSink {
    fn on_event(&self, event: &Event) {
        if event.kind == kind::ESTEP_PROGRESS {
            let mut last = self.last_progress.lock().unwrap();
            let now = Instant::now();
            if let Some(prev) = *last {
                if now.duration_since(prev) < self.min_interval {
                    return;
                }
            }
            *last = Some(now);
        }
        eprintln!("{}", event.render());
    }
}

/// Structured JSONL sink: one schema-versioned event per line.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Sink writing to a fresh file at `path` (parent directories are
    /// created; an existing file is truncated).
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self::from_writer(Box::new(File::create(path)?)))
    }

    /// Sink appending to `path` — lets several processes/phases share one
    /// unified event log (e.g. `results/telemetry.jsonl`).
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Sink writing to an arbitrary writer (used by tests).
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlSink { out: Mutex::new(BufWriter::new(w)) }
    }
}

impl TrainObserver for JsonlSink {
    fn on_event(&self, event: &Event) {
        if let Ok(mut line) = serde_json::to_string(event) {
            line.push('\n');
            let mut out = self.out.lock().unwrap();
            // dd-lint: allow(blocking-while-locked) — the mutex serializes
            // writers and the buffered write IS the critical section; one
            // write_all per event also keeps JSONL lines untorn
            let _ = out.write_all(line.as_bytes());
        }
    }

    fn flush(&self) {
        // dd-lint: allow(blocking-while-locked) — flushing the shared
        // BufWriter is the whole point of holding its mutex here
        let _ = self.out.lock().unwrap().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            // dd-lint: allow(blocking-while-locked) — final drain on drop;
            // no other thread can hold the sink once Drop runs
            let _ = out.flush();
        }
    }
}

/// Broadcasts every report to several sinks (e.g. stderr + JSONL).
#[derive(Default)]
pub struct Fanout(Vec<Arc<dyn TrainObserver>>);

impl Fanout {
    /// An empty fanout.
    pub fn new() -> Self {
        Fanout(Vec::new())
    }

    /// Adds a sink.
    pub fn push(&mut self, obs: Arc<dyn TrainObserver>) {
        self.0.push(obs);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Wraps the fanout into a handle: disabled when empty, the single sink
    /// when one, the fanout otherwise.
    pub fn into_handle(mut self) -> ObserverHandle {
        match self.0.len() {
            0 => ObserverHandle::none(),
            1 => ObserverHandle::new(self.0.pop().expect("len checked")),
            _ => ObserverHandle::new(Arc::new(self)),
        }
    }
}

impl TrainObserver for Fanout {
    fn on_event(&self, event: &Event) {
        for o in &self.0 {
            o.on_event(event);
        }
    }

    fn flush(&self) {
        for o in &self.0 {
            o.flush();
        }
    }
}

/// Reads a JSONL event file back into events — the consumer-side helper
/// used by tests, the `dd trace` exporters, and analysis tooling.
///
/// Accepts every schema version from [`crate::events::MIN_SCHEMA_VERSION`]
/// through [`crate::events::SCHEMA_VERSION`] (older lines simply lack the
/// newer optional fields). Lines stamped with a *newer* schema than this
/// build understands produce a targeted error rather than silently
/// misreading fields whose meaning may have changed.
pub fn read_jsonl(path: impl AsRef<Path>) -> Result<Vec<Event>, String> {
    let file =
        File::open(path.as_ref()).map_err(|e| format!("open {}: {e}", path.as_ref().display()))?;
    let mut events = Vec::new();
    for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("read line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let event: Event =
            serde_json::from_str(&line).map_err(|e| format!("parse line {}: {e}", i + 1))?;
        if event.schema > crate::events::SCHEMA_VERSION {
            return Err(format!(
                "line {}: event schema {} is newer than this build supports (max {}); \
                 upgrade dd to read this stream",
                i + 1,
                event.schema,
                crate::events::SCHEMA_VERSION
            ));
        }
        if event.schema < crate::events::MIN_SCHEMA_VERSION {
            return Err(format!(
                "line {}: event schema {} predates the oldest supported version {}",
                i + 1,
                event.schema,
                crate::events::MIN_SCHEMA_VERSION
            ));
        }
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("dd_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink_round_trip.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.on_span("estep.train", None, 0.5);
        let mut p = EStepProgress {
            iteration: 100,
            total_iterations: 1000,
            sampled_loss: 3.25,
            loss_topology: 3.0,
            loss_label: 0.2,
            loss_pattern: 0.05,
            iters_per_sec: 5e5,
            per_worker_iterations: vec![50, 50],
            elapsed_seconds: 0.0002,
        };
        sink.on_estep_progress(&p);
        p.iteration = 200;
        sink.on_estep_progress(&p);
        sink.flush();

        let events = read_jsonl(&path).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].name.as_deref(), Some("estep.train"));
        assert_eq!(events[1].kind, "estep.progress");
        assert_eq!(events[1].iteration, Some(100));
        assert_eq!(events[2].iteration, Some(200));
        assert!(events.iter().all(|e| e.schema == crate::events::SCHEMA_VERSION));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_jsonl_accepts_old_schemas_and_rejects_future_ones() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join("dd_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Mixed v1 + v2 stream: both parse, v1 lines lack trace fields.
        let mixed = dir.join("mixed_schema.jsonl");
        let mut f = File::create(&mixed).unwrap();
        writeln!(f, r#"{{"schema":1,"kind":"span","name":"old.stage","seconds":1.0}}"#).unwrap();
        let v2 = Event::span("new.stage", None, 2.0).with_trace(1, 2, None);
        writeln!(f, "{}", serde_json::to_string(&v2).unwrap()).unwrap();
        drop(f);
        let events = read_jsonl(&mixed).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].schema, 1);
        assert_eq!(events[0].trace_id, None);
        assert_eq!(events[1].trace_id.as_deref(), Some("0000000000000001"));

        // A future schema is a hard, targeted error.
        let future = dir.join("future_schema.jsonl");
        let mut f = File::create(&future).unwrap();
        writeln!(f, r#"{{"schema":99,"kind":"span","name":"future.stage"}}"#).unwrap();
        drop(f);
        let err = read_jsonl(&future).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
        assert!(err.contains("newer than this build"), "{err}");

        std::fs::remove_file(&mixed).ok();
        std::fs::remove_file(&future).ok();
    }

    #[test]
    fn append_mode_unifies_streams() {
        let dir = std::env::temp_dir().join("dd_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("append.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let a = JsonlSink::append(&path).unwrap();
            a.on_span("phase.a", None, 1.0);
        }
        {
            let b = JsonlSink::append(&path).unwrap();
            b.on_span("phase.b", None, 2.0);
        }
        let events = read_jsonl(&path).unwrap();
        let names: Vec<_> = events.iter().filter_map(|e| e.name.as_deref()).collect();
        assert_eq!(names, vec!["phase.a", "phase.b"]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_sink_rate_limits_progress_only() {
        let sink = ProgressSink::with_min_interval(Duration::from_secs(3600));
        // First progress event records a timestamp; the second would be
        // suppressed. Spans are never suppressed. (Output goes to stderr;
        // here we only exercise the code path for panics/poisoning.)
        let p = EStepProgress {
            iteration: 1,
            total_iterations: 2,
            sampled_loss: 1.0,
            loss_topology: 1.0,
            loss_label: 0.0,
            loss_pattern: 0.0,
            iters_per_sec: 1.0,
            per_worker_iterations: vec![1],
            elapsed_seconds: 1.0,
        };
        sink.on_estep_progress(&p);
        sink.on_estep_progress(&p);
        sink.on_span("x", None, 0.1);
        assert!(sink.last_progress.lock().unwrap().is_some());
    }

    #[test]
    fn fanout_broadcasts() {
        #[derive(Default)]
        struct CountingSink(Counter);
        use crate::metrics::Counter;
        impl TrainObserver for CountingSink {
            fn on_event(&self, _e: &Event) {
                self.0.incr();
            }
        }
        let a = Arc::new(CountingSink::default());
        let b = Arc::new(CountingSink::default());
        let mut f = Fanout::new();
        f.push(a.clone());
        f.push(b.clone());
        let handle = f.into_handle();
        assert!(handle.is_enabled());
        handle.on_span("s", None, 0.0);
        handle.on_event(&Event::metric("m", 1.0, None));
        assert_eq!(a.0.get(), 2);
        assert_eq!(b.0.get(), 2);
        assert!(!Fanout::new().into_handle().is_enabled());
    }
}
