//! The structured event schema shared by every sink.
//!
//! One flat, schema-versioned [`Event`] type covers all event kinds; fields
//! that do not apply to a kind are `None` and are omitted from the JSONL
//! encoding. A flat record was chosen over an enum so downstream consumers
//! (jq, pandas, spreadsheets) can load the stream as a single table.

use serde::{Deserialize, Serialize};

/// Version stamped into every event; bump on breaking schema changes.
///
/// History:
/// - **1** — flat span/progress/metric events; spans identified by name and
///   parent name only.
/// - **2** — tracing fields (`trace_id`, `span_id`, `parent_span_id`, all
///   16-hex-digit strings), span timeline offsets (`start_seconds`), and
///   resource deltas (`busy_seconds`, `alloc_count`, `alloc_bytes`,
///   `peak_rss_bytes`, `thread`). Purely additive: v1 lines parse under v2
///   readers with the new fields absent.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest schema version this build can read.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Event kinds emitted by the pipeline. Kept as `&str` constants rather than
/// an enum so downstream crates can add kinds without touching this crate.
pub mod kind {
    /// A finished timed scope. Fields: `name`, `parent`, `seconds`; under
    /// schema ≥ 2 also `trace_id`/`span_id`/`parent_span_id`,
    /// `start_seconds`, and (profiling runs) resource deltas.
    pub const SPAN: &str = "span";
    /// E-Step progress sample. Fields: `iteration`, `total_iterations`,
    /// `sampled_loss`, `loss_*`, `iters_per_sec`, `per_worker_iterations`.
    pub const ESTEP_PROGRESS: &str = "estep.progress";
    /// End-of-E-Step summary. Same fields as progress.
    pub const ESTEP_SUMMARY: &str = "estep.summary";
    /// D-Step Newton step (or fold-in epoch). Fields: `name` (stage),
    /// `epoch`, `total_epochs`, `sampled_loss`.
    pub const DSTEP_EPOCH: &str = "dstep.epoch";
    /// A point metric reading. Fields: `name`, `value`, `unit`.
    pub const METRIC: &str = "metric";
    /// Network statistics (also the payload of `dd stats --json`).
    /// Fields: `name` (dataset), `fields` (stat name → value).
    pub const NETWORK_STATS: &str = "network.stats";
    /// One handled `dd serve` request. Fields: `name` (endpoint), `value`
    /// (HTTP status code), `seconds` (handler latency).
    pub const SERVE_REQUEST: &str = "serve.request";
    /// A request handler panicked and was isolated (the request got a 500,
    /// the worker survived). Fields: `name` (request path).
    pub const SERVE_PANIC: &str = "serve.panic";
    /// One applied streaming-ingest event batch (`dd ingest` /
    /// `POST /ingest`). Fields: `value` (events applied), `seconds` (apply
    /// wall time), `fields` (`invalidated` cache entries).
    pub const INGEST_APPLY: &str = "ingest.apply";
}

/// One telemetry event. Produced by instrumentation, consumed by
/// [`TrainObserver`](crate::TrainObserver) sinks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Event {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema: u32,
    /// Event kind; see [`kind`].
    pub kind: String,
    /// Span name, metric name, stage, or dataset name.
    pub name: Option<String>,
    /// Enclosing span name, for nested spans.
    pub parent: Option<String>,
    /// Wall-clock duration of a span, or elapsed time at a progress sample.
    pub seconds: Option<f64>,
    /// Global SGD iteration the sample was taken at.
    pub iteration: Option<u64>,
    /// Total SGD iterations planned for the run.
    pub total_iterations: Option<u64>,
    /// Monte-Carlo estimate of the training objective at this point.
    pub sampled_loss: Option<f64>,
    /// Topology (skip-gram) component of `sampled_loss`.
    pub loss_topology: Option<f64>,
    /// α-weighted label component of `sampled_loss`.
    pub loss_label: Option<f64>,
    /// β-weighted pattern component of `sampled_loss`.
    pub loss_pattern: Option<f64>,
    /// Training throughput at the sample point.
    pub iters_per_sec: Option<f64>,
    /// Iterations completed by each Hogwild worker at the sample point.
    pub per_worker_iterations: Option<Vec<u64>>,
    /// Epoch number (D-Step: Newton step).
    pub epoch: Option<u64>,
    /// Total epochs planned (D-Step: the step cap).
    pub total_epochs: Option<u64>,
    /// Value of a point metric.
    pub value: Option<f64>,
    /// Unit of a point metric.
    pub unit: Option<String>,
    /// Free-form named numeric payload (e.g. network stats).
    pub fields: Option<Vec<(String, f64)>>,
    /// Trace the event belongs to, as 16 lowercase hex digits (schema ≥ 2).
    pub trace_id: Option<String>,
    /// This span's ID, as 16 lowercase hex digits (schema ≥ 2).
    pub span_id: Option<String>,
    /// Parent span's ID, as 16 lowercase hex digits; absent on trace roots
    /// (schema ≥ 2).
    pub parent_span_id: Option<String>,
    /// Span start as seconds since the process epoch (schema ≥ 2).
    pub start_seconds: Option<f64>,
    /// CPU-busy seconds inside the span, where measured (pool calls report
    /// summed worker busy time; schema ≥ 2).
    pub busy_seconds: Option<f64>,
    /// Allocations performed during the span (profiling runs only;
    /// schema ≥ 2).
    pub alloc_count: Option<u64>,
    /// Bytes allocated during the span (profiling runs only; schema ≥ 2).
    pub alloc_bytes: Option<u64>,
    /// Process peak RSS in bytes sampled at span end (profiling runs only;
    /// schema ≥ 2).
    pub peak_rss_bytes: Option<u64>,
    /// 0-based worker index for per-thread spans (pool chunks; schema ≥ 2).
    pub thread: Option<u64>,
    /// Content fingerprint (16 lowercase hex digits) of the model that
    /// served this request; on `serve.request` roots under hot reload it
    /// names which generation answered (schema ≥ 2, additive).
    pub model_fingerprint: Option<String>,
}

impl Event {
    /// A blank event of the given kind.
    pub fn new(kind: &str) -> Self {
        Event {
            schema: SCHEMA_VERSION,
            kind: kind.to_string(),
            name: None,
            parent: None,
            seconds: None,
            iteration: None,
            total_iterations: None,
            sampled_loss: None,
            loss_topology: None,
            loss_label: None,
            loss_pattern: None,
            iters_per_sec: None,
            per_worker_iterations: None,
            epoch: None,
            total_epochs: None,
            value: None,
            unit: None,
            fields: None,
            trace_id: None,
            span_id: None,
            parent_span_id: None,
            start_seconds: None,
            busy_seconds: None,
            alloc_count: None,
            alloc_bytes: None,
            peak_rss_bytes: None,
            thread: None,
            model_fingerprint: None,
        }
    }

    /// Attaches trace identity to the event (hex-encoded; see
    /// [`crate::trace`]).
    pub fn with_trace(mut self, trace_id: u64, span_id: u64, parent_span_id: Option<u64>) -> Self {
        self.trace_id = Some(crate::trace::hex16(trace_id));
        self.span_id = Some(crate::trace::hex16(span_id));
        self.parent_span_id = parent_span_id.map(crate::trace::hex16);
        self
    }

    /// A finished-span event.
    pub fn span(name: &str, parent: Option<&str>, seconds: f64) -> Self {
        let mut e = Event::new(kind::SPAN);
        e.name = Some(name.to_string());
        e.parent = parent.map(str::to_string);
        e.seconds = Some(seconds);
        e
    }

    /// A handled-request event (`dd serve` structured access log).
    pub fn serve_request(endpoint: &str, status: u16, seconds: f64) -> Self {
        let mut e = Event::new(kind::SERVE_REQUEST);
        e.name = Some(endpoint.to_string());
        e.value = Some(f64::from(status));
        e.seconds = Some(seconds);
        e
    }

    /// An isolated-handler-panic event (`dd serve` fault log).
    pub fn serve_panic(path: &str) -> Self {
        let mut e = Event::new(kind::SERVE_PANIC);
        e.name = Some(path.to_string());
        e
    }

    /// An applied streaming-ingest batch (`dd serve` ingest log).
    pub fn ingest_apply(applied: usize, invalidated: usize, seconds: f64) -> Self {
        let mut e = Event::new(kind::INGEST_APPLY);
        e.value = Some(applied as f64);
        e.seconds = Some(seconds);
        e.fields = Some(vec![("invalidated".to_string(), invalidated as f64)]);
        e
    }

    /// A point-metric event.
    pub fn metric(name: &str, value: f64, unit: Option<&str>) -> Self {
        let mut e = Event::new(kind::METRIC);
        e.name = Some(name.to_string());
        e.value = Some(value);
        e.unit = unit.map(str::to_string);
        e
    }

    /// Compact single-line human rendering (used by the progress sink).
    pub fn render(&self) -> String {
        let mut s = format!("[{}]", self.kind);
        if let Some(name) = &self.name {
            s.push_str(&format!(" {name}"));
        }
        if let (Some(it), Some(total)) = (self.iteration, self.total_iterations) {
            s.push_str(&format!(" iter {it}/{total}"));
        }
        if let (Some(ep), Some(total)) = (self.epoch, self.total_epochs) {
            s.push_str(&format!(" epoch {ep}/{total}"));
        }
        if let Some(loss) = self.sampled_loss {
            s.push_str(&format!(" loss {loss:.4}"));
        }
        if let (Some(t), Some(l), Some(p)) =
            (self.loss_topology, self.loss_label, self.loss_pattern)
        {
            s.push_str(&format!(" (topo {t:.4} | label {l:.4} | pattern {p:.4})"));
        }
        if let Some(ips) = self.iters_per_sec {
            s.push_str(&format!(" {:.0} it/s", ips));
        }
        if let Some(v) = self.value {
            match &self.unit {
                Some(u) => s.push_str(&format!(" = {v} {u}")),
                None => s.push_str(&format!(" = {v}")),
            }
        }
        if let Some(secs) = self.seconds {
            s.push_str(&format!(" [{secs:.3}s]"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trip_preserves_schema_and_fields() {
        let mut e = Event::new(kind::ESTEP_PROGRESS);
        e.iteration = Some(1_000);
        e.total_iterations = Some(10_000);
        e.sampled_loss = Some(2.5);
        e.loss_topology = Some(2.0);
        e.loss_label = Some(0.4);
        e.loss_pattern = Some(0.1);
        e.iters_per_sec = Some(123456.0);
        e.per_worker_iterations = Some(vec![500, 500]);
        let line = serde_json::to_string(&e).unwrap();
        assert!(!line.contains('\n'), "events must be single-line");
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.schema, SCHEMA_VERSION);
        assert_eq!(back.kind, kind::ESTEP_PROGRESS);
        assert_eq!(back.iteration, Some(1_000));
        assert_eq!(back.sampled_loss, Some(2.5));
        assert_eq!(back.per_worker_iterations, Some(vec![500, 500]));
        // Unset optional fields must be omitted, not serialized as null.
        assert!(!line.contains("epoch"));
        assert!(!line.contains("null"));
    }

    #[test]
    fn span_event_round_trip() {
        let e = Event::span("estep.train", Some("fit"), 1.25);
        let line = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.name.as_deref(), Some("estep.train"));
        assert_eq!(back.parent.as_deref(), Some("fit"));
        assert_eq!(back.seconds, Some(1.25));
    }

    #[test]
    fn v2_trace_fields_round_trip() {
        let mut e = Event::span("pool.estep", Some("fit"), 0.5).with_trace(0xabc, 0xdef, Some(0x1));
        e.start_seconds = Some(1.25);
        e.busy_seconds = Some(0.4);
        e.alloc_count = Some(10);
        e.alloc_bytes = Some(4096);
        e.peak_rss_bytes = Some(1 << 20);
        e.thread = Some(3);
        let line = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&line).unwrap();
        assert_eq!(back.schema, 2);
        assert_eq!(back.trace_id.as_deref(), Some("0000000000000abc"));
        assert_eq!(back.span_id.as_deref(), Some("0000000000000def"));
        assert_eq!(back.parent_span_id.as_deref(), Some("0000000000000001"));
        assert_eq!(back.start_seconds, Some(1.25));
        assert_eq!(back.busy_seconds, Some(0.4));
        assert_eq!(back.alloc_count, Some(10));
        assert_eq!(back.alloc_bytes, Some(4096));
        assert_eq!(back.peak_rss_bytes, Some(1 << 20));
        assert_eq!(back.thread, Some(3));
    }

    #[test]
    fn v1_lines_still_parse() {
        // A literal line as written by schema-1 builds: no trace fields.
        let line =
            r#"{"schema":1,"kind":"span","name":"estep.train","parent":"fit","seconds":1.5}"#;
        let back: Event = serde_json::from_str(line).unwrap();
        assert_eq!(back.schema, 1);
        assert_eq!(back.name.as_deref(), Some("estep.train"));
        assert_eq!(back.trace_id, None);
        assert_eq!(back.start_seconds, None);
    }

    #[test]
    fn render_is_compact() {
        let mut e = Event::new(kind::ESTEP_PROGRESS);
        e.iteration = Some(10);
        e.total_iterations = Some(100);
        e.sampled_loss = Some(1.5);
        let r = e.render();
        assert!(r.contains("iter 10/100"), "{r}");
        assert!(r.contains("loss 1.5"), "{r}");
    }
}
