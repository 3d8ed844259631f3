//! Exporters: Chrome trace-event JSON, per-stage critical-path summaries,
//! and Prometheus text exposition.
//!
//! All three consume the same inputs the sinks produce — [`Event`] streams
//! (as read back by [`crate::read_jsonl`]) or [`Registry`] snapshots — so
//! exporting never requires re-running anything.
//!
//! [`Registry`]: crate::Registry

use std::collections::HashMap;

use crate::events::{kind, Event};
use crate::metrics::{HistogramSnapshot, MetricSnapshot};

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (never NaN/Inf, which JSON forbids).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders span-bearing events as Chrome trace-event JSON (the object form,
/// loadable in `chrome://tracing` and Perfetto).
///
/// Every `span` and `serve.request` event becomes a complete (`"ph":"X"`)
/// trace event placed at its `start_seconds` offset (microseconds). Trace and
/// span IDs, busy time, and allocation deltas ride along in `args`.
/// Schema-1 events, which predate `start_seconds`, are placed at `ts: 0`.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        if e.kind != kind::SPAN && e.kind != kind::SERVE_REQUEST {
            continue;
        }
        let name = e.name.as_deref().unwrap_or(&e.kind);
        let ts = e.start_seconds.unwrap_or(0.0) * 1e6;
        let dur = e.seconds.unwrap_or(0.0).max(0.0) * 1e6;
        let tid = e.thread.map_or(0, |t| t + 1);
        let mut args: Vec<(String, String)> = Vec::new();
        if let Some(t) = &e.trace_id {
            args.push(("trace_id".into(), format!("\"{}\"", json_escape(t))));
        }
        if let Some(s) = &e.span_id {
            args.push(("span_id".into(), format!("\"{}\"", json_escape(s))));
        }
        if let Some(p) = &e.parent_span_id {
            args.push(("parent_span_id".into(), format!("\"{}\"", json_escape(p))));
        }
        if let Some(b) = e.busy_seconds {
            args.push(("busy_seconds".into(), json_num(b)));
        }
        if let Some(c) = e.alloc_count {
            args.push(("alloc_count".into(), c.to_string()));
        }
        if let Some(b) = e.alloc_bytes {
            args.push(("alloc_bytes".into(), b.to_string()));
        }
        if let Some(r) = e.peak_rss_bytes {
            args.push(("peak_rss_bytes".into(), r.to_string()));
        }
        if e.kind == kind::SERVE_REQUEST {
            if let Some(status) = e.value {
                args.push(("status".into(), json_num(status)));
            }
        }
        let args_json =
            args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            json_escape(name),
            json_escape(&e.kind),
            tid,
            json_num(ts),
            json_num(dur),
            args_json,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// One row of the [`summarize`] table.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Span name (stage).
    pub name: String,
    /// Number of spans with this name.
    pub calls: u64,
    /// Total wall seconds across calls.
    pub total_seconds: f64,
    /// Wall seconds not accounted for by child spans (clamped at 0).
    pub self_seconds: f64,
    /// Summed busy seconds where reported.
    pub busy_seconds: f64,
    /// Summed allocation bytes where reported.
    pub alloc_bytes: u64,
}

/// Aggregates span events into per-stage totals with self time (total minus
/// time attributed to child spans, linked by `parent_span_id` when present
/// and by parent name for schema-1 events).
pub fn stage_summaries(events: &[Event]) -> Vec<StageSummary> {
    let spans: Vec<&Event> = events.iter().filter(|e| e.kind == kind::SPAN).collect();
    // Child wall-time attributed to each parent, keyed by parent span ID
    // (precise) or parent name (schema-1 fallback).
    let mut child_by_span: HashMap<&str, f64> = HashMap::new();
    let mut child_by_name: HashMap<&str, f64> = HashMap::new();
    for e in &spans {
        let secs = e.seconds.unwrap_or(0.0);
        if let Some(pid) = e.parent_span_id.as_deref() {
            *child_by_span.entry(pid).or_default() += secs;
        } else if let Some(pname) = e.parent.as_deref() {
            *child_by_name.entry(pname).or_default() += secs;
        }
    }
    let mut by_name: HashMap<&str, StageSummary> = HashMap::new();
    for e in &spans {
        let name = e.name.as_deref().unwrap_or("?");
        let secs = e.seconds.unwrap_or(0.0);
        let child = match e.span_id.as_deref() {
            Some(sid) => child_by_span.get(sid).copied().unwrap_or(0.0),
            // Name-keyed fallback can only attribute children once, to the
            // first call; do that deterministically by taking the entry.
            None => child_by_name.remove(name).unwrap_or(0.0),
        };
        let row = by_name.entry(name).or_insert_with(|| StageSummary {
            name: name.to_string(),
            calls: 0,
            total_seconds: 0.0,
            self_seconds: 0.0,
            busy_seconds: 0.0,
            alloc_bytes: 0,
        });
        row.calls += 1;
        row.total_seconds += secs;
        row.self_seconds += (secs - child).max(0.0);
        row.busy_seconds += e.busy_seconds.unwrap_or(0.0);
        row.alloc_bytes += e.alloc_bytes.unwrap_or(0);
    }
    let mut rows: Vec<StageSummary> = by_name.into_values().collect();
    rows.sort_by(|a, b| {
        b.self_seconds.partial_cmp(&a.self_seconds).unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Renders the per-stage critical-path table `dd trace summarize` prints.
///
/// Stages are sorted by self time (the wall time a stage spends outside its
/// child spans — where optimization effort actually lands), followed by the
/// critical path: the chain of largest-duration spans from the longest root
/// down.
pub fn summarize(events: &[Event]) -> String {
    let rows = stage_summaries(events);
    let mut out = String::new();
    if rows.is_empty() {
        out.push_str("no span events found\n");
        return out;
    }
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(5).clamp(5, 56);
    out.push_str(&format!(
        "{:<name_w$}  {:>5}  {:>10}  {:>10}  {:>6}  {:>9}  {:>10}\n",
        "stage", "calls", "total s", "self s", "self%", "busy s", "alloc"
    ));
    let grand_total: f64 = rows.iter().map(|r| r.self_seconds).sum();
    for r in &rows {
        let mut name = r.name.clone();
        if name.len() > name_w {
            name.truncate(name_w - 1);
            name.push('…');
        }
        let pct = if grand_total > 0.0 { 100.0 * r.self_seconds / grand_total } else { 0.0 };
        out.push_str(&format!(
            "{:<name_w$}  {:>5}  {:>10.3}  {:>10.3}  {:>5.1}%  {:>9.3}  {:>10}\n",
            name,
            r.calls,
            r.total_seconds,
            r.self_seconds,
            pct,
            r.busy_seconds,
            if r.alloc_bytes > 0 { human_bytes(r.alloc_bytes) } else { "-".to_string() },
        ));
    }
    if let Some(path) = critical_path(events) {
        out.push('\n');
        out.push_str("critical path: ");
        out.push_str(
            &path.iter().map(|(n, s)| format!("{n} ({s:.3}s)")).collect::<Vec<_>>().join(" → "),
        );
        out.push('\n');
    }
    out
}

/// The chain of largest spans from the longest root span downward, via
/// `parent_span_id` links. `None` when the stream has no ID-bearing spans.
pub fn critical_path(events: &[Event]) -> Option<Vec<(String, f64)>> {
    let spans: Vec<&Event> =
        events.iter().filter(|e| e.kind == kind::SPAN && e.span_id.is_some()).collect();
    let mut children: HashMap<&str, Vec<&Event>> = HashMap::new();
    for e in &spans {
        if let Some(pid) = e.parent_span_id.as_deref() {
            children.entry(pid).or_default().push(e);
        }
    }
    let longest = |candidates: &[&Event]| -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.seconds
                    .unwrap_or(0.0)
                    .partial_cmp(&b.seconds.unwrap_or(0.0))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
    };
    let roots: Vec<&Event> = spans.iter().filter(|e| e.parent_span_id.is_none()).copied().collect();
    let mut cur = roots[longest(&roots)?];
    let mut path = Vec::new();
    loop {
        path.push((cur.name.clone().unwrap_or_else(|| "?".into()), cur.seconds.unwrap_or(0.0)));
        let sid = cur.span_id.as_deref().expect("filtered to id-bearing spans");
        match children.get(sid) {
            Some(kids) if !kids.is_empty() => cur = kids[longest(kids)?],
            _ => break,
        }
        if path.len() > 64 {
            break; // defensive: malformed parent links could cycle
        }
    }
    Some(path)
}

/// A labeled Prometheus metric family: registry metrics whose names start
/// with `prefix` are grouped under one family, with the name remainder
/// exposed as a label value.
///
/// Example: with `prefix: "serve.requests.", family: "dd_serve_requests",
/// label: "endpoint"`, the counters `serve.requests.score` and
/// `serve.requests.healthz` render as
/// `dd_serve_requests_total{endpoint="score"} …` /
/// `…{endpoint="healthz"} …` under a single `# TYPE` header.
#[derive(Debug, Clone, Copy)]
pub struct PromFamily<'a> {
    /// Registry-name prefix that selects members of this family.
    pub prefix: &'a str,
    /// Exposition family name (already in Prometheus form; counters get a
    /// `_total` suffix appended, histograms get `_bucket`/`_sum`/`_count`).
    pub family: &'a str,
    /// Label key carrying the name remainder.
    pub label: &'a str,
    /// `# HELP` text.
    pub help: &'a str,
}

/// Sanitizes a registry metric name into a Prometheus metric name.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    if !name.starts_with("dd_") && !name.starts_with("dd.") {
        out.push_str("dd_");
    }
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else if i > 0 {
            out.push('_');
        }
    }
    out
}

fn prom_label_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn prom_histogram(out: &mut String, base: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for &(bound, c) in &h.buckets {
        cumulative += c;
        let le = prom_f64(bound);
        out.push_str(&format!("{base}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"));
    }
    // The overflow bucket bound is +Inf, so `cumulative` == count here; emit
    // the conventional sum/count pair from the same snapshot.
    out.push_str(&format!("{base}_sum{{{labels}}} {}\n", prom_f64(h.sum)));
    out.push_str(&format!("{base}_count{{{labels}}} {}\n", h.count));
}

/// Renders a [`Registry`](crate::Registry) snapshot in Prometheus text
/// exposition format (version 0.0.4): `# HELP`/`# TYPE` headers, counters
/// with a `_total` suffix, gauges, and full histogram
/// `_bucket`/`_sum`/`_count` triples with cumulative `le` buckets.
///
/// `families` groups per-endpoint metrics under shared labeled families;
/// metrics matching no family render standalone under their sanitized name.
/// Every histogram line is derived from one [`HistogramSnapshot`], so bucket
/// totals, `_count`, and `_sum` are mutually consistent.
pub fn prometheus_text(snap: &[(String, MetricSnapshot)], families: &[PromFamily<'_>]) -> String {
    let mut out = String::new();
    let mut used = vec![false; snap.len()];
    for fam in families {
        let members: Vec<(usize, &str, &MetricSnapshot)> = snap
            .iter()
            .enumerate()
            .filter_map(|(i, (name, m))| name.strip_prefix(fam.prefix).map(|rest| (i, rest, m)))
            .collect();
        if members.is_empty() {
            continue;
        }
        let kind = match members[0].2 {
            MetricSnapshot::Counter(_) => "counter",
            MetricSnapshot::Gauge(_) => "gauge",
            MetricSnapshot::Histogram(_) => "histogram",
        };
        let base = if kind == "counter" && !fam.family.ends_with("_total") {
            format!("{}_total", fam.family)
        } else {
            fam.family.to_string()
        };
        out.push_str(&format!("# HELP {base} {}\n", fam.help));
        out.push_str(&format!("# TYPE {base} {kind}\n"));
        for (i, rest, m) in members {
            used[i] = true;
            let labels = format!("{}=\"{}\"", fam.label, prom_label_escape(rest));
            match m {
                MetricSnapshot::Counter(v) => out.push_str(&format!("{base}{{{labels}}} {v}\n")),
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!("{base}{{{labels}}} {}\n", prom_f64(*v)))
                }
                MetricSnapshot::Histogram(h) => prom_histogram(&mut out, &base, &labels, h),
            }
        }
    }
    for (i, (name, m)) in snap.iter().enumerate() {
        if used[i] {
            continue;
        }
        let base = prom_name(name);
        match m {
            MetricSnapshot::Counter(v) => {
                let base = if base.ends_with("_total") { base } else { format!("{base}_total") };
                out.push_str(&format!("# TYPE {base} counter\n{base} {v}\n"));
            }
            MetricSnapshot::Gauge(v) => {
                out.push_str(&format!("# TYPE {base} gauge\n{base} {}\n", prom_f64(*v)));
            }
            MetricSnapshot::Histogram(h) => {
                out.push_str(&format!("# TYPE {base} histogram\n"));
                prom_histogram(&mut out, &base, "", h);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn traced_span(
        name: &str,
        parent: Option<(&str, u64)>,
        ids: (u64, u64),
        start: f64,
        secs: f64,
    ) -> Event {
        let mut e = Event::span(name, parent.map(|(n, _)| n), secs).with_trace(
            0xfeed,
            ids.1,
            parent.map(|(_, p)| p),
        );
        e.trace_id = Some(crate::trace::hex16(ids.0));
        e.start_seconds = Some(start);
        e
    }

    #[test]
    fn chrome_trace_is_valid_json_with_parentage() {
        let root = traced_span("fit", None, (0xfeed, 1), 0.0, 3.0);
        let mut child = traced_span("fit.estep", Some(("fit", 1)), (0xfeed, 2), 0.5, 2.0);
        child.thread = Some(2);
        child.alloc_bytes = Some(1024);
        let out = chrome_trace(&[root, child]);
        // Structure checks without a JSON parser on the producer side:
        // dd-cli's `trace_export` test additionally parses a real export.
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"name\":\"fit.estep\""));
        assert!(out.contains("\"ts\":500000"));
        assert!(out.contains("\"dur\":2000000"));
        assert!(out.contains("\"tid\":3"));
        assert!(out.contains("\"parent_span_id\":\"0000000000000001\""));
        assert!(out.contains("\"alloc_bytes\":1024"));
        // Round-trips through our own JSON parser.
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v.get("traceEvents").is_some());
    }

    #[test]
    fn summarize_attributes_self_time() {
        let root = traced_span("fit", None, (0xfeed, 1), 0.0, 10.0);
        let a = traced_span("fit.estep", Some(("fit", 1)), (0xfeed, 2), 1.0, 6.0);
        let b = traced_span("fit.dstep", Some(("fit", 1)), (0xfeed, 3), 7.0, 3.0);
        let rows = stage_summaries(&[root, a, b]);
        let fit = rows.iter().find(|r| r.name == "fit").unwrap();
        assert_eq!(fit.calls, 1);
        assert!((fit.total_seconds - 10.0).abs() < 1e-12);
        assert!((fit.self_seconds - 1.0).abs() < 1e-12, "10 - 6 - 3 = 1 self second");
        let table = summarize(&[
            traced_span("fit", None, (0xfeed, 1), 0.0, 10.0),
            traced_span("fit.estep", Some(("fit", 1)), (0xfeed, 2), 1.0, 6.0),
        ]);
        assert!(table.contains("stage"), "{table}");
        assert!(table.contains("critical path: fit (10.000s) → fit.estep (6.000s)"), "{table}");
    }

    #[test]
    fn critical_path_follows_longest_children() {
        let root = traced_span("fit", None, (0xfeed, 1), 0.0, 10.0);
        let small = traced_span("fit.a", Some(("fit", 1)), (0xfeed, 2), 0.0, 2.0);
        let big = traced_span("fit.b", Some(("fit", 1)), (0xfeed, 3), 2.0, 7.0);
        let leaf = traced_span("fit.b.c", Some(("fit.b", 3)), (0xfeed, 4), 2.5, 5.0);
        let path = critical_path(&[root, small, big, leaf]).unwrap();
        let names: Vec<&str> = path.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fit", "fit.b", "fit.b.c"]);
    }

    #[test]
    fn prometheus_renders_families_and_histograms() {
        let r = Registry::new();
        r.counter("serve.requests.score").add(5);
        r.counter("serve.requests.healthz").add(2);
        let h = r.histogram("serve.latency.score", 0.001, 10.0, 3);
        h.record(0.0005);
        h.record(0.5);
        r.gauge("serve.pool.utilization").set(0.75);
        let fams = [
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
                help: "Request latency, by endpoint.",
            },
        ];
        let text = prometheus_text(&r.snapshot(), &fams);
        assert!(text.contains("# TYPE dd_serve_requests_total counter"), "{text}");
        assert!(text.contains("dd_serve_requests_total{endpoint=\"score\"} 5"), "{text}");
        assert!(text.contains("dd_serve_requests_total{endpoint=\"healthz\"} 2"), "{text}");
        assert!(text.contains("# TYPE dd_serve_latency_seconds histogram"), "{text}");
        assert!(
            text.contains("dd_serve_latency_seconds_bucket{endpoint=\"score\",le=\"0.001\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dd_serve_latency_seconds_bucket{endpoint=\"score\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("dd_serve_latency_seconds_count{endpoint=\"score\"} 2"), "{text}");
        assert!(text.contains("# TYPE dd_serve_pool_utilization gauge"), "{text}");
        assert!(text.contains("dd_serve_pool_utilization 0.75"), "{text}");
        // Exactly one TYPE header per family.
        assert_eq!(text.matches("# TYPE dd_serve_requests_total counter").count(), 1);
        // Bucket counts are cumulative and end at the snapshot count.
        let count_line =
            text.lines().find(|l| l.starts_with("dd_serve_latency_seconds_count")).unwrap();
        assert!(count_line.ends_with(" 2"));
    }

    #[test]
    fn prometheus_counter_totals_match_bucket_sums() {
        // Regression for the torn-read fix: the rendered _count must equal
        // the +Inf cumulative bucket, always, because both come from one
        // HistogramSnapshot.
        let r = Registry::new();
        let h = r.histogram("lat", 0.001, 2.0, 4);
        for i in 0..100 {
            h.record(i as f64 * 1e-3);
        }
        let text = prometheus_text(&r.snapshot(), &[]);
        let inf_count: u64 = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        let total: u64 = text
            .lines()
            .find(|l| l.starts_with("dd_lat_count"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(inf_count, total);
    }
}
