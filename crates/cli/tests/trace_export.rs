//! End-to-end trace export against the real `dd` binary: generate a graph,
//! train it with `--telemetry`, export the JSONL as a Chrome trace and
//! summarize it. The export must parse, every event must be a complete
//! (`"ph":"X"`) event with a timestamp and a duration, the spans must carry
//! their identities and form closed trees (every `parent_span_id` resolves
//! to a `span_id` of the same trace, DESIGN.md §7.12), and both SGD stages
//! (`estep.train`, `dstep.train`) must appear.

use std::collections::HashSet;
use std::process::Command;

use serde_json::Value;

fn dd(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dd")).args(args).output().expect("spawn dd");
    assert!(
        out.status.success(),
        "dd {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("dd writes UTF-8")
}

fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

#[test]
fn train_telemetry_exports_a_closed_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("dd_trace_export_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().to_string();
    let (graph, model, jsonl, chrome) =
        (path("graph.edges"), path("model.ddm"), path("telemetry.jsonl"), path("trace.json"));

    dd(&["generate", "twitter", "--scale", "300", "--out", &graph]);
    dd(&[
        "train",
        &graph,
        "--out",
        &model,
        "--dim",
        "8",
        "--iterations",
        "20000",
        "--telemetry",
        &jsonl,
    ]);
    dd(&["trace", "export", &jsonl, "--chrome", &chrome]);
    let summary = dd(&["trace", "summarize", &jsonl]);
    assert!(summary.contains("estep.train"), "{summary}");

    let doc: Value = serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap())
        .expect("the exported trace is JSON");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty(), "exported trace has no events");

    let mut spans = HashSet::new();
    let mut names = HashSet::new();
    for e in events {
        assert_eq!(str_field(e, "ph"), Some("X"), "not a complete event: {e:?}");
        assert!(e.get("ts").and_then(Value::as_f64).is_some(), "no ts: {e:?}");
        assert!(e.get("dur").and_then(Value::as_f64).is_some(), "no dur: {e:?}");
        names.extend(str_field(e, "name"));
        let args = e.get("args").expect("every event carries args");
        if let Some(span) = str_field(args, "span_id") {
            spans.insert((str_field(args, "trace_id"), span));
        }
    }
    assert!(!spans.is_empty(), "no events carry span identities");
    let orphans: Vec<&Value> = events
        .iter()
        .filter(|e| {
            let args = e.get("args").unwrap();
            str_field(args, "parent_span_id")
                .is_some_and(|p| !spans.contains(&(str_field(args, "trace_id"), p)))
        })
        .collect();
    assert!(orphans.is_empty(), "{} spans have unresolved parents: {orphans:?}", orphans.len());
    for stage in ["estep.train", "dstep.train"] {
        assert!(names.contains(stage), "no {stage} span in {names:?}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
