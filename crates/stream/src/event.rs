//! Tie events and their JSONL wire format.
//!
//! One event per line, e.g. `{"op":"follow","src":3,"dst":17}`. The format
//! is deliberately minimal: an ordered pair plus an operation. Timestamps
//! are intentionally absent — replay order is the event-log order, which
//! keeps the determinism contract (DESIGN.md §7.15) free of wall clocks.

use serde::{Deserialize, Serialize};

/// What happened to the ordered pair `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventOp {
    /// `src` now follows `dst`: the ordered tie `(src, dst)` exists.
    Follow,
    /// `src` no longer follows `dst`: the ordered tie `(src, dst)` is gone.
    Unfollow,
    /// `src` and `dst` now follow each other (both ordered pairs exist).
    Reciprocate,
}

impl EventOp {
    /// Lowercase wire name (`follow` / `unfollow` / `reciprocate`).
    pub fn wire_name(self) -> &'static str {
        match self {
            EventOp::Follow => "follow",
            EventOp::Unfollow => "unfollow",
            EventOp::Reciprocate => "reciprocate",
        }
    }

    /// Parses a lowercase wire name.
    pub fn from_wire_name(s: &str) -> Option<Self> {
        match s {
            "follow" => Some(EventOp::Follow),
            "unfollow" => Some(EventOp::Unfollow),
            "reciprocate" => Some(EventOp::Reciprocate),
            _ => None,
        }
    }
}

// Hand-rolled (de)serialization: the vendored derive emits exact variant
// names, but the wire contract is lowercase.
impl Serialize for EventOp {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Str(self.wire_name().to_string())
    }
}

impl Deserialize for EventOp {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::Error> {
        match v {
            serde::value::Value::Str(s) => EventOp::from_wire_name(s).ok_or_else(|| {
                serde::Error::custom(format!(
                    "unknown op '{s}' (expected follow|unfollow|reciprocate)"
                ))
            }),
            other => Err(serde::Error::custom(format!("op must be a string, found {other:?}"))),
        }
    }
}

/// One tie event: an operation on the ordered pair `(src, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TieEvent {
    /// The operation.
    pub op: EventOp,
    /// Tail node (the follower).
    pub src: u32,
    /// Head node (the followee).
    pub dst: u32,
}

impl TieEvent {
    /// Convenience constructor.
    pub fn new(op: EventOp, src: u32, dst: u32) -> Self {
        TieEvent { op, src, dst }
    }
}

/// Parses a JSONL event batch. Blank lines are skipped; any malformed line
/// fails the whole batch with a 1-based line number, so a torn or corrupted
/// batch is rejected atomically instead of half-applied.
pub fn parse_events(text: &str) -> Result<Vec<TieEvent>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev: TieEvent =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if ev.src == ev.dst {
            return Err(format!("line {}: self tie ({} -> {})", idx + 1, ev.src, ev.dst));
        }
        events.push(ev);
    }
    Ok(events)
}

/// Consecutive zero-progress `WouldBlock`/`TimedOut` retries before
/// [`read_events`] gives up on a stream that is never ready.
const MAX_STALL_RETRIES: u32 = 256;

/// Reads a JSONL event batch from any [`Read`](std::io::Read) stream
/// (stdin, a file, a chaos-wrapped socket): `Interrupted` is retried
/// silently (no bytes moved; the call can simply be reissued), while
/// `WouldBlock`/`TimedOut` back off for a millisecond per retry and fail
/// after `MAX_STALL_RETRIES` (256) consecutive retries without progress —
/// so a non-blocking reader that is never ready errors out instead of
/// busy-spinning forever. EOF ends the stream, and the collected text goes
/// through [`parse_events`] — so a stream torn mid-line rejects the whole
/// batch, and a stream torn on a line boundary yields a clean prefix of
/// the log, never a half-parsed event.
pub fn read_events<R: std::io::Read>(mut r: R) -> Result<Vec<TieEvent>, String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut stalls = 0u32;
    loop {
        match r.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                stalls = 0;
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stalls += 1;
                if stalls >= MAX_STALL_RETRIES {
                    return Err(format!(
                        "event stream stalled: {e} ({MAX_STALL_RETRIES} consecutive retries \
                         without progress)"
                    ));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => return Err(format!("reading event stream: {e}")),
        }
    }
    let text = String::from_utf8(buf).map_err(|e| format!("event stream is not UTF-8: {e}"))?;
    parse_events(&text)
}

/// Renders events as JSONL (one event per line, trailing newline when
/// non-empty) — the exact format [`parse_events`] accepts.
pub fn to_jsonl(events: &[TieEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        // Serialization of this struct cannot fail; the expect documents it.
        match serde_json::to_string(ev) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => unreachable!("TieEvent serialization is infallible"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips() {
        let events = vec![
            TieEvent::new(EventOp::Follow, 1, 2),
            TieEvent::new(EventOp::Unfollow, 3, 4),
            TieEvent::new(EventOp::Reciprocate, 5, 6),
        ];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"op\":\"follow\""), "lowercase wire names: {text}");
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "\n{\"op\":\"follow\",\"src\":1,\"dst\":2}\n\n";
        assert_eq!(parse_events(text).unwrap(), vec![TieEvent::new(EventOp::Follow, 1, 2)]);
        assert!(parse_events("").unwrap().is_empty());
    }

    /// A non-blocking reader that is never ready.
    struct NeverReady;

    impl std::io::Read for NeverReady {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "not ready"))
        }
    }

    #[test]
    fn permanently_stalled_stream_errors_instead_of_spinning_forever() {
        // Regression: WouldBlock used to be retried with a bare `continue`,
        // so a never-ready non-blocking reader busy-spun at 100% CPU and
        // read_events never returned.
        let err = read_events(NeverReady).unwrap_err();
        assert!(err.contains("stalled"), "{err}");
    }

    #[test]
    fn malformed_lines_fail_the_whole_batch_with_a_line_number() {
        let text = "{\"op\":\"follow\",\"src\":1,\"dst\":2}\n{\"op\":\"follow\",\"src\":3";
        let err = parse_events(text).unwrap_err();
        assert!(err.starts_with("line 2:"), "torn tail line must name line 2: {err}");

        let err = parse_events("{\"op\":\"defollow\",\"src\":1,\"dst\":2}").unwrap_err();
        assert!(err.contains("unknown op"), "{err}");

        let err = parse_events("{\"op\":\"follow\",\"src\":7,\"dst\":7}").unwrap_err();
        assert!(err.contains("self tie"), "{err}");
    }
}
