//! Deterministic 64-bit trace/span identifiers and the process time epoch.
//!
//! IDs are derived with FNV-1a ([`dd_linalg::bytes::fnv1a64`]) from
//! *logical* inputs only — the config seed, span names, and per-parent child
//! indices — never from wall-clock time or OS randomness. Two runs of the
//! same training config therefore produce the same trace tree with the same
//! IDs, which keeps telemetry diffable and lets tests assert on exact
//! parentage. Serving derives per-request trace IDs
//! from a seeded request counter, or adopts the ID offered by a
//! `traceparent`-style request header (W3C Trace Context shape, low 64 bits).
//!
//! The process epoch ([`epoch`]) anchors every span's `start_seconds` offset
//! so exporters (Chrome trace JSON) can place spans on a shared timeline.

use std::sync::OnceLock;
use std::time::Instant;

use dd_linalg::bytes::{fnv1a64, FNV64_SEED};

/// Maps the all-zero ID (reserved as "absent" by trace-context conventions)
/// to a fixed non-zero value.
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        FNV64_SEED
    } else {
        id
    }
}

/// The pair of IDs a span propagates to its children: which trace it belongs
/// to and its own span ID (the children's parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Trace ID shared by every span in the tree.
    pub trace_id: u64,
    /// This span's ID; children record it as `parent_span_id`.
    pub span_id: u64,
}

/// Derives a trace ID from a config seed and a root-span name.
///
/// Deterministic: the same `(seed, name)` always yields the same ID, so a
/// re-run of `dd train --seed 7` carries the same trace ID as the last one.
pub fn derive_trace_id(seed: u64, name: &str) -> u64 {
    let h = fnv1a64(&seed.to_le_bytes(), FNV64_SEED);
    nonzero(fnv1a64(name.as_bytes(), h))
}

/// Derives a span ID from its trace, parent span, name, and the 0-based
/// index among the parent's children. Including the index keeps repeated
/// same-named children (pool calls, epochs) distinct; including the parent
/// keeps equal subtrees under different parents distinct.
pub fn derive_span_id(trace_id: u64, parent_span_id: u64, name: &str, child_index: u64) -> u64 {
    let mut h = fnv1a64(&trace_id.to_le_bytes(), FNV64_SEED);
    h = fnv1a64(&parent_span_id.to_le_bytes(), h);
    h = fnv1a64(name.as_bytes(), h);
    nonzero(fnv1a64(&child_index.to_le_bytes(), h))
}

/// Formats an ID as 16 lowercase hex digits (the JSONL wire form).
pub fn hex16(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a hex ID of 1–32 digits, taking the low 64 bits (so both 16-digit
/// span IDs and 32-digit W3C trace IDs parse). Returns `None` for empty,
/// overlong, or non-hex input.
pub fn parse_hex_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let low = if s.len() > 16 { &s[s.len() - 16..] } else { s };
    u64::from_str_radix(low, 16).ok()
}

/// Parses a `traceparent` header (`00-<32 hex>-<16 hex>-<2 hex>`), returning
/// the trace ID's low 64 bits. Rejects malformed shapes and the reserved
/// all-zero trace ID.
pub fn parse_traceparent(value: &str) -> Option<u64> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    let trace = parts.next()?;
    let span = parts.next()?;
    let flags = parts.next()?;
    if parts.next().is_some() {
        return None;
    }
    if version.len() != 2 || trace.len() != 32 || span.len() != 16 || flags.len() != 2 {
        return None;
    }
    if !version.bytes().all(|b| b.is_ascii_hexdigit())
        || !flags.bytes().all(|b| b.is_ascii_hexdigit())
    {
        return None;
    }
    if trace.bytes().all(|b| b == b'0') {
        return None;
    }
    parse_hex_id(trace).filter(|&id| id != 0)
}

/// Renders a `traceparent` header for the given context (version `00`,
/// sampled flag set, trace ID zero-extended to 128 bits).
pub fn format_traceparent(ctx: SpanContext) -> String {
    format!("00-{:032x}-{:016x}-01", ctx.trace_id, ctx.span_id)
}

/// The process-wide time epoch all span offsets are measured from. First
/// call fixes it; `dd` binaries call [`init_epoch`] at startup so offsets
/// start near zero.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Fixes the epoch now. Idempotent.
pub fn init_epoch() {
    epoch();
}

/// Seconds elapsed since the process epoch.
pub fn now_seconds() -> f64 {
    epoch().elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_seed_sensitive() {
        assert_eq!(derive_trace_id(42, "model.fit"), derive_trace_id(42, "model.fit"));
        assert_ne!(derive_trace_id(42, "model.fit"), derive_trace_id(43, "model.fit"));
        assert_ne!(derive_trace_id(42, "model.fit"), derive_trace_id(42, "serve"));
        assert_ne!(derive_trace_id(0, ""), 0, "IDs must never be the reserved zero");
    }

    #[test]
    fn ids_are_pinned() {
        // Trace files of earlier runs stay joinable by ID.
        let t = derive_trace_id(0xdeed, "model.fit");
        assert_eq!(t, 0xe42f_46b7_4951_2682);
        assert_eq!(derive_span_id(t, 0, "estep.train", 3), 0xba0e_7ca5_bd81_090d);
    }

    #[test]
    fn span_ids_distinguish_siblings_and_parents() {
        let t = derive_trace_id(1, "fit");
        let root = derive_span_id(t, 0, "fit", 0);
        let a0 = derive_span_id(t, root, "estep", 0);
        let a1 = derive_span_id(t, root, "estep", 1);
        assert_ne!(a0, a1, "repeated same-named children must get distinct IDs");
        let other_parent = derive_span_id(t, a0, "estep", 0);
        assert_ne!(a0, other_parent);
        assert_eq!(a0, derive_span_id(t, root, "estep", 0), "derivation is a pure function");
    }

    #[test]
    fn hex_round_trips() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_hex_id(&hex16(id)), Some(id));
        }
        assert_eq!(parse_hex_id(&format!("{:032x}", 0xabcu64)), Some(0xabc));
        assert_eq!(parse_hex_id(""), None);
        assert_eq!(parse_hex_id("xyz"), None);
        assert_eq!(parse_hex_id(&"f".repeat(33)), None);
    }

    #[test]
    fn traceparent_parse_and_format() {
        let ctx = SpanContext { trace_id: 0x1234_5678_9abc_def0, span_id: 0x42 };
        let header = format_traceparent(ctx);
        assert_eq!(header, "00-0000000000000000123456789abcdef0-0000000000000042-01");
        assert_eq!(parse_traceparent(&header), Some(ctx.trace_id));
        // Malformed shapes are rejected.
        assert_eq!(parse_traceparent(""), None);
        assert_eq!(parse_traceparent("00-short-0000000000000042-01"), None);
        assert_eq!(
            parse_traceparent("00-00000000000000000000000000000000-0000000000000042-01"),
            None,
            "all-zero trace ID is reserved"
        );
        assert_eq!(parse_traceparent(&format!("{header}-extra")), None);
    }

    #[test]
    fn epoch_is_monotone() {
        init_epoch();
        let a = now_seconds();
        let b = now_seconds();
        assert!(b >= a && a >= 0.0);
    }
}
