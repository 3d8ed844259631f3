//! `from_raw_parts`, `transmute`, `target_feature` and
//! `is_x86_feature_detected` in prose, strings, and look-alikes only.

/// The audited casts live in `crates/linalg/src/bytes.rs`; a doc comment
/// mentioning `from_raw_parts`, `transmute` or `target_feature` must never
/// fire.
pub fn doc_only() -> &'static str {
    "from_raw_parts, transmute and is_x86_feature_detected belong in dd-linalg's bytes module"
}

/// A look-alike identifier is not the primitive.
pub fn from_raw_parts_checked(n: usize) -> usize {
    n
}
