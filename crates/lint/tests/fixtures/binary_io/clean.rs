//! `from_raw_parts`, `transmute`, `target_feature`,
//! `is_x86_feature_detected` and `madvise` in prose, strings, and
//! look-alikes only.

/// The audited casts live in `crates/linalg/src/bytes.rs`; a doc comment
/// mentioning `from_raw_parts`, `transmute` or `target_feature` must never
/// fire.
pub fn doc_only() -> &'static str {
    "from_raw_parts, transmute, is_x86_feature_detected and madvise belong in dd-linalg's bytes module"
}

/// A look-alike identifier is not the primitive.
pub fn from_raw_parts_checked(n: usize) -> usize {
    n
}

/// Huge pages go through the audited helper, whose name only contains the
/// call (`madvise`).
pub fn madvise_hugepage_count(n: usize) -> usize {
    n
}
