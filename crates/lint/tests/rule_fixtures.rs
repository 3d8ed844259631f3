//! Fixture-driven rule coverage: every rule gets a violating fixture and a
//! clean fixture full of look-alike traps — an occurrence inside a string
//! literal, inside a doc comment, and inside a `#[cfg(test)]` module must
//! never fire.
//!
//! Fixtures live under `tests/fixtures/<rule>/`; the path each one is
//! checked *as* is synthetic, because every rule scopes by the reported
//! path, not the on-disk location.

use dd_lint::{check_file, FileReport};

/// `(line, rule)` pairs of unsuppressed violations, sorted.
fn hits(report: &FileReport) -> Vec<(u32, String)> {
    let mut v: Vec<(u32, String)> =
        report.violations.iter().map(|v| (v.line, v.rule.to_string())).collect();
    v.sort();
    v
}

fn assert_clean(report: &FileReport, context: &str) {
    assert!(
        report.violations.is_empty(),
        "{context}: expected no violations, got:\n{}",
        report.violations.iter().map(dd_lint::Violation::render).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn thread_confinement_fires_on_spawn_and_scope() {
    let report = check_file(
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/thread_confinement/bad.rs"),
    );
    let expected =
        vec![(7, "thread-confinement".to_string()), (8, "thread-confinement".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn thread_confinement_allows_runtime_and_ignores_prose() {
    // The very same spawning code is legal inside crates/runtime.
    let report = check_file(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/thread_confinement/bad.rs"),
    );
    assert_clean(&report, "bad.rs checked as crates/runtime");
    // Strings and doc comments mentioning spawns never fire, and the rule
    // patrols test code too — the clean fixture proves the traps hold there.
    let report = check_file(
        "crates/graph/src/fixture.rs",
        include_str!("fixtures/thread_confinement/clean.rs"),
    );
    assert_clean(&report, "thread_confinement/clean.rs");
}

#[test]
fn binary_io_fires_outside_the_audited_module() {
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/binary_io/bad.rs"));
    let expected: Vec<(u32, String)> =
        [6, 11, 16, 24, 30, 32].iter().map(|&line| (line, "binary-io".to_string())).collect();
    assert_eq!(hits(&report), expected);
    // The rule patrols test files too — byte-cast discipline is global.
    let report =
        check_file("crates/core/tests/fixture.rs", include_str!("fixtures/binary_io/bad.rs"));
    assert_eq!(hits(&report), expected);
}

#[test]
fn binary_io_allows_bytes_module_and_ignores_prose() {
    // The very same casts are legal inside the one audited module.
    let report =
        check_file("crates/linalg/src/bytes.rs", include_str!("fixtures/binary_io/bad.rs"));
    assert_clean(&report, "bad.rs checked as crates/linalg/src/bytes.rs");
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/binary_io/clean.rs"));
    assert_clean(&report, "binary_io/clean.rs");
}

#[test]
fn unwind_confinement_fires_outside_boundaries() {
    let report = check_file(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unwind_confinement/bad.rs"),
    );
    let expected =
        vec![(3, "unwind-confinement".to_string()), (7, "unwind-confinement".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn unwind_confinement_allows_serve_runtime_and_ignores_prose() {
    for path in ["crates/serve/src/fixture.rs", "crates/runtime/src/fixture.rs"] {
        let report = check_file(path, include_str!("fixtures/unwind_confinement/bad.rs"));
        assert_clean(&report, path);
    }
    let report = check_file(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/unwind_confinement/clean.rs"),
    );
    assert_clean(&report, "unwind_confinement/clean.rs");
}

#[test]
fn determinism_fires_on_clocks_and_bare_hash_collections() {
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/determinism/bad.rs"));
    let expected = vec![
        (5, "determinism".to_string()),
        (6, "determinism".to_string()),
        (7, "determinism".to_string()),
        (8, "determinism".to_string()),
    ];
    assert_eq!(hits(&report), expected);
}

#[test]
fn determinism_skips_non_result_crates_and_all_three_traps() {
    // dd-serve is not result-affecting: determinism stays silent there (the
    // fixture's raw clock read still answers to trace-hygiene, so filter).
    let report =
        check_file("crates/serve/src/fixture.rs", include_str!("fixtures/determinism/bad.rs"));
    assert!(
        report.violations.iter().all(|v| v.rule != "determinism"),
        "bad.rs checked as crates/serve should raise no determinism hits:\n{}",
        report.violations.iter().map(dd_lint::Violation::render).collect::<Vec<_>>().join("\n")
    );
    // String literal, doc comment, and #[cfg(test)] module must not fire.
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/determinism/clean.rs"));
    assert_clean(&report, "determinism/clean.rs");
}

#[test]
fn trace_hygiene_fires_on_raw_clock_reads() {
    let report =
        check_file("crates/serve/src/fixture.rs", include_str!("fixtures/trace_hygiene/bad.rs"));
    let expected = vec![(5, "trace-hygiene".to_string()), (7, "trace-hygiene".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn trace_hygiene_exempts_telemetry_and_result_crates_and_traps() {
    // crates/telemetry owns the clocks: the same code is legal there.
    let report = check_file(
        "crates/telemetry/src/fixture.rs",
        include_str!("fixtures/trace_hygiene/bad.rs"),
    );
    assert_clean(&report, "bad.rs checked as crates/telemetry");
    // Result-affecting crates answer to the stricter `determinism` rule
    // instead — trace-hygiene must not double-report the same line.
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/trace_hygiene/bad.rs"));
    assert!(
        report.violations.iter().all(|v| v.rule == "determinism"),
        "bad.rs checked as crates/core should only raise determinism hits:\n{}",
        report.violations.iter().map(dd_lint::Violation::render).collect::<Vec<_>>().join("\n")
    );
    // String literal, doc comment, #[cfg(test)] module, and an audited
    // pragma must not fire.
    let report =
        check_file("crates/serve/src/fixture.rs", include_str!("fixtures/trace_hygiene/clean.rs"));
    assert_clean(&report, "trace_hygiene/clean.rs");
}

#[test]
fn panic_hygiene_fires_on_unwrap_and_expect() {
    let report =
        check_file("crates/serve/src/fixture.rs", include_str!("fixtures/panic_hygiene/bad.rs"));
    let expected = vec![(5, "panic-hygiene".to_string()), (5, "panic-hygiene".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn panic_hygiene_skips_other_crates_and_all_three_traps() {
    // Outside the patrolled crates the same code is legal.
    let report =
        check_file("crates/eval/src/fixture.rs", include_str!("fixtures/panic_hygiene/bad.rs"));
    assert_clean(&report, "bad.rs checked as crates/eval");
    // String literal, doc comment, and #[cfg(test)] module must not fire.
    let report = check_file(
        "crates/runtime/src/fixture.rs",
        include_str!("fixtures/panic_hygiene/clean.rs"),
    );
    assert_clean(&report, "panic_hygiene/clean.rs");
}

#[test]
fn float_eq_fires_on_literal_comparisons() {
    let report =
        check_file("crates/graph/src/fixture.rs", include_str!("fixtures/float_eq/bad.rs"));
    let expected =
        vec![(5, "float-eq".to_string()), (6, "float-eq".to_string()), (7, "float-eq".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn float_eq_ignores_ints_ranges_vars_and_all_three_traps() {
    let report =
        check_file("crates/graph/src/fixture.rs", include_str!("fixtures/float_eq/clean.rs"));
    assert_clean(&report, "float_eq/clean.rs");
}

#[test]
fn pub_doc_fires_on_undocumented_top_level_items() {
    let report = check_file("crates/core/src/fixture.rs", include_str!("fixtures/pub_doc/bad.rs"));
    let expected =
        vec![(3, "pub-doc".to_string()), (5, "pub-doc".to_string()), (9, "pub-doc".to_string())];
    assert_eq!(hits(&report), expected);
}

#[test]
fn pub_doc_accepts_docs_and_skips_non_api_items() {
    let report =
        check_file("crates/core/src/fixture.rs", include_str!("fixtures/pub_doc/clean.rs"));
    assert_clean(&report, "pub_doc/clean.rs");
    // Crates outside the doc-required list are exempt entirely.
    let report = check_file("crates/serve/src/fixture.rs", include_str!("fixtures/pub_doc/bad.rs"));
    assert_clean(&report, "bad.rs checked as crates/serve");
}

#[test]
fn guard_scope_fires_on_scrutinee_temps_and_loop_holds() {
    let report =
        check_file("crates/cli/src/fixture.rs", include_str!("fixtures/guard_scope/bad.rs"));
    let expected = vec![
        (8, "guard-scope".to_string()), // PR 3 shape: while-let scrutinee temp
        (14, "guard-scope".to_string()), // if-let scrutinee temp
        (20, "guard-scope".to_string()), // match scrutinee temp
        (28, "guard-scope".to_string()), // bound guard held across unrelated loop
    ];
    assert_eq!(hits(&report), expected);
}

#[test]
fn guard_scope_allows_fixed_shapes_and_all_three_traps() {
    let report =
        check_file("crates/cli/src/fixture.rs", include_str!("fixtures/guard_scope/clean.rs"));
    assert_clean(&report, "guard_scope/clean.rs");
}

#[test]
fn blocking_while_locked_fires_under_live_guards() {
    let report = check_file(
        "crates/cli/src/fixture.rs",
        include_str!("fixtures/blocking_while_locked/bad.rs"),
    );
    let expected = vec![
        (10, "blocking-while-locked".to_string()), // recv through a temporary guard
        (15, "blocking-while-locked".to_string()), // sleep under a bound guard
        (22, "blocking-while-locked".to_string()), // socket read under a bound guard
        (28, "blocking-while-locked".to_string()), // channel send under a bound guard
    ];
    assert_eq!(hits(&report), expected);
}

#[test]
fn blocking_while_locked_exempts_condvar_drop_and_traps() {
    let report = check_file(
        "crates/cli/src/fixture.rs",
        include_str!("fixtures/blocking_while_locked/clean.rs"),
    );
    assert_clean(&report, "blocking_while_locked/clean.rs");
}

#[test]
fn lock_order_fires_on_contradictions_and_cycles() {
    let report =
        check_file("crates/cli/src/fixture.rs", include_str!("fixtures/lock_order/bad.rs"));
    let expected = vec![
        (12, "lock-order".to_string()), // PR 9 shape: shard-then-engine against order(engine < shard)
        (18, "lock-order".to_string()), // alpha/beta cycle, reported at its first edge
    ];
    assert_eq!(hits(&report), expected);
    // The acquisition-order graph itself is part of the report.
    assert!(
        report.edges.iter().any(|e| e.from == "shard" && e.to == "engine"),
        "shard→engine edge missing from {:?}",
        report.edges
    );
}

#[test]
fn lock_order_allows_consistent_nesting_helpers_and_traps() {
    let report =
        check_file("crates/cli/src/fixture.rs", include_str!("fixtures/lock_order/clean.rs"));
    assert_clean(&report, "lock_order/clean.rs");
    // The guard-returning helper must feed the graph: engine→slot.
    assert!(
        report.edges.iter().any(|e| e.from == "engine" && e.to == "slot"),
        "helper-produced engine→slot edge missing from {:?}",
        report.edges
    );
}

#[test]
fn pragma_misuse_is_itself_a_violation() {
    let report = check_file("crates/graph/src/fixture.rs", include_str!("fixtures/pragma/bad.rs"));
    let expected = vec![
        (3, "pragma".to_string()),    // valid but unused
        (7, "pragma".to_string()),    // unknown rule name
        (11, "pragma".to_string()),   // missing reason
        (14, "float-eq".to_string()), // the reasonless pragma suppresses nothing
        (17, "pragma".to_string()),   // malformed keyword
    ];
    assert_eq!(hits(&report), expected);
}

#[test]
fn pragma_with_reason_suppresses_and_records_audit_trail() {
    let report =
        check_file("crates/graph/src/fixture.rs", include_str!("fixtures/pragma/clean.rs"));
    assert_clean(&report, "pragma/clean.rs");
    assert_eq!(report.pragmas.len(), 1, "doc-comment mention must not parse as a pragma");
    let p = &report.pragmas[0];
    assert_eq!(p.rule, "float-eq");
    assert!(p.used, "the suppressing pragma must be marked used");
    assert!(p.reason.contains("sentinel"));
}
