//! Self-hosting check: dd-lint run over this workspace must agree exactly
//! with the checked-in `lint-baseline.txt` — no new violations, no stale
//! (silently shrunk) entries. This is the same comparison CI performs, so
//! a red test here means a red lint job there.

use std::path::Path;

use dd_lint::baseline;

#[test]
fn workspace_matches_checked_in_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dd_lint::check_workspace(&root).expect("workspace scan");
    assert!(report.files > 50, "suspiciously few files scanned: {}", report.files);

    let baseline_path = root.join("lint-baseline.txt");
    let baselined = baseline::load(&baseline_path).expect("parse lint-baseline.txt");
    let drift = baseline::compare(&report.violations, &baselined);
    assert!(
        drift.is_empty(),
        "workspace drifted from lint-baseline.txt (run \
         `cargo run -p dd-lint -- --workspace --write-baseline` if intended):\n{drift:#?}"
    );
}

#[test]
fn panic_hygiene_and_float_eq_baselines_are_empty() {
    // The contract this PR establishes: zero tolerated debt for these two
    // rules. A baseline entry for either means the ratchet slipped.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baselined =
        baseline::load(&root.join("lint-baseline.txt")).expect("parse lint-baseline.txt");
    for ((file, rule), count) in &baselined {
        assert!(
            rule != "panic-hygiene" && rule != "float-eq",
            "{file} carries {count} baselined {rule} violation(s); this debt was burned down \
             and must not return"
        );
    }
}

#[test]
fn workspace_lock_graph_is_acyclic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dd_lint::check_workspace(&root).expect("workspace scan");
    let cycles = dd_lint::lock_cycles(&report.edges);
    assert!(
        cycles.is_empty(),
        "lock-acquisition-order graph has cycles (potential deadlocks): {cycles:?}"
    );
    // Pin the §7.15 ordering edge so a silent detection regression (edges
    // vanishing, graph trivially acyclic) also fails this test.
    assert!(
        report.edges.iter().any(|e| e.from == "served" && e.to == "shard"),
        "expected served→shard edge missing from the workspace lock graph: {:?}",
        report.edges
    );
}

#[test]
fn runtime_determinism_pragmas_have_design_exemptions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dd_lint::check_workspace(&root).expect("workspace scan");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let failures = dd_lint::check_exemptions(&report.pragmas, &design);
    assert!(failures.is_empty(), "unexempted determinism pragmas:\n{}", failures.join("\n"));
}
