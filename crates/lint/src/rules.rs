//! The contract rules, their scoping, and the per-file checking engine.
//!
//! Every rule is named, and every violation prints as
//! `file:line: rule: message`. Scoping is path-based (workspace-relative
//! paths decide which crates a rule patrols) plus test-awareness: rules
//! marked `skip_tests` ignore `tests/` files, `#[cfg(test)]` modules and
//! `#[test]` functions.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph;
use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};
use crate::locks::{self, AcquiresDirective, LockEdge, OrderDecl};

/// Crates whose outputs must be bit-identical run-to-run (DESIGN.md §7.9):
/// the `determinism` rule patrols these. `runtime` is included because the
/// substrate's chunk structure is the determinism contract itself — its two
/// wall-clock stats reads carry audited pragmas cross-checked against
/// DESIGN.md (`--check-exemptions`). `datasets` generates the deterministic
/// synthetic inputs, so it is result-affecting by construction.
pub const RESULT_AFFECTING: &[&str] =
    &["core", "graph", "linalg", "baselines", "eval", "runtime", "stream", "datasets"];

/// Crates whose top-level public items the `pub-doc` rule requires docs on.
pub const DOC_REQUIRED: &[&str] =
    &["core", "graph", "linalg", "baselines", "eval", "runtime", "stream", "datasets"];

/// All rule names, in reporting order.
pub const RULE_NAMES: &[&str] = &[
    "thread-confinement",
    "unwind-confinement",
    "binary-io",
    "determinism",
    "trace-hygiene",
    "panic-hygiene",
    "float-eq",
    "pub-doc",
    "guard-scope",
    "blocking-while-locked",
    "lock-order",
    "pragma",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// The canonical `file:line: rule: message` rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// One parsed `// dd-lint: allow(<rule>) — <reason>` pragma (the audit
/// trail for every suppressed violation).
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the comment's start.
    pub line: u32,
    /// 1-based line of the comment's end (suppression covers `end_line`
    /// and `end_line + 1`).
    pub end_line: u32,
    /// The rule being allowed.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Whether the pragma suppressed at least one violation this run.
    pub used: bool,
}

/// Everything the engine found in one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that were *not* suppressed by a pragma.
    pub violations: Vec<Violation>,
    /// Every well-formed pragma, with its `used` flag settled.
    pub pragmas: Vec<Pragma>,
    /// Lock-acquisition edges observed in this file (see [`crate::locks`]).
    pub edges: Vec<crate::locks::LockEdge>,
}

/// Path-derived scoping facts for one file.
#[derive(Debug, Clone, Copy)]
struct Scope<'a> {
    /// `Some("graph")` for `crates/graph/...`.
    crate_name: Option<&'a str>,
    /// True for files that are entirely test code (`tests/` and `benches/`
    /// directories anywhere in the path).
    test_file: bool,
    /// True for non-test library/binary source under `crates/<c>/src/`.
    crate_src: bool,
}

fn scope(path: &str) -> Scope<'_> {
    let mut crate_name = None;
    let mut crate_src = false;
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            crate_name = Some(name);
            crate_src = tail.starts_with("src/");
        }
    }
    let test_file =
        path.split('/').any(|part| part == "tests" || part == "benches" || part == "fixtures");
    Scope { crate_name, test_file, crate_src }
}

/// Phase-A output for one file: everything derivable from that file alone.
/// The lock rules need the *global* helper table and edge set, so lock
/// analysis and pragma settlement happen later, in [`finish`].
pub(crate) struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Pre-suppression violations from the single-file rules.
    pub raw: Vec<Violation>,
    /// Well-formed `allow()` pragmas, `used` not yet settled.
    pub pragmas: Vec<Pragma>,
    /// `order(a < b)` declarations.
    pub orders: Vec<OrderDecl>,
    /// `acquires(x)` call-site directives.
    pub acquires: Vec<AcquiresDirective>,
    /// Guard-returning helpers detected in this file (`fn` → lock name).
    pub helpers: Vec<(String, String)>,
    toks: Vec<Tok>,
    test_mask: Vec<bool>,
}

/// The cross-file result of [`finish`].
pub(crate) struct Finished {
    /// Unsuppressed violations, sorted.
    pub violations: Vec<Violation>,
    /// Every pragma, `used` settled, in file order.
    pub pragmas: Vec<Pragma>,
    /// The acquisition-order graph's edges, sorted and global.
    pub edges: Vec<LockEdge>,
}

/// Phase A: runs every single-file rule and collects the facts the
/// cross-file phase needs. `path` must be workspace-relative with `/`
/// separators — it drives rule scoping, so fixture tests pass synthetic
/// paths like `crates/serve/src/fixture.rs` to opt into a crate's rule set.
/// Pure per-file work: safe to run in parallel across files.
pub(crate) fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let lexed = lex(src);
    let sc = scope(path);
    let test_tok = test_token_mask(&lexed.toks, sc.test_file);
    let mut pragmas = Vec::new();
    let mut orders = Vec::new();
    let mut acquires = Vec::new();
    let mut raw: Vec<Violation> = Vec::new();

    collect_pragmas(path, &lexed.comments, &mut pragmas, &mut orders, &mut acquires, &mut raw);
    thread_confinement(path, sc, &lexed.toks, &mut raw);
    unwind_confinement(path, sc, &lexed.toks, &mut raw);
    binary_io(path, sc, &lexed.toks, &mut raw);
    determinism(path, sc, &lexed.toks, &test_tok, &mut raw);
    trace_hygiene(path, sc, &lexed.toks, &test_tok, &mut raw);
    panic_hygiene(path, sc, &lexed.toks, &test_tok, &mut raw);
    float_eq(path, sc, &lexed.toks, &test_tok, &mut raw);
    pub_doc(path, sc, &lexed, &test_tok, &mut raw);
    let helpers = locks::detect_helpers(&lexed.toks, &test_tok);

    FileAnalysis {
        path: path.to_string(),
        raw,
        pragmas,
        orders,
        acquires,
        helpers,
        toks: lexed.toks,
        test_mask: test_tok,
    }
}

/// Phase B: the cross-file pass. Unions the guard-returning-helper tables,
/// runs lock analysis per file against the global table, assembles the
/// acquisition-order graph, checks cycles and `order()` declarations, and
/// only then settles pragma suppression (so global `lock-order` findings
/// are suppressible at the site they are attributed to, like any other
/// violation). Serial and deterministic.
pub(crate) fn finish(mut analyses: Vec<FileAnalysis>) -> Finished {
    // Global helper table. A helper name detected with *different* lock
    // names in different places is ambiguous; dropping it loses edges but
    // never invents them.
    let mut table: BTreeMap<String, Option<String>> = BTreeMap::new();
    for a in &analyses {
        for (name, lock) in &a.helpers {
            match table.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(Some(lock.clone()));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if e.get().as_deref() != Some(lock.as_str()) {
                        e.insert(None);
                    }
                }
            }
        }
    }
    let helper_table: BTreeMap<String, String> =
        table.into_iter().filter_map(|(k, v)| v.map(|l| (k, l))).collect();

    let mut edges: Vec<LockEdge> = Vec::new();
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for a in &mut analyses {
        let la =
            locks::analyze(&a.path, &a.toks, &a.test_mask, &helper_table, &a.acquires, &mut a.raw);
        nodes.extend(la.nodes);
        // A stale acquires() directive (not under any live guard) is noise
        // in the audit trail, exactly like an unused allow().
        for d in &a.acquires {
            if !la.used_acquires.contains(&d.end_line) {
                a.raw.push(Violation {
                    file: a.path.clone(),
                    line: d.end_line,
                    rule: "pragma",
                    message: format!(
                        "acquires({}) directive covers line {} but no lock guard is live there; \
                         remove it or move it under the guard",
                        d.lock,
                        d.end_line + 1
                    ),
                });
            }
        }
        edges.extend(la.edges);
    }
    edges.sort();
    edges.dedup();

    // Global graph checks land as violations on real files so the normal
    // pragma/baseline machinery applies.
    let mut global: Vec<Violation> = Vec::new();
    for cycle in graph::lock_cycles(&edges) {
        let set: BTreeSet<&str> = cycle.iter().map(|s| s.as_str()).collect();
        let internal: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| set.contains(e.from.as_str()) && set.contains(e.to.as_str()))
            .collect();
        let Some(site) = internal.iter().min_by_key(|e| (&e.file, e.line)) else { continue };
        let sites: Vec<String> = internal
            .iter()
            .map(|e| format!("{}:{} ({}→{})", e.file, e.line, e.from, e.to))
            .collect();
        global.push(Violation {
            file: site.file.clone(),
            line: site.line,
            rule: "lock-order",
            message: format!(
                "potential deadlock: lock acquisition cycle {{{}}}; acquisition sites: {}",
                cycle.join(" ⇄ "),
                sites.join(", ")
            ),
        });
    }
    let all_orders: Vec<&OrderDecl> = analyses.iter().flat_map(|a| &a.orders).collect();
    for d in &all_orders {
        for name in [&d.first, &d.second] {
            if !nodes.contains(name) {
                global.push(Violation {
                    file: d.file.clone(),
                    line: d.line,
                    rule: "pragma",
                    message: format!(
                        "order({} < {}) names lock `{name}` which is never acquired in the \
                         analyzed files; fix the name or drop the declaration",
                        d.first, d.second
                    ),
                });
            }
        }
        for d2 in &all_orders {
            if d2.first == d.second
                && d2.second == d.first
                && (&d2.file, d2.line) > (&d.file, d.line)
            {
                global.push(Violation {
                    file: d2.file.clone(),
                    line: d2.line,
                    rule: "lock-order",
                    message: format!(
                        "order({} < {}) conflicts with order({} < {}) declared at {}:{}",
                        d2.first, d2.second, d.first, d.second, d.file, d.line
                    ),
                });
            }
        }
        if let Some(path) = graph::find_path(&edges, &d.second, &d.first) {
            let e = path[0];
            let chain: Vec<String> = std::iter::once(d.second.clone())
                .chain(path.iter().map(|e| e.to.clone()))
                .collect();
            global.push(Violation {
                file: e.file.clone(),
                line: e.line,
                rule: "lock-order",
                message: format!(
                    "acquiring `{}` while `{}` is held contradicts order({} < {}) declared at \
                     {}:{} (acquisition path: {})",
                    e.to,
                    e.from,
                    d.first,
                    d.second,
                    d.file,
                    d.line,
                    chain.join(" → ")
                ),
            });
        }
    }
    for v in global {
        if let Some(a) = analyses.iter_mut().find(|a| a.path == v.file) {
            a.raw.push(v);
        }
    }

    // Settle pragmas per file: a pragma covers its own last line and the
    // line after it, for its named rule only.
    let mut violations = Vec::new();
    let mut pragmas = Vec::new();
    for a in &mut analyses {
        for v in std::mem::take(&mut a.raw) {
            let mut suppressed = false;
            if v.rule != "pragma" {
                for p in a.pragmas.iter_mut() {
                    if p.rule == v.rule && (v.line == p.end_line || v.line == p.end_line + 1) {
                        p.used = true;
                        suppressed = true;
                    }
                }
            }
            if !suppressed {
                violations.push(v);
            }
        }
        // An allow() that allows nothing is itself a violation: stale
        // pragmas must not linger as false audit entries.
        for p in &a.pragmas {
            if !p.used {
                violations.push(Violation {
                    file: a.path.clone(),
                    line: p.line,
                    rule: "pragma",
                    message: format!(
                        "unused pragma: allow({}) suppresses nothing on line {} or {}",
                        p.rule,
                        p.end_line,
                        p.end_line + 1
                    ),
                });
            }
        }
        pragmas.append(&mut a.pragmas);
    }
    violations.sort();
    Finished { violations, pragmas, edges }
}

/// Checks one file through the full pipeline (both phases over a singleton
/// set). Cross-file helper resolution degrades gracefully: only helpers
/// defined in this same file are visible. Fixture tests and one-off checks
/// use this; the workspace entry points batch phase A and share phase B.
pub fn check_file(path: &str, src: &str) -> FileReport {
    let fin = finish(vec![analyze_file(path, src)]);
    FileReport { violations: fin.violations, pragmas: fin.pragmas, edges: fin.edges }
}

/// Marks which tokens sit inside test-only code: whole-file test sources,
/// `#[cfg(test)]`-gated items, and `#[test]` functions.
fn test_token_mask(toks: &[Tok], whole_file: bool) -> Vec<bool> {
    let mut mask = vec![whole_file; toks.len()];
    if whole_file {
        return mask;
    }
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            let close = match matching(toks, i + 1, "[", "]") {
                Some(c) => c,
                None => break,
            };
            let gated =
                toks[i + 2..close].iter().any(|t| t.kind == TokKind::Ident && t.text == "test");
            if gated {
                // The attribute governs the next item; mark from the
                // attribute through the item's end.
                let end = item_end(toks, close + 1);
                for m in mask.iter_mut().take(end.min(toks.len())).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index just past the item starting at `start`: skips leading attributes,
/// then ends at the first top-level `;` or the matching `}` of the first
/// top-level `{`.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    // Skip any further attributes stacked on the same item.
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        match matching(toks, i + 1, "[", "]") {
            Some(c) => i = c + 1,
            None => return toks.len(),
        }
    }
    let mut depth_paren = 0i32;
    let mut depth_bracket = 0i32;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "(" => depth_paren += 1,
            ")" => depth_paren -= 1,
            "[" => depth_bracket += 1,
            "]" => depth_bracket -= 1,
            ";" if depth_paren == 0 && depth_bracket == 0 => return i + 1,
            "{" if depth_paren == 0 && depth_bracket == 0 => {
                return match matching(toks, i, "{", "}") {
                    Some(c) => c + 1,
                    None => toks.len(),
                };
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Index of the token matching the opener at `open` (`toks[open]` must be
/// `open_text`).
fn matching(toks: &[Tok], open: usize, open_text: &str, close_text: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct && t.text == open_text {
            depth += 1;
        } else if t.kind == TokKind::Punct && t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn is_ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn is_punct(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Punct && t.text == text
}

fn push(out: &mut Vec<Violation>, file: &str, line: u32, rule: &'static str, message: String) {
    out.push(Violation { file: file.to_string(), line, rule, message });
}

/// `thread-confinement`: `thread::spawn` / `thread::scope` only inside
/// `crates/runtime` (everything else goes through `Pool`, `WorkerPool`,
/// `spawn_named`, or `dd_runtime::scope`). Applies to test code too —
/// threading discipline is global.
fn thread_confinement(path: &str, _sc: Scope, toks: &[Tok], out: &mut Vec<Violation>) {
    if path.starts_with("crates/runtime/") {
        return;
    }
    for w in toks.windows(3) {
        if is_ident(&w[0], "thread")
            && is_punct(&w[1], "::")
            && (is_ident(&w[2], "spawn") || is_ident(&w[2], "scope"))
        {
            push(
                out,
                path,
                w[2].line,
                "thread-confinement",
                format!(
                    "thread::{} outside crates/runtime; use dd_runtime::{{Pool, WorkerPool, \
                     spawn_named, scope}} (DESIGN.md §7.9)",
                    w[2].text
                ),
            );
        }
    }
}

/// `unwind-confinement`: `catch_unwind` only at the two scheduling
/// boundaries, `crates/serve` and `crates/runtime` (DESIGN.md §7.10).
fn unwind_confinement(path: &str, _sc: Scope, toks: &[Tok], out: &mut Vec<Violation>) {
    if path.starts_with("crates/serve/") || path.starts_with("crates/runtime/") {
        return;
    }
    for t in toks {
        if is_ident(t, "catch_unwind") {
            push(
                out,
                path,
                t.line,
                "unwind-confinement",
                "catch_unwind outside crates/serve and crates/runtime; library code stays \
                 panic-transparent (DESIGN.md §7.10)"
                    .to_string(),
            );
        }
    }
}

/// `binary-io`: the slice-reinterpretation primitives (`from_raw_parts`,
/// `from_raw_parts_mut`, `transmute`), CPU-specific code (`target_feature`,
/// `is_x86_feature_detected`) and page advice (`madvise`, its FFI
/// declaration and its call) are confined to the one audited byte module,
/// `crates/linalg/src/bytes.rs` (DESIGN.md §7.13), home of the CRC-32's
/// carry-less-multiply kernel and of `advise_huge_pages` (§7.9). All other
/// code borrows typed slices from `AlignedBuf` through its checked cast
/// helpers and asks for huge pages through `advise_huge_pages`; the
/// E-Step's Hogwild raw-pointer writes are a separately audited mechanism
/// that never reinterprets memory, so it does not need these tokens.
/// Applies to test code too — byte-cast discipline is global.
fn binary_io(path: &str, _sc: Scope, toks: &[Tok], out: &mut Vec<Violation>) {
    if path == "crates/linalg/src/bytes.rs" {
        return;
    }
    for t in toks {
        let what = if is_ident(t, "from_raw_parts")
            || is_ident(t, "from_raw_parts_mut")
            || is_ident(t, "transmute")
        {
            "slice reinterpretation"
        } else if is_ident(t, "target_feature") || is_ident(t, "is_x86_feature_detected") {
            "CPU-specific (SIMD) code"
        } else if is_ident(t, "madvise") {
            "page advice"
        } else {
            continue;
        };
        push(
            out,
            path,
            t.line,
            "binary-io",
            format!(
                "{} outside crates/linalg/src/bytes.rs; {what} is confined to the one audited \
                 byte module (DESIGN.md §7.13)",
                t.text
            ),
        );
    }
}

/// `determinism`: no wall-clock reads (`Instant::now`, `SystemTime`) and no
/// randomized-iteration-order collections (bare `HashMap`/`HashSet`) in
/// result-affecting crates. `FxHashMap`/`FxHashSet` (fixed hasher) and
/// `BTreeMap`/`Vec` are the sanctioned alternatives.
fn determinism(path: &str, sc: Scope, toks: &[Tok], test: &[bool], out: &mut Vec<Violation>) {
    if !sc.crate_name.is_some_and(|c| RESULT_AFFECTING.contains(&c)) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if is_ident(t, "Instant")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
            && toks.get(i + 2).is_some_and(|n| is_ident(n, "now"))
        {
            push(
                out,
                path,
                t.line,
                "determinism",
                "Instant::now in a result-affecting crate; results must not depend on wall \
                 clocks (DESIGN.md §7.9)"
                    .to_string(),
            );
        }
        if is_ident(t, "SystemTime") {
            push(
                out,
                path,
                t.line,
                "determinism",
                "SystemTime in a result-affecting crate; results must not depend on wall clocks \
                 (DESIGN.md §7.9)"
                    .to_string(),
            );
        }
        if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
            push(
                out,
                path,
                t.line,
                "determinism",
                format!(
                    "bare {} in a result-affecting crate; iteration order is not deterministic — \
                     use dd_graph::hash::Fx{} or a sorted collection (DESIGN.md §7.9)",
                    t.text, t.text
                ),
            );
        }
    }
}

/// `trace-hygiene`: raw `Instant::now` reads belong to `crates/telemetry` —
/// spans, the trace epoch, and the observer own the clocks, so timing that
/// matters shows up in the trace instead of vanishing into a local. Non-test
/// code elsewhere must time work through a telemetry span or carry an
/// audited pragma saying why the read is not a lost span (DESIGN.md §7.12).
/// Result-affecting crates are excluded: the stricter `determinism` rule
/// already bans wall clocks there outright, and one audited pragma per
/// exemption is enough.
fn trace_hygiene(path: &str, sc: Scope, toks: &[Tok], test: &[bool], out: &mut Vec<Violation>) {
    if path.starts_with("crates/telemetry/")
        || sc.crate_name.is_some_and(|c| RESULT_AFFECTING.contains(&c))
    {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if test[i] {
            continue;
        }
        if is_ident(t, "Instant")
            && toks.get(i + 1).is_some_and(|n| is_punct(n, "::"))
            && toks.get(i + 2).is_some_and(|n| is_ident(n, "now"))
        {
            push(
                out,
                path,
                t.line,
                "trace-hygiene",
                "raw Instant::now outside crates/telemetry; time the work with a telemetry span \
                 so it appears in the trace, or audit the clock read with an allow pragma \
                 (DESIGN.md §7.12)"
                    .to_string(),
            );
        }
    }
}

/// `panic-hygiene`: no `.unwrap()` / `.expect(` in non-test `crates/serve`
/// and `crates/runtime` source — the serving request path and the runtime
/// workers must degrade, not die. `unwrap_or*` variants are fine.
fn panic_hygiene(path: &str, sc: Scope, toks: &[Tok], test: &[bool], out: &mut Vec<Violation>) {
    let patrolled =
        path.starts_with("crates/serve/src/") || path.starts_with("crates/runtime/src/");
    if !patrolled || !sc.crate_src {
        return;
    }
    for i in 0..toks.len().saturating_sub(2) {
        if test[i] {
            continue;
        }
        let (a, b, c) = (&toks[i], &toks[i + 1], &toks[i + 2]);
        if is_punct(a, ".") && (is_ident(b, "unwrap") || is_ident(b, "expect")) && is_punct(c, "(")
        {
            push(
                out,
                path,
                b.line,
                "panic-hygiene",
                format!(
                    ".{}() in non-test serve/runtime code; use a typed error, a match, or a \
                     documented allow pragma",
                    b.text
                ),
            );
        }
    }
}

/// `float-eq`: `==` / `!=` against a float literal outside tests. Exact
/// float comparison is almost always a determinism or correctness smell;
/// use `total_cmp`, `f64::classify`, an epsilon helper, or bit patterns.
fn float_eq(path: &str, _sc: Scope, toks: &[Tok], test: &[bool], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if test[i] || !(is_punct(t, "==") || is_punct(t, "!=")) {
            continue;
        }
        let lhs_float = i > 0 && toks[i - 1].kind == TokKind::Float;
        let rhs_float = match toks.get(i + 1) {
            Some(n) if n.kind == TokKind::Float => true,
            // `== -1.0`: unary minus then the literal.
            Some(n) if is_punct(n, "-") => {
                toks.get(i + 2).is_some_and(|m| m.kind == TokKind::Float)
            }
            _ => false,
        };
        if lhs_float || rhs_float {
            push(
                out,
                path,
                t.line,
                "float-eq",
                format!(
                    "`{}` against a float literal; use total_cmp, classify(), or an epsilon \
                     helper (dd_linalg::is_zero)",
                    t.text
                ),
            );
        }
    }
}

/// `pub-doc`: top-level `pub` items in the core crates need an outer doc
/// comment (`///` or `/** */`) or a `#[doc = …]` attribute. Depth-0 only:
/// impl blocks and struct fields are rustdoc's job (`missing_docs` is
/// already `warn` in every library crate); this rule keeps the file-level
/// API surface honest even in crates that forget the attribute.
fn pub_doc(path: &str, sc: Scope, lexed: &Lexed, test: &[bool], out: &mut Vec<Violation>) {
    if !sc.crate_src || !sc.crate_name.is_some_and(|c| DOC_REQUIRED.contains(&c)) {
        return;
    }
    // `mod` is deliberately absent: file modules (`pub mod x;`) carry
    // their documentation as `//!` inner docs in the module file, which a
    // per-file pass cannot see — rustdoc's `missing_docs` covers those.
    const ITEM_KINDS: &[&str] =
        &["fn", "struct", "enum", "trait", "type", "const", "static", "union"];
    let toks = &lexed.toks;
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" if t.kind == TokKind::Punct => depth += 1,
            "}" if t.kind == TokKind::Punct => depth -= 1,
            _ => {}
        }
        if depth != 0 || test[i] || !is_ident(t, "pub") {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        if toks.get(i + 1).is_some_and(|n| is_punct(n, "(")) {
            continue;
        }
        // The item keyword may sit behind `unsafe`, `async`, `extern "C"`.
        let mut j = i + 1;
        while j < toks.len()
            && (is_ident(&toks[j], "unsafe")
                || is_ident(&toks[j], "async")
                || is_ident(&toks[j], "extern")
                || toks[j].kind == TokKind::Str)
        {
            j += 1;
        }
        let Some(kind_tok) = toks.get(j) else { continue };
        if !ITEM_KINDS.contains(&kind_tok.text.as_str()) {
            continue; // `pub use` re-exports and anything exotic: skip.
        }
        let name = toks.get(j + 1).map(|n| n.text.as_str()).unwrap_or("?");
        if has_doc(lexed, toks, i) {
            continue;
        }
        push(
            out,
            path,
            t.line,
            "pub-doc",
            format!("public {} `{name}` has no doc comment", kind_tok.text),
        );
    }
}

/// Whether the `pub` token at index `i` is documented: walk back over the
/// item's attributes (a `#[doc = …]` counts as documentation), then accept
/// any outer doc comment separated from the item only by comments/blank
/// lines.
fn has_doc(lexed: &Lexed, toks: &[Tok], i: usize) -> bool {
    let mut start = i;
    loop {
        // Attributes lex as `#` `[` … `]`; walk back one group at a time.
        if start >= 2 && is_punct(&toks[start - 1], "]") {
            let mut depth = 0i32;
            let mut j = start - 1;
            loop {
                if is_punct(&toks[j], "]") {
                    depth += 1;
                } else if is_punct(&toks[j], "[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return false;
                }
                j -= 1;
            }
            if j >= 1 && is_punct(&toks[j - 1], "#") {
                if toks[j..start].iter().any(|t| is_ident(t, "doc")) {
                    return true;
                }
                start = j - 1;
                continue;
            }
        }
        break;
    }
    let item_line = toks[start].line;
    // The nearest outer doc comment above the item, with no code tokens in
    // between (doc comments attach across blank lines, like rustdoc).
    let Some(best) =
        lexed.comments.iter().filter(|c| c.doc && c.end_line < item_line).map(|c| c.end_line).max()
    else {
        return false;
    };
    !toks.iter().any(|t| t.line > best && t.line < item_line)
}

/// Parses every `dd-lint:` directive out of the comment list: `allow()`
/// suppression pragmas, `order(a < b)` lock-order declarations, and
/// `acquires(x)` call-site hints. Malformed ones (unknown rule, missing
/// reason, bad lock names) become `pragma` violations.
fn collect_pragmas(
    path: &str,
    comments: &[Comment],
    pragmas: &mut Vec<Pragma>,
    orders: &mut Vec<OrderDecl>,
    acquires: &mut Vec<AcquiresDirective>,
    out: &mut Vec<Violation>,
) {
    for (ci, c) in comments.iter().enumerate() {
        // Pragmas live in plain comments only; doc comments (either
        // direction) may *describe* the syntax without being parsed.
        if c.any_doc {
            continue;
        }
        let Some(at) = c.text.find("dd-lint:") else { continue };
        let rest = c.text[at + "dd-lint:".len()..].trim_start();
        if let Some(args) = rest.strip_prefix("order(") {
            collect_order(path, c, args, orders, out);
            continue;
        }
        if let Some(args) = rest.strip_prefix("acquires(") {
            collect_acquires(path, c, args, &comments[ci + 1..], acquires, out);
            continue;
        }
        let Some(args) = rest.strip_prefix("allow(") else {
            push(
                out,
                path,
                c.line,
                "pragma",
                format!(
                    "malformed dd-lint pragma (expected `dd-lint: allow(<rule>) — <reason>`, \
                     `dd-lint: order(<lock> < <lock>) — <reason>`, or `dd-lint: acquires(<lock>) \
                     — <reason>`): {rest}"
                ),
            );
            continue;
        };
        let Some((rule, tail)) = args.split_once(')') else {
            push(out, path, c.line, "pragma", "unterminated allow(<rule>)".to_string());
            continue;
        };
        let rule = rule.trim();
        if !RULE_NAMES.contains(&rule) || rule == "pragma" {
            push(out, path, c.line, "pragma", format!("allow() names unknown rule '{rule}'"));
            continue;
        }
        let reason = tail.trim_start_matches([' ', '\t', '—', '–', '-', ':']).trim();
        if reason.is_empty() {
            push(
                out,
                path,
                c.line,
                "pragma",
                format!("allow({rule}) without a reason; every suppression is audited"),
            );
            continue;
        }
        // A reason often wraps onto following `//` lines, and a pragma for
        // an item sits above the item's `///` docs; treat the contiguous
        // run of line comments as one pragma comment so the suppression
        // still lands on the line of code below it. Plain continuation
        // lines also extend the recorded reason (the audit trail).
        let mut end_line = c.end_line;
        let mut reason = reason.to_string();
        let mut in_plain_run = true;
        for next in &comments[ci + 1..] {
            if next.line != next.end_line || next.line != end_line + 1 {
                break;
            }
            end_line = next.line;
            in_plain_run &= !next.any_doc && !next.text.contains("dd-lint:");
            if in_plain_run {
                reason.push(' ');
                reason.push_str(next.text.trim());
            }
        }
        pragmas.push(Pragma {
            file: path.to_string(),
            line: c.line,
            end_line,
            rule: rule.to_string(),
            reason,
            used: false,
        });
    }
}

/// Parses `order(a < b) — reason` into an [`OrderDecl`].
fn collect_order(
    path: &str,
    c: &Comment,
    args: &str,
    orders: &mut Vec<OrderDecl>,
    out: &mut Vec<Violation>,
) {
    let Some((body, tail)) = args.split_once(')') else {
        push(out, path, c.line, "pragma", "unterminated order(<lock> < <lock>)".to_string());
        return;
    };
    let Some((first, second)) = body.split_once('<') else {
        push(
            out,
            path,
            c.line,
            "pragma",
            format!("malformed order() declaration (expected `order(<lock> < <lock>)`): {body}"),
        );
        return;
    };
    let (first, second) = (first.trim(), second.trim());
    if !is_lock_name(first) || !is_lock_name(second) || first == second {
        push(
            out,
            path,
            c.line,
            "pragma",
            format!("order() needs two distinct lock identifiers, got `{first}` and `{second}`"),
        );
        return;
    }
    let reason = tail.trim_start_matches([' ', '\t', '—', '–', '-', ':']).trim();
    if reason.is_empty() {
        push(
            out,
            path,
            c.line,
            "pragma",
            format!("order({first} < {second}) without a reason; every declaration is audited"),
        );
        return;
    }
    orders.push(OrderDecl {
        first: first.to_string(),
        second: second.to_string(),
        file: path.to_string(),
        line: c.line,
        reason: reason.to_string(),
    });
}

/// Parses `acquires(x) — reason` into an [`AcquiresDirective`]. Like
/// `allow()` pragmas, a directive whose reason wraps onto following `//`
/// lines covers the code line after the whole comment run.
fn collect_acquires(
    path: &str,
    c: &Comment,
    args: &str,
    following: &[Comment],
    acquires: &mut Vec<AcquiresDirective>,
    out: &mut Vec<Violation>,
) {
    let Some((lock, tail)) = args.split_once(')') else {
        push(out, path, c.line, "pragma", "unterminated acquires(<lock>)".to_string());
        return;
    };
    let lock = lock.trim();
    if !is_lock_name(lock) {
        push(
            out,
            path,
            c.line,
            "pragma",
            format!("acquires() needs a lock identifier, got `{lock}`"),
        );
        return;
    }
    let reason = tail.trim_start_matches([' ', '\t', '—', '–', '-', ':']).trim();
    if reason.is_empty() {
        push(
            out,
            path,
            c.line,
            "pragma",
            format!("acquires({lock}) without a reason; every directive is audited"),
        );
        return;
    }
    let mut end_line = c.end_line;
    for next in following {
        if next.line != next.end_line || next.line != end_line + 1 {
            break;
        }
        end_line = next.line;
    }
    acquires.push(AcquiresDirective { end_line, lock: lock.to_string() });
}

/// Lock names are plain Rust identifiers (they name receiver fields or
/// variables).
fn is_lock_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Aggregates violations to `(file, rule) → count`, the unit the baseline
/// ratchet compares.
pub fn tally(violations: &[Violation]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts.entry((v.file.clone(), v.rule.to_string())).or_insert(0) += 1;
    }
    counts
}
