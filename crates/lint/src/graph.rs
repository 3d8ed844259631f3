//! The cross-file lock-acquisition-order graph: cycle detection (potential
//! deadlocks), `order()` declaration checking, and Graphviz DOT rendering
//! (DESIGN.md §7.16).
//!
//! Nodes are lock names (receiver fields/variables, merged globally — that
//! merging is the point: `engine` in `server.rs` and `engine` reached
//! through a helper in another file are the same lock). Edges come from
//! the guard analysis in [`crate::locks`]: `a → b` means "b was acquired
//! while a guard of a was live". A cycle means two threads can interleave
//! the acquisitions and deadlock; an `order(first < second)` declaration is
//! contradicted by any path `second → … → first`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::locks::LockEdge;

/// Finds acquisition cycles: every strongly connected component with more
/// than one lock (or a self-edge) is a potential deadlock. Returns each
/// cycle as a sorted list of lock names, deterministically ordered.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        adj.entry(&e.to).or_default();
    }
    // Kosaraju: order by finish time, then collect SCCs on the transpose.
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let mut finish = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if seen.contains(n) {
            continue;
        }
        // Iterative DFS with an explicit post-visit marker.
        let mut stack = vec![(n, false)];
        while let Some((u, post)) = stack.pop() {
            if post {
                finish.push(u);
                continue;
            }
            if !seen.insert(u) {
                continue;
            }
            stack.push((u, true));
            if let Some(next) = adj.get(u) {
                for &v in next.iter().rev() {
                    if !seen.contains(v) {
                        stack.push((v, false));
                    }
                }
            }
        }
    }
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        radj.entry(&e.to).or_default().insert(&e.from);
    }
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut cycles = Vec::new();
    for &n in finish.iter().rev() {
        if assigned.contains(n) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![n];
        while let Some(u) = stack.pop() {
            if !assigned.insert(u) {
                continue;
            }
            comp.push(u.to_string());
            if let Some(prev) = radj.get(u) {
                for &v in prev {
                    if !assigned.contains(v) {
                        stack.push(v);
                    }
                }
            }
        }
        comp.sort();
        let self_loop =
            comp.len() == 1 && edges.iter().any(|e| e.from == comp[0] && e.to == comp[0]);
        if comp.len() > 1 || self_loop {
            cycles.push(comp);
        }
    }
    cycles.sort();
    cycles
}

/// Shortest path `from → … → to` over the edge set, as the edges along it.
/// Used to attribute an `order()` contradiction to real acquisition sites.
pub fn find_path<'a>(edges: &'a [LockEdge], from: &str, to: &str) -> Option<Vec<&'a LockEdge>> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut prev: BTreeMap<&str, &LockEdge> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    seen.insert(from);
    while let Some(u) = queue.pop_front() {
        if u == to {
            if from == to {
                // A self-path needs at least one edge; fall through to the
                // neighbor scan below (`seen` already blocks re-entry, so a
                // genuine self-loop edge is the only way back).
                if let Some(e) = edges.iter().find(|e| e.from == from && e.to == to) {
                    return Some(vec![e]);
                }
            } else {
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    let e = prev[cur];
                    path.push(e);
                    cur = &e.from;
                }
                path.reverse();
                return Some(path);
            }
        }
        for &e in adj.get(u).into_iter().flatten() {
            if seen.insert(&e.to) {
                prev.insert(&e.to, e);
                queue.push_back(&e.to);
            }
        }
    }
    None
}

/// Renders the acquisition-order graph as Graphviz DOT (one edge per
/// distinct `(from, to)` pair, labeled with its first site and
/// multiplicity).
pub fn render_lock_graph(edges: &[LockEdge]) -> String {
    let mut grouped: BTreeMap<(&str, &str), Vec<&LockEdge>> = BTreeMap::new();
    for e in edges {
        grouped.entry((&e.from, &e.to)).or_default().push(e);
    }
    let mut out = String::from(
        "// dd-lint acquisition-order graph: edge a -> b means \"b was acquired\n\
         // while a guard of a was live\". Cycles here are potential deadlocks\n\
         // (DESIGN.md 7.16). Regenerate with:\n\
         //   cargo run -p dd-lint -- --workspace --lock-graph results/lock-graph.dot\n\
         digraph lock_order {\n    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n",
    );
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    for n in nodes {
        out.push_str(&format!("    \"{n}\";\n"));
    }
    for ((from, to), sites) in grouped {
        let first = sites[0];
        let label = if sites.len() > 1 {
            format!("{}:{} (+{})", first.file, first.line, sites.len() - 1)
        } else {
            format!("{}:{}", first.file, first.line)
        };
        out.push_str(&format!("    \"{from}\" -> \"{to}\" [label=\"{label}\"];\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: &str, to: &str, line: u32) -> LockEdge {
        LockEdge { from: from.into(), to: to.into(), file: "x.rs".into(), line }
    }

    #[test]
    fn cycles_detected_and_rendered() {
        let edges = vec![edge("a", "b", 1), edge("b", "a", 9), edge("a", "c", 2)];
        let cycles = lock_cycles(&edges);
        assert_eq!(cycles, vec![vec!["a".to_string(), "b".to_string()]]);
        let dot = render_lock_graph(&edges);
        assert!(dot.contains("\"a\" -> \"b\""));
        assert!(dot.contains("x.rs:1"));
        let path = find_path(&edges, "b", "c").expect("b reaches c through a");
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let edges = vec![edge("a", "b", 1), edge("b", "c", 2)];
        assert!(lock_cycles(&edges).is_empty());
        assert!(find_path(&edges, "c", "a").is_none());
    }

    #[test]
    fn self_loop_is_a_cycle_and_a_path() {
        let edges = vec![edge("a", "a", 4)];
        assert_eq!(lock_cycles(&edges), vec![vec!["a".to_string()]]);
        let path = find_path(&edges, "a", "a").expect("self-loop path");
        assert_eq!(path.len(), 1);
    }

    #[test]
    fn dot_groups_parallel_edges() {
        let edges = vec![edge("a", "b", 1), edge("a", "b", 7)];
        let dot = render_lock_graph(&edges);
        assert_eq!(dot.matches("\"a\" -> \"b\"").count(), 1);
        assert!(dot.contains("(+1)"));
    }
}
