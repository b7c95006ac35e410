//! Hierarchical span trees of measured totals: parent links, self vs.
//! cumulative time, and flame-style reporting.
//!
//! A [`SpanTree`] is a tree of named nodes assembled from
//! already-measured totals via [`SpanTree::add_measured`]: a profiler
//! accumulates flat nanosecond counters in its hot loop and builds the
//! tree only at reporting time. Crediting a path again *aggregates* into
//! the existing node (`calls` and time add up), so a tree stays bounded
//! by its distinct names.
//!
//! `span_tree` records are the one shape timing trees take in a trace:
//! [`SpanTree::to_records`] writes one per node and
//! [`SpanTree::add_record`] reads one back, so `tracectl spans` rebuilds
//! every tree a run wrote by feeding it each record of the trace.
//!
//! Two accounting views per node:
//!
//! * **cumulative** — the node's credited total, descendants included;
//! * **self** — cumulative minus the children's cumulative: the time the
//!   node spent in its *own* code.

use crate::Record;

/// One node of the tree.
#[derive(Debug, Clone)]
struct Node {
    name: String,
    parent: Option<usize>,
    children: Vec<usize>,
    /// Cumulative microseconds (includes descendants).
    cum_micros: u64,
    /// Entries credited to this node.
    calls: u64,
}

/// A tree of named, measured totals (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    nodes: Vec<Node>,
    /// Indices of root nodes (no parent), in first-seen order.
    roots: Vec<usize>,
}

impl SpanTree {
    /// An empty tree.
    pub fn new() -> Self {
        SpanTree::default()
    }

    /// Adds (or merges into) the node at `path`, crediting `micros` of
    /// already-measured cumulative time and `calls` entries. Ancestors are
    /// created as zero-cost structural nodes when missing; a caller that
    /// wants the parent to cover its children should `add_measured` the
    /// parent's own total too. A name must not contain `/`, the path
    /// separator of `span_tree` records.
    pub fn add_measured(&mut self, path: &[&str], micros: u64, calls: u64) {
        assert!(!path.is_empty(), "add_measured needs a non-empty path");
        debug_assert!(
            path.iter().all(|seg| !seg.contains('/')),
            "span names must not contain '/': {path:?}"
        );
        let mut parent = None;
        let mut idx = 0;
        for seg in path {
            idx = self.find_or_insert(parent, seg);
            parent = Some(idx);
        }
        let node = &mut self.nodes[idx];
        node.cum_micros += micros;
        node.calls += calls;
    }

    /// The flattened tree, depth-first, parents before children.
    pub fn snapshot(&self) -> Vec<SpanEntry> {
        let mut out = Vec::with_capacity(self.nodes.len());
        for &r in &self.roots {
            self.flatten(r, 0, &mut out);
        }
        out
    }

    /// Renders a flame-style indented breakdown: one line per node with
    /// cumulative/self microseconds, call counts, and the share of its
    /// root's cumulative time.
    pub fn render(&self) -> String {
        let entries = self.snapshot();
        let mut out = String::new();
        let mut denom = 1.0f64;
        for (i, e) in entries.iter().enumerate() {
            if e.depth == 0 {
                // Percentages are per root subtree. A structural root
                // (assembled via `add_measured` with no total of its own)
                // has cum 0; its direct children's sum is the real base.
                let children: u64 = entries[i + 1..]
                    .iter()
                    .take_while(|c| c.depth > 0)
                    .filter(|c| c.depth == 1)
                    .map(|c| c.cum_micros)
                    .sum();
                denom = e.cum_micros.max(children).max(1) as f64;
            }
            let pct = 100.0 * e.cum_micros as f64 / denom;
            out.push_str(&format!(
                "{:indent$}{:<width$} {:>10} µs cum  {:>10} µs self  {:>8} calls  {:>5.1}%\n",
                "",
                e.name,
                e.cum_micros,
                e.self_micros,
                e.calls,
                pct,
                indent = 2 * e.depth,
                width = 24usize.saturating_sub(2 * e.depth),
            ));
        }
        out
    }

    /// Exports one `span_tree` record per node on `target`: `path`
    /// (slash-joined), `depth`, `calls`, `cum_micros`, `self_micros`.
    pub fn to_records(&self, target: &'static str) -> Vec<Record> {
        self.snapshot()
            .iter()
            .map(|e| {
                Record::new(target, "span_tree")
                    .with("path", e.path.clone())
                    .with("depth", e.depth)
                    .with("calls", e.calls)
                    .with("cum_micros", e.cum_micros)
                    .with("self_micros", e.self_micros)
            })
            .collect()
    }

    /// Credits one `span_tree` record of [`SpanTree::to_records`] back
    /// into the tree: its `cum_micros` and `calls` at its `path`. Returns
    /// `false`, crediting nothing, for any other record and for one
    /// without a non-empty `path` or without `cum_micros`. Feeding a
    /// tree's records to an empty tree rebuilds its
    /// [`SpanTree::snapshot`].
    pub fn add_record(&mut self, rec: &Record) -> bool {
        if rec.event != "span_tree" {
            return false;
        }
        let (Some(path), Some(micros)) = (
            rec.field("path").and_then(crate::Value::as_str),
            rec.u64_field("cum_micros"),
        ) else {
            return false;
        };
        let segs: Vec<&str> = path.split('/').collect();
        if segs.iter().any(|s| s.is_empty()) {
            return false;
        }
        self.add_measured(&segs, micros, rec.u64_field("calls").unwrap_or(0));
        true
    }

    fn find_or_insert(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings: &[usize] = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            cum_micros: 0,
            calls: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn flatten(&self, idx: usize, depth: usize, out: &mut Vec<SpanEntry>) {
        let node = &self.nodes[idx];
        let children_cum: u64 = node
            .children
            .iter()
            .map(|&c| self.nodes[c].cum_micros)
            .sum();
        let path = {
            let mut segs = vec![node.name.as_str()];
            let mut p = node.parent;
            while let Some(i) = p {
                segs.push(self.nodes[i].name.as_str());
                p = self.nodes[i].parent;
            }
            segs.reverse();
            segs.join("/")
        };
        out.push(SpanEntry {
            name: node.name.clone(),
            path,
            depth,
            calls: node.calls,
            cum_micros: node.cum_micros,
            self_micros: node.cum_micros.saturating_sub(children_cum),
        });
        for &c in &node.children {
            self.flatten(c, depth + 1, out);
        }
    }
}

/// One node of a [`SpanTree::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// The node's own name.
    pub name: String,
    /// Slash-joined path from the root, e.g. `sim.run/rounds/deliver`.
    pub path: String,
    /// Depth in the tree (roots are 0).
    pub depth: usize,
    /// Entries credited to the node.
    pub calls: u64,
    /// Cumulative microseconds, descendants included.
    pub cum_micros: u64,
    /// Cumulative minus children's cumulative.
    pub self_micros: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finds a snapshot entry by path.
    fn entry<'a>(snap: &'a [SpanEntry], path: &str) -> &'a SpanEntry {
        snap.iter()
            .find(|e| e.path == path)
            .unwrap_or_else(|| panic!("no span at {path}"))
    }

    #[test]
    fn measured_totals_build_a_tree() {
        let mut tree = SpanTree::new();
        tree.add_measured(&["sim.run"], 100, 1);
        tree.add_measured(&["sim.run", "rounds", "deliver"], 30, 10);
        tree.add_measured(&["sim.run", "rounds", "compute"], 50, 10);
        tree.add_measured(&["sim.run", "rounds"], 85, 10);
        let snap = tree.snapshot();
        let run = entry(&snap, "sim.run");
        // add_measured credits are cumulative values as given; structural
        // parents report self = own - children.
        assert_eq!(run.cum_micros, 100);
        assert_eq!(run.self_micros, 100 - 85);
        let rounds = entry(&snap, "sim.run/rounds");
        assert_eq!(rounds.self_micros, 85 - 30 - 50);
        let render = tree.render();
        assert!(render.contains("deliver"));
        assert!(
            render.contains("100.0%") || render.contains("100%"),
            "{render}"
        );
        let recs = tree.to_records("profile");
        assert_eq!(recs.len(), 4);
        assert!(recs
            .iter()
            .any(|r| r.field("path").and_then(crate::Value::as_str)
                == Some("sim.run/rounds/compute")));
    }

    #[test]
    fn records_round_trip_through_add_record() {
        let mut tree = SpanTree::new();
        // A structural root (never credited itself), a three-level path,
        // and repeated credits that aggregate into one node.
        tree.add_measured(&["experiments", "E0"], 40, 1);
        tree.add_measured(&["experiments", "E7", "sim"], 25, 2);
        tree.add_measured(&["experiments", "E7", "sim"], 5, 1);
        tree.add_measured(&["experiments", "E7"], 35, 1);
        tree.add_measured(&["sim.profile"], 12, 3);
        tree.add_measured(&["sim.profile", "compute"], 9, 40);
        let mut back = SpanTree::new();
        for rec in tree.to_records("profile") {
            assert!(back.add_record(&rec), "{rec:?}");
        }
        assert_eq!(back.snapshot(), tree.snapshot());
        assert_eq!(back.render(), tree.render());
        let snap = back.snapshot();
        assert_eq!(entry(&snap, "experiments").cum_micros, 0);
        assert_eq!(entry(&snap, "experiments/E7/sim").calls, 3);
        assert_eq!(entry(&snap, "experiments/E7").self_micros, 5);
    }

    #[test]
    fn add_record_ignores_what_is_not_a_span() {
        let mut tree = SpanTree::new();
        let span = |path: &str| {
            Record::new("t", "span_tree")
                .with("path", path)
                .with("cum_micros", 7u64)
        };
        let rejected = [
            Record::new("experiments", "phase")
                .with("id", "E0")
                .with("micros", 7u64),
            Record::new("t", "span_tree").with("cum_micros", 7u64),
            Record::new("t", "span_tree").with("path", "a/b"),
            Record::new("t", "span_tree")
                .with("path", 3u64)
                .with("cum_micros", 7u64),
            Record::new("t", "span_tree")
                .with("path", "a")
                .with("cum_micros", "7"),
            span(""),
            span("a//b"),
            span("a/"),
        ];
        for rec in &rejected {
            assert!(!tree.add_record(rec), "{rec:?}");
        }
        assert!(tree.snapshot().is_empty());
        assert!(tree.add_record(&span("a/b")));
        assert_eq!(entry(&tree.snapshot(), "a/b").cum_micros, 7);
    }
}
