//! Graphviz DOT export, for rendering the paper's constructions
//! (Figures 1–7) as actual figures.
//!
//! # Examples
//!
//! ```
//! use congest_graph::{dot, Graph};
//!
//! let mut g = Graph::new(2);
//! g.add_weighted_edge(0, 1, 5);
//! let out = dot::to_dot(&g, &dot::DotStyle::default());
//! assert!(out.contains("0 -- 1"));
//! ```

// `DotStyle`'s label and cluster maps are rendering options keyed by the
// caller, not graph storage, so the crate's ban on hash maps stops here.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::{DiGraph, Graph, NodeId};

/// Rendering options for DOT export.
#[derive(Debug, Clone, Default)]
pub struct DotStyle {
    /// Graph name.
    pub name: String,
    /// Node labels (falls back to the numeric id).
    pub labels: HashMap<NodeId, String>,
    /// Cluster assignment: nodes that share a group name are drawn in one
    /// subgraph cluster (e.g. the paper's `A₁`, `T_S` sets).
    pub groups: HashMap<NodeId, String>,
    /// Highlighted nodes (drawn filled), e.g. a witness dominating set.
    pub highlighted: Vec<NodeId>,
    /// Whether to print edge weights.
    pub show_weights: bool,
}

impl DotStyle {
    /// A style with a name.
    pub fn named(name: &str) -> Self {
        DotStyle {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Assigns a node to a cluster.
    pub fn group(mut self, v: NodeId, group: &str) -> Self {
        self.groups.insert(v, group.to_string());
        self
    }

    /// Labels a node.
    pub fn label(mut self, v: NodeId, label: &str) -> Self {
        self.labels.insert(v, label.to_string());
        self
    }
}

fn body<E: Iterator<Item = (NodeId, NodeId, i64)>>(
    n: usize,
    edges: E,
    style: &DotStyle,
    arrow: &str,
    out: &mut String,
) {
    // Clusters.
    let mut clusters: HashMap<&str, Vec<NodeId>> = HashMap::new();
    for v in 0..n {
        if let Some(g) = style.groups.get(&v) {
            clusters.entry(g).or_default().push(v);
        }
    }
    let mut names: Vec<&&str> = clusters.keys().collect();
    names.sort();
    for (ci, cname) in names.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_{ci} {{");
        let _ = writeln!(out, "    label = \"{cname}\";");
        for &v in &clusters[**cname] {
            let _ = writeln!(out, "    {v};");
        }
        let _ = writeln!(out, "  }}");
    }
    // Node attributes.
    for v in 0..n {
        let mut attrs = Vec::new();
        if let Some(l) = style.labels.get(&v) {
            attrs.push(format!("label=\"{l}\""));
        }
        if style.highlighted.contains(&v) {
            attrs.push("style=filled, fillcolor=lightblue".to_string());
        }
        if !attrs.is_empty() {
            let _ = writeln!(out, "  {v} [{}];", attrs.join(", "));
        }
    }
    // Edges in ascending order, as both graph types yield them.
    for (u, v, w) in edges {
        if style.show_weights && w != 1 {
            let _ = writeln!(out, "  {u} {arrow} {v} [label=\"{w}\"];");
        } else {
            let _ = writeln!(out, "  {u} {arrow} {v};");
        }
    }
}

/// Renders an undirected graph as DOT.
pub fn to_dot(g: &Graph, style: &DotStyle) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "graph {} {{",
        if style.name.is_empty() {
            "G"
        } else {
            &style.name
        }
    );
    body(g.num_nodes(), g.edges(), style, "--", &mut out);
    out.push_str("}\n");
    out
}

/// Renders a directed graph as DOT.
pub fn to_dot_directed(g: &DiGraph, style: &DotStyle) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "digraph {} {{",
        if style.name.is_empty() {
            "G"
        } else {
            &style.name
        }
    );
    body(g.num_nodes(), g.edges(), style, "->", &mut out);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_export() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_weighted_edge(1, 2, 7);
        let mut style = DotStyle::named("fig");
        style.show_weights = true;
        style.highlighted.push(2);
        let style = style.group(0, "A").group(1, "A").label(0, "a0");
        let s = to_dot(&g, &style);
        assert!(s.starts_with("graph fig {"));
        assert!(s.contains("0 -- 1;"));
        assert!(s.contains("1 -- 2 [label=\"7\"];"));
        assert!(s.contains("cluster_0"));
        assert!(s.contains("label=\"a0\""));
        assert!(s.contains("fillcolor=lightblue"));
        assert!(s.trim_end().ends_with('}'));
    }

    #[test]
    fn directed_export() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        let s = to_dot_directed(&g, &DotStyle::default());
        assert!(s.contains("digraph G {"));
        assert!(s.contains("0 -> 1;"));
    }
}
