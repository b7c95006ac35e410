use std::collections::VecDeque;

use crate::undirected::find;
use crate::{GraphError, NodeId, Weight};

/// A directed simple graph with `i64` edge and node weights.
///
/// Used by the Hamiltonian-path construction of Section 2.2 and the directed
/// Steiner-tree construction of Section 4.4 (Figure 6).
///
/// # Examples
///
/// ```
/// use congest_graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 0));
/// assert_eq!(g.out_neighbors(1), &[2]);
/// assert_eq!(g.in_neighbors(1), &[0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    /// Out-neighbors in insertion order.
    out_adj: Vec<Vec<NodeId>>,
    /// In-neighbors in insertion order.
    in_adj: Vec<Vec<NodeId>>,
    /// `sorted_out[u]` holds `u`'s out-neighbors in ascending order, each
    /// beside the weight of its edge, so edge queries are binary searches.
    sorted_out: Vec<Vec<(NodeId, Weight)>>,
    /// Number of directed edges.
    m: usize,
    node_weights: Vec<Weight>,
}

impl DiGraph {
    /// Creates a digraph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        DiGraph {
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
            sorted_out: vec![Vec::new(); n],
            m: 0,
            node_weights: vec![1; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        self.sorted_out.push(Vec::new());
        self.node_weights.push(1);
        self.out_adj.len() - 1
    }

    /// Adds the directed edge `(u, v)` with weight `1`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_weighted_edge(u, v, 1);
    }

    /// Adds the directed edge `(u, v)` with weight `w`, overwriting any
    /// existing weight of `(u, v)` (the reverse edge `(v, u)` is separate).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.try_add_weighted_edge(u, v, w)
            .expect("invalid edge insertion");
    }

    /// Fallible version of [`DiGraph::add_weighted_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] or [`GraphError::NodeOutOfRange`]
    /// for invalid insertions.
    pub fn try_add_weighted_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: Weight,
    ) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let n = self.num_nodes();
        for x in [u, v] {
            if x >= n {
                return Err(GraphError::NodeOutOfRange { node: x, n });
            }
        }
        let row = &mut self.sorted_out[u];
        match find(row, v) {
            Ok(i) => row[i].1 = w,
            Err(i) => {
                row.insert(i, (v, w));
                self.out_adj[u].push(v);
                self.in_adj[v].push(u);
                self.m += 1;
            }
        }
        Ok(())
    }

    /// Whether the directed edge `(u, v)` exists: a binary search over
    /// `u`'s sorted out-row.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// The weight of directed edge `(u, v)`, if present. Out-of-range
    /// endpoints give `None`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let row = self.sorted_out.get(u)?;
        let i = find(row, v).ok()?;
        Some(row[i].1)
    }

    /// Out-neighbors of `u` in insertion order.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_adj[u]
    }

    /// In-neighbors of `u` in insertion order.
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.in_adj[u]
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_adj[u].len()
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_adj[u].len()
    }

    /// Iterates over all directed edges as `(u, v, w)`, in ascending
    /// `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.sorted_out
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |&(v, w)| (u, v, w)))
    }

    /// Sets the node weight of `u`.
    pub fn set_node_weight(&mut self, u: NodeId, w: Weight) {
        self.node_weights[u] = w;
    }

    /// The node weight of `u` (defaults to `1`).
    pub fn node_weight(&self, u: NodeId) -> Weight {
        self.node_weights[u]
    }

    /// Nodes reachable from `src` following edge directions (including `src`).
    pub fn reachable_from(&self, src: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes()];
        let mut q = VecDeque::new();
        seen[src] = true;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &v in &self.out_adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
        seen
    }

    /// The underlying undirected graph: edge `(u,v)` present if either
    /// direction is present; weights take the minimum over directions.
    pub fn to_undirected(&self) -> crate::Graph {
        let mut g = crate::Graph::new(self.num_nodes());
        for u in 0..self.num_nodes() {
            g.set_node_weight(u, self.node_weight(u));
        }
        for (u, v, w) in self.edges() {
            let w = match g.edge_weight(u, v) {
                Some(prev) => prev.min(w),
                None => w,
            };
            g.add_weighted_edge(u, v, w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_edges_are_one_way() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(1), 1);
    }

    #[test]
    fn reachability() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 0);
        let r = g.reachable_from(0);
        assert_eq!(r, vec![true, true, true, false]);
    }

    #[test]
    fn to_undirected_merges_antiparallel() {
        let mut g = DiGraph::new(2);
        g.add_weighted_edge(0, 1, 5);
        g.add_weighted_edge(1, 0, 3);
        let u = g.to_undirected();
        assert_eq!(u.num_edges(), 1);
        assert_eq!(u.edge_weight(0, 1), Some(3));
    }

    #[test]
    fn antiparallel_edges_keep_separate_weights() {
        let mut g = DiGraph::new(3);
        g.add_weighted_edge(0, 1, 5);
        g.add_weighted_edge(1, 0, 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(3));

        g.add_weighted_edge(1, 0, 7);
        assert_eq!(g.num_edges(), 2, "an overwrite is not a new edge");
        assert_eq!(
            g.edge_weight(0, 1),
            Some(5),
            "the reverse edge is untouched"
        );
        assert_eq!(g.edge_weight(1, 0), Some(7));
        assert_eq!(g.out_neighbors(1), &[0]);
        assert_eq!(g.in_neighbors(0), &[1]);
        assert_eq!(g.to_undirected().edge_weight(0, 1), Some(5));
        g.add_weighted_edge(0, 1, 9);
        assert_eq!(g.to_undirected().edge_weight(1, 0), Some(7));
    }

    #[test]
    fn degenerate_queries_are_absent() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 1);
        assert!(!g.has_edge(1, 1));
        assert!(!g.has_edge(0, 9), "out of range is false, not a panic");
        assert!(!g.has_edge(9, 0));
        assert_eq!(g.edge_weight(9, 9), None);
    }

    #[test]
    fn edges_are_ascending_and_adjacency_keeps_insertion_order() {
        let mut g = DiGraph::new(4);
        for (u, v, w) in [(2, 0, 1), (0, 3, 2), (3, 2, 3), (0, 1, 4), (2, 1, 5)] {
            g.add_weighted_edge(u, v, w);
        }
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![(0, 1, 4), (0, 3, 2), (2, 0, 1), (2, 1, 5), (3, 2, 3)]
        );
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_neighbors(0), &[3, 1]);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        // The undirected copy inserts edges in that ascending order.
        let u = g.to_undirected();
        assert_eq!(u.neighbors(0), &[1, 3, 2]);
        assert_eq!(u.edge_weight(2, 3), Some(3));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DiGraph::new(1);
        assert_eq!(
            g.try_add_weighted_edge(0, 0, 1),
            Err(GraphError::SelfLoop(0))
        );
    }
}
