use std::collections::VecDeque;

use crate::{GraphError, NodeId, Weight};

/// An undirected simple graph with `i64` edge and node weights.
///
/// Nodes are dense indices in `0..n`. Inserting an edge that already exists
/// overwrites its weight (the constructions in the paper sometimes re-derive
/// the same edge). Self-loops panic: every graph in the paper is simple.
///
/// # Examples
///
/// ```
/// use congest_graph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    /// `adj[u]` lists `u`'s neighbors in insertion order, the order every
    /// traversal and the simulator's message emission follow.
    adj: Vec<Vec<NodeId>>,
    /// `sorted_adj[u]` holds the same neighbor set as `adj[u]` in ascending
    /// order, each neighbor beside the weight of its edge, so `has_edge`
    /// and `edge_weight` are binary searches instead of a hash of the
    /// endpoint pair. Both endpoint rows carry the edge's weight.
    sorted_adj: Vec<Vec<(NodeId, Weight)>>,
    /// Number of edges.
    m: usize,
    node_weights: Vec<Weight>,
}

/// The position of neighbor `v` in a sorted adjacency row, or where it
/// would be inserted.
pub(crate) fn find(row: &[(NodeId, Weight)], v: NodeId) -> Result<usize, usize> {
    row.binary_search_by_key(&v, |&(x, _)| x)
}

impl Graph {
    /// Creates a graph with `n` isolated nodes, all of node weight `1`.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            sorted_adj: vec![Vec::new(); n],
            m: 0,
            node_weights: vec![1; n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        self.sorted_adj.push(Vec::new());
        self.node_weights.push(1);
        self.adj.len() - 1
    }

    fn check(&self, u: NodeId) -> Result<(), GraphError> {
        if u >= self.adj.len() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                n: self.adj.len(),
            });
        }
        Ok(())
    }

    /// Adds the edge `(u, v)` with weight `1`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.add_weighted_edge(u, v, 1);
    }

    /// Adds the edge `(u, v)` with weight `w`, overwriting any existing weight.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_weighted_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        self.try_add_weighted_edge(u, v, w)
            .expect("invalid edge insertion");
    }

    /// Fallible version of [`Graph::add_weighted_edge`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] when `u == v` and
    /// [`GraphError::NodeOutOfRange`] for bad endpoints.
    pub fn try_add_weighted_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: Weight,
    ) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        self.check(u)?;
        self.check(v)?;
        match find(&self.sorted_adj[u], v) {
            Ok(i) => {
                self.sorted_adj[u][i].1 = w;
                let j = find(&self.sorted_adj[v], u).expect("sorted rows are symmetric");
                self.sorted_adj[v][j].1 = w;
            }
            Err(i) => {
                self.sorted_adj[u].insert(i, (v, w));
                let j = find(&self.sorted_adj[v], u).expect_err("sorted rows are symmetric");
                self.sorted_adj[v].insert(j, (u, w));
                self.adj[u].push(v);
                self.adj[v].push(u);
                self.m += 1;
            }
        }
        Ok(())
    }

    /// Removes the edge `(u, v)` if present, returning its weight. An
    /// absent edge or an out-of-range endpoint gives `None`.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<Weight> {
        if u >= self.adj.len() || v >= self.adj.len() {
            return None;
        }
        let i = find(&self.sorted_adj[u], v).ok()?;
        let (_, w) = self.sorted_adj[u].remove(i);
        let j = find(&self.sorted_adj[v], u).expect("sorted rows are symmetric");
        self.sorted_adj[v].remove(j);
        self.adj[u].retain(|&x| x != v);
        self.adj[v].retain(|&x| x != u);
        self.m -= 1;
        Some(w)
    }

    /// Whether the edge `(u, v)` exists: a binary search over the sorted
    /// adjacency of the lower-degree endpoint, `O(log min-deg)` with no
    /// hashing — this runs once per message in the simulator's model check.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// The neighbors of `u` in ascending id order, each with the weight of
    /// its edge (a sorted view of [`Graph::neighbors`], which preserves
    /// insertion order).
    pub fn sorted_neighbors(&self, u: NodeId) -> &[(NodeId, Weight)] {
        &self.sorted_adj[u]
    }

    /// The weight of edge `(u, v)`, if present: the same `O(log min-deg)`
    /// search as [`Graph::has_edge`]. Out-of-range or self queries give
    /// `None`.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        if u >= self.adj.len() || v >= self.adj.len() || u == v {
            return None;
        }
        let (probe, key) = if self.sorted_adj[u].len() <= self.sorted_adj[v].len() {
            (u, v)
        } else {
            (v, u)
        };
        let row = &self.sorted_adj[probe];
        find(row, key).ok().map(|i| row[i].1)
    }

    /// The neighbors of `u`, in insertion order.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[u]
    }

    /// The degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u].len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all edges as `(u, v, w)` with `u < v`, in ascending
    /// `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.sorted_adj.iter().enumerate().flat_map(|(u, row)| {
            let above = row.partition_point(|&(v, _)| v < u);
            row[above..].iter().map(move |&(v, w)| (u, v, w))
        })
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> Weight {
        self.edges().map(|(_, _, w)| w).sum()
    }

    /// Sets the node weight of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set_node_weight(&mut self, u: NodeId, w: Weight) {
        self.node_weights[u] = w;
    }

    /// The node weight of `u` (defaults to `1`).
    pub fn node_weight(&self, u: NodeId) -> Weight {
        self.node_weights[u]
    }

    /// Sum of node weights over a set of nodes.
    pub fn node_set_weight(&self, set: &[NodeId]) -> Weight {
        set.iter().map(|&u| self.node_weights[u]).sum()
    }

    /// BFS distances (in hops) from `src`; unreachable nodes get `None`.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_nodes()];
        let mut q = VecDeque::new();
        dist[src] = Some(0);
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for &v in &self.adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        self.bfs_distances(0).iter().all(Option::is_some)
    }

    /// Connected components as a node→component-id labeling plus the count.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let n = self.num_nodes();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0;
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let mut q = VecDeque::new();
            comp[s] = next;
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                for &v in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        q.push_back(v);
                    }
                }
            }
            next += 1;
        }
        (comp, next)
    }

    /// Whether the node set `set` induces a connected subgraph
    /// (the empty set is considered connected). A repeated vertex counts
    /// once.
    pub fn is_connected_subset(&self, set: &[NodeId]) -> bool {
        if set.is_empty() {
            return true;
        }
        let mut in_set = vec![false; self.num_nodes()];
        let mut members = 0;
        for &u in set {
            if !in_set[u] {
                in_set[u] = true;
                members += 1;
            }
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut q = VecDeque::new();
        seen[set[0]] = true;
        q.push_back(set[0]);
        let mut count = 1;
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u] {
                if in_set[v] && !seen[v] {
                    seen[v] = true;
                    count += 1;
                    q.push_back(v);
                }
            }
        }
        count == members
    }

    /// The subgraph induced by `nodes`. Returns the subgraph and the map
    /// from new ids to original ids.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        let mut index = vec![usize::MAX; self.num_nodes()];
        for (i, &u) in nodes.iter().enumerate() {
            index[u] = i;
        }
        let mut g = Graph::new(nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            g.set_node_weight(i, self.node_weight(u));
            for &v in &self.adj[u] {
                let j = index[v];
                if j != usize::MAX && i < j {
                    g.add_weighted_edge(
                        i,
                        j,
                        self.edge_weight(u, v).expect("adjacent edge exists"),
                    );
                }
            }
        }
        (g, nodes.to_vec())
    }

    /// Whether `set` is an independent set.
    pub fn is_independent_set(&self, set: &[NodeId]) -> bool {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether `set` is a vertex cover (every edge has an endpoint in `set`).
    pub fn is_vertex_cover(&self, set: &[NodeId]) -> bool {
        let mut in_set = vec![false; self.num_nodes()];
        for &u in set {
            in_set[u] = true;
        }
        self.edges().all(|(u, v, _)| in_set[u] || in_set[v])
    }

    /// Whether `set` is a dominating set (every node is in `set` or adjacent
    /// to a node of `set`).
    pub fn is_dominating_set(&self, set: &[NodeId]) -> bool {
        let mut dominated = vec![false; self.num_nodes()];
        for &u in set {
            dominated[u] = true;
            for &v in &self.adj[u] {
                dominated[v] = true;
            }
        }
        dominated.into_iter().all(|d| d)
    }

    /// Whether every node of the graph is within distance `k` (in hops) of
    /// some node of `set` — the `k`-dominating-set predicate of Section 4.3.
    pub fn is_k_dominating_set(&self, set: &[NodeId], k: usize) -> bool {
        let n = self.num_nodes();
        if set.is_empty() {
            return n == 0;
        }
        // Multi-source BFS from `set`.
        let mut dist = vec![None; n];
        let mut q = VecDeque::new();
        for &u in set {
            dist[u] = Some(0usize);
            q.push_back(u);
        }
        while let Some(u) = q.pop_front() {
            let du = dist[u].expect("queued");
            if du == k {
                continue;
            }
            for &v in &self.adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    q.push_back(v);
                }
            }
        }
        dist.into_iter().all(|d| d.is_some())
    }

    /// The weight of the cut `(S, V∖S)` given a membership vector.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != n`.
    pub fn cut_weight(&self, side: &[bool]) -> Weight {
        assert_eq!(side.len(), self.num_nodes(), "side vector length mismatch");
        self.edges()
            .filter(|&(u, v, _)| side[u] != side[v])
            .map(|(_, _, w)| w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_edge_ops() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_weighted_edge(1, 2, 7);
        assert!(g.has_edge(1, 0));
        assert_eq!(g.edge_weight(2, 1), Some(7));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.remove_edge(0, 1), Some(1));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn duplicate_edge_overwrites_weight() {
        let mut g = Graph::new(3);
        g.add_weighted_edge(0, 1, 2);
        g.add_weighted_edge(1, 0, 9);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(9));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.try_add_weighted_edge(1, 1, 1),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.try_add_weighted_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange { node: 5, n: 2 })
        ));
    }

    #[test]
    fn bfs_and_connectivity() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], None);
        assert!(!g.is_connected());
        let (_, c) = g.connected_components();
        assert_eq!(c, 2);
    }

    #[test]
    fn predicates() {
        // Path 0-1-2-3.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        assert!(g.is_independent_set(&[0, 2]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_vertex_cover(&[1, 2]));
        assert!(!g.is_vertex_cover(&[1]));
        assert!(g.is_dominating_set(&[1, 3]));
        assert!(!g.is_dominating_set(&[0]));
        assert!(g.is_k_dominating_set(&[0], 3));
        assert!(!g.is_k_dominating_set(&[0], 2));
    }

    #[test]
    fn cut_weight_counts_crossing_edges() {
        let mut g = Graph::new(4);
        g.add_weighted_edge(0, 1, 3);
        g.add_weighted_edge(2, 3, 5);
        g.add_weighted_edge(0, 2, 7);
        let side = vec![true, true, false, false];
        assert_eq!(g.cut_weight(&side), 7);
    }

    #[test]
    fn induced_subgraph_preserves_weights() {
        let mut g = Graph::new(4);
        g.set_node_weight(2, 42);
        g.add_weighted_edge(0, 2, 9);
        g.add_edge(1, 3);
        let (h, map) = g.induced_subgraph(&[0, 2]);
        assert_eq!(h.num_nodes(), 2);
        assert_eq!(h.num_edges(), 1);
        assert_eq!(h.edge_weight(0, 1), Some(9));
        assert_eq!(h.node_weight(1), 42);
        assert_eq!(map, vec![0, 2]);
    }

    #[test]
    fn sorted_adjacency_tracks_insertions_and_removals() {
        let mut g = Graph::new(6);
        // Insert in deliberately descending order.
        for v in [5, 3, 1, 4, 2] {
            g.add_edge(0, v);
        }
        assert_eq!(g.neighbors(0), &[5, 3, 1, 4, 2], "insertion order kept");
        assert_eq!(
            g.sorted_neighbors(0),
            &[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]
        );
        for v in 1..6 {
            assert!(g.has_edge(0, v));
            assert!(g.has_edge(v, 0));
            assert_eq!(g.sorted_neighbors(v), &[(0, 1)]);
        }
        assert!(!g.has_edge(1, 2));

        g.remove_edge(0, 3);
        assert_eq!(g.sorted_neighbors(0), &[(1, 1), (2, 1), (4, 1), (5, 1)]);
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
        assert_eq!(g.sorted_neighbors(3), &[]);

        // Re-inserting a removed edge restores membership, with the new
        // weight in both endpoint rows.
        g.add_weighted_edge(3, 0, 9);
        assert!(g.has_edge(0, 3));
        assert_eq!(
            g.sorted_neighbors(0),
            &[(1, 1), (2, 1), (3, 9), (4, 1), (5, 1)]
        );
        assert_eq!(g.sorted_neighbors(3), &[(0, 9)]);

        // Duplicate insertion only overwrites the weight, in both rows.
        g.add_weighted_edge(0, 3, 11);
        assert_eq!(
            g.sorted_neighbors(0),
            &[(1, 1), (2, 1), (3, 11), (4, 1), (5, 1)]
        );
        assert_eq!(g.sorted_neighbors(3), &[(0, 11)]);
        assert_eq!(g.edge_weight(0, 3), Some(11));
    }

    #[test]
    fn has_edge_handles_degenerate_queries() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        assert!(!g.has_edge(0, 0), "self-queries are never edges");
        assert!(!g.has_edge(0, 7), "out-of-range is false, not a panic");
        assert!(!g.has_edge(7, 0));
        let fresh = g.add_node();
        assert!(!g.has_edge(0, fresh));
        g.add_weighted_edge(fresh, 0, 4);
        assert!(g.has_edge(0, fresh));
        assert_eq!(g.sorted_neighbors(0), &[(1, 1), (fresh, 4)]);
        assert_eq!(g.sorted_neighbors(fresh), &[(0, 4)]);
    }

    #[test]
    fn mutations_keep_both_rows_and_the_edge_count_in_step() {
        let mut g = Graph::new(4);
        g.add_weighted_edge(2, 0, 5);
        g.add_weighted_edge(1, 2, 6);
        assert_eq!(g.num_edges(), 2);

        // An overwrite, from either endpoint, rewrites both rows.
        g.add_weighted_edge(0, 2, -8);
        assert_eq!(g.num_edges(), 2, "an overwrite is not a new edge");
        assert_eq!(g.edge_weight(0, 2), Some(-8));
        assert_eq!(g.edge_weight(2, 0), Some(-8));
        assert_eq!(g.sorted_neighbors(0), &[(2, -8)]);
        assert_eq!(g.sorted_neighbors(2), &[(0, -8), (1, 6)]);
        assert_eq!(
            g.neighbors(2),
            &[0, 1],
            "an overwrite keeps insertion order"
        );

        assert_eq!(g.remove_edge(2, 0), Some(-8));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.remove_edge(0, 2), None, "already removed");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 2), None);

        // A re-added edge joins the end of the insertion order.
        g.add_weighted_edge(0, 2, 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(2), &[1, 0]);
        assert_eq!(g.edge_weight(2, 0), Some(3));
        assert_eq!(g.sorted_neighbors(2), &[(0, 3), (1, 6)]);
        assert_eq!(g.total_edge_weight(), 9);
    }

    #[test]
    fn failed_removals_return_none_and_change_nothing() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        let before = g.clone();
        assert_eq!(g.remove_edge(1, 2), None, "absent edge");
        assert_eq!(g.remove_edge(1, 1), None, "self pair");
        assert_eq!(g.remove_edge(0, 9), None, "out of range, not a panic");
        assert_eq!(g.remove_edge(9, 0), None);
        assert_eq!(g.remove_edge(9, 9), None);
        assert_eq!(g, before);
        assert_eq!(g.edge_weight(0, 9), None);
        assert_eq!(g.edge_weight(9, 0), None);
        assert_eq!(g.edge_weight(1, 1), None);
    }

    #[test]
    fn edges_are_ascending() {
        let mut g = Graph::new(6);
        for (u, v, w) in [
            (5, 1, 1),
            (3, 0, 2),
            (2, 4, 3),
            (0, 5, 4),
            (1, 0, 5),
            (4, 3, 6),
        ] {
            g.add_weighted_edge(u, v, w);
        }
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(
            edges,
            vec![
                (0, 1, 5),
                (0, 3, 2),
                (0, 5, 4),
                (1, 5, 1),
                (2, 4, 3),
                (3, 4, 6)
            ]
        );
        assert_eq!(g.total_edge_weight(), 21);
    }

    #[test]
    fn connected_subset() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        assert!(g.is_connected_subset(&[0, 1, 2]));
        assert!(!g.is_connected_subset(&[0, 2]));
        assert!(g.is_connected_subset(&[]));
        assert!(g.is_connected_subset(&[3]));
    }

    #[test]
    fn connected_subset_counts_a_repeated_vertex_once() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        assert!(g.is_connected_subset(&[0, 0]));
        assert!(g.is_connected_subset(&[0, 1, 1]));
        assert!(g.is_connected_subset(&[2, 0, 1, 0]));
        assert!(!g.is_connected_subset(&[0, 2, 2]));
        assert!(!g.is_connected_subset(&[3, 3, 0]));
    }
}
