//! Exact Steiner-tree solvers: cardinality (edge count), node-weighted,
//! and directed (arborescence).
//!
//! * The *cardinality* solver decides the Theorem 2.7 predicate ("a Steiner
//!   tree with `4k + 16·log k + 1` edges exists"). It exploits the identity
//!   `min #edges = min{|W| - 1 : Term ⊆ W, G[W] connected}` and searches
//!   over sets of extra (non-terminal) vertices by increasing size.
//!   The optimization and the decision share one search; the decision
//!   stops at its size bound.
//! * The *node-weighted* and *directed* solvers decide the Section 4.4 gap
//!   predicates (Figure 6). One Dreyfus–Wagner dynamic program over
//!   terminal subsets with Dijkstra-style grow steps solves the directed
//!   problem; the node-weighted problem is that program on the bidirected
//!   graph in which entering a vertex costs its weight.

use std::collections::BinaryHeap;

use congest_graph::{DiGraph, Graph, NodeId, Weight};

/// Minimum number of edges of a Steiner tree spanning `terminals`, or
/// `None` if the terminals are not in one connected component.
///
/// # Panics
///
/// Panics if `terminals` is empty.
pub fn min_steiner_tree_edges(g: &Graph, terminals: &[NodeId]) -> Option<usize> {
    fewest_tree_edges(g, terminals, usize::MAX)
}

/// Decision variant of [`min_steiner_tree_edges`]: is there a Steiner
/// tree with at most `max_edges` edges? Only searches vertex sets of the
/// admissible size, so NO instances do not pay for the full optimum.
///
/// # Panics
///
/// Panics if `terminals` is empty.
pub fn has_steiner_tree_of_size(g: &Graph, terminals: &[NodeId], max_edges: usize) -> bool {
    fewest_tree_edges(g, terminals, max_edges).is_some()
}

/// The fewest edges of a Steiner tree with at most `max_edges` edges, by
/// searching sets of extra (non-terminal) vertices in increasing size.
fn fewest_tree_edges(g: &Graph, terminals: &[NodeId], max_edges: usize) -> Option<usize> {
    assert!(!terminals.is_empty(), "need at least one terminal");
    let n = g.num_nodes();
    let mut is_term = vec![false; n];
    for &t in terminals {
        is_term[t] = true;
    }
    let non_terminals: Vec<NodeId> = (0..n).filter(|&v| !is_term[v]).collect();
    // Quick reachability screen.
    let reach = g.bfs_distances(terminals[0]);
    if terminals.iter().any(|&t| reach[t].is_none()) {
        return None;
    }
    let mut chosen: Vec<NodeId> = Vec::new();
    for extra in 0..=non_terminals.len() {
        let edges = terminals.len() + extra - 1;
        if edges > max_edges {
            break;
        }
        if search_extras(g, terminals, &non_terminals, extra, 0, &mut chosen) {
            return Some(edges);
        }
    }
    None
}

fn search_extras(
    g: &Graph,
    terminals: &[NodeId],
    pool: &[NodeId],
    left: usize,
    start: usize,
    chosen: &mut Vec<NodeId>,
) -> bool {
    if left == 0 {
        let mut w: Vec<NodeId> = terminals.to_vec();
        w.extend_from_slice(chosen);
        return g.is_connected_subset(&w);
    }
    if start + left > pool.len() {
        return false;
    }
    for i in start..=(pool.len() - left) {
        chosen.push(pool[i]);
        if search_extras(g, terminals, pool, left - 1, i + 1, chosen) {
            chosen.pop();
            return true;
        }
        chosen.pop();
    }
    false
}

/// Minimum total *node weight* of a connected subgraph containing all
/// `terminals` (the node-weighted Steiner tree of Section 4.4). Returns
/// `None` if the terminals cannot be connected.
///
/// Solved as [`min_directed_steiner`] on the bidirected graph in which
/// the arc `u → v` costs `w(v)`, rooted at the first terminal, whose own
/// weight is added. This is exact for nonnegative weights: an
/// arborescence pays for each non-root vertex once, through its one
/// incoming arc.
///
/// # Panics
///
/// Panics if `terminals` is empty, has more than 16 elements, or any node
/// weight is negative.
pub fn min_node_weight_steiner(g: &Graph, terminals: &[NodeId]) -> Option<Weight> {
    let &root = terminals.first().expect("need at least one terminal");
    let n = g.num_nodes();
    // Checked here, not through the arc costs: an isolated vertex has no
    // arc to carry its weight.
    assert!(
        (0..n).all(|v| g.node_weight(v) >= 0),
        "node weights must be nonnegative"
    );
    let mut d = DiGraph::new(n);
    for (u, v, _) in g.edges() {
        d.add_weighted_edge(u, v, g.node_weight(v));
        d.add_weighted_edge(v, u, g.node_weight(u));
    }
    min_directed_steiner(&d, root, terminals).map(|w| w + g.node_weight(root))
}

/// Minimum total edge weight of a directed Steiner arborescence rooted at
/// `root` that reaches every terminal (Section 4.4, Figure 6). Returns
/// `None` if some terminal is unreachable.
///
/// # Panics
///
/// Panics if `terminals` is empty, has more than 16 elements, or any edge
/// weight is negative.
pub fn min_directed_steiner(g: &DiGraph, root: NodeId, terminals: &[NodeId]) -> Option<Weight> {
    let n = g.num_nodes();
    let t = terminals.len();
    assert!(t >= 1, "need at least one terminal");
    assert!(t <= 16, "terminal-subset DP limited to 16 terminals");
    // Weighted in-rows, gathered once for the 2^t grow steps.
    let mut in_rows: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
    for (u, v, w) in g.edges() {
        assert!(w >= 0, "edge weights must be nonnegative");
        in_rows[v].push((u, w));
    }
    const INF: Weight = Weight::MAX / 4;
    let full = (1usize << t) - 1;
    // f[s][v] = min cost arborescence rooted at v spanning terminal set s.
    let mut f = vec![vec![INF; n]; full + 1];
    for (i, &term) in terminals.iter().enumerate() {
        f[1 << i][term] = 0;
    }
    for s in 1..=full {
        let mut sub = (s - 1) & s;
        while sub > 0 {
            let other = s & !sub;
            if other != 0 && sub < other {
                for v in 0..n {
                    let a = f[sub][v];
                    let b = f[other][v];
                    if a < INF && b < INF && a + b < f[s][v] {
                        f[s][v] = a + b;
                    }
                }
            }
            sub = (sub - 1) & s;
        }
        // Grow step: f[s][v] = min(f[s][v], w(v→u) + f[s][u]); relax in
        // increasing f order (Dijkstra on reversed edges).
        let mut heap: BinaryHeap<std::cmp::Reverse<(Weight, usize)>> = (0..n)
            .filter(|&v| f[s][v] < INF)
            .map(|v| std::cmp::Reverse((f[s][v], v)))
            .collect();
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d != f[s][u] {
                continue;
            }
            for &(v, w) in &in_rows[u] {
                if d + w < f[s][v] {
                    f[s][v] = d + w;
                    heap.push(std::cmp::Reverse((d + w, v)));
                }
            }
        }
    }
    let best = f[full][root];
    if best >= INF {
        None
    } else {
        Some(best)
    }
}

/// Brute-force node-weighted Steiner (subset enumeration), for tests.
///
/// # Panics
///
/// Panics if the graph has more than 20 vertices.
pub fn min_node_weight_steiner_brute(g: &Graph, terminals: &[NodeId]) -> Option<Weight> {
    let n = g.num_nodes();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let mut is_term = vec![false; n];
    for &v in terminals {
        is_term[v] = true;
    }
    let others: Vec<NodeId> = (0..n).filter(|&v| !is_term[v]).collect();
    let mut best: Option<Weight> = None;
    for mask in 0u64..(1u64 << others.len()) {
        let mut w: Vec<NodeId> = terminals.to_vec();
        for (i, &v) in others.iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                w.push(v);
            }
        }
        if g.is_connected_subset(&w) {
            let cost = g.node_set_weight(&w);
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cardinality_on_path() {
        let g = generators::path(6);
        // Terminals at the ends need the whole path: 5 edges.
        assert_eq!(min_steiner_tree_edges(&g, &[0, 5]), Some(5));
        assert_eq!(min_steiner_tree_edges(&g, &[2]), Some(0));
        assert!(has_steiner_tree_of_size(&g, &[0, 5], 5));
        assert!(!has_steiner_tree_of_size(&g, &[0, 5], 4));
    }

    #[test]
    fn cardinality_uses_steiner_points() {
        // Star: terminals are 3 leaves; tree must include the center.
        let g = generators::star(6);
        assert_eq!(min_steiner_tree_edges(&g, &[1, 2, 3]), Some(3));
    }

    #[test]
    fn disconnected_terminals() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_eq!(min_steiner_tree_edges(&g, &[0, 3]), None);
        assert_eq!(min_node_weight_steiner(&g, &[0, 3]), None);
    }

    #[test]
    fn node_weighted_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..15 {
            let mut g = generators::connected_gnp(10, 0.25, &mut rng);
            for v in 0..10 {
                g.set_node_weight(v, rng.gen_range(0..8));
            }
            let terms = vec![0, 3, 7];
            assert_eq!(
                min_node_weight_steiner(&g, &terms),
                min_node_weight_steiner_brute(&g, &terms)
            );
        }
    }

    #[test]
    fn node_weighted_prefers_cheap_hub() {
        // Two hubs connect the terminals; only the cheap one should be used.
        let mut g = Graph::new(5);
        for t in [0, 1, 2] {
            g.add_edge(t, 3);
            g.add_edge(t, 4);
            g.set_node_weight(t, 0);
        }
        g.set_node_weight(3, 10);
        g.set_node_weight(4, 1);
        assert_eq!(min_node_weight_steiner(&g, &[0, 1, 2]), Some(1));
    }

    #[test]
    fn directed_steiner_on_diamond() {
        // root 0 -> {1, 2} -> 3; terminals {3}: cheapest branch.
        let mut g = DiGraph::new(4);
        g.add_weighted_edge(0, 1, 5);
        g.add_weighted_edge(0, 2, 1);
        g.add_weighted_edge(1, 3, 1);
        g.add_weighted_edge(2, 3, 2);
        assert_eq!(min_directed_steiner(&g, 0, &[3]), Some(3));
        // Terminals {1, 3}: must pay 5 + min(1, reach 3 via 1).
        assert_eq!(min_directed_steiner(&g, 0, &[1, 3]), Some(6));
    }

    #[test]
    fn directed_steiner_shares_paths() {
        // Shared stem: 0 -> 1 (cost 10), then 1 -> {2, 3} (cost 1 each).
        // Direct edges 0 -> 2, 0 -> 3 cost 8 each.
        let mut g = DiGraph::new(4);
        g.add_weighted_edge(0, 1, 10);
        g.add_weighted_edge(1, 2, 1);
        g.add_weighted_edge(1, 3, 1);
        g.add_weighted_edge(0, 2, 8);
        g.add_weighted_edge(0, 3, 8);
        // Sharing the stem costs 12; separate direct edges cost 16.
        assert_eq!(min_directed_steiner(&g, 0, &[2, 3]), Some(12));
    }

    #[test]
    fn directed_unreachable_terminal() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(2, 1); // 2 not reachable from 0
        assert_eq!(min_directed_steiner(&g, 0, &[2]), None);
    }

    #[test]
    fn cardinality_matches_node_weighted_on_unit_weights() {
        // With all node weights 1, node-weighted optimum = edges + 1.
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..10 {
            let g = generators::connected_gnp(9, 0.3, &mut rng);
            let terms = vec![0, 4, 8];
            let e = min_steiner_tree_edges(&g, &terms).expect("connected");
            let w = min_node_weight_steiner(&g, &terms).expect("connected");
            assert_eq!(w as usize, e + 1);
        }
    }
}
