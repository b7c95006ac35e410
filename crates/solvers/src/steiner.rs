//! Exact Steiner-tree solvers: cardinality (edge count), node-weighted,
//! and directed (arborescence).
//!
//! * The *cardinality* solver decides the Theorem 2.7 predicate ("a Steiner
//!   tree with `4k + 16·log k + 1` edges exists"). It exploits the identity
//!   `min #edges = min{|W| - 1 : Term ⊆ W, G[W] connected}` and searches
//!   over sets of extra (non-terminal) vertices by increasing size. Each
//!   candidate `W` is a vertex bitmask, tested by a word-wide flood.
//!   The optimization and the decision share one search; the decision
//!   stops at its size bound.
//! * The *node-weighted* and *directed* solvers decide the Section 4.4 gap
//!   predicates (Figure 6). One Dreyfus–Wagner dynamic program over
//!   terminal subsets with Dijkstra-style grow steps solves the directed
//!   problem; the node-weighted problem is that program on the bidirected
//!   graph in which entering a vertex costs its weight.
//!
//! Before the Dreyfus–Wagner program runs, it drops every terminal that
//! the root or a kept terminal reaches over zero-weight arcs. Terminals
//! are taken in order, and one is dropped when the root or a terminal not
//! yet dropped reaches it. This is exact on every digraph: a zero-weight
//! path added to any arborescence costs nothing, so one that reaches the
//! kept terminals reaches the dropped ones at the same cost. Each dropped
//! terminal is reached from the root or from a terminal dropped later or
//! kept, so the chain ends at the root or at a kept terminal. In Figure 6
//! each element's `a_j` and `b_j` are joined at cost 0, so of the `2ℓ`
//! terminals the directed program keeps `ℓ` and the node-weighted one
//! `ℓ − 1` (6 and 5 of 12 in the report), and the `2^t`-subset table
//! shrinks with them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use congest_graph::{DiGraph, Graph, NodeId, Weight};

use crate::bitset::{adjacency_masks, Words};

/// Minimum number of edges of a Steiner tree spanning `terminals`, or
/// `None` if the terminals are not in one connected component.
///
/// # Panics
///
/// Panics if `terminals` is empty or the graph has more than 256 vertices.
pub fn min_steiner_tree_edges(g: &Graph, terminals: &[NodeId]) -> Option<usize> {
    fewest_tree_edges(g, terminals, usize::MAX)
}

/// Decision variant of [`min_steiner_tree_edges`]: is there a Steiner
/// tree with at most `max_edges` edges? Only searches vertex sets of the
/// admissible size, so NO instances do not pay for the full optimum.
///
/// # Panics
///
/// Panics if `terminals` is empty or the graph has more than 256 vertices.
pub fn has_steiner_tree_of_size(g: &Graph, terminals: &[NodeId], max_edges: usize) -> bool {
    fewest_tree_edges(g, terminals, max_edges).is_some()
}

/// Dispatches [`fewest_edges`] on the word count `⌈n / 64⌉`.
fn fewest_tree_edges(g: &Graph, terminals: &[NodeId], max_edges: usize) -> Option<usize> {
    assert!(!terminals.is_empty(), "need at least one terminal");
    let n = g.num_nodes();
    assert!(
        n <= 256,
        "cardinality Steiner search supports at most 256 vertices"
    );
    match n.div_ceil(64).max(1) {
        1 => fewest_edges::<1>(g, terminals, max_edges),
        2 => fewest_edges::<2>(g, terminals, max_edges),
        3 => fewest_edges::<3>(g, terminals, max_edges),
        _ => fewest_edges::<4>(g, terminals, max_edges),
    }
}

/// The fewest edges of a Steiner tree with at most `max_edges` edges, by
/// searching sets of extra (non-terminal) vertices in increasing size.
fn fewest_edges<const W: usize>(
    g: &Graph,
    terminals: &[NodeId],
    max_edges: usize,
) -> Option<usize> {
    let n = g.num_nodes();
    let adj = adjacency_masks::<W>(g);
    let mut term = Words::<W>::EMPTY;
    for &t in terminals {
        term.set(t);
    }
    // Quick reachability screen.
    if !term.subset_of(&flood(&adj, Words::full(n), terminals[0])) {
        return None;
    }
    let pool: Vec<NodeId> = Words::<W>::full(n).and_not(&term).iter().collect();
    // A tree on the distinct terminals plus `extra` other vertices has
    // one edge fewer than it has vertices.
    let tree_on_terms = term.count() as usize - 1;
    for extra in 0..=pool.len() {
        let edges = tree_on_terms + extra;
        if edges > max_edges {
            break;
        }
        if search_extras(&adj, terminals[0], term, &pool, extra) {
            return Some(edges);
        }
    }
    None
}

/// Whether adding `left` vertices of `pool` to `set`, which holds
/// `start`, can make it induce a connected subgraph.
fn search_extras<const W: usize>(
    adj: &[Words<W>],
    start: NodeId,
    set: Words<W>,
    pool: &[NodeId],
    left: usize,
) -> bool {
    if left == 0 {
        return flood(adj, set, start) == set;
    }
    if left > pool.len() {
        return false;
    }
    (0..=pool.len() - left).any(|i| {
        let mut with = set;
        with.set(pool[i]);
        search_extras(adj, start, with, &pool[i + 1..], left - 1)
    })
}

/// The vertices of `within` that `start` reaches inside `within`, one
/// frontier at a time.
fn flood<const W: usize>(adj: &[Words<W>], within: Words<W>, start: NodeId) -> Words<W> {
    let mut seen = Words::bit(start);
    let mut frontier = seen;
    while !frontier.is_empty() {
        let mut reach = Words::EMPTY;
        for v in frontier.iter() {
            reach = reach.or(&adj[v]);
        }
        frontier = reach.and(&within).and_not(&seen);
        seen = seen.or(&frontier);
    }
    seen
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
/// weight is negative, or if the arc weights of the bidirected graph
/// (`Σ_v deg(v)·w(v)`) plus the root's weight reach `Weight::MAX / 4`,
/// the program's infinity.
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
    dreyfus_wagner(&d, root, terminals, g.node_weight(root))
}

/// Minimum total edge weight of a directed Steiner arborescence rooted at
/// `root` that reaches every terminal (Section 4.4, Figure 6). Returns
/// `None` if some terminal is unreachable.
///
/// Terminals that the root or another kept terminal reaches over
/// zero-weight arcs are dropped first (see the module doc). The
/// Dreyfus–Wagner table `f[s][v]`, the cheapest arborescence rooted at `v`
/// that reaches the kept-terminal set `s`, is one flat array.
///
/// # Panics
///
/// Panics if `terminals` is empty or has more than 16 elements, if `root`
/// or a terminal is not a vertex of `g`, if any edge weight is negative,
/// or if the edge weights sum to `Weight::MAX / 4` or more, the program's
/// infinity.
pub fn min_directed_steiner(g: &DiGraph, root: NodeId, terminals: &[NodeId]) -> Option<Weight> {
    dreyfus_wagner(g, root, terminals, 0)
}

/// The Dreyfus–Wagner program behind both weighted solvers: the cheapest
/// arborescence, plus `root_weight`, the node-weighted solver's charge for
/// its root.
fn dreyfus_wagner(
    g: &DiGraph,
    root: NodeId,
    terminals: &[NodeId],
    root_weight: Weight,
) -> Option<Weight> {
    // Entries stay at most INF, and an optimum at most the total weight,
    // which is checked below INF: no sum of two entries, or of an entry and
    // an arc, overflows, and no optimum reads as INF.
    const INF: Weight = Weight::MAX / 4;
    let n = g.num_nodes();
    assert!(!terminals.is_empty(), "need at least one terminal");
    assert!(
        terminals.len() <= 16,
        "terminal-subset DP limited to 16 terminals"
    );
    assert!(
        root < n && terminals.iter().all(|&t| t < n),
        "root and terminals must be vertices of the graph"
    );
    // Weighted in-rows, gathered once for the 2^t grow steps.
    let mut in_rows: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
    let mut total = root_weight;
    for (u, v, w) in g.edges() {
        assert!(w >= 0, "edge weights must be nonnegative");
        total = total.saturating_add(w);
        in_rows[v].push((u, w));
    }
    assert!(
        total < INF,
        "Steiner weights must sum to less than Weight::MAX / 4"
    );
    let kept = kept_terminals(g, root, terminals);
    let full = (1usize << kept.len()) - 1;
    // f[s * n + v]; the empty set costs nothing anywhere.
    let mut f = vec![INF; (full + 1) * n];
    f[..n].fill(0);
    for (i, &term) in kept.iter().enumerate() {
        f[(1 << i) * n + term] = 0;
    }
    let mut heap = BinaryHeap::with_capacity(n);
    for s in 1..=full {
        let (done, row) = f.split_at_mut(s * n);
        let row = &mut row[..n];
        // Merge the splits (part, s ∖ part) whose first part holds the
        // lowest terminal of s: each unordered split once.
        let lowest = s & s.wrapping_neg();
        let rest = s ^ lowest;
        let mut sub = rest;
        while sub != 0 {
            sub = (sub - 1) & rest;
            let part = &done[(lowest | sub) * n..][..n];
            let other = &done[(rest ^ sub) * n..][..n];
            for ((cur, &a), &b) in row.iter_mut().zip(part).zip(other) {
                *cur = (*cur).min(a + b);
            }
        }
        // Grow step: f[s][v] = min(f[s][v], w(v→u) + f[s][u]); relax in
        // increasing f order (Dijkstra on reversed edges).
        heap.extend(
            (0..n)
                .filter(|&v| row[v] < INF)
                .map(|v| Reverse((row[v], v))),
        );
        while let Some(Reverse((d, u))) = heap.pop() {
            if d != row[u] {
                continue;
            }
            for &(v, w) in &in_rows[u] {
                if d + w < row[v] {
                    row[v] = d + w;
                    heap.push(Reverse((d + w, v)));
                }
            }
        }
    }
    let best = f[full * n + root];
    (best < INF).then_some(best + root_weight)
}

/// The terminals the program must still reach. In order, a terminal is
/// dropped when the root or a terminal not yet dropped reaches it over
/// zero-weight arcs; a terminal equal to the root, and all but the last
/// copy of a repeated terminal, are dropped this way too.
fn kept_terminals(g: &DiGraph, root: NodeId, terminals: &[NodeId]) -> Vec<NodeId> {
    let mut zero = DiGraph::new(g.num_nodes());
    for (u, v, _) in g.edges().filter(|&(_, _, w)| w == 0) {
        zero.add_edge(u, v);
    }
    let from_root = zero.reachable_from(root);
    let reach: Vec<Vec<bool>> = terminals.iter().map(|&t| zero.reachable_from(t)).collect();
    let mut live = vec![true; terminals.len()];
    for (i, &t) in terminals.iter().enumerate() {
        let covered =
            from_root[t] || (0..terminals.len()).any(|j| j != i && live[j] && reach[j][t]);
        live[i] = !covered;
    }
    terminals
        .iter()
        .zip(&live)
        .filter(|&(_, &l)| l)
        .map(|(&t, _)| t)
        .collect()
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
    let distinct: Vec<NodeId> = (0..n).filter(|&v| is_term[v]).collect();
    let others: Vec<NodeId> = (0..n).filter(|&v| !is_term[v]).collect();
    let mut best: Option<Weight> = None;
    for mask in 0u64..(1u64 << others.len()) {
        let mut w = distinct.clone();
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
    fn repeated_terminals_count_once() {
        let g = generators::path(3);
        assert_eq!(min_steiner_tree_edges(&g, &[0, 2, 2]), Some(2));
        assert!(has_steiner_tree_of_size(&g, &[0, 2, 2], 2));
        assert!(!has_steiner_tree_of_size(&g, &[0, 2, 2], 1));
        assert_eq!(min_steiner_tree_edges(&g, &[1, 1]), Some(0));
        assert_eq!(min_node_weight_steiner_brute(&g, &[0, 2, 2]), Some(3));
        assert_eq!(min_node_weight_steiner(&g, &[0, 2, 2]), Some(3));
        assert_eq!(min_node_weight_steiner(&g, &[0, 0, 2]), Some(3));
    }

    #[test]
    fn cardinality_search_runs_at_every_word_count() {
        for n in [64, 65, 100, 129, 150, 193, 256] {
            let g = generators::path(n);
            // Two extras join three terminals.
            assert_eq!(
                min_steiner_tree_edges(&g, &[n - 5, n - 3, n - 1]),
                Some(4),
                "n = {n}"
            );
            assert_eq!(min_steiner_tree_edges(&g, &[0, 1]), Some(1));
            let mut split = g.clone();
            split.remove_edge(n - 2, n - 1);
            assert_eq!(min_steiner_tree_edges(&split, &[0, n - 1]), None);
        }
    }

    #[test]
    #[should_panic(expected = "at most 256 vertices")]
    fn cardinality_search_refuses_257_vertices() {
        min_steiner_tree_edges(&generators::path(257), &[0]);
    }

    #[test]
    fn directed_root_terminal_is_free() {
        let mut g = DiGraph::new(4);
        g.add_weighted_edge(0, 1, 5);
        g.add_weighted_edge(0, 2, 1);
        g.add_weighted_edge(1, 3, 1);
        g.add_weighted_edge(2, 3, 2);
        for r in 0..4 {
            assert_eq!(min_directed_steiner(&g, r, &[r]), Some(0));
            assert_eq!(min_directed_steiner(&g, r, &[r, r]), Some(0));
        }
        // The root among several terminals changes nothing.
        assert_eq!(min_directed_steiner(&g, 0, &[1, 0, 3]), Some(6));
        assert_eq!(min_directed_steiner(&g, 0, &[0, 3]), Some(3));
        assert_eq!(min_directed_steiner(&g, 2, &[2, 3]), Some(2));
        assert_eq!(min_directed_steiner(&g, 3, &[3, 0]), None);
    }

    #[test]
    fn zero_weight_reach_drops_terminals() {
        // 0 → 1 and 2 ⇄ 3 cost nothing; 1 → 2 costs 5 and 1 → 4 costs 2.
        let mut g = DiGraph::new(5);
        g.add_weighted_edge(0, 1, 0);
        g.add_weighted_edge(1, 2, 5);
        g.add_weighted_edge(1, 4, 2);
        g.add_weighted_edge(2, 3, 0);
        g.add_weighted_edge(3, 2, 0);
        let terminals = [0, 1, 2, 3, 4, 4];
        // The root reaches 0 and 1; 3, not yet dropped, reaches 2; the
        // second 4 reaches the first.
        assert_eq!(kept_terminals(&g, 0, &terminals), vec![3, 4]);
        assert_eq!(min_directed_steiner(&g, 0, &terminals), Some(7));
        // From 2, terminal 3 is free and 0 unreachable.
        assert_eq!(kept_terminals(&g, 2, &[3, 0]), vec![0]);
        assert_eq!(min_directed_steiner(&g, 2, &[3, 0]), None);
    }

    #[test]
    #[should_panic(expected = "Weight::MAX / 4")]
    fn directed_weights_past_the_cap_panic() {
        // Without the cap, the grow step's i64::MAX + 1 wraps to a
        // negative optimum in release builds.
        let mut g = DiGraph::new(3);
        g.add_weighted_edge(0, 1, Weight::MAX);
        g.add_weighted_edge(1, 2, 1);
        min_directed_steiner(&g, 0, &[2]);
    }

    #[test]
    #[should_panic(expected = "Weight::MAX / 4")]
    fn node_weights_past_the_cap_panic() {
        // Without the cap, the optimum wraps to -i64::MAX in release
        // builds.
        let mut g = generators::path(3);
        g.set_node_weight(1, Weight::MAX);
        min_node_weight_steiner(&g, &[0, 2]);
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
