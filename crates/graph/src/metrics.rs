//! Structural graph metrics: diameter, weighted distances, bridges and
//! 2-edge-connectivity, spanning-subgraph checks.
//!
//! These are the predicates the paper's constructions are measured against:
//! e.g. the bounded-degree family of Theorem 3.1 must have logarithmic
//! diameter and maximum degree 5, and the 2-ECSS bound of Theorem 2.5 needs
//! a 2-edge-connectivity checker (Claim 2.7).

use std::collections::BinaryHeap;

use crate::{Graph, NodeId, Weight};

/// The (hop) eccentricity of `u`, or `None` if the graph is disconnected
/// from `u`.
pub fn eccentricity(g: &Graph, u: NodeId) -> Option<usize> {
    let dist = g.bfs_distances(u);
    let mut ecc = 0;
    for d in dist {
        ecc = ecc.max(d?);
    }
    Some(ecc)
}

/// The (hop) diameter, or `None` if the graph is disconnected or empty.
///
/// Runs breadth-first search from 64 sources at once: bit `i` of a
/// vertex's `seen` word says that source `i` of the batch has reached it.
/// A level ORs each vertex's neighbours' frontier words into that vertex,
/// and a batch ends at the first level where no word grows, so its level
/// count is the largest eccentricity among its sources. The graph is
/// disconnected iff some vertex's `seen` word misses a source of a batch.
pub fn diameter(g: &Graph) -> Option<usize> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let mut seen = vec![0u64; n];
    let mut frontier = vec![0u64; n];
    let mut next = vec![0u64; n];
    let mut diam = 0;
    for base in (0..n).step_by(64) {
        let batch = (n - base).min(64);
        let full = u64::MAX >> (64 - batch);
        seen.fill(0);
        frontier.fill(0);
        for i in 0..batch {
            seen[base + i] = 1 << i;
            frontier[base + i] = 1 << i;
        }
        let mut levels = 0;
        loop {
            let mut grew = false;
            for (v, (seen_v, next_v)) in seen.iter_mut().zip(&mut next).enumerate() {
                let reach = g.neighbors(v).iter().fold(0, |r, &u| r | frontier[u]);
                let new = reach & !*seen_v;
                *seen_v |= new;
                *next_v = new;
                grew |= new != 0;
            }
            if !grew {
                break;
            }
            levels += 1;
            std::mem::swap(&mut frontier, &mut next);
        }
        if seen.iter().any(|&s| s != full) {
            return None;
        }
        diam = diam.max(levels);
    }
    Some(diam)
}

/// Single-source shortest path distances with nonnegative edge weights
/// (Dijkstra). Unreachable nodes get `None`.
///
/// # Panics
///
/// Panics if any edge has negative weight.
pub fn dijkstra(g: &Graph, src: NodeId) -> Vec<Option<Weight>> {
    let n = g.num_nodes();
    let mut dist: Vec<Option<Weight>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src] = Some(0);
    heap.push(std::cmp::Reverse((0i64, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u] != Some(d) {
            continue;
        }
        for &v in g.neighbors(u) {
            let w = g.edge_weight(u, v).expect("adjacent edge exists");
            assert!(w >= 0, "dijkstra requires nonnegative weights");
            let nd = d + w;
            if dist[v].is_none_or(|old| nd < old) {
                dist[v] = Some(nd);
                heap.push(std::cmp::Reverse((nd, v)));
            }
        }
    }
    dist
}

/// The weighted `s`–`t` distance, or `None` if `t` is unreachable.
pub fn weighted_distance(g: &Graph, s: NodeId, t: NodeId) -> Option<Weight> {
    dijkstra(g, s)[t]
}

/// All bridges of the graph (edges whose removal disconnects their
/// component), via the classic DFS low-link algorithm, returned as `(u, v)`
/// pairs with `u < v`.
pub fn bridges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes();
    let mut disc = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut out = Vec::new();
    let mut timer = 0usize;
    // Iterative DFS to avoid recursion limits on long paths.
    for start in 0..n {
        if disc[start] != usize::MAX {
            continue;
        }
        // Stack holds (node, parent, neighbor-index).
        let mut stack: Vec<(NodeId, Option<NodeId>, usize)> = vec![(start, None, 0)];
        disc[start] = timer;
        low[start] = timer;
        timer += 1;
        while let Some(&mut (u, parent, ref mut idx)) = stack.last_mut() {
            if *idx < g.degree(u) {
                let v = g.neighbors(u)[*idx];
                *idx += 1;
                if Some(v) == parent {
                    // Skip exactly one copy of the parent edge (simple graph).
                    continue;
                }
                if disc[v] == usize::MAX {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    stack.push((v, Some(u), 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(&mut (p, _, _)) = stack.last_mut() {
                    low[p] = low[p].min(low[u]);
                    if low[u] > disc[p] {
                        out.push((p.min(u), p.max(u)));
                    }
                }
            }
        }
    }
    out
}

/// Whether the graph is 2-edge-connected: connected, at least 2 nodes, and
/// bridgeless (Claim 2.7 of the paper equates an `n`-edge spanning
/// 2-edge-connected subgraph with a Hamiltonian cycle).
pub fn is_two_edge_connected(g: &Graph) -> bool {
    g.num_nodes() >= 2 && g.is_connected() && bridges(g).is_empty()
}

/// Whether `edges` forms a spanning connected subgraph of `g` using only
/// edges of `g`.
pub fn is_spanning_connected(g: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    let mut h = Graph::new(g.num_nodes());
    for &(u, v) in edges {
        if !g.has_edge(u, v) {
            return false;
        }
        h.add_edge(u, v);
    }
    h.is_connected()
}

/// Whether `edges` (a subset of `g`'s edges) forms a spanning tree of `g`.
pub fn is_spanning_tree(g: &Graph, edges: &[(NodeId, NodeId)]) -> bool {
    g.num_nodes() > 0 && edges.len() == g.num_nodes() - 1 && is_spanning_connected(g, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(6)), Some(5));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(6)), Some(1));
        let mut g = Graph::new(2);
        assert_eq!(diameter(&g), None); // disconnected
        g.add_edge(0, 1);
        assert_eq!(diameter(&g), Some(1));
    }

    /// The per-source reference: the largest eccentricity.
    fn max_eccentricity(g: &Graph) -> Option<usize> {
        let eccs: Option<Vec<usize>> = (0..g.num_nodes()).map(|u| eccentricity(g, u)).collect();
        eccs?.into_iter().max()
    }

    #[test]
    fn diameter_matches_max_eccentricity_across_batches() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(61);
        for n in [0usize, 1, 2, 63, 64, 65, 127, 128, 129, 200] {
            let mut graphs = vec![
                generators::path(n),
                generators::star(n),
                generators::gnp(n, 0.02, &mut rng),
            ];
            if n >= 3 {
                graphs.push(generators::cycle(n));
                graphs.push(generators::connected_gnp(n, 3.0 / n as f64, &mut rng));
            }
            for g in &graphs {
                assert_eq!(diameter(g), max_eccentricity(g), "n = {n}");
            }
        }
        // 129 levels: more levels than a batch has sources.
        let long = generators::path(130);
        assert_eq!(diameter(&long), Some(129));
        assert_eq!(max_eccentricity(&long), Some(129));
        // Connected but for vertex 64, the only source of the last batch.
        let mut g = generators::path(64);
        g.add_node();
        assert_eq!(g.num_nodes(), 65);
        assert_eq!(diameter(&g), None);
        assert_eq!(max_eccentricity(&g), None);
        g.add_edge(10, 64);
        assert_eq!(diameter(&g), max_eccentricity(&g));
        assert_eq!(diameter(&g), Some(63));
    }

    #[test]
    fn dijkstra_weighted() {
        let mut g = Graph::new(4);
        g.add_weighted_edge(0, 1, 1);
        g.add_weighted_edge(1, 2, 1);
        g.add_weighted_edge(0, 2, 5);
        let d = dijkstra(&g, 0);
        assert_eq!(d[2], Some(2));
        assert_eq!(d[3], None);
        assert_eq!(weighted_distance(&g, 0, 2), Some(2));
    }

    #[test]
    fn bridges_in_path_and_cycle() {
        let p = generators::path(5);
        assert_eq!(bridges(&p).len(), 4);
        let c = generators::cycle(5);
        assert!(bridges(&c).is_empty());
        assert!(is_two_edge_connected(&c));
        assert!(!is_two_edge_connected(&p));
    }

    #[test]
    fn barbell_has_one_bridge() {
        // Two triangles joined by a bridge 2-3.
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(u, v);
        }
        assert_eq!(bridges(&g), vec![(2, 3)]);
        assert!(!is_two_edge_connected(&g));
    }

    #[test]
    fn spanning_checks() {
        let g = generators::cycle(4);
        assert!(is_spanning_tree(&g, &[(0, 1), (1, 2), (2, 3)]));
        assert!(!is_spanning_tree(&g, &[(0, 1), (1, 2), (3, 0), (2, 3)]));
        assert!(is_spanning_connected(&g, &[(0, 1), (1, 2), (3, 0), (2, 3)]));
        // Edge not in g.
        assert!(!is_spanning_tree(&g, &[(0, 2), (1, 2), (2, 3)]));
    }
}
