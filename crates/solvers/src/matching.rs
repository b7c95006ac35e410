//! Maximum cardinality matching.
//!
//! Used by the matching proof-labeling scheme (Claim 5.12 of the paper)
//! and the Section 5 limitation results for maximum matching: an exact
//! bitmask DP for ≤ 32 vertices, plus the greedy maximal matching behind
//! the classical 2-approximation for vertex cover.

use congest_graph::{Graph, NodeId};

/// A maximum matching by DP over vertex subsets: the lowest uncovered
/// vertex is either left unmatched or matched to a neighbor. The matching
/// is read back out of the DP's memo; each edge is listed as `(u, v)`
/// with `u < v`.
///
/// # Panics
///
/// Panics if the graph has more than 32 vertices.
pub fn max_matching(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes();
    assert!(n <= 32, "bitmask matching limited to 32 vertices");
    let mut adj = vec![0u32; n];
    for (u, v, _) in g.edges() {
        adj[u] |= 1 << v;
        adj[v] |= 1 << u;
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
    let mut memo = vec![u8::MAX; (full as usize) + 1];
    fn rec(mask: u32, adj: &[u32], memo: &mut [u8]) -> u8 {
        if mask == 0 {
            return 0;
        }
        if memo[mask as usize] != u8::MAX {
            return memo[mask as usize];
        }
        let v = mask.trailing_zeros() as usize;
        // Leave v unmatched.
        let mut best = rec(mask & !(1 << v), adj, memo);
        // Match v to each available neighbor.
        let mut cands = adj[v] & mask & !(1 << v);
        while cands != 0 {
            let u = cands.trailing_zeros() as usize;
            cands &= cands - 1;
            let r = 1 + rec(mask & !(1 << v) & !(1 << u), adj, memo);
            if r > best {
                best = r;
            }
        }
        memo[mask as usize] = best;
        best
    }
    // Walk one optimal choice per mask back down from the full set; every
    // mask on the way was solved by the first call, so `rec` only reads
    // the memo after it.
    let mut matching = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let best = rec(mask, &adj, &mut memo);
        let v = mask.trailing_zeros() as usize;
        let rest = mask & !(1 << v);
        let mut cands = adj[v] & rest;
        mask = rest;
        while cands != 0 {
            let u = cands.trailing_zeros() as usize;
            cands &= cands - 1;
            if 1 + rec(rest & !(1 << u), &adj, &mut memo) == best {
                matching.push((v, u));
                mask = rest & !(1 << u);
                break;
            }
        }
    }
    matching
}

/// A maximal (not necessarily maximum) matching by greedy edge scanning.
/// Its cardinality is at least half the maximum — the classical 2-approx
/// for MVC via matched endpoints.
pub fn greedy_maximal_matching(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut covered = vec![false; g.num_nodes()];
    let mut matching = Vec::new();
    for (u, v, _) in g.edges() {
        if !covered[u] && !covered[v] {
            covered[u] = true;
            covered[v] = true;
            matching.push((u, v));
        }
    }
    matching
}

/// Verifies that `m` is a matching of `g` (edges exist, endpoints
/// pairwise distinct).
pub fn is_matching(g: &Graph, m: &[(NodeId, NodeId)]) -> bool {
    let mut covered = vec![false; g.num_nodes()];
    for &(u, v) in m {
        if !g.has_edge(u, v) || covered[u] || covered[v] {
            return false;
        }
        covered[u] = true;
        covered[v] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matching_numbers_of_standard_graphs() {
        for (g, size) in [
            (generators::path(6), 3),
            (generators::path(7), 3),
            (generators::cycle(8), 4),
            (generators::cycle(7), 3),
            (generators::star(9), 1),
            (generators::complete(6), 3),
            (generators::complete_bipartite(3, 5), 3),
            (Graph::new(0), 0),
        ] {
            let m = max_matching(&g);
            assert!(is_matching(&g, &m), "read-back is a matching");
            assert_eq!(m.len(), size);
        }
    }

    #[test]
    fn odd_blossom_structure() {
        // Triangle with a pendant on each corner: perfect matching of size 3.
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        g.add_edge(1, 4);
        g.add_edge(2, 5);
        assert_eq!(max_matching(&g).len(), 3);
    }

    #[test]
    fn greedy_is_valid_and_half_of_optimum() {
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..15 {
            let g = generators::gnp(14, 0.3, &mut rng);
            let m = greedy_maximal_matching(&g);
            assert!(is_matching(&g, &m));
            let opt = max_matching(&g).len();
            assert!(2 * m.len() >= opt, "maximal matching below half");
            assert!(m.len() <= opt);
        }
    }

    #[test]
    fn validator_rejects_bad_matchings() {
        let g = generators::path(4);
        assert!(is_matching(&g, &[(0, 1), (2, 3)]));
        assert!(!is_matching(&g, &[(0, 1), (1, 2)])); // shared endpoint
        assert!(!is_matching(&g, &[(0, 2)])); // non-edge
    }
}
