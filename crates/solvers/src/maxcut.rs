//! Exact weighted max-cut by gray-code enumeration, plus the simple
//! approximations the paper cites (random assignment ½-approximation,
//! local search).
//!
//! Decides the Theorem 2.8 predicate "is there a cut of weight `M`?" on
//! the Figure 3 family. One gray-code walk serves both the optimization
//! and the decision, which stops at the first cut reaching its target.
//! The walk flips one vertex per step and updates the cut weight from
//! that vertex's sorted `(neighbor, weight)` row, so the enumeration
//! costs `O(2^n · Δ)` total rather than `O(2^n · m)`.

use congest_graph::{Graph, NodeId, Weight};
use rand::Rng;

use crate::stats::{timed, SearchStats};

/// Result of a max-cut computation: one side of the cut and its weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutSolution {
    /// Membership vector: `side[v]` is true if `v ∈ S`.
    pub side: Vec<bool>,
    /// The cut weight `w(E(S, V∖S))`.
    pub weight: Weight,
}

impl CutSolution {
    /// The vertices on the `S` side.
    pub fn s_side(&self) -> Vec<NodeId> {
        (0..self.side.len()).filter(|&v| self.side[v]).collect()
    }
}

/// Exact maximum weight cut.
///
/// # Panics
///
/// Panics if the graph has more than 28 vertices (`2^{n-1}` enumeration).
pub fn max_cut(g: &Graph) -> CutSolution {
    max_cut_with_stats(g).0
}

/// [`max_cut`] plus enumeration-effort counters: `nodes` counts gray-code
/// steps, `incumbents` counts improvements of the best cut (`prunes` and
/// `backtracks` stay zero — the walk is exhaustive by design).
///
/// # Panics
///
/// Panics if the graph has more than 28 vertices (`2^{n-1}` enumeration).
pub fn max_cut_with_stats(g: &Graph) -> (CutSolution, SearchStats) {
    gray_code_walk(g, None)
}

/// Decision variant: does a cut of weight ≥ `target` exist?
pub fn has_cut_of_weight(g: &Graph, target: Weight) -> bool {
    has_cut_of_weight_with_stats(g, target).0
}

/// [`has_cut_of_weight`] plus enumeration counters. Unlike the full
/// optimization, the decision walk stops as soon as the target is
/// reached, so `nodes` counts only the gray-code steps actually taken.
///
/// # Panics
///
/// Panics if the graph has more than 28 vertices.
pub fn has_cut_of_weight_with_stats(g: &Graph, target: Weight) -> (bool, SearchStats) {
    let (best, stats) = gray_code_walk(g, Some(target));
    (best.weight >= target, stats)
}

/// The gray-code walk over the `2^{n-1}` cuts that keep vertex `n-1` on
/// one side (cut symmetry). It flips one vertex per step and keeps the
/// heaviest cut seen, stopping early once that cut reaches `target`.
fn gray_code_walk(g: &Graph, target: Option<Weight>) -> (CutSolution, SearchStats) {
    let n = g.num_nodes();
    assert!(n <= 28, "exact max-cut limited to 28 vertices");
    if n == 0 {
        return (
            CutSolution {
                side: Vec::new(),
                weight: 0,
            },
            SearchStats::default(),
        );
    }
    let goal = target.unwrap_or(Weight::MAX);
    timed(|| {
        let mut stats = SearchStats::default();
        let mut side = vec![false; n];
        let mut cur: Weight = 0;
        let mut best = 0;
        let mut best_mask = 0u64;
        let mut mask = 0u64;
        let steps = 1u64 << (n - 1);
        for i in 1..steps {
            if best >= goal {
                break;
            }
            stats.nodes += 1;
            // Gray code: bit to flip.
            let v = i.trailing_zeros() as usize;
            side[v] = !side[v];
            mask ^= 1 << v;
            cur += flip_delta(g.sorted_neighbors(v), &side, side[v]);
            if cur > best {
                best = cur;
                best_mask = mask;
                stats.incumbents += 1;
            }
        }
        (
            CutSolution {
                side: (0..n).map(|v| (best_mask >> v) & 1 == 1).collect(),
                weight: best,
            },
            stats,
        )
    })
}

/// Cut-weight change from having just flipped a vertex with neighborhood
/// `nbrs` to side `new_side` (`side` already reflects the flip): edges to
/// the old side open, edges to the new side close.
#[inline]
fn flip_delta(nbrs: &[(NodeId, Weight)], side: &[bool], new_side: bool) -> Weight {
    let mut delta: Weight = 0;
    for &(u, w) in nbrs {
        if side[u] == new_side {
            delta -= w;
        } else {
            delta += w;
        }
    }
    delta
}

/// Random assignment: each vertex picks a side uniformly. In expectation a
/// ½-approximation (the paper's "trivial random assignment ... requires no
/// communication", Section 2.4).
pub fn random_cut<R: Rng>(g: &Graph, rng: &mut R) -> CutSolution {
    let side: Vec<bool> = (0..g.num_nodes()).map(|_| rng.gen_bool(0.5)).collect();
    let weight = g.cut_weight(&side);
    CutSolution { side, weight }
}

/// Local search: flip any vertex that improves the cut until none does.
/// Guarantees weight ≥ ½ of total edge weight on nonnegative weights.
pub fn local_search_cut(g: &Graph, start: Option<Vec<bool>>) -> CutSolution {
    let n = g.num_nodes();
    let mut side = start.unwrap_or_else(|| vec![false; n]);
    assert_eq!(side.len(), n, "start vector length mismatch");
    loop {
        let mut improved = false;
        for v in 0..n {
            let mut delta: Weight = 0;
            for &u in g.neighbors(v) {
                let w = g.edge_weight(u, v).expect("adjacent");
                if side[u] == side[v] {
                    delta += w;
                } else {
                    delta -= w;
                }
            }
            if delta > 0 {
                side[v] = !side[v];
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let weight = g.cut_weight(&side);
    CutSolution { side, weight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn brute_max_cut(g: &Graph) -> Weight {
        let n = g.num_nodes();
        let mut best = 0;
        for mask in 0u64..(1u64 << n) {
            let side: Vec<bool> = (0..n).map(|v| (mask >> v) & 1 == 1).collect();
            best = best.max(g.cut_weight(&side));
        }
        best
    }

    #[test]
    fn max_cut_of_standard_graphs() {
        // Bipartite graphs: max cut = all edges.
        let kb = generators::complete_bipartite(3, 4);
        assert_eq!(max_cut(&kb).weight, 12);
        // Odd cycle: n-1 edges.
        assert_eq!(max_cut(&generators::cycle(7)).weight, 6);
        // K4: 4 edges.
        assert_eq!(max_cut(&generators::complete(4)).weight, 4);
    }

    #[test]
    fn gray_code_matches_brute_force_weighted() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let mut g = generators::gnp(10, 0.5, &mut rng);
            let edges: Vec<_> = g.edges().collect();
            for (u, v, _) in edges {
                use rand::Rng;
                g.add_weighted_edge(u, v, rng.gen_range(1..20));
            }
            let fast = max_cut(&g);
            assert_eq!(fast.weight, brute_max_cut(&g));
            assert_eq!(g.cut_weight(&fast.side), fast.weight);
        }
    }

    #[test]
    fn local_search_achieves_half() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(15, 0.4, &mut rng);
        let total = g.total_edge_weight();
        let ls = local_search_cut(&g, None);
        assert!(ls.weight * 2 >= total);
        assert!(ls.weight <= max_cut(&g).weight);
    }

    #[test]
    fn decision_thresholds() {
        let c5 = generators::cycle(5);
        assert!(has_cut_of_weight(&c5, 4));
        assert!(!has_cut_of_weight(&c5, 5));
    }

    #[test]
    fn stats_count_the_gray_code_walk() {
        let g = generators::cycle(7);
        let (sol, stats) = max_cut_with_stats(&g);
        assert_eq!(sol.weight, 6);
        assert_eq!(stats.nodes, (1 << 6) - 1, "every gray-code step visited");
        assert!(stats.incumbents >= 1);
        assert_eq!(stats.prunes, 0, "the enumeration never prunes");
    }

    #[test]
    fn decision_walk_stops_early_on_yes_instances() {
        let kb = generators::complete_bipartite(3, 4);
        let (_, full) = max_cut_with_stats(&kb);
        let (yes, stats) = has_cut_of_weight_with_stats(&kb, 12);
        assert!(yes);
        assert!(stats.nodes < full.nodes, "YES walk must stop early");
        let (no, nstats) = has_cut_of_weight_with_stats(&kb, 13);
        assert!(!no);
        assert_eq!(nstats.nodes, full.nodes, "a refutation walks everything");
    }

    #[test]
    fn random_cut_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::complete(8);
        let c = random_cut(&g, &mut rng);
        assert_eq!(g.cut_weight(&c.side), c.weight);
    }
}
