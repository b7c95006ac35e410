//! Exact weighted max-cut by branch and bound, plus the simple
//! approximations the paper cites (random assignment ½-approximation,
//! local search).
//!
//! One search serves the optimization [`max_cut`] and the decision
//! [`has_cut_of_weight`], the Theorem 2.8 predicate "is there a cut of
//! weight `M`?" on the Figure 3 family. It keeps vertex `n − 1` on side
//! `false` (cut symmetry) and assigns vertices `n − 2, …, 0` in turn. At
//! vertex `j` it first tries the side that keeps bit `j` of the rank `i`
//! at 0, so its leaves arrive in ascending rank, the order in which the
//! gray-code walk visits the cut `i ^ (i >> 1)`. The optimization
//! therefore returns the walk's cut, ties included. A node's bound is the
//! cut weight among assigned vertices, plus each free vertex's larger
//! weight toward either assigned side, plus the positive weight among
//! free vertices: admissible for any weight sign. The optimization starts
//! one below a local-search cut; the decision starts one below its
//! target and stops at the first cut reaching it.
//!
//! [`gray_code_max_cut_with_stats`] is the exhaustive reference the
//! tests and the ablation bench compare the search against. It flips one
//! vertex per step and updates the cut weight from that vertex's sorted
//! `(neighbor, weight)` row, so the walk costs `O(2^n · Δ)`.

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

/// The membership vector of the `n` vertices whose bits `mask` sets.
fn sides(n: usize, mask: u64) -> Vec<bool> {
    (0..n).map(|v| (mask >> v) & 1 == 1).collect()
}

/// Exact maximum weight cut: the first maximum cut in the gray-code
/// walk's order, so it equals [`gray_code_max_cut_with_stats`]'s cut.
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn max_cut(g: &Graph) -> CutSolution {
    max_cut_with_stats(g).0
}

/// [`max_cut`] plus search counters: `nodes` counts the partial
/// assignments entered, `prunes` (all of them `bound_cutoffs`) those the
/// bound cut off, `backtracks` the exhausted inner nodes and
/// `incumbents` the improvements of the best cut.
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn max_cut_with_stats(g: &Graph) -> (CutSolution, SearchStats) {
    timed(|| {
        let floor = local_search_cut(g, None).weight - 1;
        let (best, stats) = search(g, floor, false);
        let (mask, weight) = best.expect("a maximum cut is heavier than the floor");
        let side = sides(g.num_nodes(), mask);
        (CutSolution { side, weight }, stats)
    })
}

/// Decision variant: does a cut of weight ≥ `target` exist?
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn has_cut_of_weight(g: &Graph, target: Weight) -> bool {
    has_cut_of_weight_with_stats(g, target).0
}

/// [`has_cut_of_weight`] plus the counters of [`max_cut_with_stats`].
/// The search stops at the first cut reaching `target`, and a YES checks
/// that cut's weight on `g`.
///
/// # Panics
///
/// Panics if the graph has more than 64 vertices.
pub fn has_cut_of_weight_with_stats(g: &Graph, target: Weight) -> (bool, SearchStats) {
    timed(|| {
        let (found, stats) = search(g, target.saturating_sub(1), true);
        if let Some((mask, _)) = found {
            assert!(
                g.cut_weight(&sides(g.num_nodes(), mask)) >= target,
                "max-cut search returned a cut below its target"
            );
        }
        (found.is_some(), stats)
    })
}

/// The branch and bound behind [`max_cut`] and [`has_cut_of_weight`]:
/// the first maximum cut in rank order when it is heavier than `floor`,
/// or with `first_wins` the first cut heavier than `floor`, as its side
/// mask and weight.
fn search(g: &Graph, floor: Weight, first_wins: bool) -> (Option<(u64, Weight)>, SearchStats) {
    let n = g.num_nodes();
    assert!(n <= 64, "exact max-cut limited to 64 vertices");
    if n == 0 {
        return ((0 > floor).then_some((0, 0)), SearchStats::default());
    }
    let lower: Vec<&[(NodeId, Weight)]> = (0..n)
        .map(|v| {
            let row = g.sorted_neighbors(v);
            &row[..row.partition_point(|&(u, _)| u < v)]
        })
        .collect();
    let mut free_pos = Vec::with_capacity(n);
    let mut pos = 0;
    for row in &lower {
        free_pos.push(pos);
        pos += row.iter().map(|&(_, w)| w.max(0)).sum::<Weight>();
    }
    let mut s = CutSearch {
        lower,
        free_pos,
        pull: vec![[0; 2]; n],
        pull_bound: 0,
        cut: 0,
        best: floor,
        found: None,
        first_wins,
        stats: SearchStats::default(),
    };
    s.visit(n - 1, false, false, 0);
    (s.found.map(|mask| (mask, s.best)), s.stats)
}

/// The state of one max-cut search. Vertices above the one being
/// assigned are assigned; the ones below it are free.
struct CutSearch<'g> {
    /// Each vertex's row cut to the vertices below it: the neighbors
    /// still free when it is assigned.
    lower: Vec<&'g [(NodeId, Weight)]>,
    /// `free_pos[j]`: the positive edge weight among vertices `0..j`.
    free_pos: Vec<Weight>,
    /// Each free vertex's edge weight to the assigned vertices on side
    /// `false` and on side `true`.
    pull: Vec<[Weight; 2]>,
    /// The sum over free vertices of their larger pull.
    pull_bound: Weight,
    /// The cut weight among assigned vertices.
    cut: Weight,
    /// A leaf must be heavier than this to be taken.
    best: Weight,
    /// The side mask of the last leaf taken, whose weight is `best`.
    found: Option<u64>,
    /// The decision exit: the first leaf taken ends the search.
    first_wins: bool,
    stats: SearchStats,
}

impl CutSearch<'_> {
    /// Assigns vertex `j` to `side` (`dir = 1`), or frees it again
    /// (`dir = -1`).
    fn shift(&mut self, j: usize, side: bool, dir: Weight) {
        let [to_false, to_true] = self.pull[j];
        self.cut += dir * if side { to_false } else { to_true };
        self.pull_bound -= dir * to_false.max(to_true);
        for &(u, w) in self.lower[j] {
            let p = &mut self.pull[u];
            let before = p[0].max(p[1]);
            p[usize::from(side)] += dir * w;
            self.pull_bound += p[0].max(p[1]) - before;
        }
    }

    /// Puts vertex `j` on `side`, the vertices above it being on the
    /// sides `mask` gives, and searches the vertices below it. `rank` is
    /// bit `j` of the leaves' rank, `side` xor the bit above it.
    fn visit(&mut self, j: usize, side: bool, rank: bool, mask: u64) {
        self.stats.nodes += 1;
        self.shift(j, side, 1);
        let mask = mask | u64::from(side) << j;
        if self.cut + self.pull_bound + self.free_pos[j] <= self.best {
            self.stats.prunes += 1;
            self.stats.bound_cutoffs += 1;
        } else if j == 0 {
            // Nothing is free, so the bound was this cut's weight.
            self.best = self.cut;
            self.found = Some(mask);
            self.stats.incumbents += 1;
        } else {
            // Side `rank` keeps rank bit `j − 1` at 0, so it comes first.
            self.visit(j - 1, rank, false, mask);
            if !(self.first_wins && self.found.is_some()) {
                self.visit(j - 1, !rank, true, mask);
            }
            self.stats.backtracks += 1;
        }
        self.shift(j, side, -1);
    }
}

/// The reference: a gray-code walk over the `2^{n-1}` cuts that keep
/// vertex `n-1` on side `false` (cut symmetry), keeping the first
/// heaviest. `nodes` counts its steps and `incumbents` its improvements
/// of the best cut.
///
/// # Panics
///
/// Panics if the graph has more than 28 vertices.
pub fn gray_code_max_cut_with_stats(g: &Graph) -> (CutSolution, SearchStats) {
    let n = g.num_nodes();
    assert!(n <= 28, "gray-code max-cut walk limited to 28 vertices");
    if n == 0 {
        let empty = CutSolution {
            side: Vec::new(),
            weight: 0,
        };
        return (empty, SearchStats::default());
    }
    timed(|| {
        let mut stats = SearchStats::default();
        let mut side = vec![false; n];
        let mut cur: Weight = 0;
        let mut best = 0;
        let mut best_mask = 0u64;
        let mut mask = 0u64;
        for i in 1..1u64 << (n - 1) {
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
        let side = sides(n, best_mask);
        (CutSolution { side, weight: best }, stats)
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
            for &(u, w) in g.sorted_neighbors(v) {
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
    fn search_and_walk_match_brute_force_weighted() {
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
            assert_eq!(gray_code_max_cut_with_stats(&g).0, fast);
        }
    }

    #[test]
    fn search_breaks_ties_as_the_walk_does() {
        // Edgeless graphs, symmetric graphs and negative weights: every
        // one has several maximum cuts, and the search must return the
        // walk's first.
        let mut signed = generators::complete(5);
        signed.add_weighted_edge(0, 1, -3);
        signed.add_weighted_edge(1, 2, -1);
        signed.add_weighted_edge(2, 4, 0);
        let mut negative = generators::path(4);
        for v in 0..3 {
            negative.add_weighted_edge(v, v + 1, -1);
        }
        for g in [
            Graph::new(0),
            Graph::new(1),
            Graph::new(5),
            generators::cycle(7),
            generators::complete(4),
            generators::complete_bipartite(3, 4),
            signed,
            negative,
        ] {
            assert_eq!(max_cut(&g), gray_code_max_cut_with_stats(&g).0, "{g:?}");
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
        let (sol, stats) = gray_code_max_cut_with_stats(&g);
        assert_eq!(sol.weight, 6);
        assert_eq!(stats.nodes, (1 << 6) - 1, "every gray-code step visited");
        assert!(stats.incumbents >= 1);
        assert_eq!(stats.prunes, 0, "the enumeration never prunes");
    }

    #[test]
    fn decision_search_stops_at_the_first_cut_reaching_its_target() {
        let kb = generators::complete_bipartite(3, 4);
        let (_, full) = max_cut_with_stats(&kb);
        let (yes, stats) = has_cut_of_weight_with_stats(&kb, 12);
        assert!(yes);
        assert_eq!(stats.incumbents, 1, "the first cut reaching 12 ends it");
        assert!(stats.nodes < full.nodes, "YES search must stop early");
        let (no, nstats) = has_cut_of_weight_with_stats(&kb, 13);
        assert!(!no);
        assert_eq!(nstats.nodes, 1, "the root bound is the total weight 12");
        assert_eq!(nstats.bound_cutoffs, 1);
    }

    #[test]
    fn random_cut_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::complete(8);
        let c = random_cut(&g, &mut rng);
        assert_eq!(g.cut_weight(&c.side), c.weight);
    }
}
