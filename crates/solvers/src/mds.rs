//! Exact minimum (weight) dominating set and `k`-dominating set.
//!
//! Decides the predicates of the paper's Theorem 2.1 family ("is there a
//! dominating set of size `4·log k + 2`?"), the 2-MDS/k-MDS gap families of
//! Sections 4.2–4.3 and the restricted-MDS family of Section 4.5.
//!
//! One branch-and-bound engine serves every entry point, monomorphized
//! over the vertex-set word count (`Words<W>`); every entry point panics
//! above 256 vertices or on a negative weight. Per solve it builds `N[v]`,
//! `N²[v]`, the cheapest vertex of each `N[v]`, and classes of vertices
//! with equal `|N[v]|`.
//!
//! * It branches on the undominated vertex `v` with the fewest candidate
//!   dominators (the first one of the smallest class): which vertex of
//!   `N[v]` enters the set, the one covering the most undominated first.
//! * The lower bound packs undominated vertices pairwise at distance at
//!   least 3, class by class, smallest `|N[v]|` first. Their closed
//!   neighborhoods are disjoint, so any dominating set pays at least the
//!   cheapest dominator of each.
//! * Domination never crosses a connected component, so each component
//!   is searched on its own, and the budget one leaves caps the next.
//! * The decision variant stops at the first set under its cap, but only
//!   in the last component it searches: each earlier one still minimizes,
//!   as what it leaves of the budget decides whether the later ones fit.
//!
//! Zero-weight vertices (the paper's free `R` vertices in Figure 5) are
//! taken up front — doing so never hurts a minimization.

use std::cmp::Reverse;

use congest_graph::{Graph, NodeId, Weight};

use crate::bitset::{adjacency_masks, Words};
use crate::mis::{node_weights, SetSolution};
use crate::stats::{timed, SearchStats};

/// Per-graph tables, built once per solve.
struct Tables<const W: usize> {
    /// `N[v]`.
    closed: Vec<Words<W>>,
    /// `N²[v]`: every vertex whose closed neighborhood meets `N[v]`.
    reach: Vec<Words<W>>,
    /// The lowest weight in `N[v]`.
    cheapest: Vec<Weight>,
    /// The vertices grouped by `|N[v]|`, in ascending order.
    classes: Vec<Words<W>>,
}

impl<const W: usize> Tables<W> {
    fn new(g: &Graph, w: &[Weight]) -> Tables<W> {
        let n = g.num_nodes();
        let mut closed = adjacency_masks::<W>(g);
        for (v, c) in closed.iter_mut().enumerate() {
            c.set(v);
        }
        let reach = closed
            .iter()
            .map(|c| c.iter().fold(*c, |r, u| r.or(&closed[u])))
            .collect();
        let cheapest = closed
            .iter()
            .map(|c| c.iter().map(|u| w[u]).min().unwrap_or(0))
            .collect();
        let mut classes = vec![Words::EMPTY; n + 1];
        for (v, c) in closed.iter().enumerate() {
            classes[c.count() as usize].set(v);
        }
        classes.retain(|c| !c.is_empty());
        Tables {
            closed,
            reach,
            cheapest,
            classes,
        }
    }

    /// Lower bound: greedily pack undominated vertices pairwise at
    /// distance at least 3, class by class, smallest `|N[v]|` first.
    /// Their closed neighborhoods are disjoint, so each forces a distinct
    /// dominator, at least the cheapest one in its `N[v]`.
    fn lower_bound(&self, undominated: Words<W>) -> Weight {
        // Every vertex within distance 2 of a packed one.
        let mut blocked = Words::<W>::EMPTY;
        let mut lb = 0;
        for class in &self.classes {
            let mut free = undominated.and(class).and_not(&blocked);
            while let Some(v) = free.first() {
                lb += self.cheapest[v];
                blocked = blocked.or(&self.reach[v]);
                free = free.and_not(&self.reach[v]);
            }
        }
        lb
    }
}

struct Search<'a, const W: usize> {
    t: &'a Tables<W>,
    w: &'a [Weight],
    best: Weight,
    best_set: Words<W>,
    /// Hard cap: stop exploring branches whose cost reaches this value.
    cap: Weight,
    /// The decision exit: the first set under the cap ends the search.
    first_wins: bool,
    stats: SearchStats,
    /// The candidate dominators of the nodes on the current search path,
    /// each with the number of undominated vertices it covers: every
    /// [`Search::branch`] pushes its own and truncates them on return.
    cands: Vec<(usize, u32)>,
}

impl<const W: usize> Search<'_, W> {
    fn branch(&mut self, chosen: Words<W>, cost: Weight, undominated: Words<W>) {
        self.stats.nodes += 1;
        if cost >= self.best || cost >= self.cap {
            self.stats.prunes += 1;
            return;
        }
        if undominated.is_empty() {
            self.best = cost;
            self.best_set = chosen;
            self.stats.incumbents += 1;
            if self.first_wins {
                // Every remaining sibling is entered and cut at once.
                self.cap = 0;
            }
            return;
        }
        if cost + self.t.lower_bound(undominated) >= self.best.min(self.cap) {
            self.stats.prunes += 1;
            self.stats.bound_cutoffs += 1;
            return;
        }
        // Branch vertex: undominated vertex with fewest candidate
        // dominators, the lowest index on ties.
        let v = self
            .t
            .classes
            .iter()
            .find_map(|c| undominated.and(c).first())
            .expect("undominated nonempty");
        // Order candidates by (coverage descending) for earlier good bounds.
        let base = self.cands.len();
        for u in self.t.closed[v].iter() {
            let covers = self.t.closed[u].and(&undominated).count();
            self.cands.push((u, covers));
        }
        self.cands[base..].sort_by_key(|&(_, covers)| Reverse(covers));
        for i in base..self.cands.len() {
            let u = self.cands[i].0;
            let mut next = chosen;
            next.set(u);
            self.branch(
                next,
                cost + self.w[u],
                undominated.and_not(&self.t.closed[u]),
            );
        }
        self.stats.backtracks += 1;
        self.cands.truncate(base);
    }
}

/// The minimum weight set dominating `targets` (every vertex when
/// `None`), or with a `budget` the decision whether one of weight at most
/// `budget` exists: `None` when none does.
fn search<const W: usize>(
    g: &Graph,
    w: &[Weight],
    targets: Option<&[NodeId]>,
    budget: Option<Weight>,
) -> (Option<SetSolution>, SearchStats) {
    let n = g.num_nodes();
    let t = Tables::<W>::new(g, w);
    let cap = budget.map_or(Weight::MAX, |b| b.saturating_add(1));
    let mut undominated = Words::<W>::full(n);
    if let Some(targets) = targets {
        undominated = Words::EMPTY;
        for &v in targets {
            undominated.set(v);
        }
    }
    // Take zero-weight vertices for free — but only those that dominate
    // something new, so redundant free vertices don't pollute the
    // solution set (callers may re-weigh the returned vertices, and the
    // two-party protocols zero the weights of vertices a player cannot
    // see).
    let mut chosen = Words::<W>::EMPTY;
    let mut stats = SearchStats::default();
    for v in 0..n {
        if w[v] == 0 && t.closed[v].intersects(&undominated) {
            chosen.set(v);
            undominated = undominated.and_not(&t.closed[v]);
            stats.forced_moves += 1;
        }
    }
    // Domination never crosses a connected component, so each component
    // is an independent subproblem; the budget that remains after one
    // component caps the next, so only the last one searched may stop at
    // its first set under the cap. A target set is searched whole.
    let roots = if targets.is_none() {
        let (label, count) = g.connected_components();
        let mut comps = vec![Words::EMPTY; count];
        for (v, &c) in label.iter().enumerate() {
            comps[c].set(v);
        }
        if count > 1 {
            stats.components += count as u64;
        }
        comps
    } else {
        vec![Words::full(n)]
    };
    let last = roots.iter().rposition(|r| r.intersects(&undominated));
    let mut s = Search {
        t: &t,
        w,
        best: Weight::MAX,
        best_set: Words::EMPTY,
        cap,
        first_wins: false,
        stats,
        cands: Vec::new(),
    };
    let mut total_cost: Weight = 0;
    for (i, root) in roots.iter().enumerate() {
        let root = root.and(&undominated);
        if root.is_empty() {
            continue;
        }
        s.best = Weight::MAX;
        s.best_set = Words::EMPTY;
        s.cap = cap.saturating_sub(total_cost);
        s.first_wins = budget.is_some() && last == Some(i);
        s.branch(Words::EMPTY, 0, root);
        if s.best == Weight::MAX {
            return (None, s.stats);
        }
        total_cost += s.best;
        chosen = chosen.or(&s.best_set);
    }
    if total_cost >= cap {
        return (None, s.stats);
    }
    let sol = SetSolution {
        weight: total_cost,
        vertices: chosen.iter().collect(),
    };
    (Some(sol), s.stats)
}

/// Dispatches [`search`] on the word count `⌈n / 64⌉`, timed.
fn solve(
    g: &Graph,
    w: &[Weight],
    targets: Option<&[NodeId]>,
    budget: Option<Weight>,
) -> (Option<SetSolution>, SearchStats) {
    let n = g.num_nodes();
    assert!(
        n <= 256,
        "dominating-set solvers support at most 256 vertices"
    );
    assert!(w.iter().all(|&x| x >= 0), "weights must be nonnegative");
    timed(|| match n.div_ceil(64).max(1) {
        1 => search::<1>(g, w, targets, budget),
        2 => search::<2>(g, w, targets, budget),
        3 => search::<3>(g, w, targets, budget),
        _ => search::<4>(g, w, targets, budget),
    })
}

/// Exact minimum weight dominating set under the graph's node weights.
pub fn min_weight_dominating_set(g: &Graph) -> SetSolution {
    min_weight_dominating_set_with_stats(g).0
}

/// [`min_weight_dominating_set`] plus the branch-and-bound effort counters.
pub fn min_weight_dominating_set_with_stats(g: &Graph) -> (SetSolution, SearchStats) {
    let (sol, stats) = solve(g, &node_weights(g), None, None);
    (sol.expect("uncapped search always finds V itself"), stats)
}

/// Exact minimum weight set dominating only the `targets` (every target
/// must be in the set or adjacent to it; other vertices may be used but
/// need not be dominated). Used by the Section 5 two-party protocols,
/// where each player covers its own side "by using possibly vertices in
/// the cut" (Claim 5.8).
pub fn min_weight_dominating_set_of(g: &Graph, targets: &[NodeId]) -> SetSolution {
    solve(g, &node_weights(g), Some(targets), None)
        .0
        .expect("uncapped search always finds the targets themselves")
}

/// The minimum *cardinality* of a dominating set (node weights ignored).
pub fn min_dominating_set_size(g: &Graph) -> usize {
    let (sol, _) = solve(g, &vec![1; g.num_nodes()], None, None);
    sol.expect("uncapped search always finds V itself").weight as usize
}

/// Decision variant: is there a dominating set of cardinality ≤ `size`?
/// (The paper's Theorem 2.1 predicate.) Uses the cap to prune early and
/// stops at the first set within it, which is checked before a YES.
pub fn has_dominating_set_of_size(g: &Graph, size: usize) -> bool {
    has_dominating_set_of_size_with_stats(g, size).0
}

/// [`has_dominating_set_of_size`] plus the capped-search effort counters.
pub fn has_dominating_set_of_size_with_stats(g: &Graph, size: usize) -> (bool, SearchStats) {
    let budget = Weight::try_from(size).unwrap_or(Weight::MAX);
    let (sol, stats) = solve(g, &vec![1; g.num_nodes()], None, Some(budget));
    if let Some(sol) = &sol {
        // A YES carries its witness, checked on the adjacency lists,
        // independently of the bitset engine.
        assert!(
            g.is_dominating_set(&sol.vertices),
            "the search returned a set that does not dominate the graph"
        );
        assert!(
            sol.vertices.len() <= size,
            "the search returned a dominating set of more than {size} vertices"
        );
    }
    (sol.is_some(), stats)
}

/// The `k`-th power of `g`: edge `(u,v)` iff `0 < d_G(u,v) ≤ k`
/// (hop distance). Node weights are preserved.
pub fn graph_power(g: &Graph, k: usize) -> Graph {
    let n = g.num_nodes();
    let mut p = Graph::new(n);
    for v in 0..n {
        p.set_node_weight(v, g.node_weight(v));
    }
    for u in 0..n {
        for (v, d) in g.bfs_distances(u).into_iter().enumerate() {
            if let Some(d) = d {
                if u < v && d >= 1 && d <= k {
                    p.add_edge(u, v);
                }
            }
        }
    }
    p
}

/// Exact minimum weight `k`-dominating set (Section 4.3): a minimum weight
/// `S` such that every vertex is in `S` or within hop distance `k` of `S`.
/// Computed as a weighted MDS on the `k`-th graph power.
pub fn min_weight_k_dominating_set(g: &Graph, k: usize) -> SetSolution {
    min_weight_dominating_set(&graph_power(g, k))
}

/// Brute-force minimum weight dominating set (for cross-validation).
///
/// # Panics
///
/// Panics if `n > 20`.
pub fn min_weight_dominating_set_brute(g: &Graph) -> Weight {
    let n = g.num_nodes();
    assert!(n <= 20, "brute force limited to 20 vertices");
    let adj = adjacency_masks::<1>(g);
    let full = Words::<1>::full(n);
    let mut best = Weight::MAX;
    for mask in 0u64..(1u64 << n) {
        let m = Words([mask]);
        let mut dom = m;
        let mut cost = 0;
        for v in m.iter() {
            dom = dom.or(&adj[v]);
            cost += g.node_weight(v);
        }
        if dom == full && cost < best {
            best = cost;
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
    fn domination_numbers_of_standard_graphs() {
        assert_eq!(min_dominating_set_size(&generators::star(9)), 1);
        assert_eq!(min_dominating_set_size(&generators::complete(5)), 1);
        assert_eq!(min_dominating_set_size(&generators::cycle(9)), 3);
        assert_eq!(min_dominating_set_size(&generators::path(7)), 3); // ceil(7/3)
        assert_eq!(min_dominating_set_size(&generators::cycle(10)), 4);
    }

    #[test]
    fn decision_variant_thresholds() {
        let c9 = generators::cycle(9);
        assert!(has_dominating_set_of_size(&c9, 3));
        assert!(!has_dominating_set_of_size(&c9, 2));
        assert!(has_dominating_set_of_size(&c9, 9));
    }

    #[test]
    fn solution_dominates_and_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..15 {
            let mut g = generators::gnp(12, 0.25, &mut rng);
            for v in 0..12 {
                g.set_node_weight(v, rng.gen_range(0..6));
            }
            let sol = min_weight_dominating_set(&g);
            assert!(g.is_dominating_set(&sol.vertices), "trial {trial}");
            assert_eq!(g.node_set_weight(&sol.vertices), sol.weight);
            assert_eq!(sol.weight, min_weight_dominating_set_brute(&g));
        }
    }

    /// Packing at distance 3 (0, 3, 6 on both graphs) makes the root
    /// bound equal the domination number, where blocking every vertex
    /// within distance 3 of a packed one stops at 2.
    #[test]
    fn root_packing_bound_is_tight_on_path_and_cycle() {
        for g in [generators::path(7), generators::cycle(9)] {
            let n = g.num_nodes();
            let t = Tables::<1>::new(&g, &vec![1; n]);
            assert_eq!(t.lower_bound(Words::full(n)), 3);
        }
    }

    /// The engine's answers and every counter, for both the min and the
    /// decision search, are independent of the word count it runs at, so
    /// the `⌈n / 64⌉` dispatch is only a choice of speed.
    #[test]
    fn every_word_count_gives_the_same_search() {
        fn run<const W: usize>(
            g: &Graph,
            w: &[Weight],
            budget: Option<Weight>,
        ) -> (Option<SetSolution>, SearchStats) {
            let (sol, mut stats) = search::<W>(g, w, None, budget);
            stats.elapsed_micros = 0;
            (sol, stats)
        }
        let mut rng = StdRng::seed_from_u64(23);
        for (n, p) in [(18, 0.3), (18, 0.1), (40, 0.15), (64, 0.1), (64, 0.3)] {
            for _ in 0..4 {
                let mut g = generators::gnp(n, p, &mut rng);
                for v in 0..n {
                    g.set_node_weight(v, rng.gen_range(1..6));
                }
                let w = node_weights(&g);
                let min = run::<1>(&g, &w, None);
                let sol = min.0.as_ref().expect("uncapped search always finds V");
                assert!(g.is_dominating_set(&sol.vertices));
                assert_eq!(g.node_set_weight(&sol.vertices), sol.weight);
                assert_eq!(run::<2>(&g, &w, None), min);
                assert_eq!(run::<3>(&g, &w, None), min);
                assert_eq!(run::<4>(&g, &w, None), min);
                for budget in [sol.weight - 1, sol.weight] {
                    let decide = run::<1>(&g, &w, Some(budget));
                    assert_eq!(decide.0.is_some(), budget == sol.weight);
                    assert_eq!(run::<2>(&g, &w, Some(budget)), decide);
                    assert_eq!(run::<3>(&g, &w, Some(budget)), decide);
                    assert_eq!(run::<4>(&g, &w, Some(budget)), decide);
                }
            }
        }
    }

    #[test]
    fn graph_power_distances() {
        let p5 = generators::path(5);
        let p = graph_power(&p5, 2);
        assert!(p.has_edge(0, 2));
        assert!(!p.has_edge(0, 3));
        let p3 = graph_power(&p5, 4);
        assert_eq!(p3.num_edges(), 10); // complete
    }

    #[test]
    fn k_mds_on_path() {
        // Path of 9: a single center dominates within distance 4.
        let g = generators::path(9);
        assert_eq!(min_weight_k_dominating_set(&g, 4).weight, 1);
        assert_eq!(min_weight_k_dominating_set(&g, 1).weight, 3);
    }

    #[test]
    fn stats_variant_counts_work_and_agrees() {
        let g = generators::cycle(10);
        let plain = min_dominating_set_size(&g);
        let mut h = g.clone();
        for v in 0..10 {
            h.set_node_weight(v, 1);
        }
        let (sol, stats) = min_weight_dominating_set_with_stats(&h);
        assert_eq!(sol.weight as usize, plain);
        assert!(stats.nodes >= 1, "at least the root is expanded");
        assert!(stats.incumbents >= 1, "the optimum was an incumbent");
        assert!(stats.backtracks >= 1);
        // The capped decision search prunes at least as aggressively.
        let (yes, dstats) = has_dominating_set_of_size_with_stats(&g, 2);
        assert!(!yes);
        assert!(dstats.nodes >= 1);
    }

    #[test]
    fn zero_weight_vertices_are_free() {
        // Star where the center has weight 0.
        let mut g = generators::star(6);
        g.set_node_weight(0, 0);
        let sol = min_weight_dominating_set(&g);
        assert_eq!(sol.weight, 0);
        assert!(g.is_dominating_set(&sol.vertices));
    }
}
