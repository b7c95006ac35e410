//! Differential tests for the rewritten exact-solver kernels.
//!
//! Each branch-and-bound / DP kernel is pitted against an independent
//! reference on random instances with n ≤ 12 (n ≤ 14 for cardinality
//! Steiner): the crate's brute-force oracles where they exist, naive
//! enumeration written here otherwise.
//! The Hamiltonian backtracker, the Held–Karp DP, and a permutation
//! sweep must agree three ways — two independent engines cross-check
//! each other against ground truth. The max-cut search must also return
//! the gray-code walk's exact cut, ties included, up to n = 22, and MWIS
//! must weigh what the maximum weight clique of the complement weighs up
//! to n = 130.
//!
//! The pinned op-count tests at the bottom freeze the pruning counters
//! of [`congest_solvers::SearchStats`] on fixed instances, so a
//! regression that silently disables a bound (search still correct,
//! just exponentially slower) fails loudly here.

use congest_graph::{generators, DiGraph, Graph, Weight};
use congest_solvers::hamilton::{
    find_directed_ham_cycle_with_stats, find_directed_ham_path_with_stats,
    held_karp_directed_ham_cycle, held_karp_directed_ham_path, is_directed_ham_cycle,
    is_directed_ham_path,
};
use congest_solvers::maxcut::{
    gray_code_max_cut_with_stats, has_cut_of_weight, max_cut, max_cut_with_stats,
};
use congest_solvers::mds::{
    has_dominating_set_of_size_with_stats, min_weight_dominating_set_brute,
    min_weight_dominating_set_with_stats,
};
use congest_solvers::mis::{
    max_weight_clique, max_weight_independent_set, max_weight_independent_set_brute,
    max_weight_independent_set_with_stats,
};
use congest_solvers::steiner::{
    has_steiner_tree_of_size, min_directed_steiner, min_node_weight_steiner,
    min_node_weight_steiner_brute, min_steiner_tree_edges,
};
use proptest::prelude::*;
use proptest::rand::rngs::StdRng;
use proptest::rand::seq::SliceRandom;
use proptest::rand::{Rng, SeedableRng};

/// A seeded G(n, p) with random node weights in `1..=5`.
fn weighted_gnp(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = generators::gnp(n, p, &mut rng);
    for v in 0..n {
        g.set_node_weight(v, rng.gen_range(1..=5));
    }
    g
}

/// A seeded random digraph: each ordered arc present with probability `p`.
fn random_digraph(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Max-cut ground truth: enumerate all bipartitions with vertex `n-1`
/// pinned to one side.
fn brute_max_cut(g: &Graph) -> Weight {
    let n = g.num_nodes();
    let edges: Vec<_> = g.edges().collect();
    let mut best = 0;
    for mask in 0u32..1 << (n - 1) {
        let side = |v: usize| v + 1 < n && mask >> v & 1 == 1;
        let w = edges
            .iter()
            .filter(|&&(u, v, _)| side(u) != side(v))
            .map(|&(_, _, w)| w)
            .sum();
        best = best.max(w);
    }
    best
}

/// Hamiltonian-path ground truth: try every vertex permutation.
fn brute_ham_path(g: &DiGraph) -> bool {
    fn extend(g: &DiGraph, used: &mut Vec<bool>, last: Option<usize>, placed: usize) -> bool {
        if placed == used.len() {
            return true;
        }
        for v in 0..used.len() {
            if !used[v] && last.is_none_or(|u| g.has_edge(u, v)) {
                used[v] = true;
                if extend(g, used, Some(v), placed + 1) {
                    return true;
                }
                used[v] = false;
            }
        }
        false
    }
    extend(g, &mut vec![false; g.num_nodes()], None, 0)
}

/// Hamiltonian-cycle ground truth: a path from a fixed root that closes.
fn brute_ham_cycle(g: &DiGraph) -> bool {
    fn extend(g: &DiGraph, used: &mut Vec<bool>, last: usize, placed: usize) -> bool {
        if placed == used.len() {
            return g.has_edge(last, 0);
        }
        for v in 1..used.len() {
            if !used[v] && g.has_edge(last, v) {
                used[v] = true;
                if extend(g, used, v, placed + 1) {
                    return true;
                }
                used[v] = false;
            }
        }
        false
    }
    let n = g.num_nodes();
    if n == 1 {
        return false;
    }
    let mut used = vec![false; n];
    used[0] = true;
    extend(g, &mut used, 0, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dominating-set B&B agrees with brute force on the optimum and
    /// on every decision threshold `0..=n`.
    #[test]
    fn mds_kernel_matches_brute_force(n in 2usize..=12, seed in any::<u64>()) {
        let g = weighted_gnp(n, 0.35, seed);
        let (sol, stats) = min_weight_dominating_set_with_stats(&g);
        prop_assert_eq!(sol.weight, min_weight_dominating_set_brute(&g));
        prop_assert!(stats.nodes > 0);

        let mut unit = g.clone();
        for v in 0..n {
            unit.set_node_weight(v, 1);
        }
        let min_size = min_weight_dominating_set_brute(&unit);
        for s in 0..=n {
            let (has, _) = has_dominating_set_of_size_with_stats(&unit, s);
            prop_assert_eq!(has, s as Weight >= min_size, "threshold {}", s);
        }
    }

    /// The weighted-MIS B&B (coloring bound, component split) agrees
    /// with subset enumeration.
    #[test]
    fn mis_kernel_matches_brute_force(n in 2usize..=12, seed in any::<u64>()) {
        let g = weighted_gnp(n, 0.3, seed);
        let (sol, stats) = max_weight_independent_set_with_stats(&g);
        prop_assert!(g.is_independent_set(&sol.vertices));
        prop_assert_eq!(sol.weight, max_weight_independent_set_brute(&g));
        prop_assert!(stats.nodes > 0);
    }

    /// The max-cut kernel agrees with bipartition enumeration, and the
    /// decision wrapper is exactly "target ≤ optimum".
    #[test]
    fn maxcut_kernel_matches_brute_force(n in 2usize..=12, seed in any::<u64>()) {
        let mut g = weighted_gnp(n, 0.4, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
        let edges: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
        for (u, v) in edges {
            // Re-inserting an existing edge overwrites its weight.
            g.add_weighted_edge(u, v, rng.gen_range(1..=4));
        }
        let best = brute_max_cut(&g);
        let (sol, _) = max_cut_with_stats(&g);
        prop_assert_eq!(sol.weight, best);
        for t in [-1, 0, best - 1, best, best + 1] {
            prop_assert_eq!(has_cut_of_weight(&g, t), t <= best, "target {}", t);
        }
    }
}

/// A seeded graph of `parts` G(n / parts, p) blocks with no edge between
/// blocks, and node weights in `0..=3`, so zero weights and ties are
/// common.
fn weighted_blocks(n: usize, parts: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        g.set_node_weight(u, rng.gen_range(0..=3));
        for v in u + 1..n {
            if u * parts / n == v * parts / n && rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// The complement of `g`, with `g`'s node weights.
fn complement(g: &Graph) -> Graph {
    let n = g.num_nodes();
    let mut h = Graph::new(n);
    for u in 0..n {
        h.set_node_weight(u, g.node_weight(u));
        for v in u + 1..n {
            if !g.has_edge(u, v) {
                h.add_edge(u, v);
            }
        }
    }
    h
}

/// MWIS of `g` weighs what the maximum weight clique of its complement
/// weighs. The two entry points build and relabel the same search graph
/// from different adjacency lists, and only MWIS splits `g`'s blocks
/// into separate searches. The sizes cross the one-, two- and three-word
/// engines.
#[test]
fn mwis_weighs_the_same_as_the_clique_of_the_complement() {
    let cases = [
        (60, 1, 0.5),
        (64, 2, 0.4),
        (65, 3, 0.5),
        (100, 2, 0.5),
        (128, 4, 0.3),
        (129, 1, 0.6),
        (130, 3, 0.5),
    ];
    for (i, (n, parts, p)) in cases.into_iter().enumerate() {
        let g = weighted_blocks(n, parts, p, 700 + i as u64);
        assert_eq!(
            max_weight_independent_set(&g).weight,
            max_weight_clique(&complement(&g)).weight,
            "n = {n}, {parts} blocks"
        );
    }
}

/// A seeded graph for the max-cut identity checks: G(n, p) at one of
/// three densities (the sparsest leaves isolated vertices) with unit,
/// positive or mixed-sign weights, zero included.
fn cut_instance(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let p = [0.12, 0.35, 0.7][(seed % 3) as usize];
    let kind = seed / 3 % 3;
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(p) {
                let w = match kind {
                    0 => 1,
                    1 => rng.gen_range(1..=9),
                    _ => rng.gen_range(-5..=5),
                };
                g.add_weighted_edge(u, v, w);
            }
        }
    }
    g
}

/// The max-cut search returns the walk's `CutSolution`, side vector
/// included, and its decision is exactly "target ≤ optimum".
fn assert_search_matches_walk(g: &Graph, seed: u64) {
    let (walk, _) = gray_code_max_cut_with_stats(g);
    assert_eq!(max_cut(g), walk, "seed {seed}");
    let best = walk.weight;
    for t in [-1, 0, best - 1, best, best + 1] {
        assert_eq!(
            has_cut_of_weight(g, t),
            t <= best,
            "seed {seed}, target {t}"
        );
    }
}

/// 1,200 graphs with n = 0..=16, every (n, density, weight kind)
/// combination included.
#[test]
fn maxcut_search_returns_the_walks_cut() {
    for seed in 0..1_200 {
        assert_search_matches_walk(&cut_instance((seed % 17) as usize, seed), seed);
    }
}

/// 63 graphs with n = 16..=22, where the walk takes 2^15 to 2^21 steps.
#[test]
fn maxcut_search_returns_the_walks_cut_up_to_n_22() {
    for i in 0..63 {
        let seed = 5_000 + i;
        assert_search_matches_walk(&cut_instance(16 + (i % 7) as usize, seed), seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Backtracker, Held–Karp, and permutation sweep agree on
    /// Hamiltonian path and cycle, across sparse-to-dense digraphs, and
    /// every path or cycle the backtracker returns is a valid witness.
    #[test]
    fn hamilton_kernels_agree_with_enumeration(
        n in 2usize..=7,
        seed in any::<u64>(),
        dense in any::<bool>(),
    ) {
        let p = if dense { 0.6 } else { 0.25 };
        let g = random_digraph(n, p, seed);

        let truth = brute_ham_path(&g);
        let (path, stats) = find_directed_ham_path_with_stats(&g);
        prop_assert_eq!(path.is_some(), truth, "backtracker vs enumeration");
        if let Some(path) = &path {
            prop_assert!(is_directed_ham_path(&g, path), "invalid path {:?}", path);
        }
        prop_assert_eq!(held_karp_directed_ham_path(&g), truth, "Held-Karp vs enumeration");
        prop_assert!(stats.nodes > 0);

        let truth = brute_ham_cycle(&g);
        let (cycle, _) = find_directed_ham_cycle_with_stats(&g);
        prop_assert_eq!(cycle.is_some(), truth, "backtracker vs enumeration (cycle)");
        if let Some(cycle) = &cycle {
            prop_assert!(is_directed_ham_cycle(&g, cycle), "invalid cycle {:?}", cycle);
        }
        prop_assert_eq!(held_karp_directed_ham_cycle(&g), truth, "Held-Karp vs enumeration (cycle)");
    }

    /// Node-weighted Steiner (the directed Dreyfus–Wagner program on the
    /// bidirected graph) agrees with subset enumeration, on disconnected
    /// graphs and zero weights included.
    #[test]
    fn node_weighted_steiner_matches_brute_force(
        n in 1usize..=12,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = if sparse { 0.15 } else { 0.35 };
        let mut g = generators::gnp(n, p, &mut rng);
        for v in 0..n {
            g.set_node_weight(v, rng.gen_range(0..=5));
        }
        let mut terminals: Vec<usize> = (0..n).collect();
        terminals.shuffle(&mut rng);
        terminals.truncate(rng.gen_range(1..=n.min(6)));
        prop_assert_eq!(
            min_node_weight_steiner(&g, &terminals),
            min_node_weight_steiner_brute(&g, &terminals),
            "terminals {:?}", terminals
        );
    }
}

/// Directed Steiner ground truth: the cheapest arc subset in which the
/// root reaches every terminal. With nonnegative weights the cheapest such
/// subset is an arborescence.
fn brute_directed_steiner(g: &DiGraph, root: usize, terminals: &[usize]) -> Option<Weight> {
    let arcs: Vec<_> = g.edges().collect();
    let mut best: Option<Weight> = None;
    for mask in 0u32..1 << arcs.len() {
        let chosen = || (0..arcs.len()).filter(move |&i| mask >> i & 1 == 1);
        let mut seen = vec![false; g.num_nodes()];
        seen[root] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for i in chosen() {
                let (u, v, _) = arcs[i];
                if seen[u] && !seen[v] {
                    seen[v] = true;
                    grew = true;
                }
            }
        }
        if terminals.iter().all(|&t| seen[t]) {
            let cost = chosen().map(|i| arcs[i].2).sum();
            if best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The directed Dreyfus–Wagner program agrees with arc-subset
    /// enumeration. Weights 0..=3 make zero arcs, zero cycles and zero
    /// paths from the root common, so the zero-weight terminal reduction
    /// is exercised; terminals repeat, include the root, or are
    /// unreachable.
    #[test]
    fn directed_steiner_matches_arc_subset_enumeration(
        n in 1usize..=8,
        seed in any::<u64>(),
        with_root in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        pairs.shuffle(&mut rng);
        pairs.truncate(rng.gen_range(0..=14));
        let mut g = DiGraph::new(n);
        for (u, v) in pairs {
            g.add_weighted_edge(u, v, rng.gen_range(0..=3));
        }
        let root = rng.gen_range(0..n);
        let mut terminals: Vec<usize> = (0..rng.gen_range(1..=6))
            .map(|_| rng.gen_range(0..n))
            .collect();
        if with_root {
            let at = rng.gen_range(0..=terminals.len());
            terminals.insert(at, root);
        }
        prop_assert_eq!(
            min_directed_steiner(&g, root, &terminals),
            brute_directed_steiner(&g, root, &terminals),
            "root {}, terminals {:?}, arcs {:?}", root, terminals, g.edges().collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cardinality Steiner search agrees with node-weighted subset
    /// enumeration under unit weights (a tree on `W` has `|W| - 1` edges
    /// and weighs `|W|`), on disconnected graphs and repeated terminals
    /// included; its decision flips exactly at the optimum.
    #[test]
    fn cardinality_steiner_matches_unit_weight_brute_force(
        n in 1usize..=14,
        seed in any::<u64>(),
        sparse in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = if sparse { 0.12 } else { 0.3 };
        let g = generators::gnp(n, p, &mut rng);
        let picks = rng.gen_range(1..=n.min(6));
        let terminals: Vec<usize> = (0..picks).map(|_| rng.gen_range(0..n)).collect();
        let edges = min_steiner_tree_edges(&g, &terminals);
        let brute = min_node_weight_steiner_brute(&g, &terminals);
        prop_assert_eq!(edges.map(|e| e as Weight + 1), brute, "terminals {:?}", terminals);
        match edges {
            Some(opt) => {
                prop_assert!(has_steiner_tree_of_size(&g, &terminals, opt));
                if opt > 0 {
                    prop_assert!(!has_steiner_tree_of_size(&g, &terminals, opt - 1));
                }
            }
            None => prop_assert!(!has_steiner_tree_of_size(&g, &terminals, n)),
        }
    }
}

/// `stats` with its wall-clock field zeroed, so exact comparisons pin
/// only the deterministic counters.
fn counters(mut stats: congest_solvers::SearchStats) -> congest_solvers::SearchStats {
    stats.elapsed_micros = 0;
    stats
}

fn pinned(
    nodes: u64,
    prunes: u64,
    backtracks: u64,
    incumbents: u64,
    bound_cutoffs: u64,
    forced_moves: u64,
    components: u64,
) -> congest_solvers::SearchStats {
    congest_solvers::SearchStats {
        nodes,
        prunes,
        backtracks,
        incumbents,
        bound_cutoffs,
        forced_moves,
        components,
        elapsed_micros: 0,
    }
}

/// The dominating-set B&B resolves `star(8)` after expanding three
/// nodes: the greedy incumbent is optimal and the root bound closes the
/// search. More work here means a bound regressed.
#[test]
fn mds_op_counts_are_pinned_on_the_star() {
    let star = generators::star(8);
    let (sol, stats) = min_weight_dominating_set_with_stats(&star);
    assert_eq!(sol.weight, 1);
    assert_eq!(counters(stats), pinned(3, 1, 1, 1, 0, 0, 0));
    let (has, stats) = has_dominating_set_of_size_with_stats(&star, 1);
    assert!(has);
    assert_eq!(counters(stats), pinned(3, 1, 1, 1, 0, 0, 0));
}

/// On the directed 8-cycle every vertex has in-degree 1, so the path
/// search has no unique source and roots at vertex 0 first; there, like
/// the cycle search anchored at vertex 0, it takes 7 forced steps to the
/// full path (8 DFS nodes) without branching.
#[test]
fn hamilton_op_counts_are_pinned_on_the_directed_cycle() {
    let mut cyc = DiGraph::new(8);
    for v in 0..8 {
        cyc.add_edge(v, (v + 1) % 8);
    }
    let (path, stats) = find_directed_ham_path_with_stats(&cyc);
    assert!(path.is_some());
    assert_eq!(counters(stats), pinned(8, 0, 0, 1, 0, 7, 0));
    let (cycle, stats) = find_directed_ham_cycle_with_stats(&cyc);
    assert!(cycle.is_some());
    assert_eq!(counters(stats), pinned(8, 0, 0, 1, 0, 7, 0));
}

/// A triangle, a path, and three isolated vertices decompose into
/// independently solved components; the component counter must see the
/// split and the coloring bound must cut both searches.
#[test]
fn component_decomposition_op_counts_are_pinned() {
    let mut g = Graph::new(8);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 0);
    g.add_edge(4, 5);
    g.add_edge(5, 6);
    let (sol, stats) = max_weight_independent_set_with_stats(&g);
    assert_eq!(sol.weight, 5); // isolated 3,7 + one of the triangle + path ends
    assert_eq!(counters(stats), pinned(9, 2, 3, 4, 2, 0, 4));
    let (sol, stats) = min_weight_dominating_set_with_stats(&g);
    assert_eq!(sol.weight, 4);
    assert_eq!(counters(stats), pinned(11, 3, 4, 4, 0, 0, 4));
}
