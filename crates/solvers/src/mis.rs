//! Exact maximum (weight) independent set, maximum clique and minimum
//! vertex cover.
//!
//! One engine serves every entry point: a Tomita-style branch-and-bound
//! maximum *weight* clique search with a greedy-coloring upper bound,
//! monomorphized over the vertex-set word count (`Words<W>`, so up to
//! 256 vertices). MWIS runs it on the complement graph, one connected
//! component at a time. It decides the MaxIS predicates of the paper's
//! Section 4.1 code gadgets (68–176 vertices, small independence number).
//!
//! The search runs on a relabeled copy of its search graph (the
//! complement for MWIS, the graph itself for cliques): vertices by
//! descending degree in that graph, ties by ascending id, the initial
//! order of Tomita and Seki's MCQ. First-fit coloring in that order gives
//! the low-degree vertices the top colors, and the search branches on the
//! top colors first. On the code gadgets the low-degree vertices are the
//! weight-`ℓ` row vertices, which have few non-neighbors; once they are
//! fixed, the coloring of the remaining codeword vertices meets Lemma
//! 4.1's count and every subtree closes at its bound, so an `n = 176`
//! gadget instance takes tens of search nodes.
//!
//! Each search node colors its candidate set one class at a time with
//! word-wide set operations and writes the resulting order onto a scratch
//! stack shared by the whole search, so expanding a node allocates
//! nothing. The optimum is mapped back to the caller's labels and checked
//! on `g`'s adjacency lists, independently of the bitset engine, before
//! it is returned.

use std::cmp::Reverse;

use congest_graph::{Graph, NodeId, Weight};

use crate::bitset::{adjacency_masks, Words};
use crate::stats::{timed, SearchStats};

/// Result of an exact independent-set/clique computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSolution {
    /// Total weight of the optimum (cardinality if all weights are 1).
    pub weight: Weight,
    /// The vertices of one optimal solution.
    pub vertices: Vec<NodeId>,
}

struct Search<'a, const W: usize> {
    adj: &'a [Words<W>],
    w: &'a [Weight],
    best: Weight,
    best_set: Words<W>,
    stats: SearchStats,
    /// The color orders of the nodes on the current search path, as
    /// `(vertex, bound)` pairs: each [`Search::expand`] pushes its own
    /// and truncates them on return.
    order: Vec<(usize, Weight)>,
}

impl<const W: usize> Search<'_, W> {
    /// Pushes a greedy coloring of the candidate set `p`: the vertices by
    /// color class, each with the sum of the class-max weights up to and
    /// including its class. A class starts at the smallest uncolored
    /// vertex and repeatedly takes the smallest candidate not adjacent to
    /// any member so far, so the classes, and their ascending member
    /// order, are exactly those of first-fit coloring in label order,
    /// which [`search`] makes the descending-degree order.
    fn push_coloring(&mut self, mut p: Words<W>) {
        let mut bound = 0;
        while !p.is_empty() {
            let class_start = self.order.len();
            let mut class_max = 0;
            let mut candidates = p;
            // Every candidate below word `i` is already taken or removed,
            // so the scan walks the words once instead of searching for
            // the smallest candidate afresh, which costs twice as much
            // per node.
            for i in 0..W {
                while candidates.0[i] != 0 {
                    let v = i * 64 + candidates.0[i].trailing_zeros() as usize;
                    candidates = candidates.and_not(&self.adj[v]);
                    candidates.clear(v);
                    p.clear(v);
                    class_max = class_max.max(self.w[v]);
                    self.order.push((v, 0));
                }
            }
            bound += class_max;
            for entry in &mut self.order[class_start..] {
                entry.1 = bound;
            }
        }
    }

    fn expand(&mut self, r: Words<W>, r_weight: Weight, mut p: Words<W>) {
        self.stats.nodes += 1;
        if p.is_empty() {
            if r_weight > self.best {
                self.best = r_weight;
                self.best_set = r;
                self.stats.incumbents += 1;
            }
            return;
        }
        let base = self.order.len();
        self.push_coloring(p);
        for i in (base..self.order.len()).rev() {
            let (v, bound) = self.order[i];
            if r_weight + bound <= self.best {
                // Every remaining candidate is bounded away.
                self.stats.prunes += 1;
                self.stats.bound_cutoffs += 1;
                self.order.truncate(base);
                return;
            }
            let mut rv = r;
            rv.set(v);
            self.expand(rv, r_weight + self.w[v], p.and(&self.adj[v]));
            p.clear(v);
        }
        self.stats.backtracks += 1;
        self.order.truncate(base);
    }
}

/// Maximum weight clique of `g` under the weights `w`, or with
/// `complement` the maximum weight independent set: a clique of the
/// complement, searched one connected component of `g` at a time (every
/// later candidate set is an intersection with the component, so the
/// search never leaves it).
///
/// The search graph is relabeled first: label `i` is the vertex of the
/// `i`-th highest degree in it, ties by ascending id (MCQ's initial
/// order), and the masks, weights and component roots are built in that
/// order. The optimum is mapped back to `g`'s ids and checked on `g`.
///
/// # Panics
///
/// Panics if the mapped-back optimum is not independent in `g` (not a
/// clique, without `complement`) or its weight under `w` is not the
/// search's: either is a bug in the engine.
fn search<const W: usize>(g: &Graph, w: &[Weight], complement: bool) -> (SetSolution, SearchStats) {
    let n = g.num_nodes();
    let full = Words::<W>::full(n);
    let (vertex, label) = mcq_labels(g, complement);
    let mut adj = vec![Words::<W>::EMPTY; n];
    for (u, v, _) in g.edges() {
        adj[label[u]].set(label[v]);
        adj[label[v]].set(label[u]);
    }
    if complement {
        for (i, a) in adj.iter_mut().enumerate() {
            *a = full.and_not(a);
            a.clear(i);
        }
    }
    let search_w: Vec<Weight> = vertex.iter().map(|&v| w[v]).collect();
    let roots = if complement {
        let (component, count) = g.connected_components();
        let mut comps = vec![Words::EMPTY; count];
        for (v, &c) in component.iter().enumerate() {
            comps[c].set(label[v]);
        }
        comps
    } else {
        vec![full]
    };
    let (total, stats) = timed(|| {
        let mut s = Search {
            adj: &adj,
            w: &search_w,
            best: 0,
            best_set: Words::EMPTY,
            stats: SearchStats::default(),
            order: Vec::new(),
        };
        let mut total = SetSolution {
            weight: 0,
            vertices: Vec::new(),
        };
        for root in &roots {
            s.best = 0;
            s.best_set = Words::EMPTY;
            s.expand(Words::EMPTY, 0, *root);
            total.weight += s.best;
            total.vertices.extend(s.best_set.iter().map(|i| vertex[i]));
        }
        total.vertices.sort_unstable();
        if roots.len() > 1 {
            s.stats.components = roots.len() as u64;
        }
        (total, s.stats)
    });
    check_on_graph(g, w, complement, &total);
    (total, stats)
}

/// MCQ's initial order of the search graph (`g`, or its complement with
/// `complement`): `vertex[i]` is the vertex of the `i`-th highest degree
/// in it, ties by ascending id, and `label` is the inverse. It sits
/// outside the word-count generic [`search`], so the sort is compiled
/// once rather than once per word count.
fn mcq_labels(g: &Graph, complement: bool) -> (Vec<NodeId>, Vec<usize>) {
    let n = g.num_nodes();
    let degree = |v| {
        if complement {
            n - 1 - g.degree(v)
        } else {
            g.degree(v)
        }
    };
    let mut vertex: Vec<NodeId> = (0..n).collect();
    vertex.sort_unstable_by_key(|&v| (Reverse(degree(v)), v));
    let mut label = vec![0; n];
    for (i, &v) in vertex.iter().enumerate() {
        label[v] = i;
    }
    (vertex, label)
}

/// Asserts that `sol` is independent in `g` (with `complement`) or a
/// clique of `g` (without), and that its weight under `w` is
/// `sol.weight`: one pass over the members' adjacency lists, `O(n + m)`.
fn check_on_graph(g: &Graph, w: &[Weight], complement: bool, sol: &SetSolution) {
    let mut member = vec![false; g.num_nodes()];
    for &v in &sol.vertices {
        member[v] = true;
    }
    let others = sol.vertices.len().saturating_sub(1);
    for &v in &sol.vertices {
        let inside = g.neighbors(v).iter().filter(|&&u| member[u]).count();
        if complement {
            assert_eq!(inside, 0, "the MWIS search returned a dependent set");
        } else {
            assert_eq!(inside, others, "the clique search returned a non-clique");
        }
    }
    assert_eq!(
        sol.vertices.iter().map(|&v| w[v]).sum::<Weight>(),
        sol.weight,
        "the search's weight is not its set's"
    );
}

/// Dispatches [`search`] on the word count `⌈n / 64⌉`.
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices or a weight is
/// negative (the bound assumes nonnegative weights; the paper's
/// constructions use positive weights throughout).
fn solve(g: &Graph, w: &[Weight], complement: bool) -> (SetSolution, SearchStats) {
    let n = g.num_nodes();
    assert!(
        n <= 256,
        "MIS and clique solvers support at most 256 vertices"
    );
    assert!(w.iter().all(|&x| x >= 0), "weights must be nonnegative");
    match n.div_ceil(64).max(1) {
        1 => search::<1>(g, w, complement),
        2 => search::<2>(g, w, complement),
        3 => search::<3>(g, w, complement),
        _ => search::<4>(g, w, complement),
    }
}

pub(crate) fn node_weights(g: &Graph) -> Vec<Weight> {
    (0..g.num_nodes()).map(|v| g.node_weight(v)).collect()
}

/// Exact maximum weight clique of `g` under its node weights.
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices or negative weights.
pub fn max_weight_clique(g: &Graph) -> SetSolution {
    solve(g, &node_weights(g), false).0
}

/// Exact maximum weight independent set of `g` under its node weights
/// (clique in the complement).
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices or negative weights.
pub fn max_weight_independent_set(g: &Graph) -> SetSolution {
    max_weight_independent_set_with_stats(g).0
}

/// [`max_weight_independent_set`] plus the branch-and-bound effort
/// counters.
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices or negative weights.
pub fn max_weight_independent_set_with_stats(g: &Graph) -> (SetSolution, SearchStats) {
    solve(g, &node_weights(g), true)
}

/// A maximum (cardinality) independent set, ignoring node weights.
fn max_independent_set(g: &Graph) -> SetSolution {
    solve(g, &vec![1; g.num_nodes()], true).0
}

/// The independence number `α(G)` (cardinality, ignoring node weights).
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices.
pub fn independence_number(g: &Graph) -> usize {
    max_independent_set(g).weight as usize
}

/// The vertices outside `mis`, in ascending order.
fn complement_of(g: &Graph, mis: &SetSolution) -> Vec<NodeId> {
    let mut in_is = vec![false; g.num_nodes()];
    for &v in &mis.vertices {
        in_is[v] = true;
    }
    (0..g.num_nodes()).filter(|&v| !in_is[v]).collect()
}

/// An optimal (cardinality) minimum vertex cover: the complement of a
/// maximum independent set.
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices.
pub fn min_vertex_cover(g: &Graph) -> SetSolution {
    let vertices = complement_of(g, &max_independent_set(g));
    SetSolution {
        weight: vertices.len() as Weight,
        vertices,
    }
}

/// An optimal minimum *weight* vertex cover: the complement of a maximum
/// weight independent set (LP-duality-free classic identity).
///
/// # Panics
///
/// Panics if the graph has more than 256 vertices or negative weights.
pub fn min_weight_vertex_cover(g: &Graph) -> SetSolution {
    let vertices = complement_of(g, &max_weight_independent_set(g));
    SetSolution {
        weight: vertices.iter().map(|&v| g.node_weight(v)).sum(),
        vertices,
    }
}

/// Brute-force MWIS over all `2^n` subsets, for cross-validation.
///
/// # Panics
///
/// Panics if `n > 24`.
pub fn max_weight_independent_set_brute(g: &Graph) -> Weight {
    let n = g.num_nodes();
    assert!(n <= 24, "brute force limited to 24 vertices");
    let adj = adjacency_masks::<1>(g);
    let mut best = 0;
    for mask in 0u64..(1u64 << n) {
        let m = Words([mask]);
        let mut ok = true;
        let mut wsum = 0;
        for v in m.iter() {
            if adj[v].intersects(&m) {
                ok = false;
                break;
            }
            wsum += g.node_weight(v);
        }
        if ok && wsum > best {
            best = wsum;
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
    fn independence_of_standard_graphs() {
        assert_eq!(independence_number(&generators::complete(6)), 1);
        assert_eq!(independence_number(&generators::cycle(6)), 3);
        assert_eq!(independence_number(&generators::cycle(7)), 3);
        assert_eq!(independence_number(&generators::path(7)), 4);
        assert_eq!(independence_number(&generators::star(8)), 7);
        assert_eq!(
            independence_number(&generators::complete_bipartite(3, 5)),
            5
        );
    }

    #[test]
    fn solution_is_independent_and_optimal() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut g = generators::gnp(14, 0.3, &mut rng);
            for v in 0..14 {
                g.set_node_weight(v, rng.gen_range(1..10));
            }
            let sol = max_weight_independent_set(&g);
            assert!(g.is_independent_set(&sol.vertices));
            assert_eq!(g.node_set_weight(&sol.vertices), sol.weight);
            assert_eq!(sol.weight, max_weight_independent_set_brute(&g));
        }
    }

    #[test]
    fn vertex_cover_complements_mis() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let g = generators::gnp(12, 0.4, &mut rng);
            let vc = min_vertex_cover(&g);
            assert!(g.is_vertex_cover(&vc.vertices));
            assert_eq!(vc.vertices.len(), g.num_nodes() - independence_number(&g));
        }
    }

    #[test]
    fn clique_on_weighted_graph() {
        // Triangle 0-1-2 with weights 1,2,3 and pendant 3 with weight 10.
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 3);
        for (v, w) in [(0, 1), (1, 2), (2, 3), (3, 10)] {
            g.set_node_weight(v, w);
        }
        let c = max_weight_clique(&g);
        assert_eq!(c.weight, 13); // {2, 3}
        let mut vs = c.vertices.clone();
        vs.sort_unstable();
        assert_eq!(vs, vec![2, 3]);
    }

    /// The engine's answer and every counter, for both MWIS and clique,
    /// are independent of the word count it runs at, so the `⌈n / 64⌉`
    /// dispatch is only a choice of speed.
    #[test]
    fn every_word_count_gives_the_same_search() {
        fn run<const W: usize>(g: &Graph, w: &[Weight], mis: bool) -> (SetSolution, SearchStats) {
            let (sol, mut stats) = search::<W>(g, w, mis);
            stats.elapsed_micros = 0;
            (sol, stats)
        }
        let mut rng = StdRng::seed_from_u64(14);
        for (n, p) in [(18, 0.3), (18, 0.1), (40, 0.2), (64, 0.15), (64, 0.5)] {
            for _ in 0..4 {
                let mut g = generators::gnp(n, p, &mut rng);
                for v in 0..n {
                    g.set_node_weight(v, rng.gen_range(1..9));
                }
                let w = node_weights(&g);
                for mis in [true, false] {
                    let one = run::<1>(&g, &w, mis);
                    let set = &one.0.vertices;
                    if mis {
                        assert!(g.is_independent_set(set));
                    } else {
                        assert!(set
                            .iter()
                            .all(|&u| set.iter().all(|&v| u == v || g.has_edge(u, v))));
                    }
                    assert_eq!(g.node_set_weight(set), one.0.weight);
                    assert_eq!(run::<2>(&g, &w, mis), one);
                    assert_eq!(run::<3>(&g, &w, mis), one);
                    assert_eq!(run::<4>(&g, &w, mis), one);
                }
            }
        }
    }

    /// Above 128 vertices the cardinality and clique entry points run
    /// the same engine as weighted MWIS; on a cycle and a clique the
    /// coloring bound is tight, so the searches are short.
    #[test]
    fn every_entry_point_takes_up_to_256_vertices() {
        let cycle = generators::cycle(130);
        assert_eq!(independence_number(&cycle), 65);
        assert_eq!(min_vertex_cover(&cycle).weight, 65);
        let complete = generators::complete(200);
        assert_eq!(max_weight_clique(&complete).weight, 200);
        assert_eq!(independence_number(&complete), 1);
        assert_eq!(min_weight_vertex_cover(&complete).weight, 199);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(independence_number(&g), 0);
        assert_eq!(max_weight_independent_set(&g).weight, 0);
    }

    #[test]
    fn stats_variant_agrees_and_counts() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut g = generators::gnp(14, 0.3, &mut rng);
        for v in 0..14 {
            g.set_node_weight(v, rng.gen_range(1..10));
        }
        let plain = max_weight_independent_set(&g);
        let (sol, stats) = max_weight_independent_set_with_stats(&g);
        assert_eq!(sol.weight, plain.weight);
        assert!(stats.nodes >= 1);
        assert!(stats.incumbents >= 1);
        assert!(
            stats.prunes + stats.backtracks >= 1,
            "a 14-vertex search cannot finish in one node"
        );
    }
}

/// Exact independence number for *sparse / bounded-degree* graphs, via
/// kernelization and branching (no bitmask size limit). Handles the
/// Section 3 reduction outputs (hundreds of vertices of degree ≤ 5),
/// where the clique-cover bound of [`max_weight_independent_set`] is
/// ineffective.
///
/// Techniques: degree-0/1 vertices are always taken; connected components
/// are solved independently; components of maximum degree ≤ 2 (paths and
/// cycles) are solved in closed form; otherwise branch on a
/// maximum-degree vertex (exclude it, or take it and delete its closed
/// neighborhood).
pub fn independence_number_sparse(g: &Graph) -> usize {
    let n = g.num_nodes();
    let adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let alive: Vec<bool> = vec![true; n];
    sparse_solve(adj, alive)
}

fn sparse_remove(adj: &mut [std::collections::BTreeSet<usize>], alive: &mut [bool], v: usize) {
    alive[v] = false;
    let nbrs: Vec<usize> = adj[v].iter().copied().collect();
    for u in nbrs {
        adj[u].remove(&v);
    }
    adj[v].clear();
}

fn sparse_solve(mut adj: Vec<std::collections::BTreeSet<usize>>, mut alive: Vec<bool>) -> usize {
    let n = adj.len();
    let mut taken = 0usize;
    // Degree-0/1 reduction: taking such a vertex is always safe.
    loop {
        let mut v0 = None;
        for v in 0..n {
            if alive[v] && adj[v].len() <= 1 {
                v0 = Some(v);
                break;
            }
        }
        match v0 {
            Some(v) => {
                taken += 1;
                let nbrs: Vec<usize> = adj[v].iter().copied().collect();
                sparse_remove(&mut adj, &mut alive, v);
                for u in nbrs {
                    if alive[u] {
                        sparse_remove(&mut adj, &mut alive, u);
                    }
                }
            }
            None => break,
        }
    }
    let live: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
    if live.is_empty() {
        return taken;
    }
    // Component decomposition.
    let mut comp = vec![usize::MAX; n];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for &s in &live {
        if comp[s] != usize::MAX {
            continue;
        }
        let id = comps.len();
        let mut stack = vec![s];
        comp[s] = id;
        let mut members = vec![s];
        while let Some(u) = stack.pop() {
            for &w in &adj[u] {
                if comp[w] == usize::MAX {
                    comp[w] = id;
                    members.push(w);
                    stack.push(w);
                }
            }
        }
        comps.push(members);
    }
    if comps.len() > 1 {
        for members in comps {
            let mut sub_alive = vec![false; n];
            for &v in &members {
                sub_alive[v] = true;
            }
            let sub_adj: Vec<std::collections::BTreeSet<usize>> = (0..n)
                .map(|v| {
                    if sub_alive[v] {
                        adj[v].clone()
                    } else {
                        Default::default()
                    }
                })
                .collect();
            taken += sparse_solve(sub_adj, sub_alive);
        }
        return taken;
    }
    // Single component. Closed form for paths/cycles (all degrees = 2
    // here: degree <= 1 was reduced away, so max degree <= 2 means a
    // cycle).
    let members = &comps[0];
    if members.iter().all(|&v| adj[v].len() <= 2) {
        return taken + members.len() / 2;
    }
    // Branch on a maximum-degree vertex.
    let &v = members
        .iter()
        .max_by_key(|&&v| adj[v].len())
        .expect("component nonempty");
    // Take v.
    let mut adj1 = adj.clone();
    let mut alive1 = alive.clone();
    let nbrs: Vec<usize> = adj1[v].iter().copied().collect();
    sparse_remove(&mut adj1, &mut alive1, v);
    for u in nbrs {
        if alive1[u] {
            sparse_remove(&mut adj1, &mut alive1, u);
        }
    }
    let with_v = 1 + sparse_solve(adj1, alive1);
    // Exclude v.
    sparse_remove(&mut adj, &mut alive, v);
    let without_v = sparse_solve(adj, alive);
    taken + with_v.max(without_v)
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_solver_matches_clique_solver_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..15 {
            let g = generators::random_bounded_degree(20, 4, 200, &mut rng);
            assert_eq!(independence_number_sparse(&g), independence_number(&g));
        }
    }

    #[test]
    fn sparse_solver_on_structured_graphs() {
        assert_eq!(independence_number_sparse(&generators::cycle(9)), 4);
        assert_eq!(independence_number_sparse(&generators::path(10)), 5);
        assert_eq!(independence_number_sparse(&generators::star(12)), 11);
        assert_eq!(independence_number_sparse(&generators::complete(7)), 1);
    }

    #[test]
    fn sparse_solver_scales_to_larger_bounded_degree_graphs() {
        let mut rng = StdRng::seed_from_u64(72);
        let g = generators::random_bounded_degree(120, 4, 1200, &mut rng);
        let alpha = independence_number_sparse(&g);
        assert!(alpha >= 120 / 5, "alpha {alpha}");
        assert!(alpha <= 120);
    }
}
