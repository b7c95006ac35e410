//! Hamiltonian path and cycle deciders (directed and undirected).
//!
//! Decides the predicates of the paper's Section 2.2 families with one
//! engine at every size: a pruned backtracking search, built for the
//! construction sizes (≈ 40–130 vertices). The pruning mirrors the
//! paper's own forcing arguments (Claims 2.3–2.5): a partial path dies as
//! soon as some unvisited vertex becomes unreachable, more than one
//! unvisited vertex has lost all remaining in-neighbors, or more than one
//! has lost all out-neighbors. On the gadget graphs the search space is
//! thin by design, so the backtracker terminates quickly on both YES and
//! NO instances. Every decision is the search for a witness: `has_*` is
//! `find_*(g).is_some()`.
//!
//! The backtracker is monomorphized over the vertex-set word count
//! (`Words<W>`): the K ≤ 5 gadget graphs fit one or two 64-bit words,
//! so the inner-loop set operations do a quarter of the work the fixed
//! 256-bit representation used to. Two further search refinements matter
//! on the gadget graphs: when the in-degree prune finds exactly one
//! vertex whose only remaining in-neighbor is the path head, the search
//! takes that **forced move** directly instead of branching over every
//! successor (counted in [`SearchStats::forced_moves`]), and successor
//! ordering (Warnsdorff's fewest-onward-options rule) runs on a small
//! stack buffer instead of allocating and sorting a `Vec` per DFS node.
//!
//! A word-packed Held–Karp dynamic program (`n ≤ HELD_KARP_MAX_N`) is
//! kept only as an independent reference for tests and the ablation
//! bench; no decision runs it.

use congest_graph::{DiGraph, Graph, NodeId};

use crate::bitset::{directed_masks, Words};
use crate::stats::{timed, SearchStats};

/// Largest instance the Held–Karp reference DP
/// ([`held_karp_directed_ham_path`], [`held_karp_directed_ham_cycle`])
/// accepts.
pub const HELD_KARP_MAX_N: usize = 20;

/// Verifies that `path` is a directed Hamiltonian path of `g`.
pub fn is_directed_ham_path(g: &DiGraph, path: &[NodeId]) -> bool {
    let n = g.num_nodes();
    if path.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in path {
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    path.windows(2).all(|w| g.has_edge(w[0], w[1]))
}

/// Verifies that `cycle` (listed without repeating the first vertex) is a
/// directed Hamiltonian cycle of `g`.
pub fn is_directed_ham_cycle(g: &DiGraph, cycle: &[NodeId]) -> bool {
    !cycle.is_empty()
        && is_directed_ham_path(g, cycle)
        && g.has_edge(cycle[cycle.len() - 1], cycle[0])
}

/// What the feasibility scan concluded about the partial path head.
enum Branch<const W: usize> {
    /// Some necessary condition failed; the subtree is dead.
    Dead,
    /// Exactly one unvisited vertex has the head as its only remaining
    /// in-neighbor: every completion continues there, so branch on it
    /// alone.
    Forced(usize),
    /// No forcing: branch over the unvisited successors of the head.
    Open(Words<W>),
}

struct Search<const W: usize> {
    out: Vec<Words<W>>,
    inm: Vec<Words<W>>,
    full: Words<W>,
    /// For cycle search: the start vertex we must return to.
    cycle_home: Option<usize>,
    /// Remaining in-degree of every vertex: `|inm[v] ∩ L|` where
    /// `L = unvisited ∪ {head}` — exactly the predecessors a completion
    /// could still route through `v`. `L` loses one vertex (the old
    /// head) per committed move, so these stay current with
    /// O(out-degree) decrements instead of an O(n) rescan per node.
    rin: Vec<u32>,
    /// Remaining out-degree: `|out[v] ∩ unvisited|`.
    rout: Vec<u32>,
    /// Vertices with `rin == 1` (mask with `unvisited ∩ out[head]` to
    /// find forced successors).
    crit_in: Words<W>,
    /// Vertices with `rin == 0` (any such unvisited vertex kills the
    /// branch).
    zero_in: Words<W>,
    /// Vertices with `rout == 0` (unvisited: must be the path terminal).
    zero_out: Words<W>,
    stats: SearchStats,
}

impl<const W: usize> Search<W> {
    fn new(g: &DiGraph, cycle_home: Option<usize>) -> Search<W> {
        let n = g.num_nodes();
        let (out, inm) = directed_masks::<W>(g);
        Search {
            out,
            inm,
            full: Words::<W>::full(n),
            cycle_home,
            rin: vec![0; n],
            rout: vec![0; n],
            crit_in: Words::EMPTY,
            zero_in: Words::EMPTY,
            zero_out: Words::EMPTY,
            stats: SearchStats::default(),
        }
    }

    /// Resets the incremental degree state for a search rooted at
    /// `start` (visited = {start}, head = start, so `L` is every vertex).
    fn reset_root(&mut self, start: usize) {
        let n = self.rin.len();
        self.crit_in = Words::EMPTY;
        self.zero_in = Words::EMPTY;
        self.zero_out = Words::EMPTY;
        for v in 0..n {
            self.rin[v] = self.inm[v].count();
            self.rout[v] = self.out[v].count() - u32::from(self.out[v].get(start));
            match self.rin[v] {
                0 => self.zero_in.set(v),
                1 => self.crit_in.set(v),
                _ => {}
            }
            if self.rout[v] == 0 {
                self.zero_out.set(v);
            }
        }
    }

    /// Commits the move `c -> v`: `v` leaves the unvisited set and the
    /// old head `c` leaves `L`.
    fn apply_move(&mut self, c: usize, v: usize) {
        let oc = self.out[c];
        for wi in 0..W {
            let mut w = oc.0[wi];
            while w != 0 {
                let u = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                self.rin[u] -= 1;
                match self.rin[u] {
                    0 => {
                        self.crit_in.clear(u);
                        self.zero_in.set(u);
                    }
                    1 => self.crit_in.set(u),
                    _ => {}
                }
            }
        }
        let iv = self.inm[v];
        for wi in 0..W {
            let mut w = iv.0[wi];
            while w != 0 {
                let u = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                self.rout[u] -= 1;
                if self.rout[u] == 0 {
                    self.zero_out.set(u);
                }
            }
        }
    }

    /// Exact inverse of [`Search::apply_move`].
    fn undo_move(&mut self, c: usize, v: usize) {
        let oc = self.out[c];
        for wi in 0..W {
            let mut w = oc.0[wi];
            while w != 0 {
                let u = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                self.rin[u] += 1;
                match self.rin[u] {
                    1 => {
                        self.zero_in.clear(u);
                        self.crit_in.set(u);
                    }
                    2 => self.crit_in.clear(u),
                    _ => {}
                }
            }
        }
        let iv = self.inm[v];
        for wi in 0..W {
            let mut w = iv.0[wi];
            while w != 0 {
                let u = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                if self.rout[u] == 0 {
                    self.zero_out.clear(u);
                }
                self.rout[u] += 1;
            }
        }
    }

    /// Pruning scan for the partial path ending at `c` with `visited`.
    /// Never called with everything visited. The degree-based tests are
    /// O(W) bitmask probes against the incrementally maintained state;
    /// only open branch points pay for the reachability BFS.
    fn classify(&self, c: usize, visited: &Words<W>) -> Branch<W> {
        let unvisited = self.full.and_not(visited);
        // The head must have somewhere to go at all.
        let candidates = self.out[c].and(&unvisited);
        if candidates.is_empty() {
            return Branch::Dead;
        }
        // An unvisited vertex no completion can enter kills the branch.
        if self.zero_in.intersects(&unvisited) {
            return Branch::Dead;
        }
        // Out-degree pruning: an unvisited vertex with no unvisited
        // out-neighbor must be the terminal vertex (for cycles: must have
        // the home vertex as successor); two such are impossible.
        let terminals = self.zero_out.and(&unvisited);
        if !terminals.is_empty() {
            if terminals.count() > 1 {
                return Branch::Dead;
            }
            if let Some(h) = self.cycle_home {
                let t = terminals.first().expect("nonempty");
                if !self.out[t].get(h) {
                    return Branch::Dead;
                }
            }
        }
        // In-degree forcing: an unvisited vertex whose remaining
        // in-neighbors are only `c` must be the immediate successor;
        // two such vertices are impossible.
        let forced = self.crit_in.and(&candidates);
        if !forced.is_empty() {
            let v = forced.first().expect("nonempty");
            // rin == 1 means one in-neighbor left in L; it is `c` exactly
            // when v is a successor of c, which candidates guarantees.
            if forced.count() > 1 {
                return Branch::Dead;
            }
            return Branch::Forced(v);
        }
        // A single candidate is forced too (no in-degree argument
        // needed): take it without paying for the reachability BFS — if
        // the move is doomed the degree tests kill the chain within at
        // most n cheap steps.
        if candidates.count() == 1 {
            return Branch::Forced(candidates.first().expect("nonempty"));
        }
        // Reachability: every unvisited vertex must be reachable from c
        // through unvisited vertices.
        let mut reach = candidates;
        let mut frontier = reach;
        while !frontier.is_empty() {
            let mut next = Words::EMPTY;
            for v in frontier.iter() {
                next = next.or(&self.out[v]);
            }
            next = next.and(&unvisited).and_not(&reach);
            reach = reach.or(&next);
            frontier = next;
        }
        if !unvisited.subset_of(&reach) {
            return Branch::Dead;
        }
        Branch::Open(candidates)
    }

    fn dfs(&mut self, c: usize, visited: Words<W>, path: &mut Vec<NodeId>) -> bool {
        self.stats.nodes += 1;
        if visited == self.full {
            let done = match self.cycle_home {
                Some(h) => self.out[c].get(h),
                None => true,
            };
            if done {
                self.stats.incumbents += 1;
            }
            return done;
        }
        match self.classify(c, &visited) {
            Branch::Dead => {
                self.stats.prunes += 1;
                false
            }
            Branch::Forced(v) => {
                self.stats.forced_moves += 1;
                self.descend(c, v, visited, path)
            }
            Branch::Open(succs) => {
                // Branch on successors, fewest-onward-options first
                // (Warnsdorff), ordered on a small stack buffer: gadget
                // out-degrees are tiny, so a stable insertion sort beats
                // allocating and sorting a Vec per node. The
                // onward-option count of a candidate is exactly its
                // maintained remaining out-degree; ties break toward the
                // smaller vertex id, keeping the search deterministic.
                const BUF: usize = 12;
                let mut buf = [(0u32, 0u16); BUF];
                let mut len = 0usize;
                let mut spill: Vec<(u32, u16)> = Vec::new();
                for v in succs.iter() {
                    let item = (self.rout[v], v as u16);
                    if len < BUF {
                        let mut i = len;
                        while i > 0 && buf[i - 1] > item {
                            buf[i] = buf[i - 1];
                            i -= 1;
                        }
                        buf[i] = item;
                        len += 1;
                    } else {
                        spill.push(item);
                    }
                }
                if !spill.is_empty() {
                    // High-degree fallback: merge everything and sort.
                    spill.extend_from_slice(&buf[..len]);
                    spill.sort_unstable();
                    for i in 0..spill.len() {
                        let v = spill[i].1 as usize;
                        if self.descend(c, v, visited, path) {
                            return true;
                        }
                        self.stats.backtracks += 1;
                    }
                    return false;
                }
                for i in 0..len {
                    let v = buf[i].1 as usize;
                    if self.descend(c, v, visited, path) {
                        return true;
                    }
                    self.stats.backtracks += 1;
                }
                false
            }
        }
    }

    /// Takes the move `c -> v`, recurses, and undoes the move on failure.
    fn descend(&mut self, c: usize, v: usize, visited: Words<W>, path: &mut Vec<NodeId>) -> bool {
        path.push(v);
        let mut next = visited;
        next.set(v);
        self.apply_move(c, v);
        if self.dfs(v, next, path) {
            return true;
        }
        self.undo_move(c, v);
        path.pop();
        false
    }
}

fn run_path_search<const W: usize>(g: &DiGraph) -> (Option<Vec<NodeId>>, SearchStats) {
    let n = g.num_nodes();
    timed(|| {
        let mut s = Search::<W>::new(g, None);
        // Vertices with in-degree 0 must start the path; more than one
        // means no Hamiltonian path exists.
        let sources: Vec<usize> = (0..n).filter(|&v| s.inm[v].is_empty()).collect();
        if sources.len() > 1 {
            // The root itself is dead: count it as `dfs` counts a pruned
            // node.
            let root = SearchStats {
                nodes: 1,
                prunes: 1,
                ..SearchStats::default()
            };
            return (None, root);
        }
        let starts: Vec<usize> = if sources.len() == 1 {
            sources
        } else {
            (0..n).collect()
        };
        for start in starts {
            s.reset_root(start);
            let mut path = vec![start];
            if s.dfs(start, Words::bit(start), &mut path) {
                return (Some(path), s.stats);
            }
        }
        (None, s.stats)
    })
}

fn run_cycle_search<const W: usize>(g: &DiGraph) -> (Option<Vec<NodeId>>, SearchStats) {
    timed(|| {
        let mut s = Search::<W>::new(g, Some(0));
        s.reset_root(0);
        let mut path = vec![0];
        let found = s.dfs(0, Words::bit(0), &mut path);
        (if found { Some(path) } else { None }, s.stats)
    })
}

fn word_count(g: &DiGraph) -> usize {
    let n = g.num_nodes();
    assert!(n <= 256, "Hamiltonian solvers support at most 256 vertices");
    n.div_ceil(64).max(1)
}

/// Finds a directed Hamiltonian path starting anywhere, if one exists.
pub fn find_directed_ham_path(g: &DiGraph) -> Option<Vec<NodeId>> {
    find_directed_ham_path_with_stats(g).0
}

/// [`find_directed_ham_path`] plus the backtracking-effort counters
/// (DFS calls, feasibility prunes, forced moves, backtracks).
pub fn find_directed_ham_path_with_stats(g: &DiGraph) -> (Option<Vec<NodeId>>, SearchStats) {
    if g.num_nodes() == 0 {
        return (Some(Vec::new()), SearchStats::default());
    }
    match word_count(g) {
        1 => run_path_search::<1>(g),
        2 => run_path_search::<2>(g),
        3 => run_path_search::<3>(g),
        _ => run_path_search::<4>(g),
    }
}

/// Whether `g` has a directed Hamiltonian path.
pub fn has_directed_ham_path(g: &DiGraph) -> bool {
    find_directed_ham_path(g).is_some()
}

/// Finds a directed Hamiltonian cycle (returned without repeating the
/// start), if one exists.
pub fn find_directed_ham_cycle(g: &DiGraph) -> Option<Vec<NodeId>> {
    find_directed_ham_cycle_with_stats(g).0
}

/// [`find_directed_ham_cycle`] plus the backtracking-effort counters.
pub fn find_directed_ham_cycle_with_stats(g: &DiGraph) -> (Option<Vec<NodeId>>, SearchStats) {
    if g.num_nodes() == 0 {
        return (None, SearchStats::default());
    }
    match word_count(g) {
        1 => run_cycle_search::<1>(g),
        2 => run_cycle_search::<2>(g),
        3 => run_cycle_search::<3>(g),
        _ => run_cycle_search::<4>(g),
    }
}

/// Whether `g` has a directed Hamiltonian cycle.
pub fn has_directed_ham_cycle(g: &DiGraph) -> bool {
    find_directed_ham_cycle(g).is_some()
}

fn to_digraph(g: &Graph) -> DiGraph {
    let mut d = DiGraph::new(g.num_nodes());
    for (u, v, w) in g.edges() {
        d.add_weighted_edge(u, v, w);
        d.add_weighted_edge(v, u, w);
    }
    d
}

/// Whether the undirected graph has a Hamiltonian path.
pub fn has_ham_path(g: &Graph) -> bool {
    has_directed_ham_path(&to_digraph(g))
}

/// Whether the undirected graph has a Hamiltonian cycle.
pub fn has_ham_cycle(g: &Graph) -> bool {
    if g.num_nodes() >= 3 && (0..g.num_nodes()).any(|v| g.degree(v) < 2) {
        return false;
    }
    has_directed_ham_cycle(&to_digraph(g))
}

/// Held–Karp reference: whether a directed Hamiltonian path exists.
///
/// # Panics
///
/// Panics if `n > HELD_KARP_MAX_N`.
pub fn held_karp_directed_ham_path(g: &DiGraph) -> bool {
    let n = g.num_nodes();
    n == 0 || held_karp_full_ends(g, None) != 0
}

/// Held–Karp reference: whether a directed Hamiltonian cycle exists. The
/// cycle is a Hamiltonian path from vertex 0 closed by an edge into 0.
///
/// # Panics
///
/// Panics if `n > HELD_KARP_MAX_N`.
pub fn held_karp_directed_ham_cycle(g: &DiGraph) -> bool {
    if g.num_nodes() == 0 {
        return false;
    }
    let ends = held_karp_full_ends(g, Some(0));
    Words([u64::from(ends)]).iter().any(|u| g.has_edge(u, 0))
}

/// The Held–Karp DP over paths through all `n ≥ 1` vertices that start
/// at `start`, or anywhere when `None`: the set of vertices at which such
/// a path can end.
fn held_karp_full_ends(g: &DiGraph, start: Option<NodeId>) -> u32 {
    let n = g.num_nodes();
    assert!(
        n <= HELD_KARP_MAX_N,
        "Held-Karp limited to {HELD_KARP_MAX_N} vertices"
    );
    let (out, _) = directed_masks::<1>(g);
    let out: Vec<u32> = out.iter().map(|m| m.0[0] as u32).collect();
    // ends[mask] = set of vertices at which a path visiting exactly
    // `mask` can end.
    let mut ends = vec![0u32; 1 << n];
    for v in 0..n {
        if start.is_none_or(|s| s == v) {
            ends[1 << v] = 1 << v;
        }
    }
    for mask in 1u32..(1 << n) {
        let e = ends[mask as usize];
        for u in Words([u64::from(e)]).iter() {
            let nexts = out[u] & !mask;
            for v in Words([u64::from(nexts)]).iter() {
                ends[(mask | (1 << v)) as usize] |= 1 << v;
            }
        }
    }
    ends[(1usize << n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cycles_and_paths_of_standard_graphs() {
        assert!(has_ham_cycle(&generators::cycle(8)));
        assert!(has_ham_path(&generators::path(8)));
        assert!(!has_ham_cycle(&generators::path(8)));
        assert!(!has_ham_path(&generators::star(5)));
        assert!(has_ham_cycle(&generators::complete(6)));
        assert!(has_ham_path(&generators::complete_bipartite(3, 4)));
        assert!(!has_ham_path(&generators::complete_bipartite(3, 5)));
        assert!(has_ham_cycle(&generators::complete_bipartite(4, 4)));
        assert!(!has_ham_cycle(&generators::complete_bipartite(3, 4)));
    }

    #[test]
    fn directed_cycle_needs_orientation() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(has_directed_ham_path(&g));
        assert!(!has_directed_ham_cycle(&g));
        g.add_edge(2, 0);
        let c = find_directed_ham_cycle(&g).expect("triangle cycle");
        assert!(is_directed_ham_cycle(&g, &c));
    }

    #[test]
    fn two_sources_means_no_path() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        assert!(!has_directed_ham_path(&g));
        assert!(find_directed_ham_path(&g).is_none());
    }

    #[test]
    fn backtracker_matches_held_karp_on_random_digraphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [6usize, 8, 10] {
            for _ in 0..30 {
                let mut g = DiGraph::new(n);
                for u in 0..n {
                    for v in 0..n {
                        if u != v && rng.gen_bool(0.25) {
                            g.add_edge(u, v);
                        }
                    }
                }
                let (path, _) = find_directed_ham_path_with_stats(&g);
                assert_eq!(
                    path.is_some(),
                    held_karp_directed_ham_path(&g),
                    "path disagreement on n={n}"
                );
                if let Some(p) = path {
                    assert!(is_directed_ham_path(&g, &p));
                }
                let (cycle, _) = find_directed_ham_cycle_with_stats(&g);
                assert_eq!(
                    cycle.is_some(),
                    held_karp_directed_ham_cycle(&g),
                    "cycle disagreement on n={n}"
                );
                if let Some(c) = cycle {
                    assert!(is_directed_ham_cycle(&g, &c));
                }
            }
        }
    }

    #[test]
    fn word_widths_agree_above_the_dp_threshold() {
        // n = 66 spans two words; the same graph padded with a tail keeps
        // the answer while exercising the 2-word engine against the
        // 1-word engine on its n = 60 core.
        let mut rng = StdRng::seed_from_u64(79);
        for _ in 0..5 {
            let mut g = DiGraph::new(60);
            for v in 0..59 {
                g.add_edge(v, v + 1);
            }
            for _ in 0..40 {
                let u = rng.gen_range(0..60);
                let v = rng.gen_range(0..60);
                if u != v {
                    g.add_edge(u, v);
                }
            }
            let (p60, _) = find_directed_ham_path_with_stats(&g);
            // Extend by a forced tail 59 -> 60 -> ... -> 65.
            let mut big = DiGraph::new(66);
            for (u, v, w) in g.edges() {
                big.add_weighted_edge(u, v, w);
            }
            for v in 59..65 {
                big.add_edge(v, v + 1);
            }
            let (p66, _) = find_directed_ham_path_with_stats(&big);
            assert_eq!(p60.is_some(), p66.is_some());
            if let Some(p) = p66 {
                assert!(is_directed_ham_path(&big, &p));
            }
        }
    }

    #[test]
    fn found_cycles_are_valid() {
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..20 {
            let mut g = DiGraph::new(8);
            for u in 0..8 {
                for v in 0..8 {
                    if u != v && rng.gen_bool(0.4) {
                        g.add_edge(u, v);
                    }
                }
            }
            if let Some(c) = find_directed_ham_cycle(&g) {
                assert!(is_directed_ham_cycle(&g, &c));
            }
        }
    }

    #[test]
    fn stats_variant_counts_dfs_work() {
        // C8 as a digraph: the cycle search walks straight around.
        let g = to_digraph(&generators::cycle(8));
        let (cycle, stats) = find_directed_ham_cycle_with_stats(&g);
        assert!(cycle.is_some());
        assert!(stats.nodes >= 8, "at least one DFS call per vertex");
        assert!(stats.incumbents == 1);
        // A star has no Hamiltonian path: the search must prune or
        // backtrack, not just fail silently.
        let star = to_digraph(&generators::star(5));
        let (path, pstats) = find_directed_ham_path_with_stats(&star);
        assert!(path.is_none());
        assert!(pstats.nodes >= 1);
        assert!(pstats.prunes + pstats.backtracks >= 1);
    }

    #[test]
    fn forced_moves_collapse_a_directed_path() {
        // 0 -> 1 -> ... -> 9 plus a decoy back-edge: after the unique
        // source starts the path, every step is forced, so the search
        // does exactly one DFS call per vertex and never backtracks.
        let mut g = DiGraph::new(10);
        for v in 0..9 {
            g.add_edge(v, v + 1);
        }
        g.add_edge(9, 4);
        let (path, stats) = find_directed_ham_path_with_stats(&g);
        assert!(path.is_some());
        assert_eq!(stats.nodes, 10);
        assert_eq!(stats.backtracks, 0);
        assert!(stats.forced_moves >= 8, "chain steps are forced");
    }

    #[test]
    fn validator_rejects_junk() {
        let g = to_digraph(&generators::cycle(4));
        assert!(!is_directed_ham_path(&g, &[0, 1, 2]));
        assert!(!is_directed_ham_path(&g, &[0, 1, 1, 2]));
        assert!(!is_directed_ham_path(&g, &[0, 2, 1, 3]));
        assert!(is_directed_ham_path(&g, &[0, 1, 2, 3]));
    }
}
