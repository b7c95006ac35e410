//! The remaining Lemma 5.1 verification problems as proof labeling
//! schemes, completing the Section 5.2.3 catalogue:
//!
//! | Scheme | Lemma 5.1 item |
//! |--------|----------------|
//! | [`ConnectedSpanningSubgraphScheme`] | #1 (`H` connected, all degrees > 0) |
//! | [`ECycleScheme`] | #3 (`H` has a cycle through `e`) |
//! | [`CutScheme`] | #7 (`H` is a cut of `G`) |
//! | [`NonCutScheme`] | #7, negation (`G∖H` connected) |
//! | [`EdgeOnAllPathsScheme`] | #8 (`e` separates `s` from `t` in `H`) |
//! | [`StCutScheme`] | #9 (`H` is an `s`–`t` cut of `G`) |
//! | [`SimplePathScheme`] | #12 (`H` is a simple path) |
//!
//! All labels are `O(log n)` bits, as the paper requires for the
//! Corollary 5.3 ceilings.

use congest_graph::{Graph, NodeId};

use crate::pls::{g_tree_labels, verify_g_tree_at, Label, MarkedGraph, ProofLabelingScheme};

/// The complement graph view `G ∖ H` (non-marked edges only).
fn g_minus_h(inst: &MarkedGraph) -> Graph {
    let mut g = Graph::new(inst.graph.num_nodes());
    for (u, v, w) in inst.graph.edges() {
        if !inst.in_h(u, v) {
            g.add_weighted_edge(u, v, w);
        }
    }
    g
}

/// Lemma 5.1 #1: `H` is a connected spanning subgraph — `H` connected and
/// every vertex has non-zero `H`-degree. Labels reuse the connectivity
/// scheme; the degree condition is checked locally for free.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedSpanningSubgraphScheme;

impl ProofLabelingScheme for ConnectedSpanningSubgraphScheme {
    fn name(&self) -> String {
        "connected-spanning-subgraph".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        let h = inst.h_graph();
        h.is_connected() && (0..h.num_nodes()).all(|v| h.degree(v) > 0)
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        if !self.predicate(inst) {
            return None;
        }
        let tree = g_tree_labels(&inst.h_graph(), 0)?;
        Some(
            tree.into_iter()
                .map(|(r, d, _)| Label(vec![r, d]))
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        if inst.h_neighbors(v).is_empty() && inst.graph.num_nodes() > 1 {
            return false; // zero H-degree
        }
        if labels[v].0.len() != 2 {
            return false;
        }
        let (root, d) = (labels[v].0[0], labels[v].0[1]);
        if inst
            .graph
            .neighbors(v)
            .iter()
            .any(|&u| labels[u].0.first() != Some(&root))
        {
            return false;
        }
        if v as i64 == root {
            return d == 0;
        }
        d > 0
            && inst
                .h_neighbors(v)
                .iter()
                .any(|&u| labels[u].0.get(1) == Some(&(d - 1)))
    }
}

/// Lemma 5.1 #3: `H` contains a cycle *through the marked edge `e`*.
/// Labels: cycle positions `0..L` with the marked edge joining positions
/// `0` and `L-1`, plus distance-to-cycle for the rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct ECycleScheme;

impl ECycleScheme {
    /// Finds a cycle through `e = (a, b)` in `H`: a path from `b` to `a`
    /// in `H ∖ {e}` plus the edge itself.
    fn cycle_through(inst: &MarkedGraph) -> Option<Vec<NodeId>> {
        let (a, b) = inst.e?;
        if !inst.in_h(a, b) {
            return None;
        }
        let mut h = inst.h_graph();
        h.remove_edge(a, b);
        // BFS path b -> a in H \ {e}.
        let dist = h.bfs_distances(b);
        dist[a]?;
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let d = dist[cur].expect("on path");
            cur = *h
                .neighbors(cur)
                .iter()
                .find(|&&u| dist[u] == Some(d - 1))
                .expect("BFS predecessor");
            path.push(cur);
        }
        // path = a … b; the cycle order is a(pos 0), …, b(pos L-1), with
        // the closing edge (b, a) = e.
        Some(path)
    }
}

impl ProofLabelingScheme for ECycleScheme {
    fn name(&self) -> String {
        "e-cycle-containment".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        Self::cycle_through(inst).is_some()
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        let cycle = Self::cycle_through(inst)?;
        let n = inst.graph.num_nodes();
        let len = cycle.len() as i64;
        // Distances to the cycle in G.
        let mut dist = vec![i64::MAX / 2; n];
        let mut q = std::collections::VecDeque::new();
        for &c in &cycle {
            dist[c] = 0;
            q.push_back(c);
        }
        while let Some(u) = q.pop_front() {
            for &w in inst.graph.neighbors(u) {
                if dist[w] > dist[u] + 1 {
                    dist[w] = dist[u] + 1;
                    q.push_back(w);
                }
            }
        }
        let mut labels: Vec<Label> = (0..n).map(|v| Label(vec![-1, len, dist[v]])).collect();
        for (pos, &v) in cycle.iter().enumerate() {
            labels[v] = Label(vec![pos as i64, len, 0]);
        }
        Some(labels)
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        let (a, b) = match inst.e {
            Some(e) => e,
            None => return false,
        };
        if labels[v].0.len() != 3 {
            return false;
        }
        let (pos, len, d) = (labels[v].0[0], labels[v].0[1], labels[v].0[2]);
        // Length agreement across G.
        if inst
            .graph
            .neighbors(v)
            .iter()
            .any(|&u| labels[u].0.get(1) != Some(&len))
        {
            return false;
        }
        if len < 3 {
            return false;
        }
        if pos >= 0 {
            if pos >= len || d != 0 {
                return false;
            }
            // The marked edge carries positions 0 (at one endpoint of e)
            // and len-1 (at the other).
            if pos == 0 && v != a && v != b {
                return false;
            }
            if pos == 0 {
                let other = if v == a { b } else { a };
                if labels[other].0.first() != Some(&(len - 1)) || !inst.in_h(v, other) {
                    return false;
                }
            }
            // H-neighbors at positions pos±1 (cyclically via e).
            let Some(back) = pos.checked_add(len - 1) else {
                return false;
            };
            let want: Vec<i64> = vec![(pos + 1) % len, back % len];
            for w in want {
                let ok = inst
                    .h_neighbors(v)
                    .iter()
                    .any(|&u| labels[u].0.first() == Some(&w));
                if !ok {
                    return false;
                }
            }
            true
        } else {
            // Off-cycle: positive distance decreasing toward the cycle.
            if d <= 0 {
                return false;
            }
            inst.graph.neighbors(v).iter().any(|&u| {
                let lu = &labels[u].0;
                lu.get(2) == Some(&(d - 1))
            })
        }
    }
}

/// Lemma 5.1 #7: `H` is a cut of `G` (`G ∖ H` is disconnected).
/// Component marking over non-`H` edges plus two `G`-trees proving both
/// marks exist.
#[derive(Debug, Clone, Copy, Default)]
pub struct CutScheme;

impl ProofLabelingScheme for CutScheme {
    fn name(&self) -> String {
        "cut".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        !g_minus_h(inst).is_connected()
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        let gm = g_minus_h(inst);
        let (comp, count) = gm.connected_components();
        if count < 2 {
            return None;
        }
        let bit: Vec<i64> = comp.iter().map(|&c| i64::from(c != comp[0])).collect();
        let r0 = comp.iter().position(|&c| c == comp[0])?;
        let r1 = comp.iter().position(|&c| c != comp[0])?;
        let t0 = g_tree_labels(&inst.graph, r0)?;
        let t1 = g_tree_labels(&inst.graph, r1)?;
        Some(
            (0..inst.graph.num_nodes())
                .map(|v| {
                    Label(vec![
                        bit[v], t0[v].0, t0[v].1, t0[v].2, t1[v].0, t1[v].1, t1[v].2,
                    ])
                })
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        if labels[v].0.len() != 7 {
            return false;
        }
        let bit = labels[v].0[0];
        if bit != 0 && bit != 1 {
            return false;
        }
        // Non-H edges must be monochromatic.
        for &u in inst.graph.neighbors(v) {
            if !inst.in_h(u, v) && labels[u].0.first() != Some(&bit) {
                return false;
            }
        }
        for (o, want) in [(1usize, 0i64), (4usize, 1i64)] {
            if !verify_g_tree_at(&inst.graph, v, labels, o) {
                return false;
            }
            if labels[v].0[o] == v as i64 && labels[v].0[0] != want {
                return false;
            }
        }
        true
    }
}

/// Lemma 5.1 #7, negation: `G ∖ H` is connected — a spanning tree of
/// `G ∖ H`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonCutScheme;

impl ProofLabelingScheme for NonCutScheme {
    fn name(&self) -> String {
        "non-cut".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        g_minus_h(inst).is_connected()
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        let tree = g_tree_labels(&g_minus_h(inst), 0)?;
        Some(
            tree.into_iter()
                .map(|(r, d, _)| Label(vec![r, d]))
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        if labels[v].0.len() != 2 {
            return false;
        }
        let (root, d) = (labels[v].0[0], labels[v].0[1]);
        if inst
            .graph
            .neighbors(v)
            .iter()
            .any(|&u| labels[u].0.first() != Some(&root))
        {
            return false;
        }
        if v as i64 == root {
            return d == 0;
        }
        d > 0
            && inst
                .graph
                .neighbors(v)
                .iter()
                .any(|&u| !inst.in_h(u, v) && labels[u].0.get(1) == Some(&(d - 1)))
    }
}

/// Lemma 5.1 #8: the marked edge `e` lies on every `s`–`t` path of `H`
/// (`s` and `t` are in different components of `H ∖ {e}`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeOnAllPathsScheme;

fn h_minus_e(inst: &MarkedGraph) -> Option<Graph> {
    let (a, b) = inst.e?;
    let mut h = inst.h_graph();
    h.remove_edge(a, b);
    Some(h)
}

impl ProofLabelingScheme for EdgeOnAllPathsScheme {
    fn name(&self) -> String {
        "edge-on-all-paths".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        let (s, t) = (inst.s.expect("s set"), inst.t.expect("t set"));
        match h_minus_e(inst) {
            Some(h) => h.bfs_distances(s)[t].is_none(),
            None => false,
        }
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        if !self.predicate(inst) {
            return None;
        }
        let s = inst.s.expect("s set");
        let h = h_minus_e(inst)?;
        let dist = h.bfs_distances(s);
        Some(
            dist.into_iter()
                .map(|d| Label(vec![i64::from(d.is_some())]))
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        let (s, t) = (inst.s.expect("s set"), inst.t.expect("t set"));
        let (a, b) = match inst.e {
            Some(e) => e,
            None => return false,
        };
        let mark = match labels[v].0.first() {
            Some(&m) if m == 0 || m == 1 => m,
            _ => return false,
        };
        if v == s && mark != 1 {
            return false;
        }
        if v == t && mark != 0 {
            return false;
        }
        // H-edges other than e stay monochromatic.
        for u in inst.h_neighbors(v) {
            let is_e = (v.min(u), v.max(u)) == (a.min(b), a.max(b));
            if !is_e && labels[u].0.first() != Some(&mark) {
                return false;
            }
        }
        true
    }
}

/// Lemma 5.1 #9: `H` is an `s`–`t` cut of `G` (`s`, `t` in different
/// components of `G ∖ H`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StCutScheme;

impl ProofLabelingScheme for StCutScheme {
    fn name(&self) -> String {
        "st-cut".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        let (s, t) = (inst.s.expect("s set"), inst.t.expect("t set"));
        g_minus_h(inst).bfs_distances(s)[t].is_none()
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        if !self.predicate(inst) {
            return None;
        }
        let s = inst.s.expect("s set");
        let dist = g_minus_h(inst).bfs_distances(s);
        Some(
            dist.into_iter()
                .map(|d| Label(vec![i64::from(d.is_some())]))
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        let (s, t) = (inst.s.expect("s set"), inst.t.expect("t set"));
        let mark = match labels[v].0.first() {
            Some(&m) if m == 0 || m == 1 => m,
            _ => return false,
        };
        if v == s && mark != 1 {
            return false;
        }
        if v == t && mark != 0 {
            return false;
        }
        for &u in inst.graph.neighbors(v) {
            if !inst.in_h(u, v) && labels[u].0.first() != Some(&mark) {
                return false;
            }
        }
        true
    }
}

/// Lemma 5.1 #12: `H` is a (nonempty) simple path. Positions `1..=L`
/// along the path; all vertices carry the id of the position-1 vertex
/// (agreed across `G`), so two disjoint paths cannot both enumerate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplePathScheme;

impl ProofLabelingScheme for SimplePathScheme {
    fn name(&self) -> String {
        "simple-path".into()
    }

    fn predicate(&self, inst: &MarkedGraph) -> bool {
        let h = inst.h_graph();
        if inst.h_edges.is_empty() {
            return false;
        }
        // Degrees ≤ 2, exactly two degree-1 vertices, connected among
        // non-isolated vertices, and edge count = vertices-on-path − 1.
        let on_path: Vec<NodeId> = (0..h.num_nodes()).filter(|&v| h.degree(v) > 0).collect();
        let deg1 = on_path.iter().filter(|&&v| h.degree(v) == 1).count();
        (0..h.num_nodes()).all(|v| h.degree(v) <= 2)
            && deg1 == 2
            && h.is_connected_subset(&on_path)
            && inst.h_edges.len() == on_path.len() - 1
    }

    fn prove(&self, inst: &MarkedGraph) -> Option<Vec<Label>> {
        if !self.predicate(inst) {
            return None;
        }
        let h = inst.h_graph();
        let start = (0..h.num_nodes()).find(|&v| h.degree(v) == 1)?;
        // Walk the path.
        let mut pos = vec![0i64; h.num_nodes()];
        let mut prev = usize::MAX;
        let mut cur = start;
        let mut idx = 1i64;
        loop {
            pos[cur] = idx;
            idx += 1;
            let next = h.neighbors(cur).iter().copied().find(|&u| u != prev);
            match next {
                Some(n) => {
                    prev = cur;
                    cur = n;
                }
                None => break,
            }
        }
        Some(
            (0..h.num_nodes())
                .map(|v| Label(vec![pos[v], start as i64]))
                .collect(),
        )
    }

    fn verify_at(&self, inst: &MarkedGraph, v: NodeId, labels: &[Label]) -> bool {
        if labels[v].0.len() != 2 {
            return false;
        }
        let (pos, anchor) = (labels[v].0[0], labels[v].0[1]);
        // Anchor agreement across G.
        if inst
            .graph
            .neighbors(v)
            .iter()
            .any(|&u| labels[u].0.get(1) != Some(&anchor))
        {
            return false;
        }
        // The anchor vertex itself must be the path start (position 1):
        // this pins a unique, existing start, so an empty `H` or a second
        // component numbered from ≥ 2 cannot slip through.
        if v as i64 == anchor && pos != 1 {
            return false;
        }
        let hn = inst.h_neighbors(v);
        if pos == 0 {
            return hn.is_empty();
        }
        if pos < 0 {
            return false;
        }
        if pos == 1 && v as i64 != anchor {
            return false;
        }
        // Every vertex past the start must chain back: an H-neighbor at
        // pos − 1 (this is what excludes disjoint extra paths numbered
        // from ≥ 2 — they have no chain to the anchored start).
        let neigh_pos: Vec<i64> = hn
            .iter()
            .filter_map(|&u| labels[u].0.first().copied())
            .collect();
        if pos > 1 && !neigh_pos.contains(&(pos - 1)) {
            return false;
        }
        match hn.len() {
            1 => {
                if pos == 1 {
                    neigh_pos == vec![2]
                } else {
                    neigh_pos == vec![pos - 1]
                }
            }
            2 => {
                let mut np = neigh_pos.clone();
                np.sort_unstable();
                pos.checked_add(1)
                    .is_some_and(|next| np == vec![pos - 1, next])
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pls::accepts_everywhere;
    use congest_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn edges_of(g: &Graph) -> Vec<(NodeId, NodeId)> {
        g.edges().map(|(u, v, _)| (u, v)).collect()
    }

    fn complete_and_sound<S: ProofLabelingScheme>(
        scheme: &S,
        good: &MarkedGraph,
        bad: &MarkedGraph,
        rng: &mut StdRng,
    ) {
        assert!(scheme.predicate(good), "{}: good instance", scheme.name());
        assert!(!scheme.predicate(bad), "{}: bad instance", scheme.name());
        let labels = scheme.prove(good).expect("prover succeeds");
        assert!(
            accepts_everywhere(scheme, good, &labels),
            "{}: completeness",
            scheme.name()
        );
        assert!(
            scheme.prove(bad).is_none(),
            "{}: prover fails",
            scheme.name()
        );
        assert!(
            !accepts_everywhere(scheme, bad, &labels),
            "{}: transplanted labels",
            scheme.name()
        );
        for _ in 0..40 {
            let mut m = labels.clone();
            for _ in 0..rng.gen_range(1..4) {
                let v = rng.gen_range(0..m.len());
                if m[v].0.is_empty() {
                    continue;
                }
                let f = rng.gen_range(0..m[v].0.len());
                m[v].0[f] += rng.gen_range(-3..=3);
            }
            assert!(
                !accepts_everywhere(scheme, bad, &m),
                "{}: perturbed labels accepted on bad instance",
                scheme.name()
            );
        }
    }

    #[test]
    fn connected_spanning_subgraph() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::cycle(9);
        let all = edges_of(&g);
        let good = MarkedGraph::new(g.clone(), &all);
        // Remove two edges: H splits, one vertex may keep degree > 0 but
        // connectivity fails.
        let bad_edges: Vec<_> = all[..7].to_vec();
        let bad = MarkedGraph::new(g, &bad_edges);
        complete_and_sound(&ConnectedSpanningSubgraphScheme, &good, &bad, &mut rng);
    }

    #[test]
    fn e_cycle() {
        let mut rng = StdRng::seed_from_u64(12);
        // G: a cycle 0..7 plus a pendant-ish chord (0, 4).
        let mut g = generators::cycle(8);
        g.add_edge(0, 4);
        // H = the cycle edges including (0, 1); e = (0, 1) on the cycle.
        let cyc = edges_of(&generators::cycle(8));
        let good = MarkedGraph::new(g.clone(), &cyc).with_edge(0, 1);
        // Bad: H is only a path (the cycle minus its last edge), so no
        // H-cycle passes through e = (0, 1).
        let path_edges: Vec<_> = cyc[..7].to_vec();
        let bad = MarkedGraph::new(g, &path_edges).with_edge(0, 1);
        complete_and_sound(&ECycleScheme, &good, &bad, &mut rng);
    }

    #[test]
    fn cut_and_non_cut() {
        let mut rng = StdRng::seed_from_u64(13);
        // G = two triangles joined by a bridge; H = {bridge} is a cut.
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)] {
            g.add_edge(u, v);
        }
        let cut_inst = MarkedGraph::new(g.clone(), &[(2, 3)]);
        let non_cut_inst = MarkedGraph::new(g, &[(0, 1)]);
        complete_and_sound(&CutScheme, &cut_inst, &non_cut_inst, &mut rng);
        complete_and_sound(&NonCutScheme, &non_cut_inst, &cut_inst, &mut rng);
    }

    #[test]
    fn edge_on_all_paths() {
        let mut rng = StdRng::seed_from_u64(14);
        // H = path 0-1-2-3-4 inside a richer G; e = (2,3) separates 0
        // from 4 in H.
        let mut g = generators::path(5);
        g.add_edge(0, 2);
        let h = edges_of(&generators::path(5));
        let good = MarkedGraph::new(g.clone(), &h)
            .with_st(0, 4)
            .with_edge(2, 3);
        // Bad: e = (0,1); removing it leaves 0 isolated... that still
        // separates. Use e = (0,1) with s = 1: then s-t path 1..4 avoids e.
        let bad = MarkedGraph::new(g, &h).with_st(1, 4).with_edge(0, 1);
        complete_and_sound(&EdgeOnAllPathsScheme, &good, &bad, &mut rng);
    }

    #[test]
    fn st_cut() {
        let mut rng = StdRng::seed_from_u64(15);
        let g = generators::path(6);
        // H = {(2,3)} disconnects 0 from 5 in G \ H.
        let good = MarkedGraph::new(g.clone(), &[(2, 3)]).with_st(0, 5);
        let bad = MarkedGraph::new(g, &[(0, 1)]).with_st(1, 5);
        complete_and_sound(&StCutScheme, &good, &bad, &mut rng);
    }

    #[test]
    fn simple_path_rejects_disjoint_second_path_and_empty_h() {
        use crate::pls::Label;
        let scheme = SimplePathScheme;
        // Two disjoint H-paths inside a connected G; the adversary
        // numbers the second one from 2 so it has no position-1 vertex.
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)] {
            g.add_edge(u, v);
        }
        let inst = MarkedGraph::new(g, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert!(!scheme.predicate(&inst));
        let adversarial = vec![
            Label(vec![1, 0]),
            Label(vec![2, 0]),
            Label(vec![3, 0]),
            Label(vec![2, 0]),
            Label(vec![3, 0]),
            Label(vec![4, 0]),
        ];
        assert!(!accepts_everywhere(&scheme, &inst, &adversarial));
        // Empty H with all-zero labels must also be rejected.
        let mut g2 = Graph::new(3);
        g2.add_edge(0, 1);
        g2.add_edge(1, 2);
        let empty = MarkedGraph::new(g2, &[]);
        assert!(!scheme.predicate(&empty));
        let zeros = vec![Label(vec![0, 0]); 3];
        assert!(!accepts_everywhere(&scheme, &empty, &zeros));
    }

    #[test]
    fn simple_path() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut g = generators::cycle(8);
        g.add_edge(0, 4);
        let cyc = edges_of(&generators::cycle(8));
        // H = the cycle minus one edge: a simple path.
        let path_edges: Vec<_> = cyc
            .iter()
            .copied()
            .filter(|&(u, v)| (u, v) != (0, 7))
            .collect();
        let good = MarkedGraph::new(g.clone(), &path_edges);
        // Bad: the full cycle (degree 2 everywhere, no endpoints).
        let bad = MarkedGraph::new(g, &cyc);
        complete_and_sound(&SimplePathScheme, &good, &bad, &mut rng);
    }
}
