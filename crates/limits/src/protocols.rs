//! The two-party limitation protocols of Section 5.1 (Claims 5.1–5.9).
//!
//! Each protocol lets Alice and Bob jointly produce an approximate
//! solution on a [`SplitGraph`] while exchanging only
//! `O(|E_cut| · log n)` bits (or, in the fallback branches, the number of
//! bits the respective claim budgets). By Corollary 5.1, the existence of
//! these protocols means the fixed-partition framework cannot prove
//! super-constant lower bounds for the corresponding approximation
//! problems — the tests verify both the approximation ratios (against
//! exact solvers) and the metered bit counts.

use congest_comm::{Channel, Direction};
use congest_graph::{Graph, NodeId, Weight};
use congest_solvers::maxcut;
use congest_solvers::mds::min_weight_dominating_set_of;
use congest_solvers::mis::{max_weight_independent_set, min_vertex_cover, min_weight_vertex_cover};

use crate::split::SplitGraph;

/// Outcome of a two-party protocol.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// The produced solution (vertex set or cut side, protocol-specific).
    pub vertices: Vec<NodeId>,
    /// Its objective value.
    pub value: Weight,
    /// Bits exchanged.
    pub bits: u64,
}

/// Patches the other player's cut-endpoint node weights into a view,
/// charging the channel (`O(|E_cut|·log n)` bits).
fn exchange_boundary_weights(s: &SplitGraph, view: &mut Graph, to_alice: bool, ch: &mut Channel) {
    for (u, v, _) in s.cut_edges() {
        let foreign = if to_alice {
            if s.is_alice(u) {
                v
            } else {
                u
            }
        } else if s.is_alice(u) {
            u
        } else {
            v
        };
        let w = s.graph().node_weight(foreign);
        view.set_node_weight(foreign, w);
        // Identify the vertex and carry its weight's magnitude.
        let bits = s.id_bits() + (64 - w.unsigned_abs().leading_zeros() as u64).max(1);
        ch.send(
            if to_alice {
                Direction::BobToAlice
            } else {
                Direction::AliceToBob
            },
            bits,
        );
    }
}

/// Claim 5.8: a 2-approximation for weighted MDS with
/// `O(|E_cut|·log n)` bits. Each player optimally dominates its own
/// vertices (possibly using the other side's cut vertices), and the
/// union is returned.
pub fn mds_2_approx(s: &SplitGraph, ch: &mut Channel) -> ProtocolOutcome {
    let mut va_view = s.alice_view();
    let mut vb_view = s.bob_view();
    exchange_boundary_weights(s, &mut va_view, true, ch);
    exchange_boundary_weights(s, &mut vb_view, false, ch);
    let da = min_weight_dominating_set_of(&va_view, &s.alice_vertices());
    let db = min_weight_dominating_set_of(&vb_view, &s.bob_vertices());
    // Each tells the other which of the other's cut vertices it used.
    ch.send(
        Direction::AliceToBob,
        da.vertices.len() as u64 * s.id_bits(),
    );
    ch.send(
        Direction::BobToAlice,
        db.vertices.len() as u64 * s.id_bits(),
    );
    let mut set: Vec<NodeId> = da.vertices;
    for v in db.vertices {
        if !set.contains(&v) {
            set.push(v);
        }
    }
    let value = set.iter().map(|&v| s.graph().node_weight(v)).sum();
    ProtocolOutcome {
        vertices: set,
        value,
        bits: ch.total_bits(),
    }
}

/// Claim 5.9: a ½-approximation for weighted MaxIS with `O(log n)` bits.
/// Each player solves its own side optimally; the heavier side wins.
pub fn maxis_half_approx(s: &SplitGraph, ch: &mut Channel) -> ProtocolOutcome {
    let (ga, map_a) = s.graph().induced_subgraph(&s.alice_vertices());
    let (gb, map_b) = s.graph().induced_subgraph(&s.bob_vertices());
    let ia = max_weight_independent_set(&ga);
    let ib = max_weight_independent_set(&gb);
    // One weight exchange decides the winner.
    ch.send(Direction::AliceToBob, 64);
    ch.send(Direction::BobToAlice, 1);
    let (sol, map, value) = if ia.weight >= ib.weight {
        (ia.vertices, map_a, ia.weight)
    } else {
        (ib.vertices, map_b, ib.weight)
    };
    ProtocolOutcome {
        vertices: sol.into_iter().map(|v| map[v]).collect(),
        value,
        bits: ch.total_bits(),
    }
}

fn subgraph_of_edges(n: usize, edges: &[(NodeId, NodeId, Weight)], weights: &Graph) -> Graph {
    let mut g = Graph::new(n);
    for v in 0..n {
        g.set_node_weight(v, weights.node_weight(v));
    }
    for &(u, v, w) in edges {
        g.add_weighted_edge(u, v, w);
    }
    g
}

/// Claim 5.6: a 3/2-approximation for weighted MVC with
/// `O(|E_cut|·log n)` bits. The player with the cheaper internal optimum
/// keeps it; the other covers every edge touching its side (cut
/// included).
pub fn mvc_3_2_approx(s: &SplitGraph, ch: &mut Channel) -> ProtocolOutcome {
    let n = s.graph().num_nodes();
    let opt_a = min_weight_vertex_cover(&subgraph_of_edges(n, &s.alice_edges(), s.graph()));
    let opt_b = min_weight_vertex_cover(&subgraph_of_edges(n, &s.bob_edges(), s.graph()));
    // Exchange the two optima (one weight each way).
    ch.send(Direction::AliceToBob, 64);
    ch.send(Direction::BobToAlice, 64);
    let alice_cheaper = opt_a.weight <= opt_b.weight;
    // The other player covers its internal + cut edges, with boundary
    // weights exchanged.
    let mut big_edges = if alice_cheaper {
        s.bob_edges()
    } else {
        s.alice_edges()
    };
    big_edges.extend(s.cut_edges());
    let mut weighted_view = if alice_cheaper {
        s.bob_view()
    } else {
        s.alice_view()
    };
    exchange_boundary_weights(s, &mut weighted_view, !alice_cheaper, ch);
    let big = min_weight_vertex_cover(&subgraph_of_edges(n, &big_edges, &weighted_view));
    // Announce the chosen cut vertices.
    ch.send(
        if alice_cheaper {
            Direction::BobToAlice
        } else {
            Direction::AliceToBob
        },
        big.vertices.len() as u64 * s.id_bits(),
    );
    let mut set = if alice_cheaper {
        opt_a.vertices
    } else {
        opt_b.vertices
    };
    for v in big.vertices {
        if !set.contains(&v) {
            set.push(v);
        }
    }
    let value = set.iter().map(|&v| s.graph().node_weight(v)).sum();
    ProtocolOutcome {
        vertices: set,
        value,
        bits: ch.total_bits(),
    }
}

/// Claim 5.7: a `(1+ε)`-approximation for *unweighted* MVC.
///
/// Runs the 3/2-protocol to estimate `k ∈ [OPT, 3·OPT/2]`. If the cut is
/// small (`|E_cut| < ε·k/3`), each player covers its internal edges
/// optimally and all cut endpoints join the cover. Otherwise the players
/// take every vertex of degree `> k` (forced into any optimum), exchange
/// the remaining graph (≤ `k²` edges) and solve it exactly.
pub fn mvc_1_plus_eps_approx(s: &SplitGraph, eps: f64, ch: &mut Channel) -> ProtocolOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    let n = s.graph().num_nodes();
    // Unweighted: force unit weights.
    let mut uw = s.graph().clone();
    for v in 0..n {
        uw.set_node_weight(v, 1);
    }
    let su = SplitGraph::new(uw, &s.alice_vertices());
    let k = mvc_3_2_approx(&su, ch).value as f64;
    let cut = su.cut_edges();
    if (cut.len() as f64) < eps * k / 3.0 {
        let opt_a = min_vertex_cover(&subgraph_of_edges(n, &su.alice_edges(), su.graph()));
        let opt_b = min_vertex_cover(&subgraph_of_edges(n, &su.bob_edges(), su.graph()));
        let mut set = opt_a.vertices;
        for v in opt_b.vertices {
            if !set.contains(&v) {
                set.push(v);
            }
        }
        for (u, v, _) in cut {
            for w in [u, v] {
                if !set.contains(&w) {
                    set.push(w);
                }
            }
        }
        let value = set.len() as Weight;
        return ProtocolOutcome {
            vertices: set,
            value,
            bits: ch.total_bits(),
        };
    }
    // Large cut: high-degree vertices are forced; exchange the rest.
    let forced: Vec<NodeId> = (0..n)
        .filter(|&v| su.graph().degree(v) as f64 > k)
        .collect();
    let mut rest = Graph::new(n);
    let mut rest_edges = 0u64;
    for (u, v, w) in su.graph().edges() {
        if !forced.contains(&u) && !forced.contains(&v) {
            rest.add_weighted_edge(u, v, w);
            rest_edges += 1;
        }
    }
    // Each internal non-covered edge crosses the channel once.
    ch.send(Direction::AliceToBob, rest_edges * 2 * su.id_bits());
    ch.send(Direction::BobToAlice, rest_edges * 2 * su.id_bits());
    let inner = min_vertex_cover(&rest);
    let mut set = forced;
    for v in inner.vertices {
        if !set.contains(&v) {
            set.push(v);
        }
    }
    let value = set.len() as Weight;
    ProtocolOutcome {
        vertices: set,
        value,
        bits: ch.total_bits(),
    }
}

/// Outcome of a max-cut protocol: the side assignment and its weight.
#[derive(Debug, Clone)]
pub struct CutOutcome {
    /// Side of each vertex.
    pub side: Vec<bool>,
    /// The cut weight achieved.
    pub value: Weight,
    /// Bits exchanged.
    pub bits: u64,
}

/// Claim 5.5 (after \[30\]): a 2/3-approximation for weighted max-cut with
/// `O(|E_cut|·log n)` bits. Alice optimizes her internal edges, Bob the
/// rest (his side + the cut); one of `{C_A, C_B, C_A ⊕ C_B}` achieves 2/3
/// of the optimum.
///
/// # Panics
///
/// Panics if the graph exceeds the exact max-cut solver's 64-vertex
/// limit (the players solve their sides optimally).
pub fn maxcut_2_3_approx(s: &SplitGraph, ch: &mut Channel) -> CutOutcome {
    let n = s.graph().num_nodes();
    let ga = subgraph_of_edges(n, &s.alice_edges(), s.graph());
    let mut b_edges = s.bob_edges();
    b_edges.extend(s.cut_edges());
    let gb = subgraph_of_edges(n, &b_edges, s.graph());
    let ca = maxcut::max_cut(&ga).side;
    let cb = maxcut::max_cut(&gb).side;
    let cxor: Vec<bool> = ca.iter().zip(&cb).map(|(&a, &b)| a ^ b).collect();
    // Evaluating the three candidates on the full graph requires the
    // boundary assignments plus three partial values each way.
    ch.send(
        Direction::BobToAlice,
        s.cut_size() as u64 * (1 + s.id_bits()),
    );
    ch.send(
        Direction::AliceToBob,
        s.cut_size() as u64 * (1 + s.id_bits()) + 3 * 64,
    );
    let mut best: Option<CutOutcome> = None;
    for cand in [ca, cb, cxor] {
        let value = s.graph().cut_weight(&cand);
        if best.as_ref().is_none_or(|b| value > b.value) {
            best = Some(CutOutcome {
                side: cand,
                value,
                bits: 0,
            });
        }
    }
    let mut out = best.expect("three candidates");
    out.bits = ch.total_bits();
    out
}

/// Claim 5.4: a `(1-ε)`-approximation for *unweighted* max-cut. With a
/// small cut (`|E_cut| ≤ ε·m/2`) the players optimize their sides
/// independently (an optimal cut loses at most the cut edges, and
/// `OPT ≥ m/2`); otherwise they exchange the whole graph.
pub fn maxcut_1_minus_eps_approx(s: &SplitGraph, eps: f64, ch: &mut Channel) -> CutOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    let n = s.graph().num_nodes();
    let m = s.graph().num_edges() as f64;
    if (s.cut_size() as f64) <= eps * m / 2.0 {
        let ga = subgraph_of_edges(n, &s.alice_edges(), s.graph());
        let gb = subgraph_of_edges(n, &s.bob_edges(), s.graph());
        let ca = maxcut::max_cut(&ga).side;
        let cb = maxcut::max_cut(&gb).side;
        let side: Vec<bool> = (0..n)
            .map(|v| if s.is_alice(v) { ca[v] } else { cb[v] })
            .collect();
        ch.send(Direction::AliceToBob, 1);
        ch.send(Direction::BobToAlice, 1);
        let value = s.graph().cut_weight(&side);
        CutOutcome {
            side,
            value,
            bits: ch.total_bits(),
        }
    } else {
        // Exchange the whole graph.
        let bits = s.graph().num_edges() as u64 * 2 * s.id_bits();
        ch.send(Direction::AliceToBob, bits);
        ch.send(Direction::BobToAlice, bits);
        let opt = maxcut::max_cut(s.graph());
        CutOutcome {
            side: opt.side,
            value: opt.weight,
            bits: ch.total_bits(),
        }
    }
}

/// Claim 5.1: a `(1+ε)`-approximation for unweighted MVC on
/// bounded-degree split graphs. Small cut (`|E_cut| ≤ m/(2Δ·ε⁻¹)` in the
/// paper's form `εm/2Δ`): local optima + all cut endpoints; large cut:
/// exchange everything.
pub fn bounded_degree_mvc_protocol(s: &SplitGraph, eps: f64, ch: &mut Channel) -> ProtocolOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    let n = s.graph().num_nodes();
    let m = s.graph().num_edges() as f64;
    let delta = s.graph().max_degree().max(1) as f64;
    // Exchange m and Δ (two values each way).
    ch.send(Direction::AliceToBob, 2 * 64);
    ch.send(Direction::BobToAlice, 2 * 64);
    if (s.cut_size() as f64) <= eps * m / (2.0 * delta) {
        let opt_a = min_vertex_cover(&subgraph_of_edges(n, &s.alice_edges(), s.graph()));
        let opt_b = min_vertex_cover(&subgraph_of_edges(n, &s.bob_edges(), s.graph()));
        let mut set = opt_a.vertices;
        for v in opt_b.vertices {
            if !set.contains(&v) {
                set.push(v);
            }
        }
        for (u, v, _) in s.cut_edges() {
            for w in [u, v] {
                if !set.contains(&w) {
                    set.push(w);
                }
            }
        }
        let value = set.len() as Weight;
        ProtocolOutcome {
            vertices: set,
            value,
            bits: ch.total_bits(),
        }
    } else {
        let bits = s.graph().num_edges() as u64 * 2 * s.id_bits();
        ch.send(Direction::AliceToBob, bits);
        ch.send(Direction::BobToAlice, bits);
        let opt = min_vertex_cover(s.graph());
        ProtocolOutcome {
            value: opt.vertices.len() as Weight,
            vertices: opt.vertices,
            bits: ch.total_bits(),
        }
    }
}

/// Claim 5.2: a `(1+ε)`-approximation for unweighted MDS on
/// bounded-degree split graphs. Small cut: each player optimally
/// dominates its *internal* vertices using its own side, and every cut
/// endpoint joins the set; large cut: exchange everything.
pub fn bounded_degree_mds_protocol(s: &SplitGraph, eps: f64, ch: &mut Channel) -> ProtocolOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    let g = s.graph();
    let n = g.num_nodes();
    let m = g.num_edges() as f64;
    let delta = g.max_degree().max(1) as f64;
    ch.send(Direction::AliceToBob, 2 * 64);
    ch.send(Direction::BobToAlice, 2 * 64);
    if (s.cut_size() as f64) <= eps * m / (2.0 * (delta + 1.0) * delta) || s.cut_size() == 0 {
        let mut boundary = vec![false; n];
        for (u, v, _) in s.cut_edges() {
            boundary[u] = true;
            boundary[v] = true;
        }
        let mut set: Vec<NodeId> = (0..n).filter(|&v| boundary[v]).collect();
        for alice in [true, false] {
            let side: Vec<NodeId> = (0..n).filter(|&v| s.is_alice(v) == alice).collect();
            let (mut sub, map) = g.induced_subgraph(&side);
            for v in 0..sub.num_nodes() {
                sub.set_node_weight(v, 1);
            }
            let internal: Vec<NodeId> = (0..sub.num_nodes())
                .filter(|&v| !boundary[map[v]])
                .collect();
            let sol = min_weight_dominating_set_of(&sub, &internal);
            for v in sol.vertices {
                if !set.contains(&map[v]) {
                    set.push(map[v]);
                }
            }
        }
        let value = set.len() as Weight;
        ProtocolOutcome {
            vertices: set,
            value,
            bits: ch.total_bits(),
        }
    } else {
        let bits = g.num_edges() as u64 * 2 * s.id_bits();
        ch.send(Direction::AliceToBob, bits);
        ch.send(Direction::BobToAlice, bits);
        let mut uw = g.clone();
        for v in 0..n {
            uw.set_node_weight(v, 1);
        }
        let opt = congest_solvers::mds::min_weight_dominating_set(&uw);
        ProtocolOutcome {
            value: opt.vertices.len() as Weight,
            vertices: opt.vertices,
            bits: ch.total_bits(),
        }
    }
}

/// Claim 5.3: a `(1-ε)`-approximation for unweighted MaxIS on
/// bounded-degree split graphs. Small cut: each player takes an optimal
/// independent set among its *internal* vertices (never a cut endpoint),
/// so the union stays independent; large cut: exchange everything.
pub fn bounded_degree_maxis_protocol(
    s: &SplitGraph,
    eps: f64,
    ch: &mut Channel,
) -> ProtocolOutcome {
    assert!(eps > 0.0, "epsilon must be positive");
    let g = s.graph();
    let n = g.num_nodes();
    let m = g.num_edges() as f64;
    let delta = g.max_degree().max(1) as f64;
    ch.send(Direction::AliceToBob, 2 * 64);
    ch.send(Direction::BobToAlice, 2 * 64);
    if (s.cut_size() as f64) <= eps * m / ((delta + 1.0) * delta) || s.cut_size() == 0 {
        let mut boundary = vec![false; n];
        for (u, v, _) in s.cut_edges() {
            boundary[u] = true;
            boundary[v] = true;
        }
        let mut set: Vec<NodeId> = Vec::new();
        for alice in [true, false] {
            let side: Vec<NodeId> = (0..n)
                .filter(|&v| s.is_alice(v) == alice && !boundary[v])
                .collect();
            let (mut sub, map) = g.induced_subgraph(&side);
            for v in 0..sub.num_nodes() {
                sub.set_node_weight(v, 1);
            }
            let sol = max_weight_independent_set(&sub);
            set.extend(sol.vertices.into_iter().map(|v| map[v]));
        }
        let value = set.len() as Weight;
        ProtocolOutcome {
            vertices: set,
            value,
            bits: ch.total_bits(),
        }
    } else {
        let bits = g.num_edges() as u64 * 2 * s.id_bits();
        ch.send(Direction::AliceToBob, bits);
        ch.send(Direction::BobToAlice, bits);
        let mut uw = g.clone();
        for v in 0..n {
            uw.set_node_weight(v, 1);
        }
        let opt = max_weight_independent_set(&uw);
        ProtocolOutcome {
            value: opt.vertices.len() as Weight,
            vertices: opt.vertices,
            bits: ch.total_bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_solvers::mds::min_weight_dominating_set;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_split(n: usize, p: f64, seed: u64, weighted: bool) -> SplitGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::connected_gnp(n, p, &mut rng);
        if weighted {
            for v in 0..n {
                g.set_node_weight(v, rng.gen_range(1..8));
            }
        }
        let alice: Vec<NodeId> = (0..n / 2).collect();
        SplitGraph::new(g, &alice)
    }

    #[test]
    fn mds_protocol_is_2_approx_with_cheap_cut_traffic() {
        for seed in 0..8 {
            let s = random_split(14, 0.25, seed, true);
            let mut ch = Channel::new();
            let out = mds_2_approx(&s, &mut ch);
            assert!(s.graph().is_dominating_set(&out.vertices));
            let opt = min_weight_dominating_set(s.graph()).weight;
            assert!(
                out.value <= 2 * opt,
                "2-approx violated: {} vs {opt}",
                out.value
            );
            // Bit budget: O(|Ecut|·(log n + log W) + |solution|·log n).
            let budget = 2 * s.cut_size() as u64 * (s.id_bits() + 64)
                + 2 * s.graph().num_nodes() as u64 * s.id_bits();
            assert!(out.bits <= budget, "{} > {budget}", out.bits);
        }
    }

    #[test]
    fn maxis_protocol_is_half_approx() {
        for seed in 10..18 {
            let s = random_split(16, 0.3, seed, true);
            let mut ch = Channel::new();
            let out = maxis_half_approx(&s, &mut ch);
            assert!(s.graph().is_independent_set(&out.vertices));
            let opt = max_weight_independent_set(s.graph()).weight;
            assert!(
                2 * out.value >= opt,
                "1/2-approx violated: {} vs {opt}",
                out.value
            );
            assert!(out.bits <= 128);
        }
    }

    #[test]
    fn mvc_protocol_is_3_2_approx() {
        for seed in 20..28 {
            let s = random_split(14, 0.3, seed, true);
            let mut ch = Channel::new();
            let out = mvc_3_2_approx(&s, &mut ch);
            assert!(s.graph().is_vertex_cover(&out.vertices));
            let opt = min_weight_vertex_cover(s.graph()).weight;
            assert!(
                2 * out.value <= 3 * opt,
                "3/2-approx violated: {} vs {opt}",
                out.value
            );
        }
    }

    #[test]
    fn mvc_eps_protocol_achieves_ratio() {
        for seed in 30..36 {
            let s = random_split(14, 0.3, seed, false);
            let mut ch = Channel::new();
            let out = mvc_1_plus_eps_approx(&s, 0.5, &mut ch);
            assert!(s.graph().is_vertex_cover(&out.vertices));
            let opt = min_vertex_cover(s.graph()).vertices.len() as Weight;
            assert!(
                2 * out.value <= 3 * opt,
                "(1+ε) branch exceeded: {} vs {opt}",
                out.value
            );
        }
    }

    #[test]
    fn maxcut_protocol_is_2_3_approx() {
        for seed in 40..48 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = generators::connected_gnp(12, 0.35, &mut rng);
            let edges: Vec<_> = g.edges().collect();
            for (u, v, _) in edges {
                g.add_weighted_edge(u, v, rng.gen_range(1..9));
            }
            let s = SplitGraph::new(g, &[0, 1, 2, 3, 4, 5]);
            let mut ch = Channel::new();
            let out = maxcut_2_3_approx(&s, &mut ch);
            let opt = maxcut::max_cut(s.graph()).weight;
            assert!(
                3 * out.value >= 2 * opt,
                "2/3 violated: {} vs {opt}",
                out.value
            );
            assert_eq!(s.graph().cut_weight(&out.side), out.value);
        }
    }

    #[test]
    fn maxcut_eps_protocol_achieves_ratio() {
        for seed in 50..56 {
            let s = random_split(14, 0.4, seed, false);
            let mut ch = Channel::new();
            let out = maxcut_1_minus_eps_approx(&s, 0.4, &mut ch);
            let opt = maxcut::max_cut(s.graph()).weight;
            assert!(
                out.value as f64 >= (1.0 - 0.4) * opt as f64,
                "(1-ε) violated: {} vs {opt}",
                out.value
            );
        }
    }

    #[test]
    fn bounded_degree_mds_protocol_ratio() {
        for seed in 70..76 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_bounded_degree(18, 4, 300, &mut rng);
            let s = SplitGraph::new(g, &(0..9).collect::<Vec<_>>());
            let mut ch = Channel::new();
            let out = bounded_degree_mds_protocol(&s, 0.9, &mut ch);
            assert!(s.graph().is_dominating_set(&out.vertices));
            let mut uw = s.graph().clone();
            for v in 0..18 {
                uw.set_node_weight(v, 1);
            }
            let opt = min_weight_dominating_set(&uw).weight;
            assert!(
                out.value as f64 <= (1.0 + 0.9) * opt as f64 + 1e-9,
                "ratio violated: {} vs {opt}",
                out.value
            );
        }
    }

    #[test]
    fn bounded_degree_maxis_protocol_ratio() {
        for seed in 80..86 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_bounded_degree(18, 4, 300, &mut rng);
            let s = SplitGraph::new(g, &(0..9).collect::<Vec<_>>());
            let mut ch = Channel::new();
            let out = bounded_degree_maxis_protocol(&s, 0.9, &mut ch);
            assert!(s.graph().is_independent_set(&out.vertices));
            let mut uw = s.graph().clone();
            for v in 0..18 {
                uw.set_node_weight(v, 1);
            }
            let opt = max_weight_independent_set(&uw).weight;
            assert!(
                out.value as f64 >= (1.0 - 0.9) * opt as f64 - 1e-9,
                "ratio violated: {} vs {opt}",
                out.value
            );
        }
    }

    #[test]
    fn bounded_degree_mvc_protocol_ratio() {
        for seed in 60..66 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::random_bounded_degree(18, 4, 300, &mut rng);
            let alice: Vec<NodeId> = (0..9).collect();
            let s = SplitGraph::new(g, &alice);
            let mut ch = Channel::new();
            let out = bounded_degree_mvc_protocol(&s, 0.8, &mut ch);
            assert!(s.graph().is_vertex_cover(&out.vertices));
            let opt = min_vertex_cover(s.graph()).vertices.len() as Weight;
            if opt > 0 {
                assert!(
                    out.value as f64 <= (1.0 + 0.8) * opt as f64 + 1e-9,
                    "ratio violated: {} vs {opt}",
                    out.value
                );
            }
        }
    }
}
