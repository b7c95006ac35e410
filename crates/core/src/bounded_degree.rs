//! Section 3: lower bounds in bounded-degree graphs, via the reduction
//! chain `G → φ → φ' → G'`.
//!
//! * [`graph_to_cnf`] (Claim 3.1): `f(φ) = α(G) + |E|`.
//! * [`normalize_occurrences`] (Claims 3.2–3.3, Corollary 3.1): every
//!   variable is split into copies tied together by expander-equality
//!   clauses, so each literal appears at most 4 times and
//!   `f(φ') = f(φ) + m_exp`.
//! * [`cnf_to_conflict_graph`] (Claim 3.4): `α(G') = f(φ')`, and `G'` has
//!   maximum degree ≤ 5.
//!
//! Composing the chain on the MaxIS family of \[10\] ([`BoundedDegreeMaxIs`])
//! yields bounded-degree instances with `Θ(k²)` vertices, an unchanged
//! `Θ(log k)` cut and logarithmic diameter — the Theorem 3.1 `Ω̃(n)` lower
//! bound. The MVC bound follows by complementation (Theorem 3.2) and the
//! MDS bound by [`vc_to_mds_graph`] (Theorem 3.3).
//!
//! Theorem 3.4 (weighted 2-spanner) relies on the distributed MVC →
//! 2-spanner reduction of \[9\], whose gadget the paper cites but does not
//! reproduce; we do not reconstruct it (a naive center-star reduction is
//! *incorrect* — a star at `c_v` also 2-spans edges between `v`'s
//! neighbors, which our exact solver demonstrated). The exact 2-spanner
//! oracle lives in `congest_solvers::spanner` for future completion.

use congest_codes::DistinguishedExpander;
use congest_comm::BitString;
use congest_graph::{Graph, NodeId};
use congest_solvers::cnf::{Clause, CnfFormula, Literal};

use crate::mvc_ckp::MvcMaxIsFamily;
use crate::LowerBoundFamily;

/// Claim 3.1: the max-2SAT instance of a MaxIS instance. Variable `x_v`
/// per vertex, unit clause `(x_v)` per vertex, clause `(¬x_u ∨ ¬x_v)` per
/// edge; `f(φ) = α(G) + |E(G)|`.
pub fn graph_to_cnf(g: &Graph) -> CnfFormula {
    let n = g.num_nodes();
    let mut phi = CnfFormula::new(n);
    for v in 0..n {
        phi.add_clause(Clause::unit(Literal::pos(v)));
    }
    for (u, v, _) in g.edges() {
        phi.add_clause(Clause::binary(Literal::neg(u), Literal::neg(v)));
    }
    phi
}

/// Result of [`normalize_occurrences`].
#[derive(Debug, Clone)]
pub struct Normalized {
    /// The rewritten formula `φ'`.
    pub formula: CnfFormula,
    /// The number of expander clauses `m_exp` (Corollary 3.1:
    /// `f(φ') = f(φ) + m_exp`).
    pub m_exp: usize,
    /// For each variable of `φ'`, the variable of `φ` it descends from.
    pub base_var: Vec<usize>,
}

/// Claims 3.2–3.3: rewrite `φ` so every literal appears at most 4 times.
///
/// A variable with `d ≥ 3` occurrences becomes the `d` distinguished
/// vertices of a [`DistinguishedExpander`] (plus its `2d` auxiliary
/// vertices); every expander edge `(p, q)` contributes the equality
/// clauses `(¬p ∨ q)` and `(¬q ∨ p)`. Variables with ≤ 2 occurrences are
/// kept as-is.
pub fn normalize_occurrences(phi: &CnfFormula) -> Normalized {
    // Occurrence lists: (clause index, literal index) per variable.
    let mut occ: Vec<Vec<(usize, usize)>> = vec![Vec::new(); phi.num_vars()];
    for (ci, c) in phi.clauses().iter().enumerate() {
        for (li, l) in c.literals().iter().enumerate() {
            occ[l.var].push((ci, li));
        }
    }
    let mut out = CnfFormula::new(0);
    let mut base_var = Vec::new();
    let fresh = |base: usize, out: &mut CnfFormula, base_var: &mut Vec<usize>| {
        let v = out.add_var();
        base_var.push(base);
        debug_assert_eq!(base_var.len(), out.num_vars());
        v
    };
    // occurrence_var[ci][li] = new variable replacing that occurrence.
    let mut occurrence_var: Vec<Vec<usize>> = phi
        .clauses()
        .iter()
        .map(|c| vec![usize::MAX; c.literals().len()])
        .collect();
    let mut expander_clauses: Vec<(usize, usize)> = Vec::new(); // (p → q) pairs
    for (v, places) in occ.iter().enumerate() {
        let d = places.len();
        if d == 0 {
            continue;
        }
        if d <= 2 {
            let nv = fresh(v, &mut out, &mut base_var);
            for &(ci, li) in places {
                occurrence_var[ci][li] = nv;
            }
        } else {
            let exp = DistinguishedExpander::build(d);
            let graph = exp.graph();
            // One new variable per expander vertex; the distinguished
            // vertices 0..d host the occurrences.
            let vars: Vec<usize> = (0..graph.num_nodes())
                .map(|_| fresh(v, &mut out, &mut base_var))
                .collect();
            for (r, &(ci, li)) in places.iter().enumerate() {
                occurrence_var[ci][li] = vars[r];
            }
            for (a, b, _) in graph.edges() {
                expander_clauses.push((vars[a], vars[b]));
                expander_clauses.push((vars[b], vars[a]));
            }
        }
    }
    // Original clauses with rewritten variables.
    for (ci, c) in phi.clauses().iter().enumerate() {
        let lits: Vec<Literal> = c
            .literals()
            .iter()
            .enumerate()
            .map(|(li, l)| Literal {
                var: occurrence_var[ci][li],
                positive: l.positive,
            })
            .collect();
        match lits.len() {
            1 => out.add_clause(Clause::unit(lits[0])),
            2 => out.add_clause(Clause::binary(lits[0], lits[1])),
            _ => unreachable!("clauses have 1 or 2 literals"),
        }
    }
    let m_exp = expander_clauses.len();
    for (p, q) in expander_clauses {
        out.add_clause(Clause::binary(Literal::neg(p), Literal::pos(q)));
    }
    Normalized {
        formula: out,
        m_exp,
        base_var,
    }
}

/// Claim 3.4: the conflict graph of a ≤2-CNF. One vertex per (clause,
/// literal) occurrence; an edge inside every binary clause; an edge
/// between every positive and negative occurrence of the same variable.
/// `α(G') = f(φ')`, and if every literal appears at most 4 times the
/// maximum degree is 5.
///
/// Returns the graph and, per vertex, the `(clause, literal)` pair it
/// represents.
pub fn cnf_to_conflict_graph(phi: &CnfFormula) -> (Graph, Vec<(usize, usize)>) {
    let mut meta = Vec::new();
    let mut by_literal: Vec<(Vec<usize>, Vec<usize>)> =
        vec![(Vec::new(), Vec::new()); phi.num_vars()];
    for (ci, c) in phi.clauses().iter().enumerate() {
        for (li, l) in c.literals().iter().enumerate() {
            let vid = meta.len();
            meta.push((ci, li));
            if l.positive {
                by_literal[l.var].0.push(vid);
            } else {
                by_literal[l.var].1.push(vid);
            }
        }
    }
    let mut g = Graph::new(meta.len());
    // Intra-clause edges.
    let mut cursor = 0usize;
    for c in phi.clauses() {
        if c.literals().len() == 2 {
            g.add_edge(cursor, cursor + 1);
        }
        cursor += c.literals().len();
    }
    // Conflict edges x vs ¬x.
    for (pos, neg) in &by_literal {
        for &p in pos {
            for &q in neg {
                g.add_edge(p, q);
            }
        }
    }
    (g, meta)
}

/// The full Section 3 chain applied to an arbitrary graph.
#[derive(Debug, Clone)]
pub struct BoundedDegreeChain {
    /// `φ` (Claim 3.1).
    pub formula: CnfFormula,
    /// `φ'` and `m_exp` (Corollary 3.1).
    pub normalized: Normalized,
    /// `G'` (Claim 3.4).
    pub graph: Graph,
    /// Vertex metadata of `G'`.
    pub meta: Vec<(usize, usize)>,
}

impl BoundedDegreeChain {
    /// Runs `G → φ → φ' → G'`.
    pub fn build(g: &Graph) -> Self {
        let formula = graph_to_cnf(g);
        let normalized = normalize_occurrences(&formula);
        let (graph, meta) = cnf_to_conflict_graph(&normalized.formula);
        BoundedDegreeChain {
            formula,
            normalized,
            graph,
            meta,
        }
    }

    /// The invariant the chain guarantees:
    /// `α(G') = α(G) + |E(G)| + m_exp`.
    pub fn expected_alpha(&self, alpha_g: usize, edges_g: usize) -> usize {
        alpha_g + edges_g + self.normalized.m_exp
    }
}

/// The Theorem 3.1 instance generator: the chain applied to the \[10\]
/// MaxIS family. Unlike the Definition 1.1 families, the decision
/// threshold `Z + m_G + m_exp` depends on the inputs (Alice and Bob
/// exchange `m_G` and `m_exp` with two extra messages — Claim 3.6), so
/// this type exposes `build` + `decide` instead of implementing
/// `LowerBoundFamily`.
#[derive(Debug, Clone, Copy)]
pub struct BoundedDegreeMaxIs {
    base: MvcMaxIsFamily,
}

/// One built bounded-degree instance.
#[derive(Debug, Clone)]
pub struct BoundedDegreeBuild {
    /// The bounded-degree graph `G'`.
    pub graph: Graph,
    /// Vertices simulated by Alice.
    pub alice_vertices: Vec<NodeId>,
    /// `m_G`: number of edges of the source `G_{x,y}`.
    pub m_g: usize,
    /// `m_exp`: number of expander clauses.
    pub m_exp: usize,
    /// The input-dependent MaxIS threshold `Z + m_G + m_exp`.
    pub target_alpha: usize,
}

impl BoundedDegreeMaxIs {
    /// Over the \[10\] family with row size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two or `k < 2`.
    pub fn new(k: usize) -> Self {
        BoundedDegreeMaxIs {
            base: MvcMaxIsFamily::new(k),
        }
    }

    /// The underlying \[10\] family.
    pub fn base(&self) -> &MvcMaxIsFamily {
        &self.base
    }

    /// Builds `G'_{x,y}` with the bookkeeping of Claim 3.6.
    pub fn build(&self, x: &BitString, y: &BitString) -> BoundedDegreeBuild {
        let g = self.base.build(x, y);
        let chain = BoundedDegreeChain::build(&g);
        // Side of each G' vertex: the side of the original vertex its
        // variable descends from.
        let mut in_a = vec![false; g.num_nodes()];
        for v in self.base.alice_vertices() {
            in_a[v] = true;
        }
        let alice_vertices = chain
            .meta
            .iter()
            .enumerate()
            .filter(|&(_, &(ci, li))| {
                let var = chain.normalized.formula.clauses()[ci].literals()[li].var;
                in_a[chain.normalized.base_var[var]]
            })
            .map(|(vid, _)| vid)
            .collect();
        BoundedDegreeBuild {
            target_alpha: self.base.target_alpha() + g.num_edges() + chain.normalized.m_exp,
            m_g: g.num_edges(),
            m_exp: chain.normalized.m_exp,
            graph: chain.graph,
            alice_vertices,
        }
    }

    /// The Claim 3.6 decision: the inputs intersect iff
    /// `α(G') = Z + m_G + m_exp`.
    pub fn decide_intersection(&self, build: &BoundedDegreeBuild, alpha: usize) -> bool {
        alpha == build.target_alpha
    }
}

/// Theorem 3.3's reduction: MVC on `G` → MDS on `G₊`, where `G₊` adds a
/// vertex `v_e` per edge adjacent to both endpoints. For graphs without
/// isolated vertices, `γ(G₊) = τ(G)`. Preserves bounded degree (×2) and
/// diameter (+O(1)).
pub fn vc_to_mds_graph(g: &Graph) -> Graph {
    let n = g.num_nodes();
    let mut h = Graph::new(n + g.num_edges());
    for (i, (u, v, _)) in g.edges().enumerate() {
        h.add_edge(u, v);
        h.add_edge(n + i, u);
        h.add_edge(n + i, v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_graph::generators;
    use congest_solvers::mds::min_dominating_set_size;
    use congest_solvers::mis::{independence_number, independence_number_sparse, min_vertex_cover};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn claim_3_1_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(81);
        for _ in 0..10 {
            let g = generators::gnp(8, 0.4, &mut rng);
            let phi = graph_to_cnf(&g);
            assert_eq!(phi.max_sat_brute(), independence_number(&g) + g.num_edges());
        }
    }

    #[test]
    fn corollary_3_1_exact_with_one_expander() {
        // A formula with one variable occurring 3 times (triggering a
        // d = 3 expander, +9 variables) and two low-occurrence variables:
        // φ' has 11 variables, so f(φ') is brute-forceable and must equal
        // f(φ) + m_exp exactly.
        use congest_solvers::cnf::{Clause, CnfFormula, Literal};
        let mut phi = CnfFormula::new(3);
        phi.add_clause(Clause::unit(Literal::pos(0)));
        phi.add_clause(Clause::binary(Literal::pos(0), Literal::pos(1)));
        phi.add_clause(Clause::binary(Literal::neg(0), Literal::neg(2)));
        phi.add_clause(Clause::unit(Literal::pos(1)));
        phi.add_clause(Clause::unit(Literal::neg(2)));
        let norm = normalize_occurrences(&phi);
        assert!(norm.formula.num_vars() <= 12);
        assert!(norm.m_exp > 0);
        assert_eq!(
            norm.formula.max_sat_brute(),
            phi.max_sat_brute() + norm.m_exp
        );
    }

    #[test]
    fn corollary_3_1_via_branch_bound_on_triangle_chain() {
        // End-to-end on K3: every variable occurs 3 times, so all three
        // expand. f(φ') via branch-and-bound (27 variables) must equal
        // f(φ) + m_exp = α(K3) + |E| + m_exp.
        let g = generators::complete(3);
        let phi = graph_to_cnf(&g);
        let norm = normalize_occurrences(&phi);
        let f_phi_prime = congest_solvers::cnf::max_sat_branch_bound(&norm.formula);
        assert_eq!(f_phi_prime, phi.max_sat_brute() + norm.m_exp);
        assert_eq!(
            f_phi_prime,
            independence_number(&g) + g.num_edges() + norm.m_exp
        );
    }

    #[test]
    fn chain_is_exact_when_no_expander_fires() {
        // Source graphs of maximum degree 1 (matchings): every variable
        // occurs ≤ 2 times, φ' = φ up to renaming, and the full chain
        // equality α(G') = α(G) + |E| + m_exp is checkable with the
        // sparse MIS solver.
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let chain = BoundedDegreeChain::build(&g);
        assert_eq!(chain.normalized.m_exp, 0);
        let alpha_g = independence_number(&g);
        let alpha_gp = independence_number_sparse(&chain.graph);
        assert_eq!(alpha_gp, chain.expected_alpha(alpha_g, g.num_edges()));
    }

    #[test]
    fn claim_3_4_on_small_formulas() {
        use congest_solvers::cnf::{Clause, CnfFormula, Literal};
        let mut phi = CnfFormula::new(3);
        phi.add_clause(Clause::unit(Literal::pos(0)));
        phi.add_clause(Clause::binary(Literal::neg(0), Literal::pos(1)));
        phi.add_clause(Clause::binary(Literal::neg(1), Literal::neg(2)));
        phi.add_clause(Clause::unit(Literal::pos(2)));
        let (g, meta) = cnf_to_conflict_graph(&phi);
        assert_eq!(meta.len(), 6);
        assert_eq!(independence_number(&g), phi.max_sat_brute());
    }

    #[test]
    fn normalized_formula_has_bounded_literal_occurrences() {
        let mut rng = StdRng::seed_from_u64(83);
        let g = generators::gnp(10, 0.5, &mut rng);
        let phi = graph_to_cnf(&g);
        let norm = normalize_occurrences(&phi);
        for (pos, neg) in norm.formula.literal_counts() {
            assert!(pos <= 4 && neg <= 4, "literal occurs {pos}/{neg} times");
        }
        // Satisfied-count sanity: the all-true assignment satisfies all
        // expander clauses plus the unit clauses.
        let all_true = vec![true; norm.formula.num_vars()];
        let sat = norm.formula.satisfied_count(&all_true);
        assert!(sat >= norm.m_exp + g.num_nodes());
    }

    #[test]
    fn family_level_structure_theorem_3_1() {
        let fam = BoundedDegreeMaxIs::new(2);
        let mut x = BitString::zeros(4);
        x.set_pair(2, 1, 1, true);
        let b = fam.build(&x, &x.clone());
        // Max degree 5 (Claim 3.4 / Section 3.1).
        assert!(b.graph.max_degree() <= 5, "Δ = {}", b.graph.max_degree());
        // Θ(k²)-size blowup happened.
        assert!(b.graph.num_nodes() > fam.base().num_vertices());
        // Logarithmic diameter (Claim 3.5): generous cap.
        let d = congest_graph::metrics::diameter(&b.graph);
        if let Some(d) = d {
            let n = b.graph.num_nodes() as f64;
            assert!((d as f64) <= 8.0 * n.log2(), "diameter {d}");
        }
        // Alice's side is a strict nonempty subset.
        assert!(!b.alice_vertices.is_empty());
        assert!(b.alice_vertices.len() < b.graph.num_nodes());
    }

    #[test]
    fn family_level_witness_reaches_target_alpha() {
        // Exact α on the ~1600-vertex composed instance is out of reach;
        // the ≥ direction is certified by an explicit witness built from
        // the source family's witness independent set: extend the
        // corresponding assignment over φ', then pick one satisfied
        // literal-vertex per satisfied clause. Equality follows from
        // Corollary 3.1 and Claim 3.4, each verified exactly above.
        let fam = BoundedDegreeMaxIs::new(2);
        let base = fam.base();
        let mut hit = BitString::zeros(4);
        hit.set_pair(2, 0, 1, true);
        let b = fam.build(&hit, &hit);
        let g = base.build(&hit, &hit);
        let chain = BoundedDegreeChain::build(&g);
        // Assignment for φ from the witness independent set.
        let is = base.witness_independent_set(0, 1);
        let mut assignment = vec![false; g.num_nodes()];
        for &v in &is {
            assignment[v] = true;
        }
        // Lift to φ' (every copy gets the base variable's value).
        let lifted: Vec<bool> = chain
            .normalized
            .base_var
            .iter()
            .map(|&bv| assignment[bv])
            .collect();
        let satisfied = chain.normalized.formula.satisfied_count(&lifted);
        assert_eq!(
            satisfied,
            base.target_alpha() + g.num_edges() + chain.normalized.m_exp,
            "lifted assignment satisfies Z + m_G + m_exp clauses"
        );
        // Turn the satisfied clauses into an independent set of G'.
        let mut is_gp = Vec::new();
        for (vid, &(ci, li)) in chain.meta.iter().enumerate() {
            let lit = chain.normalized.formula.clauses()[ci].literals()[li];
            let clause = &chain.normalized.formula.clauses()[ci];
            // Pick the first satisfied literal of each satisfied clause.
            let first_sat = clause
                .literals()
                .iter()
                .position(|l| lifted[l.var] == l.positive);
            if first_sat == Some(li) && lifted[lit.var] == lit.positive {
                is_gp.push(vid);
            }
        }
        assert_eq!(is_gp.len(), satisfied);
        assert!(chain.graph.is_independent_set(&is_gp));
        assert_eq!(is_gp.len(), b.target_alpha);
    }

    #[test]
    fn theorem_3_3_mds_reduction() {
        let mut rng = StdRng::seed_from_u64(84);
        for _ in 0..8 {
            let g = generators::connected_gnp(8, 0.3, &mut rng);
            let h = vc_to_mds_graph(&g);
            assert_eq!(
                min_dominating_set_size(&h),
                min_vertex_cover(&g).vertices.len()
            );
            assert!(h.max_degree() <= 2 * g.max_degree().max(1));
        }
    }
}
