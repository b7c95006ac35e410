//! The weighted max-cut family (Theorem 2.8, Figure 3).
//!
//! Rows `A₁, A₂, B₁, B₂` of `k` vertices, bit gadgets `T_S, F_S` of
//! `log k` vertices per row, and five special vertices
//! `C_A, C̄_A, C_B, N_A, N_B`. Heavy edges of weight `k⁴` (the
//! `C`-backbone and per-bit 4-cycles) force the shape of every maximum
//! cut; medium edges (`2k²` to the bit gadget, `2k²·log k − k²` to the
//! `C` anchors) force exactly one row vertex per row to join `S`, with
//! gadget choices encoding its index.
//!
//! The novelty (per the paper): Alice adds the weight-1 edge
//! `(a^i₁, a^j₂)` exactly when `x_{(i,j)} = **0**`, and sets the weight of
//! `(a^i₁, N_A)` to `Σ_j x_{i,j}`, so that the total weight incident to
//! each row vertex toward `A₂ ∪ {N_A}` is exactly `k`. A maximum cut
//! reaches the magic value
//! `M = k⁴(8·log k + 4) + k³(12·log k − 4) + 4k² + 4k`
//! **iff** the chosen indices satisfy `x_{(i,j)} = y_{(i,j)} = 1`
//! (Lemma 2.4).

use congest_comm::BitString;
use congest_graph::{Graph, NodeId, Weight};
use congest_solvers::maxcut::has_cut_of_weight_with_stats;
use congest_solvers::SearchStats;

use crate::LowerBoundFamily;

/// The four row sets (same naming as the MDS construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutRow {
    /// Alice's first row.
    A1,
    /// Alice's second row.
    A2,
    /// Bob's first row.
    B1,
    /// Bob's second row.
    B2,
}

impl CutRow {
    /// All four sets in canonical order.
    pub const ALL: [CutRow; 4] = [CutRow::A1, CutRow::A2, CutRow::B1, CutRow::B2];

    fn index(self) -> usize {
        match self {
            CutRow::A1 => 0,
            CutRow::A2 => 1,
            CutRow::B1 => 2,
            CutRow::B2 => 3,
        }
    }

    fn is_alice(self) -> bool {
        matches!(self, CutRow::A1 | CutRow::A2)
    }
}

/// The Figure 3 family, parameterized by `k` (a power of two ≥ 2).
#[derive(Debug, Clone, Copy)]
pub struct MaxCutFamily {
    k: usize,
    log_k: usize,
}

impl MaxCutFamily {
    /// Creates the family for row size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two or `k < 2`.
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_power_of_two(),
            "k must be a power of two >= 2"
        );
        MaxCutFamily {
            k,
            log_k: k.trailing_zeros() as usize,
        }
    }

    /// The row size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The target cut weight
    /// `M = k⁴(8·log k + 4) + k³(12·log k − 4) + 4k² + 4k`.
    pub fn target_weight(&self) -> Weight {
        let k = self.k as Weight;
        let lg = self.log_k as Weight;
        k.pow(4) * (8 * lg + 4) + k.pow(3) * (12 * lg - 4) + 4 * k * k + 4 * k
    }

    /// Row vertex `s^j`.
    pub fn row(&self, s: CutRow, j: usize) -> NodeId {
        assert!(j < self.k, "row index out of range");
        s.index() * self.k + j
    }

    fn gadget_base(&self, s: CutRow) -> usize {
        4 * self.k + s.index() * 2 * self.log_k
    }

    /// Gadget vertex `t^h_S`.
    pub fn t(&self, s: CutRow, h: usize) -> NodeId {
        assert!(h < self.log_k, "bit index out of range");
        self.gadget_base(s) + h
    }

    /// Gadget vertex `f^h_S`.
    pub fn f(&self, s: CutRow, h: usize) -> NodeId {
        assert!(h < self.log_k, "bit index out of range");
        self.gadget_base(s) + self.log_k + h
    }

    /// Special vertex `C_A`.
    pub fn ca(&self) -> NodeId {
        4 * self.k + 8 * self.log_k
    }
    /// Special vertex `C̄_A`.
    pub fn ca_bar(&self) -> NodeId {
        self.ca() + 1
    }
    /// Special vertex `C_B`.
    pub fn cb(&self) -> NodeId {
        self.ca() + 2
    }
    /// Special vertex `N_A`.
    pub fn na(&self) -> NodeId {
        self.ca() + 3
    }
    /// Special vertex `N_B`.
    pub fn nb(&self) -> NodeId {
        self.ca() + 4
    }

    /// `Bin(s^j)`: `{t^h : j_h = 1} ∪ {f^h : j_h = 0}`.
    pub fn bin(&self, s: CutRow, j: usize) -> Vec<NodeId> {
        (0..self.log_k)
            .map(|h| {
                if (j >> h) & 1 == 1 {
                    self.t(s, h)
                } else {
                    self.f(s, h)
                }
            })
            .collect()
    }

    fn k4(&self) -> Weight {
        (self.k as Weight).pow(4)
    }

    /// The input-independent edges.
    pub fn fixed_graph(&self) -> Graph {
        let mut g = Graph::new(self.num_vertices());
        let k4 = self.k4();
        let k2 = (self.k as Weight).pow(2);
        // Backbone.
        g.add_weighted_edge(self.ca(), self.na(), k4);
        g.add_weighted_edge(self.cb(), self.nb(), k4);
        g.add_weighted_edge(self.ca(), self.ca_bar(), k4);
        g.add_weighted_edge(self.ca_bar(), self.cb(), k4);
        // Per-bit 4-cycles (t_A, f_A, t_B, f_B) for z ∈ {1, 2}.
        for (sa, sb) in [(CutRow::A1, CutRow::B1), (CutRow::A2, CutRow::B2)] {
            for h in 0..self.log_k {
                let cyc = [self.t(sa, h), self.f(sa, h), self.t(sb, h), self.f(sb, h)];
                for w in 0..4 {
                    g.add_weighted_edge(cyc[w], cyc[(w + 1) % 4], k4);
                }
            }
        }
        // Row-to-gadget and row-to-anchor edges.
        let anchor_w = 2 * k2 * self.log_k as Weight - k2;
        for s in CutRow::ALL {
            let anchor = if s.is_alice() { self.ca() } else { self.cb() };
            for j in 0..self.k {
                for v in self.bin(s, j) {
                    g.add_weighted_edge(self.row(s, j), v, 2 * k2);
                }
                g.add_weighted_edge(self.row(s, j), anchor, anchor_w);
            }
        }
        g
    }

    /// The Lemma 2.4 witness side-set `S` for an intersecting pair
    /// `(j₁, j₂)`: the four selected row vertices, `C_A`, `C_B`, and the
    /// gadget vertices outside the selected `Bin` sets.
    pub fn witness_side(&self, j1: usize, j2: usize) -> Vec<bool> {
        let mut side = vec![false; self.num_vertices()];
        side[self.ca()] = true;
        side[self.cb()] = true;
        for (s, j) in [
            (CutRow::A1, j1),
            (CutRow::B1, j1),
            (CutRow::A2, j2),
            (CutRow::B2, j2),
        ] {
            side[self.row(s, j)] = true;
            let bin = self.bin(s, j);
            for h in 0..self.log_k {
                for v in [self.t(s, h), self.f(s, h)] {
                    if !bin.contains(&v) {
                        side[v] = true;
                    }
                }
            }
        }
        side
    }
}

impl MaxCutFamily {
    /// The maximum cut weight computed *structurally* from Claims
    /// 2.9–2.11: every maximum cut takes all heavy edges, one row vertex
    /// `j*` per row with matching gadget choices, and then
    ///
    /// ```text
    /// max-cut = M' + max_{j₁,j₂} (4k − 2·[x_{j₁,j₂}=0] − 2·[y_{j₁,j₂}=0])
    /// ```
    ///
    /// where `M' = M − 4k` is the input-independent part (Claim 2.12).
    /// Cross-validated against the exact max-cut search on all 256 pairs
    /// at `k = 2` and on sampled pairs at `k = 4` and `k = 8` (see
    /// tests). It decides the report's `k = 4` row; the exact search
    /// decides [`MaxCutFamily`] itself up to `k = 8` (61 vertices).
    pub fn structural_max_cut(&self, x: &BitString, y: &BitString) -> Weight {
        let k = self.k;
        let m_prime = self.target_weight() - 4 * k as Weight;
        let mut best = Weight::MIN;
        for j1 in 0..k {
            for j2 in 0..k {
                let xs = if x.pair(k, j1, j2) { 0 } else { 2 };
                let ys = if y.pair(k, j1, j2) { 0 } else { 2 };
                best = best.max(4 * k as Weight - xs - ys);
            }
        }
        m_prime + best
    }
}

/// The Figure 3 family with the predicate decided by
/// [`MaxCutFamily::structural_max_cut`] instead of the exact max-cut
/// search — usable at every `k` (the structural formula is itself
/// cross-validated against the search at `k = 2`, `4` and `8`).
#[derive(Debug, Clone, Copy)]
pub struct StructuralMaxCutFamily(pub MaxCutFamily);

impl LowerBoundFamily for StructuralMaxCutFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!("{} [structural oracle]", self.0.name())
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn alice_vertices(&self) -> Vec<NodeId> {
        self.0.alice_vertices()
    }
    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        // Thread the inputs through for the structural oracle by
        // reconstructing them from the built graph: the blocking edge
        // (a^i₁, a^j₂) is present iff x_{(i,j)} = 0, so the graph itself
        // carries the inputs.
        self.0.build(x, y)
    }
    fn predicate(&self, g: &Graph) -> bool {
        // Recover x, y from the blocking edges (present ⇔ bit = 0), then
        // apply the structural formula.
        let k = self.0.k;
        let mut x = BitString::zeros(k * k);
        let mut y = BitString::zeros(k * k);
        for i in 0..k {
            for j in 0..k {
                if !g.has_edge(self.0.row(CutRow::A1, i), self.0.row(CutRow::A2, j)) {
                    x.set_pair(k, i, j, true);
                }
                if !g.has_edge(self.0.row(CutRow::B1, i), self.0.row(CutRow::B2, j)) {
                    y.set_pair(k, i, j, true);
                }
            }
        }
        self.0.structural_max_cut(&x, &y) >= self.0.target_weight()
    }

    fn base_graph(&self) -> Option<Graph> {
        self.0.base_graph()
    }

    fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
        maxcut_delta_edges(&self.0, x, y)
    }
}

impl LowerBoundFamily for MaxCutFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!("Weighted max-cut (Theorem 2.8), k = {}", self.k)
    }

    fn input_len(&self) -> usize {
        self.k * self.k
    }

    fn num_vertices(&self) -> usize {
        4 * self.k + 8 * self.log_k + 5
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        let mut va = Vec::new();
        for s in [CutRow::A1, CutRow::A2] {
            for j in 0..self.k {
                va.push(self.row(s, j));
            }
            for h in 0..self.log_k {
                va.push(self.t(s, h));
                va.push(self.f(s, h));
            }
        }
        va.push(self.ca());
        va.push(self.ca_bar());
        va.push(self.na());
        va
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        let mut g = self.fixed_graph();
        let k = self.k;
        for i in 0..k {
            for j in 0..k {
                if !x.pair(k, i, j) {
                    g.add_weighted_edge(self.row(CutRow::A1, i), self.row(CutRow::A2, j), 1);
                }
                if !y.pair(k, i, j) {
                    g.add_weighted_edge(self.row(CutRow::B1, i), self.row(CutRow::B2, j), 1);
                }
            }
        }
        // Balancing weights toward N_A / N_B: the weight of (s^i, N)
        // equals the number of 1s in the corresponding row/column of the
        // input, so every row vertex sees total weight exactly k toward
        // its layer-2 partners plus N.
        for i in 0..k {
            let row_x: Weight = (0..k).map(|j| Weight::from(x.pair(k, i, j))).sum();
            let col_x: Weight = (0..k).map(|j| Weight::from(x.pair(k, j, i))).sum();
            let row_y: Weight = (0..k).map(|j| Weight::from(y.pair(k, i, j))).sum();
            let col_y: Weight = (0..k).map(|j| Weight::from(y.pair(k, j, i))).sum();
            g.add_weighted_edge(self.row(CutRow::A1, i), self.na(), row_x);
            g.add_weighted_edge(self.row(CutRow::A2, i), self.na(), col_x);
            g.add_weighted_edge(self.row(CutRow::B1, i), self.nb(), row_y);
            g.add_weighted_edge(self.row(CutRow::B2, i), self.nb(), col_y);
        }
        g
    }

    fn predicate(&self, g: &Graph) -> bool {
        self.predicate_with_stats(g).0
    }

    fn predicate_with_stats(&self, g: &Graph) -> (bool, Option<SearchStats>) {
        let (p, s) = has_cut_of_weight_with_stats(g, self.target_weight());
        (p, Some(s))
    }

    fn base_graph(&self) -> Option<Graph> {
        Some(self.fixed_graph())
    }

    fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
        maxcut_delta_edges(self, x, y)
    }
}

/// The input-dependent edges of the Figure 3 construction: the weight-1
/// blocking edges (present where the input bit is **0**) plus the
/// `N_A`/`N_B` balancing edges, whose weights are the input row/column
/// sums (weight-0 edges included — `build` registers them too).
fn maxcut_delta_edges(
    fam: &MaxCutFamily,
    x: &BitString,
    y: &BitString,
) -> Vec<(NodeId, NodeId, Weight)> {
    let k = fam.k;
    let mut d = Vec::new();
    for i in 0..k {
        for j in 0..k {
            if !x.pair(k, i, j) {
                d.push((fam.row(CutRow::A1, i), fam.row(CutRow::A2, j), 1));
            }
            if !y.pair(k, i, j) {
                d.push((fam.row(CutRow::B1, i), fam.row(CutRow::B2, j), 1));
            }
        }
    }
    for i in 0..k {
        let row_x: Weight = (0..k).map(|j| Weight::from(x.pair(k, i, j))).sum();
        let col_x: Weight = (0..k).map(|j| Weight::from(x.pair(k, j, i))).sum();
        let row_y: Weight = (0..k).map(|j| Weight::from(y.pair(k, i, j))).sum();
        let col_y: Weight = (0..k).map(|j| Weight::from(y.pair(k, j, i))).sum();
        d.push((fam.row(CutRow::A1, i), fam.na(), row_x));
        d.push((fam.row(CutRow::A2, i), fam.na(), col_x));
        d.push((fam.row(CutRow::B1, i), fam.nb(), row_y));
        d.push((fam.row(CutRow::B2, i), fam.nb(), col_y));
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::verify_family;
    use congest_solvers::maxcut::max_cut;

    fn curated_inputs(k: usize) -> Vec<(BitString, BitString)> {
        let kk = k * k;
        let zero = BitString::zeros(kk);
        let one = BitString::ones(kk);
        let mut hit = BitString::zeros(kk);
        hit.set_pair(k, 0, k - 1, true);
        let mut xonly = BitString::zeros(kk);
        xonly.set_pair(k, 1, 1, true);
        let mut yonly = BitString::zeros(kk);
        yonly.set_pair(k, 0, 0, true);
        vec![
            (zero.clone(), zero.clone()),
            (one.clone(), one.clone()),
            (zero.clone(), one.clone()),
            (one.clone(), zero.clone()),
            (hit.clone(), hit.clone()),
            (xonly.clone(), yonly.clone()),
            (hit.clone(), zero.clone()),
            (xonly.clone(), one.clone()),
            (xonly, zero.clone()),
            (zero, yonly),
        ]
    }

    #[test]
    fn family_verifies_on_curated_inputs_k_2() {
        let fam = MaxCutFamily::new(2);
        let report = verify_family(&fam, &curated_inputs(2)).expect("Lemma 2.4");
        assert_eq!(report.n, 21);
        // Cut: the 4-cycle edges crossing sides (2 per cycle × 2·log k
        // cycles) plus (C̄_A, C_B).
        assert_eq!(report.cut_size(), 4 * fam.log_k + 1);
    }

    #[test]
    fn witness_cut_achieves_exactly_m_and_is_optimal() {
        let fam = MaxCutFamily::new(2);
        let k = 2;
        let mut hit = BitString::zeros(4);
        hit.set_pair(k, 1, 0, true);
        let g = fam.build(&hit, &hit);
        let side = fam.witness_side(1, 0);
        assert_eq!(g.cut_weight(&side), fam.target_weight());
        assert_eq!(max_cut(&g).weight, fam.target_weight());
    }

    #[test]
    fn disjoint_inputs_fall_short_of_m() {
        let fam = MaxCutFamily::new(2);
        let g = fam.build(&BitString::zeros(4), &BitString::ones(4));
        let opt = max_cut(&g).weight;
        assert!(
            opt < fam.target_weight(),
            "opt {opt} vs M {}",
            fam.target_weight()
        );
        // Claim 2.12: the fixed part of the maximum cut is M' = M - 4k,
        // and intersection buys exactly the last 4k.
        assert!(opt >= fam.target_weight() - 4 * fam.k() as Weight);
    }

    #[test]
    fn structural_solver_matches_the_exact_search() {
        // The Claims 2.9-2.11 structure theorem, machine-checked: the
        // closed-form maximum equals the exact search on all 256 k = 2
        // pairs, on 266 sampled k = 4 pairs (n = 37) and on 42 sampled
        // k = 8 pairs (n = 61), and the exact predicate agrees with the
        // structural one.
        use crate::family::{all_inputs, sample_inputs};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let k4 = sample_inputs(16, 128, &mut StdRng::seed_from_u64(6));
        let k8 = sample_inputs(64, 16, &mut StdRng::seed_from_u64(6));
        assert_eq!((k4.len(), k8.len()), (266, 42));
        for (k, inputs) in [(2, all_inputs(4)), (4, k4), (8, k8)] {
            let fam = MaxCutFamily::new(k);
            let structural = StructuralMaxCutFamily(fam);
            for (x, y) in inputs {
                let g = fam.build(&x, &y);
                assert_eq!(
                    fam.structural_max_cut(&x, &y),
                    max_cut(&g).weight,
                    "k={k} x={x} y={y}"
                );
                assert_eq!(
                    fam.predicate(&g),
                    structural.predicate(&g),
                    "k={k} x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn search_returns_the_walks_cut_on_every_k2_graph() {
        use congest_solvers::maxcut::gray_code_max_cut_with_stats;
        let fam = MaxCutFamily::new(2);
        for (x, y) in crate::family::all_inputs(4) {
            let g = fam.build(&x, &y);
            assert_eq!(
                max_cut(&g),
                gray_code_max_cut_with_stats(&g).0,
                "x={x} y={y}"
            );
        }
    }

    #[test]
    fn structural_family_verifies_at_k4() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let fam = StructuralMaxCutFamily(MaxCutFamily::new(4));
        let mut rng = StdRng::seed_from_u64(6);
        let inputs = crate::family::sample_inputs(16, 4, &mut rng);
        let report = crate::family::verify_family(&fam, &inputs).expect("Lemma 2.4, k=4");
        assert_eq!(report.n, 37);
        assert_eq!(report.cut_size(), 4 * 2 + 1);
    }

    #[test]
    fn target_weight_formula() {
        // k = 2, log k = 1: M = 16·12 + 8·8 + 16 + 8 = 280.
        assert_eq!(MaxCutFamily::new(2).target_weight(), 280);
        // k = 4, log k = 2: 256·20 + 64·20 + 64 + 16 = 6480.
        assert_eq!(MaxCutFamily::new(4).target_weight(), 6480);
    }

    #[test]
    fn row_vertex_sees_total_weight_k_toward_layer_two_and_n() {
        let fam = MaxCutFamily::new(4);
        let mut x = BitString::zeros(16);
        x.set_pair(4, 0, 1, true);
        x.set_pair(4, 0, 3, true);
        let g = fam.build(&x, &BitString::zeros(16));
        for i in 0..4 {
            let a1 = fam.row(CutRow::A1, i);
            let mut total = g.edge_weight(a1, fam.na()).unwrap_or(0);
            for j in 0..4 {
                total += g.edge_weight(a1, fam.row(CutRow::A2, j)).unwrap_or(0);
            }
            assert_eq!(total, 4, "row {i}");
        }
    }
}
