//! Hardness of approximating MaxIS (Section 4.1, Figure 4; Theorems
//! 4.1–4.3) via Reed–Solomon code gadgets.
//!
//! Rows `A₁, A₂, B₁, B₂` of `k` clique-connected vertices of weight `ℓ`;
//! for each row-set `S` a *code gadget* of `q·(ℓ+t)` weight-1 vertices
//! arranged in `ℓ+t` rows (`row(j, S)` is a clique of `q` field values);
//! `row(j, A_z)` and `row(j, B_z)` are joined by a complete bipartite
//! graph **minus** a perfect matching. Row vertex `s^i` is adjacent to
//! every gadget vertex of its set except the positions of its Reed–Solomon
//! codeword `g(i)`, so an independent set containing `s^i` can add exactly
//! the codeword vertices.
//!
//! Because distinct codewords differ in `≥ ℓ+1` positions (the code's
//! distance), mismatched index choices forfeit at least `ℓ` gadget
//! vertices — that *gap* is what elevates the exact-computation bound to a
//! `(7/8+ε)`-approximation bound:
//!
//! * intersecting inputs → a MaxIS of weight exactly `8ℓ + 4t`;
//! * disjoint inputs → every independent set weighs ≤ `7ℓ + 4t`
//!   (Lemma 4.1).
//!
//! [`UnweightedMaxIsGapFamily`] replaces each weight-`ℓ` row vertex by a
//! *batch* of `ℓ` twins (Theorem 4.1); [`LinearMaxIsGapFamily`] keeps one
//! layer and two anchor batches for the `(5/6+ε)` linear bound
//! (Theorem 4.2).

use congest_codes::{next_prime, ReedSolomon};
use congest_comm::BitString;
use congest_graph::{Graph, NodeId, Weight};
use congest_solvers::mis::max_weight_independent_set;

use crate::LowerBoundFamily;

/// Code parameters shared by the Figure 4 families.
#[derive(Debug, Clone, Copy)]
pub struct CodeGadgetParams {
    /// Row count `k` (a power of two).
    pub k: usize,
    /// Row-vertex weight / code-distance parameter `ℓ`.
    pub ell: usize,
    /// Code dimension `t = log₂ k`.
    pub t: usize,
    /// Field size `q` (smallest prime `> ℓ + t`).
    pub q: u64,
}

impl CodeGadgetParams {
    /// Derives parameters from `k` and `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two ≥ 2 or `ℓ = 0`.
    pub fn new(k: usize, ell: usize) -> Self {
        assert!(
            k >= 2 && k.is_power_of_two(),
            "k must be a power of two >= 2"
        );
        assert!(ell >= 1, "ℓ must be positive");
        let t = k.trailing_zeros() as usize;
        let q = next_prime((ell + t) as u64 + 1);
        CodeGadgetParams { k, ell, t, q }
    }

    /// Code length `ℓ + t`.
    pub fn code_len(&self) -> usize {
        self.ell + self.t
    }

    /// The Reed–Solomon code `(ℓ+t, t, ℓ+1, q)`.
    pub fn code(&self) -> ReedSolomon {
        ReedSolomon::new(self.code_len(), self.t, self.q)
    }
}

/// The four row sets of the Figure 4 layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetRow {
    /// Alice layer 1.
    A1,
    /// Alice layer 2.
    A2,
    /// Bob layer 1.
    B1,
    /// Bob layer 2.
    B2,
}

impl GadgetRow {
    /// Canonical order.
    pub const ALL: [GadgetRow; 4] = [GadgetRow::A1, GadgetRow::A2, GadgetRow::B1, GadgetRow::B2];

    fn index(self) -> usize {
        match self {
            GadgetRow::A1 => 0,
            GadgetRow::A2 => 1,
            GadgetRow::B1 => 2,
            GadgetRow::B2 => 3,
        }
    }
}

/// The weighted `(7/8+ε)` gap family (Theorem 4.3).
#[derive(Debug, Clone, Copy)]
pub struct WeightedMaxIsGapFamily {
    params: CodeGadgetParams,
}

impl WeightedMaxIsGapFamily {
    /// Creates the family for row size `k` and gap parameter `ℓ`.
    ///
    /// # Panics
    ///
    /// As for [`CodeGadgetParams::new`].
    pub fn new(k: usize, ell: usize) -> Self {
        WeightedMaxIsGapFamily {
            params: CodeGadgetParams::new(k, ell),
        }
    }

    /// The code parameters.
    pub fn params(&self) -> &CodeGadgetParams {
        &self.params
    }

    /// YES-instance optimum `8ℓ + 4t`.
    pub fn yes_weight(&self) -> Weight {
        (8 * self.params.ell + 4 * self.params.t) as Weight
    }

    /// NO-instance upper bound `7ℓ + 4t`.
    pub fn no_weight(&self) -> Weight {
        (7 * self.params.ell + 4 * self.params.t) as Weight
    }

    /// Row vertex `s^i` of set `s`.
    pub fn row(&self, s: GadgetRow, i: usize) -> NodeId {
        assert!(i < self.params.k, "row index out of range");
        s.index() * self.params.k + i
    }

    /// Code-gadget vertex `α^S_j` (field value `α`, code position `j`).
    pub fn gadget(&self, s: GadgetRow, alpha: u64, j: usize) -> NodeId {
        let p = &self.params;
        assert!((alpha as usize) < p.q as usize, "field value out of range");
        assert!(j < p.code_len(), "code position out of range");
        4 * p.k + s.index() * (p.q as usize * p.code_len()) + (alpha as usize) * p.code_len() + j
    }

    /// The codeword vertices of `s^i`: `{g(i)_j^S_j : j}` — exactly the
    /// gadget vertices *not* adjacent to `s^i`.
    pub fn codeword_vertices(&self, s: GadgetRow, i: usize) -> Vec<NodeId> {
        let word = self.params.code().codeword(i as u64);
        word.iter()
            .enumerate()
            .map(|(j, &alpha)| self.gadget(s, alpha, j))
            .collect()
    }

    /// The input-independent part.
    pub fn fixed_graph(&self) -> Graph {
        let p = self.params;
        let mut g = Graph::new(self.num_vertices());
        // Row cliques, weights ℓ.
        for s in GadgetRow::ALL {
            for i in 0..p.k {
                g.set_node_weight(self.row(s, i), p.ell as Weight);
                for i2 in (i + 1)..p.k {
                    g.add_edge(self.row(s, i), self.row(s, i2));
                }
            }
        }
        // Gadget row cliques.
        for s in GadgetRow::ALL {
            for j in 0..p.code_len() {
                for a in 0..p.q {
                    for b in (a + 1)..p.q {
                        g.add_edge(self.gadget(s, a, j), self.gadget(s, b, j));
                    }
                }
            }
        }
        // Complete bipartite minus perfect matching across sides.
        for (sa, sb) in [
            (GadgetRow::A1, GadgetRow::B1),
            (GadgetRow::A2, GadgetRow::B2),
        ] {
            for j in 0..p.code_len() {
                for a in 0..p.q {
                    for b in 0..p.q {
                        if a != b {
                            g.add_edge(self.gadget(sa, a, j), self.gadget(sb, b, j));
                        }
                    }
                }
            }
        }
        // Row-to-gadget: everything except the codeword positions.
        let code = p.code();
        for s in GadgetRow::ALL {
            for i in 0..p.k {
                let word = code.codeword(i as u64);
                for j in 0..p.code_len() {
                    for a in 0..p.q {
                        if a != word[j] {
                            g.add_edge(self.row(s, i), self.gadget(s, a, j));
                        }
                    }
                }
            }
        }
        g
    }

    /// The Lemma 4.1 witness independent set for an intersecting pair.
    pub fn witness(&self, i: usize, i2: usize) -> Vec<NodeId> {
        let mut w = vec![
            self.row(GadgetRow::A1, i),
            self.row(GadgetRow::B1, i),
            self.row(GadgetRow::A2, i2),
            self.row(GadgetRow::B2, i2),
        ];
        w.extend(self.codeword_vertices(GadgetRow::A1, i));
        w.extend(self.codeword_vertices(GadgetRow::B1, i));
        w.extend(self.codeword_vertices(GadgetRow::A2, i2));
        w.extend(self.codeword_vertices(GadgetRow::B2, i2));
        w
    }
}

impl LowerBoundFamily for WeightedMaxIsGapFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!(
            "Weighted MaxIS 7/8-gap (Theorem 4.3), k = {}, ℓ = {}",
            self.params.k, self.params.ell
        )
    }

    fn input_len(&self) -> usize {
        self.params.k * self.params.k
    }

    fn num_vertices(&self) -> usize {
        let p = self.params;
        4 * p.k + 4 * p.q as usize * p.code_len()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        let p = self.params;
        let mut va = Vec::new();
        for s in [GadgetRow::A1, GadgetRow::A2] {
            for i in 0..p.k {
                va.push(self.row(s, i));
            }
            for a in 0..p.q {
                for j in 0..p.code_len() {
                    va.push(self.gadget(s, a, j));
                }
            }
        }
        va
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        let p = self.params;
        let mut g = self.fixed_graph();
        for i in 0..p.k {
            for i2 in 0..p.k {
                if !x.pair(p.k, i, i2) {
                    g.add_edge(self.row(GadgetRow::A1, i), self.row(GadgetRow::A2, i2));
                }
                if !y.pair(p.k, i, i2) {
                    g.add_edge(self.row(GadgetRow::B1, i), self.row(GadgetRow::B2, i2));
                }
            }
        }
        g
    }

    fn predicate(&self, g: &Graph) -> bool {
        max_weight_independent_set(g).weight >= self.yes_weight()
    }
}

/// The unweighted `(7/8+ε)` family (Theorem 4.1): each row vertex becomes
/// a batch of `ℓ` twins with identical neighborhoods.
#[derive(Debug, Clone, Copy)]
pub struct UnweightedMaxIsGapFamily {
    inner: WeightedMaxIsGapFamily,
}

impl UnweightedMaxIsGapFamily {
    /// Creates the family for row size `k` and gap parameter `ℓ`.
    ///
    /// # Panics
    ///
    /// As for [`CodeGadgetParams::new`].
    pub fn new(k: usize, ell: usize) -> Self {
        UnweightedMaxIsGapFamily {
            inner: WeightedMaxIsGapFamily::new(k, ell),
        }
    }

    /// The underlying weighted family.
    pub fn weighted(&self) -> &WeightedMaxIsGapFamily {
        &self.inner
    }

    /// The `ξ`-th twin of row vertex `s^i`.
    pub fn batch_member(&self, s: GadgetRow, i: usize, xi: usize) -> NodeId {
        let p = self.inner.params;
        assert!(xi < p.ell, "batch index out of range");
        (s.index() * p.k + i) * p.ell + xi
    }

    fn gadget_base(&self) -> usize {
        let p = self.inner.params;
        4 * p.k * p.ell
    }

    /// Gadget vertex `α^S_j` in the batched layout.
    pub fn gadget(&self, s: GadgetRow, alpha: u64, j: usize) -> NodeId {
        let p = self.inner.params;
        self.gadget_base()
            + s.index() * (p.q as usize * p.code_len())
            + (alpha as usize) * p.code_len()
            + j
    }
}

impl LowerBoundFamily for UnweightedMaxIsGapFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!(
            "Unweighted MaxIS 7/8-gap (Theorem 4.1), k = {}, ℓ = {}",
            self.inner.params.k, self.inner.params.ell
        )
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn num_vertices(&self) -> usize {
        let p = self.inner.params;
        4 * p.k * p.ell + 4 * p.q as usize * p.code_len()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        let p = self.inner.params;
        let mut va = Vec::new();
        for s in [GadgetRow::A1, GadgetRow::A2] {
            for i in 0..p.k {
                for xi in 0..p.ell {
                    va.push(self.batch_member(s, i, xi));
                }
            }
            for a in 0..p.q {
                for j in 0..p.code_len() {
                    va.push(self.gadget(s, a, j));
                }
            }
        }
        va
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        // Build the weighted graph, then expand every row vertex into a
        // batch (same neighborhood, no intra-batch edges).
        let p = self.inner.params;
        let base = self.inner.build(x, y);
        let mut g = Graph::new(self.num_vertices());
        let translate = |v: NodeId| -> Vec<NodeId> {
            if v < 4 * p.k {
                let s = GadgetRow::ALL[v / p.k];
                let i = v % p.k;
                (0..p.ell).map(|xi| self.batch_member(s, i, xi)).collect()
            } else {
                vec![self.gadget_base() + (v - 4 * p.k)]
            }
        };
        for (u, v, _) in base.edges() {
            // Batch-to-batch edges only between distinct original
            // vertices (twins stay independent).
            for &a in &translate(u) {
                for &b in &translate(v) {
                    g.add_edge(a, b);
                }
            }
        }
        g
    }

    fn predicate(&self, g: &Graph) -> bool {
        // Cardinality MaxIS on the batched graph.
        let mut h = g.clone();
        for v in 0..h.num_nodes() {
            h.set_node_weight(v, 1);
        }
        max_weight_independent_set(&h).weight >= self.inner.yes_weight()
    }
}

/// The `(5/6+ε)` near-linear family (Theorem 4.2): only layer 2 remains,
/// with anchor batches `batch(v_A)`, `batch(v_B)`; inputs have length `k`.
#[derive(Debug, Clone, Copy)]
pub struct LinearMaxIsGapFamily {
    params: CodeGadgetParams,
}

impl LinearMaxIsGapFamily {
    /// Creates the family for row size `k` and gap parameter `ℓ`.
    ///
    /// # Panics
    ///
    /// As for [`CodeGadgetParams::new`].
    pub fn new(k: usize, ell: usize) -> Self {
        LinearMaxIsGapFamily {
            params: CodeGadgetParams::new(k, ell),
        }
    }

    /// YES-instance size `6ℓ + 2t`.
    pub fn yes_size(&self) -> usize {
        6 * self.params.ell + 2 * self.params.t
    }

    /// NO-instance bound `5ℓ + 2t`.
    pub fn no_size(&self) -> usize {
        5 * self.params.ell + 2 * self.params.t
    }

    /// Twin `ξ` of row vertex `a^i₂` (side = false) or `b^i₂` (side = true).
    pub fn row_member(&self, bob: bool, i: usize, xi: usize) -> NodeId {
        let p = self.params;
        assert!(i < p.k && xi < p.ell);
        (usize::from(bob) * p.k + i) * p.ell + xi
    }

    /// Twin `ξ` of the anchor `v_A` (side = false) or `v_B` (side = true).
    pub fn anchor_member(&self, bob: bool, xi: usize) -> NodeId {
        let p = self.params;
        assert!(xi < p.ell);
        2 * p.k * p.ell + usize::from(bob) * p.ell + xi
    }

    /// Gadget vertex `α^S_j` for side `A₂` (false) / `B₂` (true).
    pub fn gadget(&self, bob: bool, alpha: u64, j: usize) -> NodeId {
        let p = self.params;
        2 * p.k * p.ell
            + 2 * p.ell
            + usize::from(bob) * (p.q as usize * p.code_len())
            + (alpha as usize) * p.code_len()
            + j
    }
}

impl LowerBoundFamily for LinearMaxIsGapFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!(
            "MaxIS 5/6-gap (Theorem 4.2), k = {}, ℓ = {}",
            self.params.k, self.params.ell
        )
    }

    fn input_len(&self) -> usize {
        self.params.k
    }

    fn num_vertices(&self) -> usize {
        let p = self.params;
        2 * p.k * p.ell + 2 * p.ell + 2 * p.q as usize * p.code_len()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        let p = self.params;
        let mut va = Vec::new();
        for i in 0..p.k {
            for xi in 0..p.ell {
                va.push(self.row_member(false, i, xi));
            }
        }
        for xi in 0..p.ell {
            va.push(self.anchor_member(false, xi));
        }
        for a in 0..p.q {
            for j in 0..p.code_len() {
                va.push(self.gadget(false, a, j));
            }
        }
        va
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        let p = self.params;
        assert_eq!(x.len(), p.k, "x has wrong length");
        assert_eq!(y.len(), p.k, "y has wrong length");
        let mut g = Graph::new(self.num_vertices());
        let code = p.code();
        for bob in [false, true] {
            // Row batches form cliques across batches (layer clique),
            // twins inside a batch stay independent.
            for i in 0..p.k {
                for i2 in (i + 1)..p.k {
                    for xi in 0..p.ell {
                        for xi2 in 0..p.ell {
                            g.add_edge(self.row_member(bob, i, xi), self.row_member(bob, i2, xi2));
                        }
                    }
                }
            }
            // Gadget cliques per code row.
            for j in 0..p.code_len() {
                for a in 0..p.q {
                    for b in (a + 1)..p.q {
                        g.add_edge(self.gadget(bob, a, j), self.gadget(bob, b, j));
                    }
                }
            }
            // Row-to-gadget (all but codeword).
            for i in 0..p.k {
                let word = code.codeword(i as u64);
                for j in 0..p.code_len() {
                    for a in 0..p.q {
                        if a != word[j] {
                            for xi in 0..p.ell {
                                g.add_edge(self.row_member(bob, i, xi), self.gadget(bob, a, j));
                            }
                        }
                    }
                }
            }
        }
        // Cross bipartite-minus-matching between the two gadget sides.
        for j in 0..p.code_len() {
            for a in 0..p.q {
                for b in 0..p.q {
                    if a != b {
                        g.add_edge(self.gadget(false, a, j), self.gadget(true, b, j));
                    }
                }
            }
        }
        // Anchor batches: blocked rows.
        for i in 0..p.k {
            if !x.get(i) {
                for xi in 0..p.ell {
                    for xi2 in 0..p.ell {
                        g.add_edge(
                            self.anchor_member(false, xi),
                            self.row_member(false, i, xi2),
                        );
                    }
                }
            }
            if !y.get(i) {
                for xi in 0..p.ell {
                    for xi2 in 0..p.ell {
                        g.add_edge(self.anchor_member(true, xi), self.row_member(true, i, xi2));
                    }
                }
            }
        }
        g
    }

    fn predicate(&self, g: &Graph) -> bool {
        let mut h = g.clone();
        for v in 0..h.num_nodes() {
            h.set_node_weight(v, 1);
        }
        max_weight_independent_set(&h).weight as usize >= self.yes_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{all_inputs, verify_family};
    use congest_solvers::mis::independence_number;

    fn curated_pair_inputs(k: usize) -> Vec<(BitString, BitString)> {
        let kk = k * k;
        let zero = BitString::zeros(kk);
        let one = BitString::ones(kk);
        let mut hit = BitString::zeros(kk);
        hit.set_pair(k, 0, k - 1, true);
        let mut xonly = BitString::zeros(kk);
        xonly.set_pair(k, 1, 0, true);
        vec![
            (zero.clone(), zero.clone()),
            (one.clone(), one.clone()),
            (zero.clone(), one.clone()),
            (hit.clone(), hit.clone()),
            (xonly.clone(), zero.clone()),
            (hit, one),
            (xonly, zero),
        ]
    }

    #[test]
    fn weighted_family_verifies_k2() {
        let fam = WeightedMaxIsGapFamily::new(2, 3);
        let report = verify_family(&fam, &curated_pair_inputs(2)).expect("Lemma 4.1");
        assert_eq!(report.n, 88);
        // Cut: bipartite-minus-matching across sides: 2·(ℓ+t)·q·(q-1).
        assert_eq!(report.cut_size(), 2 * 4 * 5 * 4);
    }

    #[test]
    fn weighted_gap_is_exactly_one_ell() {
        let fam = WeightedMaxIsGapFamily::new(2, 3);
        // YES instance: optimum = 8ℓ + 4t and the witness achieves it.
        let mut hit = BitString::zeros(4);
        hit.set_pair(2, 1, 0, true);
        let g = fam.build(&hit, &hit);
        let w = fam.witness(1, 0);
        assert!(g.is_independent_set(&w));
        assert_eq!(g.node_set_weight(&w), fam.yes_weight());
        assert_eq!(max_weight_independent_set(&g).weight, fam.yes_weight());
        // NO instance: optimum ≤ 7ℓ + 4t.
        let g0 = fam.build(&BitString::zeros(4), &BitString::ones(4));
        let opt = max_weight_independent_set(&g0).weight;
        assert!(opt <= fam.no_weight(), "opt {opt}");
    }

    #[test]
    fn unweighted_family_verifies_k2() {
        let fam = UnweightedMaxIsGapFamily::new(2, 3);
        let report = verify_family(&fam, &curated_pair_inputs(2)).expect("Theorem 4.1");
        assert_eq!(report.n, 104);
    }

    #[test]
    fn unweighted_gap_matches_weighted() {
        let fam = UnweightedMaxIsGapFamily::new(2, 3);
        let mut hit = BitString::zeros(4);
        hit.set_pair(2, 0, 0, true);
        let g = fam.build(&hit, &hit);
        assert_eq!(
            independence_number(&g),
            fam.weighted().yes_weight() as usize
        );
        let g0 = fam.build(&BitString::zeros(4), &BitString::zeros(4));
        assert!(independence_number(&g0) <= fam.weighted().no_weight() as usize);
    }

    #[test]
    fn linear_family_verifies_k2() {
        let fam = LinearMaxIsGapFamily::new(2, 3);
        let k = 2;
        let zero = BitString::zeros(k);
        let one = BitString::ones(k);
        let hit = BitString::from_indices(k, &[1]);
        let miss_x = BitString::from_indices(k, &[0]);
        let inputs = vec![
            (zero.clone(), zero.clone()),
            (one.clone(), one.clone()),
            (hit.clone(), hit.clone()),
            (miss_x.clone(), hit.clone()),
            (hit.clone(), zero.clone()),
            (one.clone(), hit.clone()),
            (zero, one),
        ];
        let report = verify_family(&fam, &inputs).expect("Theorem 4.2");
        assert_eq!(report.n, 58);
    }

    /// Definition 1.1 on every pair of the `K = 4` cube (`K = 2` for the
    /// linear family), beyond the curated pairs above.
    #[test]
    fn figure_4_families_verify_exhaustively() {
        let cube = all_inputs(4);
        for (ell, n) in [(3, 88), (5, 176)] {
            let fam = WeightedMaxIsGapFamily::new(2, ell);
            let report = verify_family(&fam, &cube).expect("Lemma 4.1");
            assert_eq!((report.n, report.pairs_checked), (n, 256));
        }
        let fam = UnweightedMaxIsGapFamily::new(2, 3);
        let report = verify_family(&fam, &cube).expect("Theorem 4.1");
        assert_eq!((report.n, report.pairs_checked), (104, 256));
        let fam = LinearMaxIsGapFamily::new(2, 3);
        let report = verify_family(&fam, &all_inputs(2)).expect("Theorem 4.2");
        assert_eq!((report.n, report.pairs_checked), (58, 16));
    }

    #[test]
    fn linear_gap_sizes() {
        let fam = LinearMaxIsGapFamily::new(2, 3);
        let hit = BitString::from_indices(2, &[0]);
        let g = fam.build(&hit, &hit);
        assert_eq!(independence_number(&g), fam.yes_size());
        let g0 = fam.build(&hit, &BitString::from_indices(2, &[1]));
        assert!(independence_number(&g0) <= fam.no_size());
    }

    #[test]
    fn approximation_ratio_of_the_gap() {
        // The measured gap ratio approaches 7/8 as ℓ grows relative to t.
        for (ell, bound) in [(3usize, 0.93), (6, 0.91)] {
            let fam = WeightedMaxIsGapFamily::new(2, ell);
            let ratio = fam.no_weight() as f64 / fam.yes_weight() as f64;
            assert!(ratio < bound, "ℓ={ell}: ratio {ratio}");
            assert!(ratio > 0.875, "ratio can only approach 7/8 from above");
        }
    }
}

#[cfg(test)]
mod large_tests {
    use super::*;
    use crate::family::{disjoint_pair, intersecting_pair};
    use congest_solvers::mis::{max_weight_independent_set_with_stats, SetSolution};
    use congest_solvers::SearchStats;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Solves `g` exactly, checks the returned witness against the graph,
    /// and pins the branch-and-bound counters (wall time zeroed): a change
    /// to the search tree must show up here, not only as a new time.
    fn solve_checked(g: &Graph, pinned: SearchStats) -> Weight {
        let (SetSolution { weight, vertices }, mut stats) =
            max_weight_independent_set_with_stats(g);
        assert!(g.is_independent_set(&vertices));
        assert_eq!(g.node_set_weight(&vertices), weight);
        stats.elapsed_micros = 0;
        assert_eq!(stats, pinned);
        weight
    }

    fn pinned(nodes: u64, prunes: u64, backtracks: u64, incumbents: u64) -> SearchStats {
        SearchStats {
            nodes,
            prunes,
            backtracks,
            incumbents,
            bound_cutoffs: prunes,
            ..SearchStats::default()
        }
    }

    /// With the 256-vertex MWIS engine, larger ℓ instances are exactly
    /// decidable and the measured ratio approaches 7/8 from above.
    #[test]
    fn ratio_tightens_at_ell_five() {
        let fam = WeightedMaxIsGapFamily::new(2, 5); // q = 7, n = 176
        assert!(fam.num_vertices() <= 256);
        let mut hitx = BitString::zeros(4);
        hitx.set_pair(2, 1, 1, true);
        let g = fam.build(&hitx, &hitx);
        let yes = solve_checked(&g, pinned(29, 27, 1, 1));
        assert_eq!(yes, fam.yes_weight()); // 8·5 + 4 = 44
        let g0 = fam.build(&BitString::zeros(4), &BitString::ones(4));
        let no = solve_checked(&g0, pinned(28, 26, 1, 1));
        assert!(no <= fam.no_weight()); // ≤ 7·5 + 4 = 39
        let ratio = no as f64 / yes as f64;
        assert!(ratio <= 39.0 / 44.0 + 1e-9, "ratio {ratio}");
        // Tighter than the ℓ = 3 instance's 25/28.
        assert!(ratio < 25.0 / 28.0);
    }

    /// `g` with vertex `v` renamed `perm[v]`, weights carried along.
    fn relabeled(g: &Graph, perm: &[NodeId]) -> Graph {
        let mut h = Graph::new(g.num_nodes());
        for (u, v, _) in g.edges() {
            h.add_edge(perm[u], perm[v]);
        }
        for v in 0..g.num_nodes() {
            h.set_node_weight(perm[v], g.node_weight(v));
        }
        h
    }

    /// The report's E10–E12 instances: their optimum and the search
    /// nodes the degree order spends on them, and the same optimum under
    /// seeded relabelings, which reorder the ties between equal degrees.
    /// Those searches have a long tail: over 3,000 relabelings the `ℓ = 5`
    /// NO instance took a median of 148 nodes and at most 6,838. So at
    /// least half of each instance's eight must stay within 1,000 nodes
    /// and none may pass 10,000. A search in id order instead of degree
    /// order takes medians of about 25,000 (YES) and 50,000 (NO) nodes on
    /// relabeled `ℓ = 5` instances, so it fails here rather than showing
    /// only as a report thousands of times slower.
    #[test]
    fn report_instances_take_few_nodes_under_any_labeling() {
        // (k, ℓ, YES (weight, nodes), NO (weight, nodes)).
        let cases = [
            (2, 2, (20, 17), (18, 27)),
            (2, 3, (28, 21), (25, 34)),
            (2, 5, (44, 29), (39, 48)),
            (4, 2, (24, 21), (22, 34)),
        ];
        let mut rng = StdRng::seed_from_u64(43);
        for (k, ell, yes, no) in cases {
            let fam = WeightedMaxIsGapFamily::new(k, ell);
            for ((x, y), pin) in [(intersecting_pair(k), yes), (disjoint_pair(k), no)] {
                let g = fam.build(&x, &y);
                let (sol, stats) = max_weight_independent_set_with_stats(&g);
                assert_eq!((sol.weight, stats.nodes), pin, "k = {k}, ℓ = {ell}");
                let mut perm: Vec<NodeId> = (0..g.num_nodes()).collect();
                let mut nodes: Vec<u64> = (0..8)
                    .map(|trial| {
                        perm.shuffle(&mut rng);
                        let (sol, stats) =
                            max_weight_independent_set_with_stats(&relabeled(&g, &perm));
                        assert_eq!(sol.weight, pin.0, "k = {k}, ℓ = {ell}, relabeling {trial}");
                        stats.nodes
                    })
                    .collect();
                nodes.sort_unstable();
                assert!(
                    nodes[3] <= 1_000 && nodes[7] <= 10_000,
                    "k = {k}, ℓ = {ell}: {nodes:?}"
                );
            }
        }
    }
}
