//! Hardness of approximating weighted `k`-MDS (Sections 4.2–4.3,
//! Figure 5; Theorems 4.4–4.5).
//!
//! Built over an [`CoveringCollection`] with the `r`-covering property:
//! element pairs `(a_j, b_j)` joined by an edge, set vertices `S_i`
//! (adjacent to `a_j` for `j ∈ S_i`) and `S̄_i` (adjacent to `b_j` for
//! `j ∉ S_i`), anchors `a, b` and a free root `R`. Inputs only change
//! *node weights*: `S_i` costs 1 if `x_i = 1` and `α > r` otherwise
//! (symmetrically for `S̄_i` and `y`).
//!
//! **Lemma 4.3**: if the inputs intersect at `i`, `{S_i, S̄_i}` (+ the
//! free `R`) is a 2-dominating set of weight 2; if they are disjoint,
//! every 2-dominating set weighs more than `r` — a `Θ(log ℓ)`
//! multiplicative gap, which is what rules out `O(log n)`-approximations.
//!
//! For `k > 2` (Theorem 4.5), each set–element edge is subdivided into a
//! path of `k-1` edges through fresh weight-`α` vertices; the same
//! argument gives the same gap for `k`-domination.

use congest_codes::CoveringCollection;
use congest_comm::BitString;
use congest_graph::{Graph, NodeId, Weight};
use congest_solvers::mds::min_weight_k_dominating_set;

use crate::steiner_variants::CoveringLayout;
use crate::LowerBoundFamily;

/// The Figure 5 family for `k`-MDS (`k ≥ 2`).
#[derive(Debug, Clone)]
pub struct KmdsFamily {
    layout: CoveringLayout,
    k: usize,
    alpha: Weight,
    /// Path interior vertices: `interior[(side, i, j)] -> Vec<NodeId>`.
    a_paths: Vec<Vec<Vec<NodeId>>>,
    b_paths: Vec<Vec<Vec<NodeId>>>,
    n: usize,
}

impl KmdsFamily {
    /// Creates the family over a verified covering collection for
    /// `k`-domination.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, or the collection fails its own `r`-covering
    /// verification, or `r < 2`.
    pub fn new(collection: CoveringCollection, k: usize) -> Self {
        assert!(k >= 2, "k-MDS needs k >= 2");
        let layout = CoveringLayout::new(collection);
        let c = layout.collection();
        let alpha = c.r() as Weight + 1;
        let t = c.num_sets();
        let l = c.universe();
        // Path interiors are numbered after the layout's vertices.
        let mut n = layout.num_vertices();
        let mut a_paths = vec![vec![Vec::new(); l]; t];
        let mut b_paths = vec![vec![Vec::new(); l]; t];
        for i in 0..t {
            for j in 0..l {
                if c.contains(i, j) {
                    for _ in 0..k.saturating_sub(2) {
                        a_paths[i][j].push(n);
                        n += 1;
                    }
                }
                if c.complement_contains(i, j) {
                    for _ in 0..k.saturating_sub(2) {
                        b_paths[i][j].push(n);
                        n += 1;
                    }
                }
            }
        }
        KmdsFamily {
            layout,
            k,
            alpha,
            a_paths,
            b_paths,
            n,
        }
    }

    /// The Figure 5 vertex layout (element, set, anchor and root ids).
    pub fn layout(&self) -> &CoveringLayout {
        &self.layout
    }

    /// The domination radius `k`.
    pub fn radius(&self) -> usize {
        self.k
    }

    /// The heavy weight `α = r + 1`.
    pub fn alpha(&self) -> Weight {
        self.alpha
    }

    fn add_path(g: &mut Graph, from: NodeId, interior: &[NodeId], to: NodeId, w: Weight) {
        let mut prev = from;
        for &v in interior {
            g.add_edge(prev, v);
            g.set_node_weight(v, w);
            prev = v;
        }
        g.add_edge(prev, to);
    }

    /// The fixed graph (edges never depend on inputs; only weights do).
    pub fn fixed_graph(&self) -> Graph {
        let lay = &self.layout;
        let c = lay.collection();
        let mut g = Graph::new(self.n);
        for j in 0..c.universe() {
            g.add_edge(lay.a_elem(j), lay.b_elem(j));
            g.set_node_weight(lay.a_elem(j), self.alpha);
            g.set_node_weight(lay.b_elem(j), self.alpha);
        }
        for i in 0..c.num_sets() {
            g.add_edge(lay.anchor_a(), lay.set_vertex(i));
            g.add_edge(lay.anchor_b(), lay.cset_vertex(i));
            for j in 0..c.universe() {
                if c.contains(i, j) {
                    Self::add_path(
                        &mut g,
                        lay.set_vertex(i),
                        &self.a_paths[i][j],
                        lay.a_elem(j),
                        self.alpha,
                    );
                }
                if c.complement_contains(i, j) {
                    Self::add_path(
                        &mut g,
                        lay.cset_vertex(i),
                        &self.b_paths[i][j],
                        lay.b_elem(j),
                        self.alpha,
                    );
                }
            }
        }
        g.set_node_weight(lay.anchor_a(), self.alpha);
        g.set_node_weight(lay.anchor_b(), self.alpha);
        g.add_edge(lay.root(), lay.anchor_a());
        g.add_edge(lay.root(), lay.anchor_b());
        g.set_node_weight(lay.root(), 0);
        g
    }
}

impl LowerBoundFamily for KmdsFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        let c = self.layout.collection();
        format!(
            "Weighted {}-MDS gap (Theorems 4.4/4.5), T = {}, ℓ = {}, r = {}",
            self.k,
            c.num_sets(),
            c.universe(),
            c.r()
        )
    }

    fn input_len(&self) -> usize {
        self.layout.collection().num_sets()
    }

    fn num_vertices(&self) -> usize {
        self.n
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        let mut va = self.layout.alice_vertices();
        for paths in &self.a_paths {
            for path in paths {
                va.extend(path.iter().copied());
            }
        }
        va
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        let t = self.input_len();
        assert_eq!(x.len(), t, "x has wrong length");
        assert_eq!(y.len(), t, "y has wrong length");
        let lay = &self.layout;
        let mut g = self.fixed_graph();
        for i in 0..t {
            g.set_node_weight(lay.set_vertex(i), if x.get(i) { 1 } else { self.alpha });
            g.set_node_weight(lay.cset_vertex(i), if y.get(i) { 1 } else { self.alpha });
        }
        g
    }

    /// Lemma 4.3 / 4.4: a `k`-dominating set of weight ≤ 2 exists iff the
    /// inputs intersect.
    fn predicate(&self, g: &Graph) -> bool {
        min_weight_k_dominating_set(g, self.k).weight <= 2
    }
}

/// The Lemma 4.3 witness: `{R, S_i, S̄_i}` for an intersecting index `i`.
pub fn witness_k_dominating_set(fam: &KmdsFamily, i: usize) -> Vec<NodeId> {
    let lay = fam.layout();
    vec![lay.root(), lay.set_vertex(i), lay.cset_vertex(i)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::verify_family;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn collection() -> CoveringCollection {
        let mut rng = StdRng::seed_from_u64(2024);
        CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
            .expect("2-covering collection at T=6, ℓ=10")
    }

    fn inputs(t: usize) -> Vec<(BitString, BitString)> {
        let zero = BitString::zeros(t);
        let one = BitString::ones(t);
        let hit = BitString::from_indices(t, &[t - 1]);
        let x_half = BitString::from_indices(t, &[0, 1]);
        let y_half = BitString::from_indices(t, &[2, 3]);
        vec![
            (zero.clone(), zero.clone()),
            (one.clone(), one.clone()),
            (zero.clone(), one.clone()),
            (hit.clone(), hit.clone()),
            (x_half.clone(), y_half.clone()),
            (hit.clone(), zero.clone()),
            (x_half, one),
            (zero, y_half),
        ]
    }

    #[test]
    fn two_mds_family_verifies() {
        let fam = KmdsFamily::new(collection(), 2);
        let report = verify_family(&fam, &inputs(6)).expect("Lemma 4.3");
        // Cut: the ℓ element-pair edges plus (R, a).
        assert_eq!(report.cut_size(), 11);
        assert_eq!(report.n, 2 * 10 + 2 * 6 + 3);
    }

    #[test]
    fn three_mds_family_verifies() {
        let fam = KmdsFamily::new(collection(), 3);
        let report = verify_family(&fam, &inputs(6)).expect("Lemma 4.4");
        assert_eq!(report.cut_size(), 11);
        assert!(report.n > 2 * 10 + 2 * 6 + 3, "paths add interior vertices");
    }

    #[test]
    fn witness_dominates_at_weight_two() {
        let fam = KmdsFamily::new(collection(), 2);
        let t = 6;
        let hit = BitString::from_indices(t, &[3]);
        let g = fam.build(&hit, &hit);
        let w = witness_k_dominating_set(&fam, 3);
        assert!(g.is_k_dominating_set(&w, 2));
        assert_eq!(g.node_set_weight(&w), 2);
    }

    #[test]
    fn disjoint_inputs_cost_more_than_r() {
        let fam = KmdsFamily::new(collection(), 2);
        let t = 6;
        let x = BitString::from_indices(t, &[0, 2, 4]);
        let y = BitString::from_indices(t, &[1, 3, 5]);
        let g = fam.build(&x, &y);
        let opt = min_weight_k_dominating_set(&g, 2).weight;
        assert!(
            opt > fam.layout().collection().r() as Weight,
            "gap: opt {opt} vs r {}",
            fam.layout().collection().r()
        );
    }

    #[test]
    fn gap_ratio_is_at_least_r_over_two() {
        // The inapproximability ratio the family certifies.
        let fam = KmdsFamily::new(collection(), 2);
        let ratio = (fam.layout().collection().r() as f64 + 1.0) / 2.0;
        assert!(ratio >= 1.5);
    }
}
