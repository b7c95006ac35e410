//! Hardness of approximating Steiner-tree variants (Section 4.4,
//! Figure 6; Theorems 4.6–4.7), over the same covering-collection
//! substrate as the `k`-MDS gap.
//!
//! * **Node-weighted Steiner tree** (Theorem 4.6): the Figure 5 graph
//!   with weights 0 on `{a_j, b_j, a, b, R}`; terminals `{a_j} ∪ {b_j}`.
//!   A tree of weight 2 exists iff the inputs intersect (Lemma 4.5);
//!   otherwise every tree weighs more than `r`.
//! * **Directed Steiner tree** (Theorem 4.7): edges directed away from
//!   the root `R` with weight 1 on `(a, S_i)` / `(b, S̄_i)`, weight-`α`
//!   fallback edges `(a, a_j)` / `(b, b_j)`, and the input deciding which
//!   `(S_i, a_j)` edges exist at all (Alice's side only). Lemma 4.6 gives
//!   the same 2-versus-`r` gap.

use congest_codes::CoveringCollection;
use congest_comm::BitString;
use congest_graph::{DiGraph, Graph, NodeId, Weight};
use congest_solvers::steiner::{min_directed_steiner, min_node_weight_steiner};

use crate::LowerBoundFamily;

/// Shared vertex layout for the Figure 5/6 substrate. The `k`-MDS family
/// numbers its path-subdivision vertices after these.
#[derive(Debug, Clone)]
pub struct CoveringLayout {
    collection: CoveringCollection,
}

impl CoveringLayout {
    /// Wraps a verified collection.
    ///
    /// # Panics
    ///
    /// Panics if the collection fails verification or `r < 2`.
    pub fn new(collection: CoveringCollection) -> Self {
        assert!(collection.r() >= 2, "need covering parameter r >= 2");
        assert!(
            collection.verify_r_covering(),
            "collection must satisfy the r-covering property"
        );
        CoveringLayout { collection }
    }

    /// The collection.
    pub fn collection(&self) -> &CoveringCollection {
        &self.collection
    }

    /// `a_j`.
    pub fn a_elem(&self, j: usize) -> NodeId {
        assert!(j < self.collection.universe());
        j
    }
    /// `b_j`.
    pub fn b_elem(&self, j: usize) -> NodeId {
        assert!(j < self.collection.universe());
        self.collection.universe() + j
    }
    /// `S_i`.
    pub fn set_vertex(&self, i: usize) -> NodeId {
        assert!(i < self.collection.num_sets());
        2 * self.collection.universe() + i
    }
    /// `S̄_i`.
    pub fn cset_vertex(&self, i: usize) -> NodeId {
        assert!(i < self.collection.num_sets());
        2 * self.collection.universe() + self.collection.num_sets() + i
    }
    /// Anchor `a`.
    pub fn anchor_a(&self) -> NodeId {
        2 * self.collection.universe() + 2 * self.collection.num_sets()
    }
    /// Anchor `b`.
    pub fn anchor_b(&self) -> NodeId {
        self.anchor_a() + 1
    }
    /// Root `R`.
    pub fn root(&self) -> NodeId {
        self.anchor_a() + 2
    }

    /// Total vertex count.
    pub fn num_vertices(&self) -> usize {
        2 * self.collection.universe() + 2 * self.collection.num_sets() + 3
    }

    /// The terminals `{a_j} ∪ {b_j}`.
    pub fn terminals(&self) -> Vec<NodeId> {
        let l = self.collection.universe();
        (0..l)
            .map(|j| self.a_elem(j))
            .chain((0..l).map(|j| self.b_elem(j)))
            .collect()
    }

    /// Alice's side: `{a_j}`, `{S_i}`, `a`.
    pub fn alice_vertices(&self) -> Vec<NodeId> {
        let l = self.collection.universe();
        let t = self.collection.num_sets();
        let mut va: Vec<NodeId> = (0..l).map(|j| self.a_elem(j)).collect();
        va.extend((0..t).map(|i| self.set_vertex(i)));
        va.push(self.anchor_a());
        va
    }
}

/// The node-weighted Steiner gap family (Theorem 4.6).
#[derive(Debug, Clone)]
pub struct NodeWeightedSteinerFamily {
    layout: CoveringLayout,
    alpha: Weight,
}

impl NodeWeightedSteinerFamily {
    /// Over a verified covering collection.
    ///
    /// # Panics
    ///
    /// As for [`CoveringLayout::new`].
    pub fn new(collection: CoveringCollection) -> Self {
        let alpha = collection.r() as Weight + 1;
        NodeWeightedSteinerFamily {
            layout: CoveringLayout::new(collection),
            alpha,
        }
    }

    /// The layout.
    pub fn layout(&self) -> &CoveringLayout {
        &self.layout
    }
}

impl LowerBoundFamily for NodeWeightedSteinerFamily {
    type GraphType = Graph;

    fn name(&self) -> String {
        format!(
            "Node-weighted Steiner gap (Theorem 4.6), T = {}, ℓ = {}",
            self.layout.collection.num_sets(),
            self.layout.collection.universe()
        )
    }

    fn input_len(&self) -> usize {
        self.layout.collection.num_sets()
    }

    fn num_vertices(&self) -> usize {
        self.layout.num_vertices()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        self.layout.alice_vertices()
    }

    fn build(&self, x: &BitString, y: &BitString) -> Graph {
        let lay = &self.layout;
        let c = &lay.collection;
        let mut g = Graph::new(lay.num_vertices());
        for j in 0..c.universe() {
            g.add_edge(lay.a_elem(j), lay.b_elem(j));
            g.set_node_weight(lay.a_elem(j), 0);
            g.set_node_weight(lay.b_elem(j), 0);
        }
        for i in 0..c.num_sets() {
            g.add_edge(lay.anchor_a(), lay.set_vertex(i));
            g.add_edge(lay.anchor_b(), lay.cset_vertex(i));
            for j in 0..c.universe() {
                if c.contains(i, j) {
                    g.add_edge(lay.set_vertex(i), lay.a_elem(j));
                }
                if c.complement_contains(i, j) {
                    g.add_edge(lay.cset_vertex(i), lay.b_elem(j));
                }
            }
            g.set_node_weight(lay.set_vertex(i), if x.get(i) { 1 } else { self.alpha });
            g.set_node_weight(lay.cset_vertex(i), if y.get(i) { 1 } else { self.alpha });
        }
        for v in [lay.anchor_a(), lay.anchor_b(), lay.root()] {
            g.set_node_weight(v, 0);
        }
        g.add_edge(lay.root(), lay.anchor_a());
        g.add_edge(lay.root(), lay.anchor_b());
        g
    }

    /// Lemma 4.5: a Steiner tree of node weight ≤ 2 exists iff the
    /// inputs intersect.
    fn predicate(&self, g: &Graph) -> bool {
        match min_node_weight_steiner(g, &self.layout.terminals()) {
            Some(w) => w <= 2,
            None => false,
        }
    }
}

/// The directed Steiner gap family (Theorem 4.7, Figure 6).
#[derive(Debug, Clone)]
pub struct DirectedSteinerFamily {
    layout: CoveringLayout,
    alpha: Weight,
}

impl DirectedSteinerFamily {
    /// Over a verified covering collection.
    ///
    /// # Panics
    ///
    /// As for [`CoveringLayout::new`].
    pub fn new(collection: CoveringCollection) -> Self {
        let alpha = collection.r() as Weight + 1;
        DirectedSteinerFamily {
            layout: CoveringLayout::new(collection),
            alpha,
        }
    }

    /// The layout.
    pub fn layout(&self) -> &CoveringLayout {
        &self.layout
    }
}

impl LowerBoundFamily for DirectedSteinerFamily {
    type GraphType = DiGraph;

    fn name(&self) -> String {
        format!(
            "Directed Steiner gap (Theorem 4.7), T = {}, ℓ = {}",
            self.layout.collection.num_sets(),
            self.layout.collection.universe()
        )
    }

    fn input_len(&self) -> usize {
        self.layout.collection.num_sets()
    }

    fn num_vertices(&self) -> usize {
        self.layout.num_vertices()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        self.layout.alice_vertices()
    }

    fn build(&self, x: &BitString, y: &BitString) -> DiGraph {
        let lay = &self.layout;
        let c = &lay.collection;
        let mut g = DiGraph::new(lay.num_vertices());
        g.add_weighted_edge(lay.root(), lay.anchor_a(), 0);
        g.add_weighted_edge(lay.root(), lay.anchor_b(), 0);
        for j in 0..c.universe() {
            g.add_weighted_edge(lay.a_elem(j), lay.b_elem(j), 0);
            g.add_weighted_edge(lay.b_elem(j), lay.a_elem(j), 0);
            // Fallback edges guaranteeing feasibility for all inputs.
            g.add_weighted_edge(lay.anchor_a(), lay.a_elem(j), self.alpha);
            g.add_weighted_edge(lay.anchor_b(), lay.b_elem(j), self.alpha);
        }
        for i in 0..c.num_sets() {
            g.add_weighted_edge(lay.anchor_a(), lay.set_vertex(i), 1);
            g.add_weighted_edge(lay.anchor_b(), lay.cset_vertex(i), 1);
            for j in 0..c.universe() {
                if c.contains(i, j) && x.get(i) {
                    g.add_weighted_edge(lay.set_vertex(i), lay.a_elem(j), 0);
                }
                if c.complement_contains(i, j) && y.get(i) {
                    g.add_weighted_edge(lay.cset_vertex(i), lay.b_elem(j), 0);
                }
            }
        }
        g
    }

    /// Lemma 4.6: a directed Steiner tree of cost ≤ 2 exists iff the
    /// inputs intersect.
    fn predicate(&self, g: &DiGraph) -> bool {
        match min_directed_steiner(g, self.layout.root(), &self.layout.terminals()) {
            Some(w) => w <= 2,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::verify_family;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_collection() -> CoveringCollection {
        // ℓ = 6 keeps the terminal count at 12 for the Dreyfus–Wagner
        // solvers (3^12 subsets).
        let mut rng = StdRng::seed_from_u64(77);
        // Density 1/2 maximizes the worst-case pair-miss probability
        // (all of (1-p)², p(1-p), p² equal 1/4).
        CoveringCollection::random_verified(5, 6, 2, 0.5, 500_000, &mut rng)
            .expect("2-covering collection at T=5, ℓ=6")
    }

    fn inputs(t: usize) -> Vec<(BitString, BitString)> {
        let zero = BitString::zeros(t);
        let one = BitString::ones(t);
        let hit = BitString::from_indices(t, &[1]);
        let x_half = BitString::from_indices(t, &[0, 2]);
        let y_half = BitString::from_indices(t, &[1, 3]);
        vec![
            (zero.clone(), zero.clone()),
            (one.clone(), one.clone()),
            (hit.clone(), hit.clone()),
            (x_half.clone(), y_half.clone()),
            (hit.clone(), zero.clone()),
            (zero, one),
        ]
    }

    #[test]
    fn node_weighted_family_verifies() {
        let fam = NodeWeightedSteinerFamily::new(small_collection());
        let report = verify_family(&fam, &inputs(5)).expect("Lemma 4.5");
        assert_eq!(report.cut_size(), 7); // ℓ element-pair edges + (R, a)
    }

    #[test]
    fn directed_family_verifies() {
        let fam = DirectedSteinerFamily::new(small_collection());
        let report = verify_family(&fam, &inputs(5)).expect("Lemma 4.6");
        assert_eq!(report.cut_size(), 7);
    }

    #[test]
    fn node_weighted_gap_values() {
        let fam = NodeWeightedSteinerFamily::new(small_collection());
        let t = 5;
        let hit = BitString::from_indices(t, &[2]);
        let g = fam.build(&hit, &hit);
        assert_eq!(
            min_node_weight_steiner(&g, &fam.layout().terminals()),
            Some(2)
        );
        let g0 = fam.build(
            &BitString::from_indices(t, &[0]),
            &BitString::from_indices(t, &[1]),
        );
        let opt = min_node_weight_steiner(&g0, &fam.layout().terminals()).expect("feasible");
        assert!(opt > fam.layout().collection().r() as Weight);
    }

    #[test]
    fn directed_gap_values() {
        let fam = DirectedSteinerFamily::new(small_collection());
        let t = 5;
        let hit = BitString::from_indices(t, &[4]);
        let g = fam.build(&hit, &hit);
        assert_eq!(
            min_directed_steiner(&g, fam.layout().root(), &fam.layout().terminals()),
            Some(2)
        );
        // Disjoint: still feasible thanks to the fallback edges, but
        // strictly more expensive than r.
        let g0 = fam.build(&BitString::zeros(t), &BitString::zeros(t));
        let opt = min_directed_steiner(&g0, fam.layout().root(), &fam.layout().terminals())
            .expect("fallback edges keep it feasible");
        assert!(opt > fam.layout().collection().r() as Weight);
    }
}
