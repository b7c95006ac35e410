//! Compressed-sparse-row adjacency with dense edge identifiers — the
//! flat, cache-friendly view the simulator's hot path runs on.
//!
//! A [`Csr`] is an immutable snapshot of a [`Graph`]: adjacency flattened
//! into one `targets` array indexed by per-node `offsets`, every
//! undirected edge assigned a dense id in `0..m`, and a sorted copy of
//! each neighborhood for `O(log deg)` membership/edge-id lookup. The
//! insertion-order `neighbors` slices are byte-identical to
//! [`Graph::neighbors`], so code switching between the two views sees the
//! same neighbor enumeration order. The snapshot is read straight off the
//! graph's sorted, weighted rows: building it hashes nothing.
//!
//! Every directed edge `(u, v)` also has a *slot*: the position of `v` in
//! `u`'s sorted row, a flat index in `0..2m`. Node `v`'s slots are the
//! contiguous range `offsets[v]..offsets[v + 1]`, so the slots of a node
//! range are contiguous too ([`Csr::slots`]). [`Csr::slot`] finds one by
//! searching only the first endpoint's row, and [`Csr::slot_edge_id`]
//! maps it to the undirected edge id.
//!
//! The payoff downstream: the simulator resolves each send in the
//! sender's own row and keeps its per-edge counters in flat arrays
//! indexed by slot or edge id instead of a
//! `HashMap<(NodeId, NodeId), u64>` — no hashing per message.

use crate::{Graph, NodeId, Weight};

/// Dense undirected-edge identifier in `0..m`, assigned by
/// [`Csr::from_graph`] in lexicographic `(min, max)` endpoint order.
pub type EdgeId = u32;

/// An immutable CSR snapshot of a [`Graph`]. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s slices; length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened adjacency in the graph's insertion order.
    targets: Vec<NodeId>,
    /// Flattened adjacency in ascending neighbor order (binary-searched).
    sorted_targets: Vec<NodeId>,
    /// Edge id of each `sorted_targets` entry.
    sorted_edge_ids: Vec<EdgeId>,
    /// Per edge id: its endpoints as `(min, max)`.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Per edge id: its weight.
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds the CSR snapshot of `graph`. `O(n log Δ + m)`, with no
    /// hashing and no per-edge search.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` edges (edge ids are
    /// dense `u32`).
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_edges();
        assert!(
            u32::try_from(m).is_ok(),
            "graph has {m} edges; CSR edge ids are u32"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut targets = Vec::with_capacity(2 * m);
        for v in 0..n {
            targets.extend_from_slice(graph.neighbors(v));
            offsets.push(targets.len());
        }

        // Assign edge ids in lexicographic (min, max) order: walk nodes
        // ascending, giving each sorted neighbor `v` above `u` the next id.
        // The id goes to `u`'s slot and to `cursor[v]`, the next unfilled
        // slot among `v`'s lower neighbors: those arrive in ascending `u`,
        // which is exactly their order in `v`'s sorted row.
        let mut endpoints = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        let mut sorted_targets = Vec::with_capacity(targets.len());
        let mut sorted_edge_ids: Vec<EdgeId> = vec![0; targets.len()];
        let mut cursor = offsets[..n].to_vec();
        for u in 0..n {
            let row = graph.sorted_neighbors(u);
            sorted_targets.extend(row.iter().map(|&(v, _)| v));
            let above = row.partition_point(|&(v, _)| v < u);
            debug_assert_eq!(cursor[u], offsets[u] + above, "lower slots filled");
            for (slot, &(v, w)) in (offsets[u]..).zip(row).skip(above) {
                let id = endpoints.len() as EdgeId;
                endpoints.push((u, v));
                weights.push(w);
                sorted_edge_ids[slot] = id;
                sorted_edge_ids[cursor[v]] = id;
                cursor[v] += 1;
            }
        }
        debug_assert_eq!(endpoints.len(), m);

        Csr {
            offsets,
            targets,
            sorted_targets,
            sorted_edge_ids,
            endpoints,
            weights,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (also the exclusive upper bound on
    /// [`EdgeId`]s).
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The neighbors of `v`, in the source graph's insertion order
    /// (identical slice content to [`Graph::neighbors`]).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The edge id of `(u, v)`, if the edge exists. `O(log min-deg)`:
    /// binary search over the sorted neighborhood of the lower-degree
    /// endpoint. Out-of-range or self queries return `None`.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let n = self.num_nodes();
        if u >= n || v >= n || u == v {
            return None;
        }
        let (probe, key) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.slot(probe, key).map(|s| self.slot_edge_id(s))
    }

    /// The slot of `v` in `u`'s sorted row (see the module docs), or
    /// `None` when `v` is not a neighbor of `u` — which includes `v == u`
    /// and any `v >= n`. `O(log deg(u))`, reading `u`'s row only.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn slot(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        self.sorted_targets[lo..hi]
            .binary_search(&v)
            .ok()
            .map(|i| lo + i)
    }

    /// The undirected edge id of slot `slot`: both slots of an edge map
    /// to the same id.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 2m`.
    #[inline]
    pub fn slot_edge_id(&self, slot: usize) -> EdgeId {
        self.sorted_edge_ids[slot]
    }

    /// The slots of the node range `nodes`: `offsets[lo]..offsets[hi]`,
    /// the rows of `lo..hi` laid end to end.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.start > n` or `nodes.end > n`.
    pub fn slots(&self, nodes: std::ops::Range<NodeId>) -> std::ops::Range<usize> {
        self.offsets[nodes.start]..self.offsets[nodes.end]
    }

    /// Whether `(u, v)` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// The `(min, max)` endpoints of edge `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[id as usize]
    }

    /// The weight of edge `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn weight(&self, id: EdgeId) -> Weight {
        self.weights[id as usize]
    }

    /// The weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.edge_id(u, v).map(|id| self.weight(id))
    }

    /// Iterates `(u, v, w)` with `u < v` in edge-id order, which is
    /// ascending `(u, v)` — the same sequence as [`Graph::edges`].
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.endpoints
            .iter()
            .zip(&self.weights)
            .map(|(&(u, v), &w)| (u, v, w))
    }

    /// Partitions the node set into `k` contiguous id ranges, balancing
    /// the per-shard load `Σ (degree + 1)` so shards of a skewed graph
    /// still carry similar message work. Deterministic: the bounds depend
    /// only on the degree sequence. `O(n + k)`.
    ///
    /// Ranges may be empty when `k > n`, so any worker count is valid.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn partition(&self, k: usize) -> NodePartition {
        assert!(k >= 1, "a partition needs at least one shard");
        let n = self.num_nodes();
        let total: u64 = (0..n).map(|v| self.degree(v) as u64 + 1).sum();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0);
        let mut acc = 0u64;
        let mut v = 0usize;
        for s in 1..k {
            // Cut where the load prefix first reaches s/k of the total;
            // a monotone walk, so bounds are non-decreasing.
            let target = total * s as u64 / k as u64;
            while v < n && acc < target {
                acc += self.degree(v) as u64 + 1;
                v += 1;
            }
            bounds.push(v);
        }
        bounds.push(n);

        let mut shard_of = vec![0u32; n];
        for s in 0..k {
            for slot in &mut shard_of[bounds[s]..bounds[s + 1]] {
                *slot = s as u32;
            }
        }
        NodePartition { bounds, shard_of }
    }
}

/// A contiguous node-range partition of a [`Csr`], produced by
/// [`Csr::partition`].
///
/// Shard `s` owns the node ids `bounds[s]..bounds[s + 1]`; because the
/// ranges are contiguous and ascending, `u < v` implies
/// `shard_of(u) <= shard_of(v)` — the property the sharded simulator's
/// deterministic merge order relies on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePartition {
    /// `bounds[s]..bounds[s + 1]` is shard `s`'s node range; length
    /// `k + 1`, `bounds[0] == 0`, `bounds[k] == n`.
    bounds: Vec<NodeId>,
    /// Per node: the shard that owns it (dense `O(1)` routing lookup).
    shard_of: Vec<u32>,
}

impl NodePartition {
    /// Number of shards `k`.
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The node-id range owned by shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= k`.
    pub fn range(&self, s: usize) -> std::ops::Range<NodeId> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// The shard bounds: `k + 1` non-decreasing node ids from `0` to `n`.
    pub fn bounds(&self) -> &[NodeId] {
        &self.bounds
    }

    /// The shard owning node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v] as usize
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn sample_graph() -> Graph {
        // Deliberately out-of-order insertions to exercise the split
        // between insertion-order and sorted views.
        let mut g = Graph::new(6);
        g.add_weighted_edge(4, 1, 7);
        g.add_edge(0, 5);
        g.add_edge(0, 1);
        g.add_weighted_edge(2, 0, -3);
        g.add_edge(3, 4);
        g.add_edge(5, 4);
        g
    }

    #[test]
    fn csr_matches_graph_queries() {
        let g = sample_graph();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.num_nodes(), g.num_nodes());
        assert_eq!(csr.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() {
            assert_eq!(csr.neighbors(u), g.neighbors(u), "node {u}");
            assert_eq!(csr.degree(u), g.degree(u));
            for v in 0..g.num_nodes() {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "({u}, {v})");
                assert_eq!(csr.edge_weight(u, v), g.edge_weight(u, v));
            }
        }
    }

    #[test]
    fn edge_ids_are_dense_and_lexicographic() {
        let g = sample_graph();
        let csr = Csr::from_graph(&g);
        let edges: Vec<_> = csr.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        // Edge-id order is lexicographic on (min, max).
        let keys: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // Ids round-trip through endpoints/weight.
        for (id, &(u, v, w)) in edges.iter().enumerate() {
            let id = id as EdgeId;
            assert_eq!(csr.edge_id(u, v), Some(id));
            assert_eq!(csr.edge_id(v, u), Some(id), "order-insensitive lookup");
            assert_eq!(csr.endpoints(id), (u, v));
            assert_eq!(csr.weight(id), w);
        }
    }

    /// A seeded weighted `G(n, p)` built through every mutation path:
    /// pairs inserted in shuffled order and random orientation, some
    /// re-inserted with a new weight, some removed and some of those
    /// re-added, plus trailing isolated nodes. Returns the graph and the
    /// edge map it should hold, keyed by `(min, max)`.
    fn mutated_gnp(seed: u64) -> (Graph, BTreeMap<(NodeId, NodeId), Weight>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..48usize);
        let p = [0.04, 0.12, 0.35][seed as usize % 3];
        let mut pairs: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(p))
            .collect();
        pairs.shuffle(&mut rng);
        let mut g = Graph::new(n);
        let mut model = BTreeMap::new();
        let add = |g: &mut Graph,
                   model: &mut BTreeMap<_, _>,
                   rng: &mut StdRng,
                   (u, v): (NodeId, NodeId)| {
            let w = rng.gen_range(-20..=20i64);
            if rng.gen_bool(0.5) {
                g.add_weighted_edge(u, v, w);
            } else {
                g.add_weighted_edge(v, u, w);
            }
            model.insert((u, v), w);
        };
        for &e in &pairs {
            add(&mut g, &mut model, &mut rng, e);
        }
        for &e in &pairs {
            if rng.gen_bool(0.3) {
                add(&mut g, &mut model, &mut rng, e);
            }
        }
        for &(u, v) in &pairs {
            if rng.gen_bool(0.25) {
                let (a, b) = if rng.gen_bool(0.5) { (u, v) } else { (v, u) };
                assert_eq!(g.remove_edge(a, b), model.remove(&(u, v)));
                if rng.gen_bool(0.5) {
                    add(&mut g, &mut model, &mut rng, (u, v));
                }
            }
        }
        for _ in 0..rng.gen_range(0..3usize) {
            g.add_node();
        }
        (g, model)
    }

    #[test]
    fn cursor_ids_match_a_sorted_reference() {
        for seed in 0..30 {
            let (g, model) = mutated_gnp(seed);
            let n = g.num_nodes();
            let reference: Vec<(NodeId, NodeId, Weight)> =
                model.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
            assert_eq!(g.edges().collect::<Vec<_>>(), reference, "seed {seed}");
            assert_eq!(g.num_edges(), reference.len(), "seed {seed}");

            let csr = Csr::from_graph(&g);
            assert_eq!(csr.num_nodes(), n);
            assert_eq!(csr.num_edges(), reference.len(), "seed {seed}");
            let id_of: BTreeMap<(NodeId, NodeId), EdgeId> = reference
                .iter()
                .enumerate()
                .map(|(id, &(u, v, _))| ((u, v), id as EdgeId))
                .collect();
            for u in 0..n {
                assert_eq!(csr.neighbors(u), g.neighbors(u), "seed {seed}, node {u}");
                for v in 0..n {
                    let want = id_of.get(&(u.min(v), u.max(v))).copied();
                    assert_eq!(csr.edge_id(u, v), want, "seed {seed}, ({u}, {v})");
                    assert_eq!(csr.edge_id(v, u), want, "seed {seed}, ({v}, {u})");
                }
            }
            for (id, &(u, v, w)) in reference.iter().enumerate() {
                let id = id as EdgeId;
                assert_eq!(csr.endpoints(id), (u, v), "seed {seed}");
                assert_eq!(csr.weight(id), w, "seed {seed}");
                assert_eq!(g.edge_weight(v, u), Some(w), "seed {seed}");
            }
        }
    }

    #[test]
    fn slots_index_the_first_endpoints_row() {
        for seed in 0..30 {
            let (g, _) = mutated_gnp(seed);
            let csr = Csr::from_graph(&g);
            let n = g.num_nodes();
            assert_eq!(csr.slots(0..n), 0..2 * g.num_edges(), "seed {seed}");
            for u in 0..n {
                let row = csr.slots(u..u + 1);
                assert_eq!(row.len(), csr.degree(u), "seed {seed}");
                for v in 0..n + 2 {
                    let slot = csr.slot(u, v);
                    assert_eq!(
                        slot.is_some(),
                        csr.has_edge(u, v),
                        "seed {seed}, ({u}, {v})"
                    );
                    if let Some(s) = slot {
                        assert!(row.contains(&s), "seed {seed}, ({u}, {v})");
                        assert_eq!(Some(csr.slot_edge_id(s)), csr.edge_id(u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_lookups_are_none() {
        let csr = Csr::from_graph(&sample_graph());
        assert_eq!(csr.edge_id(0, 0), None);
        assert_eq!(csr.edge_id(0, 99), None);
        assert_eq!(csr.edge_id(99, 0), None);
        assert_eq!(csr.slot(0, 0), None);
        assert_eq!(csr.slot(0, 99), None);
        assert!(!csr.has_edge(1, 2));
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let csr = Csr::from_graph(&Graph::new(0));
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
        let csr = Csr::from_graph(&Graph::new(4));
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.neighbors(2), &[] as &[NodeId]);
        assert_eq!(csr.edge_id(0, 1), None);
    }

    #[test]
    fn partition_covers_all_nodes_contiguously() {
        let g = sample_graph();
        let csr = Csr::from_graph(&g);
        for k in 1..=8 {
            let part = csr.partition(k);
            assert_eq!(part.num_shards(), k);
            assert_eq!(part.bounds()[0], 0);
            assert_eq!(part.bounds()[k], csr.num_nodes());
            let mut covered = 0;
            for s in 0..k {
                let r = part.range(s);
                assert_eq!(r.start, part.bounds()[s]);
                covered += r.len();
                for v in r {
                    assert_eq!(part.shard_of(v), s, "k = {k}, v = {v}");
                }
            }
            assert_eq!(covered, csr.num_nodes(), "k = {k}");
        }
    }

    #[test]
    fn partition_balances_degree_load() {
        // A path graph: uniform degrees, so shard loads should split
        // within one node's load of each other.
        let mut g = Graph::new(64);
        for v in 0..63 {
            g.add_edge(v, v + 1);
        }
        let csr = Csr::from_graph(&g);
        let part = csr.partition(4);
        let load =
            |s: usize| -> u64 { part.range(s).map(|v| csr.degree(v) as u64 + 1).sum::<u64>() };
        let loads: Vec<u64> = (0..4).map(load).collect();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 4, "loads {loads:?}");
    }

    #[test]
    fn partition_with_more_shards_than_nodes() {
        let csr = Csr::from_graph(&sample_graph());
        let part = csr.partition(16);
        assert_eq!(part.num_shards(), 16);
        let nonempty: usize = (0..16).filter(|&s| !part.range(s).is_empty()).count();
        assert!(nonempty <= csr.num_nodes());
        let covered: usize = (0..16).map(|s| part.range(s).len()).sum();
        assert_eq!(covered, csr.num_nodes());
    }
}
