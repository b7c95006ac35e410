//! The generic exact algorithm: every node learns the entire graph in
//! `O(m + D)` rounds by pipelined flooding of edge announcements, then
//! solves any problem locally.
//!
//! This is the upper bound the paper's Ω̃(n²) lower bounds are tight
//! against: "any natural graph problem can be solved in the CONGEST model
//! in `O(m)` rounds ... by letting the vertices learn the whole graph"
//! (Section 1). Benches run this algorithm on the lower-bound families and
//! measure the bits it pushes across the Alice–Bob cut.
//!
//! # Representation
//!
//! The hot state is interned: every distinct edge announcement gets a
//! dense `u32` id from one instance-global table, per-node knowledge is a
//! bitset over those ids, and the per-link forwarding queues hold ids
//! instead of 24-byte tuples. This turns the dominant per-message
//! operation — "have I seen this edge?" — into one hash probe plus a bit
//! test, and shrinks queue traffic to a quarter of its former size. The
//! wire behavior is byte-identical to the historical per-node hash-set
//! representation.

use congest_graph::{Graph, NodeId, Weight};

use crate::bits::{id_bits, mag_bits};
use crate::fxhash::FxHashMap;
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf, ShardableAlgorithm};

/// An edge announcement `(u, v, w)` with `u < v`.
pub type EdgeMsg = (NodeId, NodeId, Weight);

/// Pipelined whole-graph learning. After the run, every node in a
/// connected graph knows every edge.
#[derive(Debug)]
pub struct LearnGraph {
    n: usize,
    /// Edge-announcement interner: every distinct announcement (including
    /// corrupted variants that arrive over faulty links) gets a dense id.
    intern: FxHashMap<EdgeMsg, u32>,
    /// Interned announcements, indexed by id.
    edges: Vec<EdgeMsg>,
    /// Per-node known-announcement bitsets over interned ids, grown
    /// lazily as ids appear at the node.
    known: Vec<Vec<u64>>,
    /// Per-node known-announcement counts (popcount of `known[v]`).
    count: Vec<usize>,
    /// Per node, per incident-neighbor index: queue of edge ids not yet
    /// forwarded on that link.
    queues: Vec<Vec<Vec<u32>>>,
}

impl LearnGraph {
    /// For a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        LearnGraph {
            n,
            intern: FxHashMap::default(),
            edges: Vec::new(),
            known: vec![Vec::new(); n],
            count: vec![0; n],
            queues: vec![Vec::new(); n],
        }
    }

    /// The edges `node` has learned, in sorted order (deterministic
    /// across serial and sharded runs).
    pub fn known_edges(&self, node: NodeId) -> Vec<EdgeMsg> {
        let mut out = Vec::with_capacity(self.count[node]);
        for (w, &word) in self.known[node].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let id = w * 64 + bits.trailing_zeros() as usize;
                out.push(self.edges[id]);
                bits &= bits - 1;
            }
        }
        out.sort_unstable();
        out
    }

    /// How many distinct edges `node` has learned — `O(1)`, the hot
    /// completeness check of [`super::GenericExactDecision`].
    pub fn known_count(&self, node: NodeId) -> usize {
        self.count[node]
    }

    /// Reconstructs the graph as learned by `node`.
    pub fn learned_graph(&self, node: NodeId) -> Graph {
        let mut g = Graph::new(self.n);
        for (u, v, w) in self.known_edges(node) {
            g.add_weighted_edge(u, v, w);
        }
        g
    }

    /// Interns an announcement, assigning the next id on first sight.
    #[inline]
    fn intern_id(&mut self, edge: EdgeMsg) -> u32 {
        if let Some(&id) = self.intern.get(&edge) {
            return id;
        }
        let id = self.edges.len() as u32;
        self.intern.insert(edge, id);
        self.edges.push(edge);
        id
    }

    /// Marks `id` known at `node`; on first sight, queues it for every
    /// incident link except the one it arrived on (`from_idx`).
    #[inline]
    fn learn_id(&mut self, node: NodeId, id: u32, from_idx: usize) {
        let (w, b) = ((id / 64) as usize, id % 64);
        let ks = &mut self.known[node];
        if ks.len() <= w {
            ks.resize(w + 1, 0);
        }
        if ks[w] & (1 << b) == 0 {
            ks[w] |= 1 << b;
            self.count[node] += 1;
            for (i, q) in self.queues[node].iter_mut().enumerate() {
                if i != from_idx {
                    q.push(id);
                }
            }
        }
    }
}

impl CongestAlgorithm for LearnGraph {
    type Msg = EdgeMsg;
    type Output = usize;

    fn message_bits(msg: &EdgeMsg) -> u64 {
        id_bits(msg.0 as u64) + id_bits(msg.1 as u64) + mag_bits(msg.2.unsigned_abs())
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, EdgeMsg)> {
        let deg = ctx.degree(node);
        self.queues[node] = vec![Vec::new(); deg];
        for j in 0..deg {
            let u = ctx.neighbors(node)[j];
            let w = ctx.edge_weight(node, u);
            let id = self.intern_id((node.min(u), node.max(u), w));
            self.learn_id(node, id, usize::MAX);
        }
        // First transmissions happen in round 0 processing below (init
        // sends nothing; keeps the per-round one-message-per-edge
        // invariant in one place).
        Vec::new()
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, EdgeMsg)],
    ) -> (Vec<(NodeId, EdgeMsg)>, RoundOutcome) {
        let mut sends = Vec::new();
        let outcome = self.round_into(node, ctx, round, inbox, &mut sends);
        (sends, outcome)
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        _round: usize,
        inbox: &[(NodeId, EdgeMsg)],
        out: &mut SendBuf<EdgeMsg>,
    ) -> RoundOutcome {
        let nbrs = ctx.neighbors(node);
        for &(from, edge) in inbox {
            let id = self.intern_id(edge);
            let fi = nbrs.iter().position(|&u| u == from).unwrap_or(usize::MAX);
            self.learn_id(node, id, fi);
        }
        for (i, &u) in nbrs.iter().enumerate() {
            if let Some(id) = self.queues[node][i].pop() {
                out.push((u, self.edges[id as usize]));
            }
        }
        RoundOutcome::Continue
    }

    fn output(&self, node: NodeId) -> Option<usize> {
        Some(self.count[node])
    }

    fn corrupt(msg: &EdgeMsg, bit: u32) -> Option<EdgeMsg> {
        // Only the weight is perturbed: corrupted endpoint ids would make
        // the announcement refer to vertices outside the graph, which the
        // model's locality checks can't even express.
        Some((msg.0, msg.1, msg.2 ^ ((1 as Weight) << (bit % 8))))
    }
}

impl ShardableAlgorithm for LearnGraph {
    /// Shards keep full-length vectors with only their node range
    /// populated. Every shard starts from a copy of the donor's intern
    /// table; shards then intern independently, so ids diverge across
    /// shards and `absorb_shard` translates per-node state back through
    /// the announcement values.
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut shard = LearnGraph::new(self.n);
        shard.intern = self.intern.clone();
        shard.edges = self.edges.clone();
        for v in lo..hi {
            shard.known[v] = std::mem::take(&mut self.known[v]);
            shard.count[v] = std::mem::replace(&mut self.count[v], 0);
            shard.queues[v] = std::mem::take(&mut self.queues[v]);
        }
        shard
    }

    fn absorb_shard(&mut self, shard: Self, lo: NodeId, hi: NodeId) {
        // Shard-local id -> donor id, interning announcements the donor
        // has not seen. One pass per absorb (absorbs happen once, at the
        // end of a run), then per-node state is re-keyed.
        let map: Vec<u32> = shard.edges.iter().map(|&e| self.intern_id(e)).collect();
        for v in lo..hi {
            let mut ks: Vec<u64> = Vec::new();
            for (w, &word) in shard.known[v].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let old = w * 64 + bits.trailing_zeros() as usize;
                    let new = map[old] as usize;
                    if ks.len() <= new / 64 {
                        ks.resize(new / 64 + 1, 0);
                    }
                    ks[new / 64] |= 1 << (new % 64);
                    bits &= bits - 1;
                }
            }
            self.known[v] = ks;
            self.count[v] = shard.count[v];
            self.queues[v] = shard.queues[v]
                .iter()
                .map(|q| q.iter().map(|&id| map[id as usize]).collect())
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;
    use congest_graph::metrics;

    #[test]
    fn every_node_learns_every_edge() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(17);
        let g = generators::connected_gnp(15, 0.2, &mut rng);
        let sim = Simulator::with_bandwidth(&g, 64);
        let mut alg = LearnGraph::new(15);
        sim.run(&mut alg, 10_000);
        for v in 0..15 {
            assert_eq!(alg.known_edges(v).len(), g.num_edges(), "node {v}");
            assert_eq!(alg.known_count(v), g.num_edges());
            let learned: Vec<EdgeMsg> = alg.known_edges(v);
            let mut expected: Vec<EdgeMsg> =
                g.edges().map(|(a, b, w)| (a.min(b), a.max(b), w)).collect();
            expected.sort_unstable();
            assert_eq!(learned, expected);
            assert_eq!(alg.learned_graph(v).num_edges(), g.num_edges());
        }
    }

    #[test]
    fn rounds_are_linear_in_m_plus_d() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(18);
        let g = generators::connected_gnp(20, 0.2, &mut rng);
        let m = g.num_edges() as u64;
        let d = metrics::diameter(&g).expect("connected") as u64;
        let sim = Simulator::with_bandwidth(&g, 64);
        let mut alg = LearnGraph::new(20);
        let stats = sim.run(&mut alg, 100_000);
        assert!(
            stats.rounds <= 2 * (m + d) + 10,
            "rounds {} vs m={m}, D={d}",
            stats.rounds
        );
    }

    #[test]
    fn weighted_edges_survive() {
        let mut g = generators::path(4);
        g.add_weighted_edge(1, 2, 77);
        let sim = Simulator::with_bandwidth(&g, 64);
        let mut alg = LearnGraph::new(4);
        sim.run(&mut alg, 1000);
        assert!(alg.known_edges(0).contains(&(1, 2, 77)));
    }

    #[test]
    fn absorb_translates_diverged_ids() {
        // Simulate two shards interning in different orders and check the
        // reassembled state agrees with what each shard knew.
        let mut donor = LearnGraph::new(8);
        let e1 = (0usize, 1usize, 5i64);
        let e2 = (2usize, 3usize, 7i64);
        let e3 = (4usize, 5usize, 9i64);
        let mut s0 = donor.split_shard(0, 4);
        let mut s1 = donor.split_shard(4, 8);
        // Shard 0 learns e1 then e2; shard 1 learns e3 then e2 — ids for
        // e2 diverge across the shards.
        let (a, b) = (s0.intern_id(e1), s0.intern_id(e2));
        s0.learn_id(0, a, usize::MAX);
        s0.learn_id(0, b, usize::MAX);
        let (c, d) = (s1.intern_id(e3), s1.intern_id(e2));
        s1.learn_id(4, c, usize::MAX);
        s1.learn_id(4, d, usize::MAX);
        donor.absorb_shard(s0, 0, 4);
        donor.absorb_shard(s1, 4, 8);
        assert_eq!(donor.known_edges(0), vec![e1, e2]);
        assert_eq!(donor.known_edges(4), vec![e2, e3]);
        assert_eq!(donor.known_count(0), 2);
        assert_eq!(donor.known_count(4), 2);
    }

    /// `EdgeMsg` width = `id_bits(u) + id_bits(v) + mag_bits(|w|)`, at
    /// the boundaries and on corrupted weights (a flip of bit `bit % 8`).
    #[test]
    fn message_bits_pins_at_boundaries() {
        assert_eq!(LearnGraph::message_bits(&(0, 1, 1)), 3);
        assert_eq!(LearnGraph::message_bits(&(1, 2, -1)), 4);
        assert_eq!(LearnGraph::message_bits(&(3, 5, 0)), 6);
        assert_eq!(LearnGraph::message_bits(&(256, 255, 2)), 19);
        let extreme = (usize::MAX, usize::MAX, Weight::MIN);
        assert_eq!(LearnGraph::message_bits(&extreme), 192);
        let corrupted = LearnGraph::corrupt(&extreme, 8).expect("weights corrupt");
        assert_eq!(corrupted, (usize::MAX, usize::MAX, Weight::MIN + 1));
        assert_eq!(LearnGraph::message_bits(&corrupted), 191);
        assert_eq!(LearnGraph::corrupt(&(3, 5, 0), 2), Some((3, 5, 4)));
    }
}
