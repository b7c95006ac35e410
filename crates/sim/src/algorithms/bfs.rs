//! Distributed BFS tree construction — `O(D)` rounds.
//!
//! The backbone of the paper's upper-bound arguments: "building `T` can be
//! done in `O(D)` rounds" (proof of Theorem 2.9), and the reductions of
//! Lemma 2.3 locate a minimum-ID vertex over a BFS tree.

use congest_graph::NodeId;

use crate::bits::mag_bits;
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf, ShardableAlgorithm};

/// BFS-tree construction from a designated root. After the run each node
/// knows its parent, depth and children.
#[derive(Debug)]
pub struct BfsTree {
    root: NodeId,
    depth: Vec<Option<usize>>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

/// Messages: a depth announcement, or a child adoption notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BfsMsg {
    /// "My depth is `d`" — invites the receiver to join at `d+1`.
    Depth(usize),
    /// "You are my parent."
    Child,
}

impl BfsTree {
    /// BFS from `root` in a network of `n` nodes.
    pub fn new(n: usize, root: NodeId) -> Self {
        BfsTree {
            root,
            depth: vec![None; n],
            parent: vec![None; n],
            children: vec![Vec::new(); n],
        }
    }

    /// The node's BFS depth (root = 0), if reached.
    pub fn depth(&self, v: NodeId) -> Option<usize> {
        self.depth[v]
    }

    /// The node's tree parent (`None` for the root / unreached nodes).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// The node's tree children.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// The root this instance was built from.
    pub fn root(&self) -> NodeId {
        self.root
    }
}

impl CongestAlgorithm for BfsTree {
    type Msg = BfsMsg;
    type Output = (Option<NodeId>, usize);

    /// A one-bit variant tag, plus the depth's magnitude for an
    /// announcement.
    fn message_bits(msg: &BfsMsg) -> u64 {
        match msg {
            BfsMsg::Depth(d) => 1 + mag_bits(*d as u64),
            BfsMsg::Child => 1,
        }
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, BfsMsg)> {
        if node == self.root {
            self.depth[node] = Some(0);
            ctx.neighbors(node)
                .iter()
                .map(|&u| (u, BfsMsg::Depth(0)))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, BfsMsg)],
    ) -> (Vec<(NodeId, BfsMsg)>, RoundOutcome) {
        let mut sends = Vec::new();
        let outcome = self.round_into(node, ctx, round, inbox, &mut sends);
        (sends, outcome)
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        _round: usize,
        inbox: &[(NodeId, BfsMsg)],
        out: &mut SendBuf<BfsMsg>,
    ) -> RoundOutcome {
        for &(from, msg) in inbox {
            match msg {
                BfsMsg::Depth(d) => {
                    if self.depth[node].is_none() {
                        self.depth[node] = Some(d + 1);
                        self.parent[node] = Some(from);
                        out.push((from, BfsMsg::Child));
                        for &u in ctx.neighbors(node) {
                            if u != from {
                                out.push((u, BfsMsg::Depth(d + 1)));
                            }
                        }
                    }
                }
                BfsMsg::Child => {
                    self.children[node].push(from);
                }
            }
        }
        RoundOutcome::Continue
    }

    fn output(&self, node: NodeId) -> Option<(Option<NodeId>, usize)> {
        self.depth[node].map(|d| (self.parent[node], d))
    }

    fn corrupt(msg: &BfsMsg, bit: u32) -> Option<BfsMsg> {
        match *msg {
            // Flip a low bit of the depth (low bits keep the corrupted
            // announcement within the model bandwidth).
            BfsMsg::Depth(d) => Some(BfsMsg::Depth(d ^ (1 << (bit % 8)))),
            // A child notice carries no payload to flip.
            BfsMsg::Child => None,
        }
    }
}

impl ShardableAlgorithm for BfsTree {
    /// The root id is shared (read-only); per-node tree state moves with
    /// its shard.
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut shard = BfsTree::new(self.depth.len(), self.root);
        for v in lo..hi {
            shard.depth[v] = self.depth[v];
            shard.parent[v] = self.parent[v];
            shard.children[v] = std::mem::take(&mut self.children[v]);
        }
        shard
    }

    fn absorb_shard(&mut self, mut shard: Self, lo: NodeId, hi: NodeId) {
        for v in lo..hi {
            self.depth[v] = shard.depth[v];
            self.parent[v] = shard.parent[v];
            self.children[v] = std::mem::take(&mut shard.children[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;

    #[test]
    fn bfs_depths_match_graph_distances() {
        let g = generators::cycle(10);
        let sim = Simulator::new(&g);
        let mut alg = BfsTree::new(10, 3);
        sim.run(&mut alg, 100);
        let dist = g.bfs_distances(3);
        for v in 0..10 {
            assert_eq!(alg.depth(v), dist[v]);
        }
    }

    #[test]
    fn parent_child_relation_is_consistent() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8);
        let g = generators::connected_gnp(20, 0.15, &mut rng);
        let sim = Simulator::new(&g);
        let mut alg = BfsTree::new(20, 0);
        sim.run(&mut alg, 200);
        for v in 1..20 {
            let p = alg.parent(v).expect("connected graph");
            assert!(g.has_edge(v, p));
            assert!(alg.children(p).contains(&v));
            assert_eq!(
                alg.depth(v),
                Some(alg.depth(p).expect("parent reached") + 1)
            );
        }
        // Tree edge count: n - 1.
        let total_children: usize = (0..20).map(|v| alg.children(v).len()).sum();
        assert_eq!(total_children, 19);
    }

    #[test]
    fn unreachable_nodes_have_no_output() {
        let mut g = generators::path(3);
        let iso = g.add_node();
        let sim = Simulator::new(&g);
        let mut alg = BfsTree::new(4, 0);
        sim.run(&mut alg, 50);
        assert_eq!(alg.output(iso), None);
        assert_eq!(alg.depth(2), Some(2));
    }

    /// `BfsMsg` width = one tag bit, plus `mag_bits(d)` for a depth, at
    /// the boundaries and on corrupted depths (a flip of bit `bit % 8`).
    #[test]
    fn message_bits_pins_at_boundaries() {
        for &(d, bits) in &[
            (0usize, 2u64),
            (1, 2),
            (2, 3),
            (255, 9),
            (256, 10),
            (usize::MAX, 65),
        ] {
            assert_eq!(BfsTree::message_bits(&BfsMsg::Depth(d)), bits, "depth {d}");
        }
        assert_eq!(BfsTree::message_bits(&BfsMsg::Child), 1);
        assert_eq!(
            BfsTree::corrupt(&BfsMsg::Depth(0), 0),
            Some(BfsMsg::Depth(1))
        );
        assert_eq!(
            BfsTree::corrupt(&BfsMsg::Depth(256), 8),
            Some(BfsMsg::Depth(257))
        );
        let flipped = BfsTree::corrupt(&BfsMsg::Depth(255), 7).expect("depths corrupt");
        assert_eq!(flipped, BfsMsg::Depth(127));
        assert_eq!(BfsTree::message_bits(&flipped), 8);
        assert_eq!(BfsTree::corrupt(&BfsMsg::Child, 3), None);
    }
}
