//! Leader election by minimum-identifier flooding — `O(D)` rounds,
//! `O(log n)`-bit messages. Used as the first phase of global algorithms
//! (e.g. the Theorem 2.9 max-cut approximation picks "the vertex `w` with
//! the smallest `ID(w)`").

use congest_graph::NodeId;

use crate::bits::id_bits;
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf, ShardableAlgorithm};

/// Min-ID flooding. Every node outputs the minimum identifier in its
/// connected component.
#[derive(Debug)]
pub struct LeaderElection {
    best: Vec<NodeId>,
    last_sent: Vec<Option<NodeId>>,
}

impl LeaderElection {
    /// For a network of `n` nodes.
    pub fn new(n: usize) -> Self {
        LeaderElection {
            best: (0..n).collect(),
            last_sent: vec![None; n],
        }
    }

    /// The elected leader from `node`'s perspective (defined after the run).
    pub fn leader(&self, node: NodeId) -> NodeId {
        self.best[node]
    }
}

impl CongestAlgorithm for LeaderElection {
    type Msg = NodeId;
    type Output = NodeId;

    fn message_bits(msg: &NodeId) -> u64 {
        id_bits(*msg as u64)
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, NodeId)> {
        self.last_sent[node] = Some(node);
        ctx.neighbors(node).iter().map(|&u| (u, node)).collect()
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, NodeId)],
    ) -> (Vec<(NodeId, NodeId)>, RoundOutcome) {
        let mut sends = Vec::new();
        let outcome = self.round_into(node, ctx, round, inbox, &mut sends);
        (sends, outcome)
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        _round: usize,
        inbox: &[(NodeId, NodeId)],
        out: &mut SendBuf<NodeId>,
    ) -> RoundOutcome {
        let mut improved = false;
        for &(_, id) in inbox {
            if id < self.best[node] {
                self.best[node] = id;
                improved = true;
            }
        }
        if improved && self.last_sent[node] != Some(self.best[node]) {
            let best = self.best[node];
            self.last_sent[node] = Some(best);
            out.extend(ctx.neighbors(node).iter().map(|&u| (u, best)));
        }
        RoundOutcome::Continue
    }

    fn output(&self, node: NodeId) -> Option<NodeId> {
        Some(self.best[node])
    }

    fn corrupt(msg: &NodeId, bit: u32) -> Option<NodeId> {
        // Flip a low bit of the flooded identifier.
        Some(*msg ^ (1 << (bit % 8)))
    }
}

impl ShardableAlgorithm for LeaderElection {
    /// Per-node state is two plain values; shards carry full-length
    /// vectors and copy their range.
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut shard = LeaderElection::new(self.best.len());
        shard.best[lo..hi].copy_from_slice(&self.best[lo..hi]);
        shard.last_sent[lo..hi].copy_from_slice(&self.last_sent[lo..hi]);
        shard
    }

    fn absorb_shard(&mut self, shard: Self, lo: NodeId, hi: NodeId) {
        self.best[lo..hi].copy_from_slice(&shard.best[lo..hi]);
        self.last_sent[lo..hi].copy_from_slice(&shard.last_sent[lo..hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;
    use congest_graph::metrics;

    #[test]
    fn everyone_elects_node_zero() {
        for g in [
            generators::cycle(12),
            generators::complete(8),
            generators::star(9),
        ] {
            let sim = Simulator::new(&g);
            let mut alg = LeaderElection::new(g.num_nodes());
            sim.run(&mut alg, 1000);
            for v in 0..g.num_nodes() {
                assert_eq!(alg.leader(v), 0);
            }
        }
    }

    #[test]
    fn rounds_scale_with_diameter() {
        let g = generators::path(40);
        let d = metrics::diameter(&g).expect("connected");
        let sim = Simulator::new(&g);
        let mut alg = LeaderElection::new(40);
        let stats = sim.run(&mut alg, 1000);
        assert!(stats.rounds as usize <= d + 4, "rounds {}", stats.rounds);
    }

    #[test]
    fn components_elect_their_own_minimum() {
        let mut g = generators::path(3);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let sim = Simulator::new(&g);
        let mut alg = LeaderElection::new(g.num_nodes());
        sim.run(&mut alg, 1000);
        assert_eq!(alg.leader(0), 0);
        assert_eq!(alg.leader(a), a.min(b));
    }

    /// Widths at zero, one, powers of two and the extreme identifier,
    /// plus the corrupted identifiers (a flip of bit `bit % 8`).
    #[test]
    fn message_bits_pins_at_boundaries() {
        for &(id, bits) in &[
            (0usize, 1u64),
            (1, 1),
            (2, 2),
            (255, 8),
            (256, 9),
            (usize::MAX, 64),
        ] {
            assert_eq!(LeaderElection::message_bits(&id), bits, "id {id}");
        }
        assert_eq!(LeaderElection::corrupt(&0, 0), Some(1));
        assert_eq!(LeaderElection::corrupt(&255, 15), Some(127));
        assert_eq!(
            LeaderElection::corrupt(&usize::MAX, 8),
            Some(usize::MAX - 1)
        );
        assert_eq!(LeaderElection::message_bits(&127), 7);
    }
}
