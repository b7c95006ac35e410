//! The generic exact algorithm, end to end: learn the whole graph
//! (`O(m + D)` rounds), then decide any predicate locally — the upper
//! bound that makes the paper's Ω̃(n²) lower bounds *nearly tight*
//! ("all of these problems can be solved optimally in `O(n²)` rounds",
//! abstract).
//!
//! Wraps [`LearnGraph`] with a decision closure; every node outputs the
//! same verdict once it has seen all `m` edges.

use congest_graph::{Graph, NodeId};

use crate::algorithms::learn_graph::{EdgeMsg, LearnGraph};
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf, ShardableAlgorithm};

/// Learns the whole graph and applies `decide` locally at every node.
///
/// The total edge count `m` is assumed globally known (as is standard; it
/// can be convergecast in `O(D)` extra rounds with
/// [`crate::algorithms::AggregateSum`]), so nodes know when their view is
/// complete.
pub struct GenericExactDecision<F> {
    learner: LearnGraph,
    decide: F,
    m: usize,
    verdict: Vec<Option<bool>>,
}

impl<F: Fn(&Graph) -> bool> GenericExactDecision<F> {
    /// For a network of `n` nodes and `m` edges, deciding with `decide`.
    pub fn new(n: usize, m: usize, decide: F) -> Self {
        GenericExactDecision {
            learner: LearnGraph::new(n),
            decide,
            m,
            verdict: vec![None; n],
        }
    }

    /// The verdict at `node`, once decided.
    pub fn verdict(&self, node: NodeId) -> Option<bool> {
        self.verdict[node]
    }

    /// The inner whole-graph learner (e.g. for certification).
    pub fn learner(&self) -> &LearnGraph {
        &self.learner
    }
}

impl<F: Fn(&Graph) -> bool> CongestAlgorithm for GenericExactDecision<F> {
    type Msg = EdgeMsg;
    type Output = bool;

    fn message_bits(msg: &EdgeMsg) -> u64 {
        LearnGraph::message_bits(msg)
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, EdgeMsg)> {
        self.learner.init(node, ctx)
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
        round: usize,
        inbox: &[(NodeId, EdgeMsg)],
        out: &mut SendBuf<EdgeMsg>,
    ) -> RoundOutcome {
        self.learner.round_into(node, ctx, round, inbox, out);
        if self.verdict[node].is_none() && self.learner.known_count(node) == self.m {
            // Unbounded local computation, as the model allows.
            self.verdict[node] = Some((self.decide)(&self.learner.learned_graph(node)));
        }
        // Keep forwarding until the whole network is informed; halting is
        // by quiescence (all queues eventually drain).
        if self.verdict[node].is_some() && out.is_empty() {
            RoundOutcome::Halt
        } else {
            RoundOutcome::Continue
        }
    }

    fn output(&self, node: NodeId) -> Option<bool> {
        self.verdict[node]
    }

    fn corrupt(msg: &EdgeMsg, bit: u32) -> Option<EdgeMsg> {
        LearnGraph::corrupt(msg, bit)
    }
}

impl<F: Fn(&Graph) -> bool + Clone + Send> ShardableAlgorithm for GenericExactDecision<F> {
    /// Delegates to the inner [`LearnGraph`] sharding; the decision
    /// closure is cloned per shard (it must be a pure predicate).
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut verdict = vec![None; self.verdict.len()];
        verdict[lo..hi].copy_from_slice(&self.verdict[lo..hi]);
        GenericExactDecision {
            learner: self.learner.split_shard(lo, hi),
            decide: self.decide.clone(),
            m: self.m,
            verdict,
        }
    }

    fn absorb_shard(&mut self, shard: Self, lo: NodeId, hi: NodeId) {
        self.learner.absorb_shard(shard.learner, lo, hi);
        self.verdict[lo..hi].copy_from_slice(&shard.verdict[lo..hi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;
    use congest_solvers::mds;

    #[test]
    fn every_node_decides_the_mds_predicate() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let g = generators::connected_gnp(13, 0.25, &mut rng);
        let m = g.num_edges();
        let gamma = mds::min_dominating_set_size(&g);
        let sim = Simulator::with_bandwidth(&g, 64);
        let mut alg =
            GenericExactDecision::new(13, m, move |h| mds::has_dominating_set_of_size(h, gamma));
        sim.run(&mut alg, 100_000);
        for v in 0..13 {
            assert_eq!(alg.verdict(v), Some(true), "node {v}");
        }
        // The tighter threshold is false everywhere.
        let mut alg = GenericExactDecision::new(13, m, move |h| {
            mds::has_dominating_set_of_size(h, gamma - 1)
        });
        sim.run(&mut alg, 100_000);
        for v in 0..13 {
            assert_eq!(alg.verdict(v), Some(false));
        }
    }

    #[test]
    fn rounds_scale_with_m() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let g = generators::connected_gnp(16, 0.3, &mut rng);
        let m = g.num_edges();
        let sim = Simulator::with_bandwidth(&g, 64);
        let mut alg = GenericExactDecision::new(16, m, |h| h.num_edges() > 0);
        let stats = sim.run(&mut alg, 100_000);
        assert!(stats.rounds as usize <= 2 * (m + 16) + 10);
    }
}
