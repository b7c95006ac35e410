//! Convergecast aggregation over a BFS tree — the `O(D)`-round primitive
//! behind "computing the size of a given set of vertices takes `O(D)`
//! rounds" (used by the paper right after Theorem 2.1 to reduce *finding*
//! an MDS to *deciding* its size).
//!
//! Every node holds an input value; after the run every node knows the
//! sum of all values. Three phases, all driven by explicit tree state:
//! BFS construction from node 0, aggregation up the tree (a node sends
//! its subtree sum once all children reported), and a broadcast of the
//! total back down.

use congest_graph::{NodeId, Weight};

use crate::bits::{mag_bits, value_bits};
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf, ShardableAlgorithm};

/// Messages of the aggregation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMsg {
    /// BFS depth announcement.
    Depth(usize),
    /// BFS child adoption.
    Child,
    /// Subtree sum, sent once to the parent.
    Partial(Weight),
    /// The final total, broadcast down the tree.
    Total(Weight),
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    depth: Option<usize>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    reported: usize,
    acc: Weight,
    sent_up: bool,
    total: Option<Weight>,
    announced: bool,
}

/// Sum aggregation: every node ends up knowing `Σ value[v]`.
///
/// The BFS phase lasts `n` rounds (a conservative `D ≤ n` barrier), after
/// which leaves start the convergecast.
///
/// The graph must be **connected**: nodes unreachable from node 0 never
/// learn the total and never halt, so a run on a disconnected graph only
/// ends at `max_rounds`.
#[derive(Debug)]
pub struct AggregateSum {
    n: usize,
    values: Vec<Weight>,
    states: Vec<NodeState>,
}

impl AggregateSum {
    /// Aggregates the given per-node values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn new(n: usize, values: Vec<Weight>) -> Self {
        assert_eq!(values.len(), n, "one value per node");
        AggregateSum {
            n,
            values,
            states: vec![NodeState::default(); n],
        }
    }

    /// The total known at `node` after the run.
    pub fn total(&self, node: NodeId) -> Option<Weight> {
        self.states[node].total
    }

    /// The per-node input values being aggregated.
    pub fn values(&self) -> &[Weight] {
        &self.values
    }

    fn barrier(&self) -> usize {
        self.n + 1
    }
}

impl CongestAlgorithm for AggregateSum {
    type Msg = AggMsg;
    type Output = Weight;

    /// A two-bit variant tag plus the magnitude of the depth or value.
    /// The model prices magnitudes, so a value's sign is not metered
    /// ([`value_bits`] includes the tag).
    fn message_bits(msg: &AggMsg) -> u64 {
        match *msg {
            AggMsg::Depth(d) => 2 + mag_bits(d as u64),
            AggMsg::Child => 2,
            AggMsg::Partial(w) | AggMsg::Total(w) => value_bits(w),
        }
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, AggMsg)> {
        self.states[node].acc = self.values[node];
        if node == 0 {
            self.states[node].depth = Some(0);
            ctx.neighbors(node)
                .iter()
                .map(|&u| (u, AggMsg::Depth(0)))
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
        inbox: &[(NodeId, AggMsg)],
    ) -> (Vec<(NodeId, AggMsg)>, RoundOutcome) {
        let mut sends = Vec::new();
        let outcome = self.round_into(node, ctx, round, inbox, &mut sends);
        (sends, outcome)
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, AggMsg)],
        out: &mut SendBuf<AggMsg>,
    ) -> RoundOutcome {
        for &(from, msg) in inbox {
            match msg {
                AggMsg::Depth(d) => {
                    if self.states[node].depth.is_none() {
                        self.states[node].depth = Some(d + 1);
                        self.states[node].parent = Some(from);
                        out.push((from, AggMsg::Child));
                        for &u in ctx.neighbors(node) {
                            if u != from {
                                out.push((u, AggMsg::Depth(d + 1)));
                            }
                        }
                    }
                }
                AggMsg::Child => self.states[node].children.push(from),
                AggMsg::Partial(w) => {
                    self.states[node].acc += w;
                    self.states[node].reported += 1;
                }
                AggMsg::Total(w) => {
                    self.states[node].total = Some(w);
                }
            }
        }
        if round < self.barrier() {
            return RoundOutcome::Continue;
        }
        let st = &mut self.states[node];
        // Upward phase: report once all children have.
        if !st.sent_up && st.reported == st.children.len() {
            match st.parent {
                Some(p) => {
                    st.sent_up = true;
                    out.push((p, AggMsg::Partial(st.acc)));
                }
                None => {
                    // Root (or unreachable node): the total is its acc.
                    if node == 0 && st.total.is_none() {
                        st.total = Some(st.acc);
                    }
                    st.sent_up = true;
                }
            }
        }
        // Downward phase: forward the total once.
        if let Some(total) = st.total {
            if !st.announced {
                st.announced = true;
                out.extend(st.children.iter().map(|&c| (c, AggMsg::Total(total))));
            }
        }
        if self.states[node].announced && out.is_empty() {
            RoundOutcome::Halt
        } else {
            RoundOutcome::Continue
        }
    }

    fn output(&self, node: NodeId) -> Option<Weight> {
        self.states[node].total
    }

    fn corrupt(msg: &AggMsg, bit: u32) -> Option<AggMsg> {
        match *msg {
            AggMsg::Depth(d) => Some(AggMsg::Depth(d ^ (1 << (bit % 8)))),
            // A child notice carries no payload to flip.
            AggMsg::Child => None,
            AggMsg::Partial(w) => Some(AggMsg::Partial(w ^ ((1 as Weight) << (bit % 8)))),
            AggMsg::Total(w) => Some(AggMsg::Total(w ^ ((1 as Weight) << (bit % 8)))),
        }
    }
}

impl ShardableAlgorithm for AggregateSum {
    /// Input values are read-only (each shard keeps a copy); the mutable
    /// per-node tree state moves with its shard.
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut shard = AggregateSum::new(self.n, self.values.clone());
        for v in lo..hi {
            shard.states[v] = std::mem::take(&mut self.states[v]);
        }
        shard
    }

    fn absorb_shard(&mut self, mut shard: Self, lo: NodeId, hi: NodeId) {
        for v in lo..hi {
            self.states[v] = std::mem::take(&mut shard.states[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::{generators, metrics};

    fn run(g: &congest_graph::Graph, values: Vec<Weight>) -> (AggregateSum, crate::SimStats) {
        let n = g.num_nodes();
        let sim = Simulator::with_bandwidth(g, 96).stop_on_quiescence(false);
        let mut alg = AggregateSum::new(n, values);
        let stats = sim.run(&mut alg, 100_000);
        (alg, stats)
    }

    #[test]
    fn every_node_learns_the_sum() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let g = generators::connected_gnp(15, 0.25, &mut rng);
        let values: Vec<Weight> = (0..15).map(|v| v as Weight * 3 + 1).collect();
        let expected: Weight = values.iter().sum();
        let (alg, _) = run(&g, values);
        for v in 0..15 {
            assert_eq!(alg.total(v), Some(expected), "node {v}");
        }
    }

    #[test]
    fn set_size_in_o_d_after_barrier() {
        // The paper's use case: count a marked vertex set.
        let g = generators::cycle(12);
        let marked: Vec<Weight> = (0..12).map(|v| Weight::from(v % 3 == 0)).collect();
        let (alg, stats) = run(&g, marked);
        assert_eq!(alg.total(7), Some(4));
        // n-round barrier + O(D) up + O(D) down.
        let d = metrics::diameter(&g).expect("connected") as u64;
        assert!(stats.rounds <= 12 + 4 * d + 8, "rounds {}", stats.rounds);
    }

    #[test]
    fn star_aggregates_in_constant_rounds_after_barrier() {
        let g = generators::star(20);
        let (alg, _) = run(&g, vec![1; 20]);
        assert_eq!(alg.total(0), Some(20));
        assert_eq!(alg.total(19), Some(20));
    }

    /// `AggMsg` width = two tag bits plus the magnitude of the depth or
    /// value (the sign is not metered), at the boundaries and on
    /// corrupted payloads (a flip of bit `bit % 8`).
    #[test]
    fn message_bits_pins_at_boundaries() {
        for &(d, bits) in &[
            (0usize, 3u64),
            (1, 3),
            (2, 4),
            (255, 10),
            (256, 11),
            (usize::MAX, 66),
        ] {
            assert_eq!(
                AggregateSum::message_bits(&AggMsg::Depth(d)),
                bits,
                "depth {d}"
            );
        }
        assert_eq!(AggregateSum::message_bits(&AggMsg::Child), 2);
        for &(w, bits) in &[
            (0 as Weight, 3u64),
            (1, 3),
            (-1, 3),
            (2, 4),
            (256, 11),
            (-256, 11),
            (Weight::MAX, 65),
            (Weight::MIN, 66),
        ] {
            assert_eq!(
                AggregateSum::message_bits(&AggMsg::Partial(w)),
                bits,
                "partial {w}"
            );
            assert_eq!(
                AggregateSum::message_bits(&AggMsg::Total(w)),
                bits,
                "total {w}"
            );
        }
        assert_eq!(
            AggregateSum::corrupt(&AggMsg::Depth(0), 8),
            Some(AggMsg::Depth(1))
        );
        assert_eq!(AggregateSum::corrupt(&AggMsg::Child, 0), None);
        let flipped =
            AggregateSum::corrupt(&AggMsg::Partial(Weight::MIN), 0).expect("values corrupt");
        assert_eq!(flipped, AggMsg::Partial(Weight::MIN + 1));
        assert_eq!(AggregateSum::message_bits(&flipped), 65);
        assert_eq!(
            AggregateSum::corrupt(&AggMsg::Total(-1), 1),
            Some(AggMsg::Total(-3))
        );
        assert_eq!(AggregateSum::message_bits(&AggMsg::Total(-3)), 4);
    }
}
