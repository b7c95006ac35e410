//! `sim_flood`: min-ID flooding (`LeaderElection`) for a fixed number of
//! rounds on a million-node 3-regular graph whose labels are permuted by
//! the seed, through `Simulator::with_bandwidth` + `try_run`.
//!
//! Every run is checked against an independent model of the flood: a plain
//! array sweep that recomputes, round by round, which nodes improve their
//! minimum and therefore send, and so the exact message and bit counts the
//! engine must meter and the leader each node must end with.

use std::time::{Duration, Instant};

use congest_graph::{generators, Graph, NodeId};
use congest_sim::algorithms::LeaderElection;
use congest_sim::{
    CongestAlgorithm, NodeContext, RoundOutcome, RunOutcome, SendBuf, SimError, SimStats, Simulator,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Nodes in the flooded graph.
pub const NODES: usize = 1_000_000;
/// Rounds the flood runs for (the graph's diameter is far larger).
pub const ROUNDS: u64 = 8;
/// Per-edge per-round bandwidth: identifiers below 10⁶ need 20 bits.
pub const BANDWIDTH: u64 = 24;

/// `cycle_plus_diameters(n)` with node `v` renamed `perm[v]`. Edges are
/// inserted in the generator's own deterministic neighbour order, so the
/// same seed yields the same graph, adjacency order included.
pub fn permuted_graph(n: usize, seed: u64) -> Graph {
    let base = generators::cycle_plus_diameters(n);
    let perm = permutation(n, seed);
    let mut g = Graph::new(n);
    for u in 0..n {
        for &v in base.neighbors(u) {
            if u < v {
                g.add_edge(perm[u], perm[v]);
            }
        }
    }
    g
}

/// The seeded label permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<NodeId> {
    let mut perm: Vec<NodeId> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// What the engine must report for one flood, derived without the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodModel {
    /// `(messages, bits)` dispatched in round 0 (the init burst) and in
    /// each of the `ROUNDS` loop rounds.
    pub per_round: Vec<(u64, u64)>,
    /// Each node's minimum identifier after the last round.
    pub leader: Vec<NodeId>,
}

fn id_width(id: NodeId) -> u64 {
    u64::from(usize::BITS - id.leading_zeros()).max(1)
}

impl FloodModel {
    /// Replays min-ID flooding on `g` for `rounds` rounds: a node sends its
    /// identifier to every neighbour at start-up, and afterwards sends its
    /// current minimum to every neighbour exactly in the rounds where some
    /// received identifier lowered it. Messages sent in the last round are
    /// metered but never delivered.
    pub fn of(g: &Graph, rounds: u64) -> Self {
        let n = g.num_nodes();
        const NONE: NodeId = NodeId::MAX;
        let mut best: Vec<NodeId> = (0..n).collect();
        let mut sent: Vec<NodeId> = (0..n).collect();
        let mut next = vec![NONE; n];
        let traffic = |sent: &[NodeId]| {
            let (mut messages, mut bits) = (0u64, 0u64);
            for (v, &id) in sent.iter().enumerate() {
                if id != NONE {
                    let deg = g.degree(v) as u64;
                    messages += deg;
                    bits += deg * id_width(id);
                }
            }
            (messages, bits)
        };
        let mut per_round = vec![traffic(&sent)];
        for _ in 0..rounds {
            for v in 0..n {
                let heard = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| sent[u])
                    .min()
                    .unwrap_or(NONE);
                next[v] = if heard < best[v] {
                    best[v] = heard;
                    heard
                } else {
                    NONE
                };
            }
            std::mem::swap(&mut sent, &mut next);
            per_round.push(traffic(&sent));
        }
        FloodModel {
            per_round,
            leader: best,
        }
    }

    /// Why `stats` (and the leaders the run computed) disagree with the
    /// model, or `None` when they agree.
    pub fn mismatch(&self, stats: &SimStats, leader: impl Fn(NodeId) -> NodeId) -> Option<String> {
        let rounds = self.per_round.len() as u64 - 1;
        let messages: u64 = self.per_round.iter().map(|r| r.0).sum();
        let bits: u64 = self.per_round.iter().map(|r| r.1).sum();
        let timeline: Vec<(u64, u64)> = stats
            .round_timeline
            .iter()
            .map(|r| (r.messages, r.bits))
            .collect();
        if stats.rounds != rounds {
            return Some(format!("rounds {} != {rounds}", stats.rounds));
        }
        if stats.outcome != RunOutcome::RoundBudget {
            return Some(format!(
                "outcome {} != round_budget",
                stats.outcome.as_str()
            ));
        }
        if stats.messages != messages {
            return Some(format!("messages {} != {messages}", stats.messages));
        }
        if stats.total_bits != bits {
            return Some(format!("total_bits {} != {bits}", stats.total_bits));
        }
        if timeline != self.per_round {
            return Some("per-round traffic differs".into());
        }
        if stats.bits_per_edge.values().sum::<u64>() != bits {
            return Some("per-edge bits do not add up to total_bits".into());
        }
        if stats.faults.total() != 0 {
            return Some("faults on a perfect link".into());
        }
        (0..self.leader.len())
            .find(|&v| leader(v) != self.leader[v])
            .map(|v| format!("node {v} elected {} != {}", leader(v), self.leader[v]))
    }
}

/// Forwards every `CongestAlgorithm` method to the wrapped algorithm and
/// adds the wall time spent in `init`, `round` and `round_into`.
#[derive(Debug)]
pub struct TimedAlgorithm<A> {
    /// The wrapped algorithm.
    pub inner: A,
    /// Time spent inside the wrapped algorithm's per-node hooks.
    pub compute: Duration,
}

impl<A> TimedAlgorithm<A> {
    /// Wraps `inner` with a zeroed clock.
    pub fn new(inner: A) -> Self {
        TimedAlgorithm {
            inner,
            compute: Duration::ZERO,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut A) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.compute += t0.elapsed();
        out
    }
}

impl<A: CongestAlgorithm> CongestAlgorithm for TimedAlgorithm<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn message_bits(msg: &A::Msg) -> u64 {
        A::message_bits(msg)
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, A::Msg)> {
        self.timed(|a| a.init(node, ctx))
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
    ) -> (Vec<(NodeId, A::Msg)>, RoundOutcome) {
        self.timed(|a| a.round(node, ctx, round, inbox))
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
        out: &mut SendBuf<A::Msg>,
    ) -> RoundOutcome {
        self.timed(|a| a.round_into(node, ctx, round, inbox, out))
    }

    fn output(&self, node: NodeId) -> Option<A::Output> {
        self.inner.output(node)
    }

    fn corrupt(msg: &A::Msg, bit: u32) -> Option<A::Msg> {
        A::corrupt(msg, bit)
    }
}

/// A flood instance: the seed of its graph and the graph's model.
pub struct Flood {
    nodes: usize,
    seed: u64,
    model: FloodModel,
}

/// One set-up and timed `try_run` of the flood.
pub struct FloodPass {
    /// The `try_run` call.
    pub wall: Duration,
    /// Process CPU time over the same call.
    pub cpu: Duration,
    /// `generators` plus relabelling.
    pub generate: Duration,
    /// `Simulator::with_bandwidth` (the CSR build).
    pub csr_build: Duration,
    /// Time inside the algorithm's hooks, when traced.
    pub compute: Option<Duration>,
    /// The engine's statistics, or its error.
    pub stats: Result<SimStats, SimError>,
    /// Why the run is wrong, if it is.
    pub failure: Option<String>,
}

impl Flood {
    /// Generates the seeded graph once and replays the model on it.
    pub fn new(nodes: usize, seed: u64) -> Self {
        let model = FloodModel::of(&permuted_graph(nodes, seed), ROUNDS);
        Flood { nodes, seed, model }
    }

    /// Sets up anew, so that every pass times the set-up too: generates
    /// the seeded graph and builds a simulator over it. Then runs the
    /// flood once, through the timing adapter when `traced`.
    pub fn pass(&self, traced: bool) -> FloodPass {
        let t0 = Instant::now();
        let graph = permuted_graph(self.nodes, self.seed);
        let generate = t0.elapsed();
        let t0 = Instant::now();
        let sim = Simulator::with_bandwidth(&graph, BANDWIDTH);
        let csr_build = t0.elapsed();
        let mut alg = TimedAlgorithm::new(LeaderElection::new(self.nodes));
        let t0 = Instant::now();
        let (stats, cpu) = crate::usage::cpu_during(crate::usage::Who::Process, || {
            if traced {
                sim.try_run(&mut alg, ROUNDS)
            } else {
                sim.try_run(&mut alg.inner, ROUNDS)
            }
        });
        let wall = t0.elapsed();
        let failure = match &stats {
            Err(e) => Some(format!("try_run failed: {e}")),
            Ok(s) => self.model.mismatch(s, |v| alg.inner.leader(v)),
        };
        FloodPass {
            wall,
            cpu,
            generate,
            csr_build,
            compute: traced.then_some(alg.compute),
            stats,
            failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Flood {
        Flood::new(2_000, seed)
    }

    #[test]
    fn model_matches_the_engine_on_small_graphs() {
        for seed in 0..4 {
            let f = small(seed);
            let pass = f.pass(false);
            assert_eq!(pass.failure, None, "seed {seed}");
            let stats = pass.stats.expect("legal run");
            assert_eq!(stats.rounds, ROUNDS);
            assert!(stats.messages > 3 * 2_000, "more than the init burst");
        }
    }

    #[test]
    fn adapter_leaves_sim_stats_unchanged() {
        let f = small(7);
        let plain = f.pass(false).stats.expect("legal run");
        let traced = f.pass(true);
        assert_eq!(traced.stats.expect("legal run"), plain);
        assert!(traced.compute.expect("traced") > Duration::ZERO);
    }

    #[test]
    fn one_message_fewer_is_rejected() {
        let f = small(3);
        let pass = f.pass(false);
        let mut stats = pass.stats.expect("legal run");
        stats.messages -= 1;
        let msg = f.model.mismatch(&stats, |v| f.model.leader[v]);
        assert!(msg.expect("must fail").starts_with("messages"));
    }

    #[test]
    fn a_wrong_leader_is_rejected() {
        let f = small(5);
        let stats = f.pass(false).stats.expect("legal run");
        let msg = f
            .model
            .mismatch(&stats, |v| f.model.leader[v] + usize::from(v == 17));
        assert!(msg.expect("must fail").starts_with("node 17"));
    }

    #[test]
    fn same_seed_same_graph() {
        let a = permuted_graph(100, 9);
        let b = permuted_graph(100, 9);
        assert_eq!(a, b);
        assert_ne!(a, permuted_graph(100, 10));
    }
}
