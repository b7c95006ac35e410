//! The `round` path of every built-in algorithm.
//!
//! The engine drives [`CongestAlgorithm::round_into`], which every
//! built-in algorithm overrides, so their `round` adapters run only when
//! something else calls them. Wrapping an algorithm in [`RoundOnly`],
//! which forwards every hook except `round_into`, makes the trait's
//! default `round_into` drive `round`. Both paths must give the same run:
//! equal `SimStats` and equal outputs at every node.

use std::fmt::Debug;

use congest_graph::{generators, Graph, NodeId};
use congest_sim::algorithms::{
    AggregateSum, BfsTree, GenericExactDecision, LeaderElection, LearnGraph, LocalCutSolver,
    SampledMaxCut,
};
use congest_sim::{CongestAlgorithm, NodeContext, RoundOutcome, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards every hook to the wrapped algorithm except `round_into`.
struct RoundOnly<A>(A);

impl<A: CongestAlgorithm> CongestAlgorithm for RoundOnly<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn message_bits(msg: &A::Msg) -> u64 {
        A::message_bits(msg)
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, A::Msg)> {
        self.0.init(node, ctx)
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
    ) -> (Vec<(NodeId, A::Msg)>, RoundOutcome) {
        self.0.round(node, ctx, round, inbox)
    }

    fn output(&self, node: NodeId) -> Option<A::Output> {
        self.0.output(node)
    }

    fn corrupt(msg: &A::Msg, bit: u32) -> Option<A::Msg> {
        A::corrupt(msg, bit)
    }
}

/// Runs a fresh `make()` directly and through [`RoundOnly`] and asserts
/// the two runs agree.
fn assert_round_path_agrees<A>(name: &str, sim: &Simulator<'_>, make: impl Fn() -> A)
where
    A: CongestAlgorithm,
    A::Output: PartialEq + Debug,
{
    let mut direct = make();
    let expected = sim.try_run(&mut direct, 100_000).expect(name);
    let mut adapted = RoundOnly(make());
    let got = sim.try_run(&mut adapted, 100_000).expect(name);
    assert!(expected.messages > 0, "{name}: the run sends nothing");
    assert_eq!(got, expected, "{name}: SimStats");
    for v in 0..sim.graph().num_nodes() {
        let out = direct.output(v);
        assert!(out.is_some(), "{name}: node {v} decided nothing");
        assert_eq!(adapted.output(v), out, "{name}: node {v}");
    }
}

fn seeded_connected_graph() -> Graph {
    generators::connected_gnp(20, 0.2, &mut StdRng::seed_from_u64(21))
}

#[test]
fn round_adapters_reproduce_the_round_into_runs() {
    let g = seeded_connected_graph();
    let n = g.num_nodes();
    let m = g.num_edges();
    let values: Vec<i64> = (0..n as i64).map(|v| 3 * v - 7).collect();
    // Flooding algorithms stop by quiescence; the barrier algorithms
    // pause silently and halt on their own.
    let flooding = Simulator::with_bandwidth(&g, 96);
    let barrier = Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false);

    assert_round_path_agrees("leader", &flooding, || LeaderElection::new(n));
    assert_round_path_agrees("bfs", &flooding, || BfsTree::new(n, 3));
    assert_round_path_agrees("aggregate", &barrier, || {
        AggregateSum::new(n, values.clone())
    });
    assert_round_path_agrees("learn_graph", &flooding, || LearnGraph::new(n));
    assert_round_path_agrees("maxcut_sampling", &barrier, || {
        SampledMaxCut::new(n, 0.5, LocalCutSolver::Exact, 5)
    });
    assert_round_path_agrees("exact_decision", &flooding, || {
        GenericExactDecision::new(n, m, |h: &Graph| h.is_connected())
    });
}
