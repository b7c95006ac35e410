//! The CONGEST model checks and the metering of zero-bit messages, at one
//! shard and sharded.
//!
//! * A send to the sender itself, or to an id at or above `n`, is a
//!   `NonNeighborSend`: neither id is in the sender's row.
//! * A second send over one edge direction in one round is a
//!   `DuplicateSend` even when the link dropped or delayed the first
//!   copy: the check remembers what was *sent*, not what was delivered.
//! * A message `message_bits` sizes at 0 bits is still a message: it is
//!   counted, and every edge it crosses gets a `bits_per_edge` entry of
//!   0, as does the per-round edge map an observer asks for.
//!
//! Every case runs through `try_run_with` (one shard on the calling
//! thread) and through `try_run_sharded_with` at 2 and 4 workers.

use std::collections::HashMap;

use congest_hardness::faults::{FaultAction, FaultPlan, RoundFilter, TargetedFault};
use congest_hardness::graph::{generators, Graph, NodeId};
use congest_hardness::sim::{
    CongestAlgorithm, NodeContext, NoopRoundObserver, RoundDelta, RoundObserver, RoundOutcome,
    SendBuf, ShardSafeLink, ShardableAlgorithm, SimError, SimStats, Simulator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker counts of the sharded runs; the one-shard run comes first.
const JOBS: [usize; 2] = [2, 4];

fn test_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(41);
    generators::connected_gnp(20, 0.25, &mut rng)
}

/// Runs `alg` once serially and once sharded per entry of [`JOBS`],
/// returning every result in that order.
fn run_all<A, L, O>(
    g: &Graph,
    alg: &A,
    link: &L,
    observer: impl Fn() -> O,
) -> Vec<(String, Result<SimStats, SimError>, O)>
where
    A: ShardableAlgorithm + Clone,
    A::Msg: Send,
    L: ShardSafeLink,
    O: RoundObserver,
{
    let mut out = Vec::new();
    let mut obs = observer();
    let res = Simulator::new(g).try_run_with(&mut alg.clone(), 50, &mut obs, &mut link.clone());
    out.push(("one shard".to_string(), res, obs));
    for jobs in JOBS {
        let mut obs = observer();
        let res = Simulator::new(g)
            .with_jobs(jobs)
            .try_run_sharded_with(&mut alg.clone(), 50, &mut obs, &mut link.clone())
            .map(|(stats, _)| stats);
        out.push((format!("jobs={jobs}"), res, obs));
    }
    out
}

/// Every node sends a unit message to each neighbour every round; in
/// algorithm round `at_round` the culprit then also sends to `extra`.
#[derive(Clone)]
struct Culprit {
    culprit: NodeId,
    at_round: usize,
    extra: NodeId,
}

impl CongestAlgorithm for Culprit {
    type Msg = u8;
    type Output = ();

    fn message_bits(_: &u8) -> u64 {
        1
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, u8)> {
        ctx.neighbors(node).iter().map(|&u| (u, 0)).collect()
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        _: &[(NodeId, u8)],
    ) -> (Vec<(NodeId, u8)>, RoundOutcome) {
        let mut out: Vec<(NodeId, u8)> = ctx.neighbors(node).iter().map(|&u| (u, 0)).collect();
        if node == self.culprit && round == self.at_round {
            out.push((self.extra, 0));
        }
        (out, RoundOutcome::Continue)
    }

    fn output(&self, _: NodeId) -> Option<()> {
        None
    }
}

impl ShardableAlgorithm for Culprit {
    fn split_shard(&mut self, _: NodeId, _: NodeId) -> Self {
        self.clone()
    }

    fn absorb_shard(&mut self, _: Self, _: NodeId, _: NodeId) {}
}

/// Culprits in the first, a middle and the last shard at 4 workers.
fn culprits(g: &Graph) -> [NodeId; 3] {
    [0, g.num_nodes() / 2, g.num_nodes() - 1]
}

/// Asserts that every run of `alg` under `link` fails with `want`.
fn assert_rejected(g: &Graph, alg: &Culprit, link: &FaultPlan, want: SimError) {
    for (label, res, _) in run_all(g, alg, link, || NoopRoundObserver) {
        assert_eq!(res.err(), Some(want), "{label}");
    }
}

#[test]
fn self_send_is_a_non_neighbor_send() {
    let g = test_graph();
    for culprit in culprits(&g) {
        let alg = Culprit {
            culprit,
            at_round: 2,
            extra: culprit,
        };
        let want = SimError::NonNeighborSend {
            from: culprit,
            to: culprit,
            round: 3,
        };
        assert_rejected(&g, &alg, &FaultPlan::empty(), want);
    }
}

#[test]
fn send_to_an_id_at_or_above_n_is_a_non_neighbor_send() {
    let g = test_graph();
    let n = g.num_nodes();
    for culprit in culprits(&g) {
        for to in [n, n + 1, usize::MAX] {
            let alg = Culprit {
                culprit,
                at_round: 1,
                extra: to,
            };
            let want = SimError::NonNeighborSend {
                from: culprit,
                to,
                round: 2,
            };
            assert_rejected(&g, &alg, &FaultPlan::empty(), want);
        }
    }
}

/// A link that applies `action` to the culprit's first copy: its send to
/// its first neighbour in the round the duplicate follows it.
fn fault_on_first_copy(g: &Graph, alg: &Culprit, action: FaultAction) -> FaultPlan {
    FaultPlan::new(3).with_targeted(TargetedFault {
        round: RoundFilter::At(alg.at_round as u64 + 1),
        from: Some(alg.culprit),
        to: Some(g.neighbors(alg.culprit)[0]),
        action,
    })
}

fn duplicate_after_faulted_first_copy(action: FaultAction) {
    let g = test_graph();
    for culprit in culprits(&g) {
        let to = g.neighbors(culprit)[0];
        let alg = Culprit {
            culprit,
            at_round: 2,
            extra: to,
        };
        let link = fault_on_first_copy(&g, &alg, action);
        let want = SimError::DuplicateSend {
            from: culprit,
            to,
            round: 3,
        };
        assert_rejected(&g, &alg, &link, want);
        // The fault really fires on the first copy: without the
        // duplicate the same plan runs clean and reports it.
        let clean = Culprit {
            at_round: usize::MAX,
            ..alg
        };
        for (label, res, _) in run_all(&g, &clean, &link, || NoopRoundObserver) {
            let faults = res.unwrap_or_else(|e| panic!("{label}: {e}")).faults;
            let fired = match action {
                FaultAction::Drop => faults.drops,
                FaultAction::Delay(_) => faults.delays,
                _ => unreachable!("only drops and delays are tested"),
            };
            assert_eq!(fired, 1, "{label}: {faults:?}");
        }
    }
}

#[test]
fn duplicate_whose_first_copy_was_dropped_is_rejected() {
    duplicate_after_faulted_first_copy(FaultAction::Drop);
}

#[test]
fn duplicate_whose_first_copy_was_delayed_is_rejected() {
    duplicate_after_faulted_first_copy(FaultAction::Delay(2));
}

/// Even nodes send a zero-bit message to every neighbour for three
/// rounds; odd nodes only listen.
#[derive(Clone)]
struct ZeroBitFlood;

impl CongestAlgorithm for ZeroBitFlood {
    type Msg = ();
    type Output = ();

    fn message_bits(_: &()) -> u64 {
        0
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, ())> {
        if node.is_multiple_of(2) {
            ctx.neighbors(node).iter().map(|&u| (u, ())).collect()
        } else {
            Vec::new()
        }
    }

    fn round(
        &mut self,
        _: NodeId,
        _: &NodeContext<'_>,
        _: usize,
        _: &[(NodeId, ())],
    ) -> (Vec<(NodeId, ())>, RoundOutcome) {
        unreachable!("the engine drives round_into")
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        _: &[(NodeId, ())],
        out: &mut SendBuf<()>,
    ) -> RoundOutcome {
        if round >= 2 {
            return RoundOutcome::Halt;
        }
        if node.is_multiple_of(2) {
            out.extend(ctx.neighbors(node).iter().map(|&u| (u, ())));
        }
        RoundOutcome::Continue
    }

    fn output(&self, _: NodeId) -> Option<()> {
        None
    }
}

impl ShardableAlgorithm for ZeroBitFlood {
    fn split_shard(&mut self, _: NodeId, _: NodeId) -> Self {
        ZeroBitFlood
    }

    fn absorb_shard(&mut self, _: Self, _: NodeId, _: NodeId) {}
}

/// Keeps every round's per-edge map.
#[derive(Default)]
struct EdgeMaps(Vec<HashMap<(NodeId, NodeId), u64>>);

impl RoundObserver for EdgeMaps {
    fn wants_edge_traffic(&self) -> bool {
        true
    }

    fn on_round(&mut self, delta: &RoundDelta<'_>) {
        self.0
            .push(delta.edge_bits.expect("edge traffic requested").clone());
    }
}

#[test]
fn zero_bit_messages_create_zero_entries_for_every_edge_used() {
    let g = test_graph();
    let used: HashMap<(NodeId, NodeId), u64> = g
        .edges()
        .filter(|&(u, v, _)| u % 2 == 0 || v % 2 == 0)
        .map(|(u, v, _)| ((u, v), 0))
        .collect();
    assert!(used.len() < g.num_edges(), "some edge must stay unused");
    let sends: u64 = (0..g.num_nodes())
        .filter(|v| v % 2 == 0)
        .map(|v| g.degree(v) as u64)
        .sum();
    for (label, res, maps) in run_all(&g, &ZeroBitFlood, &FaultPlan::empty(), EdgeMaps::default) {
        let stats = res.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(stats.bits_per_edge, used, "{label}");
        assert_eq!(stats.total_bits, 0, "{label}");
        // Round 0 and algorithm rounds 0 and 1 send; round 2 halts.
        assert_eq!(stats.messages, 3 * sends, "{label}");
        assert_eq!(maps.0.len(), 4, "{label}");
        let silent = HashMap::new();
        for (round, map) in maps.0.iter().enumerate() {
            let want = if round < 3 { &used } else { &silent };
            assert_eq!(map, want, "{label}: round {round}");
        }
    }
}
