//! The delivery order contract, stated without reference to any engine.
//!
//! * Every inbox is `[delayed arrivals] ++ [on-time arrivals]`, and the
//!   on-time arrivals come in strictly ascending sender order — at every
//!   worker count, fault-free and under delay faults. Messages carry the
//!   timeline round they were sent in, so "on time" (sent in the previous
//!   timeline round) and "delayed" (sent earlier) are visible in the
//!   inbox itself.
//! * A serial run borrows the caller's algorithm and link in place: it
//!   accepts an algorithm that is neither `Send` nor shardable and a link
//!   that is neither `Clone` nor shard-safe, and drives the link exactly
//!   as `LinkLayer`'s docs promise — `on_run_start` once, `crashes_at`
//!   once per round, and `fate` in (round, ascending sender, emission)
//!   order.

use std::cell::Cell;
use std::rc::Rc;

use congest_hardness::faults::FaultPlan;
use congest_hardness::graph::{generators, Graph, NodeId};
use congest_hardness::sim::{
    CongestAlgorithm, LinkFate, LinkLayer, NodeContext, NoopRoundObserver, RoundOutcome,
    RunOutcome, ShardableAlgorithm, Simulator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ROUNDS: u64 = 14;

/// An inbox as `(sender, send round)` pairs, in arrival order.
type Inbox = Vec<(NodeId, u64)>;

/// Every node sends its neighbours (in descending id order) the timeline
/// round of the send, skipping every third round so that inboxes vary,
/// and records each inbox it is handed.
struct Stamped {
    /// Per node: `(algorithm round, inbox)`.
    inboxes: Vec<Vec<(usize, Inbox)>>,
}

impl Stamped {
    fn new(n: usize) -> Self {
        Stamped {
            inboxes: vec![Vec::new(); n],
        }
    }

    /// Whether `node` sends in timeline round `t`.
    fn sends(node: NodeId, t: u64) -> bool {
        !(node as u64 + t).is_multiple_of(3)
    }

    fn sends_of(node: NodeId, ctx: &NodeContext<'_>, t: u64) -> Vec<(NodeId, u64)> {
        if !Self::sends(node, t) {
            return Vec::new();
        }
        ctx.neighbors(node).iter().rev().map(|&u| (u, t)).collect()
    }
}

impl CongestAlgorithm for Stamped {
    type Msg = u64;
    type Output = ();

    fn message_bits(_: &u64) -> u64 {
        16
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, u64)> {
        Self::sends_of(node, ctx, 0)
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, u64)],
    ) -> (Vec<(NodeId, u64)>, RoundOutcome) {
        self.inboxes[node].push((round, inbox.to_vec()));
        // Algorithm round `r` is timeline round `r + 1`.
        let out = Self::sends_of(node, ctx, round as u64 + 1);
        (out, RoundOutcome::Continue)
    }

    fn output(&self, _: NodeId) -> Option<()> {
        Some(())
    }
}

impl ShardableAlgorithm for Stamped {
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self {
        let mut shard = Stamped::new(self.inboxes.len());
        shard.inboxes[lo..hi].swap_with_slice(&mut self.inboxes[lo..hi]);
        shard
    }

    fn absorb_shard(&mut self, mut shard: Self, lo: NodeId, hi: NodeId) {
        self.inboxes[lo..hi].swap_with_slice(&mut shard.inboxes[lo..hi]);
    }
}

fn test_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(11);
    generators::connected_gnp(24, 0.3, &mut rng)
}

/// What the order check saw, to rule out a vacuous pass.
#[derive(Debug, Default)]
struct Seen {
    /// Inboxes with at least two on-time senders.
    multi_sender: usize,
    /// Inboxes holding a delayed arrival ahead of an on-time one.
    mixed: usize,
    /// Delayed arrivals overall.
    delayed: usize,
}

/// Asserts the contract on every recorded inbox. With `fault_free`, the
/// on-time senders must also be exactly the neighbours that sent.
fn check_inboxes(label: &str, g: &Graph, alg: &Stamped, fault_free: bool) -> Seen {
    let mut seen = Seen::default();
    for (v, rounds) in alg.inboxes.iter().enumerate() {
        assert_eq!(
            rounds.len() as u64,
            ROUNDS,
            "{label}: node {v} skipped rounds"
        );
        for (round, inbox) in rounds {
            // Messages sent in timeline round `round` arrive on time in
            // algorithm round `round`; anything older was delayed.
            let on_time_round = *round as u64;
            let split = inbox
                .iter()
                .position(|&(_, sent)| sent == on_time_round)
                .unwrap_or(inbox.len());
            let (late, on_time) = inbox.split_at(split);
            let ctx = format!("{label}: node {v}, round {round}, inbox {inbox:?}");
            assert!(
                late.iter().all(|&(_, sent)| sent < on_time_round),
                "{ctx}: a message arrived early, or a delayed one after an on-time one"
            );
            assert!(
                on_time.iter().all(|&(_, sent)| sent == on_time_round),
                "{ctx}: a delayed message arrived after an on-time one"
            );
            assert!(
                on_time.windows(2).all(|w| w[0].0 < w[1].0),
                "{ctx}: on-time senders are not strictly ascending"
            );
            if fault_free {
                assert!(late.is_empty(), "{ctx}: a late message without faults");
                let mut expected: Vec<NodeId> = g
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&u| Stamped::sends(u, on_time_round))
                    .collect();
                expected.sort_unstable();
                let got: Vec<NodeId> = on_time.iter().map(|&(u, _)| u).collect();
                assert_eq!(got, expected, "{ctx}: wrong on-time senders");
            }
            seen.multi_sender += usize::from(on_time.len() >= 2);
            seen.mixed += usize::from(!late.is_empty() && !on_time.is_empty());
            seen.delayed += late.len();
        }
    }
    seen
}

/// Runs `Stamped` serially and at jobs 1/2/4/8 under `plan`, checking the
/// order contract on each run and that all runs saw the same inboxes.
fn check_plan(label: &str, plan: &FaultPlan, fault_free: bool) -> Seen {
    let g = test_graph();
    let n = g.num_nodes();
    let base = || Simulator::new(&g).stop_on_quiescence(false);

    let mut serial = Stamped::new(n);
    let stats = base()
        .try_run_with(
            &mut serial,
            ROUNDS,
            &mut NoopRoundObserver,
            &mut plan.clone(),
        )
        .expect("legal run");
    assert_eq!(stats.outcome, RunOutcome::RoundBudget);
    assert_eq!(
        fault_free,
        stats.faults.total() == 0,
        "{label}: fault count"
    );
    let seen = check_inboxes(&format!("{label} serial"), &g, &serial, fault_free);

    for jobs in [1, 2, 4, 8] {
        let mut alg = Stamped::new(n);
        let (sharded, _) = base()
            .with_jobs(jobs)
            .try_run_sharded_with(&mut alg, ROUNDS, &mut NoopRoundObserver, &mut plan.clone())
            .expect("legal run");
        let label = format!("{label} jobs={jobs}");
        check_inboxes(&label, &g, &alg, fault_free);
        assert_eq!(sharded, stats, "{label}: stats differ from the serial run");
        assert_eq!(alg.inboxes, serial.inboxes, "{label}: inboxes differ");
    }
    seen
}

#[test]
fn fault_free_inboxes_are_in_ascending_sender_order() {
    let seen = check_plan("fault-free", &FaultPlan::empty(), true);
    assert!(
        seen.multi_sender > 100,
        "too few multi-sender inboxes: {seen:?}"
    );
}

#[test]
fn delayed_arrivals_precede_on_time_ones() {
    let plan = FaultPlan::new(5).with_delay_prob(0.3, 3);
    let seen = check_plan("delay-only", &plan, false);
    assert!(seen.delayed > 50, "too few delayed arrivals: {seen:?}");
    assert!(seen.mixed > 20, "too few mixed inboxes: {seen:?}");
    assert!(
        seen.multi_sender > 50,
        "too few multi-sender inboxes: {seen:?}"
    );
}

/// Min-id flooding whose per-node state sits behind an `Rc`, so the
/// algorithm is neither `Send` nor shardable. It logs every send in
/// emission order (neighbours in descending id order).
struct RcFlood {
    best: Rc<Vec<Cell<NodeId>>>,
    emitted: Vec<(u64, NodeId, NodeId)>,
}

impl RcFlood {
    fn emit(&mut self, t: u64, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, NodeId)> {
        let best = self.best[node].get();
        let out: Vec<(NodeId, NodeId)> = ctx
            .neighbors(node)
            .iter()
            .rev()
            .map(|&u| (u, best))
            .collect();
        self.emitted.extend(out.iter().map(|&(u, _)| (t, node, u)));
        out
    }
}

impl CongestAlgorithm for RcFlood {
    type Msg = NodeId;
    type Output = NodeId;

    fn message_bits(_: &NodeId) -> u64 {
        8
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, NodeId)> {
        self.emit(0, node, ctx)
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, NodeId)],
    ) -> (Vec<(NodeId, NodeId)>, RoundOutcome) {
        let heard = inbox.iter().map(|&(_, id)| id).min();
        match heard {
            Some(id) if id < self.best[node].get() => {
                self.best[node].set(id);
                (
                    self.emit(round as u64 + 1, node, ctx),
                    RoundOutcome::Continue,
                )
            }
            _ => (Vec::new(), RoundOutcome::Continue),
        }
    }

    fn output(&self, node: NodeId) -> Option<NodeId> {
        Some(self.best[node].get())
    }
}

/// Logs every call the engine makes; deliberately neither `Clone` nor
/// `ShardSafeLink`.
#[derive(Default)]
struct CallLog {
    starts: Vec<usize>,
    crash_queries: Vec<u64>,
    fates: Vec<(u64, NodeId, NodeId)>,
}

impl LinkLayer for CallLog {
    fn on_run_start(&mut self, n: usize) {
        self.starts.push(n);
    }

    fn fate(&mut self, round: u64, from: NodeId, to: NodeId, _bits: u64) -> LinkFate {
        self.fates.push((round, from, to));
        LinkFate::Deliver
    }

    fn crashes_at(&mut self, round: u64) -> Vec<NodeId> {
        self.crash_queries.push(round);
        Vec::new()
    }
}

#[test]
fn serial_run_borrows_a_non_send_algorithm_and_a_plain_link() {
    let g = generators::cycle(9);
    let n = g.num_nodes();
    let best = Rc::new((0..n).map(|v| Cell::new((v * 4) % n)).collect::<Vec<_>>());
    let mut alg = RcFlood {
        best: Rc::clone(&best),
        emitted: Vec::new(),
    };
    let mut link = CallLog::default();
    let stats = Simulator::new(&g)
        .try_run_with(&mut alg, 100, &mut NoopRoundObserver, &mut link)
        .expect("legal run");
    assert_eq!(stats.outcome, RunOutcome::Quiescent);
    assert!(stats.rounds > 2, "rounds = {}", stats.rounds);

    // The caller's instance ran in place: its shared state converged.
    assert!(best.iter().all(|b| b.get() == 0));
    assert_eq!(Rc::strong_count(&best), 2);

    assert_eq!(link.starts, [n], "on_run_start runs once, with n");
    let rounds: Vec<u64> = (0..stats.rounds).collect();
    assert_eq!(link.crash_queries, rounds, "crashes_at runs once per round");
    assert_eq!(link.fates.len() as u64, stats.messages);
    assert_eq!(
        link.fates, alg.emitted,
        "fate follows the emission order of every message"
    );
    assert!(
        link.fates
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
        "fate runs in (round, ascending sender) order"
    );
    // Each sender emits to its neighbours in descending order, so the
    // emission-order check above is not satisfied by sorting alone.
    assert!(link
        .fates
        .windows(2)
        .any(|w| w[0].1 == w[1].1 && w[0].2 > w[1].2));
}
