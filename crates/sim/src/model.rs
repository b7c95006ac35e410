use std::collections::HashMap;

use congest_graph::{Csr, Graph, NodeId};

use crate::error::SimError;
use crate::link::{FaultCounters, LinkLayer, PerfectLink};
use crate::observer::RoundObserver;
#[cfg(test)]
use crate::profile::Phase;
use crate::profile::PhaseProfile;

/// The default CONGEST bandwidth: `2·⌈log₂ n⌉ + 16` bits per edge per
/// round — enough for a constant number of identifiers plus tags, the
/// standard "`O(log n)` bits" reading.
pub fn default_bandwidth(n: usize) -> u64 {
    let log = if n <= 1 {
        1
    } else {
        64 - (n as u64 - 1).leading_zeros() as u64
    };
    2 * log + 16
}

/// Builds a [`NodeContext`] over a CSR snapshot (used by the
/// hosted-execution adapter to present the *reduced* topology to an inner
/// algorithm).
pub(crate) fn make_context(csr: &Csr) -> NodeContext<'_> {
    NodeContext {
        csr,
        n: csr.num_nodes(),
        bandwidth: default_bandwidth(csr.num_nodes()),
    }
}

/// Read-only view of what a node locally knows: its id, its neighborhood,
/// and global constants (`n`, bandwidth). This is the KT1 variant — nodes
/// know their neighbors' identifiers.
///
/// The view reads the run's [`Csr`] snapshot, whose rows lie in one flat
/// array in node order: an engine stepping nodes in ascending order walks
/// the adjacency sequentially. [`NodeContext::neighbors`] is the graph's
/// insertion order, exactly as [`Graph::neighbors`] returns it.
#[derive(Debug)]
pub struct NodeContext<'g> {
    pub(crate) csr: &'g Csr,
    pub(crate) n: usize,
    pub(crate) bandwidth: u64,
}

impl<'g> NodeContext<'g> {
    /// Number of nodes in the network (assumed globally known, as usual).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The per-edge per-round bandwidth in bits.
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// The neighbors of `v`, in the graph's insertion order.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.csr.neighbors(v)
    }

    /// The degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr.degree(v)
    }

    /// The weight of the local edge `(v, u)`.
    ///
    /// # Panics
    ///
    /// Panics if `(v, u)` is not an edge (locality violation).
    pub fn edge_weight(&self, v: NodeId, u: NodeId) -> congest_graph::Weight {
        self.csr
            .edge_weight(v, u)
            .expect("edge_weight queried for a non-incident edge")
    }
}

/// What a node does at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Keep participating.
    Continue,
    /// Terminate locally. A halted node neither sends nor is woken again,
    /// and pending inbound messages addressed to it are dropped at the
    /// delivery step (the sender still paid the bits). Crash-stopped nodes
    /// (see [`LinkLayer::crashes_at`]) get exactly the same semantics.
    Halt,
    /// Abort the entire run: the current round completes (messages already
    /// emitted this round are still dispatched and metered), the observer
    /// sees the final partial round, and the run ends with
    /// [`RunOutcome::NodeAborted`] instead of spinning to `max_rounds`.
    Aborted,
}

/// Why a run ended (recorded in [`SimStats::outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every node halted.
    Halted,
    /// The network went quiescent with quiescence-stopping enabled.
    Quiescent,
    /// The round budget (`max_rounds`) was exhausted first.
    RoundBudget,
    /// The bit budget ([`Simulator::with_bit_budget`]) was exceeded and the
    /// run ended gracefully after the offending round.
    BitBudget,
    /// A node returned [`RoundOutcome::Aborted`]; the run ended after that
    /// round.
    NodeAborted(
        /// The aborting node.
        NodeId,
    ),
}

impl RunOutcome {
    /// Stable lowercase name used in obs records and CLI summaries.
    pub fn as_str(&self) -> &'static str {
        match self {
            RunOutcome::Halted => "halted",
            RunOutcome::Quiescent => "quiescent",
            RunOutcome::RoundBudget => "round_budget",
            RunOutcome::BitBudget => "bit_budget",
            RunOutcome::NodeAborted(_) => "node_aborted",
        }
    }

    /// True for the outcomes that cut a run short (budget guards and node
    /// aborts) rather than letting it converge.
    pub fn aborted(&self) -> bool {
        matches!(self, RunOutcome::BitBudget | RunOutcome::NodeAborted(_))
    }
}

impl Default for RunOutcome {
    /// `RoundBudget` — the outcome of a run that never got to decide
    /// anything else (also what `SimStats::default()` carries).
    fn default() -> Self {
        RunOutcome::RoundBudget
    }
}

/// A distributed algorithm in the CONGEST model.
///
/// One implementor instance holds the state of *all* nodes (indexed by
/// `NodeId`); the simulator calls each node's hooks in an arbitrary but
/// fixed order each round. Implementations must only inspect state of the
/// node they are called for, plus the [`NodeContext`] — that is the
/// locality discipline of the model.
pub trait CongestAlgorithm {
    /// The message type exchanged on edges.
    type Msg: Clone;

    /// The per-node output type.
    type Output;

    /// The exact size of a message in bits (enforced against bandwidth).
    fn message_bits(msg: &Self::Msg) -> u64;

    /// Round 0: produce initial outgoing messages for `node`.
    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, Self::Msg)>;

    /// One round: consume `inbox` (sender, message) pairs delivered this
    /// round, emit messages for the next round, and decide whether to halt.
    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, Self::Msg)],
    ) -> (Vec<(NodeId, Self::Msg)>, RoundOutcome);

    /// Allocation-free twin of [`CongestAlgorithm::round`]: append this
    /// round's sends to `out` (a buffer the engine reuses across rounds)
    /// instead of returning a fresh `Vec`. The engine always drives
    /// rounds through this hook; the default implementation appends what
    /// [`CongestAlgorithm::round`] returns, so existing algorithms keep
    /// working unchanged. The engine meters every send in `out` at
    /// [`CongestAlgorithm::message_bits`], whichever hook produced it.
    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, Self::Msg)],
        out: &mut SendBuf<Self::Msg>,
    ) -> RoundOutcome {
        let (sends, outcome) = self.round(node, ctx, round, inbox);
        out.extend(sends);
        outcome
    }

    /// The node's final output, if it has decided one.
    fn output(&self, node: NodeId) -> Option<Self::Output>;

    /// Applies a single-bit perturbation to a message in transit, for
    /// fault injection ([`crate::LinkFate::Corrupt`]). `bit` is a free
    /// index the implementation maps onto its payload (typically
    /// `bit % width`).
    ///
    /// Returning `None` — the default — declares the message type opaque
    /// to corruption; the fault layer then loses the message instead
    /// (still counted as a corruption).
    fn corrupt(msg: &Self::Msg, bit: u32) -> Option<Self::Msg> {
        let _ = (msg, bit);
        None
    }
}

/// One node's sends for a round, `(receiver, message)` in emission
/// order: what [`CongestAlgorithm::init`] and [`CongestAlgorithm::round`]
/// return and what [`CongestAlgorithm::round_into`] appends to. The
/// engine meters each message at [`CongestAlgorithm::message_bits`] when
/// it dispatches the list; a sender has no other say in its width.
pub type SendBuf<M> = Vec<(NodeId, M)>;

/// Traffic totals for one round of a run (an entry of
/// [`SimStats::round_timeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Round number; 0 is the initial burst emitted by
    /// [`CongestAlgorithm::init`], rounds `1..=rounds` are loop rounds.
    pub round: u64,
    /// Messages dispatched during this round.
    pub messages: u64,
    /// Bits dispatched during this round.
    pub bits: u64,
}

/// Execution statistics with exact bit accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Number of rounds executed (a round = one synchronous delivery).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total bits sent.
    pub total_bits: u64,
    /// Bits sent per (undirected) edge, keyed by `(min, max)` endpoint.
    pub bits_per_edge: HashMap<(NodeId, NodeId), u64>,
    /// Per-round traffic, one entry per executed round plus the round-0
    /// init burst (`round_timeline.len() == rounds + 1` after a run).
    pub round_timeline: Vec<RoundTraffic>,
    /// Per-class totals of injected faults (all zero on the fault-free
    /// [`PerfectLink`] path).
    pub faults: FaultCounters,
    /// Why the run ended.
    pub outcome: RunOutcome,
}

impl SimStats {
    /// Total bits that crossed a given set of edges (e.g. the Alice–Bob
    /// cut of Theorem 1.1). Edge endpoints may be given in either order.
    pub fn bits_across(&self, cut: &[(NodeId, NodeId)]) -> u64 {
        cut.iter()
            .map(|&(u, v)| {
                let key = (u.min(v), u.max(v));
                self.bits_per_edge.get(&key).copied().unwrap_or(0)
            })
            .sum()
    }

    /// Distribution of per-edge bit totals in log₂ buckets — the
    /// congestion profile of the run.
    pub fn congestion_histogram(&self) -> congest_obs::Histogram {
        let mut h = congest_obs::Histogram::new();
        for &bits in self.bits_per_edge.values() {
            h.observe(bits);
        }
        h
    }

    /// The `k` edges that carried the most bits, heaviest first (ties
    /// broken by edge key for determinism).
    pub fn hottest_edges(&self, k: usize) -> Vec<((NodeId, NodeId), u64)> {
        let mut edges: Vec<((NodeId, NodeId), u64)> =
            self.bits_per_edge.iter().map(|(&e, &b)| (e, b)).collect();
        edges.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        edges.truncate(k);
        edges
    }

    /// The largest number of bits dispatched in any single round.
    pub fn max_round_bits(&self) -> u64 {
        self.round_timeline
            .iter()
            .map(|r| r.bits)
            .max()
            .unwrap_or(0)
    }
}

/// The synchronous executor.
///
/// Construction snapshots the graph into a [`Csr`] view (dense edge ids,
/// sorted neighborhoods), which the engine's inner loop runs on: every
/// [`NodeContext`] reads its rows, a send is resolved by one binary
/// search in the sender's own sorted row (its slot, see [`Csr::slot`]),
/// and the duplicate check and per-edge metering index shard-local
/// arrays by that slot. One `Simulator` value can be reused across runs
/// to amortize the snapshot.
///
/// Every run method drives the same engine (the `shard` module): the
/// serial methods are its one-shard case, stepped on the calling thread
/// with the caller's algorithm and link borrowed in place; the sharded
/// methods split the nodes across the worker pool.
#[derive(Debug)]
pub struct Simulator<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) csr: Csr,
    pub(crate) bandwidth: u64,
    pub(crate) stop_on_quiescence: bool,
    pub(crate) bit_budget: Option<u64>,
    /// Worker count for the sharded entry points (`try_run_sharded*`);
    /// `0` means one shard per available core. The serial entry points
    /// always run one shard. See [`Simulator::with_jobs`].
    pub(crate) jobs: usize,
}

impl<'g> Simulator<'g> {
    /// A simulator over `graph` with the default `O(log n)` bandwidth.
    pub fn new(graph: &'g Graph) -> Self {
        let bw = default_bandwidth(graph.num_nodes());
        Simulator::with_bandwidth(graph, bw)
    }

    /// A simulator with explicit per-edge per-round bandwidth in bits.
    pub fn with_bandwidth(graph: &'g Graph, bandwidth: u64) -> Self {
        Simulator {
            graph,
            csr: Csr::from_graph(graph),
            bandwidth,
            stop_on_quiescence: true,
            bit_budget: None,
            jobs: 1,
        }
    }

    /// Controls termination-by-silence. When `true` (the default) a run
    /// stops after a round in which no message was in flight and no node
    /// emitted one — convenient for flooding algorithms that converge
    /// without explicit halting. Algorithms that pause on internal round
    /// barriers (e.g. [`crate::algorithms::SampledMaxCut`]) must set this
    /// to `false` and halt explicitly.
    pub fn stop_on_quiescence(mut self, stop: bool) -> Self {
        self.stop_on_quiescence = stop;
        self
    }

    /// Sets the worker count used by the sharded entry points
    /// ([`Simulator::try_run_sharded`], [`Simulator::try_run_sharded_with`]):
    /// the node set is split into `jobs` contiguous shards, one worker
    /// thread per shard. `0` means one shard per available core; the
    /// default is `1` (one shard on the calling thread, no threads
    /// spawned). Runs produce byte-identical `SimStats` and observer
    /// callbacks at every worker count — the knob only changes
    /// wall-clock time.
    ///
    /// The serial entry points (`run`, `try_run`, ...) ignore this knob:
    /// they are always the one-shard case of the same engine, and borrow
    /// the caller's algorithm and link instead of splitting and cloning
    /// them.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The configured worker count for sharded runs (see
    /// [`Simulator::with_jobs`]); `0` means one shard per available core.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Caps the total bits a run may dispatch. When the cap is exceeded
    /// the run ends gracefully after the offending round with
    /// [`RunOutcome::BitBudget`] instead of spinning to `max_rounds`.
    pub fn with_bit_budget(mut self, bits: u64) -> Self {
        self.bit_budget = Some(bits);
        self
    }

    /// The graph this simulator executes over.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The CSR snapshot the engine runs on (edge ids index
    /// per-edge meters; see [`Csr`]).
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The configured per-edge per-round bandwidth in bits.
    pub fn bandwidth(&self) -> u64 {
        self.bandwidth
    }

    /// Runs `alg` until every node halts, the network goes quiescent
    /// (if configured), or `max_rounds` passes.
    ///
    /// # Panics
    ///
    /// Panics if a node sends to a non-neighbor, a message exceeds the
    /// bandwidth, or two messages are sent over the same edge in the same
    /// direction in one round (all CONGEST-model violations). Prefer
    /// [`Simulator::try_run`] for a typed [`SimError`] instead; this
    /// wrapper panics with exactly the error's display string.
    pub fn run<A: CongestAlgorithm>(&self, alg: &mut A, max_rounds: u64) -> SimStats {
        self.run_observed(alg, max_rounds, &mut crate::observer::NoopRoundObserver)
    }

    /// Like [`Simulator::run`], but drives a [`RoundObserver`] alongside
    /// the execution: the observer sees one [`crate::observer::RoundDelta`]
    /// per round (including the round-0 init burst) and the final stats.
    ///
    /// The execution itself is identical to `run` — the hook is additive.
    ///
    /// # Panics
    ///
    /// Same model violations as [`Simulator::run`].
    pub fn run_observed<A: CongestAlgorithm, O: RoundObserver>(
        &self,
        alg: &mut A,
        max_rounds: u64,
        observer: &mut O,
    ) -> SimStats {
        match self.try_run_with(alg, max_rounds, observer, &mut PerfectLink) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Simulator::run`]: model violations surface as a
    /// typed [`SimError`] instead of a panic. Fault-free and unobserved.
    pub fn try_run<A: CongestAlgorithm>(
        &self,
        alg: &mut A,
        max_rounds: u64,
    ) -> Result<SimStats, SimError> {
        self.try_run_with(
            alg,
            max_rounds,
            &mut crate::observer::NoopRoundObserver,
            &mut PerfectLink,
        )
    }

    /// The full serial run: runs `alg` with a [`RoundObserver`] and a
    /// [`LinkLayer`] deciding the fate of every message, as the engine's
    /// one-shard case on the calling thread. With [`PerfectLink`] the
    /// execution is bit-for-bit identical to [`Simulator::run`] (same
    /// `SimStats`, same observer callbacks); for a shardable algorithm
    /// and a shard-safe link it is byte-identical to
    /// [`Simulator::try_run_sharded_with`] at any worker count.
    ///
    /// `alg` and `link` are borrowed in place — neither needs to be
    /// `Send`, `Clone` or shardable. The link sees `on_run_start` once,
    /// `crashes_at` once per round, and `fate` in (round, ascending
    /// sender, emission) order.
    ///
    /// On a model violation the run stops where the violation occurred and
    /// the error is returned; the observer's `on_done` is *not* called
    /// (there are no final stats for a rejected run).
    pub fn try_run_with<A: CongestAlgorithm, O: RoundObserver, L: LinkLayer>(
        &self,
        alg: &mut A,
        max_rounds: u64,
        observer: &mut O,
        link: &mut L,
    ) -> Result<SimStats, SimError> {
        self.run_one_shard(alg, max_rounds, observer, link, None)
    }

    /// Like [`Simulator::try_run_with`], with phase-level profiling: wall
    /// time of every round is attributed to the `deliver`/`compute`/
    /// `meter`/`link_fate`/`epilogue` phases in `profile` (which
    /// accumulates across runs — reuse one profile to aggregate a
    /// sweep). The execution and its `SimStats` are identical to the
    /// unprofiled run; only wall-clock observation is added.
    pub fn try_run_profiled<A: CongestAlgorithm, O: RoundObserver, L: LinkLayer>(
        &self,
        alg: &mut A,
        max_rounds: u64,
        observer: &mut O,
        link: &mut L,
        profile: &mut PhaseProfile,
    ) -> Result<SimStats, SimError> {
        self.run_one_shard(alg, max_rounds, observer, link, Some(profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each node floods the minimum id it has seen; halts after `n` rounds.
    struct MinIdFlood {
        best: Vec<NodeId>,
        sent: Vec<Option<NodeId>>,
    }

    impl MinIdFlood {
        fn new(n: usize) -> Self {
            MinIdFlood {
                best: (0..n).collect(),
                sent: vec![None; n],
            }
        }
    }

    impl CongestAlgorithm for MinIdFlood {
        type Msg = NodeId;
        type Output = NodeId;

        fn message_bits(_: &NodeId) -> u64 {
            16
        }

        fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, NodeId)> {
            self.sent[node] = Some(node);
            ctx.neighbors(node).iter().map(|&u| (u, node)).collect()
        }

        fn round(
            &mut self,
            node: NodeId,
            ctx: &NodeContext<'_>,
            _round: usize,
            inbox: &[(NodeId, NodeId)],
        ) -> (Vec<(NodeId, NodeId)>, RoundOutcome) {
            for &(_, id) in inbox {
                if id < self.best[node] {
                    self.best[node] = id;
                }
            }
            if self.sent[node] != Some(self.best[node]) {
                self.sent[node] = Some(self.best[node]);
                let out = ctx
                    .neighbors(node)
                    .iter()
                    .map(|&u| (u, self.best[node]))
                    .collect();
                (out, RoundOutcome::Continue)
            } else {
                (Vec::new(), RoundOutcome::Continue)
            }
        }

        fn output(&self, node: NodeId) -> Option<NodeId> {
            Some(self.best[node])
        }
    }

    #[test]
    fn profiled_run_is_execution_identical_and_attributes_time() {
        let g = congest_graph::generators::path(12);
        let sim = Simulator::new(&g).stop_on_quiescence(true);
        let mut plain_alg = MinIdFlood::new(12);
        let plain = sim.try_run(&mut plain_alg, 100).expect("runs");

        let mut prof = PhaseProfile::every_round();
        let mut prof_alg = MinIdFlood::new(12);
        let profiled = sim
            .try_run_profiled(
                &mut prof_alg,
                100,
                &mut crate::observer::NoopRoundObserver,
                &mut PerfectLink,
                &mut prof,
            )
            .expect("runs");

        assert_eq!(profiled.rounds, plain.rounds);
        assert_eq!(profiled.messages, plain.messages);
        assert_eq!(profiled.total_bits, plain.total_bits);
        assert_eq!(profiled.bits_per_edge, plain.bits_per_edge);
        assert_eq!(profiled.outcome, plain.outcome);

        assert_eq!(
            prof.rounds(),
            plain.rounds + 1,
            "init burst counts as round 0"
        );
        assert_eq!(
            prof.phase_calls(Phase::Meter),
            plain.messages,
            "every message metered under profiling"
        );
        assert!(prof.run_micros() > 0);
        assert_eq!(
            prof.run_coverage(),
            Some(1.0),
            "the laps tile the run's wall time"
        );
    }

    #[test]
    fn flooding_converges_in_diameter_rounds() {
        let g = congest_graph::generators::path(10);
        let sim = Simulator::new(&g);
        let mut alg = MinIdFlood::new(10);
        let stats = sim.run(&mut alg, 100);
        for v in 0..10 {
            assert_eq!(alg.output(v), Some(0));
        }
        // Path diameter 9; quiescence detection adds O(1).
        assert!(stats.rounds <= 12, "rounds = {}", stats.rounds);
        assert!(stats.total_bits > 0);
        assert_eq!(stats.outcome, RunOutcome::Quiescent);
        assert_eq!(stats.faults, FaultCounters::default());
    }

    #[test]
    fn stats_account_per_edge() {
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        let mut alg = MinIdFlood::new(3);
        let stats = sim.run(&mut alg, 100);
        let cut_bits = stats.bits_across(&[(1, 2)]);
        assert!(cut_bits > 0);
        assert_eq!(stats.total_bits, stats.bits_per_edge.values().sum::<u64>());
    }

    struct NonNeighborSender;
    impl CongestAlgorithm for NonNeighborSender {
        type Msg = ();
        type Output = ();
        fn message_bits(_: &()) -> u64 {
            1
        }
        fn init(&mut self, node: NodeId, _: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            if node == 0 {
                vec![(2, ())]
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
            (Vec::new(), RoundOutcome::Halt)
        }
        fn output(&self, _: NodeId) -> Option<()> {
            None
        }
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn locality_is_enforced() {
        let g = congest_graph::generators::path(3); // 0-1-2: (0,2) not an edge
        let sim = Simulator::new(&g);
        sim.run(&mut NonNeighborSender, 10);
    }

    /// The same violation through the fallible entry point is a typed
    /// error, not a panic.
    #[test]
    fn locality_violation_is_a_typed_error() {
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        let err = sim.try_run(&mut NonNeighborSender, 10).unwrap_err();
        assert_eq!(
            err,
            SimError::NonNeighborSend {
                from: 0,
                to: 2,
                round: 0
            }
        );
        assert_eq!(
            err.to_string(),
            "CONGEST violation: 0 sent to non-neighbor 2"
        );
    }

    struct FatSender;
    impl CongestAlgorithm for FatSender {
        type Msg = ();
        type Output = ();
        fn message_bits(_: &()) -> u64 {
            1_000_000
        }
        fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            ctx.neighbors(node).iter().map(|&u| (u, ())).collect()
        }
        fn round(
            &mut self,
            _: NodeId,
            _: &NodeContext<'_>,
            _: usize,
            _: &[(NodeId, ())],
        ) -> (Vec<(NodeId, ())>, RoundOutcome) {
            (Vec::new(), RoundOutcome::Halt)
        }
        fn output(&self, _: NodeId) -> Option<()> {
            None
        }
    }

    #[test]
    #[should_panic(expected = "exceeds bandwidth")]
    fn bandwidth_is_enforced() {
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        sim.run(&mut FatSender, 10);
    }

    /// Pins the full violation wording: downstream tooling greps traces
    /// and panics for the "CONGEST violation" prefix, so it is part of
    /// the crate's contract, not a cosmetic detail.
    #[test]
    #[should_panic(expected = "CONGEST violation: message of 1000000 bits exceeds bandwidth")]
    fn bandwidth_violation_message_is_stable() {
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        sim.run(&mut FatSender, 10);
    }

    #[test]
    fn default_bandwidth_is_logarithmic() {
        assert_eq!(default_bandwidth(2), 18);
        assert_eq!(default_bandwidth(1024), 36);
        assert!(default_bandwidth(1 << 20) < 100);
    }

    #[test]
    fn bits_across_accepts_unordered_edge_keys() {
        let g = congest_graph::generators::path(4);
        let sim = Simulator::new(&g);
        let mut alg = MinIdFlood::new(4);
        let stats = sim.run(&mut alg, 100);
        // bits_per_edge keys are (min, max); queries may come reversed.
        let forward = stats.bits_across(&[(1, 2)]);
        let reversed = stats.bits_across(&[(2, 1)]);
        assert!(forward > 0);
        assert_eq!(forward, reversed);
        // Mixed orders and duplicates each count what their edge carried.
        let mixed = stats.bits_across(&[(0, 1), (2, 1), (3, 2)]);
        assert_eq!(mixed, stats.total_bits);
        // Non-edges contribute zero rather than panicking.
        assert_eq!(stats.bits_across(&[(0, 3)]), 0);
    }

    #[test]
    fn round_timeline_reconciles_with_totals() {
        let g = congest_graph::generators::cycle(6);
        let sim = Simulator::new(&g);
        let mut alg = MinIdFlood::new(6);
        let stats = sim.run(&mut alg, 100);
        assert_eq!(stats.round_timeline.len() as u64, stats.rounds + 1);
        assert_eq!(stats.round_timeline[0].round, 0);
        let bits: u64 = stats.round_timeline.iter().map(|r| r.bits).sum();
        let messages: u64 = stats.round_timeline.iter().map(|r| r.messages).sum();
        assert_eq!(bits, stats.total_bits);
        assert_eq!(messages, stats.messages);
        assert!(stats.max_round_bits() >= bits / (stats.rounds + 1));
        let hist = stats.congestion_histogram();
        assert_eq!(hist.count(), stats.bits_per_edge.len() as u64);
        let hottest = stats.hottest_edges(2);
        assert_eq!(hottest.len(), 2);
        assert!(hottest[0].1 >= hottest[1].1);
    }

    /// The fallible engine with the perfect link reproduces `run` exactly,
    /// including the new fault/outcome fields.
    #[test]
    fn try_run_matches_run_on_perfect_link() {
        let g = congest_graph::generators::cycle(9);
        let sim = Simulator::new(&g);
        let baseline = sim.run(&mut MinIdFlood::new(9), 100);
        let typed = sim.try_run(&mut MinIdFlood::new(9), 100).unwrap();
        assert_eq!(baseline, typed);
    }

    /// Node 0 keeps streaming to node 1, which halts immediately: every
    /// message addressed to node 1 after its halt round is dropped at the
    /// delivery step (the sender still pays the bits). This pins the
    /// halted-inbox semantics documented on [`RoundOutcome::Halt`].
    struct StreamToHalted {
        delivered_to_1: usize,
    }
    impl CongestAlgorithm for StreamToHalted {
        type Msg = ();
        type Output = usize;
        fn message_bits(_: &()) -> u64 {
            1
        }
        fn init(&mut self, node: NodeId, _: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            if node == 0 {
                vec![(1, ())]
            } else {
                Vec::new()
            }
        }
        fn round(
            &mut self,
            node: NodeId,
            _: &NodeContext<'_>,
            _: usize,
            inbox: &[(NodeId, ())],
        ) -> (Vec<(NodeId, ())>, RoundOutcome) {
            if node == 0 {
                (vec![(1, ())], RoundOutcome::Continue)
            } else {
                self.delivered_to_1 += inbox.len();
                (Vec::new(), RoundOutcome::Halt)
            }
        }
        fn output(&self, _: NodeId) -> Option<usize> {
            Some(self.delivered_to_1)
        }
    }

    #[test]
    fn inbox_of_halted_node_is_dropped() {
        let g = congest_graph::generators::path(2);
        let sim = Simulator::new(&g);
        let mut alg = StreamToHalted { delivered_to_1: 0 };
        let stats = sim.run(&mut alg, 6);
        // Node 1 saw exactly the one init message delivered in round 1,
        // then halted; node 0's five later sends were dropped unseen.
        assert_eq!(alg.delivered_to_1, 1);
        assert_eq!(stats.rounds, 6);
        // Every send is still metered: 1 init + one per loop round.
        assert_eq!(stats.messages, 1 + stats.rounds);
        assert_eq!(stats.outcome, RunOutcome::RoundBudget);
    }

    /// A crash-stopped node gets exactly the halted-node semantics: its
    /// pending inbox is dropped and it takes no further steps.
    struct CrashAt {
        round: u64,
        node: NodeId,
        done: bool,
    }
    impl LinkLayer for CrashAt {
        fn on_run_start(&mut self, _: usize) {
            self.done = false;
        }
        fn crashes_at(&mut self, round: u64) -> Vec<NodeId> {
            if round == self.round && !self.done {
                self.done = true;
                vec![self.node]
            } else {
                Vec::new()
            }
        }
    }

    struct CountInbox {
        seen: Vec<usize>,
    }
    impl CongestAlgorithm for CountInbox {
        type Msg = ();
        type Output = usize;
        fn message_bits(_: &()) -> u64 {
            1
        }
        fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            ctx.neighbors(node).iter().map(|&u| (u, ())).collect()
        }
        fn round(
            &mut self,
            node: NodeId,
            ctx: &NodeContext<'_>,
            _: usize,
            inbox: &[(NodeId, ())],
        ) -> (Vec<(NodeId, ())>, RoundOutcome) {
            self.seen[node] += inbox.len();
            (
                ctx.neighbors(node).iter().map(|&u| (u, ())).collect(),
                RoundOutcome::Continue,
            )
        }
        fn output(&self, node: NodeId) -> Option<usize> {
            Some(self.seen[node])
        }
    }

    #[test]
    fn crash_stopped_node_drops_pending_inbox_like_halt() {
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        let mut alg = CountInbox { seen: vec![0; 3] };
        let mut link = CrashAt {
            round: 2,
            node: 1,
            done: false,
        };
        let stats = sim
            .try_run_with(
                &mut alg,
                6,
                &mut crate::observer::NoopRoundObserver,
                &mut link,
            )
            .unwrap();
        assert_eq!(stats.faults.crashes, 1);
        // Node 1 ran rounds 0 and 1 (two neighbors each), then crashed at
        // round 2 with a full inbox that was dropped.
        assert_eq!(alg.seen[1], 4);
        // The endpoints keep exchanging with each other? They only border
        // node 1, so their inboxes stop growing after the crash round too:
        // messages sent to node 1 vanish, and node 1 sends nothing.
        let seen_after = alg.seen[0];
        assert_eq!(seen_after, 3); // rounds 0..=2 delivered, then silence
        assert_eq!(stats.rounds, 6);
    }

    /// A node returning `Aborted` ends the run after its round, with the
    /// timeline still accounting the final partial round.
    struct AbortAtRound {
        at: usize,
    }
    impl CongestAlgorithm for AbortAtRound {
        type Msg = ();
        type Output = ();
        fn message_bits(_: &()) -> u64 {
            1
        }
        fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            ctx.neighbors(node).iter().map(|&u| (u, ())).collect()
        }
        fn round(
            &mut self,
            node: NodeId,
            ctx: &NodeContext<'_>,
            round: usize,
            _: &[(NodeId, ())],
        ) -> (Vec<(NodeId, ())>, RoundOutcome) {
            let out = ctx.neighbors(node).iter().map(|&u| (u, ())).collect();
            if node == 1 && round == self.at {
                (out, RoundOutcome::Aborted)
            } else {
                (out, RoundOutcome::Continue)
            }
        }
        fn output(&self, _: NodeId) -> Option<()> {
            None
        }
    }

    #[test]
    fn node_abort_ends_run_gracefully() {
        let g = congest_graph::generators::cycle(4);
        let sim = Simulator::new(&g);
        let mut alg = AbortAtRound { at: 2 };
        let stats = sim.try_run(&mut alg, 50).unwrap();
        assert_eq!(stats.outcome, RunOutcome::NodeAborted(1));
        assert!(stats.outcome.aborted());
        // Rounds 1, 2, 3 ran (abort at algorithm round index 2 = timeline
        // round 3), and the timeline covers them all plus the init burst.
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.round_timeline.len(), 4);
    }

    /// The bit budget ends a chatty run gracefully instead of letting it
    /// spin to `max_rounds`.
    #[test]
    fn bit_budget_aborts_gracefully() {
        let g = congest_graph::generators::complete(6);
        let unbounded = Simulator::new(&g);
        let mut alg = CountInbox { seen: vec![0; 6] };
        let full = unbounded.run(&mut alg, 20);
        assert_eq!(full.rounds, 20); // CountInbox never halts

        let sim = Simulator::new(&g).with_bit_budget(full.total_bits / 4);
        let mut alg = CountInbox { seen: vec![0; 6] };
        let stats = sim.try_run(&mut alg, 20).unwrap();
        assert_eq!(stats.outcome, RunOutcome::BitBudget);
        assert!(stats.outcome.aborted());
        assert!(stats.rounds < 20, "rounds = {}", stats.rounds);
        // The budget guard stops after the offending round, so the
        // overshoot is at most one round's traffic.
        assert!(stats.total_bits > full.total_bits / 4);
    }

    #[test]
    fn run_outcome_names_are_stable() {
        assert_eq!(RunOutcome::Halted.as_str(), "halted");
        assert_eq!(RunOutcome::Quiescent.as_str(), "quiescent");
        assert_eq!(RunOutcome::RoundBudget.as_str(), "round_budget");
        assert_eq!(RunOutcome::BitBudget.as_str(), "bit_budget");
        assert_eq!(RunOutcome::NodeAborted(3).as_str(), "node_aborted");
        assert!(!RunOutcome::Quiescent.aborted());
    }
}
