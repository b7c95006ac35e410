//! The simulator's engine. The node set is split into contiguous
//! [`NodePartition`] ranges, one *shard* each; every round is one step of
//! every shard followed by a barrier at which a coordinator merges the
//! shards' buffered effects in ascending shard order.
//!
//! There is one engine with two drivers. A serial run
//! ([`Simulator::try_run_with`], and `run`, `run_observed`, `try_run` and
//! `try_run_profiled` on top of it) is the one-shard case: its shard is
//! stepped directly on the calling thread and borrows the caller's
//! algorithm and link in place — no split, no clone, no `Send` bound.
//! A sharded run ([`Simulator::try_run_sharded_with`]) puts `k` shards on
//! the `congest-par` barrier pool, each owning a split of the algorithm
//! ([`ShardableAlgorithm`]) and a clone of the link ([`ShardSafeLink`]).
//!
//! # Determinism contract
//!
//! Runs are **byte-identical** at every shard count: the same `SimStats`
//! (messages, bits, per-edge totals, timeline, fault counters, outcome)
//! and the same observer callback sequence. `tests/sharded_trace.rs` pins
//! JSONL traces across worker counts and `tests/inbox_order.rs` states the
//! inbox order on its own. The invariants that make this work:
//!
//! * **Every inbox is `[matured delays] ++ [on-time sends by ascending
//!   sender]`**, each sender's messages in emission order. Shard 0
//!   delivers sends to its own node range straight into its next-round
//!   arena. Every other send is staged per `(src-shard, dst-shard)` and
//!   appended to the destination arena at the next step's start, in
//!   ascending source-shard order. Delays that mature in a round are
//!   pushed right after that step's arena swap, before any dispatch.
//!   Shard 0 is the lowest source shard, so its direct deliveries land
//!   exactly where staging would have put them; a higher shard delivering
//!   its own sends directly would put them ahead of lower-id remote
//!   senders, so only shard 0 does. A one-shard run stages nothing.
//! * **Meter before link fate, shard-locally.** Each shard meters its own
//!   senders' traffic before asking its link for the fate, into
//!   shard-local per-slot accumulators: a send resolves to its *slot*, the
//!   receiver's position in the sender's own sorted CSR row
//!   ([`Csr::slot`]), and a shard's senders own the contiguous slot range
//!   `csr.slots(lo..hi)`. The duplicate-send stamps live on the same
//!   slots. The global per-edge map folds every slot into its edge id
//!   once, at the end of the run (an edge has one slot per direction,
//!   possibly on two shards, so the fold adds).
//! * **Shard-stable link layers.** Pooled shards decide fates on their
//!   own link clones, so the link's verdict must be a pure function of
//!   `(round, from, to, bits)` and its configuration — the
//!   [`ShardSafeLink`] marker contract. `congest_faults::FaultPlan`
//!   derives each fate from a counter-based per-message RNG keyed exactly
//!   that way, so seeded fault plans replay identically at any worker
//!   count. Crash schedules are driven once, by the coordinator.
//! * **Deterministic barrier epilogue.** Fault events, halt flags, abort
//!   winners, delayed messages and traffic counters are buffered
//!   shard-locally and drained by the coordinator in ascending shard
//!   order — ascending node order — before the round's `RoundDelta` is
//!   flushed.
//!
//! # Error semantics
//!
//! A run stops at the first model violation in ascending node order.
//! Shards stop at their own first violation; the coordinator takes the
//! lowest erring shard, replays the fault events of shards at or below it
//! (everything a one-shard run emits before the violation), discards the
//! work of higher shards, and returns the error without flushing the
//! partial round. After a rejected sharded run the algorithm state
//! absorbed back into the caller's instance is *not* specified beyond
//! "each node was stepped at most once in the failing round" (higher
//! shards may have stepped nodes a one-shard run would not have reached).

use std::collections::HashMap;

use congest_graph::{Csr, EdgeId, NodeId, NodePartition};
use congest_par::{resolve_jobs, with_shards, PoolStats, ShardHandle};

use crate::error::SimError;
use crate::link::{FaultEvent, FaultKind, LinkFate, LinkLayer, PerfectLink};
use crate::model::{
    CongestAlgorithm, NodeContext, RoundOutcome, RoundTraffic, RunOutcome, SendBuf, SimStats,
    Simulator,
};
use crate::observer::{NoopRoundObserver, RoundDelta, RoundObserver};
use crate::profile::{Phase, PhaseProfile};

/// A [`CongestAlgorithm`] whose all-nodes state can be split into
/// contiguous node-range shards and merged back.
///
/// `split_shard(lo, hi)` moves the state of nodes `lo..hi` out of `self`
/// into a new instance (the donor keeps placeholder state for that
/// range); `absorb_shard` moves it back. The engine only ever calls
/// `init`/`round`/`message_bits`/`corrupt` on a shard instance for nodes
/// inside its range, so a shard instance may keep full-length vectors
/// with only its own range populated — the cheapest correct
/// implementation, and what the built-in algorithms do.
///
/// After a successful sharded run the reassembled instance must be
/// indistinguishable from a serial run: `output(v)` and any public
/// accessors agree for every node.
pub trait ShardableAlgorithm: CongestAlgorithm + Send + Sized {
    /// Splits off the state of nodes `lo..hi` into a fresh instance.
    fn split_shard(&mut self, lo: NodeId, hi: NodeId) -> Self;

    /// Merges a shard's state for nodes `lo..hi` back into `self`.
    fn absorb_shard(&mut self, shard: Self, lo: NodeId, hi: NodeId);
}

/// Marker for link layers whose [`LinkLayer::fate`] is a pure function
/// of `(round, from, to, bits)` and the link's configuration — no
/// call-order-dependent state.
///
/// The sharded engine hands each shard its own clone of the link and
/// calls `fate` from worker threads in shard-local node order, which is
/// *not* a serial run's global call order. A link whose verdicts depend
/// on call history (e.g. a naive sequentially-drawn RNG stream) would
/// diverge; a link keyed per message replays identically.
/// `crashes_at` and `on_run_start` are only ever driven on the
/// coordinator's instance, in round order.
pub trait ShardSafeLink: LinkLayer + Clone + Send {}

impl ShardSafeLink for PerfectLink {}

/// A shard's inbox buffer: one `Vec` of `(sender, message)` tuples per
/// node of the shard, indexed `v - lo`, double-buffered across rounds
/// (the per-node capacities survive the swap, so steady-state rounds
/// allocate nothing).
struct BoxedArena<M> {
    lo: NodeId,
    bufs: Vec<Vec<(NodeId, M)>>,
}

impl<M> BoxedArena<M> {
    /// An empty arena for the nodes `lo..hi`; no inbox is allocated yet.
    fn new(lo: NodeId, hi: NodeId) -> Self {
        BoxedArena {
            lo,
            bufs: std::iter::repeat_with(Vec::new).take(hi - lo).collect(),
        }
    }

    /// Allocates every inbox at its node's degree, in ascending node
    /// order, so the buffers lie in the order the round loop reads them.
    /// A fault-free round delivers at most `deg(v)` on-time messages to
    /// `v`, so those rounds never grow a buffer.
    fn reserve_degrees(&mut self, csr: &Csr) {
        for (v, b) in (self.lo..).zip(&mut self.bufs) {
            b.reserve_exact(csr.degree(v));
        }
    }

    /// Appends a message to `to`'s inbox.
    #[inline]
    fn push(&mut self, to: NodeId, from: NodeId, msg: M) {
        self.bufs[to - self.lo].push((from, msg));
    }

    /// Node `v`'s inbox in arrival order.
    #[inline]
    fn inbox(&self, v: NodeId) -> &[(NodeId, M)] {
        &self.bufs[v - self.lo]
    }

    /// Empties the arena, keeping capacity.
    fn clear(&mut self) {
        for b in &mut self.bufs {
            b.clear();
        }
    }
}

/// What one step of every shard does.
#[derive(Debug, Clone, Copy)]
enum ShardTask {
    /// Run every node's `init` and dispatch the round-0 burst.
    Init,
    /// Build this round's inboxes, run algorithm round `round` (timeline
    /// round `round + 1`), and dispatch the sends.
    Round(usize),
}

/// A batch of staged sends `(from, to, msg)` bound for one shard.
type SendBatch<M> = Vec<(NodeId, NodeId, M)>;

/// `count` empty staging lanes for a `k`-shard run. A one-shard run
/// gets none: its shard delivers every send directly, so it allocates
/// nothing for staging.
fn lanes<M>(k: usize, count: usize) -> Vec<SendBatch<M>> {
    let count = if k > 1 { count } else { 0 };
    std::iter::repeat_with(Vec::new).take(count).collect()
}

/// A delayed message `(rounds_remaining, to, from, msg)`.
type Delayed<M> = (u64, NodeId, NodeId, M);

/// One shard's engine state: its node range, double-buffered inbox arenas
/// for its own nodes, staging lanes toward every shard, and meters and
/// duplicate stamps over its senders' CSR slots. Nothing in it is sized
/// by the whole graph. It holds no algorithm and no link — each step
/// borrows them, so the same code steps a pooled shard and the one shard
/// of a serial run.
struct Shard<A: CongestAlgorithm> {
    lo: NodeId,
    hi: NodeId,
    /// Sends to nodes below this bound are delivered straight into
    /// `in_flight`: `hi` for the shard starting at node 0, else 0.
    direct_hi: NodeId,
    /// Inbox arena for the *next* delivery, over this shard's nodes.
    /// Swapped with `deliveries` each round.
    in_flight: BoxedArena<A::Msg>,
    /// This round's inboxes after the swap, cleared at step end.
    deliveries: BoxedArena<A::Msg>,
    /// Reusable send buffer handed to `round_into`.
    sendbuf: SendBuf<A::Msg>,
    /// Delays maturing this round `(to, from, msg)`, installed by the
    /// coordinator before the step, in global delay-queue order.
    matured_in: Vec<(NodeId, NodeId, A::Msg)>,
    /// Staged inbound sends, one lane per source shard, installed by the
    /// coordinator at the previous barrier.
    stage_in: Vec<SendBatch<A::Msg>>,
    /// Staged outbound sends, one lane per destination shard, collected
    /// by the coordinator at the barrier.
    stage_out: Vec<SendBatch<A::Msg>>,
    /// Sends the link delayed, appended to the coordinator's global delay
    /// queue at the barrier.
    stage_delay: Vec<Delayed<A::Msg>>,
    /// Fault events in shard-local dispatch order, drained by the
    /// coordinator in ascending shard order.
    faults: Vec<FaultEvent>,
    /// Nodes of this shard that halted this step.
    newly_halted: usize,
    /// Lowest node of this shard that returned `Aborted` this step.
    abort: Option<NodeId>,
    /// First model violation hit this step; processing stopped there.
    error: Option<SimError>,
    /// Whether any node emitted a non-empty send list this step.
    any_out: bool,
    /// Messages this step queued for delivery next round: direct, staged
    /// or matured.
    queued: usize,
    /// Halt flags for this shard's nodes, indexed `v - lo`.
    halted: Vec<bool>,
    /// Messages metered this step (drained at the barrier).
    step_messages: u64,
    /// Bits metered this step (drained at the barrier).
    step_bits: u64,
    /// First CSR slot of this shard's rows, `csr.slots(lo..hi).start`;
    /// the slot arrays below are indexed `slot - slot_lo`.
    slot_lo: usize,
    /// Run-total bits this shard's senders metered per slot, that is
    /// per edge and direction.
    slot_bits: Vec<u64>,
    /// Whether the slot was ever metered. A zero-bit message still
    /// creates a `bits_per_edge` entry.
    slot_touched: Vec<bool>,
    /// This step's metered `(slot, bits)`, one per meter call, kept only
    /// when the observer asks for per-round edge traffic; the coordinator
    /// drains it at the barrier.
    round_edges: Option<Vec<(usize, u64)>>,
    /// `stamp[slot - slot_lo] == stamp_epoch` marks the slot as already
    /// used by the current sender (duplicate-send detection without
    /// clearing between senders).
    stamp: Vec<u32>,
    /// Advanced once per dispatching sender; when it wraps, `stamp` is
    /// cleared once so an old stamp cannot alias a new epoch.
    stamp_epoch: u32,
}

/// Read-only state shared by every shard step: topology, model
/// constants, and the partition for routing staged sends.
struct SharedCtx<'a> {
    /// The partition of a sharded run; `None` in a one-shard run, which
    /// never routes between shards.
    part: Option<&'a NodePartition>,
    /// What every node sees; its CSR is the engine's topology too.
    ctx: NodeContext<'a>,
}

impl SharedCtx<'_> {
    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        self.part.map_or(0, |p| p.shard_of(v))
    }
}

/// Ends the current segment of an attached profiler as `phase`
/// ([`PhaseProfile::lap`]); without one, does nothing.
#[inline]
fn lap(prof: &mut Option<&mut PhaseProfile>, phase: Phase) {
    if let Some(p) = prof {
        p.lap(phase);
    }
}

impl<A: CongestAlgorithm> Shard<A> {
    fn new(lo: NodeId, hi: NodeId, k: usize, csr: &Csr, wants_edges: bool) -> Self {
        let slots = csr.slots(lo..hi);
        Shard {
            lo,
            hi,
            direct_hi: if lo == 0 { hi } else { 0 },
            in_flight: BoxedArena::new(lo, hi),
            deliveries: BoxedArena::new(lo, hi),
            sendbuf: Vec::new(),
            matured_in: Vec::new(),
            stage_in: lanes(k, k),
            stage_out: lanes(k, k),
            stage_delay: Vec::new(),
            faults: Vec::new(),
            newly_halted: 0,
            abort: None,
            error: None,
            any_out: false,
            queued: 0,
            halted: vec![false; hi - lo],
            step_messages: 0,
            step_bits: 0,
            slot_lo: slots.start,
            slot_bits: vec![0; slots.len()],
            slot_touched: vec![false; slots.len()],
            round_edges: wants_edges.then(Vec::new),
            stamp: vec![0; slots.len()],
            stamp_epoch: 0,
        }
    }

    /// Runs one step of `task` over this shard's nodes with `alg` and
    /// `link` borrowed for the step. With `prof` attached, each phase
    /// boundary of the step is a lap of its chain.
    fn step<L: LinkLayer>(
        &mut self,
        task: ShardTask,
        alg: &mut A,
        link: &mut L,
        shared: &SharedCtx<'_>,
        mut prof: Option<&mut PhaseProfile>,
    ) {
        match task {
            ShardTask::Init => {
                // On the stepping thread, before any delivery: a pooled
                // shard allocates its inboxes on its own worker.
                for arena in [&mut self.in_flight, &mut self.deliveries] {
                    arena.reserve_degrees(shared.ctx.csr);
                }
                lap(&mut prof, Phase::Deliver);
                for v in self.lo..self.hi {
                    let mut out = alg.init(v, &shared.ctx);
                    lap(&mut prof, Phase::Compute);
                    if let Err(e) = self.dispatch(link, shared, v, &mut out, 0, &mut prof) {
                        self.error = Some(e);
                        break;
                    }
                }
            }
            ShardTask::Round(round) => {
                let mut sendbuf = std::mem::take(&mut self.sendbuf);
                self.round(alg, link, shared, round, &mut sendbuf, &mut prof);
                self.sendbuf = sendbuf;
            }
        }
    }

    fn round<L: LinkLayer>(
        &mut self,
        alg: &mut A,
        link: &mut L,
        shared: &SharedCtx<'_>,
        round: usize,
        sendbuf: &mut SendBuf<A::Msg>,
        prof: &mut Option<&mut PhaseProfile>,
    ) {
        // `in_flight` already holds last step's matured delays and (on
        // the shard starting at node 0) its own direct deliveries; staged
        // sends follow in ascending source-shard order.
        for staged in &mut self.stage_in {
            for (from, to, msg) in staged.drain(..) {
                self.in_flight.push(to, from, msg);
            }
        }
        std::mem::swap(&mut self.in_flight, &mut self.deliveries);
        // Delays maturing now arrive next round, ahead of every send this
        // step dispatches — so a message delayed by `d` arrives exactly
        // `d` rounds later than it would have.
        self.queued += self.matured_in.len();
        for (to, from, msg) in self.matured_in.drain(..) {
            self.in_flight.push(to, from, msg);
        }
        lap(prof, Phase::Deliver);
        let event_round = round as u64 + 1;
        for v in self.lo..self.hi {
            let i = v - self.lo;
            if self.halted[i] {
                // Pending inbound messages to halted (or crash-stopped)
                // nodes are dropped; the sender already paid the bits.
                continue;
            }
            let action = alg.round_into(v, &shared.ctx, round, self.deliveries.inbox(v), sendbuf);
            lap(prof, Phase::Compute);
            if !sendbuf.is_empty() {
                self.any_out = true;
                if let Err(e) = self.dispatch(link, shared, v, sendbuf, event_round, prof) {
                    self.error = Some(e);
                    break;
                }
            }
            match action {
                RoundOutcome::Halt => {
                    self.halted[i] = true;
                    self.newly_halted += 1;
                }
                RoundOutcome::Aborted => {
                    self.halted[i] = true;
                    self.newly_halted += 1;
                    self.abort.get_or_insert(v);
                }
                RoundOutcome::Continue => {}
            }
        }
        self.deliveries.clear();
        lap(prof, Phase::Deliver);
    }

    /// Validates, meters, and routes one node's outgoing messages through
    /// the link layer, draining `out` (also on an early model-violation
    /// return). Each send resolves to its slot in `from`'s own sorted
    /// row; the duplicate stamp and the meters index that slot. Each
    /// message is metered at [`CongestAlgorithm::message_bits`], computed
    /// here. Model checks run before the link hook and traffic is metered
    /// before the fate applies: faults never mask a CONGEST violation and
    /// a lost message still cost its sender the bits. With a profiler
    /// attached, each message ends one `meter` and one `link_fate` lap.
    fn dispatch<L: LinkLayer>(
        &mut self,
        link: &mut L,
        shared: &SharedCtx<'_>,
        from: NodeId,
        out: &mut SendBuf<A::Msg>,
        round: u64,
        prof: &mut Option<&mut PhaseProfile>,
    ) -> Result<(), SimError> {
        self.stamp_epoch = self.stamp_epoch.wrapping_add(1);
        if self.stamp_epoch == 0 {
            self.stamp.fill(0);
            self.stamp_epoch = 1;
        }
        let epoch = self.stamp_epoch;
        let bandwidth = shared.ctx.bandwidth;
        for (to, msg) in out.drain(..) {
            // Self-sends and ids ≥ n are in no row, so they are
            // non-neighbor sends too.
            let Some(slot) = shared.ctx.csr.slot(from, to) else {
                return Err(SimError::NonNeighborSend { from, to, round });
            };
            let stamp = &mut self.stamp[slot - self.slot_lo];
            if *stamp == epoch {
                return Err(SimError::DuplicateSend { from, to, round });
            }
            // Stamped before the fate: a dropped or delayed first copy
            // still makes a second send a duplicate.
            *stamp = epoch;
            let bits = A::message_bits(&msg);
            if bits > bandwidth {
                return Err(SimError::BandwidthExceeded {
                    from,
                    to,
                    bits,
                    bandwidth,
                    round,
                });
            }
            self.meter(slot, bits);
            lap(prof, Phase::Meter);
            let fault = |kind, detail| FaultEvent {
                round,
                kind,
                from,
                to: Some(to),
                bits,
                detail,
            };
            match link.fate(round, from, to, bits) {
                LinkFate::Deliver | LinkFate::Delay { rounds: 0 } => {
                    self.route(shared, from, to, msg);
                }
                LinkFate::Drop => self.faults.push(fault(FaultKind::Drop, 0)),
                LinkFate::Throttle => self.faults.push(fault(FaultKind::Throttle, 0)),
                LinkFate::Omission => self.faults.push(fault(FaultKind::Omission, 0)),
                LinkFate::Partition => self.faults.push(fault(FaultKind::Partition, 0)),
                LinkFate::Corrupt { bit } => {
                    self.faults.push(fault(FaultKind::Corrupt, u64::from(bit)));
                    // Corruption-opaque message types lose the message
                    // instead of delivering a forged payload.
                    if let Some(corrupted) = A::corrupt(&msg, bit) {
                        self.route(shared, from, to, corrupted);
                    }
                }
                LinkFate::Duplicate => {
                    self.faults.push(fault(FaultKind::Duplicate, 0));
                    // The extra copy is real traffic on the wire: metered
                    // a second time and delivered behind the original.
                    self.meter(slot, bits);
                    self.route(shared, from, to, msg.clone());
                    self.route(shared, from, to, msg);
                }
                LinkFate::Delay { rounds } => {
                    self.faults.push(fault(FaultKind::Delay, rounds));
                    self.stage_delay.push((rounds, to, from, msg));
                }
            }
            lap(prof, Phase::LinkFate);
        }
        Ok(())
    }

    /// Queues a message for delivery next round: straight into the next
    /// arena when this shard may deliver it directly, else staged toward
    /// the destination shard.
    #[inline]
    fn route(&mut self, shared: &SharedCtx<'_>, from: NodeId, to: NodeId, msg: A::Msg) {
        self.queued += 1;
        if to < self.direct_hi {
            self.in_flight.push(to, from, msg);
        } else {
            self.stage_out[shared.shard_of(to)].push((from, to, msg));
        }
    }

    /// Meters one message on `slot`.
    #[inline]
    fn meter(&mut self, slot: usize, bits: u64) {
        self.step_messages += 1;
        self.step_bits += bits;
        let i = slot - self.slot_lo;
        self.slot_bits[i] += bits;
        self.slot_touched[i] = true;
        if let Some(re) = self.round_edges.as_mut() {
            re.push((slot, bits));
        }
    }
}

/// How the coordinator reaches its shards: the barrier pool of a sharded
/// run, or the one shard of a serial run stepped on the calling thread.
trait Shards<A: CongestAlgorithm> {
    /// Runs `task` on every shard — one barrier step.
    fn step(&mut self, task: ShardTask, prof: Option<&mut PhaseProfile>);

    /// Coordinator access to shard `s` between steps.
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut Shard<A>) -> R) -> R;

    /// Nodes to crash-stop at the start of algorithm round `round`, from
    /// the caller's link.
    fn crashes_at(&mut self, round: u64) -> Vec<NodeId>;
}

/// The one shard of a serial run, borrowing the caller's algorithm and
/// link in place.
struct OneShard<'a, A: CongestAlgorithm, L> {
    shard: Shard<A>,
    alg: &'a mut A,
    link: &'a mut L,
    shared: &'a SharedCtx<'a>,
}

impl<A: CongestAlgorithm, L: LinkLayer> Shards<A> for OneShard<'_, A, L> {
    fn step(&mut self, task: ShardTask, prof: Option<&mut PhaseProfile>) {
        self.shard
            .step(task, self.alg, self.link, self.shared, prof);
    }

    fn with<R>(&mut self, _s: usize, f: impl FnOnce(&mut Shard<A>) -> R) -> R {
        f(&mut self.shard)
    }

    fn crashes_at(&mut self, round: u64) -> Vec<NodeId> {
        self.link.crashes_at(round)
    }
}

/// A pooled shard: its engine state, its split of the algorithm, its
/// clone of the link, and the task of the next barrier step.
struct Pooled<A: CongestAlgorithm, L> {
    shard: Shard<A>,
    alg: A,
    link: L,
    task: Option<ShardTask>,
}

/// The shards of a sharded run, behind the pool's barrier handle.
struct Pool<'h, 'p, A: CongestAlgorithm, L> {
    handle: &'h mut ShardHandle<'p, Pooled<A, L>>,
    /// The caller's link, which drives the crash schedule.
    link: &'h mut L,
}

impl<A: CongestAlgorithm, L: LinkLayer> Shards<A> for Pool<'_, '_, A, L> {
    fn step(&mut self, task: ShardTask, prof: Option<&mut PhaseProfile>) {
        debug_assert!(prof.is_none(), "pooled runs are not profiled");
        for s in 0..self.handle.num_shards() {
            self.handle.lock(s).task = Some(task);
        }
        self.handle.step();
    }

    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut Shard<A>) -> R) -> R {
        f(&mut self.handle.lock(s).shard)
    }

    fn crashes_at(&mut self, round: u64) -> Vec<NodeId> {
        self.link.crashes_at(round)
    }
}

/// The coordinator side of a run: global delay queue, stats under
/// construction, staged sends in transit between shards, and the
/// observer. Lives on the calling thread and touches shard state only
/// between steps.
struct Coordinator<'a, A: CongestAlgorithm, O> {
    shared: &'a SharedCtx<'a>,
    observer: &'a mut O,
    /// Phase profiler of a one-shard run.
    prof: Option<&'a mut PhaseProfile>,
    stop_on_quiescence: bool,
    bit_budget: Option<u64>,
    k: usize,
    n: usize,
    max_rounds: u64,
    stats: SimStats,
    /// Delayed messages in global append order (ascending shard at each
    /// barrier — ascending sender).
    delayed: Vec<Delayed<A::Msg>>,
    delayed_spare: Vec<Delayed<A::Msg>>,
    /// Matured delays per destination shard, in transit to `matured_in`;
    /// allocated when the first delay matures.
    matured: Vec<Vec<(NodeId, NodeId, A::Msg)>>,
    /// Collected `stage_out` lanes in transit, `pending[src * k + dst]`.
    pending: Vec<SendBatch<A::Msg>>,
    /// Messages queued for delivery next round, across all shards.
    in_flight: usize,
    node_abort: Option<NodeId>,
    halted_count: usize,
    /// (messages, bits) of the round being flushed.
    round_traffic: (u64, u64),
    /// Per-edge round map handed to `on_round`, when the observer asks.
    round_map: Option<HashMap<(NodeId, NodeId), u64>>,
}

impl<'a, A: CongestAlgorithm, O: RoundObserver> Coordinator<'a, A, O> {
    fn new(
        sim: &Simulator<'_>,
        shared: &'a SharedCtx<'a>,
        observer: &'a mut O,
        prof: Option<&'a mut PhaseProfile>,
        k: usize,
        max_rounds: u64,
    ) -> Self {
        let round_map = observer.wants_edge_traffic().then(HashMap::new);
        Coordinator {
            shared,
            observer,
            prof,
            stop_on_quiescence: sim.stop_on_quiescence,
            bit_budget: sim.bit_budget,
            k,
            n: shared.ctx.n,
            max_rounds,
            stats: SimStats::default(),
            delayed: Vec::new(),
            delayed_spare: Vec::new(),
            matured: Vec::new(),
            pending: lanes(k, k * k),
            in_flight: 0,
            node_abort: None,
            halted_count: 0,
            round_traffic: (0, 0),
            round_map,
        }
    }

    fn wants_edges(&self) -> bool {
        self.round_map.is_some()
    }

    /// Runs to completion and returns the final stats (after the
    /// observer's `on_done`).
    fn run<S: Shards<A>>(&mut self, set: &mut S) -> Result<SimStats, SimError> {
        if let Some(p) = self.prof.as_deref_mut() {
            p.start_run();
        }
        let outcome = self.run_rounds(set)?;
        let mut stats = std::mem::take(&mut self.stats);
        stats.bits_per_edge = self.edge_map(set);
        // A run that used its whole round budget but ended with every
        // node halted converged; report it as such.
        stats.outcome = if outcome == RunOutcome::RoundBudget && self.halted_count == self.n {
            RunOutcome::Halted
        } else {
            outcome
        };
        self.observer.on_done(&stats);
        if let Some(p) = self.prof.as_deref_mut() {
            p.end_run();
        }
        Ok(stats)
    }

    /// The round loop: the init burst (timeline round 0), then one step
    /// per round until an outcome is decided. With a profiler attached,
    /// each round's work up to the shard step's first lap is `deliver`,
    /// and from the step's last lap to the round's end `epilogue`; what
    /// follows the last round end is the run's closing `epilogue`.
    fn run_rounds<S: Shards<A>>(&mut self, set: &mut S) -> Result<RunOutcome, SimError> {
        set.step(ShardTask::Init, self.prof.as_deref_mut());
        self.collect(set)?;
        self.flush_round(0);
        self.end_round();
        if self.budget_exceeded() {
            return Ok(RunOutcome::BitBudget);
        }
        self.install(set);
        loop {
            let round = self.stats.rounds;
            if round >= self.max_rounds {
                return Ok(RunOutcome::RoundBudget);
            }
            self.apply_crashes(set, round);
            if self.halted_count == self.n {
                return Ok(RunOutcome::Halted);
            }
            // A round that starts with nothing in flight is a quiescence
            // probe: one final activation, and the run stops if it
            // produces nothing.
            let probe = self.stop_on_quiescence
                && round > 0
                && self.in_flight == 0
                && self.delayed.is_empty();
            self.mature_delays(set);
            set.step(ShardTask::Round(round as usize), self.prof.as_deref_mut());
            let any_out = self.collect(set)?;
            self.stats.rounds += 1;
            self.flush_round(round + 1);
            let outcome = if let Some(v) = self.node_abort {
                Some(RunOutcome::NodeAborted(v))
            } else if self.budget_exceeded() {
                Some(RunOutcome::BitBudget)
            } else if probe && !any_out && self.in_flight == 0 && self.delayed.is_empty() {
                Some(RunOutcome::Quiescent)
            } else {
                self.install(set);
                None
            };
            self.end_round();
            if let Some(outcome) = outcome {
                return Ok(outcome);
            }
        }
    }

    fn budget_exceeded(&self) -> bool {
        self.bit_budget.is_some_and(|b| self.stats.total_bits > b)
    }

    /// Ends a profiled round ([`PhaseProfile::end_round`]).
    fn end_round(&mut self) {
        if let Some(p) = self.prof.as_deref_mut() {
            p.end_round();
        }
    }

    /// Crash-stops the nodes the link schedules for algorithm round
    /// `round`; their fault events precede the round's dispatch faults.
    fn apply_crashes<S: Shards<A>>(&mut self, set: &mut S, round: u64) {
        for v in set.crashes_at(round) {
            if v >= self.n {
                continue;
            }
            let newly = set.with(self.shared.shard_of(v), |sh| {
                !std::mem::replace(&mut sh.halted[v - sh.lo], true)
            });
            if newly {
                self.halted_count += 1;
                let ev = FaultEvent {
                    round: self.stats.rounds + 1,
                    kind: FaultKind::Crash,
                    from: v,
                    to: None,
                    bits: 0,
                    detail: round,
                };
                self.stats.faults.bump(ev.kind);
                self.observer.on_fault(&ev);
            }
        }
    }

    /// Drains every shard in ascending order after a step: fault events,
    /// halt/abort bookkeeping, delayed sends, traffic counters, staged
    /// sends, and the per-round edge lists. Returns whether any node
    /// emitted sends. On a model violation it returns the lowest shard's
    /// error right after that shard's fault events — exactly the events a
    /// one-shard run emits before the violation, since the erring shard
    /// stopped at it and higher shards come after it.
    fn collect<S: Shards<A>>(&mut self, set: &mut S) -> Result<bool, SimError> {
        let (mut any_out, mut messages, mut bits, mut queued) = (false, 0u64, 0u64, 0usize);
        for s in 0..self.k {
            set.with(s, |sh| {
                for ev in sh.faults.drain(..) {
                    self.stats.faults.bump(ev.kind);
                    self.observer.on_fault(&ev);
                }
                if let Some(e) = sh.error.take() {
                    return Err(e);
                }
                self.halted_count += std::mem::take(&mut sh.newly_halted);
                if let Some(v) = sh.abort.take() {
                    // Ascending shard order makes the first insert the
                    // lowest aborting node.
                    self.node_abort.get_or_insert(v);
                }
                any_out |= std::mem::take(&mut sh.any_out);
                messages += std::mem::take(&mut sh.step_messages);
                bits += std::mem::take(&mut sh.step_bits);
                queued += std::mem::take(&mut sh.queued);
                self.delayed.append(&mut sh.stage_delay);
                for (lane, slot) in sh.stage_out.iter_mut().zip(&mut self.pending[s * self.k..]) {
                    std::mem::swap(lane, slot);
                }
                if let (Some(re), Some(map)) = (sh.round_edges.as_mut(), self.round_map.as_mut()) {
                    let csr = self.shared.ctx.csr;
                    for (slot, b) in re.drain(..) {
                        *map.entry(csr.endpoints(csr.slot_edge_id(slot)))
                            .or_insert(0) += b;
                    }
                }
                Ok(())
            })?;
        }
        self.stats.messages += messages;
        self.stats.total_bits += bits;
        self.round_traffic = (messages, bits);
        self.in_flight = queued;
        Ok(any_out)
    }

    /// Advances the global delay queue by one round and hands the matured
    /// messages to their destination shards for this round's step.
    fn mature_delays<S: Shards<A>>(&mut self, set: &mut S) {
        if self.delayed.is_empty() {
            return;
        }
        debug_assert!(self.delayed_spare.is_empty());
        self.matured.resize_with(self.k, Vec::new);
        for (remaining, to, from, msg) in self.delayed.drain(..) {
            if remaining <= 1 {
                self.matured[self.shared.shard_of(to)].push((to, from, msg));
            } else {
                self.delayed_spare.push((remaining - 1, to, from, msg));
            }
        }
        std::mem::swap(&mut self.delayed, &mut self.delayed_spare);
        for (t, batch) in self.matured.iter_mut().enumerate() {
            if !batch.is_empty() {
                set.with(t, |sh| {
                    debug_assert!(sh.matured_in.is_empty());
                    std::mem::swap(&mut sh.matured_in, batch);
                });
            }
        }
        lap(&mut self.prof, Phase::Deliver);
    }

    /// Hands the collected staging over to the destination shards for
    /// the next step's merge.
    fn install<S: Shards<A>>(&mut self, set: &mut S) {
        for t in 0..self.k {
            set.with(t, |sh| {
                for (s, lane) in sh.stage_in.iter_mut().enumerate() {
                    let slot = &mut self.pending[s * self.k + t];
                    if !slot.is_empty() {
                        debug_assert!(lane.is_empty());
                        std::mem::swap(lane, slot);
                    }
                }
            });
        }
    }

    /// Closes out one round: appends the timeline entry and hands the
    /// observer its [`RoundDelta`].
    fn flush_round(&mut self, round: u64) {
        let (messages, bits) = self.round_traffic;
        self.stats.round_timeline.push(RoundTraffic {
            round,
            messages,
            bits,
        });
        self.observer.on_round(&RoundDelta {
            round,
            messages,
            bits,
            total_bits: self.stats.total_bits,
            edge_bits: self.round_map.as_ref(),
        });
        if let Some(map) = self.round_map.as_mut() {
            map.clear();
        }
    }

    /// The public `bits_per_edge` map. Every shard's slot meters fold
    /// into dense per-edge-id totals (an edge's two slots, one per
    /// direction, add up, whichever shards own them), then the map is
    /// built from those in edge-id order.
    fn edge_map<S: Shards<A>>(&self, set: &mut S) -> HashMap<(NodeId, NodeId), u64> {
        let csr = self.shared.ctx.csr;
        let mut bits = vec![0u64; csr.num_edges()];
        let mut touched = vec![false; csr.num_edges()];
        for s in 0..self.k {
            set.with(s, |sh| {
                // Taken, so each shard's slot arrays are freed before
                // the map is allocated.
                let slot_bits = std::mem::take(&mut sh.slot_bits);
                let slot_touched = std::mem::take(&mut sh.slot_touched);
                for (slot, (b, t)) in (sh.slot_lo..).zip(slot_bits.into_iter().zip(slot_touched)) {
                    if t {
                        let e = csr.slot_edge_id(slot) as usize;
                        bits[e] += b;
                        touched[e] = true;
                    }
                }
            });
        }
        let count = touched.iter().filter(|&&t| t).count();
        let mut map = HashMap::with_capacity(count);
        for (e, (&b, &t)) in bits.iter().zip(&touched).enumerate() {
            if t {
                map.insert(csr.endpoints(e as EdgeId), b);
            }
        }
        map
    }
}

impl<'g> Simulator<'g> {
    fn shared_ctx<'a>(&'a self, part: Option<&'a NodePartition>) -> SharedCtx<'a> {
        SharedCtx {
            part,
            ctx: NodeContext {
                csr: &self.csr,
                n: self.csr.num_nodes(),
                bandwidth: self.bandwidth,
            },
        }
    }

    /// A serial run: the one-shard case of the engine, stepped on the
    /// calling thread with `alg` and `link` borrowed in place. Behind
    /// [`Simulator::try_run_with`] and [`Simulator::try_run_profiled`].
    pub(crate) fn run_one_shard<A: CongestAlgorithm, O: RoundObserver, L: LinkLayer>(
        &self,
        alg: &mut A,
        max_rounds: u64,
        observer: &mut O,
        link: &mut L,
        prof: Option<&mut PhaseProfile>,
    ) -> Result<SimStats, SimError> {
        let shared = self.shared_ctx(None);
        let mut coord = Coordinator::new(self, &shared, observer, prof, 1, max_rounds);
        let n = shared.ctx.n;
        link.on_run_start(n);
        let shard = Shard::new(0, n, 1, &self.csr, coord.wants_edges());
        coord.run(&mut OneShard {
            shard,
            alg,
            link,
            shared: &shared,
        })
    }

    /// Sharded twin of [`Simulator::try_run`]: runs `alg` across the
    /// worker count configured with [`Simulator::with_jobs`], producing
    /// byte-identical `SimStats` at every worker count.
    pub fn try_run_sharded<A>(&self, alg: &mut A, max_rounds: u64) -> Result<SimStats, SimError>
    where
        A: ShardableAlgorithm,
        A::Msg: Send,
    {
        self.try_run_sharded_with(alg, max_rounds, &mut NoopRoundObserver, &mut PerfectLink)
            .map(|(stats, _)| stats)
    }

    /// Sharded twin of [`Simulator::try_run_with`], additionally
    /// returning the pool's per-worker utilization counters.
    ///
    /// The link must be [`ShardSafeLink`]: each shard drives its own
    /// clone, so fates must be pure per-message functions.
    /// `on_run_start` and `crashes_at` are driven on `link` itself.
    pub fn try_run_sharded_with<A, O, L>(
        &self,
        alg: &mut A,
        max_rounds: u64,
        observer: &mut O,
        link: &mut L,
    ) -> Result<(SimStats, PoolStats), SimError>
    where
        A: ShardableAlgorithm,
        A::Msg: Send,
        O: RoundObserver,
        L: ShardSafeLink,
    {
        let n = self.csr.num_nodes();
        let k = resolve_jobs(self.jobs).min(n.max(1));
        let part = self.csr.partition(k);
        let shared = self.shared_ctx(Some(&part));
        let mut coord = Coordinator::new(self, &shared, observer, None, k, max_rounds);
        link.on_run_start(n);
        let shards: Vec<Pooled<A, L>> = (0..k)
            .map(|s| {
                let r = part.range(s);
                Pooled {
                    shard: Shard::new(r.start, r.end, k, &self.csr, coord.wants_edges()),
                    alg: alg.split_shard(r.start, r.end),
                    link: link.clone(),
                    task: None,
                }
            })
            .collect();
        let (res, shards_back, pool) = with_shards(
            k,
            shards,
            |_s, p: &mut Pooled<A, L>| {
                if let Some(task) = p.task.take() {
                    p.shard.step(task, &mut p.alg, &mut p.link, &shared, None);
                }
            },
            |handle| coord.run(&mut Pool { handle, link }),
        );
        // Reassemble the caller's algorithm, also after a rejected run
        // (its state is then partial, as after a one-shard error).
        for p in shards_back {
            alg.absorb_shard(p.alg, p.shard.lo, p.shard.hi);
        }
        res.map(|stats| (stats, pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shard under test only needs a message type: no test here
    /// steps an algorithm.
    struct Unit;

    impl CongestAlgorithm for Unit {
        type Msg = ();
        type Output = ();

        fn message_bits(_: &()) -> u64 {
            1
        }

        fn init(&mut self, _: NodeId, _: &NodeContext<'_>) -> Vec<(NodeId, ())> {
            Vec::new()
        }

        fn round(
            &mut self,
            _: NodeId,
            _: &NodeContext<'_>,
            _: usize,
            _: &[(NodeId, ())],
        ) -> (Vec<(NodeId, ())>, RoundOutcome) {
            (Vec::new(), RoundOutcome::Continue)
        }

        fn output(&self, _: NodeId) -> Option<()> {
            None
        }
    }

    /// Dispatches one sender's sends in timeline round 1.
    fn send(
        shard: &mut Shard<Unit>,
        shared: &SharedCtx<'_>,
        from: NodeId,
        to: &[NodeId],
    ) -> Result<(), SimError> {
        let mut out: SendBuf<()> = to.iter().map(|&t| (t, ())).collect();
        shard.dispatch(&mut PerfectLink, shared, from, &mut out, 1, &mut None)
    }

    #[test]
    fn duplicate_checks_survive_the_stamp_counter_wrap() {
        // Path 0 - 1 - 2: node 1's row holds slots (1, 0) and (1, 2).
        let g = congest_graph::generators::path(3);
        let sim = Simulator::new(&g);
        let shared = sim.shared_ctx(None);
        let mut shard = Shard::<Unit>::new(0, 3, 1, &sim.csr, false);
        // Slot (1, 0) is stamped at epoch 1, long before the wrap.
        send(&mut shard, &shared, 1, &[0]).unwrap();
        shard.stamp_epoch = u32::MAX - 1;
        send(&mut shard, &shared, 0, &[1]).unwrap();
        assert_eq!(shard.stamp_epoch, u32::MAX);
        // The counter wraps for this sender. Neither the never-stamped
        // slot (1, 2) nor the old stamp on (1, 0) is a duplicate.
        send(&mut shard, &shared, 1, &[2, 0]).unwrap();
        assert_eq!(shard.stamp_epoch, 1);
        // A duplicate across the wrap still fails ...
        shard.stamp_epoch = u32::MAX;
        assert_eq!(
            send(&mut shard, &shared, 2, &[1, 1]),
            Err(SimError::DuplicateSend {
                from: 2,
                to: 1,
                round: 1
            })
        );
        // ... and a legal send after it does not.
        send(&mut shard, &shared, 1, &[0, 2]).unwrap();
        send(&mut shard, &shared, 2, &[1]).unwrap();
    }
}
