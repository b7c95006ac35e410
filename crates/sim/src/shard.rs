//! Sharded execution of the CONGEST engine: the node set is split into
//! contiguous [`NodePartition`] ranges, one shard per worker thread, and
//! each round runs as one barrier step of the `congest-par` shard pool.
//!
//! # Determinism contract
//!
//! Sharded runs are **byte-identical** to the serial engine at every
//! worker count: the same `SimStats` (messages, bits, per-edge totals,
//! timeline, fault counters, outcome) and the same observer callback
//! sequence. The `tests/sharded_trace.rs` suite pins JSONL golden traces
//! across worker counts. The invariants that make this work:
//!
//! * **All sends go through staging.** Every message — intra-shard or
//!   cross-shard — lands in a per-`(src-shard, dst-shard)` staging vec
//!   during the parallel phase and is merged into the destination inbox
//!   arena at the next round's start, in ascending source-shard order.
//!   Shards own contiguous ascending node ranges, so "ascending source
//!   shard, within a shard ascending sender, per sender emission order"
//!   is exactly the serial engine's inbox order. There is deliberately no
//!   intra-shard fast path: delivering local messages directly would put
//!   them ahead of lower-id remote senders.
//! * **Meter before link fate, shard-locally.** Each shard meters its own
//!   senders' traffic into shard-local dense per-edge accumulators before
//!   asking its link-layer clone for the fate — the serial ordering
//!   contract, applied per shard. The global per-edge map is the
//!   fold of the shard meters (an edge can be metered by both endpoint
//!   shards in one round — once per direction — so the fold adds).
//! * **Shard-stable link layers.** Cross-thread fate decisions use
//!   per-shard clones of the link, so the link's verdict must be a pure
//!   function of `(round, from, to, bits)` and its configuration — the
//!   [`ShardSafeLink`] marker contract. `congest_faults::FaultPlan`
//!   derives each fate from a counter-based per-message RNG keyed exactly
//!   that way, so seeded fault plans replay identically at any worker
//!   count. Crash schedules are driven once, by the coordinator.
//! * **Deterministic barrier epilogue.** Fault events, halt flags, abort
//!   winners, delayed messages and traffic counters are buffered
//!   shard-locally and drained by the coordinator in ascending shard
//!   order — the serial engine's ascending-node order — before the
//!   round's `RoundDelta` is flushed.
//!
//! # Error semantics
//!
//! On a model violation the serial engine stops at the first offending
//! message in ascending node order. Shards stop at their own first
//! violation; the coordinator takes the lowest erring shard, replays the
//! fault events of shards at or below it (everything the serial engine
//! would have emitted), discards the work of higher shards, and returns
//! the error without flushing the partial round — matching the serial
//! observable sequence exactly. The algorithm state absorbed back into
//! the caller's instance is *not* specified beyond "each node was stepped
//! at most once in the failing round" (higher shards may have stepped
//! nodes the serial engine would not have reached).

use std::collections::HashMap;

use congest_graph::{NodeId, NodePartition};
use congest_par::{resolve_jobs, with_shards, PoolStats, ShardHandle};

use crate::error::SimError;
use crate::link::{FaultEvent, FaultKind, LinkFate, LinkLayer, PerfectLink};
use crate::model::{
    BoxedArena, CongestAlgorithm, NodeContext, RoundEdges, RoundOutcome, RoundTraffic, RunOutcome,
    SendBuf, SimStats, Simulator,
};
use crate::observer::{NoopRoundObserver, RoundDelta, RoundObserver};

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
/// *not* the serial engine's global call order. A link whose verdicts
/// depend on call history (e.g. a naive sequentially-drawn RNG stream)
/// would diverge; a link keyed per message replays identically.
/// `crashes_at` and `on_run_start` are only ever driven on the
/// coordinator's instance, in serial round order.
pub trait ShardSafeLink: LinkLayer + Clone + Send {}

impl ShardSafeLink for PerfectLink {}

/// What the next barrier step should do, set by the coordinator while
/// holding the shard's lock.
enum ShardTask {
    /// Do nothing (defensive default between rounds).
    Idle,
    /// Run every node's `init` and stage the round-0 burst.
    Init,
    /// Merge staged inboxes, run one algorithm round, stage the sends.
    Round {
        /// Algorithm round index passed to `CongestAlgorithm::round`.
        round: usize,
        /// Timeline round for fault events and error reporting.
        event_round: u64,
    },
}

/// A batch of staged sends `(from, to, msg)` bound for one shard.
type SendBatch<M> = Vec<(NodeId, NodeId, M)>;

/// All state owned by one shard: its node range, its slice of the
/// algorithm, a link clone, double-buffered inbox arenas for its own
/// nodes, staging batches toward every shard, and shard-local meters.
struct ShardState<A: CongestAlgorithm, L> {
    lo: NodeId,
    hi: NodeId,
    alg: A,
    link: L,
    task: ShardTask,
    /// Inbox arena for the *next* delivery, globally indexed. Swapped
    /// with `deliveries` each round; capacities persist.
    in_flight: BoxedArena<A>,
    /// This round's inboxes after the swap, cleared at step end.
    deliveries: BoxedArena<A>,
    /// Reusable per-shard send buffer handed to `round_into`.
    sendbuf: SendBuf<A::Msg>,
    /// Matured delayed messages `(to, from, msg)` for this shard's nodes,
    /// installed by the coordinator, merged ahead of all staged sends
    /// (the serial engine matures delays into `in_flight` before the
    /// round's dispatches).
    matured_in: Vec<(NodeId, NodeId, A::Msg)>,
    /// Staged inbound sends, one batch per source shard, installed by
    /// the coordinator at the previous barrier.
    stage_in: Vec<SendBatch<A::Msg>>,
    /// Staged outbound sends, one batch per destination shard, collected
    /// by the coordinator at the barrier.
    stage_out: Vec<SendBatch<A::Msg>>,
    /// Sends the link delayed: `(rounds, to, from, msg)`, appended to the
    /// coordinator's global delay queue at the barrier.
    stage_delay: Vec<(u64, NodeId, NodeId, A::Msg)>,
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
    /// Halt flags for this shard's nodes, indexed `v - lo`.
    halted: Vec<bool>,
    /// Messages metered this step (drained at the barrier).
    step_messages: u64,
    /// Bits metered this step (drained at the barrier).
    step_bits: u64,
    /// Run-total bits per edge metered *by this shard's senders*, dense
    /// over all edge ids; folded into `bits_per_edge` at finalization.
    edge_bits: Vec<u64>,
    /// Whether this shard ever metered the edge.
    edge_touched: Vec<bool>,
    /// Per-round per-edge meters when the observer asked for them; the
    /// coordinator folds `touched`/`bits` into the round map and bumps
    /// the epoch at each barrier (the `map` field stays unused).
    round_edges: Option<RoundEdges>,
    /// Duplicate-send detection, epoch-stamped over all `n` recipients.
    seen: Vec<u64>,
    seen_epoch: u64,
}

/// Read-only state shared by every shard body: topology, model
/// constants, and the partition for routing staged sends.
struct SharedCtx<'a> {
    csr: &'a congest_graph::Csr,
    part: &'a NodePartition,
    ctx: NodeContext<'a>,
    bandwidth: u64,
}

impl<A: ShardableAlgorithm, L: ShardSafeLink> ShardState<A, L> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        lo: NodeId,
        hi: NodeId,
        alg: A,
        link: L,
        k: usize,
        n: usize,
        m: usize,
        wants_edges: bool,
    ) -> Self {
        let len = hi - lo;
        ShardState {
            lo,
            hi,
            alg,
            link,
            task: ShardTask::Idle,
            in_flight: BoxedArena::with_nodes(n),
            deliveries: BoxedArena::with_nodes(n),
            sendbuf: SendBuf::new(),
            matured_in: Vec::new(),
            stage_in: vec![Vec::new(); k],
            stage_out: vec![Vec::new(); k],
            stage_delay: Vec::new(),
            faults: Vec::new(),
            newly_halted: 0,
            abort: None,
            error: None,
            any_out: false,
            halted: vec![false; len],
            step_messages: 0,
            step_bits: 0,
            edge_bits: vec![0; m],
            edge_touched: vec![false; m],
            round_edges: wants_edges.then(|| RoundEdges::new(m)),
            seen: vec![0; n],
            seen_epoch: 0,
        }
    }

    /// The per-step body run under the pool barrier.
    fn run_step(&mut self, shared: &SharedCtx<'_>) {
        match std::mem::replace(&mut self.task, ShardTask::Idle) {
            ShardTask::Idle => {}
            ShardTask::Init => self.run_init(shared),
            ShardTask::Round { round, event_round } => self.run_round(shared, round, event_round),
        }
    }

    fn run_init(&mut self, shared: &SharedCtx<'_>) {
        let mut sendbuf = std::mem::take(&mut self.sendbuf);
        for v in self.lo..self.hi {
            for (to, msg) in self.alg.init(v, &shared.ctx) {
                sendbuf.push(to, msg);
            }
            if let Err(e) = self.dispatch(shared, v, &mut sendbuf, 0) {
                self.error = Some(e);
                break;
            }
        }
        self.sendbuf = sendbuf;
    }

    fn run_round(&mut self, shared: &SharedCtx<'_>, round: usize, event_round: u64) {
        // Build this round's inboxes: matured delays first (global delay-
        // queue order), then staged sends in ascending source-shard order —
        // together, exactly the serial engine's per-inbox ordering.
        let lo = self.lo;
        for (to, from, msg) in self.matured_in.drain(..) {
            self.in_flight.push(to, from, msg);
        }
        for staged in &mut self.stage_in {
            for (from, to, msg) in staged.drain(..) {
                self.in_flight.push(to, from, msg);
            }
        }
        std::mem::swap(&mut self.in_flight, &mut self.deliveries);
        let mut sendbuf = std::mem::take(&mut self.sendbuf);
        for v in self.lo..self.hi {
            let i = v - lo;
            if self.halted[i] {
                // Pending inbound messages to halted (or crash-stopped)
                // nodes are dropped; the sender already paid the bits.
                continue;
            }
            let action = self.alg.round_into(
                v,
                &shared.ctx,
                round,
                self.deliveries.inbox(v),
                &mut sendbuf,
            );
            self.any_out |= !sendbuf.is_empty();
            if let Err(e) = self.dispatch(shared, v, &mut sendbuf, event_round) {
                self.error = Some(e);
                break;
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
        self.sendbuf = sendbuf;
        self.deliveries.clear();
    }

    /// Shard-local twin of the serial engine's dispatch: model checks,
    /// then meter, then the link fate — with delivery replaced by
    /// staging toward the destination shard. Drains `out` completely
    /// (even on an early model-violation return).
    fn dispatch(
        &mut self,
        shared: &SharedCtx<'_>,
        from: NodeId,
        out: &mut SendBuf<A::Msg>,
        round: u64,
    ) -> Result<(), SimError> {
        self.seen_epoch += 1;
        let epoch = self.seen_epoch;
        for (to, msg, hint) in out.items.drain(..) {
            let Some(eid) = shared.csr.edge_id(from, to) else {
                return Err(SimError::NonNeighborSend { from, to, round });
            };
            if self.seen[to] == epoch {
                return Err(SimError::DuplicateSend { from, to, round });
            }
            self.seen[to] = epoch;
            let bits = if hint != 0 {
                debug_assert_eq!(hint, A::message_bits(&msg), "bad SendBuf width hint");
                hint
            } else {
                A::message_bits(&msg)
            };
            if bits > shared.bandwidth {
                return Err(SimError::BandwidthExceeded {
                    from,
                    to,
                    bits,
                    bandwidth: shared.bandwidth,
                    round,
                });
            }
            self.meter(eid, bits);
            let dst = shared.part.shard_of(to);
            match self.link.fate(round, from, to, bits) {
                LinkFate::Deliver | LinkFate::Delay { rounds: 0 } => {
                    self.stage_out[dst].push((from, to, msg));
                }
                LinkFate::Drop => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Drop,
                        from,
                        to: Some(to),
                        bits,
                        detail: 0,
                    });
                }
                LinkFate::Throttle => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Throttle,
                        from,
                        to: Some(to),
                        bits,
                        detail: 0,
                    });
                }
                LinkFate::Omission => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Omission,
                        from,
                        to: Some(to),
                        bits,
                        detail: 0,
                    });
                }
                LinkFate::Partition => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Partition,
                        from,
                        to: Some(to),
                        bits,
                        detail: 0,
                    });
                }
                LinkFate::Corrupt { bit } => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Corrupt,
                        from,
                        to: Some(to),
                        bits,
                        detail: u64::from(bit),
                    });
                    if let Some(corrupted) = A::corrupt(&msg, bit) {
                        self.stage_out[dst].push((from, to, corrupted));
                    }
                }
                LinkFate::Duplicate => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Duplicate,
                        from,
                        to: Some(to),
                        bits,
                        detail: 0,
                    });
                    // The extra copy is real traffic on the wire.
                    self.meter(eid, bits);
                    self.stage_out[dst].push((from, to, msg.clone()));
                    self.stage_out[dst].push((from, to, msg));
                }
                LinkFate::Delay { rounds } => {
                    self.faults.push(FaultEvent {
                        round,
                        kind: FaultKind::Delay,
                        from,
                        to: Some(to),
                        bits,
                        detail: rounds,
                    });
                    self.stage_delay.push((rounds, to, from, msg));
                }
            }
        }
        Ok(())
    }

    fn meter(&mut self, eid: congest_graph::EdgeId, bits: u64) {
        self.step_messages += 1;
        self.step_bits += bits;
        let i = eid as usize;
        self.edge_bits[i] += bits;
        self.edge_touched[i] = true;
        if let Some(re) = self.round_edges.as_mut() {
            re.meter(eid, bits);
        }
    }
}

/// The coordinator side of a sharded run: global delay queue, stats
/// under construction, cross-shard staging in transit, and the
/// observer/link hooks. Lives on the calling thread; touches shard state
/// only under the pool's per-shard locks, between steps.
struct Coordinator<'a, 'g, A: CongestAlgorithm, O, L> {
    sim: &'a Simulator<'g>,
    shared: &'a SharedCtx<'a>,
    observer: &'a mut O,
    link: &'a mut L,
    k: usize,
    n: usize,
    max_rounds: u64,
    wants_edges: bool,
    stats: SimStats,
    /// Delayed messages `(rounds_remaining, to, from, msg)` in global
    /// append order (ascending shard at each barrier — serial order).
    delayed: Vec<(u64, NodeId, NodeId, A::Msg)>,
    delayed_spare: Vec<(u64, NodeId, NodeId, A::Msg)>,
    /// Matured delays per destination shard, in transit to `matured_in`.
    matured: Vec<Vec<(NodeId, NodeId, A::Msg)>>,
    matured_total: usize,
    /// Collected `stage_out` batches, `pending[src][dst]`, in transit.
    pending: Vec<Vec<SendBatch<A::Msg>>>,
    pending_total: usize,
    /// Messages currently staged in shard `stage_in`/`matured_in` —
    /// the sharded equivalent of "`in_flight` is non-empty".
    staged_total: usize,
    node_abort: Option<NodeId>,
    halted_count: usize,
    /// (messages, bits) of the round being flushed.
    round_traffic: (u64, u64),
    /// Deterministically merged per-edge round map handed to `on_round`.
    round_map: HashMap<(NodeId, NodeId), u64>,
}

impl<'a, 'g, A, O, L> Coordinator<'a, 'g, A, O, L>
where
    A: ShardableAlgorithm,
    A::Msg: Send,
    O: RoundObserver,
    L: ShardSafeLink,
{
    /// The full run loop, executed as the pool driver.
    fn run(&mut self, handle: &mut ShardHandle<'_, ShardState<A, L>>) -> RunResult {
        for s in 0..self.k {
            handle.lock(s).task = ShardTask::Init;
        }
        handle.step();
        self.collect_barrier(handle)?;
        self.flush_round(0);
        let mut outcome: Option<RunOutcome> = None;
        if self.sim.budget_exceeded(&self.stats) {
            outcome = Some(RunOutcome::BitBudget);
        } else {
            self.install(handle);
        }
        let mut round = 0usize;
        while outcome.is_none() {
            if self.stats.rounds >= self.max_rounds {
                outcome = Some(RunOutcome::RoundBudget);
                break;
            }
            self.apply_crashes(handle, round as u64);
            if self.halted_count == self.n {
                outcome = Some(RunOutcome::Halted);
                break;
            }
            let was_quiet = self.staged_total == 0 && self.delayed.is_empty();
            let probe = was_quiet && self.sim.stop_on_quiescence && round > 0;
            self.mature_delays();
            for s in 0..self.k {
                handle.lock(s).task = ShardTask::Round {
                    round,
                    event_round: self.stats.rounds + 1,
                };
            }
            handle.step();
            self.staged_total = 0;
            let any_out = self.collect_barrier(handle)?;
            outcome = self.round_epilogue(&mut round);
            if probe
                && outcome.is_none()
                && !any_out
                && self.pending_total + self.matured_total == 0
                && self.delayed.is_empty()
            {
                outcome = Some(RunOutcome::Quiescent);
            }
            if outcome.is_none() {
                self.install(handle);
            }
        }
        Ok(outcome)
    }

    /// Crash-stops scheduled nodes, exactly like the serial engine:
    /// driven on the coordinator's link instance in round order, fault
    /// events emitted before any of the round's dispatch faults.
    fn apply_crashes(&mut self, handle: &mut ShardHandle<'_, ShardState<A, L>>, round: u64) {
        for v in self.link.crashes_at(round) {
            if v >= self.n {
                continue;
            }
            {
                let mut sh = handle.lock(self.shared.part.shard_of(v));
                let i = v - sh.lo;
                if sh.halted[i] {
                    continue;
                }
                sh.halted[i] = true;
            }
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

    /// Drains every shard in ascending order after a step: fault events
    /// (serial ascending-node order), halt/abort bookkeeping, delayed
    /// sends, traffic counters, staged cross-shard sends, and the
    /// per-round edge meters. On a model violation, replays exactly the
    /// fault events the serial engine would have emitted and returns the
    /// lowest shard's error.
    fn collect_barrier(
        &mut self,
        handle: &mut ShardHandle<'_, ShardState<A, L>>,
    ) -> Result<bool, SimError> {
        let mut err: Option<(usize, SimError)> = None;
        for s in 0..self.k {
            if let Some(e) = handle.lock(s).error.take() {
                err = Some((s, e));
                break;
            }
        }
        if let Some((s_err, e)) = err {
            // Shards below the erring one were fully processed before the
            // serial engine would have reached the violation; the erring
            // shard stopped at it. Higher shards' buffered events are what
            // the serial engine never got to — drop them.
            for s in 0..=s_err {
                let mut sh = handle.lock(s);
                for ev in std::mem::take(&mut sh.faults) {
                    self.stats.faults.bump(ev.kind);
                    self.observer.on_fault(&ev);
                }
            }
            return Err(e);
        }
        let mut any_out = false;
        let mut messages = 0u64;
        let mut bits = 0u64;
        let mut pending_total = 0usize;
        for s in 0..self.k {
            let mut sh = handle.lock(s);
            for ev in std::mem::take(&mut sh.faults) {
                self.stats.faults.bump(ev.kind);
                self.observer.on_fault(&ev);
            }
            self.halted_count += std::mem::take(&mut sh.newly_halted);
            if let Some(v) = sh.abort.take() {
                // Ascending shard order makes the first insert the lowest
                // aborting node — the serial winner.
                self.node_abort.get_or_insert(v);
            }
            any_out |= std::mem::take(&mut sh.any_out);
            messages += std::mem::take(&mut sh.step_messages);
            bits += std::mem::take(&mut sh.step_bits);
            self.delayed.append(&mut sh.stage_delay);
            std::mem::swap(&mut sh.stage_out, &mut self.pending[s]);
            if let Some(re) = sh.round_edges.as_mut() {
                for &eid in &re.touched {
                    *self
                        .round_map
                        .entry(self.shared.csr.endpoints(eid))
                        .or_insert(0) += re.bits[eid as usize];
                }
                re.touched.clear();
                re.epoch += 1;
            }
        }
        for row in &self.pending {
            for cell in row {
                pending_total += cell.len();
            }
        }
        self.stats.messages += messages;
        self.stats.total_bits += bits;
        self.round_traffic = (messages, bits);
        self.pending_total = pending_total;
        Ok(any_out)
    }

    /// Advances the global delay queue by one round; matured messages go
    /// to their destination shard's transit vec, installed together with
    /// this round's sends (ahead of them — serial maturation order).
    fn mature_delays(&mut self) {
        if self.delayed.is_empty() {
            return;
        }
        debug_assert!(self.delayed_spare.is_empty());
        for (remaining, to, from, msg) in self.delayed.drain(..) {
            if remaining <= 1 {
                self.matured[self.shared.part.shard_of(to)].push((to, from, msg));
                self.matured_total += 1;
            } else {
                self.delayed_spare.push((remaining - 1, to, from, msg));
            }
        }
        std::mem::swap(&mut self.delayed, &mut self.delayed_spare);
    }

    /// Hands the collected staging over to the destination shards for
    /// the next round's merge.
    fn install(&mut self, handle: &mut ShardHandle<'_, ShardState<A, L>>) {
        for t in 0..self.k {
            let mut sh = handle.lock(t);
            debug_assert!(sh.matured_in.is_empty());
            std::mem::swap(&mut sh.matured_in, &mut self.matured[t]);
            for s in 0..self.k {
                debug_assert!(sh.stage_in[s].is_empty());
                std::mem::swap(&mut sh.stage_in[s], &mut self.pending[s][t]);
            }
        }
        self.staged_total = self.pending_total + self.matured_total;
        self.pending_total = 0;
        self.matured_total = 0;
    }

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
            edge_bits: self.wants_edges.then_some(&self.round_map),
        });
        self.round_map.clear();
    }

    fn round_epilogue(&mut self, round: &mut usize) -> Option<RunOutcome> {
        self.stats.rounds += 1;
        *round += 1;
        let r = self.stats.rounds;
        self.flush_round(r);
        if let Some(v) = self.node_abort {
            Some(RunOutcome::NodeAborted(v))
        } else if self.sim.budget_exceeded(&self.stats) {
            Some(RunOutcome::BitBudget)
        } else {
            None
        }
    }
}

type RunResult = Result<Option<RunOutcome>, SimError>;

impl<'g> Simulator<'g> {
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
        let n = self.graph.num_nodes();
        let m = self.csr.num_edges();
        let k = resolve_jobs(self.jobs).min(n.max(1));
        let part = self.csr.partition(k);
        link.on_run_start(n);
        let wants_edges = observer.wants_edge_traffic();
        let shards: Vec<ShardState<A, L>> = (0..k)
            .map(|s| {
                let r = part.range(s);
                ShardState::new(
                    r.start,
                    r.end,
                    alg.split_shard(r.start, r.end),
                    link.clone(),
                    k,
                    n,
                    m,
                    wants_edges,
                )
            })
            .collect();
        let shared = SharedCtx {
            csr: &self.csr,
            part: &part,
            ctx: NodeContext {
                graph: self.graph,
                n,
                bandwidth: self.bandwidth,
            },
            bandwidth: self.bandwidth,
        };
        let mut coord: Coordinator<'_, 'g, A, O, L> = Coordinator {
            sim: self,
            shared: &shared,
            observer,
            link,
            k,
            n,
            max_rounds,
            wants_edges,
            stats: SimStats::default(),
            delayed: Vec::new(),
            delayed_spare: Vec::new(),
            matured: vec![Vec::new(); k],
            matured_total: 0,
            pending: vec![vec![Vec::new(); k]; k],
            pending_total: 0,
            staged_total: 0,
            node_abort: None,
            halted_count: 0,
            round_traffic: (0, 0),
            round_map: HashMap::new(),
        };
        let (run_res, shards_back, pool) = with_shards(
            k,
            shards,
            |_s, shard: &mut ShardState<A, L>| shard.run_step(&shared),
            |handle| coord.run(handle),
        );
        let outcome_opt = match run_res {
            Ok(o) => o,
            Err(e) => {
                // Reassemble the caller's algorithm even on a rejected
                // run (state is partial, exactly like a serial error).
                for sh in shards_back {
                    alg.absorb_shard(sh.alg, sh.lo, sh.hi);
                }
                return Err(e);
            }
        };
        // Fold the shard-local dense meters into the public per-edge map
        // (an edge metered by both endpoint shards sums, once per
        // direction — identical totals to the serial accumulator).
        let mut touched = vec![false; m];
        let mut bits = vec![0u64; m];
        for sh in &shards_back {
            for (i, &t) in sh.edge_touched.iter().enumerate() {
                if t {
                    touched[i] = true;
                    bits[i] += sh.edge_bits[i];
                }
            }
        }
        let count = touched.iter().filter(|&&t| t).count();
        let mut map = HashMap::with_capacity(count);
        for (i, &t) in touched.iter().enumerate() {
            if t {
                map.insert(self.csr.endpoints(i as congest_graph::EdgeId), bits[i]);
            }
        }
        let mut stats = std::mem::take(&mut coord.stats);
        stats.bits_per_edge = map;
        let mut outcome = outcome_opt.unwrap_or(RunOutcome::RoundBudget);
        // A run that used its whole round budget but ended with every
        // node halted converged; report it as such.
        if outcome == RunOutcome::RoundBudget && coord.halted_count == n {
            outcome = RunOutcome::Halted;
        }
        stats.outcome = outcome;
        coord.observer.on_done(&stats);
        for sh in shards_back {
            alg.absorb_shard(sh.alg, sh.lo, sh.hi);
        }
        Ok((stats, pool))
    }
}
