//! The [`RoundObserver`] hook: per-round visibility into a simulation.
//!
//! [`crate::Simulator::run_observed`] drives an observer alongside the
//! ordinary execution; [`crate::Simulator::run`] uses [`NoopRoundObserver`]
//! and is behaviorally unchanged. [`TraceObserver`] is the bundled
//! implementation that forwards everything to a `congest-obs`
//! [`Recorder`] as structured records — per-round traffic, traffic across
//! a designated Alice↔Bob cut, and an end-of-run congestion summary.

use std::collections::{HashMap, HashSet};

use congest_graph::NodeId;
use congest_obs::{Record, Recorder};

use crate::link::FaultEvent;
use crate::SimStats;

/// Traffic emitted during one round of a run.
///
/// Round 0 is the *initial burst*: the messages produced by
/// [`crate::CongestAlgorithm::init`] before the first delivery. Rounds
/// `1..=stats.rounds` are the loop rounds proper.
#[derive(Debug)]
pub struct RoundDelta<'a> {
    /// Round number (0 = initial burst).
    pub round: u64,
    /// Messages dispatched during this round.
    pub messages: u64,
    /// Bits dispatched during this round.
    pub bits: u64,
    /// Cumulative bits dispatched up to and including this round.
    pub total_bits: u64,
    /// Per-edge bits dispatched this round, keyed `(min, max)`.
    ///
    /// `None` unless the observer asked for it via
    /// [`RoundObserver::wants_edge_traffic`] (the map costs a hash insert
    /// per message).
    pub edge_bits: Option<&'a HashMap<(NodeId, NodeId), u64>>,
}

impl RoundDelta<'_> {
    /// Bits this round that crossed any edge of `cut` (endpoints in either
    /// order). Zero when edge traffic was not requested.
    pub fn bits_across(&self, cut: &[(NodeId, NodeId)]) -> u64 {
        match self.edge_bits {
            None => 0,
            Some(map) => cut
                .iter()
                .map(|&(u, v)| map.get(&(u.min(v), u.max(v))).copied().unwrap_or(0))
                .sum(),
        }
    }
}

/// Per-round hook driven by [`crate::Simulator::run_observed`].
pub trait RoundObserver {
    /// Whether per-edge round deltas should be collected (costs a hash
    /// insert per message; defaults to `false`).
    fn wants_edge_traffic(&self) -> bool {
        false
    }

    /// Called after every round (including the round-0 init burst).
    fn on_round(&mut self, delta: &RoundDelta<'_>);

    /// Called once per injected fault, at injection time — i.e. before the
    /// `on_round` of the round the fault fired in. Fault-free runs never
    /// call this. Defaults to a no-op.
    fn on_fault(&mut self, _event: &FaultEvent) {}

    /// Called once when the run terminates, with the final statistics.
    fn on_done(&mut self, _stats: &SimStats) {}
}

/// The do-nothing observer behind [`crate::Simulator::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRoundObserver;

impl RoundObserver for NoopRoundObserver {
    fn on_round(&mut self, _delta: &RoundDelta<'_>) {}
}

/// How many of the heaviest edges a [`TraceObserver`] reports at
/// termination.
const HOT_EDGES: usize = 3;

/// Streams per-round records into a `congest-obs` [`Recorder`].
///
/// Emits, on target `sim`:
///
/// * one `round` record per round —
///   `{round, messages, bits, cum_bits}` plus `cut_bits` when a cut was
///   designated;
/// * one `fault` record per injected fault, interleaved before the
///   `round` record of the round it fired in (fault-free runs emit none);
/// * at termination, a `summary` record (carrying the run `outcome` and
///   total `faults`), a `histogram` record over per-edge totals, and one
///   `hot_edge` record for each of the three heaviest edges; runs that saw
///   faults also get a `fault_counters` record.
#[derive(Debug)]
pub struct TraceObserver<R: Recorder> {
    rec: R,
    cut: Vec<(NodeId, NodeId)>,
    cut_set: HashSet<(NodeId, NodeId)>,
    edge_records: bool,
}

impl<R: Recorder> TraceObserver<R> {
    /// An observer writing into `rec`, with no designated cut.
    pub fn new(rec: R) -> Self {
        TraceObserver {
            rec,
            cut: Vec::new(),
            cut_set: HashSet::new(),
            edge_records: false,
        }
    }

    /// Also emits one `edge_round` record per `(edge, round)` with
    /// traffic — `{round, u, v, bits}`, sorted by `(u, v)` within the
    /// round so the stream is deterministic. This is the input for
    /// congestion heatmaps (`tracectl heatmap`); it scales with
    /// edges × rounds, so leave it off for big sweeps.
    pub fn with_edge_records(mut self, on: bool) -> Self {
        self.edge_records = on;
        self
    }

    /// Designates the Alice↔Bob cut whose per-round crossing traffic is
    /// reported as `cut_bits` (Theorem 1.1's measured quantity).
    pub fn with_cut(mut self, cut: &[(NodeId, NodeId)]) -> Self {
        self.cut = cut.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        self.cut_set = self.cut.iter().copied().collect();
        self
    }

    /// Releases the inner recorder.
    pub fn into_recorder(self) -> R {
        self.rec
    }
}

impl<R: Recorder> RoundObserver for TraceObserver<R> {
    fn wants_edge_traffic(&self) -> bool {
        // Needed to attribute traffic to the designated cut and for
        // per-edge round records.
        !self.cut.is_empty() || self.edge_records
    }

    fn on_round(&mut self, delta: &RoundDelta<'_>) {
        let mut r = Record::new("sim", "round")
            .with("round", delta.round)
            .with("messages", delta.messages)
            .with("bits", delta.bits)
            .with("cum_bits", delta.total_bits);
        if !self.cut.is_empty() {
            r = r.with("cut_bits", delta.bits_across(&self.cut));
        }
        self.rec.record(r);
        if self.edge_records {
            if let Some(map) = delta.edge_bits {
                let mut edges: Vec<(&(NodeId, NodeId), &u64)> = map.iter().collect();
                edges.sort_unstable_by_key(|(e, _)| **e);
                for (&(u, v), &bits) in edges {
                    self.rec.record(
                        Record::new("sim", "edge_round")
                            .with("round", delta.round)
                            .with("u", u)
                            .with("v", v)
                            .with("bits", bits),
                    );
                }
            }
        }
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        self.rec.record(event.to_record());
    }

    fn on_done(&mut self, stats: &SimStats) {
        let cut_total: u64 = if self.cut.is_empty() {
            0
        } else {
            stats.bits_across(&self.cut)
        };
        self.rec.record(
            Record::new("sim", "summary")
                .with("rounds", stats.rounds)
                .with("messages", stats.messages)
                .with("total_bits", stats.total_bits)
                .with("edges_used", stats.bits_per_edge.len())
                .with("cut_bits", cut_total)
                .with("outcome", stats.outcome.as_str())
                .with("faults", stats.faults.total()),
        );
        if stats.faults.total() > 0 {
            self.rec.record(stats.faults.to_record("sim"));
        }
        self.rec
            .record(stats.congestion_histogram().to_record("sim", "edge_bits"));
        for ((u, v), bits) in stats.hottest_edges(HOT_EDGES) {
            self.rec.record(
                Record::new("sim", "hot_edge")
                    .with("u", u)
                    .with("v", v)
                    .with("bits", bits)
                    .with("on_cut", self.cut_set.contains(&(u, v))),
            );
        }
        self.rec.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;
    use congest_obs::MemoryRecorder;

    use crate::algorithms::LeaderElection;

    #[test]
    fn trace_observer_emits_rounds_and_summary() {
        let g = generators::path(6);
        let sim = Simulator::new(&g);
        let mut alg = LeaderElection::new(6);
        let cut = [(2usize, 3usize)];
        let mut obs = TraceObserver::new(MemoryRecorder::new()).with_cut(&cut);
        let stats = sim.run_observed(&mut alg, 100, &mut obs);
        let mem = obs.into_recorder();

        let rounds: Vec<_> = mem.by_event("round").collect();
        // Init burst + one record per loop round.
        assert_eq!(rounds.len() as u64, stats.rounds + 1);
        assert_eq!(rounds[0].u64_field("round"), Some(0));
        let cut_sum: u64 = rounds
            .iter()
            .map(|r| r.u64_field("cut_bits").unwrap())
            .sum();
        assert_eq!(
            cut_sum,
            stats.bits_across(&cut),
            "per-round cut bits sum to total"
        );
        let bit_sum: u64 = rounds.iter().map(|r| r.u64_field("bits").unwrap()).sum();
        assert_eq!(bit_sum, stats.total_bits);

        let summary = mem.by_event("summary").next().expect("summary record");
        assert_eq!(summary.u64_field("total_bits"), Some(stats.total_bits));
        assert!(mem.by_event("histogram").next().is_some());
        assert!(mem.by_event("hot_edge").count() >= 1);
    }

    /// Node 1 aborts mid-run: the observer still sees the final partial
    /// round and `on_done`, and the summary carries the abort outcome.
    struct AbortingFlood;
    impl crate::CongestAlgorithm for AbortingFlood {
        type Msg = ();
        type Output = ();
        fn message_bits(_: &()) -> u64 {
            1
        }
        fn init(&mut self, node: usize, ctx: &crate::NodeContext<'_>) -> Vec<(usize, ())> {
            ctx.neighbors(node).iter().map(|&u| (u, ())).collect()
        }
        fn round(
            &mut self,
            node: usize,
            ctx: &crate::NodeContext<'_>,
            round: usize,
            _: &[(usize, ())],
        ) -> (Vec<(usize, ())>, crate::RoundOutcome) {
            let out = ctx.neighbors(node).iter().map(|&u| (u, ())).collect();
            if node == 1 && round == 2 {
                (out, crate::RoundOutcome::Aborted)
            } else {
                (out, crate::RoundOutcome::Continue)
            }
        }
        fn output(&self, _: usize) -> Option<()> {
            None
        }
    }

    #[test]
    fn observer_sees_final_partial_round_on_abort() {
        let g = generators::cycle(5);
        let sim = Simulator::new(&g);
        let mut obs = TraceObserver::new(MemoryRecorder::new());
        let stats = sim
            .try_run_with(&mut AbortingFlood, 50, &mut obs, &mut crate::PerfectLink)
            .unwrap();
        assert_eq!(stats.outcome, crate::RunOutcome::NodeAborted(1));
        let mem = obs.into_recorder();
        let rounds: Vec<_> = mem.by_event("round").collect();
        // The aborting round is still flushed to the observer.
        assert_eq!(rounds.len() as u64, stats.rounds + 1);
        assert_eq!(
            rounds.last().unwrap().u64_field("round"),
            Some(stats.rounds)
        );
        let summary = mem.by_event("summary").next().expect("summary record");
        assert!(summary.to_json().contains("\"outcome\":\"node_aborted\""));
    }

    /// Drops every message dispatched from round 2 on.
    struct DropAllLate;
    impl crate::LinkLayer for DropAllLate {
        fn fate(&mut self, round: u64, _from: usize, _to: usize, _bits: u64) -> crate::LinkFate {
            if round >= 2 {
                crate::LinkFate::Drop
            } else {
                crate::LinkFate::Deliver
            }
        }
    }

    #[test]
    fn fault_records_interleave_with_round_deltas() {
        let g = generators::cycle(6);
        let sim = Simulator::new(&g);
        let mut alg = LeaderElection::new(6);
        let mut obs = TraceObserver::new(MemoryRecorder::new());
        let stats = sim
            .try_run_with(&mut alg, 100, &mut obs, &mut DropAllLate)
            .unwrap();
        assert!(stats.faults.drops > 0);
        let mem = obs.into_recorder();
        let faults: Vec<_> = mem.by_event("fault").collect();
        assert_eq!(faults.len() as u64, stats.faults.drops);
        // A fault fired in round r is recorded before round r's delta:
        // walking the stream, each fault's round is exactly one past the
        // last round record seen (its round is still being accumulated).
        let mut last_round_flushed: Option<u64> = None;
        for rec in mem.records() {
            match &*rec.event {
                "round" => last_round_flushed = rec.u64_field("round"),
                "fault" => {
                    let fr = rec.u64_field("round").unwrap();
                    assert_eq!(
                        fr,
                        last_round_flushed.map_or(0, |r| r + 1),
                        "fault record out of order"
                    );
                }
                _ => {}
            }
        }
        let summary = mem.by_event("summary").next().expect("summary record");
        assert_eq!(summary.u64_field("faults"), Some(stats.faults.total()));
        let counters = mem
            .by_event("fault_counters")
            .next()
            .expect("fault_counters record");
        assert_eq!(counters.u64_field("drop"), Some(stats.faults.drops));
    }

    #[test]
    fn edge_round_records_cover_all_traffic_in_sorted_order() {
        let g = generators::cycle(6);
        let sim = Simulator::new(&g);
        let mut alg = LeaderElection::new(6);
        let mut obs = TraceObserver::new(MemoryRecorder::new()).with_edge_records(true);
        let stats = sim.run_observed(&mut alg, 100, &mut obs);
        let mem = obs.into_recorder();
        let edge_recs: Vec<_> = mem.by_event("edge_round").collect();
        assert!(!edge_recs.is_empty());
        // All traffic is covered: summing per-(edge, round) bits gives the
        // run total, and per-edge sums match the final per-edge map.
        let total: u64 = edge_recs.iter().map(|r| r.u64_field("bits").unwrap()).sum();
        assert_eq!(total, stats.total_bits);
        let mut per_edge: std::collections::HashMap<(usize, usize), u64> =
            std::collections::HashMap::new();
        let mut last: Option<(u64, usize, usize)> = None;
        for r in &edge_recs {
            let round = r.u64_field("round").unwrap();
            let u = r.u64_field("u").unwrap() as usize;
            let v = r.u64_field("v").unwrap() as usize;
            *per_edge.entry((u, v)).or_default() += r.u64_field("bits").unwrap();
            if let Some((lr, lu, lv)) = last {
                assert!(
                    (lr, lu, lv) <= (round, u, v),
                    "edge_round stream sorted by (round, u, v)"
                );
            }
            last = Some((round, u, v));
        }
        assert_eq!(per_edge, stats.bits_per_edge);
    }

    #[test]
    fn observed_run_matches_plain_run() {
        let g = generators::cycle(8);
        let mut a1 = LeaderElection::new(8);
        let mut a2 = LeaderElection::new(8);
        let plain = Simulator::new(&g).run(&mut a1, 1_000);
        let mut obs = TraceObserver::new(MemoryRecorder::new());
        let observed = Simulator::new(&g).run_observed(&mut a2, 1_000, &mut obs);
        assert_eq!(plain.rounds, observed.rounds);
        assert_eq!(plain.messages, observed.messages);
        assert_eq!(plain.total_bits, observed.total_bits);
        assert_eq!(plain.bits_per_edge, observed.bits_per_edge);
        assert_eq!(plain.round_timeline, observed.round_timeline);
        for v in 0..8 {
            assert_eq!(a1.leader(v), a2.leader(v));
        }
    }
}
