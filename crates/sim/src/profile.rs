//! Phase-level profiling of the simulator's round loop.
//!
//! [`PhaseProfile`] attributes engine wall time to the five named phases
//! of a round — `deliver` (inbox reservation, crash application, delay
//! maturation, inbox swap and clears), `compute` (the
//! `alg.round`/`alg.init` calls), `meter` (model checks and bit
//! accounting per message), `link_fate` (link-layer fate and routing per
//! message), and `epilogue` (collection, timeline flush, observer
//! callbacks and run finalization) — plus the wall time of the whole run
//! and of each round. Profiling covers one-shard runs, through
//! [`crate::Simulator::try_run_profiled`]: the engine steps its one shard
//! on the calling thread. Pooled sharded runs have no profiled entry
//! point, because their per-message `meter`/`link_fate` segments run on
//! worker threads and cannot be attributed per phase.
//!
//! The profile owns the run's one chain of clock reads: the engine laps
//! it at each phase boundary, and each lap reads the clock once, credits
//! the time since the previous read to its phase, and starts the next
//! segment. Every read ends one segment and starts the next, so a
//! completed run's phases add up to its wall time: its
//! [`PhaseProfile::run_coverage`] is 1. An attached profile measures
//! every round; a run without one reads no clock. Clock reads cost tens
//! of nanoseconds on virtualized hosts, comparable to the engine's own
//! per-message work; the `sim_round` bench records the overhead on an
//! engine-bound run in `BENCH_sim_round.json`.
//!
//! Timing is accumulated in nanoseconds (per-message segments are far
//! below a microsecond) and exposed in microseconds; per-round wall
//! times additionally feed a [`QuantileSketch`] so tail rounds are
//! visible, not just the mean.

use std::time::Instant;

use congest_obs::{QuantileSketch, Record, SpanTree};

/// The five attributed phases of one simulator round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inbox reservation, crash application, delay maturation, inbox
    /// swap, and inbox clears.
    Deliver = 0,
    /// The algorithm's `init`/`round` calls.
    Compute = 1,
    /// Per-message model checks and bit metering.
    Meter = 2,
    /// Per-message link-layer fate and routing.
    LinkFate = 3,
    /// Collection, round flush, observer callbacks, and run finalization.
    Epilogue = 4,
}

impl Phase {
    /// The phase's stable name, as used in records and rendered trees.
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self as usize]
    }
}

/// Phase names in enum order.
pub const PHASE_NAMES: [&str; 5] = ["deliver", "compute", "meter", "link_fate", "epilogue"];

#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    nanos: u64,
    calls: u64,
}

/// Nanoseconds from `from` to `to`.
fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// A phase-attribution profile of one or more simulator runs (see
/// module docs). Reusable across runs; totals accumulate.
#[derive(Debug)]
pub struct PhaseProfile {
    rounds: u64,
    totals: [Totals; 5],
    /// Per-round wall micros distribution.
    round_sketch: QuantileSketch,
    /// Wall nanos of whole runs (start → stats returned).
    run_nanos: u64,
    runs: u64,
    /// The clock read that ended the last segment.
    last: Instant,
    /// The reads at which the current round and run began.
    round_start: Instant,
    run_start: Instant,
}

impl PhaseProfile {
    /// An empty profile; attached to a run, it measures every round.
    pub fn every_round() -> Self {
        let now = Instant::now();
        PhaseProfile {
            rounds: 0,
            totals: [Totals::default(); 5],
            round_sketch: QuantileSketch::default(),
            run_nanos: 0,
            runs: 0,
            last: now,
            round_start: now,
            run_start: now,
        }
    }

    /// Starts a run: the read that opens its first round and segment.
    pub(crate) fn start_run(&mut self) {
        let now = Instant::now();
        self.last = now;
        self.round_start = now;
        self.run_start = now;
    }

    /// Ends the current segment: credits the time since the previous
    /// read to `phase` (one call) and starts the next segment. Returns
    /// the read.
    #[inline]
    pub(crate) fn lap(&mut self, phase: Phase) -> Instant {
        let now = Instant::now();
        let t = &mut self.totals[phase as usize];
        t.nanos += nanos(self.last, now);
        t.calls += 1;
        self.last = now;
        now
    }

    /// Ends a round with an `epilogue` lap, and records the round's wall
    /// time, which runs from the previous round's end (or the run's
    /// start) to this read.
    pub(crate) fn end_round(&mut self) {
        let now = self.lap(Phase::Epilogue);
        self.round_sketch
            .observe(nanos(self.round_start, now) / 1_000);
        self.round_start = now;
        self.rounds += 1;
    }

    /// Ends a run with its closing `epilogue` lap, and records the run's
    /// wall time.
    pub(crate) fn end_run(&mut self) {
        let now = self.lap(Phase::Epilogue);
        self.run_nanos += nanos(self.run_start, now);
        self.runs += 1;
    }

    /// Rounds measured. Counts the round-0 init burst like the engine's
    /// `round_timeline` does, so one run contributes `SimStats::rounds + 1`.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative microseconds attributed to `phase`.
    pub fn phase_micros(&self, phase: Phase) -> u64 {
        self.totals[phase as usize].nanos / 1_000
    }

    /// Laps credited to `phase`: one per message for `meter` and
    /// `link_fate`, one per node activation for `compute`, and one per
    /// segment for `deliver` and `epilogue`.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.totals[phase as usize].calls
    }

    /// Wall microseconds of all profiled runs.
    pub fn run_micros(&self) -> u64 {
        self.run_nanos / 1_000
    }

    /// Fraction of run wall time attributed to named phases (`None`
    /// before any run completes). The phases of completed runs tile
    /// their wall time, so this is 1 unless a run was rejected midway.
    pub fn run_coverage(&self) -> Option<f64> {
        (self.run_nanos > 0).then(|| {
            self.totals.iter().map(|t| t.nanos).sum::<u64>() as f64 / self.run_nanos as f64
        })
    }

    /// The per-round wall-time distribution (microseconds).
    pub fn round_sketch(&self) -> &QuantileSketch {
        &self.round_sketch
    }

    /// Builds a [`SpanTree`] of the measured totals: the runs at a root
    /// named `root`, the five phases beneath it.
    pub fn span_tree(&self, root: &str) -> SpanTree {
        let mut tree = SpanTree::new();
        tree.add_measured(&[root], self.run_micros(), self.runs);
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let t = self.totals[i];
            tree.add_measured(&[root, name], t.nanos / 1_000, t.calls);
        }
        tree
    }

    /// Flame-style rendering of [`PhaseProfile::span_tree`] rooted at
    /// `run`, with the round and run counts on a header line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "phase profile: {} rounds in {} runs\n",
            self.rounds, self.runs
        );
        out.push_str(&self.span_tree("run").render());
        out
    }

    /// Renders as records under `target`: the `span_tree` records of
    /// [`PhaseProfile::span_tree`] rooted at `target`, then the round
    /// sketch, whose `count` is the round count.
    pub fn to_records(&self, target: &'static str) -> Vec<Record> {
        let mut out = self.span_tree(target).to_records(target);
        out.push(self.round_sketch.to_record(target, "round_micros"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One profiled "run" of two rounds driven through the chain API.
    fn two_rounds() -> PhaseProfile {
        let mut p = PhaseProfile::every_round();
        p.start_run();
        p.lap(Phase::Deliver);
        for _ in 0..4 {
            p.lap(Phase::Compute);
            p.lap(Phase::Meter);
            p.lap(Phase::LinkFate);
        }
        p.end_round();
        p.lap(Phase::Deliver);
        p.lap(Phase::Compute);
        p.lap(Phase::Deliver);
        p.end_round();
        p.end_run();
        p
    }

    #[test]
    fn totals_and_coverage_accumulate() {
        let mut p = two_rounds();
        assert_eq!(p.rounds(), 2);
        assert_eq!(p.phase_calls(Phase::Deliver), 3);
        assert_eq!(p.phase_calls(Phase::Compute), 5);
        assert_eq!(p.phase_calls(Phase::Meter), 4);
        assert_eq!(p.phase_calls(Phase::LinkFate), 4);
        // Two round ends and the run's closing lap.
        assert_eq!(p.phase_calls(Phase::Epilogue), 3);
        assert_eq!(p.round_sketch().count(), 2);
        // Every read ends one segment and starts the next, so the phases
        // add up to the run's wall time exactly, also over several runs.
        p.start_run();
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.lap(Phase::Compute);
        p.end_round();
        p.end_run();
        assert!(p.run_micros() >= 1_000);
        assert_eq!(p.run_coverage(), Some(1.0));
        let text = p.render();
        assert!(text.contains("3 rounds in 2 runs"), "{text}");
        assert!(text.contains("compute"), "render names phases:\n{text}");
    }

    #[test]
    fn records_cover_all_phases() {
        let p = two_rounds();
        let recs = p.to_records("sim.profile");
        let mut tree = SpanTree::new();
        for rec in &recs[..recs.len() - 1] {
            assert_eq!(rec.target, "sim.profile");
            assert!(tree.add_record(rec), "{rec:?}");
        }
        assert_eq!(tree.snapshot(), p.span_tree("sim.profile").snapshot());
        let paths: Vec<String> = tree.snapshot().into_iter().map(|e| e.path).collect();
        let mut want = vec!["sim.profile".to_string()];
        want.extend(PHASE_NAMES.iter().map(|n| format!("sim.profile/{n}")));
        assert_eq!(paths, want);
        let sketch = recs.last().unwrap();
        assert_eq!(sketch.event, "sketch");
        assert_eq!(sketch.u64_field("count"), Some(p.rounds()));
    }
}
