//! Phase-level profiling of the simulator's round loop.
//!
//! [`PhaseProfile`] attributes engine wall time to the five named phases
//! of a round — `deliver` (inbox swap + delay maturation + clears),
//! `compute` (the `alg.round`/`alg.init` calls), `meter` (model checks
//! and bit accounting per message), `link_fate` (link-layer fate and
//! routing per message), and `epilogue` (timeline flush + observer
//! callbacks + finalization) — plus the wall time of the whole run and
//! of each round. Profiling covers one-shard runs, through
//! [`crate::Simulator::try_run_profiled`]: the engine steps its one shard
//! on the calling thread, which times deliver, compute, meter and
//! link_fate, while the round's coordinator times the epilogue. Pooled
//! sharded runs have no profiled entry point, because their per-message
//! `meter`/`link_fate` segments run on worker threads and cannot be
//! attributed per phase.
//!
//! An attached profile measures every round; a run without one reads no
//! clock. Clock reads cost tens of nanoseconds on virtualized hosts,
//! comparable to the engine's own per-message work, so a profiled shard
//! step is one chain of reads: each read ends one segment and starts the
//! next. What stays unattributed is the coordinator's per-round
//! bookkeeping between phases: about 5% of E7, the run behind
//! `experiments --profile`, whose rounds are short; the `sim_round`
//! bench records the overhead and coverage on an engine-bound run in
//! `BENCH_sim_round.json`.
//!
//! Timing is accumulated in nanoseconds (per-message segments are far
//! below a microsecond) and exposed in microseconds; per-round wall
//! times additionally feed a [`QuantileSketch`] so tail rounds are
//! visible, not just the mean.

use congest_obs::{QuantileSketch, Record, SpanTree};

/// The five attributed phases of one simulator round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inbox arena swap, delay maturation, and inbox clears.
    Deliver = 0,
    /// The algorithm's `init`/`round` calls.
    Compute = 1,
    /// Per-message model checks and bit metering.
    Meter = 2,
    /// Per-message link-layer fate and routing.
    LinkFate = 3,
    /// Round flush, observer callbacks, and run finalization.
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
}

impl PhaseProfile {
    /// An empty profile; attached to a run, it measures every round.
    pub fn every_round() -> Self {
        PhaseProfile {
            rounds: 0,
            totals: [Totals::default(); 5],
            round_sketch: QuantileSketch::default(),
            run_nanos: 0,
            runs: 0,
        }
    }

    /// Adds measured time to a phase (one call).
    pub(crate) fn add(&mut self, phase: Phase, nanos: u64) {
        self.add_n(phase, nanos, 1);
    }

    /// Adds measured time covering `calls` units of work to a phase.
    pub(crate) fn add_n(&mut self, phase: Phase, nanos: u64, calls: u64) {
        let t = &mut self.totals[phase as usize];
        t.nanos += nanos;
        t.calls += calls;
    }

    /// Counts one round and records its wall time.
    pub(crate) fn note_round(&mut self, nanos: u64) {
        self.rounds += 1;
        self.round_sketch.observe(nanos / 1_000);
    }

    /// Records the wall time of one whole run.
    pub(crate) fn note_run(&mut self, nanos: u64) {
        self.run_nanos += nanos;
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

    /// Work units measured under `phase` (rounds for `deliver`, node
    /// activations for `compute`, messages for `meter`/`link_fate`).
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.totals[phase as usize].calls
    }

    /// Microseconds attributed to named phases, summed.
    pub fn attributed_micros(&self) -> u64 {
        self.totals.iter().map(|t| t.nanos).sum::<u64>() / 1_000
    }

    /// Wall microseconds of all profiled runs.
    pub fn run_micros(&self) -> u64 {
        self.run_nanos / 1_000
    }

    /// Fraction of run wall time attributed to named phases (`None`
    /// before any run completes): the "≥95% of wall time has a name"
    /// acceptance number.
    pub fn run_coverage(&self) -> Option<f64> {
        (self.run_nanos > 0).then(|| {
            self.totals.iter().map(|t| t.nanos).sum::<u64>() as f64 / self.run_nanos as f64
        })
    }

    /// The per-round wall-time distribution (microseconds).
    pub fn round_sketch(&self) -> &QuantileSketch {
        &self.round_sketch
    }

    /// Builds a [`SpanTree`] of the measured totals: `run` at the root,
    /// the five phases beneath it. The tree's unattributed remainder
    /// (`run` self time) is loop control between the timed segments.
    pub fn span_tree(&self) -> SpanTree {
        let mut tree = SpanTree::new();
        tree.add_measured(&["run"], self.run_micros(), self.runs.max(1));
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let t = self.totals[i];
            tree.add_measured(&["run", name], t.nanos / 1_000, t.calls);
        }
        tree
    }

    /// Flame-style rendering of [`PhaseProfile::span_tree`], with the
    /// round and run counts on a header line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "phase profile: {} rounds in {} runs\n",
            self.rounds, self.runs
        );
        out.push_str(&self.span_tree().render());
        out
    }

    /// Renders as `phase_profile` records under `target`: one per phase
    /// plus a `profile_summary` with coverage and the round sketch.
    pub fn to_records(&self, target: &'static str) -> Vec<Record> {
        let mut out = Vec::with_capacity(PHASE_NAMES.len() + 2);
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let t = self.totals[i];
            out.push(
                Record::new(target, "phase_profile")
                    .with("phase", *name)
                    .with("micros", t.nanos / 1_000)
                    .with("calls", t.calls),
            );
        }
        out.push(
            Record::new(target, "profile_summary")
                .with("rounds", self.rounds)
                .with("run_micros", self.run_micros())
                .with("attributed_micros", self.attributed_micros())
                .with("run_coverage", self.run_coverage().unwrap_or(0.0)),
        );
        out.push(self.round_sketch.to_record(target, "round_micros"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_coverage_accumulate() {
        let mut p = PhaseProfile::every_round();
        p.add(Phase::Deliver, 10_000);
        p.add_n(Phase::Compute, 70_000, 16);
        p.add_n(Phase::Meter, 5_000, 40);
        p.add_n(Phase::LinkFate, 5_000, 40);
        p.add(Phase::Epilogue, 5_000);
        p.note_round(100_000);
        p.note_run(105_000);
        assert_eq!(p.phase_micros(Phase::Compute), 70);
        assert_eq!(p.phase_calls(Phase::Meter), 40);
        assert_eq!(p.attributed_micros(), 95);
        assert_eq!(p.rounds(), 1);
        let cov = p.run_coverage().unwrap();
        assert!((cov - 95.0 / 105.0).abs() < 1e-9, "coverage {cov}");
        let text = p.render();
        assert!(text.contains("compute"), "render names phases:\n{text}");
    }

    #[test]
    fn records_cover_all_phases() {
        let mut p = PhaseProfile::every_round();
        p.add(Phase::Deliver, 1_000);
        p.note_round(2_000);
        p.note_run(2_500);
        let recs = p.to_records("sim.profile");
        let phases: Vec<&str> = recs
            .iter()
            .filter(|r| r.event == "phase_profile")
            .filter_map(|r| {
                r.field("phase").and_then(|v| match v {
                    congest_obs::Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
            })
            .collect();
        assert_eq!(phases, PHASE_NAMES);
        assert!(recs.iter().any(|r| r.event == "profile_summary"));
        assert!(recs.iter().any(|r| r.event == "sketch"));
    }
}
