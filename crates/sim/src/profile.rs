//! Phase-level profiling of the simulator's round loop.
//!
//! [`PhaseProfile`] attributes engine wall time to the five named phases
//! of a round — `deliver` (inbox swap + delay maturation + clears),
//! `compute` (the `alg.round`/`alg.init` calls), `meter` (model checks
//! and bit accounting per message), `link_fate` (link-layer fate and
//! routing per message), and `epilogue` (timeline flush + observer
//! callbacks + finalization) — plus the wall time of the whole run and
//! of each sampled round. Profiling covers one-shard runs, through
//! [`crate::Simulator::try_run_profiled`]: the engine steps its one shard
//! on the calling thread, which times deliver, compute, meter and
//! link_fate, while the round's coordinator times the epilogue. Pooled
//! sharded runs have no profiled entry point, because their per-message
//! `meter`/`link_fate` segments run on worker threads and cannot be
//! attributed per phase.
//!
//! The cost model is a *sampling guard*: rounds where
//! `round % sample_every != 0` pay exactly one branch and no clock
//! reads, so profiling a long run at the default `sample_every = 128` is
//! within noise of an unprofiled run (the `sim_round` bench measures the
//! overhead and records it in `BENCH_sim_round.json`; clock reads cost
//! tens of nanoseconds on virtualized hosts, comparable to the engine's
//! own per-message work, which is why sampled rounds chain one read per
//! phase boundary instead of bracketing each segment). With
//! `sample_every = 1` every round is measured and the profile
//! attributes ≥95% of run wall time to named phases — the mode behind
//! `experiments --profile`.
//!
//! Timing is accumulated in nanoseconds (per-message segments are far
//! below a microsecond) and exposed in microseconds; per-round wall
//! times additionally feed a [`QuantileSketch`] so tail rounds are
//! visible, not just the mean.

use congest_obs::{QuantileSketch, Record, SpanTree, VirtualClock};

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
    sample_every: u64,
    sampling_now: bool,
    rounds_total: u64,
    rounds_sampled: u64,
    totals: [Totals; 5],
    /// Wall nanos of sampled rounds (round start → round end).
    round_nanos: u64,
    /// Per-sampled-round wall micros distribution.
    round_sketch: QuantileSketch,
    /// Wall nanos of whole runs (start → stats returned).
    run_nanos: u64,
    runs: u64,
}

impl Default for PhaseProfile {
    fn default() -> Self {
        PhaseProfile::new(128)
    }
}

impl PhaseProfile {
    /// A profile sampling every `sample_every`-th round (clamped to ≥1).
    pub fn new(sample_every: u64) -> Self {
        PhaseProfile {
            sample_every: sample_every.max(1),
            sampling_now: false,
            rounds_total: 0,
            rounds_sampled: 0,
            totals: [Totals::default(); 5],
            round_nanos: 0,
            round_sketch: QuantileSketch::default(),
            run_nanos: 0,
            runs: 0,
        }
    }

    /// A profile measuring every round (full attribution, higher cost).
    pub fn every_round() -> Self {
        PhaseProfile::new(1)
    }

    /// The configured sampling period.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Called by the engine at the top of each round; decides whether
    /// this round is sampled and returns the decision.
    pub(crate) fn begin_round(&mut self, round: u64) -> bool {
        self.rounds_total += 1;
        self.sampling_now = round.is_multiple_of(self.sample_every);
        if self.sampling_now {
            self.rounds_sampled += 1;
        }
        self.sampling_now
    }

    /// Whether the round currently executing is being sampled.
    pub(crate) fn sampling(&self) -> bool {
        self.sampling_now
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

    /// Records the wall time of one sampled round.
    pub(crate) fn note_round(&mut self, nanos: u64) {
        self.round_nanos += nanos;
        self.round_sketch.observe(nanos / 1_000);
    }

    /// Records the wall time of one whole run.
    pub(crate) fn note_run(&mut self, nanos: u64) {
        self.run_nanos += nanos;
        self.runs += 1;
        self.sampling_now = false;
    }

    /// Rounds executed / rounds actually sampled. Counts the round-0
    /// init burst like the engine's `round_timeline` does, so one run
    /// contributes `SimStats::rounds + 1`.
    pub fn rounds(&self) -> (u64, u64) {
        (self.rounds_total, self.rounds_sampled)
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
    /// before any run completes). With `sample_every = 1` this is the
    /// "≥95% of wall time has a name" acceptance number; with coarser
    /// sampling, un-sampled rounds make it proportionally smaller.
    pub fn run_coverage(&self) -> Option<f64> {
        (self.run_nanos > 0).then(|| {
            self.totals.iter().map(|t| t.nanos).sum::<u64>() as f64 / self.run_nanos as f64
        })
    }

    /// Fraction of *sampled-round* wall time attributed to named phases
    /// (`None` until a round is sampled) — the sampling-independent
    /// attribution quality.
    pub fn round_coverage(&self) -> Option<f64> {
        (self.round_nanos > 0).then(|| {
            self.totals.iter().map(|t| t.nanos).sum::<u64>() as f64 / self.round_nanos as f64
        })
    }

    /// The per-sampled-round wall-time distribution (microseconds).
    pub fn round_sketch(&self) -> &QuantileSketch {
        &self.round_sketch
    }

    /// Builds a [`SpanTree`] of the measured totals: `run` at the root,
    /// the five phases beneath it. The tree's unattributed remainder
    /// (`run` self time) is loop control plus un-sampled rounds.
    pub fn span_tree(&self) -> SpanTree {
        let tree = SpanTree::with_clock(VirtualClock::new(0, 0));
        tree.add_measured(&["run"], self.run_micros(), self.runs.max(1));
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let t = self.totals[i];
            tree.add_measured(&["run", name], t.nanos / 1_000, t.calls);
        }
        tree
    }

    /// Flame-style rendering of [`PhaseProfile::span_tree`], with the
    /// sampling context on a header line.
    pub fn render(&self) -> String {
        let (total, sampled) = self.rounds();
        let mut out = format!(
            "phase profile: {total} rounds, {sampled} sampled (every {}), \
             round coverage {:.1}%\n",
            self.sample_every,
            self.round_coverage().unwrap_or(0.0) * 100.0,
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
        let (total, sampled) = self.rounds();
        out.push(
            Record::new(target, "profile_summary")
                .with("rounds", total)
                .with("rounds_sampled", sampled)
                .with("sample_every", self.sample_every)
                .with("run_micros", self.run_micros())
                .with("attributed_micros", self.attributed_micros())
                .with("run_coverage", self.run_coverage().unwrap_or(0.0))
                .with("round_coverage", self.round_coverage().unwrap_or(0.0)),
        );
        out.push(self.round_sketch.to_record(target, "round_micros"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_guard_skips_unsampled_rounds() {
        let mut p = PhaseProfile::new(4);
        let sampled: Vec<bool> = (0..8).map(|r| p.begin_round(r)).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
        assert_eq!(p.rounds(), (8, 2));
    }

    #[test]
    fn totals_and_coverage_accumulate() {
        let mut p = PhaseProfile::every_round();
        p.begin_round(0);
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
        let cov = p.round_coverage().unwrap();
        assert!((cov - 0.95).abs() < 1e-9, "coverage {cov}");
        assert!(p.run_coverage().unwrap() < cov);
        let text = p.render();
        assert!(text.contains("compute"), "render names phases:\n{text}");
    }

    #[test]
    fn records_cover_all_phases() {
        let mut p = PhaseProfile::every_round();
        p.begin_round(0);
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
