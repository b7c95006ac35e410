//! `sweep_mds`: `verify_family_with` on every pair of a `4^5` input
//! subcube of the gadget-4 MDS family, each pair once, so the predicate
//! memo sees the hits a real sweep gets: none.
//!
//! A pass is correct when the verifier reports no violation and its
//! `FamilyReport` equals the reference: the name, `n`, `K`, the fixed
//! cut, the pair count and the implied round bound.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use congest_comm::BitString;
use congest_core::mds::MdsFamily;
use congest_core::{
    verify_family_with, FamilyReport, FamilyViolation, LowerBoundFamily, VerifyOptions, VerifyStats,
};
use congest_graph::{NodeId, Weight};
use congest_solvers::SearchStats;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::usage::{cpu_during, Who};

/// Every `(x, y)` pair of `width`-bit strings that are zero outside
/// `live`: `4^|live|` distinct pairs. Zero padding cannot create an
/// intersection, so the family's predicate still has to match
/// set-disjointness on every pair.
pub fn subcube(width: usize, live: &[usize]) -> Vec<(BitString, BitString)> {
    let k = live.len();
    let strings: Vec<BitString> = (0u64..1 << k)
        .map(|m| {
            let mut s = BitString::zeros(width);
            for (bit, &p) in live.iter().enumerate() {
                s.set(p, (m >> bit) & 1 == 1);
            }
            s
        })
        .collect();
    let mut out = Vec::with_capacity(strings.len() * strings.len());
    for x in &strings {
        for y in &strings {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Build,
    Delta,
    Predicate,
}

/// Forwards every `LowerBoundFamily` method to the wrapped family and
/// records the interval of each `build`/`base_graph`, `delta_edges` and
/// `predicate*` call, from whichever worker makes it.
pub struct TimedFamily<'f, F> {
    inner: &'f F,
    epoch: Instant,
    spans: Mutex<Vec<(Call, u64, u64)>>,
}

/// Where a traced `verify_family_with` call spent its time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FamilyTimes {
    /// Summed over workers.
    pub build: Duration,
    /// Summed over workers.
    pub delta: Duration,
    /// Summed over workers.
    pub predicate: Duration,
    /// The part of the call's interval that no family call covers.
    pub verify_self: Duration,
}

impl<'f, F> TimedFamily<'f, F> {
    /// Wraps `inner` with an empty span log.
    pub fn new(inner: &'f F) -> Self {
        TimedFamily {
            inner,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn span<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let span = (call, self.nanos(t0), self.nanos(t1));
        self.spans.lock().expect("span log lock").push(span);
        out
    }

    /// Per-call totals, plus the uncovered part of `[start, end]`.
    fn times(&self, start: Instant, end: Instant) -> FamilyTimes {
        let mut spans = self.spans.lock().expect("span log lock").clone();
        let mut t = FamilyTimes::default();
        for &(call, s, e) in &spans {
            let d = Duration::from_nanos(e - s);
            match call {
                Call::Build => t.build += d,
                Call::Delta => t.delta += d,
                Call::Predicate => t.predicate += d,
            }
        }
        spans.sort_unstable_by_key(|&(_, s, _)| s);
        let (lo, hi) = (self.nanos(start), self.nanos(end));
        let (mut covered, mut reach) = (0u64, lo);
        for &(_, s, e) in &spans {
            let (s, e) = (s.max(reach), e.min(hi));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        t.verify_self = Duration::from_nanos((hi - lo).saturating_sub(covered));
        t
    }
}

impl<F: LowerBoundFamily> LowerBoundFamily for TimedFamily<'_, F> {
    type GraphType = F::GraphType;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn alice_vertices(&self) -> Vec<NodeId> {
        self.inner.alice_vertices()
    }

    fn build(&self, x: &BitString, y: &BitString) -> F::GraphType {
        self.span(Call::Build, || self.inner.build(x, y))
    }

    fn predicate(&self, g: &F::GraphType) -> bool {
        self.span(Call::Predicate, || self.inner.predicate(g))
    }

    fn predicate_with_stats(&self, g: &F::GraphType) -> (bool, Option<SearchStats>) {
        self.span(Call::Predicate, || self.inner.predicate_with_stats(g))
    }

    fn base_graph(&self) -> Option<F::GraphType> {
        self.span(Call::Build, || self.inner.base_graph())
    }

    fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
        self.span(Call::Delta, || self.inner.delta_edges(x, y))
    }

    fn f(&self, x: &BitString, y: &BitString) -> bool {
        self.inner.f(x, y)
    }
}

/// The deterministic counters of a `VerifyStats`: everything except
/// timings and the pool's scheduling-dependent split.
pub fn counters(s: &VerifyStats) -> [(&'static str, u64); 10] {
    [
        ("core.verify.full_builds", s.full_builds),
        ("core.verify.delta_builds", s.delta_builds),
        ("core.verify.memo_hits", s.memo_hits),
        ("core.verify.memo_misses", s.memo_misses),
        ("core.verify.predicate_calls", s.predicate_calls),
        (
            "core.verify.dependence_comparisons",
            s.dependence_comparisons,
        ),
        ("solvers.mds.nodes", s.solver.nodes),
        ("solvers.mds.prunes", s.solver.prunes),
        ("solvers.mds.backtracks", s.solver.backtracks),
        ("solvers.mds.bound_cutoffs", s.solver.bound_cutoffs),
    ]
}

/// The report a correct sweep of the gadget-4 MDS family (Theorem 2.1,
/// n = 40) over `pairs` pairs returns.
pub fn reference(pairs: usize) -> FamilyReport {
    FamilyReport {
        name: "MDS (Theorem 2.1), k = 4".to_string(),
        n: 40,
        k_input: 16,
        cut_edges: vec![
            (16, 32),
            (17, 33),
            (20, 28),
            (21, 29),
            (22, 38),
            (23, 39),
            (26, 34),
            (27, 35),
        ],
        pairs_checked: pairs,
        implied_round_bound: 0,
    }
}

/// A sweep workload: the family, its seeded inputs and its worker count.
pub struct Sweep {
    family: MdsFamily,
    inputs: Vec<(BitString, BitString)>,
    jobs: usize,
}

/// One timed `verify_family_with` call.
pub struct SweepPass {
    /// The call.
    pub wall: Duration,
    /// Process CPU time over the call.
    pub cpu: Duration,
    /// The verifier's counters.
    pub stats: VerifyStats,
    /// Per-call times, when traced.
    pub times: Option<FamilyTimes>,
    /// Why the pass is wrong, if it is.
    pub failure: Option<String>,
}

impl Sweep {
    /// `sweep_mds`: the first 5 input positions live, 2 workers, pairs in
    /// the seed's order. Which positions are live moves the MDS search
    /// effort by about ±10% (13.4–19.1 M nodes over 22 seeds), more than
    /// the run-to-run noise this workload must resolve, so the seed only
    /// orders the pairs: the same graphs, scheduled differently.
    pub fn mds(seed: u64) -> Self {
        let family = MdsFamily::new(4);
        let mut inputs = subcube(family.input_len(), &[0, 1, 2, 3, 4]);
        inputs.shuffle(&mut StdRng::seed_from_u64(seed));
        Sweep {
            family,
            inputs,
            jobs: 2,
        }
    }

    /// The program's set-up for this sweep, timed: the family from its
    /// constructor plus one `base_graph()`, the input-independent build
    /// the delta engine makes once per `verify_family_with` call. The
    /// inputs are the benchmark's and are not rebuilt.
    pub fn setup(&self) -> Duration {
        let t0 = Instant::now();
        let base = MdsFamily::new(4).base_graph();
        let took = t0.elapsed();
        assert!(std::hint::black_box(base).is_some(), "delta-capable family");
        took
    }

    /// Number of input pairs.
    pub fn pairs(&self) -> usize {
        self.inputs.len()
    }

    /// Runs the sweep once, through the timing adapter when `traced`.
    pub fn pass(&self, traced: bool) -> SweepPass {
        let opts = VerifyOptions::with_jobs(self.jobs);
        let timed = TimedFamily::new(&self.family);
        let t0 = Instant::now();
        let ((res, stats), cpu) = cpu_during(Who::Process, || {
            if traced {
                verify_family_with(&timed, &self.inputs, &opts)
            } else {
                verify_family_with(&self.family, &self.inputs, &opts)
            }
        });
        let t1 = Instant::now();
        SweepPass {
            wall: t1 - t0,
            cpu,
            failure: self.check(res),
            stats,
            times: traced.then(|| timed.times(t0, t1)),
        }
    }

    /// Why a verifier result is wrong, or `None` when it equals the
    /// reference report.
    pub fn check(&self, res: Result<FamilyReport, FamilyViolation>) -> Option<String> {
        let want = reference(self.pairs());
        match res {
            Err(v) => Some(format!("violation: {v}")),
            Ok(got) if got != want => Some(format!("report {got:?} != reference {want:?}")),
            Ok(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-live-position (64-pair) cut of the sweep, for fast tests.
    fn small(jobs: usize) -> Sweep {
        Sweep {
            family: MdsFamily::new(4),
            inputs: subcube(16, &[2, 7, 11]),
            jobs,
        }
    }

    #[test]
    fn inputs_are_seeded_distinct_and_complete() {
        let (a, b) = (Sweep::mds(1), Sweep::mds(2));
        let mut pairs: Vec<String> = a.inputs.iter().map(|(x, y)| format!("{x}{y}")).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 1024);
        assert_eq!(a.inputs, Sweep::mds(1).inputs);
        assert_ne!(a.inputs, b.inputs, "the seed orders the pairs");
    }

    #[test]
    fn setup_times_the_family_and_its_base_graph() {
        assert!(Sweep::mds(1).setup() > Duration::ZERO);
    }

    #[test]
    fn adapter_leaves_verify_stats_unchanged() {
        for jobs in [1, 2] {
            let s = small(jobs);
            let plain = s.pass(false);
            let traced = s.pass(true);
            assert_eq!(plain.failure, None);
            assert_eq!(traced.failure, None);
            assert_eq!(counters(&plain.stats), counters(&traced.stats));
            assert_eq!(plain.stats.delta_builds, 64, "the delta path ran");
            assert_eq!(plain.stats.memo_hits, 0, "no pair repeats");
            let t = traced.times.expect("traced");
            assert!(t.build > Duration::ZERO && t.delta > Duration::ZERO);
            assert!(t.predicate > Duration::ZERO);
        }
    }

    #[test]
    fn a_dropped_cut_edge_or_a_violation_is_rejected() {
        let s = small(1);
        let mut report = reference(s.pairs());
        assert_eq!(s.check(Ok(report.clone())), None);
        report.cut_edges.pop();
        assert!(s
            .check(Ok(report))
            .expect("must fail")
            .starts_with("report"));
        let v = FamilyViolation::CutChanged("(x=0, y=1)".into());
        assert!(s.check(Err(v)).expect("must fail").starts_with("violation"));
        let wrong_pairs = reference(s.pairs() - 1);
        assert!(s.check(Ok(wrong_pairs)).is_some());
    }
}
