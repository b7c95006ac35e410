//! End-to-end fault injection: deterministic plans, baseline equivalence,
//! typed-error sweeps, and self-certification catching silent wrong
//! answers.
//!
//! The sweep size is bounded for CI via the `FAULT_SWEEP_CASES` env var
//! (default 48 cases; CI sets a value explicitly).

use congest_hardness::faults::{
    run_certified_with_retry, CertifiedError, FaultAction, FaultPlan, RetryPolicy, RoundFilter,
    TargetedFault,
};
use congest_hardness::graph::{generators, Graph, NodeId, Weight};
use congest_hardness::obs::{MemoryRecorder, Record, Recorder, VirtualClock};
use congest_hardness::sim::algorithms::{
    AggregateSum, BfsTree, GenericExactDecision, LeaderElection, LearnGraph, LocalCutSolver,
    SampledMaxCut,
};
use congest_hardness::sim::{
    NoopRoundObserver, Phase, PhaseProfile, ProtocolFailure, RunOutcome, SelfCertify, SimStats,
    Simulator, TraceObserver,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A recorder that serializes records *without* stamping wall-clock
/// timestamps, so two traces of the same execution are byte-identical.
#[derive(Default)]
struct RawRecorder {
    lines: Vec<String>,
}

impl Recorder for RawRecorder {
    fn record(&mut self, rec: Record) {
        self.lines.push(rec.to_json());
    }
}

fn test_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::connected_gnp(n, 0.3, &mut rng)
}

// ---------------------------------------------------------------------
// Empty plan ⇒ byte-identical baseline, for every algorithm in
// `crates/sim/src/algorithms`.
// ---------------------------------------------------------------------

/// Runs `make()` under the classic panicking engine and under
/// `try_run_with(FaultPlan::empty())`, asserting identical `SimStats`
/// (including timeline, per-edge bits, fault counters, and outcome).
fn assert_empty_plan_is_baseline<A: congest_hardness::sim::CongestAlgorithm>(
    sim: &Simulator<'_>,
    mut make: impl FnMut() -> A,
    max_rounds: u64,
    label: &str,
) {
    let mut baseline_alg = make();
    let baseline = sim.run(&mut baseline_alg, max_rounds);
    let mut plan = FaultPlan::empty();
    let mut faulted_alg = make();
    let faulted = sim
        .try_run_with(
            &mut faulted_alg,
            max_rounds,
            &mut NoopRoundObserver,
            &mut plan,
        )
        .expect("baseline algorithms are CONGEST-legal");
    assert_eq!(
        baseline, faulted,
        "{label}: empty plan diverged from baseline"
    );
    assert_eq!(
        faulted.faults.total(),
        0,
        "{label}: empty plan injected faults"
    );
}

#[test]
fn empty_plan_reproduces_baseline_stats_for_every_algorithm() {
    let g = test_graph(12, 5);
    let n = g.num_nodes();
    let m = g.num_edges();

    assert_empty_plan_is_baseline(&Simulator::new(&g), || BfsTree::new(n, 0), 1_000, "bfs");
    assert_empty_plan_is_baseline(
        &Simulator::new(&g),
        || LeaderElection::new(n),
        1_000,
        "leader",
    );
    assert_empty_plan_is_baseline(
        &Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false),
        || AggregateSum::new(n, (0..n).map(|v| v as Weight + 1).collect()),
        100_000,
        "aggregate",
    );
    assert_empty_plan_is_baseline(
        &Simulator::with_bandwidth(&g, 64),
        || LearnGraph::new(n),
        100_000,
        "learn_graph",
    );
    assert_empty_plan_is_baseline(
        &Simulator::with_bandwidth(&g, 64),
        || GenericExactDecision::new(n, m, |h: &Graph| h.num_edges() > 0),
        100_000,
        "exact_decision",
    );
    assert_empty_plan_is_baseline(
        &Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false),
        || SampledMaxCut::new(n, 1.0, LocalCutSolver::Exact, 7),
        1_000_000,
        "maxcut_sampling",
    );
}

// ---------------------------------------------------------------------
// Deterministic replay: same seed ⇒ same stats AND byte-identical trace.
// ---------------------------------------------------------------------

fn traced_run(g: &Graph, plan: &FaultPlan, max_rounds: u64) -> (SimStats, Vec<String>) {
    let sim = Simulator::new(g);
    let mut alg = LeaderElection::new(g.num_nodes());
    let mut obs = TraceObserver::new(RawRecorder::default());
    let mut link = plan.clone();
    let stats = sim
        .try_run_with(&mut alg, max_rounds, &mut obs, &mut link)
        .expect("leader election is CONGEST-legal");
    (stats, obs.into_recorder().lines)
}

#[test]
fn same_seed_gives_byte_identical_traces() {
    let g = test_graph(10, 11);
    let plan = FaultPlan::new(77)
        .with_drop_prob(0.15)
        .with_corrupt_prob(0.1)
        .with_duplicate_prob(0.1)
        .with_delay_prob(0.1, 3);
    let (s1, t1) = traced_run(&g, &plan, 2_000);
    let (s2, t2) = traced_run(&g, &plan, 2_000);
    assert!(
        s1.faults.total() > 0,
        "plan injected nothing — seed too tame"
    );
    assert_eq!(s1, s2);
    assert_eq!(t1, t2, "traces of identical seeds differ");
    // A different seed genuinely perturbs the execution.
    let (s3, t3) = traced_run(&g, &plan.clone().with_seed(78), 2_000);
    assert!(s3 != s1 || t3 != t1, "reseeding changed nothing at all");
}

// ---------------------------------------------------------------------
// Profiling: a profiled faulty run is the same execution, and its
// profile times every round, matured delays included.
// ---------------------------------------------------------------------

#[test]
fn profiled_run_under_delays_and_a_crash_matches_the_plain_run() {
    let g = test_graph(12, 5);
    let cut: Vec<(NodeId, NodeId)> = g
        .edges()
        .map(|(u, v, _)| (u, v))
        .filter(|&(u, v)| (u < 6) != (v < 6))
        .collect();
    let plan = FaultPlan::new(23).with_delay_prob(0.3, 3).with_crash(7, 2);
    let sim = Simulator::new(&g);
    let observer =
        || TraceObserver::new(MemoryRecorder::with_clock(VirtualClock::sequence())).with_cut(&cut);

    let mut alg = LeaderElection::new(12);
    let mut obs = observer();
    let stats = sim
        .try_run_with(&mut alg, 2_000, &mut obs, &mut plan.clone())
        .expect("leader election is CONGEST-legal");

    let mut prof = PhaseProfile::every_round();
    let mut prof_alg = LeaderElection::new(12);
    let mut prof_obs = observer();
    let profiled = sim
        .try_run_profiled(
            &mut prof_alg,
            2_000,
            &mut prof_obs,
            &mut plan.clone(),
            &mut prof,
        )
        .expect("leader election is CONGEST-legal");

    assert!(
        stats.faults.delays > 0,
        "plan delayed nothing — seed too tame"
    );
    assert_eq!(stats.faults.crashes, 1);
    assert_eq!(profiled, stats);
    assert_eq!(
        prof_obs.into_recorder().records(),
        obs.into_recorder().records()
    );
    assert_eq!(prof.rounds(), stats.rounds + 1, "init burst is round 0");
    assert_eq!(prof.phase_calls(Phase::Meter), stats.messages);
    // Each round step times its inbox swap and its clears; rounds with
    // pending delays add one more `deliver` call for the maturation.
    assert!(
        prof.phase_calls(Phase::Deliver) > 2 * stats.rounds,
        "matured delays were not timed"
    );
}

// ---------------------------------------------------------------------
// Randomized sweep: no panics, typed errors only, deterministic replay.
// ---------------------------------------------------------------------

fn sweep_cases() -> u32 {
    std::env::var("FAULT_SWEEP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// One sweep execution: returns (stats, trace) and exercises certify for
/// panic-freedom on faulted outputs.
fn sweep_run(g: &Graph, which: u8, plan: &FaultPlan) -> (SimStats, Vec<String>) {
    let n = g.num_nodes();
    let sim = Simulator::new(g);
    let mut obs = TraceObserver::new(RawRecorder::default());
    let mut link = plan.clone();
    let stats = match which % 3 {
        0 => {
            let mut alg = LeaderElection::new(n);
            let r = sim.try_run_with(&mut alg, 2_000, &mut obs, &mut link);
            let stats = r.expect("leader election sends only legal messages");
            let _ = alg.certify(g); // may fail; must not panic
            stats
        }
        1 => {
            let mut alg = BfsTree::new(n, 0);
            let stats = sim
                .try_run_with(&mut alg, 2_000, &mut obs, &mut link)
                .expect("bfs sends only legal messages");
            let _ = alg.certify(g);
            stats
        }
        _ => {
            let sim = Simulator::with_bandwidth(g, 64);
            let mut alg = LearnGraph::new(n);
            let stats = sim
                .try_run_with(&mut alg, 2_000, &mut obs, &mut link)
                .expect("learn-graph sends only legal messages");
            let _ = alg.certify(g);
            stats
        }
    };
    (stats, obs.into_recorder().lines)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(sweep_cases()))]

    /// Random fault plans over random graphs: every run completes without
    /// panicking (model violations would surface as typed `SimError`s, and
    /// the algorithms under test are legal, so runs succeed), fault
    /// accounting matches the trace, and identical seeds replay to
    /// byte-identical traces.
    #[test]
    fn random_fault_plans_never_panic_and_replay_deterministically(
        n in 4usize..=10,
        gseed in any::<u64>(),
        pseed in any::<u64>(),
        which in any::<u8>(),
    ) {
        let g = test_graph(n, gseed);
        let mut plan = FaultPlan::seeded(pseed);
        if pseed % 4 == 0 {
            plan = plan.with_crash((pseed >> 16) as usize % n, (pseed >> 8) % 12);
        }
        if pseed % 5 == 0 {
            plan = plan.with_throttle(10, 2);
        }
        let (s1, t1) = sweep_run(&g, which, &plan);
        let (s2, t2) = sweep_run(&g, which, &plan);
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(&t1, &t2);
        // The observer saw exactly the faults the stats counted.
        let fault_lines = t1.iter().filter(|l| l.contains("\"event\":\"fault\"")).count();
        prop_assert_eq!(fault_lines as u64, s1.faults.total());
        // Runs end with a structured outcome, never mid-air.
        prop_assert!(matches!(
            s1.outcome,
            RunOutcome::Halted
                | RunOutcome::Quiescent
                | RunOutcome::RoundBudget
                | RunOutcome::BitBudget
                | RunOutcome::NodeAborted(_)
        ));
    }
}

// ---------------------------------------------------------------------
// Self-certification: faults that silently corrupt output are reported
// as typed `ProtocolFailure`s — one test per folklore algorithm.
// ---------------------------------------------------------------------

#[test]
fn leader_election_certifies_against_partitioning_drops() {
    // Dropping everything node 0 says hides the true minimum: the rest of
    // the ring elects node 1. The run itself ends cleanly — without
    // certification this is a silently wrong output.
    let g = generators::cycle(6);
    let sim = Simulator::new(&g);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::Any,
        from: Some(0),
        to: None,
        action: FaultAction::Drop,
    });
    let mut alg = LeaderElection::new(6);
    let stats = sim
        .try_run_with(&mut alg, 1_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert!(stats.faults.drops > 0);
    assert_eq!(alg.leader(1), 1, "node 1 silently elected itself");
    assert_eq!(
        alg.certify(&g),
        Err(ProtocolFailure::WrongLeader {
            node: 1,
            claimed: 1,
            expected: 0
        })
    );
}

#[test]
fn bfs_certifies_against_corrupted_depth() {
    // Flipping bit 0 of the root's initial Depth(0) announcement makes
    // node 1 adopt depth 2 instead of 1 — plausible, wrong, and caught.
    let g = generators::path(4);
    let sim = Simulator::new(&g);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::At(0),
        from: Some(0),
        to: Some(1),
        action: FaultAction::CorruptBit(0),
    });
    let mut alg = BfsTree::new(4, 0);
    let stats = sim
        .try_run_with(&mut alg, 1_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert_eq!(stats.faults.corruptions, 1);
    assert_eq!(alg.depth(1), Some(2), "corruption planted a wrong depth");
    assert_eq!(
        alg.certify(&g),
        Err(ProtocolFailure::DepthMismatch {
            node: 1,
            claimed: 2,
            actual: 1
        })
    );
}

#[test]
fn aggregate_certifies_against_corrupted_partial_sum() {
    // Path 0–1–2, one unit each: corrupting node 2's Partial report turns
    // the network-wide total from 3 into 5 at every node.
    let g = generators::path(3);
    let sim = Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::From(4),
        from: Some(2),
        to: Some(1),
        action: FaultAction::CorruptBit(1),
    });
    let mut alg = AggregateSum::new(3, vec![1, 1, 1]);
    let stats = sim
        .try_run_with(&mut alg, 10_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert_eq!(stats.faults.corruptions, 1);
    assert_eq!(alg.total(0), Some(5), "root accepted the corrupted partial");
    assert_eq!(
        alg.certify(&g),
        Err(ProtocolFailure::WrongTotal {
            node: 0,
            claimed: 5,
            expected: 3
        })
    );
}

#[test]
fn learn_graph_certifies_against_corrupted_edge_weight() {
    // Node 0's announcement of edge (0, 1) reaches node 1 with a flipped
    // weight bit: node 1 "knows" a spurious edge the real graph lacks.
    let g = generators::path(4);
    let sim = Simulator::with_bandwidth(&g, 64);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::At(1),
        from: Some(0),
        to: Some(1),
        action: FaultAction::CorruptBit(0),
    });
    let mut alg = LearnGraph::new(4);
    let stats = sim
        .try_run_with(&mut alg, 10_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert_eq!(stats.faults.corruptions, 1);
    assert_eq!(
        alg.certify(&g),
        Err(ProtocolFailure::GraphMismatch {
            node: 1,
            missing: 0,
            spurious: 1
        })
    );
}

#[test]
fn exact_decision_certifies_via_its_learner() {
    let g = generators::path(4);
    let sim = Simulator::with_bandwidth(&g, 64);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::At(1),
        from: Some(0),
        to: Some(1),
        action: FaultAction::CorruptBit(0),
    });
    let m = g.num_edges();
    let mut alg = GenericExactDecision::new(4, m, |h: &Graph| h.num_edges() > 0);
    sim.try_run_with(&mut alg, 10_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert!(matches!(
        alg.certify(&g),
        Err(ProtocolFailure::GraphMismatch { .. })
    ));
}

#[test]
fn maxcut_certifies_against_corrupted_broadcast() {
    // After the init burst, everything node 0 sends is downward-phase
    // (assignments and the cut value); corrupting that stream leaves the
    // network disagreeing about the estimate.
    let g = generators::path(3);
    let sim = Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false);
    let mut plan = FaultPlan::new(1).with_targeted(TargetedFault {
        round: RoundFilter::From(1),
        from: Some(0),
        to: None,
        action: FaultAction::CorruptBit(0),
    });
    let mut alg = SampledMaxCut::new(3, 1.0, LocalCutSolver::Exact, 7);
    let stats = sim
        .try_run_with(&mut alg, 10_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert!(stats.faults.corruptions > 0);
    assert!(
        matches!(
            alg.certify(&g),
            Err(ProtocolFailure::EstimateDisagreement { .. })
                | Err(ProtocolFailure::CutValueMismatch { .. })
                | Err(ProtocolFailure::MissingOutput { .. })
        ),
        "corrupted broadcast must not certify: {:?}",
        alg.certify(&g)
    );
}

#[test]
fn crash_stop_leaves_downstream_nodes_without_output() {
    // Crashing node 1 of a path before it relays the BFS wave strands
    // nodes 1..3 without depths; certification reports the first one.
    let g = generators::path(4);
    let sim = Simulator::new(&g);
    let mut plan = FaultPlan::new(1).with_crash(1, 0);
    let mut alg = BfsTree::new(4, 0);
    let stats = sim
        .try_run_with(&mut alg, 1_000, &mut NoopRoundObserver, &mut plan)
        .unwrap();
    assert_eq!(stats.faults.crashes, 1);
    assert_eq!(
        alg.certify(&g),
        Err(ProtocolFailure::MissingOutput { node: 1 })
    );
}

// ---------------------------------------------------------------------
// Retry-with-reseed: a certification failure under a probabilistic plan
// recovers on a reseeded attempt.
// ---------------------------------------------------------------------

#[test]
fn retry_with_reseed_recovers_from_probabilistic_drops() {
    let g = generators::cycle(6);
    let sim = Simulator::new(&g);
    // A seed chosen so the first attempt drops a critical flood message
    // (certification fails) and a reseeded attempt succeeds.
    let base = (0..200)
        .find(|&seed| {
            let plan = FaultPlan::new(seed).with_drop_prob(0.35);
            let fails_first = run_certified_with_retry(
                &sim,
                || LeaderElection::new(6),
                1_000,
                &plan,
                RetryPolicy::no_retry(),
            )
            .is_err();
            let recovers = run_certified_with_retry(
                &sim,
                || LeaderElection::new(6),
                1_000,
                &plan,
                RetryPolicy { max_attempts: 5 },
            )
            .is_ok();
            fails_first && recovers
        })
        .expect("some seed in 0..200 fails once then recovers");
    let plan = FaultPlan::new(base).with_drop_prob(0.35);
    let run = run_certified_with_retry(
        &sim,
        || LeaderElection::new(6),
        1_000,
        &plan,
        RetryPolicy { max_attempts: 5 },
    )
    .expect("retry recovers");
    assert!(run.attempts > 1, "first attempt was supposed to fail");
    assert_eq!(run.alg.leader(3), 0);
    // And when no retry is allowed, the same plan surfaces a typed error.
    let err = run_certified_with_retry(
        &sim,
        || LeaderElection::new(6),
        1_000,
        &plan,
        RetryPolicy::no_retry(),
    )
    .expect_err("single attempt fails under this seed");
    assert!(matches!(err, CertifiedError::Exhausted { attempts: 1, .. }));
}
