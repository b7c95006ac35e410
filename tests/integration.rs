//! Cross-crate integration tests: the full paper pipeline, end to end.

use congest_hardness::comm::Channel;
use congest_hardness::core::hamiltonian::HamPathFamily;
use congest_hardness::core::maxcut::MaxCutFamily;
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::mvc_ckp::MvcMaxIsFamily;
use congest_hardness::core::simulate::generic_exact_attack;
use congest_hardness::core::steiner::SteinerFamily;
use congest_hardness::core::{all_inputs, sample_inputs, verify_family, LowerBoundFamily};
use congest_hardness::graph::generators;
use congest_hardness::limits::protocols::{maxis_half_approx, mds_2_approx};
use congest_hardness::limits::SplitGraph;
use congest_hardness::prelude::BitString;
use congest_hardness::sim::algorithms::{LeaderElection, LocalCutSolver, SampledMaxCut};
use congest_hardness::sim::Simulator;
use congest_hardness::solvers::{maxcut, mds, mis, steiner};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every quadratic-bound family verifies Definition 1.1 on a shared
/// sampled input set (the exhaustive k = 2 sweeps live in unit tests).
#[test]
fn all_quadratic_families_verify_on_sampled_inputs() {
    let mut rng = StdRng::seed_from_u64(4242);
    let inputs = sample_inputs(16, 3, &mut rng);
    let r1 = verify_family(&MdsFamily::new(4), &inputs).expect("MDS family");
    let r2 = verify_family(&MvcMaxIsFamily::new(4), &inputs).expect("MVC family");
    let r3 = verify_family(&MaxCutFamily::new(4), &inputs).expect("max-cut family");
    for r in [&r1, &r2, &r3] {
        assert!(r.cut_size() <= 16, "{}: cut {}", r.name, r.cut_size());
    }
    assert!(r1.n >= 32 && r2.n >= 32 && r3.n == 37);
}

/// The Steiner family's target interlocks with the MDS family's: a
/// Steiner tree of the target size exists exactly when the source MDS
/// instance has its target dominating set.
#[test]
fn steiner_and_mds_targets_interlock() {
    let st = SteinerFamily::new(2);
    let mds_fam = st.mds_family();
    for (x, y) in all_inputs(4).into_iter().step_by(17) {
        let g_mds = mds_fam.build(&x, &y);
        let g_st = st.build(&x, &y);
        let has_ds = mds::has_dominating_set_of_size(&g_mds, mds_fam.target_size());
        let has_st = steiner::has_steiner_tree_of_size(&g_st, &st.terminals(), st.target_size());
        assert_eq!(has_ds, has_st);
    }
}

/// Theorem 1.1 accounting: a correct exact algorithm's cut traffic
/// dominates CC(DISJ_K) on every family.
#[test]
fn cut_traffic_dominates_communication_complexity() {
    let mut x = BitString::zeros(16);
    let mut y = BitString::zeros(16);
    x.set_pair(4, 0, 3, true);
    y.set_pair(4, 0, 3, true);
    let m1 = generic_exact_attack(&MdsFamily::new(4), &x, &y);
    let m2 = generic_exact_attack(&MvcMaxIsFamily::new(4), &x, &y);
    for m in [&m1, &m2] {
        assert!(m.respects_lower_bound(), "{m:?}");
        assert!(m.rounds > 0 && m.cut_bits > 0);
    }
}

/// The directed Hamiltonian family, its witness path and the solver
/// agree across several index pairs at k = 4 (126 vertices).
#[test]
fn hamiltonian_witnesses_at_scale_k4() {
    use congest_hardness::solvers::hamilton::is_directed_ham_path;
    let fam = HamPathFamily::new(4);
    for (i, j) in [(0usize, 0usize), (3, 2), (1, 3)] {
        let mut x = BitString::zeros(16);
        let mut y = BitString::zeros(16);
        x.set_pair(4, i, j, true);
        y.set_pair(4, i, j, true);
        let g = fam.build(&x, &y);
        let w = fam.witness_path(i, j);
        assert!(is_directed_ham_path(&g, &w), "(i,j)=({i},{j})");
    }
}

/// The Theorem 2.9 CONGEST algorithm achieves its ratio on a graph it
/// has never seen, inside the real simulator with bandwidth enforcement.
#[test]
fn congest_maxcut_sampling_end_to_end() {
    let mut rng = StdRng::seed_from_u64(11);
    let g = generators::connected_gnp(18, 0.35, &mut rng);
    let opt = maxcut::max_cut(&g).weight;
    let sim = Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false);
    let mut alg = SampledMaxCut::new(18, 1.0, LocalCutSolver::Exact, 5);
    let stats = sim.run(&mut alg, 1_000_000);
    let side: Vec<bool> = (0..18).map(|v| alg.side(v).expect("assigned")).collect();
    assert_eq!(g.cut_weight(&side), opt);
    // Õ(n) rounds.
    assert!(stats.rounds <= 8 * 18 + g.num_edges() as u64);
}

/// Leader election composes with the family graphs (they are legitimate
/// communication networks once inputs connect them).
#[test]
fn leader_election_on_family_graph() {
    let fam = MdsFamily::new(4);
    let g = fam.build(&BitString::ones(16), &BitString::ones(16));
    let sim = Simulator::new(&g);
    let mut alg = LeaderElection::new(g.num_nodes());
    sim.run(&mut alg, 10_000);
    for v in 0..g.num_nodes() {
        assert_eq!(alg.leader(v), 0);
    }
}

/// Section 5 protocols run on Section 2 family graphs: the 2-approx MDS
/// protocol on the Figure 1 family achieves ratio ≤ 2 with cut-scale
/// bits — exactly why the framework can't push past approximation 2.
#[test]
fn limitation_protocol_on_family_graph() {
    let fam = MdsFamily::new(2);
    let mut x = BitString::zeros(4);
    x.set_pair(2, 0, 0, true);
    let g = fam.build(&x, &x.clone());
    let split = SplitGraph::new(g.clone(), &fam.alice_vertices());
    let mut ch = Channel::new();
    let out = mds_2_approx(&split, &mut ch);
    assert!(g.is_dominating_set(&out.vertices));
    let opt = mds::min_weight_dominating_set(&g).weight;
    assert!(out.value <= 2 * opt);

    let mut ch = Channel::new();
    let is = maxis_half_approx(&split, &mut ch);
    assert!(g.is_independent_set(&is.vertices));
    assert!(2 * is.value >= mis::max_weight_independent_set(&g).weight);
}

/// The workspace-level prelude exposes the advertised API.
#[test]
fn prelude_surface() {
    use congest_hardness::prelude::*;
    let g = Graph::new(3);
    assert_eq!(g.num_nodes(), 3);
    let x = BitString::zeros(4);
    assert_eq!(x.len(), 4);
    let f = Disjointness::new(4);
    assert!(f.eval(&x, &x.clone()));
}

/// `experiments --jobs 1` must reproduce the committed report byte for
/// byte: the serial engine is the reference semantics, and the report
/// (unlike timings, which go to stderr) is fully deterministic.
#[test]
fn experiments_jobs_1_is_byte_identical_to_committed_report() {
    let exe = env!("CARGO_BIN_EXE_experiments");
    let output = std::process::Command::new(exe)
        .args(["--jobs", "1"])
        .output()
        .expect("run experiments binary");
    assert!(
        output.status.success(),
        "experiments exited with {:?}:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/experiments_output.txt"
    ))
    .expect("read committed experiments_output.txt");
    assert!(
        output.stdout == committed,
        "experiments --jobs 1 stdout differs from experiments_output.txt \
         ({} vs {} bytes); regenerate the committed report if the change \
         is intentional",
        output.stdout.len(),
        committed.len()
    );
}
