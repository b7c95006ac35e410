//! Heavier verification sweeps, opt-in via `cargo test -- --ignored`
//! (each takes seconds to minutes; the default suite covers the same
//! constructions at smaller scale).

use congest_hardness::core::hamiltonian::{HamCycleFamily, HamPathFamily};
use congest_hardness::core::maxcut::MaxCutFamily;
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::mvc_ckp::MvcMaxIsFamily;
use congest_hardness::core::{
    sample_inputs, verify_family, verify_family_with, LowerBoundFamily, VerifyOptions,
};
use congest_hardness::prelude::BitString;
use congest_hardness::solvers::hamilton::has_directed_ham_path;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MDS family at k = 8 (n = 68), sampled inputs.
#[test]
#[ignore = "several seconds; run with --ignored"]
fn mds_family_k8_sampled() {
    let fam = MdsFamily::new(8);
    let mut rng = StdRng::seed_from_u64(88);
    let inputs = sample_inputs(64, 2, &mut rng);
    let (result, _stats) = verify_family_with(&fam, &inputs, &VerifyOptions::parallel());
    let report = result.expect("Lemma 2.1, k = 8");
    assert_eq!(report.n, 68);
    assert_eq!(report.cut_size(), 12);
}

/// MDS family at k = 16 (n = 112, two-word vertex sets), sampled inputs.
#[test]
#[ignore = "tens of seconds; run with --ignored"]
fn mds_family_k16_sampled() {
    let fam = MdsFamily::new(16);
    let mut rng = StdRng::seed_from_u64(816);
    let inputs = sample_inputs(256, 2, &mut rng);
    let (result, _stats) = verify_family_with(&fam, &inputs, &VerifyOptions::parallel());
    let report = result.expect("Lemma 2.1, k = 16");
    assert_eq!(report.n, 112);
    assert_eq!(report.cut_size(), 16);
}

/// MVC/MaxIS substrate at k = 8 (n = 56), sampled inputs.
#[test]
#[ignore = "several seconds; run with --ignored"]
fn mvc_family_k8_sampled() {
    let fam = MvcMaxIsFamily::new(8);
    let mut rng = StdRng::seed_from_u64(89);
    let inputs = sample_inputs(64, 2, &mut rng);
    let (result, _stats) = verify_family_with(&fam, &inputs, &VerifyOptions::parallel());
    let report = result.expect("[10] family, k = 8");
    assert_eq!(report.cut_size(), 12);
}

/// Directed Hamiltonian path NO-instances at k = 4 (n = 126), on
/// *sparse* disjoint inputs (a few bits per player). Dense disjoint
/// inputs add many `a₁→a₂`/`b₁→b₂` edges and push the pruned search past
/// practical limits — the k = 2 exhaustive sweep in the unit tests is the
/// fully verified regime; this opt-in test covers the sparse k = 4 slice.
#[test]
#[ignore = "tens of seconds; run with --ignored"]
fn hamiltonian_k4_sparse_no_instances() {
    let fam = HamPathFamily::new(4);
    type SparseBits = &'static [(usize, usize)];
    let cases: [(SparseBits, SparseBits); 3] = [
        (&[(0, 1)], &[(1, 0)]),
        (&[(2, 3), (1, 1)], &[(3, 2)]),
        (&[(0, 0)], &[(0, 1), (1, 0)]),
    ];
    for (trial, (xs, ys)) in cases.iter().enumerate() {
        let mut x = BitString::zeros(16);
        let mut y = BitString::zeros(16);
        for &(i, j) in *xs {
            x.set_pair(4, i, j, true);
        }
        for &(i, j) in *ys {
            y.set_pair(4, i, j, true);
        }
        let g = fam.build(&x, &y);
        assert!(!has_directed_ham_path(&g), "trial {trial}");
    }
}

/// Hamiltonian cycle family at k = 2, extra random sweep beyond the
/// exhaustive unit test (sanity for the `middle`-vertex variant).
#[test]
#[ignore = "seconds; run with --ignored"]
fn ham_cycle_family_k2_random_resweep() {
    let fam = HamCycleFamily::new(2);
    let mut rng = StdRng::seed_from_u64(91);
    let inputs = sample_inputs(4, 10, &mut rng);
    verify_family(&fam, &inputs).expect("Claim 2.6");
}

/// Weighted max-cut family at k = 2 with *many* random inputs (the
/// default suite uses a curated set).
#[test]
#[ignore = "tens of seconds; run with --ignored"]
fn maxcut_family_k2_random_sweep() {
    let fam = MaxCutFamily::new(2);
    let mut rng = StdRng::seed_from_u64(92);
    let inputs = sample_inputs(4, 20, &mut rng);
    let report = verify_family(&fam, &inputs).expect("Lemma 2.4");
    assert_eq!(report.n, 21);
}
