//! The parallel verification engine must be an *observationally
//! equivalent* drop-in for the serial one: same reports, same
//! lowest-index violation, same panic surface — only faster. These tests
//! pin that contract on real paper families.

use congest_hardness::core::hamiltonian::HamPathFamily;
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::{
    all_inputs, verify_family, verify_family_with, FamilyViolation, LowerBoundFamily, VerifyOptions,
};
use congest_hardness::prelude::{BitString, NodeId};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Delegating wrapper that negates the reference function `f`, so every
/// input pair trips condition 4 (`P ⇔ f`) and the verifier must report
/// the violation at the *lowest* input index regardless of scheduling.
struct NegatedF<F>(F);

impl<F: LowerBoundFamily> LowerBoundFamily for NegatedF<F> {
    type GraphType = F::GraphType;
    fn name(&self) -> String {
        format!("negated {}", self.0.name())
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn alice_vertices(&self) -> Vec<NodeId> {
        self.0.alice_vertices()
    }
    fn build(&self, x: &BitString, y: &BitString) -> Self::GraphType {
        self.0.build(x, y)
    }
    fn predicate(&self, g: &Self::GraphType) -> bool {
        self.0.predicate(g)
    }
    fn f(&self, x: &BitString, y: &BitString) -> bool {
        !self.0.f(x, y)
    }
}

/// Delegating wrapper that hides `base_graph`, forcing the legacy
/// full-build engine. Pitting a family against its `LegacyOnly` twin
/// checks that the incremental delta engine is report-identical to the
/// seed verifier.
struct LegacyOnly<F>(F);

impl<F: LowerBoundFamily> LowerBoundFamily for LegacyOnly<F> {
    type GraphType = F::GraphType;
    fn name(&self) -> String {
        self.0.name()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn alice_vertices(&self) -> Vec<NodeId> {
        self.0.alice_vertices()
    }
    fn build(&self, x: &BitString, y: &BitString) -> Self::GraphType {
        self.0.build(x, y)
    }
    fn predicate(&self, g: &Self::GraphType) -> bool {
        self.0.predicate(g)
    }
    fn f(&self, x: &BitString, y: &BitString) -> bool {
        self.0.f(x, y)
    }
}

/// Delegating wrapper whose predicate panics: a worker thread must not
/// swallow the panic or hang the pool.
struct ExplodingPredicate<F>(F);

impl<F: LowerBoundFamily> LowerBoundFamily for ExplodingPredicate<F> {
    type GraphType = F::GraphType;
    fn name(&self) -> String {
        self.0.name()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn alice_vertices(&self) -> Vec<NodeId> {
        self.0.alice_vertices()
    }
    fn build(&self, x: &BitString, y: &BitString) -> Self::GraphType {
        self.0.build(x, y)
    }
    fn predicate(&self, _: &Self::GraphType) -> bool {
        panic!("solver oracle exploded");
    }
    fn f(&self, x: &BitString, y: &BitString) -> bool {
        self.0.f(x, y)
    }
}

/// Same `FamilyReport` from every worker count on the MDS family's full
/// `all_inputs(4)` sweep.
#[test]
fn mds_parallel_report_equals_serial_report() {
    let fam = MdsFamily::new(2);
    let inputs = all_inputs(4);
    let serial = verify_family(&fam, &inputs).expect("Lemma 2.1");
    for jobs in [2, 3, 4, 8] {
        let (res, stats) = verify_family_with(&fam, &inputs, &VerifyOptions::with_jobs(jobs));
        assert_eq!(res.expect("Lemma 2.1"), serial, "jobs = {jobs}");
        assert_eq!(stats.pairs, inputs.len());
    }
}

/// Same equivalence on the Hamiltonian path family (directed graphs,
/// different predicate oracle).
#[test]
fn hamiltonian_parallel_report_equals_serial_report() {
    let fam = HamPathFamily::new(2);
    let inputs = all_inputs(4);
    let serial = verify_family(&fam, &inputs).expect("Theorem 2.2");
    let (res, _) = verify_family_with(&fam, &inputs, &VerifyOptions::parallel());
    assert_eq!(res.expect("Theorem 2.2"), serial);
}

/// The grouped side-dependence scan compares each input pair against its
/// group reference once per grouping — `2 · (P - 2^K)` comparisons on a
/// full sweep — instead of the old `O(P²)` pairwise scan.
#[test]
fn side_dependence_scan_is_linear_not_quadratic() {
    let fam = MdsFamily::new(2);
    let inputs = all_inputs(4); // P = 256, 16 x-values, 16 y-values
    let (res, stats) = verify_family_with(&fam, &inputs, &VerifyOptions::serial());
    res.expect("Lemma 2.1");
    let p = inputs.len() as u64;
    assert_eq!(stats.dependence_groups, 32); // 16 y-groups + 16 x-groups
    assert_eq!(stats.dependence_comparisons, 2 * (p - 16)); // 480, not P² = 65536
    assert!(stats.dependence_comparisons <= 2 * p);
    // The cut is derived once per y-group reference, not once per build.
    assert_eq!(stats.cut_computations, 16);
}

/// No memo: the oracle runs once per pair, and the memo counters stay 0.
#[test]
fn memoization_accounts_for_every_predicate_call() {
    let fam = MdsFamily::new(2);
    let inputs = all_inputs(4);

    let (res, stats) = verify_family_with(&fam, &inputs, &VerifyOptions::serial());
    res.expect("Lemma 2.1");
    assert_eq!(stats.predicate_calls, inputs.len() as u64);
    assert_eq!(stats.memo_hits, 0);
    assert_eq!(stats.memo_misses, 0);
}

/// The incremental delta engine must produce the byte-identical
/// `FamilyReport` the legacy full-build engine (the seed verifier)
/// produces, on both paper families and at every worker count.
#[test]
fn delta_engine_reports_match_the_legacy_engine() {
    let inputs = all_inputs(4);

    let mds = MdsFamily::new(2);
    let legacy = verify_family(&LegacyOnly(MdsFamily::new(2)), &inputs).expect("Lemma 2.1");
    for jobs in [1, 2, 4] {
        let (res, stats) = verify_family_with(&mds, &inputs, &VerifyOptions::with_jobs(jobs));
        assert_eq!(res.expect("Lemma 2.1"), legacy, "jobs = {jobs}");
        assert_eq!(
            stats.delta_builds,
            inputs.len() as u64,
            "delta path engaged"
        );
    }

    let ham = HamPathFamily::new(2);
    let legacy = verify_family(&LegacyOnly(HamPathFamily::new(2)), &inputs).expect("Theorem 2.2");
    for jobs in [1, 4] {
        let (res, stats) = verify_family_with(&ham, &inputs, &VerifyOptions::with_jobs(jobs));
        assert_eq!(res.expect("Theorem 2.2"), legacy, "jobs = {jobs}");
        assert_eq!(
            stats.delta_builds,
            inputs.len() as u64,
            "delta path engaged"
        );
    }
}

/// The exact-solver kernels report their search effort through
/// `VerifyStats::solver`; a full sweep must do real search work and one
/// full build and one predicate call per pair.
#[test]
fn delta_engine_meters_solver_work_and_skips_hit_builds() {
    let fam = HamPathFamily::new(2);
    let inputs = all_inputs(4);
    let (res, stats) = verify_family_with(&fam, &inputs, &VerifyOptions::serial());
    res.expect("Theorem 2.2");
    assert!(stats.solver.nodes > 0, "the kernel explored search nodes");
    assert_eq!(stats.full_builds, inputs.len() as u64, "one build per pair");
    assert_eq!(stats.predicate_calls, inputs.len() as u64);
    let recs = stats.to_records("core.verify");
    assert_eq!(recs[0].u64_field("solver_nodes"), Some(stats.solver.nodes));
}

/// A condition-4 violation on every pair must still be reported at input
/// index 0 (`x = y = 0000`) for every worker count.
#[test]
fn lowest_index_violation_is_stable_across_worker_counts() {
    let fam = NegatedF(MdsFamily::new(2));
    let inputs = all_inputs(4);
    let mut violations = Vec::new();
    for jobs in [1, 2, 4, 8] {
        let (res, _) = verify_family_with(&fam, &inputs, &VerifyOptions::with_jobs(jobs));
        violations.push(res.expect_err("f is negated; every pair mismatches"));
    }
    let zero = BitString::zeros(4);
    let index0 = format!("(x={zero}, y={zero})");
    for v in &violations {
        assert_eq!(v, &violations[0], "violation must not depend on jobs");
        assert!(
            matches!(v, FamilyViolation::PredicateMismatch { inputs, .. } if inputs == &index0),
            "expected the index-0 pair {index0}, got {v}"
        );
    }
}

/// A predicate that panics inside a worker thread surfaces as a clean
/// panic with the original message — not a deadlock, not a swallowed
/// error.
#[test]
fn panicking_predicate_in_worker_surfaces_cleanly() {
    let fam = ExplodingPredicate(MdsFamily::new(2));
    let inputs = all_inputs(4);
    let err = catch_unwind(AssertUnwindSafe(|| {
        verify_family_with(&fam, &inputs, &VerifyOptions::with_jobs(4))
    }))
    .expect_err("the predicate panic must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .expect("panic payload should be a string");
    assert!(msg.contains("solver oracle exploded"), "got: {msg}");
}
