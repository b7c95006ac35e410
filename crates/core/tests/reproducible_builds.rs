//! Building the same `(x, y)` twice must give the same graph, adjacency
//! order included. The families below copy a base graph edge by edge, so
//! their neighbor order follows the order `edges()` yields.

use congest_core::hamiltonian::{HamCycleFamily, TwoEcssFamily, UndirectedHamCycleFamily};
use congest_core::steiner::SteinerFamily;
use congest_core::{all_inputs, LowerBoundFamily};

fn assert_reproducible<F>(fam: &F)
where
    F: LowerBoundFamily,
    F::GraphType: PartialEq,
{
    for (x, y) in all_inputs(fam.input_len()) {
        // `PartialEq` compares insertion-order adjacency, not just the
        // edge set.
        assert!(
            fam.build(&x, &y) == fam.build(&x, &y),
            "{}: two builds of x = {x}, y = {y} differ",
            fam.name()
        );
    }
}

#[test]
fn directed_ham_cycle_builds_are_reproducible() {
    assert_reproducible(&HamCycleFamily::new(2));
}

#[test]
fn undirected_ham_cycle_builds_are_reproducible() {
    assert_reproducible(&UndirectedHamCycleFamily::new(2));
}

#[test]
fn two_ecss_builds_are_reproducible() {
    assert_reproducible(&TwoEcssFamily::new(2));
}

#[test]
fn steiner_builds_are_reproducible() {
    assert_reproducible(&SteinerFamily::new(2));
}
