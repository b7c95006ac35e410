//! A verifier must reject a malformed labeling, never panic on it.
//!
//! For every proof labeling scheme of `pls` and `pls_ext`, each vertex's
//! honest label is cut to every shorter length in turn. Every vertex's
//! `verify_at` runs on each such labeling (so a panic anywhere fails the
//! test), and at least one vertex must reject it. Label fields are
//! unchecked `i64`s, so the same holds for fields set to the extremes of
//! that range: arithmetic on them must not overflow.

use congest_graph::{generators, NodeId};
use congest_limits::pls::*;
use congest_limits::pls_ext::*;

/// `cycle(8)`, with the marked edge subset `h`.
fn on_cycle(h: &[(NodeId, NodeId)]) -> MarkedGraph {
    MarkedGraph::new(generators::cycle(8), h)
}

fn cycle_edges() -> Vec<(NodeId, NodeId)> {
    generators::cycle(8)
        .edges()
        .map(|(u, v, _)| (u, v))
        .collect()
}

/// The cycle minus its edge `(0, 7)`: a Hamiltonian path.
fn path_edges() -> Vec<(NodeId, NodeId)> {
    cycle_edges().into_iter().filter(|&e| e != (0, 7)).collect()
}

/// Every scheme with an instance on which its predicate holds.
fn schemes() -> Vec<(Box<dyn ProofLabelingScheme>, MarkedGraph)> {
    let all = cycle_edges();
    let path = path_edges();
    let split = [(0, 1), (1, 2)];
    vec![
        (Box::new(SpanningTreeScheme), on_cycle(&path)),
        (Box::new(ConnectivityScheme), on_cycle(&all)),
        (Box::new(NonConnectivityScheme), on_cycle(&split)),
        (Box::new(AcyclicityScheme), on_cycle(&path)),
        (Box::new(CycleScheme), on_cycle(&all)),
        (Box::new(BipartitenessScheme), on_cycle(&all)),
        (Box::new(StConnectivityScheme), on_cycle(&all).with_st(0, 4)),
        (
            Box::new(NonStConnectivityScheme),
            on_cycle(&split).with_st(0, 4),
        ),
        (Box::new(HamCycleVerificationScheme), on_cycle(&all)),
        (
            Box::new(StDistanceScheme {
                k: 4,
                at_least: true,
            }),
            on_cycle(&all).with_st(0, 4),
        ),
        (
            Box::new(StDistanceScheme {
                k: 5,
                at_least: false,
            }),
            on_cycle(&all).with_st(0, 4),
        ),
        (Box::new(MatchingScheme { k: 4 }), on_cycle(&all)),
        (Box::new(ConnectedSpanningSubgraphScheme), on_cycle(&all)),
        (Box::new(ECycleScheme), on_cycle(&all).with_edge(0, 1)),
        (Box::new(CutScheme), on_cycle(&[(0, 1), (4, 5)])),
        (Box::new(NonCutScheme), on_cycle(&[(0, 1)])),
        (
            Box::new(EdgeOnAllPathsScheme),
            on_cycle(&path).with_st(0, 4).with_edge(2, 3),
        ),
        (
            Box::new(StCutScheme),
            on_cycle(&[(1, 2), (5, 6)]).with_st(0, 4),
        ),
        (Box::new(SimplePathScheme), on_cycle(&path)),
    ]
}

#[test]
fn truncated_labels_are_rejected_without_panicking() {
    let schemes = schemes();
    assert_eq!(schemes.len(), 19);
    for (scheme, inst) in &schemes {
        let name = scheme.name();
        let honest = scheme
            .prove(inst)
            .unwrap_or_else(|| panic!("{name}: the instance satisfies the predicate"));
        assert!(
            accepts_everywhere(scheme.as_ref(), inst, &honest),
            "{name}: completeness"
        );
        let n = inst.graph.num_nodes();
        for v in 0..n {
            for len in 0..honest[v].0.len() {
                let mut labels = honest.clone();
                labels[v].0.truncate(len);
                let verdicts: Vec<bool> =
                    (0..n).map(|u| scheme.verify_at(inst, u, &labels)).collect();
                assert!(
                    verdicts.contains(&false),
                    "{name}: vertex {v}'s label cut to {len} fields is accepted everywhere"
                );
            }
        }
    }
}

/// Every vertex's verdict on `labels`.
fn verdicts(scheme: &dyn ProofLabelingScheme, inst: &MarkedGraph, labels: &[Label]) -> Vec<bool> {
    (0..inst.graph.num_nodes())
        .map(|u| scheme.verify_at(inst, u, labels))
        .collect()
}

#[test]
fn extreme_label_values_never_panic() {
    const EXTREMES: [i64; 5] = [i64::MIN, i64::MIN + 1, -1, i64::MAX - 1, i64::MAX];
    for (scheme, inst) in &schemes() {
        let honest = scheme
            .prove(inst)
            .expect("the instance satisfies the predicate");
        for v in 0..inst.graph.num_nodes() {
            for field in 0..honest[v].0.len() {
                for x in EXTREMES {
                    let mut labels = honest.clone();
                    labels[v].0[field] = x;
                    // Only the absence of a panic is checked: some fields
                    // (an unmatched vertex's partner, say) accept -1.
                    verdicts(scheme.as_ref(), inst, &labels);
                }
            }
        }
    }

    // Labelings whose arithmetic would overflow at an accepting step.
    let max = i64::MAX;
    let ecycle = on_cycle(&cycle_edges()).with_edge(0, 1);
    let ecycle_labels = vec![Label(vec![max - 1, max, 0]); 8];

    let simple_path = on_cycle(&path_edges());
    let mut path_labels = SimplePathScheme
        .prove(&simple_path)
        .expect("the cycle minus an edge is a simple path");
    for l in &mut path_labels {
        l.0[1] = 0;
    }
    path_labels[2].0[0] = max - 1;
    path_labels[3].0[0] = max;

    let matching = MarkedGraph::new(generators::path(3), &[]);
    let matching_labels = vec![
        Label(vec![-1, 2, max - 1, 1, 0]),
        Label(vec![-1, 2, max, 0, 0]),
        Label(vec![-1, 2, 0, 2, 0]),
    ];

    let crafted: [(&dyn ProofLabelingScheme, &MarkedGraph, &[Label]); 3] = [
        (&ECycleScheme, &ecycle, &ecycle_labels),
        (&SimplePathScheme, &simple_path, &path_labels),
        (&MatchingScheme { k: 1 }, &matching, &matching_labels),
    ];
    for (scheme, inst, labels) in crafted {
        assert!(
            verdicts(scheme, inst, labels).contains(&false),
            "{}: an overflowing labeling is accepted everywhere",
            scheme.name()
        );
    }
}
