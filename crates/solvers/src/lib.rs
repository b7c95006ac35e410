//! Exact and approximate solvers for the optimization problems whose
//! CONGEST hardness the paper establishes.
//!
//! These solvers are the *oracles* that make every lower-bound family in
//! `congest-core` machine-checkable: for each family `G_{x,y}` we decide
//! the paper's predicate (e.g. "has a dominating set of size `4·log k+2`")
//! exactly and compare against `f(x, y)`.
//!
//! All exact solvers are exponential-time branch-and-bound or dynamic
//! programs with pruning, sized for the constructions (the MIS/clique,
//! dominating-set, Hamiltonian and cardinality Steiner searches take up
//! to 256 vertices, the max-cut search up to 64; small optima). Each is
//! validated against brute force on random small instances in its own
//! test module.
//!
//! | Module | Problems |
//! |--------|----------|
//! | [`mis`] | max (weight) independent set, max clique, min vertex cover |
//! | [`mds`] | min (weight) dominating set, `k`-MDS, decision variants |
//! | [`maxcut`] | exact weighted max-cut and its decision (one branch and bound in gray-code order; the walk as test reference), random/local-search approx |
//! | [`hamilton`] | directed/undirected Hamiltonian path & cycle (one backtracker; Held–Karp as test reference) |
//! | [`steiner`] | cardinality / directed Steiner tree; node-weighted through the directed program |
//! | [`flow`] | max-flow / min-cut (Dinic), weighted s–t distance |
//! | [`matching`] | maximum cardinality matching (bitmask DP) |
//! | [`two_ecss`] | minimum 2-edge-connected spanning subgraph checks |
//! | [`spanner`] | minimum weighted 2-spanner (exact, small graphs) |
//! | [`cnf`] | CNF formulas (≤2 literals/clause) and exact Max-SAT |
//! | [`coloring`] | exact chromatic number, greedy coloring |
//! | [`approx`] | the approximation algorithms the paper cites as context |

#![forbid(unsafe_code)]
// Index loops over gadget positions are kept explicit: the indices are
// the paper's semantic coordinates (bit h, slot d, code position j).
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod approx;
pub mod cnf;
pub mod coloring;
pub mod flow;
pub mod hamilton;
pub mod matching;
pub mod maxcut;
pub mod mds;
pub mod mis;
pub mod spanner;
pub mod stats;
pub mod steiner;
pub mod two_ecss;

pub use stats::SearchStats;

pub(crate) mod bitset;
