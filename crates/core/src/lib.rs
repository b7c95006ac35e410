//! The paper's primary contribution: families of lower bound graphs for
//! the CONGEST model, and the Theorem 1.1 reduction pipeline.
//!
//! A *family of lower bound graphs* (Definition 1.1) is a set of graphs
//! `{G_{x,y}}` over a fixed vertex set partitioned into `V_A`/`V_B`, where
//! `x` only affects edges inside `G[V_A]`, `y` only affects edges inside
//! `G[V_B]`, the cut `E(V_A, V_B)` is input-independent, and `G_{x,y}`
//! satisfies a predicate `P` **iff** `f(x, y)` is true. Theorem 1.1 then
//! converts any CONGEST algorithm deciding `P` into a two-party protocol
//! for `f` costing `O(rounds · |E_cut| · log n)` bits, so communication
//! lower bounds for `f` yield round lower bounds for `P`.
//!
//! Every construction of the paper is implemented as a
//! [`LowerBoundFamily`] and is *machine-checkable*: [`verify_family`]
//! builds concrete `G_{x,y}` instances, checks all four conditions of
//! Definition 1.1 using exact solvers from `congest-solvers` as predicate
//! oracles, and reports the measured parameters (`n`, `|E_cut|`, `K`) plus
//! the implied round lower bound.
//!
//! | Module | Paper reference |
//! |--------|-----------------|
//! | [`mds`] | Theorem 2.1, Figure 1 |
//! | [`hamiltonian`] | Theorems 2.2–2.5, Figure 2, Claims 2.6–2.7, Lemmas 2.2–2.3 |
//! | [`steiner`] | Theorems 2.6–2.7 |
//! | [`maxcut`] | Theorem 2.8, Figure 3 |
//! | [`mvc_ckp`] | the MVC/MaxIS family of \[10\] (substrate for Section 3) |
//! | [`bounded_degree`] | Section 3: `G → φ → φ' → G'` |
//! | [`approx_maxis`] | Theorems 4.1–4.3, Figure 4 |
//! | [`kmds`] | Theorems 4.4–4.5, Figure 5 |
//! | [`steiner_variants`] | Theorems 4.6–4.7, Figure 6 |
//! | [`restricted_mds`] | Theorem 4.8, Figure 7 |
//! | [`simulate`] | Theorem 1.1's Alice–Bob simulation |

#![forbid(unsafe_code)]
// Index loops over gadget positions are kept explicit: the indices are
// the paper's semantic coordinates (bit h, slot d, code position j).
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod approx_maxis;
pub mod bounded_degree;
mod family;
pub mod hamiltonian;
pub mod kmds;
pub mod maxcut;
pub mod mds;
pub mod mvc_ckp;
pub mod restricted_mds;
pub mod simulate;
pub mod steiner;
pub mod steiner_variants;

pub use family::{
    all_inputs, disjoint_pair, ham_k5_subset, intersecting_pair, padded_inputs, sample_inputs,
    verify_family, verify_family_with, EdgeListGraph, FamilyReport, FamilyViolation,
    LowerBoundFamily, VerifyOptions, VerifyStats,
};
