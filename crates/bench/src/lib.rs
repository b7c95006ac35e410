//! Benchmark harness for the `congest-hardness` workspace.
//!
//! Each Criterion bench target regenerates one cluster of the paper's
//! experiments (see `EXPERIMENTS.md` for the index):
//!
//! * `families` — E1–E6: building and deciding the Section 2 families,
//! * `maxcut_approx` — E7: the Theorem 2.9 algorithm in the simulator,
//! * `approx_gaps` — E10–E16: the Section 4 gap families,
//! * `pipeline` — E22: Theorem 1.1's Alice–Bob simulation,
//! * `protocols_pls` — E18–E21: Section 5 protocols and PLS,
//! * `solvers` — oracle baselines.
//!
//! The numeric *tables* (parameters, gaps, implied bounds) are produced
//! by the `experiments` binary of the root crate:
//! `cargo run --release --bin experiments`.
//!
//! The `sim_round` and `verify_family` reporters also write
//! `BENCH_*.json` snapshots at the workspace root; the [`regress`]
//! module diffs a fresh snapshot against the committed baseline (see the
//! `benchdiff` binary) and gates CI on regressions.

pub mod regress;
