//! Definition 1.1 (family of lower bound graphs) and its verifier.
//!
//! # Verification sweep
//!
//! [`verify_family`] realizes the machine-check behind every "VERIFIED"
//! line in `EXPERIMENTS.md`. It is one sweep in two phases:
//!
//! * **Records.** Every input pair `(x, y)` is built once, its vertex
//!   count checked and its NP-hard predicate decided on the built graph.
//!   Pairs are independent, so [`verify_family_with`] fans this phase out
//!   over a `congest-par` worker pool; violations keep the *serial*
//!   semantics because the pool reports the lowest-index failure
//!   deterministically.
//! * **Checks.** Conditions 1–4 run on the records. Side-dependence
//!   (conditions 2 and 3) is not pairwise: inputs are grouped by `y`
//!   (resp. `x`) and every group member is diffed against one reference
//!   per group — `O(P·Δ)` instead of `O(P²)` — with equivalent detection
//!   power: if two members of a group differ outside the allowed side, at
//!   least one of them differs from the group reference there too. The
//!   fixed cut is derived once per `y`-group (a difference confined to
//!   `G[V_A]` cannot move the cut), not once per build.
//!
//! A record holds the pair's sorted edges beyond a *base form*. When the
//! family declares [`LowerBoundFamily::base_graph`], the base form is that
//! graph's canonical form and the record is the pair's sorted
//! [`LowerBoundFamily::delta_edges`], checked against the full build on
//! every pair. Otherwise the base is the empty graph and the record holds
//! the full edge list plus node weights. Either way a pair's cut is the
//! base cut plus its record's crossing edges, and the base cancels from
//! every side-dependence diff, so both forms reach the same verdicts. A
//! family whose delta breaks the contract is swept again without its base.

use std::collections::HashMap;

use congest_comm::bounds::theorem_1_1_round_bound;
use congest_comm::BitString;
use congest_graph::{DiGraph, Graph, NodeId, Weight};
use congest_obs::Record;
use congest_solvers::SearchStats;
use rand::Rng;

/// Graphs (directed or undirected) that can expose a canonical edge list,
/// so the Definition 1.1 side-dependence conditions can be checked
/// generically. Undirected edges are normalized to `u < v`; directed edges
/// keep their orientation.
pub trait EdgeListGraph {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Canonical `(u, v, weight)` list, sorted.
    fn edge_list(&self) -> Vec<(NodeId, NodeId, Weight)>;
    /// Node weights (all `1` when unused).
    fn node_weight_list(&self) -> Vec<Weight>;
}

impl EdgeListGraph for Graph {
    fn num_nodes(&self) -> usize {
        Graph::num_nodes(self)
    }
    fn edge_list(&self) -> Vec<(NodeId, NodeId, Weight)> {
        let mut e: Vec<_> = self.edges().collect();
        e.sort_unstable();
        e
    }
    fn node_weight_list(&self) -> Vec<Weight> {
        (0..Graph::num_nodes(self))
            .map(|v| self.node_weight(v))
            .collect()
    }
}

impl EdgeListGraph for DiGraph {
    fn num_nodes(&self) -> usize {
        DiGraph::num_nodes(self)
    }
    fn edge_list(&self) -> Vec<(NodeId, NodeId, Weight)> {
        let mut e: Vec<_> = self.edges().collect();
        e.sort_unstable();
        e
    }
    fn node_weight_list(&self) -> Vec<Weight> {
        (0..DiGraph::num_nodes(self))
            .map(|v| self.node_weight(v))
            .collect()
    }
}

/// A family of lower bound graphs with respect to a two-party function
/// `f` and a graph predicate `P` (Definition 1.1 of the paper).
///
/// By the paper's convention all our families use the *intersection*
/// function `f(x, y) = ¬DISJ(x, y)` (TRUE iff some index has
/// `x_i = y_i = 1`), whose communication complexity equals disjointness's.
pub trait LowerBoundFamily {
    /// The graph type the family produces.
    type GraphType: EdgeListGraph;

    /// Human-readable name, e.g. `"MDS (Theorem 2.1)"`.
    fn name(&self) -> String;

    /// The input length `K` of each player's string.
    fn input_len(&self) -> usize;

    /// Number of vertices of every graph in the family.
    fn num_vertices(&self) -> usize;

    /// Alice's side `V_A` of the fixed partition.
    fn alice_vertices(&self) -> Vec<NodeId>;

    /// Builds `G_{x,y}`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x` or `y` have length ≠ `input_len()`.
    fn build(&self, x: &BitString, y: &BitString) -> Self::GraphType;

    /// Decides the predicate `P` on a built graph, using an exact solver.
    ///
    /// The verifier calls it once per input pair, on that pair's own
    /// build, and may do so from worker threads.
    fn predicate(&self, g: &Self::GraphType) -> bool;

    /// [`LowerBoundFamily::predicate`] plus the exact solver's search
    /// counters, aggregated into [`VerifyStats::solver`] by the verifier.
    /// The default wraps `predicate` and reports no counters.
    fn predicate_with_stats(&self, g: &Self::GraphType) -> (bool, Option<SearchStats>) {
        (self.predicate(g), None)
    }

    /// The input-independent base graph. When declared, each pair's
    /// verification record holds only its [`LowerBoundFamily::delta_edges`]
    /// instead of the full edge list; `None` (the default) records full
    /// edge lists and node weights.
    ///
    /// Contract for implementers (the *delta-build contract*): for every
    /// input pair, `build(x, y)` must equal the base graph plus exactly
    /// the edges of `delta_edges(x, y)` — same canonical orientation as
    /// [`EdgeListGraph::edge_list`], no overlap with base edge slots —
    /// and node weights must not depend on the inputs. The verifier still
    /// builds every pair and checks this equation on each build; on a
    /// mismatch it sweeps the family again without the base, so a wrong
    /// delta costs time, never a verdict.
    fn base_graph(&self) -> Option<Self::GraphType> {
        None
    }

    /// The input-dependent edges of `G_{x,y}`: what `build(x, y)` adds on
    /// top of [`LowerBoundFamily::base_graph`]. Only meaningful when
    /// `base_graph` returns `Some`; the default (empty) pairs with the
    /// default `base_graph` of `None`.
    fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
        let _ = (x, y);
        Vec::new()
    }

    /// The reference function: `TRUE` iff the inputs intersect
    /// (`¬DISJ`). Kept overridable for families over other functions.
    fn f(&self, x: &BitString, y: &BitString) -> bool {
        (0..self.input_len()).any(|i| x.get(i) && y.get(i))
    }
}

/// A violation of one of Definition 1.1's conditions, found by
/// [`verify_family`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyViolation {
    /// The vertex count changed between inputs.
    VertexSetChanged {
        /// Expected vertex count.
        expected: usize,
        /// Observed vertex count.
        observed: usize,
    },
    /// An `x`-dependent difference outside `G[V_A]` (edge or node weight).
    AliceLeak(String),
    /// A `y`-dependent difference outside `G[V_B]`.
    BobLeak(String),
    /// The cut `E(V_A, V_B)` differed between two inputs.
    CutChanged(String),
    /// `P(G_{x,y}) ≠ f(x, y)` on some input pair.
    PredicateMismatch {
        /// `f(x, y)`.
        f_value: bool,
        /// `P(G_{x,y})`.
        p_value: bool,
        /// Rendering of the offending `(x, y)`.
        inputs: String,
    },
}

impl std::fmt::Display for FamilyViolation {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FamilyViolation::VertexSetChanged { expected, observed } => {
                write!(fm, "vertex set changed: {expected} vs {observed}")
            }
            FamilyViolation::AliceLeak(s) => write!(fm, "x-dependence outside G[V_A]: {s}"),
            FamilyViolation::BobLeak(s) => write!(fm, "y-dependence outside G[V_B]: {s}"),
            FamilyViolation::CutChanged(s) => write!(fm, "cut changed: {s}"),
            FamilyViolation::PredicateMismatch {
                f_value,
                p_value,
                inputs,
            } => write!(
                fm,
                "predicate mismatch on {inputs}: f = {f_value}, P = {p_value}"
            ),
        }
    }
}

impl std::error::Error for FamilyViolation {}

/// Measured parameters of a verified family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyReport {
    /// Family name.
    pub name: String,
    /// Vertex count `n`.
    pub n: usize,
    /// Input length `K`.
    pub k_input: usize,
    /// The measured fixed cut `E(V_A, V_B)` (as vertex pairs, ignoring
    /// orientation).
    pub cut_edges: Vec<(NodeId, NodeId)>,
    /// Number of input pairs on which the predicate was checked.
    pub pairs_checked: usize,
    /// The Theorem 1.1 round lower bound implied by the measured
    /// parameters, `CC(f) / (|E_cut|·log n)` with `CC(f) = K + 1`.
    pub implied_round_bound: u64,
}

impl FamilyReport {
    /// `|E_cut|`.
    pub fn cut_size(&self) -> usize {
        self.cut_edges.len()
    }
}

/// Tuning knobs for [`verify_family_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Worker count for the build/predicate sweep: `1` runs fully serial
    /// (no threads — byte-identical to the historical verifier), `0`
    /// means all available cores.
    pub jobs: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { jobs: 1 }
    }
}

impl VerifyOptions {
    /// The fully serial configuration (the default).
    pub fn serial() -> Self {
        VerifyOptions::default()
    }

    /// All available cores.
    pub fn parallel() -> Self {
        VerifyOptions { jobs: 0 }
    }

    /// A specific worker count (`0` = all cores).
    pub fn with_jobs(jobs: usize) -> Self {
        VerifyOptions { jobs }
    }
}

/// Operation counts from one [`verify_family_with`] run.
///
/// `dependence_comparisons` is the number of reference diffs performed by
/// the grouped side-dependence scan; for `P` input pairs it is at most
/// `2·P` (one per non-reference member per grouping), where the historical
/// pairwise scan performed `Θ(P²)` pair visits. The build and solver
/// counters are filled once every pair has its record; a vertex-count
/// violation stops the sweep before that and leaves them zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Resolved worker count used for the sweep.
    pub jobs: usize,
    /// Input pairs handed to the verifier.
    pub pairs: usize,
    /// Exact-predicate evaluations: one per pair.
    pub predicate_calls: u64,
    /// Always 0: the verifier keeps no predicate memo. Kept because the
    /// `perfbench` harness still reads it.
    pub memo_hits: u64,
    /// Always 0, like [`VerifyStats::memo_hits`].
    pub memo_misses: u64,
    /// Cut derivations performed (one per `y`-group, not one per build).
    pub cut_computations: u64,
    /// Number of shared-`x` plus shared-`y` groups scanned.
    pub dependence_groups: u64,
    /// Reference diffs performed by the grouped side-dependence scan.
    pub dependence_comparisons: u64,
    /// Graph constructions: one per pair.
    pub full_builds: u64,
    /// Pairs recorded as edge deltas over the family's base graph (zero
    /// when the family declares no base graph or breaks its contract).
    pub delta_builds: u64,
    /// Aggregate exact-solver counters from every predicate evaluation
    /// that reported them (see [`LowerBoundFamily::predicate_with_stats`]).
    pub solver: SearchStats,
    /// Per-worker item counters from the pool (empty for serial runs).
    pub pool: Option<congest_par::PoolStats>,
}

impl VerifyStats {
    /// Exports the counters as `congest-obs` records: one `verify` record
    /// plus the pool's per-worker records when the sweep was parallel.
    pub fn to_records(&self, target: &'static str) -> Vec<Record> {
        let mut recs = vec![Record::new(target, "verify")
            .with("jobs", self.jobs)
            .with("pairs", self.pairs)
            .with("predicate_calls", self.predicate_calls)
            .with("cut_computations", self.cut_computations)
            .with("dependence_groups", self.dependence_groups)
            .with("dependence_comparisons", self.dependence_comparisons)
            .with("full_builds", self.full_builds)
            .with("delta_builds", self.delta_builds)
            .with("solver_nodes", self.solver.nodes)
            .with("solver_prunes", self.solver.prunes)
            .with("solver_backtracks", self.solver.backtracks)
            .with("solver_incumbents", self.solver.incumbents)
            .with("solver_bound_cutoffs", self.solver.bound_cutoffs)
            .with("solver_forced_moves", self.solver.forced_moves)
            .with("solver_components", self.solver.components)
            .with("solver_micros", self.solver.elapsed_micros)];
        if let Some(pool) = &self.pool {
            recs.extend(pool.to_records(target));
        }
        recs
    }
}

/// The canonical form of a family's declared base graph: sorted edge
/// list plus node weights, computed once per sweep.
struct BaseForm {
    edges: Vec<(NodeId, NodeId, Weight)>,
    node_weights: Vec<Weight>,
}

/// One pair's record: its sorted edges beyond the base form, its node
/// weights when there is no base (a base fixes them, so the list stays
/// empty), the predicate and function values, and the solver's counters.
/// Violation descriptors are rendered lazily from the input pair (see
/// [`pair_desc`]) so the hot path allocates no strings.
struct PairRecord {
    edges: Vec<(NodeId, NodeId, Weight)>,
    node_weights: Vec<Weight>,
    p: bool,
    f: bool,
    solver: Option<SearchStats>,
}

/// Why a pair got no record.
enum Stop {
    /// A Definition 1.1 violation: the vertex count changed.
    Violation(FamilyViolation),
    /// The build broke the delta-build contract: sweep without the base.
    Breach,
}

/// The records of a whole sweep, or the lowest-index pair that got none,
/// plus the pool's counters when the sweep ran on one.
type Recorded = (
    Result<Vec<PairRecord>, (usize, Stop)>,
    Option<congest_par::PoolStats>,
);

/// Renders the offending `(x, y)` pair for a violation report. Called
/// only on the error path.
fn pair_desc((x, y): &(BitString, BitString)) -> String {
    format!("(x={x}, y={y})")
}

/// Checks that `full` (a canonical edge list) is exactly the disjoint
/// union of the sorted `base` and `delta` lists — the delta-build
/// contract for one build. Overlapping edge slots or diverging weights
/// make the merge walk (or the length check) fail.
fn delta_composes(
    base: &[(NodeId, NodeId, Weight)],
    delta: &[(NodeId, NodeId, Weight)],
    full: &[(NodeId, NodeId, Weight)],
) -> bool {
    if base.len() + delta.len() != full.len() {
        return false;
    }
    let (mut i, mut j) = (0, 0);
    for &e in full {
        if i < base.len() && base[i] == e {
            i += 1;
        } else if j < delta.len() && delta[j] == e {
            j += 1;
        } else {
            return false;
        }
    }
    i == base.len() && j == delta.len()
}

/// Builds `G_{x,y}`, checks the fixed vertex count and, against a base
/// form, the delta-build contract, then decides the predicate on the
/// build and records the pair.
fn record<F: LowerBoundFamily>(
    family: &F,
    (x, y): &(BitString, BitString),
    n: usize,
    base: Option<&BaseForm>,
) -> Result<PairRecord, Stop> {
    let g = family.build(x, y);
    if g.num_nodes() != n {
        return Err(Stop::Violation(FamilyViolation::VertexSetChanged {
            expected: n,
            observed: g.num_nodes(),
        }));
    }
    let (edges, node_weights) = match base {
        None => (g.edge_list(), g.node_weight_list()),
        Some(base) => {
            let mut delta = family.delta_edges(x, y);
            delta.sort_unstable();
            if !delta_composes(&base.edges, &delta, &g.edge_list())
                || g.node_weight_list() != base.node_weights
            {
                return Err(Stop::Breach);
            }
            (delta, Vec::new())
        }
    };
    let (p, solver) = family.predicate_with_stats(&g);
    Ok(PairRecord {
        edges,
        node_weights,
        p,
        f: family.f(x, y),
        solver,
    })
}

fn undirected_cut(
    edges: &[(NodeId, NodeId, Weight)],
    in_a: &[bool],
) -> std::collections::BTreeSet<(NodeId, NodeId)> {
    edges
        .iter()
        .filter(|&&(u, v, _)| in_a[u] != in_a[v])
        .map(|&(u, v, _)| (u.min(v), u.max(v)))
        .collect()
}

/// Symmetric difference of two *sorted* edge lists (deterministic order,
/// `O(|a| + |b|)` — no hashing).
fn sorted_edge_diff(
    a: &[(NodeId, NodeId, Weight)],
    b: &[(NodeId, NodeId, Weight)],
) -> Vec<(NodeId, NodeId, Weight)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Groups input indices by a key component (`x` or `y`), preserving
/// first-occurrence order; each group's first index is its reference.
fn group_indices<'a>(
    inputs: &'a [(BitString, BitString)],
    key: impl Fn(&'a (BitString, BitString)) -> &'a BitString,
) -> Vec<Vec<usize>> {
    let mut by_key: HashMap<&BitString, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, pair) in inputs.iter().enumerate() {
        match by_key.entry(key(pair)) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Conditions 1–4 on the records: predicate ⇔ f, fixed cut (derived once
/// per `y`-group as the base cut plus the record's crossing edges), and
/// the grouped `O(P·Δ)` side-dependence scan, which diffs records
/// directly because the base cancels from every symmetric difference.
fn check_records<F: LowerBoundFamily>(
    family: &F,
    inputs: &[(BitString, BitString)],
    records: &[PairRecord],
    base: Option<&BaseForm>,
    in_a: &[bool],
    stats: &mut VerifyStats,
) -> Result<FamilyReport, FamilyViolation> {
    // Condition 4.
    for (i, r) in records.iter().enumerate() {
        if r.p != r.f {
            return Err(FamilyViolation::PredicateMismatch {
                f_value: r.f,
                p_value: r.p,
                inputs: pair_desc(&inputs[i]),
            });
        }
    }

    let y_groups = group_indices(inputs, |(_, y)| y);
    let x_groups = group_indices(inputs, |(x, _)| x);
    stats.dependence_groups = (y_groups.len() + x_groups.len()) as u64;

    // Fixed cut, derived once per y-group reference. Members of a group
    // are covered transitively: the dependence scan below confines their
    // differences from the reference to G[V_A], which cannot move the
    // cut — and flags a leak otherwise.
    let base_cut = base.map(|b| undirected_cut(&b.edges, in_a));
    let cut_of = |r: &PairRecord| {
        let mut cut = base_cut.clone().unwrap_or_default();
        cut.extend(undirected_cut(&r.edges, in_a));
        cut
    };
    let cut0 = cut_of(&records[0]);
    stats.cut_computations = 1;
    for g in &y_groups {
        let r = g[0];
        if r == 0 {
            continue;
        }
        stats.cut_computations += 1;
        if cut_of(&records[r]) != cut0 {
            return Err(FamilyViolation::CutChanged(pair_desc(&inputs[r])));
        }
    }

    // Side-dependence: diff each group member against the group reference.
    // Shared y ⇒ only x varies ⇒ differences must stay inside G[V_A];
    // shared x symmetrically. Detection is equivalent to the pairwise
    // scan: two members differing outside the allowed side cannot both
    // match the reference there.
    for (groups, alice_side) in [(&y_groups, true), (&x_groups, false)] {
        for g in groups {
            let i = g[0];
            for &j in &g[1..] {
                stats.dependence_comparisons += 1;
                let leak = |what: String| {
                    let what = format!("{what} differs between builds {i} and {j}");
                    if alice_side {
                        FamilyViolation::AliceLeak(what)
                    } else {
                        FamilyViolation::BobLeak(what)
                    }
                };
                for (u, v, w) in sorted_edge_diff(&records[i].edges, &records[j].edges) {
                    let allowed = if alice_side {
                        in_a[u] && in_a[v]
                    } else {
                        !in_a[u] && !in_a[v]
                    };
                    if !allowed {
                        return Err(leak(format!("edge ({u},{v},{w})")));
                    }
                }
                let weights = records[i].node_weights.iter().zip(&records[j].node_weights);
                for (v, (a, b)) in weights.enumerate() {
                    if a != b && in_a[v] != alice_side {
                        return Err(leak(format!("node weight of {v}")));
                    }
                }
            }
        }
    }

    let k = family.input_len();
    let n = in_a.len();
    let cut_edges: Vec<(NodeId, NodeId)> = cut0.into_iter().collect();
    let implied = theorem_1_1_round_bound(k as u64 + 1, cut_edges.len() as u64, n as u64);
    Ok(FamilyReport {
        name: family.name(),
        n,
        k_input: k,
        cut_edges,
        pairs_checked: inputs.len(),
        implied_round_bound: implied,
    })
}

/// The sweep both drivers share: records every pair through `records`
/// (serially or on the pool) against the family's base form, sweeping
/// again without it on a delta-build contract breach, then checks the
/// records.
fn sweep<F: LowerBoundFamily>(
    family: &F,
    inputs: &[(BitString, BitString)],
    jobs: usize,
    records: impl Fn(usize, Option<&BaseForm>) -> Recorded,
) -> (Result<FamilyReport, FamilyViolation>, VerifyStats) {
    assert!(!inputs.is_empty(), "need at least one input pair");
    let n = family.num_vertices();
    let mut base = family
        .base_graph()
        .filter(|g| g.num_nodes() == n)
        .map(|g| BaseForm {
            edges: g.edge_list(),
            node_weights: g.node_weight_list(),
        });
    let (res, pool) = loop {
        let (res, pool) = records(n, base.as_ref());
        match res {
            Err((_, Stop::Breach)) => base = None,
            Err((_, Stop::Violation(v))) => break (Err(v), pool),
            Ok(records) => break (Ok(records), pool),
        }
    };
    let mut stats = VerifyStats {
        jobs,
        pairs: inputs.len(),
        pool,
        ..VerifyStats::default()
    };
    let records = match res {
        Ok(records) => records,
        Err(v) => return (Err(v), stats),
    };
    stats.full_builds = records.len() as u64;
    stats.predicate_calls = records.len() as u64;
    if base.is_some() {
        stats.delta_builds = records.len() as u64;
    }
    for s in records.iter().filter_map(|r| r.solver.as_ref()) {
        stats.solver.absorb(s);
    }
    let mut in_a = vec![false; n];
    for v in family.alice_vertices() {
        in_a[v] = true;
    }
    let res = check_records(family, inputs, &records, base.as_ref(), &in_a, &mut stats);
    (res, stats)
}

/// The serial driver: records the pairs in order on the calling thread,
/// so the family needs no `Sync` bound.
fn sweep_serial<F: LowerBoundFamily>(
    family: &F,
    inputs: &[(BitString, BitString)],
) -> (Result<FamilyReport, FamilyViolation>, VerifyStats) {
    sweep(family, inputs, 1, |n, base| {
        let records = inputs
            .iter()
            .enumerate()
            .map(|(i, pair)| record(family, pair, n, base).map_err(|stop| (i, stop)))
            .collect();
        (records, None)
    })
}

/// Checks Definition 1.1 on the given input pairs and reports measured
/// parameters. Fully serial; see [`verify_family_with`] for the parallel
/// sweep and operation counters.
///
/// Conditions 2 and 3 (side-dependence) are checked by grouping inputs on
/// a shared `y` (resp. `x`) and diffing each member against the group's
/// reference build: every difference must lie inside `G[V_A]` (resp.
/// `G[V_B]`). Condition 1 and the fixed cut are checked across all
/// builds, and condition 4 (`P ⇔ f`) on every pair.
///
/// # Errors
///
/// Returns the first [`FamilyViolation`] encountered.
pub fn verify_family<F: LowerBoundFamily>(
    family: &F,
    inputs: &[(BitString, BitString)],
) -> Result<FamilyReport, FamilyViolation> {
    sweep_serial(family, inputs).0
}

/// [`verify_family`] with explicit [`VerifyOptions`], returning operation
/// counters alongside the result.
///
/// With `jobs > 1` the build/predicate phase fans out over a
/// `congest-par` worker pool; the reported violation is still the one the
/// serial sweep would return first, because the pool surfaces the
/// lowest-index failure deterministically. The structural checks
/// (predicate ⇔ f scan, fixed cut, grouped side-dependence) stay serial —
/// after the grouped rewrite they are `O(P·Δ)` and never the bottleneck.
/// Every operation count in [`VerifyStats`] is the same at any worker
/// count; only `jobs`, the pool's per-worker split and the solver's wall
/// time vary.
///
/// # Errors
///
/// Returns the first [`FamilyViolation`] the serial sweep would hit.
pub fn verify_family_with<F: LowerBoundFamily + Sync>(
    family: &F,
    inputs: &[(BitString, BitString)],
    opts: &VerifyOptions,
) -> (Result<FamilyReport, FamilyViolation>, VerifyStats) {
    let jobs = congest_par::resolve_jobs(opts.jobs);
    if jobs <= 1 {
        return sweep_serial(family, inputs);
    }
    sweep(family, inputs, jobs, |n, base| {
        let (records, pool) =
            congest_par::par_try_map_stats(jobs, inputs, |_, pair| record(family, pair, n, base));
        (records, Some(pool))
    })
}

/// A standard input sample for family verification: the all-zeros pair
/// (disjoint), all-ones (intersecting), a single shared index, a split
/// (x = first half, y = second half — disjoint), plus `random_pairs`
/// random pairs and `random_pairs` forced-disjoint random pairs, and
/// pairs that share one `x` (resp. one `y`) to exercise the
/// side-dependence checks.
pub fn sample_inputs<R: Rng>(
    k: usize,
    random_pairs: usize,
    rng: &mut R,
) -> Vec<(BitString, BitString)> {
    let mut out = Vec::new();
    let zero = BitString::zeros(k);
    let one = BitString::ones(k);
    out.push((zero.clone(), zero.clone()));
    out.push((one.clone(), one.clone()));
    out.push((zero.clone(), one.clone()));
    if k >= 1 {
        let mid = BitString::from_indices(k, &[k / 2]);
        out.push((mid.clone(), mid.clone()));
        out.push((mid.clone(), zero.clone()));
    }
    if k >= 2 {
        // Disjoint halves.
        let first: Vec<usize> = (0..k / 2).collect();
        let second: Vec<usize> = (k / 2..k).collect();
        out.push((
            BitString::from_indices(k, &first),
            BitString::from_indices(k, &second),
        ));
    }
    for _ in 0..random_pairs {
        out.push((BitString::random(k, rng), BitString::random(k, rng)));
    }
    for _ in 0..random_pairs {
        // Forced disjoint: y only where x is zero, with density 1/2.
        let x = BitString::random(k, rng);
        let mut y = BitString::zeros(k);
        for i in 0..k {
            if !x.get(i) && rng.gen_bool(0.5) {
                y.set(i, true);
            }
        }
        out.push((x, y));
    }
    // Shared-x and shared-y pairs for dependence checks.
    let shared_x = BitString::random(k, rng);
    out.push((shared_x.clone(), BitString::random(k, rng)));
    out.push((shared_x, BitString::random(k, rng)));
    let shared_y = BitString::random(k, rng);
    out.push((BitString::random(k, rng), shared_y.clone()));
    out.push((BitString::random(k, rng), shared_y));
    out
}

/// The largest `K` for which [`all_inputs`] will materialize the full
/// `2^{2K}`-pair `Vec` (beyond it, use [`all_inputs_iter`] to stream, or
/// [`sample_inputs`]).
pub const MAX_EXHAUSTIVE_K: usize = 8;

/// Rejected request to materialize an exhaustive input sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputEnumerationError {
    /// The `K` that was asked for.
    pub requested: usize,
    /// The supported ceiling ([`MAX_EXHAUSTIVE_K`]).
    pub limit: usize,
}

impl std::fmt::Display for InputEnumerationError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            fm,
            "exhaustive input enumeration materializes 2^(2K) pairs and is limited to \
             K <= {} (requested K = {}); use all_inputs_iter to stream the sweep or \
             sample_inputs for large K",
            self.limit, self.requested
        )
    }
}

impl std::error::Error for InputEnumerationError {}

/// All `2^{2K}` input pairs (exhaustive verification; only for tiny `K`),
/// or an [`InputEnumerationError`] when `k` exceeds [`MAX_EXHAUSTIVE_K`].
///
/// # Errors
///
/// Fails when `k > MAX_EXHAUSTIVE_K` — the `Vec` would hold `2^{2K}`
/// pairs.
pub fn try_all_inputs(k: usize) -> Result<Vec<(BitString, BitString)>, InputEnumerationError> {
    if k > MAX_EXHAUSTIVE_K {
        return Err(InputEnumerationError {
            requested: k,
            limit: MAX_EXHAUSTIVE_K,
        });
    }
    Ok(all_inputs_iter(k).collect())
}

/// All `2^{2K}` input pairs (exhaustive verification; only for tiny `K`).
///
/// # Panics
///
/// Panics if `k > MAX_EXHAUSTIVE_K` (= 8), with a message naming the
/// limit; use [`try_all_inputs`] to handle the bound as a value, or
/// [`all_inputs_iter`] to stream larger sweeps without materializing.
pub fn all_inputs(k: usize) -> Vec<(BitString, BitString)> {
    try_all_inputs(k).unwrap_or_else(|e| panic!("{e}"))
}

/// Streams the exhaustive `2^{2K}` sweep lazily, in the same `(x, y)`
/// order as [`all_inputs`] (`x` outer, `y` inner, masks ascending), using
/// `O(K)` memory instead of materializing the full `Vec`.
///
/// # Panics
///
/// Panics if `k > 31` (the pair counter must fit in `u64`).
pub fn all_inputs_iter(k: usize) -> AllInputs {
    assert!(
        k <= 31,
        "all_inputs_iter supports K <= 31 (2^(2K) pair counter must fit in u64)"
    );
    AllInputs {
        k,
        next: 0,
        total: 1u64 << (2 * k),
    }
}

/// Streaming iterator over all `2^{2K}` input pairs; see
/// [`all_inputs_iter`].
#[derive(Debug, Clone)]
pub struct AllInputs {
    k: usize,
    next: u64,
    total: u64,
}

impl Iterator for AllInputs {
    type Item = (BitString, BitString);

    fn next(&mut self) -> Option<(BitString, BitString)> {
        if self.next >= self.total {
            return None;
        }
        let c = self.next;
        self.next += 1;
        let y_mask = c & ((1u64 << self.k) - 1);
        let x_mask = c >> self.k;
        Some((
            bitstring_from_mask(self.k, x_mask),
            bitstring_from_mask(self.k, y_mask),
        ))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.total - self.next) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for AllInputs {}

fn bitstring_from_mask(k: usize, mask: u64) -> BitString {
    let bits: Vec<bool> = (0..k).map(|i| (mask >> i) & 1 == 1).collect();
    BitString::from_bits(&bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy family: two vertices per input bit... simplest correct
    /// example: path A—B where an extra A-side edge encodes x, B-side
    /// encodes y, and the predicate "both flags set" is read off a
    /// triangle count. We keep it minimal: K = 1; vertices 0,1 (Alice),
    /// 2,3 (Bob); fixed cut (1,2); x adds edge (0,1), y adds (2,3);
    /// predicate: the graph has ≥ 3 edges.
    struct Toy;

    impl LowerBoundFamily for Toy {
        type GraphType = Graph;
        fn name(&self) -> String {
            "toy".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            4
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0, 1]
        }
        fn build(&self, x: &BitString, y: &BitString) -> Graph {
            let mut g = Graph::new(4);
            g.add_edge(1, 2);
            if x.get(0) {
                g.add_edge(0, 1);
            }
            if y.get(0) {
                g.add_edge(2, 3);
            }
            g
        }
        fn predicate(&self, g: &Graph) -> bool {
            g.num_edges() >= 3
        }
    }

    #[test]
    fn toy_family_verifies_exhaustively() {
        let report = verify_family(&Toy, &all_inputs(1)).expect("valid family");
        assert_eq!(report.n, 4);
        assert_eq!(report.cut_edges, vec![(1, 2)]);
        assert_eq!(report.pairs_checked, 4);
    }

    #[test]
    fn parallel_report_matches_serial() {
        let inputs = all_inputs(1);
        let serial = verify_family(&Toy, &inputs).expect("valid family");
        for jobs in [2usize, 4] {
            let (res, stats) = verify_family_with(&Toy, &inputs, &VerifyOptions::with_jobs(jobs));
            assert_eq!(res.expect("valid family"), serial);
            assert_eq!(stats.jobs, jobs);
            assert_eq!(
                stats.pool.as_ref().map(|p| p.total_items()),
                Some(inputs.len() as u64)
            );
        }
    }

    #[test]
    fn grouped_dependence_scan_is_linear_in_pairs() {
        let inputs = all_inputs(1);
        let (res, stats) = verify_family_with(&Toy, &inputs, &VerifyOptions::serial());
        res.expect("valid family");
        // P = 4 pairs, 2 y-groups + 2 x-groups of size 2: one reference
        // diff per non-reference member per grouping.
        assert_eq!(stats.dependence_groups, 4);
        assert_eq!(stats.dependence_comparisons, 4);
        assert!(stats.dependence_comparisons <= 2 * inputs.len() as u64);
        // One cut derivation per y-group, not one per build.
        assert_eq!(stats.cut_computations, 2);
        let recs = stats.to_records("core.verify");
        assert_eq!(recs[0].u64_field("dependence_comparisons"), Some(4));
    }

    /// [`Toy`] with the delta-build contract implemented: same graphs,
    /// same name, so reports must match the full-record sweep exactly.
    struct DeltaToy;

    impl LowerBoundFamily for DeltaToy {
        type GraphType = Graph;
        fn name(&self) -> String {
            "toy".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            4
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0, 1]
        }
        fn build(&self, x: &BitString, y: &BitString) -> Graph {
            Toy.build(x, y)
        }
        fn predicate(&self, g: &Graph) -> bool {
            g.num_edges() >= 3
        }
        fn base_graph(&self) -> Option<Graph> {
            let mut g = Graph::new(4);
            g.add_edge(1, 2);
            Some(g)
        }
        fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
            let mut d = Vec::new();
            if x.get(0) {
                d.push((0, 1, 1));
            }
            if y.get(0) {
                d.push((2, 3, 1));
            }
            d
        }
    }

    /// A family whose `delta_edges` lies (always empty) while `build`
    /// still adds input edges: the first pair equals the base, the second
    /// breaches the contract.
    struct BrokenDelta;

    impl LowerBoundFamily for BrokenDelta {
        type GraphType = Graph;
        fn name(&self) -> String {
            "toy".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            4
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0, 1]
        }
        fn build(&self, x: &BitString, y: &BitString) -> Graph {
            Toy.build(x, y)
        }
        fn predicate(&self, g: &Graph) -> bool {
            g.num_edges() >= 3
        }
        fn base_graph(&self) -> Option<Graph> {
            DeltaToy.base_graph()
        }
        fn delta_edges(&self, _: &BitString, _: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
            Vec::new()
        }
    }

    #[test]
    fn delta_records_report_matches_full_records() {
        let inputs = all_inputs(1);
        let full = verify_family(&Toy, &inputs).expect("valid family");
        let (res, stats) = verify_family_with(&DeltaToy, &inputs, &VerifyOptions::serial());
        assert_eq!(res.expect("valid family"), full);
        assert_eq!(stats.delta_builds, inputs.len() as u64);
        // Every pair is built and decided once.
        assert_eq!(stats.full_builds, inputs.len() as u64);
        assert_eq!(stats.predicate_calls, inputs.len() as u64);
        // Same structural counters as the full-record scan.
        assert_eq!(stats.dependence_groups, 4);
        assert_eq!(stats.dependence_comparisons, 4);
        assert_eq!(stats.cut_computations, 2);
    }

    #[test]
    fn delta_parallel_report_matches_serial() {
        let inputs = all_inputs(1);
        let serial = verify_family(&DeltaToy, &inputs).expect("valid family");
        for jobs in [2usize, 4] {
            let (res, stats) =
                verify_family_with(&DeltaToy, &inputs, &VerifyOptions::with_jobs(jobs));
            assert_eq!(res.expect("valid family"), serial, "jobs = {jobs}");
            assert_eq!(stats.jobs, jobs);
            assert_eq!(stats.delta_builds, inputs.len() as u64);
        }
    }

    #[test]
    fn broken_delta_contract_sweeps_again_without_the_base() {
        let inputs = all_inputs(1);
        let full = verify_family(&Toy, &inputs).expect("valid family");
        for jobs in [1usize, 2, 4] {
            let (res, stats) =
                verify_family_with(&BrokenDelta, &inputs, &VerifyOptions::with_jobs(jobs));
            assert_eq!(res.expect("the full sweep verifies"), full, "jobs = {jobs}");
            assert_eq!(stats.delta_builds, 0, "the breach drops the base");
            assert_eq!(stats.full_builds, inputs.len() as u64);
        }
    }

    /// One Definition 1.1 defect planted in a six-vertex family. Alice
    /// holds {0, 1, 2} and Bob {3, 4, 5}; the base is the cut edge (2, 3),
    /// `x` adds (0, 1) and `y` adds (4, 5), and the predicate reads those
    /// two edges, so it equals `f` unless the defect negates `f`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Defect {
        /// `x` also adds the Bob-side edge (3, 5).
        XOnBobSide,
        /// `y` also adds the cut edge (1, 4).
        YMovesTheCut,
        /// `f` is negated.
        NegatedF,
        /// The intersecting pair grows a seventh vertex.
        ExtraVertex,
    }

    impl Defect {
        /// The violation a sweep of `all_inputs(1)` must report.
        fn violation(self, inputs: &[(BitString, BitString)]) -> FamilyViolation {
            match self {
                Defect::XOnBobSide => {
                    FamilyViolation::AliceLeak("edge (3,5,1) differs between builds 0 and 2".into())
                }
                Defect::YMovesTheCut => FamilyViolation::CutChanged(pair_desc(&inputs[1])),
                Defect::NegatedF => FamilyViolation::PredicateMismatch {
                    f_value: true,
                    p_value: false,
                    inputs: pair_desc(&inputs[0]),
                },
                Defect::ExtraVertex => FamilyViolation::VertexSetChanged {
                    expected: 6,
                    observed: 7,
                },
            }
        }
    }

    /// A [`Defect`]ive family, with or without a declared base graph.
    struct Mutant {
        defect: Defect,
        declares_base: bool,
    }

    impl LowerBoundFamily for Mutant {
        type GraphType = Graph;
        fn name(&self) -> String {
            "mutant".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            6
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0, 1, 2]
        }
        fn build(&self, x: &BitString, y: &BitString) -> Graph {
            let grows = self.defect == Defect::ExtraVertex && x.get(0) && y.get(0);
            let mut g = Graph::new(if grows { 7 } else { 6 });
            g.add_edge(2, 3);
            for (u, v, _) in self.delta_edges(x, y) {
                g.add_edge(u, v);
            }
            g
        }
        fn predicate(&self, g: &Graph) -> bool {
            g.has_edge(0, 1) && g.has_edge(4, 5)
        }
        fn base_graph(&self) -> Option<Graph> {
            self.declares_base.then(|| {
                let mut g = Graph::new(6);
                g.add_edge(2, 3);
                g
            })
        }
        fn delta_edges(&self, x: &BitString, y: &BitString) -> Vec<(NodeId, NodeId, Weight)> {
            let mut d = Vec::new();
            if x.get(0) {
                d.push((0, 1, 1));
                if self.defect == Defect::XOnBobSide {
                    d.push((3, 5, 1));
                }
            }
            if y.get(0) {
                d.push((4, 5, 1));
                if self.defect == Defect::YMovesTheCut {
                    d.push((1, 4, 1));
                }
            }
            d
        }
        fn f(&self, x: &BitString, y: &BitString) -> bool {
            (x.get(0) && y.get(0)) != (self.defect == Defect::NegatedF)
        }
    }

    #[test]
    fn delta_records_report_the_violations_full_records_do() {
        let inputs = all_inputs(1);
        let pairs = inputs.len() as u64;
        for defect in [
            Defect::XOnBobSide,
            Defect::YMovesTheCut,
            Defect::NegatedF,
            Defect::ExtraVertex,
        ] {
            let want = defect.violation(&inputs);
            for declares_base in [false, true] {
                let fam = Mutant {
                    defect,
                    declares_base,
                };
                let case = format!("{defect:?}, base declared: {declares_base}");
                assert_eq!(verify_family(&fam, &inputs).unwrap_err(), want, "{case}");
                for jobs in [1usize, 2, 4] {
                    let (res, stats) =
                        verify_family_with(&fam, &inputs, &VerifyOptions::with_jobs(jobs));
                    assert_eq!(res.unwrap_err(), want, "{case}, jobs = {jobs}");
                    if defect != Defect::ExtraVertex {
                        let delta = if declares_base { pairs } else { 0 };
                        assert_eq!(stats.delta_builds, delta, "{case}, jobs = {jobs}");
                        assert_eq!(stats.full_builds, pairs, "{case}, jobs = {jobs}");
                    }
                }
            }
        }
    }

    /// Broken family: x affects an edge on Bob's side.
    struct Leaky;
    impl LowerBoundFamily for Leaky {
        type GraphType = Graph;
        fn name(&self) -> String {
            "leaky".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            4
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0, 1]
        }
        fn build(&self, x: &BitString, y: &BitString) -> Graph {
            let mut g = Graph::new(4);
            g.add_edge(1, 2);
            if x.get(0) {
                g.add_edge(2, 3); // WRONG SIDE
            }
            if y.get(0) {
                g.add_edge(2, 3);
            }
            g
        }
        fn predicate(&self, g: &Graph) -> bool {
            g.num_edges() >= 2
        }
    }

    #[test]
    fn leak_is_detected() {
        let err = verify_family(&Leaky, &all_inputs(1)).unwrap_err();
        assert!(
            matches!(
                err,
                FamilyViolation::AliceLeak(_) | FamilyViolation::PredicateMismatch { .. }
            ),
            "got {err}"
        );
    }

    #[test]
    fn leak_detection_is_deterministic_across_jobs() {
        let inputs = all_inputs(1);
        let serial = verify_family(&Leaky, &inputs).unwrap_err();
        for jobs in [2usize, 4] {
            for _ in 0..4 {
                let (res, _) = verify_family_with(&Leaky, &inputs, &VerifyOptions::with_jobs(jobs));
                assert_eq!(res.clone().unwrap_err(), serial, "jobs = {jobs}");
            }
        }
    }

    /// Broken family: predicate disagrees with f.
    struct WrongPredicate;
    impl LowerBoundFamily for WrongPredicate {
        type GraphType = Graph;
        fn name(&self) -> String {
            "wrong".into()
        }
        fn input_len(&self) -> usize {
            1
        }
        fn num_vertices(&self) -> usize {
            2
        }
        fn alice_vertices(&self) -> Vec<NodeId> {
            vec![0]
        }
        fn build(&self, _: &BitString, _: &BitString) -> Graph {
            Graph::new(2)
        }
        fn predicate(&self, _: &Graph) -> bool {
            true
        }
    }

    #[test]
    fn predicate_mismatch_is_detected() {
        let err = verify_family(&WrongPredicate, &all_inputs(1)).unwrap_err();
        assert!(matches!(err, FamilyViolation::PredicateMismatch { .. }));
    }

    #[test]
    fn sample_inputs_have_right_lengths() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let inputs = sample_inputs(9, 4, &mut rng);
        assert!(inputs.len() >= 10);
        for (x, y) in &inputs {
            assert_eq!(x.len(), 9);
            assert_eq!(y.len(), 9);
        }
    }

    #[test]
    fn all_inputs_iter_matches_materialized_sweep() {
        for k in 0..=3usize {
            let vec_version = all_inputs(k);
            let iter_version: Vec<_> = all_inputs_iter(k).collect();
            assert_eq!(vec_version, iter_version, "k = {k}");
            assert_eq!(all_inputs_iter(k).len(), 1 << (2 * k));
        }
        // Streaming works past the materialization ceiling.
        let mut big = all_inputs_iter(12);
        assert_eq!(big.len(), 1 << 24);
        let (x, y) = big.next().expect("nonempty");
        assert_eq!(x.len(), 12);
        assert_eq!(y.len(), 12);
        assert_eq!(x.count_ones() + y.count_ones(), 0);
    }

    #[test]
    fn try_all_inputs_reports_the_limit() {
        assert_eq!(try_all_inputs(2).expect("small k").len(), 16);
        let err = try_all_inputs(9).unwrap_err();
        assert_eq!(err.requested, 9);
        assert_eq!(err.limit, MAX_EXHAUSTIVE_K);
        let msg = err.to_string();
        assert!(msg.contains("K <= 8"), "message names the limit: {msg}");
        assert!(
            msg.contains("all_inputs_iter"),
            "message names the fix: {msg}"
        );
    }
}
