//! Robustness-machinery throughput: Monte-Carlo fault sweeps and the
//! adversarial placement search on fixed seeded workloads.
//!
//! Besides the printed medians, this bench writes `BENCH_faults.json` at
//! the workspace root (CI uploads it next to the other `BENCH_*.json`
//! files and diffs it through the same `benchdiff` gate). Entries are
//! identified by `(alg, n, adversary)`: the same algorithm/size point
//! appears once under the i.i.d. sweep (`"adversary": "iid"`) and once
//! under the worst-case search (`"adversary": "search"`), and those are
//! distinct workloads, not one drifting entry.
//!
//! Every non-wall column is deterministic — sweeps and searches are
//! seeded end to end — so the gate pins `caught`/`exhausted`/`evals`/…
//! exactly, and only the `wall_micros` columns ride the noise band. The
//! top-level `"available_cores"` field records the machine (the sweeps
//! run on every core), so a 1-CPU run is never read against a many-core
//! one.

use congest_faults::{
    adversarial_search, run_sweep, AdversaryConfig, FaultBudget, FaultPlan, RetryPolicy,
    SweepConfig,
};
use congest_graph::generators;
use congest_sim::algorithms::{BfsTree, LeaderElection};
use congest_sim::{SelfCertify, Simulator};
use criterion::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

const SAMPLES: usize = 3;
const PLANS: u64 = 256;

struct Entry {
    alg: &'static str,
    n: usize,
    adversary: &'static str,
    wall: Duration,
    /// Deterministic counters, in output order.
    counters: Vec<(&'static str, u64)>,
}

/// Median wall of `SAMPLES` identical seeded sweeps; the folded counters
/// are byte-identical across samples and worker counts.
fn measure_sweep<A: SelfCertify>(
    alg: &'static str,
    g: &congest_graph::Graph,
    make_alg: impl Fn() -> A + Sync,
) -> Entry {
    let sim = Simulator::new(g);
    let cfg = SweepConfig {
        plans: PLANS,
        base_seed: 0x5EED_CAFE,
        max_rounds: 10_000,
        retry: RetryPolicy::default(),
        jobs: 0,
    };
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let sweep = run_sweep(&sim, alg, &make_alg, FaultPlan::seeded, &cfg);
        times.push(start.elapsed());
        black_box(&sweep);
        last = Some(sweep);
    }
    times.sort_unstable();
    let wall = times[times.len() / 2];
    let sweep = last.expect("SAMPLES > 0");
    println!(
        "fault_sweep/{alg}/n={n:<3}/iid plans: {PLANS}  caught: {caught:>4}  exhausted: {ex:>4}  \
         faults: {faults:>6}  wall: {wall:>10.3?}",
        n = g.num_nodes(),
        caught = sweep.caught,
        ex = sweep.exhausted,
        faults = sweep.fault_totals.total(),
    );
    Entry {
        alg,
        n: g.num_nodes(),
        adversary: "iid",
        wall,
        counters: vec![
            ("plans", sweep.runs),
            ("faulty_runs", sweep.faulty_runs),
            ("caught", sweep.caught),
            ("recovered", sweep.recovered),
            ("exhausted", sweep.exhausted),
            ("total_attempts", sweep.total_attempts),
            ("certified_runs", sweep.certified_runs),
            ("baseline_rounds", sweep.baseline_rounds),
            ("faults", sweep.fault_totals.total()),
        ],
    }
}

/// Median wall of `SAMPLES` identical adversarial searches; the found
/// plan, score, and evaluation count are seeded-deterministic.
fn measure_search<A: SelfCertify>(
    alg: &'static str,
    g: &congest_graph::Graph,
    make_alg: impl Fn() -> A,
) -> Entry {
    let sim = Simulator::new(g);
    let cfg = AdversaryConfig {
        candidate_pool: 8,
        search_iters: 32,
        ..AdversaryConfig::new(FaultBudget::links(1))
    };
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        let outcome = adversarial_search(&sim, &make_alg, &cfg);
        times.push(start.elapsed());
        black_box(&outcome);
        last = Some(outcome);
    }
    times.sort_unstable();
    let wall = times[times.len() / 2];
    let outcome = last.expect("SAMPLES > 0");
    println!(
        "fault_sweep/{alg}/n={n:<3}/search evals: {evals:>4}  attempts: {att}  rounds: {rounds:>5}  \
         forced: {forced}  wall: {wall:>10.3?}",
        n = g.num_nodes(),
        evals = outcome.evals,
        att = outcome.score.attempts,
        rounds = outcome.score.rounds,
        forced = outcome.score.forced_failure,
    );
    Entry {
        alg,
        n: g.num_nodes(),
        adversary: "search",
        wall,
        counters: vec![
            ("evals", outcome.evals),
            ("attempts", u64::from(outcome.score.attempts)),
            ("rounds", outcome.score.rounds),
            ("forced_failure", u64::from(outcome.score.forced_failure)),
            ("baseline_rounds", outcome.baseline.rounds),
        ],
    }
}

fn write_json(path: &str, cores: usize, entries: &[Entry]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"fault_sweep\",")?;
    writeln!(f, "  \"available_cores\": {cores},")?;
    writeln!(f, "  \"samples_per_point\": {SAMPLES},")?;
    writeln!(f, "  \"entries\": [")?;
    for (i, e) in entries.iter().enumerate() {
        writeln!(f, "    {{")?;
        writeln!(f, "      \"alg\": \"{}\",", e.alg)?;
        writeln!(f, "      \"adversary\": \"{}\",", e.adversary)?;
        writeln!(f, "      \"n\": {},", e.n)?;
        for (key, value) in &e.counters {
            writeln!(f, "      \"{key}\": {value},")?;
        }
        writeln!(f, "      \"wall_micros\": {}", e.wall.as_micros())?;
        writeln!(f, "    }}{}", if i + 1 < entries.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let cores = congest_par::max_jobs();
    println!(
        "== group: fault_sweep (robustness sweeps and adversarial search, available cores: \
         {cores}) =="
    );
    let mut entries = Vec::new();

    // Monte-Carlo i.i.d. sweeps: fixed seeded plans, folded counters.
    for n in [16usize, 32] {
        let g = generators::cycle(n);
        entries.push(measure_sweep("leader_election", &g, move || {
            LeaderElection::new(n)
        }));
    }
    {
        let n = 16;
        let g = generators::cycle(n);
        entries.push(measure_sweep("bfs_tree", &g, move || BfsTree::new(n, 0)));
    }

    // Worst-case adversarial search on the same topologies.
    for n in [16usize, 32] {
        let g = generators::cycle(n);
        entries.push(measure_search("leader_election", &g, move || {
            LeaderElection::new(n)
        }));
    }
    println!();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    match write_json(out, cores, &entries) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}
