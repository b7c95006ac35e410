//! Regenerates every experiment table recorded in `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release --bin experiments`
//!
//! Flags:
//!
//! * `--out <path>` — write the human-readable report to a file instead
//!   of stdout;
//! * `--trace <path.jsonl>` — additionally stream structured
//!   `congest-obs` records (simulator rounds, protocol transcripts,
//!   solver search counters, verification sweep counters, per-phase
//!   timings) as JSON lines;
//! * `--jobs <N>` — worker threads for the family-verification sweeps
//!   (default: all available cores; `--jobs 1` runs the historical
//!   serial verifier and produces a byte-identical report);
//! * `--faults <seed>` — additionally run one demo protocol under the
//!   seeded fault plan `FaultPlan::seeded(seed)` and print per-fault-type
//!   counters after the phase summary. The demo writes to stderr (and the
//!   trace, when `--trace` is given), so the main report stays
//!   byte-identical whether or not the flag is present;
//! * `--profile` — attach an every-round `PhaseProfile` to the E7
//!   simulator runs and print the flame-style phase attribution
//!   (deliver/compute/meter/link_fate/epilogue) plus coverage to stderr
//!   after the phase summary. Execution is identical with or without the
//!   profiler; like the other diagnostics this writes only to stderr and
//!   the trace;
//! * `--sim-jobs <N>` — additionally run the simulator on `N` shards
//!   (0 = one per core) on a seeded whole-graph-learning workload,
//!   cross-check it against the one-shard run (the two are
//!   byte-equivalent by contract), and print a per-shard utilization
//!   table to stderr after the phase summary. Stderr-only, so the main
//!   report stays byte-identical;
//! * `--sweep <plans>` — additionally run the Monte-Carlo robustness
//!   sweep: `plans` seeded fault plans per algorithm on the worker pool
//!   (`--jobs` sets the worker count; the report is byte-identical at
//!   any count), followed by the adversarial fault-placement search with
//!   its random-placement control. The robustness report prints to
//!   stderr; with `--trace`, the sweep rows and the serialized worst-case
//!   adversarial plan are appended to the trace so the attack replays
//!   exactly from the artifact.
//!
//! When the verification sweeps run on the parallel pool (`--jobs` ≠ 1
//! on a multicore host), a worker utilization summary — per-worker busy
//! and idle time accumulated across every sweep — is printed to stderr
//! after the phase summary.
//!
//! Each section corresponds to an experiment id (E1–E22) from the
//! DESIGN.md index; the output is the paper-vs-measured record, followed
//! by a per-phase wall-time summary.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use congest_hardness::codes::CoveringCollection;
use congest_hardness::comm::bounds::{
    disjointness_profile, equality_profile, theorem_1_1_round_bound,
};
use congest_hardness::comm::exact::deterministic_cc_with_stats;
use congest_hardness::comm::trace::TracedChannel;
use congest_hardness::comm::{Channel, Disjointness};
use congest_hardness::core::approx_maxis::WeightedMaxIsGapFamily;
use congest_hardness::core::bounded_degree::BoundedDegreeMaxIs;
use congest_hardness::core::hamiltonian::HamPathFamily;
use congest_hardness::core::kmds::KmdsFamily;
use congest_hardness::core::maxcut::MaxCutFamily;
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::mvc_ckp::MvcMaxIsFamily;
use congest_hardness::core::restricted_mds::RestrictedMdsFamily;
use congest_hardness::core::simulate::generic_exact_attack;
use congest_hardness::core::steiner::SteinerFamily;
use congest_hardness::core::steiner_variants::{DirectedSteinerFamily, NodeWeightedSteinerFamily};
use congest_hardness::core::{
    all_inputs, disjoint_pair, intersecting_pair, sample_inputs, verify_family_with,
    LowerBoundFamily, VerifyOptions,
};
use congest_hardness::graph::{generators, metrics};
use congest_hardness::limits::nogo::corollary_5_3_ceiling;
use congest_hardness::limits::protocols as lim;
use congest_hardness::limits::SplitGraph;
use congest_hardness::obs::{jsonl_file_sink, JsonlSink, NullRecorder, Record, Recorder, SpanTree};
use congest_hardness::par::PoolStats;
use congest_hardness::prelude::BitString;
use congest_hardness::sim::algorithms::{LocalCutSolver, SampledMaxCut};
use congest_hardness::sim::{PerfectLink, PhaseProfile, Simulator, TraceObserver};
use congest_hardness::solvers::{maxcut, mds, mis, steiner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type TraceSink = JsonlSink<BufWriter<File>>;

/// Tracks section wall times for the end-of-run summary table.
struct Sections {
    done: Vec<(String, u64)>,
    current: Option<(String, Instant)>,
}

impl Sections {
    fn new() -> Self {
        Sections {
            done: Vec::new(),
            current: None,
        }
    }

    fn start(&mut self, out: &mut dyn Write, id: &str, title: &str) {
        self.close();
        self.current = Some((id.to_string(), Instant::now()));
        writeln!(out, "\n==== {id}: {title} ====").expect("write output");
    }

    fn close(&mut self) {
        if let Some((id, t0)) = self.current.take() {
            let micros = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.done.push((id, micros));
        }
    }

    /// Prints the wall-time table to *stderr* (timings are
    /// nondeterministic; the main report must stay byte-identical across
    /// runs) and traces it as a span tree rooted at `experiments`, one
    /// span per section, named as perfbench names its metrics (`E8/E9`
    /// becomes `E8_E9`: a span path is `/`-joined).
    fn summarize(&mut self, trace: &mut Option<TraceSink>) {
        self.close();
        eprintln!("\n==== phase summary ====");
        eprintln!("  {:<12} {:>12}", "phase", "wall (ms)");
        let mut tree = SpanTree::new();
        for (id, micros) in &self.done {
            eprintln!("  {:<12} {:>12.2}", id, *micros as f64 / 1000.0);
            tree.add_measured(&["experiments", &id.replace('/', "_")], *micros, 1);
        }
        let total: u64 = self.done.iter().map(|(_, m)| m).sum();
        eprintln!("  {:<12} {:>12.2}", "total", total as f64 / 1000.0);
        tree.add_measured(&["experiments"], total, 1);
        for rec in tree.to_records("experiments") {
            sink_of(trace).record(rec);
        }
    }
}

/// The trace sink as a recorder, or a null recorder when tracing is off —
/// so every instrumentation site has a single code path.
fn sink_of(trace: &mut Option<TraceSink>) -> Box<dyn Recorder + '_> {
    match trace.as_mut() {
        Some(s) => Box::new(s),
        None => Box::new(NullRecorder),
    }
}

fn report_family<F: LowerBoundFamily + Sync>(
    out: &mut dyn Write,
    trace: &mut Option<TraceSink>,
    fam: &F,
    inputs: &[(BitString, BitString)],
    jobs: usize,
    pool_acc: &mut Option<PoolStats>,
) {
    let (res, stats) = verify_family_with(fam, inputs, &VerifyOptions::with_jobs(jobs));
    if let Some(pool) = &stats.pool {
        match pool_acc {
            Some(acc) => acc.absorb(pool),
            None => *pool_acc = Some(pool.clone()),
        }
    }
    match res {
        Ok(r) => writeln!(
            out,
            "  {:<55} n = {:4}  K = {:5}  |Ecut| = {:3}  pairs = {:3}  VERIFIED",
            r.name,
            r.n,
            r.k_input,
            r.cut_size(),
            r.pairs_checked
        ),
        Err(e) => writeln!(out, "  {} VIOLATION: {e}", fam.name()),
    }
    .expect("write output");
    for rec in stats.to_records("core.verify") {
        sink_of(trace).record(rec.with("family", fam.name()));
    }
}

struct Args {
    out_path: Option<String>,
    trace_path: Option<String>,
    jobs: usize,
    faults_seed: Option<u64>,
    profile: bool,
    sim_jobs: Option<usize>,
    sweep_plans: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        out_path: None,
        trace_path: None,
        jobs: 0, // 0 = all available cores
        faults_seed: None,
        profile: false,
        sim_jobs: None,
        sweep_plans: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => parsed.out_path = Some(args.next().expect("--out requires a path")),
            "--trace" => parsed.trace_path = Some(args.next().expect("--trace requires a path")),
            "--jobs" => {
                parsed.jobs = args
                    .next()
                    .expect("--jobs requires a worker count")
                    .parse()
                    .expect("--jobs requires a number (0 = all cores)");
            }
            "--faults" => {
                parsed.faults_seed = Some(
                    args.next()
                        .expect("--faults requires a seed")
                        .parse()
                        .expect("--faults requires a u64 seed"),
                );
            }
            "--profile" => parsed.profile = true,
            "--sim-jobs" => {
                parsed.sim_jobs = Some(
                    args.next()
                        .expect("--sim-jobs requires a worker count")
                        .parse()
                        .expect("--sim-jobs requires a number (0 = all cores)"),
                );
            }
            "--sweep" => {
                parsed.sweep_plans = Some(
                    args.next()
                        .expect("--sweep requires a plan count")
                        .parse()
                        .expect("--sweep requires a u64 plan count"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: experiments [--out <path>] [--trace <path.jsonl>] [--jobs <N>] \
                     [--faults <seed>] [--profile] [--sim-jobs <N>] [--sweep <plans>]"
                );
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// The `--faults <seed>` demo: leader election on a ring under the seeded
/// plan, with per-fault-type counters and a self-certification verdict.
/// Everything prints to stderr so the main report is unaffected.
fn run_fault_demo(seed: u64, trace: &mut Option<TraceSink>) {
    use congest_hardness::faults::{run_certified_with_retry, FaultPlan, RetryPolicy};
    use congest_hardness::sim::algorithms::LeaderElection;

    let g = generators::cycle(12);
    let sim = Simulator::new(&g);
    let plan = FaultPlan::seeded(seed);
    let mut link = plan.clone();
    let mut alg = LeaderElection::new(12);
    let mut obs = TraceObserver::new(sink_of(trace));
    let stats = sim
        .try_run_with(&mut alg, 10_000, &mut obs, &mut link)
        .expect("leader election is CONGEST-legal");
    eprintln!("\n==== fault injection demo (seed {seed}) ====");
    eprintln!(
        "  leader election on cycle(12): {} rounds, {} messages, outcome = {}",
        stats.rounds,
        stats.messages,
        stats.outcome.as_str()
    );
    eprintln!("  injected faults ({} total):", stats.faults.total());
    for (kind, count) in stats.faults.entries() {
        eprintln!("    {kind:<10} {count:>6}");
    }
    match run_certified_with_retry(
        &sim,
        || LeaderElection::new(12),
        10_000,
        &plan,
        RetryPolicy::default(),
    ) {
        Ok(run) => eprintln!(
            "  self-certification: output certified after {} attempt(s)",
            run.attempts
        ),
        Err(e) => eprintln!("  self-certification: {e}"),
    }
}

/// The `--sweep <plans>` driver: Monte-Carlo robustness sweeps over the
/// self-certifying demo protocols, then the adversarial placement search
/// with its random control. The report prints to stderr (the main report
/// stays byte-identical); the sweep rows and the serialized worst-case
/// plan go to the trace so the attack replays exactly from the artifact.
fn run_robustness_sweep(plans: u64, jobs: usize, trace: &mut Option<TraceSink>) {
    use congest_hardness::faults::{
        adversarial_search, random_placements, AdversaryConfig, FaultBudget, FaultPlan,
        RetryPolicy, SweepConfig, SweepReport,
    };
    use congest_hardness::sim::algorithms::{BfsTree, LeaderElection};

    let cfg = SweepConfig {
        plans,
        base_seed: 0x5EED_CAFE,
        max_rounds: 10_000,
        retry: RetryPolicy::default(),
        jobs,
    };
    let n = 12;
    let g = generators::cycle(n);
    let sim = Simulator::new(&g);
    let mut report = SweepReport::new(&cfg);
    report.push(congest_hardness::faults::run_sweep(
        &sim,
        "leader_election",
        || LeaderElection::new(n),
        FaultPlan::seeded,
        &cfg,
    ));
    report.push(congest_hardness::faults::run_sweep(
        &sim,
        "bfs_tree",
        || BfsTree::new(n, 0),
        FaultPlan::seeded,
        &cfg,
    ));
    eprintln!("\n==== robustness sweep (--sweep {plans}) ====");
    for line in report.render().lines() {
        eprintln!("  {line}");
    }
    for rec in report.to_records("faults.sweep") {
        sink_of(trace).record(rec);
    }

    // The adversarial search vs. its random control on the same topology.
    let adv_cfg = AdversaryConfig {
        candidate_pool: 8,
        search_iters: 32,
        ..AdversaryConfig::new(FaultBudget::links(1))
    };
    let outcome = adversarial_search(&sim, || LeaderElection::new(n), &adv_cfg);
    let random = random_placements(&sim, || LeaderElection::new(n), &adv_cfg, 16);
    let random_best = random.iter().max().copied();
    eprintln!(
        "  adversary (budget: 1 link, {} evals): forced_failure = {}, attempts = {}, rounds = {} \
         (baseline {} rounds)",
        outcome.evals,
        outcome.score.forced_failure,
        outcome.score.attempts,
        outcome.score.rounds,
        outcome.baseline.rounds
    );
    if let Some(rb) = random_best {
        eprintln!(
            "  best of 16 random placements: forced_failure = {}, attempts = {}, rounds = {}",
            rb.forced_failure, rb.attempts, rb.rounds
        );
    }
    for rec in outcome.plan.to_records() {
        sink_of(trace).record(rec);
    }
}

/// The `--sim-jobs <N>` diagnostic: the simulator on `N` shards on a
/// seeded whole-graph-learning workload, cross-checked against the
/// one-shard run, with the per-shard utilization table. Everything
/// prints to stderr so the main report is unaffected.
fn run_sharded_demo(sim_jobs: usize, trace: &mut Option<TraceSink>) {
    use congest_hardness::sim::algorithms::LearnGraph;
    use congest_hardness::sim::NoopRoundObserver;

    let mut rng = StdRng::seed_from_u64(4242);
    let n = 512;
    let g = generators::connected_gnp(n, 6.0 / (n as f64 - 1.0), &mut rng);

    let mut one_alg = LearnGraph::new(n);
    let t0 = Instant::now();
    let one_shard = Simulator::with_bandwidth(&g, 64).run(&mut one_alg, 1_000_000);
    let one_wall = t0.elapsed();

    let sim = Simulator::with_bandwidth(&g, 64).with_jobs(sim_jobs);
    let mut alg = LearnGraph::new(n);
    let t0 = Instant::now();
    let (stats, pool) = sim
        .try_run_sharded_with(
            &mut alg,
            1_000_000,
            &mut NoopRoundObserver,
            &mut PerfectLink,
        )
        .expect("whole-graph learning is CONGEST-legal");
    let sharded_wall = t0.elapsed();

    eprintln!("\n==== sharded simulator demo (--sim-jobs {sim_jobs}) ====");
    eprintln!(
        "  learn_graph on connected G({n}, 6/(n-1)): {} rounds, {} messages, {} bits",
        stats.rounds, stats.messages, stats.total_bits
    );
    eprintln!(
        "  one shard: {:.2} ms; {} shards: {:.2} ms ({:.2}x)",
        one_wall.as_secs_f64() * 1000.0,
        pool.workers,
        sharded_wall.as_secs_f64() * 1000.0,
        one_wall.as_secs_f64() / sharded_wall.as_secs_f64().max(1e-9),
    );
    eprintln!(
        "  stats identical to one shard: {}",
        if stats == one_shard {
            "yes"
        } else {
            "NO — BUG"
        }
    );
    eprintln!(
        "  per-shard utilization ({:.1}% overall):",
        pool.utilization().unwrap_or(0.0) * 100.0
    );
    for w in 0..pool.workers {
        eprintln!(
            "  shard {w}: {:>6} steps, busy {:>10.2} ms, idle {:>10.2} ms",
            pool.items_per_worker.get(w).copied().unwrap_or(0),
            pool.busy_micros_per_worker.get(w).copied().unwrap_or(0) as f64 / 1000.0,
            pool.idle_micros_per_worker.get(w).copied().unwrap_or(0) as f64 / 1000.0,
        );
    }
    for rec in pool.to_records("sim.pool") {
        sink_of(trace).record(rec);
    }
}

fn main() {
    let Args {
        out_path,
        trace_path,
        jobs,
        faults_seed,
        profile,
        sim_jobs,
        sweep_plans,
    } = parse_args();
    let mut out: Box<dyn Write> = match &out_path {
        Some(p) => Box::new(BufWriter::new(
            File::create(p).unwrap_or_else(|e| panic!("cannot create {p}: {e}")),
        )),
        None => Box::new(io::stdout()),
    };
    let mut trace: Option<TraceSink> = trace_path.as_ref().map(|p| {
        jsonl_file_sink(p).unwrap_or_else(|e| panic!("cannot create trace file {p}: {e}"))
    });
    let mut prof = profile.then(PhaseProfile::every_round);
    let mut pool_acc: Option<PoolStats> = None;
    run(&mut *out, &mut trace, jobs, prof.as_mut(), &mut pool_acc);
    if let Some(p) = &prof {
        eprintln!("\n==== E7 simulator phase profile ====");
        for line in p.render().lines() {
            eprintln!("  {line}");
        }
        eprintln!(
            "  run coverage: {:.1}% of simulator wall time attributed to named phases",
            p.run_coverage().unwrap_or(0.0) * 100.0
        );
        for rec in p.to_records("sim.profile") {
            sink_of(&mut trace).record(rec);
        }
    }
    if let Some(pool) = &pool_acc {
        eprintln!("\n==== verification pool utilization ====");
        eprintln!(
            "  {} workers, busy {:.2} ms, idle {:.2} ms, utilization {:.1}%",
            pool.workers,
            pool.busy_micros() as f64 / 1000.0,
            pool.idle_micros() as f64 / 1000.0,
            pool.utilization().unwrap_or(0.0) * 100.0
        );
        for w in 0..pool.workers {
            eprintln!(
                "  worker {w}: {:>5} items, busy {:>10.2} ms, idle {:>10.2} ms",
                pool.items_per_worker.get(w).copied().unwrap_or(0),
                pool.busy_micros_per_worker.get(w).copied().unwrap_or(0) as f64 / 1000.0,
                pool.idle_micros_per_worker.get(w).copied().unwrap_or(0) as f64 / 1000.0,
            );
        }
        for rec in pool.to_records("par.pool") {
            sink_of(&mut trace).record(rec);
        }
    }
    if let Some(j) = sim_jobs {
        run_sharded_demo(j, &mut trace);
    }
    if let Some(seed) = faults_seed {
        run_fault_demo(seed, &mut trace);
    }
    if let Some(plans) = sweep_plans {
        run_robustness_sweep(plans, jobs, &mut trace);
    }
    if let Some(sink) = trace {
        let written = sink.written();
        let errors = sink.errors();
        drop(sink.into_inner());
        eprintln!(
            "trace: {written} records written to {} ({errors} write errors)",
            trace_path.as_deref().unwrap_or("?")
        );
    }
    out.flush().expect("flush output");
}

fn run(
    out: &mut dyn Write,
    trace: &mut Option<TraceSink>,
    jobs: usize,
    mut prof: Option<&mut PhaseProfile>,
    pool_acc: &mut Option<PoolStats>,
) {
    let mut rng = StdRng::seed_from_u64(20260706);
    let mut sections = Sections::new();

    sections.start(
        out,
        "E0",
        "communication substrate (Section 1.3) — measured exactly",
    );
    for k in 1..=3usize {
        let (measured, cc_stats) = deterministic_cc_with_stats(&Disjointness::new(k));
        let quoted = disjointness_profile(k as u64).deterministic.bits;
        writeln!(
            out,
            "  CC(DISJ_{k}) measured by protocol-tree search = {measured}, table = {quoted} \
             ({} rects, {} memo hits)",
            cc_stats.rects_explored, cc_stats.memo_hits
        )
        .expect("write output");
        sink_of(trace).record(cc_stats.to_record("comm.exact").with("k", k));
    }
    writeln!(
        out,
        "  Γ(DISJ_2^20) = {}, Γ(EQ_2^20) = {}  (both O(1): Section 5.2's lever)",
        disjointness_profile(1 << 20).gamma(),
        equality_profile(1 << 20).gamma()
    )
    .expect("write output");
    for k in [4usize, 8] {
        let set = congest_hardness::comm::exact::disjointness_fooling_set(k);
        let bound = congest_hardness::comm::exact::fooling_set_bound(&Disjointness::new(k), &set)
            .expect("canonical fooling set");
        writeln!(
            out,
            "  fooling set of size 2^{k} verified ⇒ CC(DISJ_{k}) ≥ {bound} (the Ω(K) mechanism)"
        )
        .expect("write output");
    }

    sections.start(out, "E1", "MDS family (Theorem 2.1, Figure 1)");
    report_family(
        out,
        trace,
        &MdsFamily::new(2),
        &all_inputs(4),
        jobs,
        pool_acc,
    );
    report_family(
        out,
        trace,
        &MdsFamily::new(4),
        &sample_inputs(16, 3, &mut rng),
        jobs,
        pool_acc,
    );
    writeln!(out, "  Ω(n²/log²n) shape (K = k², |Ecut| = 4·log k):").expect("write output");
    for logk in [4u32, 6, 8, 10] {
        let k = 1usize << logk;
        let fam = MdsFamily::new(k);
        let cc = disjointness_profile((k * k) as u64).deterministic.bits;
        writeln!(
            out,
            "    k = {:5}  n = {:6}  implied bound = Ω({})",
            k,
            fam.num_vertices(),
            theorem_1_1_round_bound(cc, 4 * logk as u64, fam.num_vertices() as u64)
        )
        .expect("write output");
    }

    sections.start(
        out,
        "E2/E3/E4",
        "Hamiltonian path/cycle + 2-ECSS (Theorems 2.2-2.5, Figure 2)",
    );
    report_family(
        out,
        trace,
        &HamPathFamily::new(2),
        &all_inputs(4),
        jobs,
        pool_acc,
    );
    let fam = HamPathFamily::new(4);
    let (x, y) = intersecting_pair(4);
    let g = fam.build(&x, &y);
    let w = fam.witness_path(0, 0);
    writeln!(
        out,
        "  k = 4 (n = {}): Claim 2.1 witness path valid = {}",
        fam.num_vertices(),
        congest_hardness::solvers::hamilton::is_directed_ham_path(&g, &w)
    )
    .expect("write output");
    {
        // The backtracking oracle on the same instance, with its search
        // effort metered.
        let (found, ham_stats) =
            congest_hardness::solvers::hamilton::find_directed_ham_path_with_stats(&g);
        writeln!(
            out,
            "  backtracker finds a path = {} ({} dfs nodes, {} prunes, {} backtracks)",
            found.is_some(),
            ham_stats.nodes,
            ham_stats.prunes,
            ham_stats.backtracks
        )
        .expect("write output");
        sink_of(trace).record(
            ham_stats
                .to_record("solver.hamilton")
                .with("n", g.num_nodes()),
        );
    }

    {
        // Lemma 2.2's CONGEST simulation, live: leader election on the
        // tripled reduction graph hosted on the original graph.
        use congest_hardness::sim::algorithms::LeaderElection;
        use congest_hardness::sim::hosting::{HostMapping, HostedAlgorithm};
        let host = generators::cycle(10);
        let mut reduced = congest_hardness::prelude::Graph::new(30);
        for v in 0..10 {
            reduced.add_edge(3 * v, 3 * v + 1);
            reduced.add_edge(3 * v + 1, 3 * v + 2);
        }
        for (u, v, _) in host.edges() {
            reduced.add_edge(3 * u + 2, 3 * v);
            reduced.add_edge(3 * v + 2, 3 * u);
        }
        let mapping = HostMapping::tripled(reduced.clone());
        let mut direct = LeaderElection::new(30);
        let d = Simulator::with_bandwidth(&reduced, 128).run(&mut direct, 10_000);
        let mut hosted = HostedAlgorithm::new(LeaderElection::new(30), mapping, 10);
        let h = Simulator::with_bandwidth(&host, 128).run(&mut hosted, 10_000);
        writeln!(
            out,
            "  Lemma 2.2 hosting: direct {} rounds on G', hosted {} rounds on G (capacity-2 multiplexing)",
            d.rounds, h.rounds
        )
        .expect("write output");
    }

    sections.start(out, "E5", "Steiner tree family (Theorem 2.7)");
    let st = SteinerFamily::new(2);
    let (x, y) = intersecting_pair(2);
    let gs = st.build(&x, &y);
    let min_yes = steiner::min_steiner_tree_edges(&gs, &st.terminals()).expect("connected");
    let (x0, y0) = disjoint_pair(2);
    let gs0 = st.build(&x0, &y0);
    let min_no = steiner::min_steiner_tree_edges(&gs0, &st.terminals()).expect("connected");
    writeln!(
        out,
        "  target = {} edges; YES optimum = {min_yes}; NO optimum = {min_no}",
        st.target_size()
    )
    .expect("write output");

    sections.start(out, "E6", "weighted max-cut family (Theorem 2.8, Figure 3)");
    let mc = MaxCutFamily::new(2);
    let (x, y) = intersecting_pair(2);
    let g = mc.build(&x, &y);
    // The YES optimum by the exhaustive reference walk, whose step count
    // the report prints; the NO optimum by the branch and bound.
    let (yes_cut, cut_stats) = maxcut::gray_code_max_cut_with_stats(&g);
    let yes = yes_cut.weight;
    let (x0, y0) = disjoint_pair(2);
    let no = maxcut::max_cut(&mc.build(&x0, &y0)).weight;
    writeln!(
        out,
        "  M = {}; YES optimum = {yes} (= M); NO optimum = {no} (= M - gap); \
         gray-code walk = {} steps",
        mc.target_weight(),
        cut_stats.nodes
    )
    .expect("write output");
    sink_of(trace).record(
        cut_stats
            .to_record("solver.maxcut")
            .with("n", g.num_nodes()),
    );
    {
        // k = 4 via the structural oracle (Claims 2.9-2.11), which the
        // core tests check against the exact search at k = 2, 4 and 8;
        // its `[structural oracle]` label is part of the pinned report.
        use congest_hardness::core::maxcut::StructuralMaxCutFamily;
        let fam = StructuralMaxCutFamily(MaxCutFamily::new(4));
        let mut rng2 = StdRng::seed_from_u64(99);
        let inputs = sample_inputs(16, 4, &mut rng2);
        report_family(out, trace, &fam, &inputs, jobs, pool_acc);
    }

    sections.start(out, "E7", "(1-ε) max-cut in the simulator (Theorem 2.9)");
    writeln!(
        out,
        "  {:>4} {:>5} {:>8} {:>10} {:>10} {:>7}",
        "n", "p", "rounds", "bits", "cut bits", "ratio"
    )
    .expect("write output");
    for n in [16usize, 20, 24] {
        let g = generators::connected_gnp(n, 0.35, &mut rng);
        let opt = maxcut::max_cut(&g).weight;
        // Designate the Alice↔Bob cut as the edges crossing the node-id
        // halves, and meter its traffic per round.
        let cut: Vec<(usize, usize)> = g
            .edges()
            .filter(|&(u, v, _)| (u < n / 2) != (v < n / 2))
            .map(|(u, v, _)| (u, v))
            .collect();
        for p in [0.5, 1.0] {
            let sim = Simulator::with_bandwidth(&g, 96).stop_on_quiescence(false);
            let mut alg = SampledMaxCut::new(n, p, LocalCutSolver::Exact, n as u64);
            let mut obs = TraceObserver::new(sink_of(trace)).with_cut(&cut);
            let stats = match prof.as_deref_mut() {
                Some(p) => sim
                    .try_run_profiled(&mut alg, 1_000_000, &mut obs, &mut PerfectLink, p)
                    .expect("sampled max-cut is CONGEST-legal"),
                None => sim.run_observed(&mut alg, 1_000_000, &mut obs),
            };
            let side: Vec<bool> = (0..n).map(|v| alg.side(v).expect("assigned")).collect();
            writeln!(
                out,
                "  {:>4} {:>5.1} {:>8} {:>10} {:>10} {:>7.3}",
                n,
                p,
                stats.rounds,
                stats.total_bits,
                stats.bits_across(&cut),
                g.cut_weight(&side) as f64 / opt as f64
            )
            .expect("write output");
        }
    }

    sections.start(out, "E8/E9", "bounded-degree chain (Section 3)");
    report_family(
        out,
        trace,
        &MvcMaxIsFamily::new(2),
        &all_inputs(4),
        jobs,
        pool_acc,
    );
    let bd = BoundedDegreeMaxIs::new(2);
    let (x, y) = intersecting_pair(2);
    let b = bd.build(&x, &y);
    let diam = metrics::diameter(&b.graph);
    writeln!(
        out,
        "  G' at k = 2: n' = {}, Δ = {}, diameter = {:?}, m_G = {}, m_exp = {}, target α = {}",
        b.graph.num_nodes(),
        b.graph.max_degree(),
        diam,
        b.m_g,
        b.m_exp,
        b.target_alpha
    )
    .expect("write output");

    sections.start(
        out,
        "E10/E11/E12",
        "MaxIS code-gadget gaps (Theorems 4.1-4.3, Figure 4)",
    );
    writeln!(
        out,
        "  {:>3} {:>3} {:>5} {:>9} {:>9} {:>8} {:>10}",
        "k", "ℓ", "n", "YES", "NO", "ratio", "bb nodes"
    )
    .expect("write output");
    for (k, ell) in [(2usize, 2usize), (2, 3), (2, 5), (4, 2)] {
        let fam = WeightedMaxIsGapFamily::new(k, ell);
        let (x, y) = intersecting_pair(k);
        let (yes_sol, mis_stats) = mis::max_weight_independent_set_with_stats(&fam.build(&x, &y));
        let yes = yes_sol.weight;
        let (x0, y0) = disjoint_pair(k);
        let no = mis::max_weight_independent_set(&fam.build(&x0, &y0)).weight;
        writeln!(
            out,
            "  {:>3} {:>3} {:>5} {:>9} {:>9} {:>8.4} {:>10}",
            k,
            ell,
            fam.num_vertices(),
            yes,
            no,
            no as f64 / yes as f64,
            mis_stats.nodes
        )
        .expect("write output");
        sink_of(trace).record(
            mis_stats
                .to_record("solver.mis")
                .with("n", fam.num_vertices()),
        );
    }

    sections.start(
        out,
        "E13/E14",
        "k-MDS covering gaps (Theorems 4.4-4.5, Figure 5)",
    );
    let coll = CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
        .expect("2-covering collection");
    for radius in [2usize, 3] {
        let fam = KmdsFamily::new(coll.clone(), radius);
        let t = fam.input_len();
        let h = BitString::from_indices(t, &[0]);
        let yes = mds::min_weight_k_dominating_set(&fam.build(&h, &h), radius).weight;
        let x = BitString::from_indices(t, &[0, 2]);
        let yy = BitString::from_indices(t, &[1, 3]);
        let no = mds::min_weight_k_dominating_set(&fam.build(&x, &yy), radius).weight;
        writeln!(
            out,
            "  {}-MDS: YES = {yes}, NO = {no} (> r = {})",
            radius,
            coll.r()
        )
        .expect("write output");
    }

    sections.start(
        out,
        "E15/E16",
        "Steiner variants (Theorems 4.6-4.7, Figure 6)",
    );
    let small = CoveringCollection::random_verified(5, 6, 2, 0.5, 500_000, &mut rng)
        .expect("2-covering collection");
    {
        let fam = NodeWeightedSteinerFamily::new(small.clone());
        let t = fam.input_len();
        let h = BitString::from_indices(t, &[1]);
        let yes = steiner::min_node_weight_steiner(&fam.build(&h, &h), &fam.layout().terminals());
        let x = BitString::from_indices(t, &[0]);
        let yy = BitString::from_indices(t, &[1]);
        let no = steiner::min_node_weight_steiner(&fam.build(&x, &yy), &fam.layout().terminals());
        writeln!(out, "  node-weighted: YES = {yes:?}, NO = {no:?}").expect("write output");
    }
    {
        let fam = DirectedSteinerFamily::new(small);
        let t = fam.input_len();
        let h = BitString::from_indices(t, &[1]);
        let yes = steiner::min_directed_steiner(
            &fam.build(&h, &h),
            fam.layout().root(),
            &fam.layout().terminals(),
        );
        let z = BitString::zeros(t);
        let no = steiner::min_directed_steiner(
            &fam.build(&z, &z),
            fam.layout().root(),
            &fam.layout().terminals(),
        );
        writeln!(out, "  directed:      YES = {yes:?}, NO = {no:?}").expect("write output");
    }

    sections.start(out, "E17", "restricted MDS (Theorem 4.8, Figure 7)");
    let coll2 = CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
        .expect("2-covering collection");
    let fam = RestrictedMdsFamily::new(coll2);
    let t = 6;
    let h = BitString::from_indices(t, &[2]);
    let g = fam.build(&h, &h);
    let (yes_sol, mds_stats) = mds::min_weight_dominating_set_with_stats(&g);
    let yes = yes_sol.weight;
    let x = BitString::from_indices(t, &[0, 1]);
    let yy = BitString::from_indices(t, &[2, 3]);
    let no = mds::min_weight_dominating_set(&fam.build(&x, &yy)).weight;
    writeln!(
        out,
        "  YES = {yes}, NO = {no} (> r); local-aggregate simulation costs {} bits/round; \
         B&B explored {} nodes ({} prunes)",
        fam.aggregate_bits_per_round(),
        mds_stats.nodes,
        mds_stats.prunes
    )
    .expect("write output");
    sink_of(trace).record(mds_stats.to_record("solver.mds").with("n", g.num_nodes()));
    {
        // Execute the Theorem 4.8 simulation: min-flooding with shared
        // element vertices, exact agreement with the direct run.
        use congest_hardness::limits::aggregate::{run_direct, simulate_two_party, MinWeightFlood};
        let n = g.num_nodes();
        let mut owner: Vec<Option<bool>> = vec![Some(false); n];
        for v in fam.alice_vertices() {
            owner[v] = Some(true);
        }
        for v in fam.shared_vertices() {
            owner[v] = None;
        }
        let direct = run_direct(&MinWeightFlood, &g, 4);
        let mut ch = Channel::new();
        let simulated = simulate_two_party(&MinWeightFlood, &g, &owner, 4, &mut ch);
        writeln!(
            out,
            "  Theorem 4.8 simulation: 4 rounds of min-flooding, {} bits, exact = {}",
            ch.total_bits(),
            direct == simulated
        )
        .expect("write output");
    }

    sections.start(out, "E18/E19", "limitation protocols (Claims 5.1-5.9)");
    let mut g = generators::connected_gnp(16, 0.3, &mut rng);
    for v in 0..16 {
        g.set_node_weight(v, rng.gen_range(1..8));
    }
    let split = SplitGraph::new(g.clone(), &(0..8).collect::<Vec<_>>());
    // One traced channel for the whole section: each protocol runs against
    // the inner channel and is captured as a `phase` transcript record.
    let mut tch = TracedChannel::new(sink_of(trace));
    let p1 = lim::mds_2_approx(&split, tch.inner_mut());
    tch.checkpoint("mds_2_approx");
    writeln!(
        out,
        "  MDS 2-approx: ratio {:.3}, {} bits (|Ecut| = {})",
        p1.value as f64 / mds::min_weight_dominating_set(&g).weight as f64,
        p1.bits,
        split.cut_size()
    )
    .expect("write output");
    let p2 = lim::mvc_3_2_approx(&split, tch.inner_mut());
    tch.checkpoint("mvc_3_2_approx");
    writeln!(
        out,
        "  MVC 3/2-approx: ratio {:.3}, {} bits",
        p2.value as f64 / mis::min_weight_vertex_cover(&g).weight as f64,
        p2.bits
    )
    .expect("write output");
    let p3 = lim::maxcut_2_3_approx(&split, tch.inner_mut());
    tch.checkpoint("maxcut_2_3_approx");
    writeln!(
        out,
        "  MaxCut 2/3-approx: ratio {:.3}, {} bits",
        p3.value as f64 / maxcut::max_cut(&g).weight as f64,
        p3.bits
    )
    .expect("write output");
    let (section_channel, _) = tch.finish();
    writeln!(
        out,
        "  section transcript: {} bits across {} messages",
        section_channel.total_bits(),
        section_channel.messages()
    )
    .expect("write output");

    sections.start(
        out,
        "E20/E21",
        "certificates and PLS (Claims 5.11-5.13, Lemma 5.1)",
    );
    let g = generators::connected_gnp(18, 0.25, &mut rng);
    let all: Vec<(usize, usize)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    use congest_hardness::limits::pls::*;
    let inst = MarkedGraph::new(g.clone(), &all);
    let schemes: Vec<(Box<dyn ProofLabelingScheme>, &MarkedGraph)> = vec![
        (Box::new(ConnectivityScheme), &inst),
        (Box::new(BipartitenessScheme), &inst),
    ];
    for (s, i) in &schemes {
        if let Some(labels) = s.prove(i) {
            writeln!(
                out,
                "  PLS {:<22} label size = {} bits",
                s.name(),
                max_label_bits(&labels)
            )
            .expect("write output");
        } else {
            writeln!(
                out,
                "  PLS {:<22} predicate false on this instance",
                s.name()
            )
            .expect("write output");
        }
    }
    let n = 1u64 << 20;
    writeln!(
        out,
        "  Corollary 5.3 ceiling with O(log n) PLS + Γ(DISJ): Ω({})",
        corollary_5_3_ceiling(60, 60, disjointness_profile(n * n).gamma(), n)
    )
    .expect("write output");

    sections.start(
        out,
        "E22",
        "Theorem 1.1 pipeline: generic exact algorithm, cut-metered",
    );
    for k in [2usize, 4] {
        let (x, y) = intersecting_pair(k);
        let m = generic_exact_attack(&MdsFamily::new(k), &x, &y);
        writeln!(
            out,
            "  MDS k = {k}: {} rounds, {} cut bits ≥ CC(DISJ_K) = {} ✓ (headroom {:.0}×)",
            m.rounds,
            m.cut_bits,
            m.cc_lower_bound,
            m.cut_bits as f64 / m.cc_lower_bound as f64
        )
        .expect("write output");
        sink_of(trace).record(
            Record::new("core.attack", "theorem_1_1")
                .with("k", k)
                .with("rounds", m.rounds)
                .with("cut_bits", m.cut_bits)
                .with("cc_lower_bound", m.cc_lower_bound),
        );
    }

    sections.summarize(trace);
    writeln!(out, "\nAll experiments completed.").expect("write output");
}
