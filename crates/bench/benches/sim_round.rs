//! Simulator hot-path throughput: `learn_graph` and `maxcut_sampling` on
//! fixed seeded instances at several `n` — the perf trajectory of the
//! CONGEST engine itself.
//!
//! Besides the printed medians, this bench writes `BENCH_sim_round.json`
//! at the workspace root (CI uploads it next to `BENCH_verify_family.json`):
//! per-entry wall time, rounds/sec, bits/sec, messages/sec, and the peak
//! inbox size any single node saw in one round. Workloads are seeded, so
//! the executed rounds/messages/bits are deterministic across machines —
//! only the wall-clock columns vary.
//!
//! A second group drives the *sharded* engine across a threads axis
//! (`"threads"` in the JSON is part of the entry identity): `learn_graph`
//! at n ∈ {1k, 10k} × {1, 2, 4, 8} workers and min-ID flooding at
//! n ∈ {100k, 1M} × {1, 8}, three samples per point. The wall-time
//! columns of that grid are the engine's scaling curve.
//!
//! A counting global allocator additionally measures steady-state
//! allocations-per-round on the `learn_graph` n=1000 single-worker
//! point: two identically seeded runs capped inside the drain phase
//! differ only by a window of rounds, so the allocation-count delta
//! divided by the round delta is the per-round steady state, with all
//! warm-up growth cancelled exactly. The top-level `"available_cores"`
//! field records the machine, so a 1-CPU run is never read as a
//! scaling curve.

use congest_graph::generators;
use congest_sim::algorithms::{LeaderElection, LearnGraph, LocalCutSolver, SampledMaxCut};
use congest_sim::{
    CongestAlgorithm, NodeContext, NoopRoundObserver, PerfectLink, PhaseProfile, RoundOutcome,
    SendBuf, ShardableAlgorithm, SimStats, Simulator,
};
use criterion::black_box;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SAMPLES: usize = 7;

/// Pass-through allocator counting every allocation event (fresh
/// allocations and reallocations; frees are not events). The counter is
/// what the steady-state gate reads: a warm round performs zero of them.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` verbatim; the count is observational.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Transparent wrapper recording the largest inbox any node received in
/// a single round — the quantity the inbox arenas are sized by.
struct PeakInbox<A> {
    inner: A,
    peak: usize,
}

impl<A: CongestAlgorithm> PeakInbox<A> {
    fn new(inner: A) -> Self {
        PeakInbox { inner, peak: 0 }
    }
}

impl<A: CongestAlgorithm> CongestAlgorithm for PeakInbox<A> {
    type Msg = A::Msg;
    type Output = A::Output;

    fn message_bits(msg: &A::Msg) -> u64 {
        A::message_bits(msg)
    }

    fn init(&mut self, node: usize, ctx: &NodeContext<'_>) -> Vec<(usize, A::Msg)> {
        self.inner.init(node, ctx)
    }

    fn round(
        &mut self,
        node: usize,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(usize, A::Msg)],
    ) -> (Vec<(usize, A::Msg)>, RoundOutcome) {
        self.peak = self.peak.max(inbox.len());
        self.inner.round(node, ctx, round, inbox)
    }

    fn round_into(
        &mut self,
        node: usize,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(usize, A::Msg)],
        out: &mut SendBuf<A::Msg>,
    ) -> RoundOutcome {
        self.peak = self.peak.max(inbox.len());
        self.inner.round_into(node, ctx, round, inbox, out)
    }

    fn output(&self, node: usize) -> Option<A::Output> {
        self.inner.output(node)
    }

    fn corrupt(msg: &A::Msg, bit: u32) -> Option<A::Msg> {
        A::corrupt(msg, bit)
    }
}

impl<A: ShardableAlgorithm> ShardableAlgorithm for PeakInbox<A> {
    fn split_shard(&mut self, lo: usize, hi: usize) -> Self {
        PeakInbox {
            inner: self.inner.split_shard(lo, hi),
            peak: 0,
        }
    }

    fn absorb_shard(&mut self, shard: Self, lo: usize, hi: usize) {
        self.inner.absorb_shard(shard.inner, lo, hi);
        self.peak = self.peak.max(shard.peak);
    }
}

struct Entry {
    alg: &'static str,
    n: usize,
    edges: usize,
    /// Worker count of a sharded-engine point; `None` for a serial (one-shard) run.
    threads: Option<usize>,
    wall: Duration,
    stats: SimStats,
    peak_inbox: usize,
    /// Steady-state allocations-per-round, where measured (see
    /// [`steady_allocs_per_round`]); gated exactly by the regression gate.
    allocs_per_round: Option<u64>,
}

/// Median wall time of `SAMPLES` runs, each on a fresh identically-seeded
/// algorithm instance; the executed work is identical across samples.
fn measure<A: CongestAlgorithm, F: Fn() -> A>(
    alg: &'static str,
    g: &congest_graph::Graph,
    bandwidth: u64,
    quiescence: bool,
    max_rounds: u64,
    fresh: F,
) -> Entry {
    let mut times = Vec::with_capacity(SAMPLES);
    let mut last: Option<(SimStats, usize)> = None;
    for _ in 0..SAMPLES {
        let sim = Simulator::with_bandwidth(g, bandwidth).stop_on_quiescence(quiescence);
        let mut wrapped = PeakInbox::new(fresh());
        let start = Instant::now();
        let stats = sim.run(&mut wrapped, max_rounds);
        times.push(start.elapsed());
        black_box(&stats);
        last = Some((stats, wrapped.peak));
    }
    times.sort_unstable();
    let wall = times[times.len() / 2];
    let (stats, peak_inbox) = last.expect("SAMPLES > 0");
    let secs = wall.as_secs_f64().max(1e-9);
    println!(
        "sim_round/{alg}/n={n:<4} rounds: {rounds:>6}  bits: {bits:>9}  wall: {wall:>10.3?}  \
         rounds/s: {rps:>12.0}  bits/s: {bps:>14.0}  peak inbox: {peak_inbox}",
        n = g.num_nodes(),
        rounds = stats.rounds,
        bits = stats.total_bits,
        rps = stats.rounds as f64 / secs,
        bps = stats.total_bits as f64 / secs,
    );
    Entry {
        alg,
        n: g.num_nodes(),
        edges: g.num_edges(),
        threads: None,
        wall,
        stats,
        peak_inbox,
        allocs_per_round: None,
    }
}

/// Sharded-engine twin of [`measure`]: the same workload driven through
/// `try_run_sharded` at a fixed worker count. Fewer samples than the
/// serial points — the instances here are big enough that the median
/// stabilizes quickly and the full grid must stay CI-affordable.
#[allow(clippy::too_many_arguments)]
fn measure_sharded<A: ShardableAlgorithm, F: Fn() -> A>(
    alg: &'static str,
    g: &congest_graph::Graph,
    bandwidth: u64,
    quiescence: bool,
    max_rounds: u64,
    threads: usize,
    samples: usize,
    fresh: F,
) -> Entry
where
    A::Msg: Send,
{
    let mut times = Vec::with_capacity(samples);
    let mut last: Option<(SimStats, usize)> = None;
    for _ in 0..samples {
        let sim = Simulator::with_bandwidth(g, bandwidth)
            .stop_on_quiescence(quiescence)
            .with_jobs(threads);
        let mut wrapped = PeakInbox::new(fresh());
        let start = Instant::now();
        let stats = sim
            .try_run_sharded(&mut wrapped, max_rounds)
            .expect("bench workloads are CONGEST-legal");
        times.push(start.elapsed());
        black_box(&stats);
        last = Some((stats, wrapped.peak));
    }
    times.sort_unstable();
    let wall = times[times.len() / 2];
    let (stats, peak_inbox) = last.expect("samples > 0");
    let secs = wall.as_secs_f64().max(1e-9);
    println!(
        "sim_round/{alg}/n={n:<7}/threads={threads} rounds: {rounds:>6}  bits: {bits:>10}  \
         wall: {wall:>10.3?}  rounds/s: {rps:>10.0}  peak inbox: {peak_inbox}",
        n = g.num_nodes(),
        rounds = stats.rounds,
        bits = stats.total_bits,
        rps = stats.rounds as f64 / secs,
    );
    Entry {
        alg,
        n: g.num_nodes(),
        edges: g.num_edges(),
        threads: Some(threads),
        wall,
        stats,
        peak_inbox,
        allocs_per_round: None,
    }
}

/// Steady-state allocations-per-round of a single-worker sharded
/// `learn_graph` run, by the two-cap delta method: one run capped at
/// `hi` rounds and one at `hi - WINDOW` execute byte-identical work up
/// to the lower cap (same seeds), so subtracting their
/// allocation counts cancels every warm-up allocation — thread spawns,
/// arena growth, algorithm state doublings — exactly. What remains is
/// the allocation traffic of `WINDOW` steady-state rounds. Both caps sit
/// at ~3/4 of the run, inside the drain phase: edge discovery is long
/// finished (no interning, no bitset growth) while every queue still has
/// backlog, so all n nodes are still exercising the full wire path.
fn steady_allocs_per_round(g: &congest_graph::Graph) -> u64 {
    const WINDOW: u64 = 64;
    let n = g.num_nodes();
    let run = |cap: u64| -> (u64, u64) {
        let sim = Simulator::with_bandwidth(g, 64)
            .stop_on_quiescence(true)
            .with_jobs(1);
        let mut alg = LearnGraph::new(n);
        let before = alloc_events();
        let stats = sim
            .try_run_sharded(&mut alg, cap)
            .expect("bench workloads are CONGEST-legal");
        (alloc_events() - before, stats.rounds)
    };
    // Find the quiescence round, then place the measurement window at
    // three quarters of the run.
    let (_, total_rounds) = run(1_000_000);
    let hi = (total_rounds * 3 / 4).max(WINDOW + 1);
    let (allocs_lo, rounds_lo) = run(hi - WINDOW);
    let (allocs_hi, rounds_hi) = run(hi);
    assert_eq!(
        rounds_hi - rounds_lo,
        WINDOW,
        "measurement window collapsed: the run quiesced before the caps"
    );
    // Ceiling division: even a single allocation anywhere in the window
    // must not round down to a clean zero.
    allocs_hi.saturating_sub(allocs_lo).div_ceil(WINDOW)
}

/// Median profiling overhead on the `n = 128` `learn_graph` instance:
/// the same run plain vs. with a [`PhaseProfile`] attached, which
/// measures every round. This is the cost of `--profile`, and the
/// recorded number keeps it honest.
struct ProfileOverhead {
    baseline_micros: u128,
    profiled_micros: u128,
    run_coverage_pct: f64,
}

impl ProfileOverhead {
    fn overhead_pct(&self) -> f64 {
        let base = self.baseline_micros.max(1) as f64;
        100.0 * (self.profiled_micros as f64 - base) / base
    }
}

fn measure_profile_overhead(g: &congest_graph::Graph) -> ProfileOverhead {
    let n = g.num_nodes();
    // Shared runners drift by tens of percent over a second, which buries
    // a few-percent overhead if plain and profiled are timed in separate
    // blocks. Instead run them back-to-back in pairs (order alternating)
    // and take the median of the per-pair profiled/plain ratios: drift
    // hits both halves of a pair equally and cancels.
    const PAIRS: usize = 25;

    let run_plain = || {
        let sim = Simulator::with_bandwidth(g, 64).stop_on_quiescence(true);
        let mut alg = LearnGraph::new(n);
        let start = Instant::now();
        black_box(sim.run(&mut alg, 1_000_000));
        start.elapsed()
    };
    let run_profiled = |prof: &mut PhaseProfile| {
        let sim = Simulator::with_bandwidth(g, 64).stop_on_quiescence(true);
        let mut alg = LearnGraph::new(n);
        let start = Instant::now();
        black_box(
            sim.try_run_profiled(
                &mut alg,
                1_000_000,
                &mut NoopRoundObserver,
                &mut PerfectLink,
                prof,
            )
            .expect("legal run"),
        );
        start.elapsed()
    };

    let mut coverage = 0.0;
    let mut ratios = Vec::with_capacity(PAIRS);
    let mut plain_times = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let mut prof = PhaseProfile::every_round();
        let (plain, profiled) = if i % 2 == 0 {
            let p = run_plain();
            (p, run_profiled(&mut prof))
        } else {
            let q = run_profiled(&mut prof);
            (run_plain(), q)
        };
        coverage = prof.run_coverage().unwrap_or(0.0) * 100.0;
        ratios.push(profiled.as_secs_f64() / plain.as_secs_f64().max(1e-9));
        plain_times.push(plain);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    plain_times.sort_unstable();
    let baseline = plain_times[plain_times.len() / 2];

    let out = ProfileOverhead {
        baseline_micros: baseline.as_micros(),
        profiled_micros: (baseline.as_secs_f64() * ratio * 1e6) as u128,
        run_coverage_pct: coverage,
    };
    println!(
        "sim_round/profile_overhead/n={n:<4} plain: {:>8} µs  profiled: {:>8} µs  \
         overhead: {:+.2}%  coverage: {:.1}%",
        out.baseline_micros,
        out.profiled_micros,
        out.overhead_pct(),
        out.run_coverage_pct,
    );
    out
}

fn write_json(
    path: &str,
    cores: usize,
    entries: &[Entry],
    overhead: &ProfileOverhead,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"sim_round\",")?;
    writeln!(f, "  \"available_cores\": {cores},")?;
    writeln!(f, "  \"samples_per_point\": {SAMPLES},")?;
    writeln!(f, "  \"entries\": [")?;
    for (i, e) in entries.iter().enumerate() {
        let secs = e.wall.as_secs_f64().max(1e-9);
        writeln!(f, "    {{")?;
        writeln!(f, "      \"alg\": \"{}\",", e.alg)?;
        writeln!(f, "      \"n\": {},", e.n)?;
        if let Some(t) = e.threads {
            // Part of the entry identity: the same workload at different
            // worker counts is a scaling curve, not one drifting entry.
            writeln!(f, "      \"threads\": {t},")?;
        }
        writeln!(f, "      \"edges\": {},", e.edges)?;
        writeln!(f, "      \"rounds\": {},", e.stats.rounds)?;
        writeln!(f, "      \"messages\": {},", e.stats.messages)?;
        writeln!(f, "      \"total_bits\": {},", e.stats.total_bits)?;
        writeln!(f, "      \"wall_micros\": {},", e.wall.as_micros())?;
        writeln!(
            f,
            "      \"rounds_per_sec\": {:.1},",
            e.stats.rounds as f64 / secs
        )?;
        writeln!(
            f,
            "      \"bits_per_sec\": {:.1},",
            e.stats.total_bits as f64 / secs
        )?;
        writeln!(
            f,
            "      \"messages_per_sec\": {:.1},",
            e.stats.messages as f64 / secs
        )?;
        if let Some(a) = e.allocs_per_round {
            // Gated exactly: the engine's steady state is allocation-free
            // and must stay that way.
            writeln!(f, "      \"allocs_per_round\": {a},")?;
        }
        writeln!(f, "      \"peak_inbox\": {}", e.peak_inbox)?;
        writeln!(f, "    }}{}", if i + 1 < entries.len() { "," } else { "" })?;
    }
    writeln!(f, "  ],")?;
    // Top-level (not an entry): the regression gate only diffs entries,
    // and the overhead is a noisy property of this one snapshot.
    writeln!(f, "  \"profiling\": {{")?;
    writeln!(f, "    \"baseline_micros\": {},", overhead.baseline_micros)?;
    writeln!(f, "    \"profiled_micros\": {},", overhead.profiled_micros)?;
    writeln!(f, "    \"overhead_pct\": {:.2},", overhead.overhead_pct())?;
    writeln!(
        f,
        "    \"run_coverage_pct\": {:.1}",
        overhead.run_coverage_pct
    )?;
    writeln!(f, "  }}")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let cores = congest_par::max_jobs();
    println!("== group: sim_round (simulator hot-path throughput, available cores: {cores}) ==");
    let mut entries = Vec::new();

    // Whole-graph learning (the O(m + D) generic exact algorithm): the
    // round count scales with m, so these runs exercise many thousands of
    // engine rounds on sparse seeded G(n, p) instances.
    for (i, n) in [32usize, 64, 128, 192].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + i as u64);
        let p = 6.0 / (n as f64 - 1.0);
        let g = generators::connected_gnp(n, p, &mut rng);
        entries.push(measure("learn_graph", &g, 64, true, 1_000_000, || {
            LearnGraph::new(n)
        }));
    }

    // Theorem 2.9 sampled max-cut (local-search root solver so larger n
    // stays feasible): n-round BFS barrier + pipelined convergecast.
    for (i, n) in [32usize, 64, 128].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(2000 + i as u64);
        let p = 6.0 / (n as f64 - 1.0);
        let g = generators::connected_gnp(n, p, &mut rng);
        entries.push(measure("maxcut_sampling", &g, 96, false, 1_000_000, || {
            SampledMaxCut::new(n, 0.5, LocalCutSolver::LocalSearch, 42)
        }));
    }

    // Sharded-engine scaling: the same seeded workload replayed across a
    // threads axis. Counters are byte-identical across worker counts (the
    // equivalence pinned by tests/sharded_trace.rs), so only wall time
    // moves along the curve. Rounds are capped — the curve measures steady-state round
    // throughput, not time-to-convergence.
    for (i, n) in [1_000usize, 10_000].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(3000 + i as u64);
        let p = 6.0 / (n as f64 - 1.0);
        let g = generators::connected_gnp(n, p, &mut rng);
        for threads in [1usize, 2, 4, 8] {
            entries.push(measure_sharded(
                "learn_graph",
                &g,
                64,
                true,
                64,
                threads,
                3,
                || LearnGraph::new(n),
            ));
        }
        // Steady-state allocations-per-round on the single-worker point
        // (the n=10k twin would take minutes per cap run for the same
        // per-round answer).
        if n == 1_000 {
            let allocs = steady_allocs_per_round(&g);
            println!("sim_round/learn_graph/n={n}/threads=1 steady-state allocs/round: {allocs}");
            let entry = entries
                .iter_mut()
                .find(|e| e.alg == "learn_graph" && e.n == n && e.threads == Some(1))
                .expect("grid entry exists");
            entry.allocs_per_round = Some(allocs);
        }
    }

    // Engine-iteration scale: min-ID flooding on the 3-regular
    // circulant-plus-matching substrate. At these sizes the per-round
    // node sweep dominates, which is exactly what sharding parallelizes.
    for n in [100_000usize, 1_000_000] {
        let g = generators::cycle_plus_diameters(n);
        let cap = if n >= 1_000_000 { 8 } else { 32 };
        for threads in [1usize, 8] {
            entries.push(measure_sharded(
                "leader",
                &g,
                24,
                true,
                cap,
                threads,
                3,
                || LeaderElection::new(n),
            ));
        }
    }

    // Profiling overhead on the n=128 learn_graph instance (same
    // seed as its entry above): short enough that machine drift within a
    // plain/profiled pair stays small, long enough to exercise thousands
    // of dispatches per round.
    let mut rng = StdRng::seed_from_u64(1002);
    let n = 128;
    let g = generators::connected_gnp(n, 6.0 / (n as f64 - 1.0), &mut rng);
    let overhead = measure_profile_overhead(&g);
    println!();

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_round.json");
    match write_json(out, cores, &entries, &overhead) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}
