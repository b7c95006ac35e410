//! Serial vs parallel `verify_family` on full input sweeps, with the
//! exact-solver kernels' search counters — the perf record for the
//! verification sweep.
//!
//! Besides the usual printed medians, this bench writes
//! `BENCH_verify_family.json` at the workspace root (CI uploads it next
//! to the experiment traces): available cores, per-entry serial/parallel
//! wall time, speedup, build accounting (`full_builds`/`delta_builds`),
//! and the solver counters aggregated by the serial run (deterministic,
//! so the regression gate compares them exactly). On a single-core
//! runner the parallel sweep degrades to the serial one, so the recorded
//! speedup is meaningful only when `available_cores >= 2`.
//!
//! Workload selection. `K ∈ {3, 4}` runs on the gadget-2 families
//! (width 4); `K ∈ {5, 6}` needs width ≥ 5 and therefore the gadget-4
//! families (width 16). The MDS and structural max-cut sweeps are full
//! `4^K`-pair sweeps at every K. The gadget-4 Hamiltonian instance
//! (n = 126) costs seconds *per hard pair* — a full K = 5 sweep is
//! ~35 min serial — so its K = 5 entry measures a fixed, documented
//! subset: the 15 intersecting diagonal pairs `x = y = m` (m = 1..15,
//! sub-5ms each) plus one disjoint pair `(x, y) = (1, 30)` (the
//! exhaustive-search case, ~4 s), honestly recorded through the `pairs`
//! column. K = 6 Hamiltonian is omitted as intractable. Every pair is
//! distinct, as in a real sweep.

use congest_comm::BitString;
use congest_core::hamiltonian::HamPathFamily;
use congest_core::maxcut::{MaxCutFamily, StructuralMaxCutFamily};
use congest_core::mds::MdsFamily;
use congest_core::{
    ham_k5_subset, padded_inputs, verify_family_with, LowerBoundFamily, VerifyOptions, VerifyStats,
};
use criterion::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// Median wall time of `samples` runs, plus the stats of the last run.
fn measure<F: LowerBoundFamily + Sync>(
    fam: &F,
    inputs: &[(BitString, BitString)],
    opts: &VerifyOptions,
    samples: usize,
) -> (Duration, VerifyStats) {
    let mut times = Vec::with_capacity(samples);
    let mut last_stats = None;
    for _ in 0..samples {
        let start = Instant::now();
        let (res, stats) = verify_family_with(fam, inputs, opts);
        times.push(start.elapsed());
        black_box(res.expect("family must verify"));
        last_stats = Some(stats);
    }
    times.sort_unstable();
    (times[times.len() / 2], last_stats.expect("samples > 0"))
}

struct Entry {
    family: &'static str,
    k: usize,
    gadget_k: usize,
    pairs: usize,
    samples: usize,
    serial: Duration,
    parallel: Duration,
    /// Stats of the serial run: deterministic counters, exact-gated.
    sstats: VerifyStats,
    /// Jobs reported by the parallel run (excluded from the gate).
    jobs: usize,
}

fn bench_one<F: LowerBoundFamily + Sync>(
    family: &'static str,
    fam: &F,
    gadget_k: usize,
    k: usize,
    inputs: &[(BitString, BitString)],
    samples: usize,
) -> Entry {
    let (serial, sstats) = measure(fam, inputs, &VerifyOptions::serial(), samples);
    let (parallel, pstats) = measure(fam, inputs, &VerifyOptions::parallel(), samples);
    println!(
        "verify_family/{family}/K={k:<2} serial: {serial:>11.3?}  parallel: {parallel:>11.3?}  \
         speedup: {:>5.2}x  solver nodes: {}",
        serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
        sstats.solver.nodes,
    );
    Entry {
        family,
        k,
        gadget_k,
        pairs: inputs.len(),
        samples,
        serial,
        parallel,
        sstats,
        jobs: pstats.jobs,
    }
}

fn write_json(path: &str, cores: usize, entries: &[Entry]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"verify_family\",")?;
    writeln!(f, "  \"available_cores\": {cores},")?;
    writeln!(f, "  \"entries\": [")?;
    for (i, e) in entries.iter().enumerate() {
        let s = &e.sstats;
        let speedup = e.serial.as_secs_f64() / e.parallel.as_secs_f64().max(1e-9);
        writeln!(f, "    {{")?;
        writeln!(f, "      \"family\": \"{}\",", e.family)?;
        writeln!(f, "      \"k_input\": {},", e.k)?;
        writeln!(f, "      \"gadget_k\": {},", e.gadget_k)?;
        writeln!(f, "      \"pairs\": {},", e.pairs)?;
        writeln!(f, "      \"samples\": {},", e.samples)?;
        writeln!(f, "      \"jobs\": {},", e.jobs)?;
        writeln!(f, "      \"serial_micros\": {},", e.serial.as_micros())?;
        writeln!(f, "      \"parallel_micros\": {},", e.parallel.as_micros())?;
        writeln!(f, "      \"speedup\": {speedup:.3},")?;
        writeln!(f, "      \"full_builds\": {},", s.full_builds)?;
        writeln!(f, "      \"delta_builds\": {},", s.delta_builds)?;
        writeln!(f, "      \"solver_nodes\": {},", s.solver.nodes)?;
        writeln!(f, "      \"solver_prunes\": {},", s.solver.prunes)?;
        writeln!(f, "      \"solver_backtracks\": {},", s.solver.backtracks)?;
        writeln!(
            f,
            "      \"solver_bound_cutoffs\": {},",
            s.solver.bound_cutoffs
        )?;
        writeln!(
            f,
            "      \"solver_forced_moves\": {},",
            s.solver.forced_moves
        )?;
        writeln!(f, "      \"solver_components\": {},", s.solver.components)?;
        writeln!(f, "      \"solver_micros\": {}", s.solver.elapsed_micros)?;
        writeln!(f, "    }}{}", if i + 1 < entries.len() { "," } else { "" })?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let cores = congest_par::max_jobs();
    println!("== group: verify_family (available cores: {cores}) ==");

    let mut entries = Vec::new();

    // Gadget-2 families (width 4): full sweeps at K = 3, 4.
    let mds2 = MdsFamily::new(2);
    let ham2 = HamPathFamily::new(2);
    let width2 = mds2.input_len();
    for k in [3usize, 4] {
        let inputs = padded_inputs(k, width2);
        entries.push(bench_one("mds", &mds2, 2, k, &inputs, 5));
        entries.push(bench_one("hamiltonian_path", &ham2, 2, k, &inputs, 5));
    }

    // Gadget-4 families (width 16): K = 5, 6.
    let mds4 = MdsFamily::new(4);
    let mc4 = StructuralMaxCutFamily(MaxCutFamily::new(4));
    let width4 = mds4.input_len();
    for (k, samples) in [(5usize, 3usize), (6, 2)] {
        let inputs = padded_inputs(k, width4);
        entries.push(bench_one("mds", &mds4, 4, k, &inputs, samples));
        entries.push(bench_one("maxcut_structural", &mc4, 4, k, &inputs, samples));
    }

    // Hamiltonian K = 5 on the documented fixed subset (see module doc):
    // 15 cheap intersecting diagonals and one exhaustive disjoint pair.
    let ham4 = HamPathFamily::new(4);
    let inputs = ham_k5_subset(width4);
    entries.push(bench_one("hamiltonian_path", &ham4, 4, 5, &inputs, 2));
    println!();

    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_verify_family.json"
    );
    match write_json(out, cores, &entries) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("cannot write {out}: {e}"),
    }
}
